"""Cyclotomic classes C_i of order N and their exact Gauss periods.

Every exact value is an int64 coefficient row on the basis 1, xi_p, ...,
xi_p^{p-2} of Z[xi_p]: xi_p^{p-1} = -(1 + xi_p + ... + xi_p^{p-2}) makes
the row canonical, so equal values have equal rows.  For each class index
i and each t in F_p, count[i][t] is how many x in C_i have tr(x) = t (C_i
holds gamma^e for e = i mod N); the period eta_i is the row of
sum_t count[i][t] xi_p^t, count[i][t] - count[i][p-1] for t < p - 1.  The
counts are read off the norm stream, the trace m-sequence s_e = tr(gamma^e)
over one norm period e < L = (q-1)/(p-1): gamma^L = nu = N(gamma) is a
primitive root mod p and tr is F_p-linear, so s_{e+kL} = nu^k s_e (mod p).
As (p - 1) L = q - 1 = 0 (mod N), k -> (e + kL mod N, nu^k t) is an action
of Z_{p-1}: the term at e with s_e = nu^a counts once in class i with trace
nu^m iff i - mL = e - aL (mod N).  So one pass tallies the stream by
(e mod N, t), a sub-block at a time, and one scatter adds each nonzero
trace's cell (r, nu^a) of the tally to H[r - aL mod N]; class i has
H[i - mL mod N] terms of trace nu^m, and the class size M leaves the zero
traces' count.  That is O(L + N p) time and O(N p + _BLOCK) memory, never
the period itself.  All character sums over unions of classes are sums of
period rows: ``_signature_sums`` forms those of every part of a batch of
partitions under every character, the signatures scheme_core reads.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotADivisor, PartitionInvalid, check_budget
from .finite_field import _BLOCK, FieldSpec


@dataclass
class CyclotomicSystem:
    field: FieldSpec
    N: int
    M: int                     # class size (q-1)/N
    period_matrix: np.ndarray  # (N, p-1) int64: row i is eta_i

    def minus_one_class(self) -> int:
        """Index c with -1 in C_c, i.e. (q-1)/2 mod N (q odd) or 0 (q even)."""
        if self.field.q % 2 == 0:
            return 0
        return ((self.field.q - 1) // 2) % self.N


def build_cyclotomy(field: FieldSpec, N: int) -> CyclotomicSystem:
    q, p = field.q, field.p
    if N < 1 or (q - 1) % N != 0:
        raise NotADivisor(f"N = {N} does not divide q-1 = {q - 1}")
    M = (q - 1) // N
    L = field.norm_period
    # peak bytes: 32 a cell of the (N, p) counts bounds the measured 24
    # (large p) to 28 (p = 2)
    check_budget(32 * N * p, f"the order-{N} periods of F_{{{p}^{field.f}}} need")

    # tally[r, t]: the e < L with e = r (mod N) and s_e = t
    tally = np.zeros(N * p, dtype=np.int64)
    # offsets[r + i] = ((r + i) mod N) p: a sub-block at start reads its own
    # from r = start mod N
    offsets = np.arange(min(L, _BLOCK) + N - 1, dtype=np.intp)
    offsets %= N
    offsets *= p
    for start, chunk in field.norm_stream():
        r, b = start % N, len(chunk)
        np.add.at(tally, offsets[r:r + b] + chunk, 1)
    del offsets

    # a term at e with s_e = nu^a counts in class i with trace nu^m iff
    # i - mL = e - aL (mod N): H[c] sums the nonzero traces' tally[r, nu^a]
    # over r - aL = c, and class i has H[(i - mL) mod N] terms of trace nu^m.
    # In int64: a weighted bincount would cast to float64, whose first use
    # in a process costs 68 KB of RSS
    log = np.zeros(p, dtype=np.intp)
    log[field.norm_powers] = np.arange(p - 1)
    shift = log * (L % N) % N
    H = np.zeros(N, dtype=np.int64)
    np.add.at(H, (np.arange(N)[:, None] - shift[1:]) % N,
              tally.reshape(N, p)[:, 1:])
    del tally
    # i - mL + N lies in [1, 2N): read off H twice over, with no mod
    counts = np.concatenate((H, H))[np.add.outer(np.arange(N), N - shift)]
    counts[:, 0] = M - counts[:, 1:].sum(axis=1)
    pm = counts[:, :p - 1] - counts[:, p - 1:]
    return CyclotomicSystem(field=field, N=N, M=M, period_matrix=pm)


@lru_cache(maxsize=None)
def _roots(p: int) -> tuple[list[float], list[float]]:
    """Real and imaginary parts of exp(2 pi i k / p), k < p - 1."""
    roots = [cmath.exp(2j * cmath.pi * k / p) for k in range(p - 1)]
    return [z.real for z in roots], [z.imag for z in roots]


def embed(rows, p: int) -> np.ndarray:
    """Coefficient rows (..., p - 1) evaluated at xi_p = exp(2 pi i / p).

    Each entry is sum(c * xi_p^k for k, c in enumerate(row) if c) bit for
    bit: the terms are added left to right from k = 0 to a sum that starts
    at +0.0, where the signed zero a zero term adds changes nothing.
    """
    c = np.asarray(rows, dtype=np.float64)
    re, im = np.zeros((2,) + c.shape[:-1])
    for k, (x, y) in enumerate(zip(*_roots(p))):
        re += c[..., k] * x
        im += c[..., k] * y
    out = np.empty(c.shape[:-1], dtype=complex)
    out.real, out.imag = re, im
    return out


def _dtype(bound: int):
    """A product stage's dtype for |partial sums| <= ``bound``: float64 below
    2^53 (exact on BLAS in any order), int64 below 2^63, else Python ints."""
    return np.float64 if bound < 2 ** 53 else np.int64 if bound < 2 ** 63 else object


def _cast(x: np.ndarray, dtype) -> np.ndarray:
    """x's integer entries in ``dtype``, float64 through int64: never floats."""
    x = x.astype(np.int64) if x.dtype == np.float64 and dtype is not np.float64 else x
    return x.astype(dtype, copy=False)


def _height(a: np.ndarray) -> int:  # max |a|, no int64 overflow at -2^63
    return max(int(a.max()), -int(a.min()))


def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a[x] b[y] for coefficient rows of Z[xi_p], (..., ..., p): the cyclic
    convolution in Z[x]/(x^p - 1), in ``_dtype`` of p B_a B_b (B the largest
    |coefficient|).  Reversed rows of a times the view w[y, m, l] = b[y, (m +
    l + 2) mod p] of b doubled; each w[:, m].T is column-major, so BLAS."""
    dtype = _dtype(p * _height(a) * _height(b))
    x = _cast(a.reshape(-1, p - 1)[:, ::-1], dtype)
    y = np.zeros((b.size // (p - 1), 2 * p), dtype=dtype)
    y[:, :p - 1] = y[:, p:-1] = b.reshape(-1, p - 1)
    c = x @ sliding_window_view(y[:, 2:], p - 1, axis=1).transpose(1, 2, 0)
    return np.moveaxis(c.reshape((p,) + a.shape[:-1] + b.shape[:-1]), 0, -1)


# charged a cell of the signature sums before they are allocated: ~32 B a
# cell of dual_classes' table, its sorted row keys and distinct rows, ~70 B
# a row (sort index, labels); ~19 B a cell of signature_counts' batch
_CELL_BYTES = 40


def _signature_sums(sys: CyclotomicSystem, labels: np.ndarray, d: int,
                    what: str) -> np.ndarray:
    """(R, N, d, p - 1) sums: [r, a, i] sums eta_{(j + a) mod N} over the j with
    labels[r, j] = i (zero if none), the period rows shifted by j added a j.
    ``what`` names the caller's table in the budget refusal."""
    (R, N), pm, width = labels.shape, sys.period_matrix, sys.field.p - 1
    if N != sys.N:
        raise PartitionInvalid(f"partition is over Z_{N}, system over Z_{sys.N}")
    check_budget(_CELL_BYTES * R * N * d * width, what)
    if not (0 <= labels.min() and labels.max() < d):
        raise PartitionInvalid(f"a label outside [0, {d})")
    if R == 1:
        # ints add into views of the table itself: no buffer, no doubled periods
        sums = np.zeros((1, N, d, width), dtype=np.int64)
        for j, i in enumerate(labels[0].tolist()):
            sums[0, :N - j, i] += pm[j:]
            sums[0, N - j:, i] += pm[:j]
        return sums
    # index arrays gather and scatter contiguous blocks of a buffer, one window
    # of the doubled periods into rows r d + labels[r, j], copied into order
    pm2 = np.tile(pm, (2, 1))
    sums = np.zeros((R * d, N, width), dtype=np.int64)
    for j, rows in enumerate(labels.T + d * np.arange(R)):
        sums[rows] += pm2[j:j + N]
    return np.ascontiguousarray(sums.reshape(R, d, N, width).swapaxes(1, 2))
