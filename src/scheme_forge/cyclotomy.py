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
(e mod N, t), a sub-block at a time, and one fold sums the tally over the N
values of e - aL and reads every nonzero trace's count back from those
sums; the class size M leaves the zero traces' count.  That is O(L + N p)
time and O(N p + _BLOCK) memory, never the period itself.  All character
sums over unions of classes are sums of period rows.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange, NotADivisor, check_budget
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
    # the keys of whole sub-blocks fill max(_BLOCK, N p) before one bincount
    # of the N p cells adds them, still in cache: O(1) a term, not O(N p) a
    # sub-block
    keys = np.empty(min(L, max(_BLOCK, N * p)), dtype=np.intp)
    fill = 0
    for start, chunk in field.norm_stream():
        r, b = start % N, len(chunk)
        np.add(offsets[r:r + b], chunk, out=keys[fill:fill + b])
        fill += b
        if fill + _BLOCK > len(keys) or start + b == L:
            tally += np.bincount(keys[:fill], minlength=N * p)
            fill = 0
    del offsets, keys
    tally[::p] = 0  # t = 0: the class size M fixes the zero traces

    # a term at e with s_e = nu^a counts in class i with trace nu^m iff
    # i - mL = e - aL (mod N): H[c] sums tally[(c + aL) mod N, nu^a] over a,
    # and class i has H[(i - mL) mod N] terms of trace nu^m.  In int64: a
    # weighted bincount would cast to float64, whose first use in a process
    # costs 68 KB of RSS
    log = np.zeros(p, dtype=np.intp)
    log[field.norm_powers] = np.arange(p - 1)
    shift = log * (L % N) % N
    index = np.add.outer(shift, np.arange(N))  # by trace: rows step in order
    index %= N
    index *= p
    index += np.arange(p)[:, None]
    H = tally[index].sum(axis=0)
    del tally, index
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


def character_sum(sys: CyclotomicSystem, index_set, shift: int = 0) -> np.ndarray:
    """The row of psi(gamma^shift D), D the union of classes C_i, i in index_set."""
    idx = list(index_set)
    for i in idx:
        if not (0 <= i < sys.N):
            raise IndexOutOfRange(f"class index {i} outside Z_{sys.N}")
    classes = (np.array(idx, dtype=np.int64) + shift) % sys.N
    return sys.period_matrix[classes].sum(axis=0)
