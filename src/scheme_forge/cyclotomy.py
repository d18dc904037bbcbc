"""Cyclotomic classes C_i of order N and their exact Gauss periods.

Every exact value is an int64 coefficient row on the basis 1, xi_p, ...,
xi_p^{p-2} of Z[xi_p]: xi_p^{p-1} = -(1 + xi_p + ... + xi_p^{p-2}) makes
the row canonical, so equal values have equal rows.  For each class index
i and each t in F_p, count[i][t] is how many x in C_i have tr(x) = t (C_i
holds gamma^e for e = i mod N); the period eta_i is the row of
sum_t count[i][t] xi_p^t, count[i][t] - count[i][p-1] for t < p - 1.  The
counts are read off the norm stream, the trace m-sequence s_e = tr(gamma^e)
over one norm period e < L = (q-1)/(p-1): gamma^L = N(gamma) lies in F_p^*
and tr is F_p-linear, so s_{e+kL} = N(gamma)^k s_e (mod p), and the term at
e with trace t counts once in class (e + kL) mod N with trace N(gamma)^k t
for each k < p - 1.  Each sub-block of the stream is rotated through the
p - 1 norm periods a group of periods per bincount, or, when the tally is
shorter than the period, added to its (e mod N, t) tally, which is then
rolled and permuted into each norm period.  Either way the pass holds
O(N p + _BLOCK) memory, never the period itself.  All character sums over
unions of classes are sums of period rows.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, IndexOutOfRange, NotADivisor
from .finite_field import _BLOCK, FieldSpec

PERIOD_BUDGET = 1 << 30  # bytes of build_cyclotomy's working set


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
    # peak bytes, measured: 32 a cell of the (N, p) counts, whether the
    # stream or its tally is rotated
    need = 32 * N * p
    if need > PERIOD_BUDGET:
        raise BudgetExceeded(
            f"the order-{N} periods of F_{{{p}^{field.f}}} need "
            f"~{need >> 20} MiB, over the {PERIOD_BUDGET >> 20} MiB budget")

    # a term s_e = t of the norm period stands for the p - 1 terms
    # s_{e+kL} = N(gamma)^k t: rotate the terms, a sub-block of the stream
    # at a time, or their (e mod N, t) tally when that is shorter
    if L <= N * p:
        counts = np.zeros(N * p, dtype=np.int64)
        for start, t in field.norm_stream():
            _rotate(field, N, np.arange(start, start + len(t)), t, counts)
        counts = counts.reshape(N, p)
    else:
        tally = np.zeros(N * p, dtype=np.int64)
        # offsets[r + i] = ((r + i) mod N) p: a sub-block at start reads its
        # own from r = start mod N
        offsets = np.arange(min(L, _BLOCK) + N - 1, dtype=np.intp)
        offsets %= N
        offsets *= p
        keys = np.empty(min(L, _BLOCK), dtype=np.intp)
        for start, chunk in field.norm_stream():
            r, b = start % N, len(chunk)
            np.add(offsets[r:r + b], chunk, out=keys[:b])
            tally += np.bincount(keys[:b], minlength=N * p)
        tally = tally.reshape(N, p)
        # period k moves tally[e, t] to counts[e + kL, N(gamma)^k t], so
        # counts[r, u] gains tally[r - kL, N(gamma)^-k u]
        counts = np.zeros((N, p), dtype=np.int64)
        r, u = np.arange(N), np.arange(p)
        for k in range(p - 1):
            counts += tally[np.ix_((r - k * L % N) % N, field.norm_powers[-k] * u % p)]

    pm = counts[:, :p - 1] - counts[:, p - 1:]
    return CyclotomicSystem(field=field, N=N, M=M, period_matrix=pm)


def _rotate(field: FieldSpec, N: int, e: np.ndarray, t: np.ndarray,
            counts: np.ndarray) -> None:
    """Add to counts the terms s_e = t in all p - 1 norm periods.

    In period k the term stands at e + kL with trace N(gamma)^k t; as many
    periods go to one bincount as fit in max(_BLOCK, N p) keys.
    """
    p, L = field.p, field.norm_period
    group = max(1, max(_BLOCK, N * p) // len(e))
    for k0 in range(0, p - 1, group):
        k = np.arange(k0, min(k0 + group, p - 1))
        keys = np.add.outer(k * (L % N), e)
        keys %= N
        keys *= p
        values = np.multiply.outer(field.norm_powers[k], t)
        values %= p
        keys += values
        counts += np.bincount(keys.ravel(), minlength=N * p)


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
