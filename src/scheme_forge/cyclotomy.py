"""Cyclotomic classes C_i of order N and their exact Gauss periods.

For each class index i and each t in F_p, count[i][t] is how many x in C_i
have tr(x) = t (C_i holds gamma^e for e = i mod N); the period eta_i is the
reduction of sum_t count[i][t] xi_p^t in Z[xi_p].  The counts are read off
the norm stream, the trace m-sequence s_e = tr(gamma^e) over one norm period
e < L = (q-1)/(p-1): gamma^L = N(gamma) lies in F_p^* and tr is F_p-linear,
so s_{e+kL} = N(gamma)^k s_e (mod p), and the term at e with trace t counts
once in class (e + kL) mod N with trace N(gamma)^k t for each k < p - 1.
Each sub-block of the stream is rotated through the p - 1 norm periods a
group of periods per bincount, or, when the tally is shorter than the
period, added to its (e mod N, t) tally, which is then rotated.  Either
way the pass holds O(N p + _BLOCK) memory, never the period itself.  All
character sums over unions of classes are exact linear combinations of the
periods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycint import CycInt
from .errors import IndexOutOfRange, NotADivisor
from .finite_field import _BLOCK, FieldSpec


@dataclass
class CyclotomicSystem:
    field: FieldSpec
    N: int
    M: int                       # class size (q-1)/N
    trace_counts: np.ndarray     # (N, p) int64
    periods: tuple[CycInt, ...]  # eta_0 .. eta_{N-1}, conductor p
    period_matrix: np.ndarray    # (N, p-1) int64, reduced coefficient rows

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

    # a term s_e = t of the norm period stands for the p - 1 terms
    # s_{e+kL} = N(gamma)^k t: rotate the terms, a sub-block of the stream
    # at a time, or their (e mod N, t) tally when that is shorter
    L = field.norm_period
    counts = np.zeros(N * p, dtype=np.int64)
    if L <= N * p:
        for start, t in field.norm_stream():
            _rotate(field, N, np.arange(start, start + len(t)), t, None, counts)
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
        e, t = np.divmod(np.arange(N * p), p)
        _rotate(field, N, e, t, tally, counts)
    counts = counts.reshape(N, p)

    pm = np.empty((N, p - 1), dtype=np.int64)
    pm[:] = counts[:, : p - 1]
    pm -= counts[:, p - 1:p]
    periods = tuple(CycInt(p, tuple(int(c) for c in row)) for row in pm)
    return CyclotomicSystem(field=field, N=N, M=M, trace_counts=counts,
                            periods=periods, period_matrix=pm)


def _rotate(field: FieldSpec, N: int, e: np.ndarray, t: np.ndarray,
            weights: np.ndarray | None, counts: np.ndarray) -> None:
    """Add to counts the terms s_e = t, weighted, in all p - 1 norm periods.

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
        # weighted bincount sums in float64: exact, as every count is below q
        w = None if weights is None else np.tile(weights, len(k))
        counts += np.bincount(keys.ravel(), w, minlength=N * p).astype(np.int64)


def character_sum(sys: CyclotomicSystem, index_set, shift: int = 0) -> CycInt:
    """psi(gamma^shift D) for D the union of classes C_i, i in index_set."""
    total = [0] * (sys.field.p - 1)
    for i in index_set:
        if not (0 <= i < sys.N):
            raise IndexOutOfRange(f"class index {i} outside Z_{sys.N}")
        row = sys.period_matrix[(i + shift) % sys.N]
        for t in range(sys.field.p - 1):
            total[t] += int(row[t])
    return CycInt(sys.field.p, tuple(total))
