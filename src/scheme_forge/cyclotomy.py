"""Cyclotomic classes C_i of order N and their exact Gauss periods.

For each class index i and each t in F_p, count[i][t] is how many x in C_i
have tr(x) = t (C_i holds gamma^e for e = i mod N); the period eta_i is the
reduction of sum_t count[i][t] xi_p^t in Z[xi_p].  The counts are read off
the norm block, the trace m-sequence s_e = tr(gamma^e) over one norm period
e < L = (q-1)/(p-1): gamma^L = N(gamma) lies in F_p^* and tr is F_p-linear,
so s_{e+kL} = N(gamma)^k s_e (mod p), and the term at e with trace t counts
once in class (e + kL) mod N with trace N(gamma)^k t for each k < p - 1.
All character sums over unions of classes are exact linear combinations of
the periods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycint import CycInt
from .errors import IndexOutOfRange, NotADivisor, ZeroElement
from .finite_field import FieldSpec

_TALLY_ROWS = 1 << 18  # block terms per bincount: O(N p + this) memory


@dataclass
class CyclotomicSystem:
    field: FieldSpec
    N: int
    M: int                       # class size (q-1)/N
    trace_counts: np.ndarray     # (N, p) int64
    periods: tuple[CycInt, ...]  # eta_0 .. eta_{N-1}, conductor p
    period_matrix: np.ndarray    # (N, p-1) int64, reduced coefficient rows

    def class_of(self, x: int) -> int:
        self.field.check_element(x)
        if x == 0:
            raise ZeroElement("0 lies in no cyclotomic class")
        return int(self.field.log_table[x]) % self.N

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

    # a term s_e = t of the norm block stands for the p - 1 terms
    # s_{e+kL} = N(gamma)^k t: rotate the block, or its own (e mod N, t)
    # tally when that is shorter
    L, block = field.norm_period, field.norm_block
    if L <= N * p:
        e, t, weights = np.arange(L), block, None
    else:
        e, t = np.divmod(np.arange(N * p), p)
        tally = np.zeros(N * p, dtype=np.int64)
        for start in range(0, L, _TALLY_ROWS):
            keys = np.arange(start, min(start + _TALLY_ROWS, L))
            keys %= N
            keys *= p
            keys += block[start:start + _TALLY_ROWS]
            tally += np.bincount(keys, minlength=N * p)
        weights = np.tile(tally, p - 1)
    keys = np.add.outer(np.arange(p - 1) * (L % N), e)
    keys %= N
    keys *= p
    values = np.multiply.outer(field.norm_powers, t)
    values %= p
    keys += values
    # weighted bincount sums in float64: exact, as every count is below q
    counts = np.bincount(keys.ravel(), weights, minlength=N * p)
    counts = counts.astype(np.int64).reshape(N, p)

    pm = np.empty((N, p - 1), dtype=np.int64)
    pm[:] = counts[:, : p - 1]
    pm -= counts[:, p - 1:p]
    periods = tuple(CycInt(p, tuple(int(c) for c in row)) for row in pm)
    return CyclotomicSystem(field=field, N=N, M=M, trace_counts=counts,
                            periods=periods, period_matrix=pm)


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
