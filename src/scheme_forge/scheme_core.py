"""Translation-scheme verification and structure computations.

A candidate scheme on (F_q, +) is a partition of Z_N into index sets; the
induced relations are unions of cyclotomic classes (plus the implicit {0}).
The partition is an association scheme iff the additive characters, grouped
by their exact value vector on the relations, fall into exactly d classes
besides the principal one; values live in Z[xi_p], so signatures are
integer coefficient rows and the verdict is exact.  Intersection numbers,
and Krein parameters as the intersection numbers of the dual partition,
follow from the same rows by the translation-scheme identity, with exact
divisibility checks in place of any element-level count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycint import CycInt
from .cyclotomy import CyclotomicSystem
from .errors import (MalformedPartition, NotAScheme, PartitionInvalid,
                     SingularP, TooLargeForOracle)

ORACLE_CAP = 20_000


@dataclass(frozen=True)
class IndexPartition:
    """Partition of Z_N; the trivial class {0} of F_q is implicit, not stored."""

    N: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for part in self.parts:
            if len(part) == 0:
                raise PartitionInvalid("empty part")
            for i in part:
                if not (0 <= i < self.N):
                    raise PartitionInvalid(f"index {i} outside Z_{self.N}")
                if i in seen:
                    raise PartitionInvalid(f"index {i} appears twice")
                seen.add(i)
        if len(seen) != self.N:
            raise PartitionInvalid("parts do not cover Z_N")

    @classmethod
    def from_sets(cls, N: int, parts) -> "IndexPartition":
        return cls(N, tuple(tuple(sorted(set(p))) for p in parts))

    @property
    def d(self) -> int:
        return len(self.parts)

    def part_sets(self) -> list[frozenset]:
        return [frozenset(p) for p in self.parts]

    def affine_image(self, u: int, v: int) -> "IndexPartition":
        return IndexPartition.from_sets(
            self.N, [[(u * i + v) % self.N for i in p] for p in self.parts])

    def to_json(self) -> dict:
        return {"N": self.N, "parts": [list(p) for p in self.parts]}


@dataclass
class SchemeReport:
    is_scheme: bool
    d: int
    N: int
    q: int
    distinct_signatures: int
    valencies: list[int] | None = None
    P_exact: list[list[CycInt]] | None = None
    P_complex: np.ndarray | None = None
    Q_complex: np.ndarray | None = None
    intersection_matrices: list[np.ndarray] | None = None
    dual_parts: list[tuple[int, ...]] | None = None
    is_symmetric_rel: list[bool] | None = None
    nonsymmetric_pair_count: int | None = None
    is_primitive: bool | None = None
    is_self_dual: bool | None = None
    self_dual_permutation: list[int] | None = None


# --- signatures -------------------------------------------------------------

def _signature_rows(sys: CyclotomicSystem, partition: IndexPartition) -> np.ndarray:
    """Row a = concatenated reduced coefficients of psi(gamma^a R_i), i = 1..d."""
    if partition.N != sys.N:
        raise PartitionInvalid(f"partition is over Z_{partition.N}, system over Z_{sys.N}")
    N = sys.N
    a = np.arange(N)
    pieces = []
    for part in partition.parts:
        idx = (a[:, None] + np.asarray(part)[None, :]) % N
        pieces.append(sys.period_matrix[idx].sum(axis=1))
    return np.concatenate(pieces, axis=1)


def dual_classes(sys: CyclotomicSystem, partition: IndexPartition):
    """Group a in Z_N by exact signature; returns (count, parts, unique_rows).

    Parts come out sorted by the lexicographic order of their signature rows,
    the canonical row order of the eigenmatrix.
    """
    rows = _signature_rows(sys, partition)
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    parts = [tuple(np.nonzero(inverse == i)[0].tolist()) for i in range(len(uniq))]
    return len(uniq), parts, uniq


def is_scheme(sys: CyclotomicSystem, partition: IndexPartition) -> bool:
    count, _, _ = dual_classes(sys, partition)
    return count == partition.d


# --- symmetry ----------------------------------------------------------------

def is_symmetric(sys: CyclotomicSystem, partition: IndexPartition, i: int) -> bool:
    c = sys.minus_one_class()
    part = set(partition.parts[i])
    return {(j + c) % sys.N for j in part} == part


def negation_image_index(sys: CyclotomicSystem, partition: IndexPartition, i: int) -> int:
    c = sys.minus_one_class()
    image = frozenset((j + c) % sys.N for j in partition.parts[i])
    for k, part in enumerate(partition.part_sets()):
        if part == image:
            return k
    raise NotAScheme("negation image of a relation is not a relation")


def symmetrize(sys: CyclotomicSystem, partition: IndexPartition) -> IndexPartition:
    """Merge each part with its negation image (idempotent).

    Implemented as a union-find over parts (a part joins every part its
    negation image touches), so the result is a partition even when the
    input is not a scheme and images straddle several parts.
    """
    c = sys.minus_one_class()
    sets = [set(p) for p in partition.parts]
    parent = list(range(len(sets)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, s in enumerate(sets):
        image = {(j + c) % sys.N for j in s}
        for k, t in enumerate(sets):
            if image & t:
                ri, rk = find(i), find(k)
                if ri != rk:
                    parent[max(ri, rk)] = min(ri, rk)

    groups: dict[int, set] = {}
    for i, s in enumerate(sets):
        groups.setdefault(find(i), set()).update(s)
    merged = [sorted(groups[r]) for r in sorted(groups)]
    return IndexPartition.from_sets(partition.N, merged)


# --- primitivity ---------------------------------------------------------------

def is_primitive(sys: CyclotomicSystem, partition: IndexPartition,
                 _verified: bool = False) -> bool:
    """No nontrivial relation of the symmetrization has a character sum equal
    to its valency (exact test over all nonprincipal characters).

    ``_verified`` skips the scheme check, for callers that have made it.
    """
    if not _verified and not is_scheme(sys, partition):
        raise NotAScheme("primitivity is only defined for verified schemes")
    sym = symmetrize(sys, partition)
    rows = _signature_rows(sys, sym)
    p = sys.field.p
    for j, part in enumerate(sym.parts):
        valency = sys.M * len(part)
        block = rows[:, j * (p - 1):(j + 1) * (p - 1)]
        hit = (block[:, 0] == valency) & (block[:, 1:] == 0).all(axis=1)
        if hit.any():
            return False
    return True


# --- full verification ----------------------------------------------------------

def verify_scheme(sys: CyclotomicSystem, partition: IndexPartition) -> SchemeReport:
    count, parts_by_sig, uniq = dual_classes(sys, partition)
    d = partition.d
    report = SchemeReport(is_scheme=(count == d), d=d, N=sys.N, q=sys.field.q,
                          distinct_signatures=count)
    if not report.is_scheme:
        return report

    report.valencies = [sys.M * len(p) for p in partition.parts]
    report.dual_parts = parts_by_sig

    report.P_exact, report.P_complex, report.Q_complex = eigenmatrices(
        sys, partition, _precomputed=uniq)
    report.intersection_matrices = intersection_numbers(
        sys, partition, _verified=True)

    report.is_symmetric_rel = [is_symmetric(sys, partition, i) for i in range(d)]
    report.nonsymmetric_pair_count = sum(
        1 for i in range(d) if not report.is_symmetric_rel[i]
        and negation_image_index(sys, partition, i) > i)

    report.is_primitive = is_primitive(sys, partition, _verified=True)

    primal = partition.part_sets()
    dual = [frozenset(p) for p in parts_by_sig]
    report.is_self_dual = set(primal) == set(dual)
    if report.is_self_dual:
        report.self_dual_permutation = [dual.index(p) for p in primal]
    return report


# --- eigenmatrices -----------------------------------------------------------

def eigenmatrices(sys: CyclotomicSystem, partition: IndexPartition,
                  _precomputed=None):
    """(P_exact, P_complex, Q_complex) with Q = q P^{-1}.

    Row 0 is the principal character (valencies with a leading one); rows
    1..d follow the lexicographic order of their exact signature rows.
    ``_precomputed`` is those unique rows, for callers that have them.
    """
    uniq = _precomputed
    if uniq is None:
        count, _, uniq = dual_classes(sys, partition)
        if count != partition.d:
            raise NotAScheme("eigenmatrices of a non-scheme")

    d = partition.d
    p = sys.field.p
    n = p - 1
    one = CycInt.integer(p, 1)

    rows = [[one] + [CycInt.integer(p, sys.M * len(part))
                     for part in partition.parts]]
    for coeffs in uniq.tolist():
        rows.append([one] + [CycInt(p, tuple(coeffs[j * n:(j + 1) * n]))
                             for j in range(d)])

    P_complex = np.array([[e.embed() for e in row] for row in rows], dtype=complex)
    try:
        Q_complex = sys.field.q * np.linalg.inv(P_complex)
    except np.linalg.LinAlgError as exc:
        raise SingularP("first eigenmatrix is singular") from exc
    return rows, P_complex, Q_complex


# --- intersection numbers -------------------------------------------------------

def intersection_numbers(sys: CyclotomicSystem, partition: IndexPartition,
                         _verified: bool = False):
    """Intersection matrices B_0..B_d, B_i[k][j] = p_{ij}^k.

    Computed from the signature rows alone, by the translation-scheme
    identity (Bannai-Ito 1984; Brouwer-Cohen-Neumaier 1989, 2.2): with
    sigma_a(i) = psi(gamma^a R_i) and sigma_a(0) = 1,

        q k_k p_{ij}^k = k_i k_j k_k + M sum_a sigma_a(i) sigma_a(j) conj sigma_a(k),

    where conj sigma_a(k) = sigma_{a+c}(k) for -1 in C_c, i.e. x -> x^{-1}
    on Z[x]/(x^p - 1).  The sum is an integer S, evaluated exactly in
    Z[x]/(x^p - 1) through Tr(alpha) = p alpha_0 - alpha(1), which is the
    same for every representative of alpha(xi_p):
    (p-1) S = sum_a [p (sigma sigma conj sigma)_0 - sigma(1)^3].

    The summand is constant on Galois cosets.  t in F_p^* is gamma^e with
    e a multiple of h = (q-1)/(p-1), and xi -> xi^t maps psi(gamma^a R_i)
    to psi(t gamma^a R_i) = sigma_{a+e}(i), while Tr is Galois-invariant.
    So the summand depends on a only through its coset of <h> in Z_N:
    there are g = gcd(N, h) cosets, with representatives a = 0..g-1 and
    N/g elements each, and the sum is N/g times the sum over a < g (g = N
    when p = 2).  The divisions by p - 1 and by q k_k must both be exact,
    else NotAScheme.
    """
    if not _verified and not is_scheme(sys, partition):
        raise NotAScheme("intersection numbers of a non-scheme")
    acc, k = _trace_sums(sys, partition)
    p, q, M = sys.field.p, sys.field.q, sys.M
    if (acc % (p - 1)).any():
        raise NotAScheme("character sum over the relations is not rational")
    numer = k[:, None, None] * k[None, :, None] * k + M * (acc // (p - 1))
    if (numer % (q * k)).any():
        raise NotAScheme("intersection numbers are not integers")
    counts = numer // (q * k)
    # counts[i, j, k] = p_{ij}^k
    return [counts[i].T.astype(np.int64) for i in range(partition.d + 1)]


def _trace_sums(sys: CyclotomicSystem, partition: IndexPartition):
    """(acc, k): acc[i, j, k] = (p-1) S for the sum S of intersection_numbers,
    over the g coset representatives weighted by N/g, and the valencies k
    (k_0 = 1), both of one integer dtype."""
    d, N, M = partition.d, sys.N, sys.M
    p, q = sys.field.p, sys.field.q
    K = d + 1
    g = math.gcd(N, (q - 1) // (p - 1))
    rows = _signature_rows(sys, partition)[:g].reshape(g, d, p - 1)
    # sigma_a(i) as a length-p vector in Z[x]/(x^p - 1); R_0 = {0} gives 1
    sig = np.zeros((g, K, p), dtype=np.int64)
    sig[:, 0, 0] = 1
    sig[:, 1:, :p - 1] = rows
    k = [1] + [M * len(part) for part in partition.parts]
    # with B = max |coefficient| of these rows, each row adds at most
    # 2 p^3 B^3 to |acc|, which is N/g times a sum of g rows; the numerator
    # adds k_i k_j k_k to M acc / (p - 1)
    acc_bound = 2 * N * p ** 3 * int(np.abs(sig).max()) ** 3
    int64_ok = max(acc_bound, max(k) ** 3 + M * acc_bound // (p - 1)) < 2 ** 63
    dtype = np.int64 if int64_ok else object
    sig = sig.astype(dtype)
    shift = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    acc = np.zeros((K, K, K), dtype=dtype)
    for u in sig:
        # conv[i, j, m] = (u_i u_j)_m; (u_i u_j conj u_k)_0 = sum_m conv[i, j, m] u_k[m]
        conv = np.tensordot(u, u[:, shift], axes=([1], [1]))
        s = u.sum(axis=1)
        acc += p * (conv @ u.T) - s[:, None, None] * s[None, :, None] * s
    acc *= N // g
    return acc, np.array(k, dtype=dtype)


# --- Krein parameters --------------------------------------------------------

def krein_parameters(sys: CyclotomicSystem, partition: IndexPartition):
    """Intersection matrices of the dual scheme (translation duality)."""
    count, parts_by_sig, _ = dual_classes(sys, partition)
    if count != partition.d:
        raise NotAScheme("Krein parameters of a non-scheme")
    dual = IndexPartition.from_sets(sys.N, parts_by_sig)
    return intersection_numbers(sys, dual)


def dual_partition(sys: CyclotomicSystem, partition: IndexPartition) -> IndexPartition:
    count, parts_by_sig, _ = dual_classes(sys, partition)
    if count != partition.d:
        raise NotAScheme("dual of a non-scheme")
    return IndexPartition.from_sets(sys.N, parts_by_sig)


# --- Bannai-Muzychuk fusion criterion ---------------------------------------

def check_fusion(P_exact, column_partition):
    """Constant-row-block-sum test on an exact first eigenmatrix.

    ``column_partition`` partitions {0..d} with its first cell equal to {0}.
    Returns (row_partition, fused_P_exact) on success, None when the merged
    relations do not form a scheme.
    """
    m = len(P_exact)
    cells = [tuple(sorted(c)) for c in column_partition]
    covered = sorted(i for c in cells for i in c)
    if covered != list(range(m)) or len(covered) != sum(len(c) for c in cells):
        raise MalformedPartition("column partition must partition {0..d}")
    if cells[0] != (0,):
        raise MalformedPartition("first column cell must be {0}")

    sig_of_row = []
    for row in P_exact:
        sums = []
        for cell in cells:
            s = row[cell[0]]
            for idx in cell[1:]:
                s = s + row[idx]
            sums.append(s)
        sig_of_row.append(tuple(sums))

    groups: dict = {}
    for r, sig in enumerate(sig_of_row):
        groups.setdefault(sig, []).append(r)
    if len(groups) != len(cells):
        return None

    row0_sig = sig_of_row[0]
    if groups[row0_sig] != [0]:
        return None
    other = sorted((sig for sig in groups if sig != row0_sig),
                   key=lambda sig: [e.coeffs for e in sig])
    delta = [tuple(groups[row0_sig])] + [tuple(groups[s]) for s in other]
    fused = [list(row0_sig)] + [list(s) for s in other]
    return delta, fused


# --- independent oracle ---------------------------------------------------------

def brute_force_verify(field, relations) -> bool:
    """Direct check of the scheme axioms on an explicit partition of F_q.

    Verifies that {0} is a class, that negation permutes the classes, and
    that #{x in R_i : z - x in R_j} is constant over z in R_k for all
    (i, j, k).  Deliberately independent of the signature criterion.
    """
    q = field.q
    if q > ORACLE_CAP:
        raise TooLargeForOracle(f"q = {q} exceeds oracle cap {ORACLE_CAP}")
    rels = [np.asarray(sorted(int(x) for x in r), dtype=np.int64) for r in relations]
    flat = np.concatenate(rels)
    if len(flat) != q or not np.array_equal(np.sort(flat), np.arange(q)):
        raise PartitionInvalid("relations must partition F_q")

    K = len(rels)
    rel = np.empty(q, dtype=np.int64)
    for i, r in enumerate(rels):
        rel[r] = i
    if len(rels[int(rel[0])]) != 1:
        return False

    # negation closure
    neg = np.zeros(q, dtype=np.int64)
    nz = np.arange(1, q, dtype=np.int64)
    neg[1:] = field.sub_vec(0, nz)
    for r in rels:
        labels = rel[neg[r]]
        if not (labels == labels[0]).all():
            return False

    codes = np.arange(q, dtype=np.int64)
    rel_x = rel
    reference = [None] * K
    for z in range(q):
        rel_zx = rel[field.sub_vec(z, codes)]
        cnt = np.bincount(rel_x * K + rel_zx, minlength=K * K)
        k = int(rel[z])
        if reference[k] is None:
            reference[k] = cnt
        elif not np.array_equal(reference[k], cnt):
            return False
    return True
