"""Translation-scheme verification and structure computations.

A candidate scheme on (F_q, +) is a partition of Z_N into index sets; the
induced relations are unions of cyclotomic classes (plus the implicit {0}).
The partition is an association scheme iff the additive characters, grouped
by their exact value vector on the relations, fall into exactly d classes
besides the principal one; values live in Z[xi_p], so signatures are
integer coefficient rows and the verdict is exact.  Intersection numbers,
and Krein parameters as those of the dual partition, follow from the same
rows by the translation-scheme identity, with exact divisibility checks.
Every transpose is read from one permutation, -R_i = R_neg[i] (part i
shifted by the class of -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclotomy import CyclotomicSystem, embed
from .errors import (MalformedPartition, NotAScheme, PartitionInvalid,
                     SingularP, TooLargeForOracle, check_budget)

ORACLE_CAP = 20_000
# charged a cell of the signature table before it is allocated: dual_classes'
# traced peak, ~32 B a cell (the table, its sorted row keys, the distinct
# rows' keys and values) and ~70 B a row (sort index, labels)
_CELL_BYTES = 40
_SIGN = np.uint64(1 << 63)


def _index(i) -> int:
    """A part's index as an int: an int or numpy integer, never a bool."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise PartitionInvalid(f"index {i!r} is not an integer")
    return int(i)


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
        try:
            parts = [[_index(i) for i in p] for p in parts]
        except TypeError:
            raise PartitionInvalid("parts must be lists of indices") from None
        return cls(N, tuple(tuple(sorted(p)) for p in parts))

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
    P_exact: np.ndarray | None = None  # (d+1, d+1, p-1) int64 rows
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
    """Row a = concatenated reduced coefficients of psi(gamma^a R_i), i = 1..d,
    the sum of eta_{(a+j) mod N} over j in R_i, added in place j by j."""
    if partition.N != sys.N:
        raise PartitionInvalid(f"partition is over Z_{partition.N}, system over Z_{sys.N}")
    pm = sys.period_matrix
    N, d, width = sys.N, partition.d, pm.shape[1]
    check_budget(_CELL_BYTES * N * d * width,
                 f"the signature table of {d} parts over Z_{N} on "
                 f"F_{{{sys.field.p}^{sys.field.f}}} needs")
    rows = np.zeros((N, d, width), dtype=np.int64)
    for i, part in enumerate(partition.parts):
        out = rows[:, i]
        for j in part:
            out[:N - j] += pm[j:]
            out[N - j:] += pm[:j]
    return rows.reshape(N, -1)


def _group_rows(rows: np.ndarray):
    """(uniq, members): a C-contiguous int64 table's distinct rows in signed
    lexicographic order, and the ascending indices of the rows equal to each.
    Sorts rows as bytes, written over ``rows`` sign-flipped and big-endian."""
    keys = rows.view(np.uint64)
    keys ^= _SIGN
    if np.little_endian:
        keys.byteswap(inplace=True)
    keys = keys.view(f"V{rows.itemsize * rows.shape[1]}").ravel()
    # not kind="stable": its first use in a process adds ~0.1 MB of peak RSS
    order = keys.argsort()
    keys = keys[order]
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    uniq = keys[np.concatenate(([0], starts))].view(">u8") ^ _SIGN
    members = [tuple(sorted(m.tolist())) for m in np.split(order, starts)]
    return uniq.view(np.int64).reshape(len(members), -1), members


def dual_classes(sys: CyclotomicSystem, partition: IndexPartition):
    """Group a in Z_N by exact signature; returns (count, parts, unique_rows).

    Parts come out sorted by the lexicographic order of their signature rows,
    the canonical row order of the eigenmatrix.  The later stages read the
    table through this result, and never build it again.
    """
    uniq, parts = _group_rows(_signature_rows(sys, partition))
    return len(uniq), parts, uniq


def is_scheme(sys: CyclotomicSystem, partition: IndexPartition) -> bool:
    return dual_classes(sys, partition)[0] == partition.d


# --- symmetry ----------------------------------------------------------------

def is_symmetric(sys: CyclotomicSystem, partition: IndexPartition, i: int) -> bool:
    """-R_i = R_i; NotAScheme if negation does not permute the parts."""
    return _negation(sys, partition)[i] == i


def _negation(sys: CyclotomicSystem, partition: IndexPartition) -> list[int]:
    """neg[i] = k with -R_i = R_k; NotAScheme if negation does not permute
    the parts.  -1 lies in C_c, so -R_i is part i shifted by c.  Each shift
    must land inside one part; as j -> j + c permutes Z_N, the d shifts
    then cover the d parts, one each, so each shift is a whole part."""
    if partition.N != sys.N:
        raise PartitionInvalid(f"partition is over Z_{partition.N}, system over Z_{sys.N}")
    c, N = sys.minus_one_class(), sys.N
    label = {j: k for k, part in enumerate(partition.parts) for j in part}
    neg = [label[(part[0] + c) % N] for part in partition.parts]
    for part, k in zip(partition.parts, neg):
        if any(label[(j + c) % N] != k for j in part):
            raise NotAScheme("negation image of a relation is not a relation")
    return neg


def symmetrize(sys: CyclotomicSystem, partition: IndexPartition) -> IndexPartition:
    """Merge each part with its negation image (idempotent), in the order of
    the smaller part index.  Defined on partitions whose negation permutes
    the parts, as every scheme's does; NotAScheme on any other."""
    parts = partition.parts
    return IndexPartition.from_sets(
        partition.N, [set(parts[i]) | set(parts[k])
                      for i, k in enumerate(_negation(sys, partition)) if i <= k])


# --- primitivity ---------------------------------------------------------------

def is_primitive(sys: CyclotomicSystem, partition: IndexPartition, classes) -> bool:
    """No nontrivial relation of the symmetrization has a character sum equal
    to its valency (exact test over all nonprincipal characters).

    Defined on verified schemes; ``classes`` is ``dual_classes``' result.
    The sum over R_i u -R_i is the sum of two signature rows, rows_i +
    rows_neg[i].  It equals its valency iff each of its terms is 1, iff row
    i alone equals M |R_i|, as -R_i has the conjugate sum; so each relation
    is tested on its own row, and the d distinct rows hold every value.
    """
    if classes[0] != partition.d:
        raise NotAScheme("primitivity is only defined for verified schemes")
    rows = classes[2].reshape(partition.d, partition.d, -1)
    valency = sys.M * np.array([len(part) for part in partition.parts])
    hit = (rows[:, :, 0] == valency) & (rows[:, :, 1:] == 0).all(axis=2)
    return not hit.any()


# --- full verification ----------------------------------------------------------

def verify_scheme(sys: CyclotomicSystem, partition: IndexPartition) -> SchemeReport:
    count, parts_by_sig, _ = classes = dual_classes(sys, partition)
    d = partition.d
    report = SchemeReport(is_scheme=(count == d), d=d, N=sys.N, q=sys.field.q,
                          distinct_signatures=count)
    if not report.is_scheme:
        return report

    report.valencies = [sys.M * len(p) for p in partition.parts]
    report.dual_parts = parts_by_sig

    report.P_exact, report.P_complex, report.Q_complex = eigenmatrices(
        sys, partition, classes)
    report.intersection_matrices = intersection_numbers(sys, partition, classes)

    neg = _negation(sys, partition)
    report.is_symmetric_rel = [k == i for i, k in enumerate(neg)]
    report.nonsymmetric_pair_count = sum(1 for i, k in enumerate(neg) if k > i)

    report.is_primitive = is_primitive(sys, partition, classes)

    primal = partition.part_sets()
    dual = [frozenset(p) for p in parts_by_sig]
    report.is_self_dual = set(primal) == set(dual)
    if report.is_self_dual:
        report.self_dual_permutation = [dual.index(p) for p in primal]
    return report


# --- eigenmatrices -----------------------------------------------------------

def eigenmatrices(sys: CyclotomicSystem, partition: IndexPartition, classes):
    """(P_exact, P_complex, Q_complex) with Q = q P^{-1}.

    P_exact[i, j] is the coefficient row of entry (i, j).  Row 0 is the
    principal character (valencies with a leading one); rows 1..d are the
    distinct signature rows of ``classes`` (``dual_classes``' result), in
    their lexicographic order.
    """
    d, p = partition.d, sys.field.p
    if classes[0] != d:
        raise NotAScheme("eigenmatrices of a non-scheme")

    P_exact = np.zeros((d + 1, d + 1, p - 1), dtype=np.int64)
    P_exact[:, 0, 0] = 1
    P_exact[0, 1:, 0] = [sys.M * len(part) for part in partition.parts]
    P_exact[1:, 1:] = classes[2].reshape(d, d, p - 1)

    P_complex = embed(P_exact, p)
    try:
        Q_complex = sys.field.q * np.linalg.inv(P_complex)
    except np.linalg.LinAlgError as exc:
        raise SingularP("first eigenmatrix is singular") from exc
    return P_exact, P_complex, Q_complex


# --- intersection numbers -------------------------------------------------------

def intersection_numbers(sys: CyclotomicSystem, partition: IndexPartition, classes):
    """Intersection matrices B_0..B_d, B_i[k][j] = p_{ij}^k.

    Computed from ``classes`` (``dual_classes``' result) alone, by the
    translation-scheme identity (Bannai-Ito 1984; Brouwer-Cohen-Neumaier
    1989, 2.2): with sigma_a(i) = psi(gamma^a R_i) and sigma_a(0) = 1,

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
    if classes[0] != partition.d:
        raise NotAScheme("intersection numbers of a non-scheme")
    acc, k = _trace_sums(sys, partition, classes)
    p, q, M = sys.field.p, sys.field.q, sys.M
    if (acc % (p - 1)).any():
        raise NotAScheme("character sum over the relations is not rational")
    numer = k[:, None, None] * k[None, :, None] * k + M * (acc // (p - 1))
    if (numer % (q * k)).any():
        raise NotAScheme("intersection numbers are not integers")
    counts = numer // (q * k)
    # counts[i, j, k] = p_{ij}^k
    return [counts[i].T.astype(np.int64) for i in range(partition.d + 1)]


def _trace_sums(sys: CyclotomicSystem, partition: IndexPartition, classes):
    """(acc, k): acc[i, j, k] = (p-1) S for the sum S of intersection_numbers,
    over the g coset representatives weighted by N/g, read off the distinct
    rows of ``classes``, and the valencies k (k_0 = 1), of one dtype."""
    d, N, M = partition.d, sys.N, sys.M
    p, q = sys.field.p, sys.field.q
    K = d + 1
    g = math.gcd(N, (q - 1) // (p - 1))
    label = {a: c for c, part in enumerate(classes[1]) for a in part}
    # sigma_a(i) as a length-p vector in Z[x]/(x^p - 1); R_0 = {0} gives 1
    sig = np.zeros((g, K, p), dtype=np.int64)
    sig[:, 0, 0] = 1
    sig[:, 1:, :p - 1] = classes[2][[label[a] for a in range(g)]].reshape(g, d, p - 1)
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
    dual = dual_partition(sys, partition)
    return intersection_numbers(sys, dual, dual_classes(sys, dual))


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
    P_exact = np.asarray(P_exact, dtype=np.int64)
    m = len(P_exact)
    cells = [tuple(sorted(c)) for c in column_partition]
    if sorted(i for c in cells for i in c) != list(range(m)) or not all(cells):
        raise MalformedPartition("column partition must partition {0..d}")
    if cells[0] != (0,):
        raise MalformedPartition("first column cell must be {0}")

    # sums[r, c] is the row of the sum of row r over cell c
    sums = np.stack([P_exact[:, list(c)].sum(axis=1) for c in cells], axis=1)
    uniq, groups = _group_rows(sums.reshape(m, -1))
    if len(groups) != len(cells) or (0,) not in groups:
        return None
    # row 0's class first, the others in their lexicographic order
    order = sorted(range(len(groups)), key=lambda c: groups[c] != (0,))
    return [groups[c] for c in order], uniq[order].reshape(len(order), len(cells), -1)


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
