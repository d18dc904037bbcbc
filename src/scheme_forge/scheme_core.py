"""Translation-scheme verification and structure computations.

A candidate scheme on (F_q, +) is a partition of Z_N into index sets; the
induced relations are unions of cyclotomic classes (plus the implicit {0}).
The partition is an association scheme iff the additive characters, grouped
by their exact value vector on the relations, fall into exactly d classes
besides the principal one; values live in Z[xi_p], so signatures are
integer coefficient rows, summed from the periods by one kernel
(cyclotomy._signature_sums), and the verdict is exact.  With the valencies
the distinct rows form the first eigenmatrix P_exact, which alone feeds
primitivity and, by the translation-scheme identity with exact divisibility
checks, the intersection numbers (Krein parameters: the dual's).  Every
transpose is read from one permutation, -R_i = R_neg[i] (part i shifted by
the class of -1).  The tests hold these verdicts against an element-level
check of the scheme axioms (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclotomy import (CyclotomicSystem, _cast, _dtype, _height, _mul,
                        _signature_sums, embed)
from .errors import (MalformedPartition, NotAScheme, PartitionInvalid, SingularP,
                     check_budget)

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

def signature_counts(sys: CyclotomicSystem, labels: np.ndarray, d: int):
    """(distinct, primitive) for each row of ``labels`` (R, N), a partition
    of Z_N into labels < d (an empty part adds zero sums everywhere): its
    count of distinct signature rows, and ``is_primitive``'s row test on
    every character, read off ``_signature_sums`` (each |sum| <= N M = q - 1)."""
    (R, N), field = labels.shape, sys.field
    sums = _signature_sums(sys, labels, d, f"the signature sums of {R} partitions of "
                           f"Z_{N} on F_{{{field.p}^{field.f}}} need").reshape(R, N, -1)
    # each row's characters sorted in place: the principal test reads them all
    sums.view(f"V{sums.itemsize * sums.shape[2]}")[..., 0].sort(axis=1)
    size = (labels[..., None] == np.arange(d)).sum(axis=1)[:, None]
    hit = _principal(sums.reshape(R, N, d, -1), sys.M * size)
    return ((sums[:, 1:] != sums[:, :-1]).any(axis=2).sum(axis=1) + 1,
            ~(hit & (size > 0)).any(axis=(1, 2)))


def _group_rows(rows: np.ndarray):
    """(uniq, members): a C-contiguous int64 table's distinct rows in signed
    lexicographic order, and the ascending indices of the rows equal to each.
    Sorts rows as bytes, written over ``rows`` sign-flipped and big-endian;
    the distinct keys are gathered once and turned back in place."""
    keys = rows.view(np.uint64)
    keys ^= _SIGN
    if np.little_endian:
        keys.byteswap(inplace=True)
    keys = keys.view(f"V{rows.itemsize * rows.shape[1]}").ravel()
    # not kind="stable": its first use in a process adds ~0.1 MB of peak RSS
    order = keys.argsort()
    keys = keys[order]
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    uniq = keys[np.concatenate(([0], starts))].view(np.uint64)
    if np.little_endian:
        uniq.byteswap(inplace=True)
    uniq ^= _SIGN
    members = [tuple(sorted(m.tolist())) for m in np.split(order, starts)]
    return uniq.view(np.int64).reshape(len(members), -1), members


def dual_classes(sys: CyclotomicSystem, partition: IndexPartition):
    """Group a in Z_N by exact signature; returns (count, parts, unique_rows).

    Parts come out in the lexicographic order of their signature rows (the
    kernel's sums on the partition's label row), the eigenmatrix's row order;
    later stages read the table through this result and never rebuild it.
    """
    N, d, field = partition.N, partition.d, sys.field
    labels = np.empty((1, N), dtype=np.int64)
    for i, part in enumerate(partition.parts):
        labels[0, part] = i
    uniq, parts = _group_rows(_signature_sums(sys, labels, d, (
        f"the signature table of {d} parts over Z_{N} on "
        f"F_{{{field.p}^{field.f}}} needs"))[0].reshape(N, -1))
    return len(uniq), parts, uniq


def is_scheme(sys: CyclotomicSystem, partition: IndexPartition) -> bool:
    return dual_classes(sys, partition)[0] == partition.d


# --- symmetry ----------------------------------------------------------------

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

def _principal(sums: np.ndarray, valency) -> np.ndarray:
    """[..., i]: part i's sum, sums[..., i, :], is (valency[..., i], 0, ...)."""
    return (sums[..., 0] == valency) & ~sums[..., 1:].any(axis=-1)


def is_primitive(P_exact: np.ndarray) -> bool:
    """No nontrivial relation of the symmetrization has a character sum equal
    to its valency (exact test over all nonprincipal characters).

    ``P_exact`` is ``eigenmatrices``' first result.  The sum over R_i u -R_i
    is the sum of two entries, P[l, i] + P[l, neg[i]].  It equals its
    valency iff each of its terms is 1, iff P[l, i] alone equals k_i =
    P[0, i], as -R_i has the conjugate sum; so each relation is tested on
    its own column, and rows 1..d hold every nonprincipal value:
    ``_principal``, which ``signature_counts`` runs on every kernel sum.
    """
    return not _principal(P_exact[1:, 1:], P_exact[0, 1:, 0]).any()


# --- full verification ----------------------------------------------------------

def verify_scheme(sys: CyclotomicSystem, partition: IndexPartition) -> SchemeReport:
    count, parts_by_sig, _ = classes = dual_classes(sys, partition)
    d = partition.d
    report = SchemeReport(is_scheme=(count == d), d=d, N=sys.N, q=sys.field.q,
                          distinct_signatures=count)
    if not report.is_scheme:
        return report

    report.dual_parts = parts_by_sig
    P_exact, report.P_complex, report.Q_complex = eigenmatrices(sys, partition, classes)
    report.P_exact, report.valencies = P_exact, P_exact[0, 1:, 0].tolist()
    report.intersection_matrices = intersection_numbers(sys, P_exact, parts_by_sig)

    neg = _negation(sys, partition)
    report.is_symmetric_rel = [k == i for i, k in enumerate(neg)]
    report.nonsymmetric_pair_count = sum(1 for i, k in enumerate(neg) if k > i)

    report.is_primitive = is_primitive(P_exact)

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
    their lexicographic order: row 1 + l is dual class l's.  The later
    stages read P_exact alone: the valencies and non-scheme guard live here.
    """
    P_exact = _p_exact(sys, partition, classes)
    P_complex = embed(P_exact, sys.field.p)
    try:
        Q_complex = sys.field.q * np.linalg.inv(P_complex)
    except np.linalg.LinAlgError as exc:
        raise SingularP("first eigenmatrix is singular") from exc
    return P_exact, P_complex, Q_complex


def _p_exact(sys: CyclotomicSystem, partition: IndexPartition,
             classes) -> np.ndarray:
    """``eigenmatrices``' P_exact alone, with no embedding or inverse."""
    d, p = partition.d, sys.field.p
    if classes[0] != d:
        raise NotAScheme("eigenmatrices of a non-scheme")
    P_exact = np.zeros((d + 1, d + 1, p - 1), dtype=np.int64)
    P_exact[:, 0, 0] = 1
    P_exact[0, 1:, 0] = [sys.M * len(part) for part in partition.parts]
    P_exact[1:, 1:] = classes[2].reshape(d, d, p - 1)
    return P_exact


# --- intersection numbers -------------------------------------------------------

def intersection_numbers(sys: CyclotomicSystem, P_exact: np.ndarray, dual_parts):
    """Intersection matrices B_0..B_d, B_i[k][j] = p_{ij}^k.

    Computed from ``eigenmatrices``' P_exact and ``dual_classes``' parts, by
    the translation-scheme identity (Bannai-Ito 1984; Brouwer-Cohen-Neumaier
    1989, 2.2): with sigma_a(i) = psi(gamma^a R_i) and sigma_a(0) = 1,

        q k_k p_{ij}^k = k_i k_j k_k + M sum_a sigma_a(i) sigma_a(j) conj sigma_a(k),

    where conj sigma_a(k) = sigma_{a+c}(k) for -1 in C_c, i.e. x -> x^{-1}
    on Z[x]/(x^p - 1).  The sum is an integer S, evaluated exactly in
    Z[x]/(x^p - 1) through Tr(alpha) = p alpha_0 - alpha(1), which is the
    same for every representative of alpha(xi_p):
    (p-1) S = sum_a [p (sigma sigma conj sigma)_0 - sigma(1)^3], each stage
    in float64 on BLAS, int64 or Python ints by its own bound.

    The summand is constant on Galois cosets.  t in F_p^* is gamma^e with
    e a multiple of h = (q-1)/(p-1), and xi -> xi^t maps psi(gamma^a R_i)
    to psi(t gamma^a R_i) = sigma_{a+e}(i), while Tr is Galois-invariant.
    So the summand depends on a only through its coset of <h> in Z_N:
    there are g = gcd(N, h) cosets, with representatives a = 0..g-1 and
    N/g elements each, and the sum is N/g times the sum over a < g (g = N
    when p = 2).  The divisions by p - 1 and by q k_k must both be exact,
    else NotAScheme.
    """
    acc, k = _trace_sums(sys, P_exact, dual_parts)
    p, q, M = sys.field.p, sys.field.q, sys.M
    if (acc % (p - 1)).any():
        raise NotAScheme("character sum over the relations is not rational")
    numer = k[:, None, None] * k[None, :, None] * k + M * (acc // (p - 1))
    if (numer % (q * k)).any():
        raise NotAScheme("intersection numbers are not integers")
    counts = numer // (q * k)
    # counts[i, j, k] = p_{ij}^k
    return [b.T.astype(np.int64) for b in counts]


def _trace_sums(sys: CyclotomicSystem, P_exact: np.ndarray, dual_parts):
    """(acc, k): acc[i, j, k] = (p-1) S of intersection_numbers and the
    valencies k (k_0 = 1), of one dtype.  A representative's term depends on
    its dual class's row u alone: p (u_i u_j conj u_k)_0 - u_i(1) u_j(1) u_k(1),
    _mul's pair products contracted against u_k, once a row.  Stages take
    ``_dtype`` of p B^2, p^2 B^3 (B the largest |coefficient|), and for the
    integer sums 2 p^3 B^3 a representative and the numerators."""
    N, M, K, field, p = sys.N, sys.M, P_exact.shape[1], sys.field, sys.field.p
    g = math.gcd(N, (field.q - 1) // (p - 1))
    label = {a: c for c, part in enumerate(dual_parts) for a in part}
    rows, counts = np.unique([label[a] for a in range(g)], return_counts=True)
    k = P_exact[0, :, 0]
    # read off views of the rows: nothing is allocated before the charge
    B = max(_height(P_exact[1 + r]) for r in rows.tolist())
    acc_bound = 2 * N * p ** 3 * B ** 3
    pair, con, dtype = (_dtype(p * B * B), _dtype(p * p * B ** 3), _dtype(max(
        2 ** 53, acc_bound, int(k.max()) ** 3 + M * acc_bound // (p - 1))))
    # traced, 8 B a cell, 56 in Python ints: pairs and rows twice, then K^3 four times
    b_pair, b_con, b_sum = (56 if t is object else 8 for t in (pair, con, dtype))
    check_budget(p * K * ((K + 3) * b_pair + (K + 1) * b_con) + K ** 3 * (b_con + 3 * b_sum),
                 f"the trace sums of {K - 1} relations on F_{{{p}^{field.f}}} need")
    acc = np.zeros((K, K, K), dtype=dtype)  # [k, i, j]
    for r, c in zip(rows.tolist(), (counts * (N // g)).tolist()):
        u = P_exact[1 + r]
        # (u_i u_j conj u_k)_0 at [k, i, j]; the pair products die before the cast
        term = p * _cast(np.tensordot(_cast(u, con), _cast(_mul(u, u, p)[..., :p - 1], con),
                                      axes=([1], [2])), dtype)
        s = _cast(u.sum(axis=1), dtype)
        term -= s * s[:, None] * s[:, None, None]
        acc += c * term
    return acc.transpose(1, 2, 0), k.astype(dtype)


# --- Krein parameters --------------------------------------------------------

def krein_parameters(sys: CyclotomicSystem, partition: IndexPartition):
    """Intersection matrices of the dual scheme (translation duality)."""
    dual = dual_partition(sys, partition)
    classes = dual_classes(sys, dual)
    return intersection_numbers(sys, _p_exact(sys, dual, classes), classes[1])


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
