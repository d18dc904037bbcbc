"""The exhaustive nonexistence search: the coherent closure on Z_{2(p+1)}.

For a prime p = 3 (mod 4) the candidate translation schemes on F_{p^2} with
few classes are unions of cyclotomic classes of order N = 2(p+1) (the
nonzero squares of Z_p act as multipliers), so nonexistence is settled by
deciding every partition of Z_N into 3 or 4 parts.  The search decides them
without visiting them: it closes partitions under the duality of
translation schemes (the coherent closure below), first the two-block
partitions, one per orbit of the maps x -> u x + v (u in <p> mod N), then
the meets of the kept closures, which reach every scheme.  Every survivor
and its primitivity are re-verified exactly, a batch of label rows at a
time (``scheme_core.signature_counts``), on the Gauss periods the closure
reads.  The working-set estimates alone refuse a run before it allocates
(p = 19, N = 40, is refused; p = 11 runs in seconds).  The tests keep the
trace partition (tests/oracles.py), the partition scan of ``_kernels`` (one
``search_chunk`` call per label prefix) and ``dual_classes`` with
``is_primitive`` as independent oracles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cyclotomy import CyclotomicSystem, build_cyclotomy
from .errors import PreconditionViolated, check_budget
from .finite_field import build_field, is_prime
from .scheme_core import IndexPartition, signature_counts


# --- coherent closure ------------------------------------------------------------
#
# Over F_{p^2} with N = 2(p+1) the class C_i is gamma^i F_p^{*2}: its
# traces are all 0 (i in T_0), all squares (T_s) or all nonsquares (T_n).
# As 1 is a square and -1 is not, the xi_p coefficient sden[i] =
# count[i][1] - count[i][p-1] of eta_i is 0, +1 or -1 there.  The periods
# take three values, so the exact character sum of a part I under a is
# sum_{j in I} E[j, a], a count of T_0 and of T_s minus T_n, with
#
#     E[j, a] = sden[(j + a) % N] + 1024 * [sden[(j + a) % N] == 0].
#
# For a partition Q with labels l_j the code of character a is
# sum_j W[l_j] E[j, a], W[l] = 4096^l, and Q* is the partition of the
# characters into the level sets of these codes (what ``dual_classes``
# counts).  E depends on j + a only, so it is symmetric and the same product
# on the labels of Q* gives codes over the classes, whose level sets are Q**.
# If a scheme S refines Q, then S* refines Q*, each block sum of Q* is
# constant on the blocks of S, and S refines Q**.  So the iteration
# Q <- Q meet Q** never passes a scheme below its start, and a row is
# dropped as soon as |Q| or |Q*| exceeds max_classes.  A scheme is a fixed
# point; one with blocks B_1..B_d is the meet of the closures of
# {B_i, Z_N - B_i}, i < d, so closing meets of at most max_classes - 1 kept
# two-block closures reaches it.  This is the duality of translation schemes
# (Delsarte 1973; Bannai-Ito 1984, 2.10) run as a Weisfeiler-Leman-style
# refinement restricted to fusions.
#
# The maps x -> u x + v, u in <p> mod N, permute the classes and fix E up to
# the same map (v multiplies by gamma^v, u = p is the Frobenius, which fixes
# traces), so closure commutes with them: only one two-block partition per
# orbit is closed, and the results are expanded over the orbits at the end.
#
# int64 is exact: for p < 512 every per-block field 1024 * (T_0 count) +
# (T_s - T_n count) lies in [-p, 2048 + p], a span below 4096, and a code
# has at most max_classes <= 4 fields (rows with more blocks are dropped
# before their codes are taken), so every code is below 4096^4 = 2^48 in
# absolute value.  Partitions are compared by packed keys, 2 bits a class,
# which the budget below confines to N <= 24.

# peak bytes per reported scheme (its IndexPartition, JSON lists and text
# pieces), traced from the recheck through the rendered document: 1,976 on
# --p 7 --allow-symmetric (2,691 schemes), 2,098 on --p 11 --max-classes 3
_SURVIVOR_BYTES = 2560
_CODE_BASE = 4096
_RECHECK_BATCH = 256      # survivors rechecked per batch
_MASK_BATCH = 1 << 18     # two-block masks tested per batch
_ROW_BATCH = 1 << 14      # partitions closed or mapped per batch
_PAIR_BATCH = 1 << 16     # pairs whose meets are sized per batch


def _code_matrix(sys: CyclotomicSystem) -> np.ndarray:
    """E[j, a] of the comment above; sden is the periods' xi_p column."""
    p, N = sys.field.p, sys.N
    sden = sys.period_matrix[:, 1]
    if [np.count_nonzero(sden == v) for v in (0, 1, -1)] != [2, p, p]:
        raise PreconditionViolated("trace partition has unexpected sizes")
    j = np.arange(N)
    s = (j[:, None] + j[None, :]) % N
    return sden[s] + 1024 * (sden[s] == 0)


def _orbit_maps(p: int, N: int) -> np.ndarray:
    """(G, N): row g maps x to u x + v mod N, for u in <p> mod N and v in
    Z_N; row 0 is the identity."""
    units = [1]
    while units[-1] * p % N != 1:
        units.append(units[-1] * p % N)
    x = np.arange(N)
    return np.array([(u * x + v) % N for u in units for v in range(N)])


def closure_bytes(N: int) -> int:
    """Estimated peak bytes of the closure search on Z_N: the fixed-size
    batches (masks and their images, 48 bytes a mask; rows being closed or
    mapped, 64 bytes a class for labels, codes and sort orders; the meets
    of a pair batch are closed at once) and the kept two-block closures,
    at most one per orbit (the maps form a group of order 2N, as
    p^2 = 1 mod N), each expanded over the group with its key.  The meet
    closures and survivors are schemes, ~0.7e6 at N = 24, and are not
    bounded in advance."""
    orbits = 2 ** (N - 1) // (2 * N)
    masks = _MASK_BATCH * 48
    rows = max(_ROW_BATCH, _PAIR_BATCH) * N * 64
    return masks + rows + orbits * 2 * N * (N + 8)


def _level_sets(codes: np.ndarray):
    """Label each row of ``codes`` by rank of value; (labels, level count)."""
    order = np.argsort(codes, axis=1)
    ranked = np.take_along_axis(codes, order, axis=1)
    step = np.zeros(codes.shape, dtype=np.int8)
    step[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    rank = np.cumsum(step, axis=1, dtype=np.int8)
    labels = np.empty_like(rank)
    np.put_along_axis(labels, order, rank, axis=1)
    return labels, rank[:, -1].astype(np.int64) + 1


def _levels_of_sums(labels: np.ndarray, E: np.ndarray, dmax: int):
    """Level sets of sum_j W[l_j] E[j, .] for labels below dmax: Q* from
    the labels of Q, and Q** from the labels of Q* (E is symmetric)."""
    weights = _CODE_BASE ** np.arange(dmax, dtype=np.int64)
    return _level_sets(weights[labels] @ E)


def _close(labels: np.ndarray, E: np.ndarray, dmax: int) -> np.ndarray:
    """Close each row (at most dmax labels) under Q <- Q meet Q**.

    Returns the fixed points; a row is dropped as soon as Q or Q* has more
    than dmax blocks.  Only rows still changing are iterated.
    """
    size = labels.max(axis=1, initial=0).astype(np.int64) + 1
    out = []
    while len(labels):
        dual, dsize = _levels_of_sums(labels, E, dmax)
        ok = dsize <= dmax
        labels, size, dual = labels[ok], size[ok], dual[ok]
        back, _ = _levels_of_sums(dual, E, dmax)
        meet, msize = _level_sets(labels.astype(np.int64) * 64 + back)
        fixed = msize == size
        out.append(labels[fixed])
        go = ~fixed & (msize <= dmax)
        labels, size = meet[go], msize[go]
    return np.concatenate(out) if out else labels


def _canonical_rows(labels: np.ndarray) -> np.ndarray:
    """Relabel each row by first occurrence (restricted growth string)."""
    R, N = labels.shape
    K = int(labels.max(initial=0)) + 1
    first = np.full((R, K), N, dtype=np.int64)
    for lab in range(K):
        hit = labels == lab
        first[:, lab] = np.where(hit.any(axis=1), hit.argmax(axis=1), N)
    rank = np.argsort(np.argsort(first, axis=1), axis=1)
    return np.take_along_axis(rank, labels.astype(np.int64),
                              axis=1).astype(np.int8)


def _keys(rows: np.ndarray) -> np.ndarray:
    """One uint64 per canonical row of at most 4 labels, 2 bits a class."""
    shift = 2 * np.arange(rows.shape[-1], dtype=np.uint64)
    return (rows.astype(np.uint64) << shift).sum(axis=-1)


def _unique(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of canonical ``rows``, in key order."""
    return rows[np.unique(_keys(rows), return_index=True)[1]]


def _distinct(rows: np.ndarray) -> np.ndarray:
    return _unique(_canonical_rows(rows))


def _images(rows: np.ndarray, maps: np.ndarray):
    """Canonical images of the rows under every map, in batches:
    yields images (R, G, N)."""
    inverse = np.argsort(maps, axis=1)
    step = max(1, _ROW_BATCH // len(maps))
    for r0 in range(0, len(rows), step):
        block = rows[r0:r0 + step][:, inverse]
        flat = _canonical_rows(block.reshape(-1, rows.shape[1]))
        yield flat.reshape(block.shape)


# each concatenation below starts from an empty slice of the rows: no
# batch at all gives no rows

def _orbits(rows: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Every distinct image of the rows under the maps."""
    images = (_unique(img.reshape(-1, rows.shape[1]))
              for img in _images(rows, maps))
    return _unique(np.concatenate([rows[:0], *images]))


def _orbit_representatives(rows: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """One row per orbit: the image with the least key."""
    least = (img[np.arange(len(img)), _keys(img).argmin(axis=1)]
             for img in _images(rows, maps))
    return _unique(np.concatenate([rows[:0], *least]))


def _bit_tables(maps: np.ndarray, N: int) -> np.ndarray:
    """(G, nbytes, 256) uint64: the image under each map of every byte of
    a class mask (bit j for class j)."""
    nbytes = (N + 7) // 8
    image = np.zeros((len(maps), 8 * nbytes), dtype=np.uint64)
    image[:, :N] = np.left_shift(np.uint64(1), maps.astype(np.uint64))
    bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.uint64)
    image = image.reshape(len(maps), nbytes, 1, 8)
    return (bits * image).sum(axis=-1, dtype=np.uint64)


def _two_block_representatives(N: int, tables: np.ndarray, lo: int, hi: int):
    """Masks m of the two-block partitions {B, Z_N - B} with 0 in B,
    m = 2i + 1 for lo <= i < hi, that are the least normalised image
    (the side holding class 0) of their orbit."""
    full = np.uint64((1 << N) - 1)
    m = (np.arange(lo, hi, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
    m = m[m != full]
    for tab in tables[1:]:
        image = tab[0][m & np.uint64(255)]
        for b in range(1, len(tab)):
            image |= tab[b][(m >> np.uint64(8 * b)) & np.uint64(255)]
        image = np.where(image & np.uint64(1), image, image ^ full)
        m = m[image >= m]
    return m


def _block_masks(rows: np.ndarray, dmax: int) -> np.ndarray:
    bit = np.left_shift(np.uint64(1), np.arange(rows.shape[1], dtype=np.uint64))
    return np.stack([((rows == lab) * bit).sum(axis=1, dtype=np.uint64)
                     for lab in range(dmax)], axis=1)


def _meet_closures(left, right, E, dmax, report):
    """Distinct closures of the meets A ^ B, A in ``left``, B in ``right``,
    with max(|A|, |B|) < |A ^ B| <= dmax; other meets add nothing."""
    mask_l, mask_r = _block_masks(left, dmax), _block_masks(right, dmax)
    size = np.maximum((left.max(axis=1) + 1)[:, None],
                      right.max(axis=1) + 1)
    step = max(1, _PAIR_BATCH // max(1, len(right)))
    found = []
    for a0 in range(0, len(left), step):
        ml = mask_l[a0:a0 + step]
        blocks = np.zeros((len(ml), len(right)), dtype=np.int8)
        for i in range(dmax):
            for j in range(dmax):
                blocks += (ml[:, i, None] & mask_r[:, j]) != 0
        ia, ib = np.nonzero((blocks <= dmax) & (blocks > size[a0:a0 + step]))
        if len(ia):
            meets, _ = _level_sets(left[a0 + ia].astype(np.int64) * dmax
                                   + right[ib])
            found.append(_distinct(_close(_distinct(meets), E, dmax)))
        report("meets", min(a0 + step, len(left)), len(left))
    return _unique(np.concatenate([left[:0], *found]))


def _two_block_closures(N, maps, E, dmax, report):
    """Every distinct closure with at most dmax blocks and dual blocks of a
    two-block partition: one partition per orbit is closed, in batches,
    and the closures are expanded over their orbits."""
    tables = _bit_tables(maps, N)
    total = 2 ** (N - 1)
    kept = []
    report("two-block", 0, total)
    for lo in range(0, total, _MASK_BATCH):
        hi = min(lo + _MASK_BATCH, total)
        masks = _two_block_representatives(N, tables, lo, hi)
        labels = ((masks[:, None] >> np.arange(N, dtype=np.uint64))
                  & np.uint64(1)).astype(np.int8)
        for r0 in range(0, len(labels), _ROW_BATCH):
            kept.append(_close(labels[r0:r0 + _ROW_BATCH], E, dmax))
        report("two-block", hi, total)
    return _orbits(_distinct(np.concatenate(kept)), maps)


def _closed_schemes(sys, dmax, nonsymmetric, report):
    """Label rows of every partition of Z_{2(p+1)} into 3..dmax parts that
    the closure on ``sys`` finds closed with as many dual blocks as blocks,
    kept only if some part I != -I (I shifted by the class of -1, N/2)
    when ``nonsymmetric``."""
    N = sys.N
    maps = _orbit_maps(sys.field.p, N)
    E = _code_matrix(sys)
    closures = _two_block_closures(N, maps, E, dmax, report)

    # meets of up to dmax - 1 kept closures, one left operand per orbit;
    # an operand with dmax blocks is its own meet with anything coarser
    found = [closures]
    right = closures[closures.max(axis=1) + 1 < dmax]
    left = right
    for _ in range(dmax - 2):
        left = _orbit_representatives(left[left.max(axis=1) + 1 < dmax], maps)
        report("meets", 0, len(left))
        left = _meet_closures(left, right, E, dmax, report)
        found.append(left)

    candidates = _unique(np.concatenate(found))
    size = candidates.max(axis=1) + 1
    _, dsize = _levels_of_sums(candidates, E, dmax)
    keep = (size >= 3) & (dsize == size)
    if nonsymmetric:
        minus = (np.arange(N) + sys.minus_one_class()) % N
        keep &= (candidates != candidates[:, minus]).any(axis=1)
    return _orbits(candidates[keep], maps)


# --- exhaustive nonexistence search ----------------------------------------------

@dataclass
class SearchProgress:
    """How far one phase of the search is, handed to the progress callback.

    Phases in order: ``two-block`` (masks of two-block partitions tested and
    closed), ``meets`` (once per round of meets: left operands done) and
    ``recheck`` (survivors re-verified exactly)."""
    phase: str
    done: int
    total: int
    elapsed_s: float     # since the phase started


@dataclass
class SearchResult:
    candidates_checked: int
    counts_by_classes: list[int]
    schemes_found: list[IndexPartition]


def _canonical(labels: np.ndarray, N: int) -> IndexPartition:
    parts = (tuple(np.nonzero(labels == l)[0].tolist())
             for l in range(labels.max() + 1))  # each one ascending
    return IndexPartition(N, tuple(sorted(parts, key=lambda s: (len(s), s))))


def _thread_budget() -> int:
    """Threads the search runs on: one (perfbench/child.py reports it)."""
    return 1


def _stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k blocks, exactly."""
    row = [1] + [0] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def _progress_reporter(progress):
    starts = {}

    def report(phase, done, total):
        """done == 0 starts the phase's clock; later calls are reported."""
        now = time.perf_counter()
        if done == 0:
            starts[phase] = now
        elif progress is not None:
            progress(SearchProgress(phase, done, total, now - starts[phase]))

    return report


def exhaustive_nonexistence(p: int, max_classes: int = 4,
                            allow_symmetric: bool = False,
                            progress=None) -> SearchResult:
    """Decide every partition of Z_{2(p+1)} into 3..max_classes parts.

    Returns every such partition that (a) is a closed partition with as many
    dual classes as blocks, and is nonsymmetric and primitive unless
    ``allow_symmetric``, and (b) re-verifies as a scheme via the exact
    signature path.  The closure and the exact path must agree;
    disagreement raises.  ``candidates_checked`` and ``counts_by_classes``
    count the partitions the closure argument decides, by block count
    (Stirling numbers).  The budget estimates alone decide what runs.
    """
    domain = f"p = {p} must be a prime = 3 (mod 4)"
    if p % 4 != 3 or p < 3:
        raise PreconditionViolated(domain)
    if max_classes not in (3, 4):
        raise PreconditionViolated("max_classes must be 3 or 4")
    dmax = max_classes
    N = 2 * (p + 1)
    # decided from N before a huge p is trial-divided; the estimate grows
    # with N, so past N = 64 its value there refuses without forming 2^(N-1)
    check_budget(closure_bytes(min(N, 64)),
                 f"the closure search on Z_{N} needs"
                 + ("" if N <= 64 else " more than"))
    if not is_prime(p):
        raise PreconditionViolated(domain)
    sys = build_cyclotomy(build_field(p, 2), N)
    report = _progress_reporter(progress)
    raw = _closed_schemes(sys, dmax, not allow_symmetric, report)
    check_budget(len(raw) * _SURVIVOR_BYTES,
                 f"reporting {len(raw)} schemes needs")

    # exact recheck of the survivors, a batch of label rows at a time
    survivors = []
    report("recheck", 0, len(raw))
    for r0 in range(0, len(raw), _RECHECK_BATCH):
        rows = raw[r0:r0 + _RECHECK_BATCH]
        distinct, primitive = signature_counts(sys, rows, dmax)
        if (distinct != rows.max(axis=1) + 1).any():
            raise PreconditionViolated(
                "closure/exact disagreement on a survivor; closure bug")
        survivors += [_canonical(row, N)
                      for row in rows[primitive | allow_symmetric]]
        report("recheck", r0 + len(rows), len(raw))
    survivors.sort(key=lambda pt: pt.parts)
    counts = [0] + [_stirling2(N, k) for k in range(1, dmax + 1)] + [0]
    return SearchResult(candidates_checked=sum(counts[3:]),
                        counts_by_classes=counts,
                        schemes_found=survivors)
