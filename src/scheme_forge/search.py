"""Group-ring identities over Z_N and the exhaustive nonexistence scan.

For a prime p = 3 (mod 4) the candidate translation schemes on F_{p^2} with
few classes are unions of cyclotomic classes of order N = 2(p+1) (the
nonzero squares of Z_p act as multipliers), so nonexistence is settled by
scanning all partitions of Z_N into 3 or 4 parts.  The numpy kernel
``_kernels.search_chunk`` runs on a thread pool, one block of label prefixes
with a shared key per call (``scan_groups``); every survivor is re-verified
through the exact CycInt path and the primitivity filter before being
reported.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cycint import CycInt
from .cyclotomy import build_cyclotomy
from .errors import BudgetExceeded, ModulusMismatch, PreconditionViolated
from .finite_field import build_field, is_prime
from .scheme_core import IndexPartition, dual_classes, is_primitive

LONG_RUN_PRIMES = (11,)
DEFAULT_PRIMES = (3, 7)


# --- group ring Z[Z_N] --------------------------------------------------------

@dataclass(frozen=True)
class GroupRingElem:
    N: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.N:
            raise ModulusMismatch(f"need {self.N} coefficients")

    @classmethod
    def from_set(cls, N: int, subset) -> "GroupRingElem":
        v = [0] * N
        for i in subset:
            v[i % N] += 1
        return cls(N, tuple(v))

    @classmethod
    def basis(cls, N: int, i: int) -> "GroupRingElem":
        return cls.from_set(N, [i])

    def __add__(self, other):
        o = self._coerce(other)
        return GroupRingElem(self.N, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    def __sub__(self, other):
        o = self._coerce(other)
        return GroupRingElem(self.N, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return GroupRingElem(self.N, tuple(scalar * a for a in self.coeffs))

    def _coerce(self, other) -> "GroupRingElem":
        if isinstance(other, GroupRingElem):
            if other.N != self.N:
                raise ModulusMismatch(f"moduli {self.N} != {other.N}")
            return other
        if isinstance(other, int):
            v = [0] * self.N
            v[0] = other
            return GroupRingElem(self.N, tuple(v))
        raise ModulusMismatch(f"cannot coerce {other!r}")


def gr_mul(a: GroupRingElem, b: GroupRingElem) -> GroupRingElem:
    bb = a._coerce(b)
    N = a.N
    out = [0] * N
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j, bj in enumerate(bb.coeffs):
                if bj:
                    out[(i + j) % N] += ai * bj
    return GroupRingElem(N, tuple(out))


def gr_involution(a: GroupRingElem) -> GroupRingElem:
    return GroupRingElem(a.N, tuple(a.coeffs[(-i) % a.N] for i in range(a.N)))


# --- the trace partition of Z_{2(p+1)} ----------------------------------------

def _square_status(t: int, p: int) -> int:
    """0 for t = 0, 1 for a nonzero square mod p, -1 for a nonsquare."""
    if t % p == 0:
        return 0
    return 1 if pow(t, (p - 1) // 2, p) == 1 else -1


def trace_partition(p: int):
    """(T_0, T_s, T_n): class indices of Z_{2(p+1)} with zero / square /
    nonsquare trace, sizes (2, p, p); T_n is T_s shifted by p+1."""
    if p % 4 != 3 or not is_prime(p):
        raise PreconditionViolated(f"p = {p} must be a prime = 3 (mod 4)")
    field = build_field(p, 2)
    N = 2 * (p + 1)
    t0, ts, tn = [], [], []
    for i in range(N):
        status = _square_status(int(field.trace_sequence[i]), p)
        (t0 if status == 0 else ts if status == 1 else tn).append(i)
    if len(t0) != 2 or len(ts) != p or len(tn) != p:
        raise PreconditionViolated("trace partition has unexpected sizes")
    return tuple(t0), tuple(ts), tuple(tn)


def ts_identity_check(p: int) -> bool:
    """Exact relative-difference-set identity for the square-trace indices:
    T_s T_s^(-1) = p[0] + (p-1)/2 (Z_N - {[0], [N/2]})."""
    _, ts, _ = trace_partition(p)
    N = 2 * (p + 1)
    Ts = GroupRingElem.from_set(N, ts)
    lhs = gr_mul(Ts, gr_involution(Ts))
    allN = GroupRingElem(N, (1,) * N)
    sub = GroupRingElem.from_set(N, [0, N // 2])
    rhs = p * GroupRingElem.basis(N, 0) + ((p - 1) // 2) * (allN - sub)
    return lhs == rhs


# --- exhaustive nonexistence scan ------------------------------------------------

@dataclass
class SearchConfig:
    p: int
    max_classes: int = 4
    allow_symmetric: bool = False
    long_run: bool = False

    def validate(self):
        if self.p % 4 != 3 or not is_prime(self.p):
            raise PreconditionViolated(f"p = {self.p} must be a prime = 3 (mod 4)")
        if self.max_classes not in (3, 4):
            raise PreconditionViolated("max_classes must be 3 or 4")
        if self.p not in DEFAULT_PRIMES:
            if self.p in LONG_RUN_PRIMES:
                if not self.long_run:
                    raise BudgetExceeded(
                        f"p = {self.p} needs the explicit long-run flag")
            else:
                raise BudgetExceeded(f"p = {self.p} is beyond the search budget")


@dataclass
class ScanProgress:
    """What the scan has done so far, handed to the progress callback."""
    chunks_done: int
    chunks_total: int
    leaves: int          # partitions visited, any block count
    leaves_total: int
    checked: int         # partitions with 3..max_classes blocks
    survivors: int       # kernel survivors awaiting the exact recheck
    elapsed_s: float


@dataclass
class SearchResult:
    candidates_checked: int
    counts_by_classes: list[int]
    schemes_found: list[IndexPartition]


def _canonical(labels: np.ndarray, N: int) -> IndexPartition:
    parts = [sorted(np.nonzero(labels == l)[0].tolist())
             for l in range(labels.max() + 1)]
    parts.sort(key=lambda s: (len(s), s))
    return IndexPartition.from_sets(N, parts)


def _thread_budget() -> int:
    env = os.environ.get("SCHEME_FORGE_THREADS", "")
    if env.strip():
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def scan_groups(N: int, dmax: int) -> list[np.ndarray]:
    """The scan's prefix blocks, one ``search_chunk`` call each: label
    prefixes in pair order, grouped by ``_kernels.group_prefixes``.  The
    depth keeps every suffix table small at N <= 16 and leaves N = 24 at
    depth 9, whose tables exceed the budget."""
    depth = 4 if N <= 8 else (7 if dmax <= 3 else 8) if N <= 16 else 9
    return _kernels.group_prefixes(_kernels.search_prefixes(N, dmax, depth),
                                   dmax)


def exhaustive_nonexistence(cfg: SearchConfig, progress=None) -> SearchResult:
    """Scan all partitions of Z_{2(p+1)} into 3..max_classes parts.

    Returns every partition that (a) passes the configured filters in the
    fast kernel and (b) re-verifies as a scheme via the exact signature path,
    with primitivity applied per the configuration.  The kernel and the
    exact path must agree; disagreement raises.
    """
    cfg.validate()
    p = cfg.p
    N = 2 * (p + 1)
    half = N // 2
    t0, ts, tn = trace_partition(p)
    sden = np.zeros(N, dtype=np.int64)
    for i in ts:
        sden[i] = 1
    for i in tn:
        sden[i] = -1

    groups = scan_groups(N, cfg.max_classes)
    leaves_total = sum(len(block) * _kernels.completion_count(
        N - block.shape[1], cfg.max_classes, int(block[0].max()))
        for block in groups)
    counts = np.zeros(cfg.max_classes + 2, dtype=np.int64)
    raw = []

    failed = threading.Event()

    def run_chunk(block):
        # after a chunk raised, the scan ends in that error: a chunk a worker
        # starts later returns None without running the kernel
        if failed.is_set():
            return None
        local = np.zeros(cfg.max_classes + 2, dtype=np.int64)
        try:
            surv = _kernels.search_chunk(block, N, 3, cfg.max_classes, half,
                                         (t0[0], t0[1]), sden, p,
                                         not cfg.allow_symmetric, local)
        except BaseException:
            failed.set()
            raise
        return local, surv

    workers = _thread_budget()
    done = n_surv = 0
    start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for result in pool.map(run_chunk, groups):
                if result is None:  # skipped; pool.map raises the error later
                    continue
                local, surv = result
                counts += local
                if len(surv):
                    raw.append(surv)
                    n_surv += len(surv)
                done += 1
                if progress and (done % 64 == 0 or done == len(groups)):
                    progress(ScanProgress(
                        done, len(groups), int(counts.sum()), leaves_total,
                        int(counts[3:cfg.max_classes + 1].sum()), n_surv,
                        time.perf_counter() - start))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise

    checked = int(counts[3:cfg.max_classes + 1].sum())

    # exact recheck of kernel survivors
    field = build_field(p, 2)
    sys = build_cyclotomy(field, N)
    survivors = []
    seen = set()
    for batch in raw:
        for row in batch:
            part = _canonical(np.asarray(row), N)
            if part.parts in seen:
                continue
            seen.add(part.parts)
            count, _, _ = dual_classes(sys, part)
            if count != part.d:
                raise PreconditionViolated(
                    "kernel/exact disagreement on a survivor; kernel bug")
            if (not cfg.allow_symmetric
                    and not is_primitive(sys, part, _verified=True)):
                continue
            survivors.append(part)
    survivors.sort(key=lambda pt: pt.parts)
    return SearchResult(candidates_checked=checked,
                        counts_by_classes=[int(c) for c in counts],
                        schemes_found=survivors)


def enumeration_counts(N: int, max_classes: int) -> list[int]:
    """Partition counts of Z_N by block count, from the kernel enumerator."""
    if N % 2:
        raise PreconditionViolated(
            f"enumeration_counts needs an even N, got N = {N}: the scan "
            "kernel labels Z_N in opposite pairs {i, i + N/2}")
    counts = np.zeros(max_classes + 2, dtype=np.int64)
    for prefix in _kernels.search_prefixes(N, max_classes, min(4, N - 1)):
        _kernels.search_chunk(prefix, N, N + 1, max_classes, N // 2,
                              (0, N // 2), np.zeros(N, dtype=np.int64), 3,
                              False, counts)
    return [int(c) for c in counts]


def ts_character_values(p: int):
    """The exact values psi(C_i): (p-1)/2 on T_0 and two conjugate values
    elsewhere; used to confirm the three-valued structure."""
    field = build_field(p, 2)
    N = 2 * (p + 1)
    sys = build_cyclotomy(field, N)
    t0, ts, tn = trace_partition(p)
    vals_t0 = {sys.periods[i] for i in t0}
    vals_ts = {sys.periods[i] for i in ts}
    vals_tn = {sys.periods[i] for i in tn}
    expect = CycInt.integer(p, (p - 1) // 2)
    return vals_t0 == {expect} and len(vals_ts) == 1 and len(vals_tn) == 1 \
        and vals_ts != vals_tn


__all__ = [
    "GroupRingElem", "ScanProgress", "SearchConfig", "SearchResult", "gr_mul",
    "gr_involution", "trace_partition", "ts_identity_check",
    "exhaustive_nonexistence", "enumeration_counts", "ts_character_values",
]
