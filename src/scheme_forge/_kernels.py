"""Hot numeric kernels, JIT-compiled with pure-numpy fallbacks.

Two loops live here: filling the antilog table of F_{p^f} (sequential
multiply-by-x recurrence, O(q f)), which only the element-level operations
of ``FieldSpec`` build, on first use (Gauss periods read the trace
m-sequence instead), and the exhaustive scan over set partitions of Z_N
(~1.8e8 leaves at N = 16), which dominates runtime.  Both exist in a numba
``@njit`` flavour and a vectorised numpy flavour; dispatch is decided per
call by :func:`use_numba`.

Set ``SCHEME_FORGE_PURE_NUMPY=1`` to force the numpy paths (e.g. on a host
without a working numba install); ``benchmarks/bench_kernels.py`` times the
two flavours against each other.
"""

from __future__ import annotations

import os
import threading
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # numba is the optional `jit` extra
    HAS_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def use_numba() -> bool:
    """True when the JIT paths should be used (env flag wins over autodetect)."""
    if os.environ.get("SCHEME_FORGE_PURE_NUMPY", "") not in ("", "0"):
        return False
    return HAS_NUMBA


# ---------------------------------------------------------------------------
# discrete-log (antilog) table
# ---------------------------------------------------------------------------
#
# Elements of F_{p^f} are encoded as integers 0..q-1, the coefficient vector
# of the residue mod the primitive modulus read in base p (constant digit
# least significant).  antilog[e] is the code of x^e, where x is the residue
# of the indeterminate, a generator by construction.


@njit(cache=True, nogil=True)
def _antilog_jit(p, f, q, mlow, out):  # pragma: no cover - exercised via dispatch
    digits = np.zeros(f, dtype=np.int64)
    digits[0] = 1
    code = 1
    for e in range(q - 1):
        out[e] = code
        top = digits[f - 1]
        for i in range(f - 1, 0, -1):
            digits[i] = digits[i - 1]
        digits[0] = 0
        if top != 0:
            for i in range(f):
                digits[i] = (digits[i] - top * mlow[i]) % p
        code = 0
        for i in range(f - 1, -1, -1):
            code = code * p + digits[i]
    return out


def antilog_table_numpy(p, f, q, mlow):
    """Doubling construction: powers [k, 2k) are powers [0, k) times x^k.

    Multiplication by x^k is a linear map on coefficient vectors, tracked as
    a power of the companion matrix of the modulus, so each doubling is one
    (k x f) @ (f x f) matmul mod p.
    """
    mlow = np.asarray(mlow, dtype=np.int64)
    M = np.zeros((f, f), dtype=np.int64)
    for i in range(f - 1):
        M[i, i + 1] = 1
    M[f - 1, :] = (-mlow) % p
    place = p ** np.arange(f, dtype=np.int64)

    codes = np.empty(q - 1, dtype=np.int64)
    codes[0] = 1
    have = 1
    mpow = M.copy()  # M^have
    while have < q - 1:
        take = min(have, q - 1 - have)
        digs = (codes[:take, None] // place[None, :]) % p
        codes[have:have + take] = ((digs @ mpow) % p) @ place
        if take == have:
            mpow = (mpow @ mpow) % p
        have += take
    return codes.astype(np.int32)


def antilog_table(p, f, q, mlow):
    if use_numba():
        out = np.empty(q - 1, dtype=np.int32)
        return _antilog_jit(p, f, q, np.asarray(mlow, dtype=np.int64), out)
    return antilog_table_numpy(p, f, q, mlow)


# ---------------------------------------------------------------------------
# exhaustive partition search over Z_N
# ---------------------------------------------------------------------------
#
# Partitions are enumerated as restricted growth strings (labels capped at
# dmax-1), which canonicalises part order for free.  A candidate with d
# parts is a translation scheme iff the N character signatures take exactly
# d distinct values; over F_{p^2} with N = 2(p+1) the Gauss periods admit
# only three values (M on the two zero-trace classes, (-1 +- sqrt p)/2 on
# the square/nonsquare-trace classes), so the exact signature of a part I
# under character a collapses to the integer pair
#
#     (#[(I+a) meets T_0],  #[(I+a) meets T_s] - #[(I+a) meets T_n])
#
# which this kernel packs into one machine word per character.

_SIG_BASE = 4096  # per-part field: c0*1024 + (delta + p), c0 <= 2, |delta| <= p


def search_prefixes(N, dmax, depth):
    """All label prefixes of the given depth (restricted growth, <= dmax labels)."""
    prefixes = [[0]]
    for _ in range(depth - 1):
        nxt = []
        for pre in prefixes:
            top = max(pre)
            for lab in range(min(top + 1, dmax - 1) + 1):
                nxt.append(pre + [lab])
        prefixes = nxt
    return [np.array(pre, dtype=np.int8) for pre in prefixes]


@njit(cache=True, nogil=True)
def _search_chunk_jit(prefix, N, dmin, dmax, half, j1s, j2s, sden2, p,
                      require_nonsym, counts, surv, surv_cap):  # pragma: no cover
    P = prefix.shape[0]
    a = np.zeros(N, dtype=np.int8)
    mx = np.zeros(N, dtype=np.int8)
    for j in range(P):
        a[j] = prefix[j]
        mx[j] = a[j] if (j == 0 or a[j] > mx[j - 1]) else mx[j - 1]
    for j in range(P, N):
        a[j] = 0
        mx[j] = mx[j - 1]

    sigs = np.empty(N, dtype=np.int64)
    dd = np.zeros(dmax, dtype=np.int64)
    n_surv = 0
    overflow = 0

    while True:
        # --- visit leaf ---
        nblocks = int(mx[N - 1]) + 1
        counts[nblocks] += 1
        if dmin <= nblocks <= dmax:
            ok = True
            if require_nonsym:
                ok = False
                for j in range(N):
                    jj = j + half
                    if jj >= N:
                        jj -= N
                    if a[j] != a[jj]:
                        ok = True
                        break
            if ok:
                # dual-signature count with early exit
                ndist = 0
                good = True
                for c in range(N):
                    for l in range(nblocks):
                        dd[l] = 0
                    for j in range(N):
                        dd[a[j]] += sden2[j + c]
                    l1 = a[j1s[c]]
                    l2 = a[j2s[c]]
                    code = np.int64(0)
                    for l in range(nblocks):
                        c0 = 0
                        if l1 == l:
                            c0 += 1
                        if l2 == l:
                            c0 += 1
                        code = code * _SIG_BASE + (c0 * 1024 + dd[l] + p)
                    new = True
                    for t in range(ndist):
                        if sigs[t] == code:
                            new = False
                            break
                    if new:
                        if ndist == nblocks:
                            good = False
                            break
                        sigs[ndist] = code
                        ndist += 1
                if good and ndist == nblocks:
                    if n_surv < surv_cap:
                        for j in range(N):
                            surv[n_surv, j] = a[j]
                        n_surv += 1
                    else:
                        overflow = 1
        # --- advance odometer over positions P..N-1 ---
        j = N - 1
        while j >= P:
            lim = min(mx[j - 1] + 1, dmax - 1)
            if a[j] < lim:
                a[j] += 1
                mx[j] = a[j] if a[j] > mx[j - 1] else mx[j - 1]
                for t in range(j + 1, N):
                    a[t] = 0
                    mx[t] = mx[j]
                break
            j -= 1
        if j < P:
            break
    return n_surv, overflow


# numpy flavour.  With B = _SIG_BASE and W[l] = B^(dmax-1-l), the packed code
# of character c is linear in the per-position weights W[a_j]:
#
#     code[c] = p * sum_l W[l] + sum_j W[a_j] * ST[j, c],
#     ST[j, c] = sden[(j + c) % N] + 1024 * ([j == j1s[c]] + [j == j2s[c]])
#
# (labels a part does not use contribute the constant field p).  The sum over
# j splits into a prefix vector over j < P and a suffix part over j >= P.  The
# completions of a prefix depend only on its top label, so their labels, block
# counts and suffix codes are tabulated once per (N, P, dmax, top, ST[P:]),
# cached read-only and shared by every prefix and thread.  A chunk adds its
# prefix vector to the table and counts distinct codes per row.
#
# int64 is exact: each per-label field lies in [0, 4096) for p < 512, so every
# code is below 4096^dmax <= 2^48; |ST| <= 2049, so every partial sum of the
# split is below N * 2^12 * 4096^(dmax-1) <= 2^53 in absolute value.

SCAN_TABLE_BUDGET = 1 << 30  # bytes of one suffix table plus a chunk's arrays
_TABLE_LOCK = threading.Lock()


def completion_count(length, dmax, top):
    """Number of restricted-growth completions of ``length`` labels after a
    prefix whose largest label is ``top``."""
    ways = [0] * dmax
    ways[top] = 1
    for _ in range(length):
        nxt = [0] * dmax
        for m, w in enumerate(ways):
            nxt[m] += (m + 1) * w
            if m + 1 < dmax:
                nxt[m + 1] += w
        ways = nxt
    return sum(ways)


class _SuffixTable(NamedTuple):
    labels: np.ndarray  # (R, N - P) int8 suffix labels, odometer order
    blocks: np.ndarray  # (R,) block count of prefix + suffix
    leaves: np.ndarray  # bincount of blocks
    codes: np.ndarray   # (N, R) suffix part of the packed codes


@lru_cache(maxsize=32)
def _suffix_table(N, P, dmax, top, st_suffix):
    st = np.frombuffer(st_suffix, dtype=np.int64).reshape(N - P, N)
    labels = np.zeros((1, 0), dtype=np.int8)
    mx = np.array([top], dtype=np.int8)
    for _ in range(N - P):
        allowed = np.minimum(mx + 1, dmax - 1) + 1
        reps = np.repeat(np.arange(mx.shape[0]), allowed)
        new = (np.arange(reps.shape[0]) -
               np.repeat(np.cumsum(allowed) - allowed, allowed)).astype(np.int8)
        labels = np.concatenate([labels[reps], new[:, None]], axis=1)
        mx = np.maximum(mx[reps], new)
    blocks = mx.astype(np.int64) + 1
    weights = _SIG_BASE ** np.arange(dmax - 1, -1, -1, dtype=np.int64)
    table = _SuffixTable(labels, blocks,
                         np.bincount(blocks, minlength=dmax + 1),
                         st.T @ weights[labels].T)
    for arr in table:
        arr.setflags(write=False)
    return table


def _search_chunk_numpy(prefix, N, dmin, dmax, half, j1s, j2s, sden, p,
                        require_nonsym, counts):
    P = prefix.shape[0]
    top = int(prefix.max())
    rows = completion_count(N - P, dmax, top)
    need = rows * (8 * (N + dmax + 2) + N)
    if need > SCAN_TABLE_BUDGET:
        raise BudgetExceeded(
            f"suffix table of {rows} rows needs ~{need >> 20} MiB, over the "
            f"{SCAN_TABLE_BUDGET >> 20} MiB budget of the numpy scan")
    j = np.arange(N)
    st = (sden[(j[:, None] + j[None, :]) % N] +
          1024 * ((j[:, None] == j1s[None, :]).astype(np.int64) +
                  (j[:, None] == j2s[None, :])))
    with _TABLE_LOCK:
        tab = _suffix_table(N, P, dmax, top, st[P:].tobytes())
    counts[:tab.leaves.shape[0]] += tab.leaves
    weights = _SIG_BASE ** np.arange(dmax - 1, -1, -1, dtype=np.int64)
    base = p * weights.sum() + weights[prefix] @ st[:P]
    # a row whose first dmax + 1 codes are pairwise distinct has more distinct
    # codes than blocks; only the rest are sorted and counted
    head = tab.codes[:dmax + 1] + base[:dmax + 1, None]
    clash = np.full(rows, N <= dmax)
    for c in range(1, head.shape[0]):
        clash |= (head[:c] == head[c]).any(axis=0)
    cand = np.flatnonzero(clash & (tab.blocks >= dmin))
    codes = tab.codes[:, cand].T + base
    codes.sort(axis=1)
    ndist = 1 + (codes[:, 1:] != codes[:, :-1]).sum(axis=1)
    hit = cand[ndist == tab.blocks[cand]]
    found = np.concatenate(
        [np.broadcast_to(prefix, (hit.shape[0], P)), tab.labels[hit]], axis=1)
    if require_nonsym:
        found = found[(found != found[:, (j + half) % N]).any(axis=1)]
    return found


def search_chunk(prefix, N, dmin, dmax, half, t0_positions, sden, p,
                 require_nonsym, counts, surv_cap=16384):
    """Scan all completions of ``prefix``; returns surviving label rows.

    ``counts`` (int64, length >= dmax+2) accumulates the number of leaves per
    block count.  Survivors are partitions whose dual-signature count equals
    the block count (the translation-scheme criterion); the nonsymmetry
    filter keeps only candidates with some part I != I + half.
    """
    i1, i2 = t0_positions
    j1s = ((i1 - np.arange(N)) % N).astype(np.int64)
    j2s = ((i2 - np.arange(N)) % N).astype(np.int64)
    sden = np.asarray(sden, dtype=np.int64)
    if use_numba():
        sden2 = np.concatenate([sden, sden])
        surv = np.zeros((surv_cap, N), dtype=np.int8)
        n, overflow = _search_chunk_jit(
            np.asarray(prefix, dtype=np.int8), N, dmin, dmax, half,
            j1s, j2s, sden2, p, require_nonsym, counts, surv, surv_cap)
        if overflow:
            raise MemoryError("survivor buffer overflow; raise surv_cap")
        return surv[:n].copy()
    return _search_chunk_numpy(np.asarray(prefix, dtype=np.int8), N, dmin, dmax,
                               half, j1s, j2s, sden, p, require_nonsym, counts)
