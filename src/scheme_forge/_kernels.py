"""Hot numeric kernels, numpy only.

Two kernels live here.  The antilog table of F_{p^f} (the code of gamma^e
for every e) is read off the trace m-sequence by one fixed linear map; it is
needed only by the element-level operations of ``FieldSpec``, on first use
(Gauss periods read one norm period of the m-sequence).  The exhaustive scan
over set partitions of Z_N (~1.8e8 leaves at N = 16) labels positions in
opposite pairs, drops every completion whose pair multisets outnumber its
blocks, and scans a whole block of prefixes that share their completions in
one call.  ``search-nonexistence`` no longer runs the scan: the closure
search in ``search`` decides the same partitions, and the scan is its
independent oracle in the tests (and ``enumeration_counts``'s enumerator).
``benchmarks/bench_kernels.py`` times both.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BudgetExceeded, PreconditionViolated


def use_numba() -> bool:
    # every kernel is numpy; perfbench/child.py's import probe reads this
    # to name the backend
    return False


# ---------------------------------------------------------------------------
# discrete-log (antilog) table
# ---------------------------------------------------------------------------
#
# Elements of F_{p^f} are encoded as integers 0..q-1, the coefficient vector
# of the residue mod the primitive modulus read in base p (constant digit
# least significant).  antilog[e] is the code of gamma^e.  By the trace-dual-
# basis relation (Lidl-Niederreiter, Finite Fields, 2.3), if gamma^e =
# sum_i c_i x^i then s_{e+k} = tr(x^k gamma^e) = sum_i T[k, i] c_i, where
# T[k, i] = tr(x^(i+k)) (= s_{i+k}, as gamma = x for f > 1; T = [1] for f = 1)
# is the Gram matrix of the trace form, symmetric and invertible.  So
# c = T^-1 (s_e, ..., s_{e+f-1}) mod p, and T^-1 is symmetric too.

_ANTILOG_ROWS = 1 << 16  # windows mapped per matmul


def _inverse_mod_p(matrix, p):
    """Inverse of an invertible square integer matrix mod p (Gauss-Jordan)."""
    n = len(matrix)
    a = np.hstack([np.asarray(matrix, dtype=np.int64) % p,
                   np.eye(n, dtype=np.int64)])
    for c in range(n):
        r = c + np.flatnonzero(a[c:, c])[0]
        a[[c, r]] = a[[r, c]]
        a[c] = a[c] * pow(int(a[c, c]), -1, p) % p
        factor = a[:, c].copy()
        factor[c] = 0
        a = (a - np.outer(factor, a[c])) % p
    return a[:, n:]


def antilog_table(p, f, s):
    """Exponent -> element code (int32) from the m-sequence s_e = tr(gamma^e),
    e < q - 1: row e is T^-1 (s_e, ..., s_{e+f-1}) mod p, read in base p,
    with the windows running cyclically past the end of s."""
    t_inv = _inverse_mod_p(sliding_window_view(s[:2 * f - 1], f), p)
    place = p ** np.arange(f, dtype=np.int64)
    windows = sliding_window_view(np.concatenate([s, s[:f - 1]]), f)
    out = np.empty(len(s), dtype=np.int32)
    for e in range(0, len(s), _ANTILOG_ROWS):
        out[e:e + _ANTILOG_ROWS] = (windows[e:e + _ANTILOG_ROWS] @ t_inv
                                    % p) @ place
    return out


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
#
# Positions are labelled in opposite pairs, 0, N/2, 1, N/2 + 1, ...
# (pair_order), and the restricted growth is taken in that order.  Since
# T_0 = {i1, i1 + N/2}, the T_0 fields of character c's code are the label
# multiset {a[i1 - c], a[i1 - c + N/2]}: a labelling has at least as many
# distinct codes as distinct multisets {a[x], a[x + N/2]}, so a row with
# more such multisets than blocks never survives.  In pair order each
# multiset is two adjacent labels; bit lo*dmax + hi of a pair mask marks the
# multiset {lo, hi}.

_SIG_BASE = 4096  # per-part field: c0*1024 + (delta + p), c0 <= 2, |delta| <= p


def pair_order(N):
    """Enumeration order of the positions of Z_N: 0, N/2, 1, N/2 + 1, ..."""
    return np.arange(N).reshape(2, N // 2).T.ravel()


def _pair_bits(x, y, dmax):
    return np.left_shift(1, np.minimum(x, y).astype(np.int64) * dmax +
                         np.maximum(x, y))


def _pair_mask(labels, dmax, start=0):
    """Pair mask of the whole pairs (start + 2k, start + 2k + 1) on the last
    axis of ``labels`` (pair-order labels)."""
    stop = start + (labels.shape[-1] - start) // 2 * 2
    return np.bitwise_or.reduce(_pair_bits(labels[..., start:stop:2],
                                           labels[..., start + 1:stop:2],
                                           dmax), axis=-1)


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


def _group_key(prefixes, dmax):
    """(top label, whole-pair mask, label of the split pair or 0) per row."""
    P = prefixes.shape[1]
    split = prefixes[:, -1] if P % 2 else np.zeros(len(prefixes), np.int8)
    return np.stack([prefixes.max(axis=1), _pair_mask(prefixes, dmax), split],
                    axis=1)


def group_prefixes(prefixes, dmax):
    """The prefixes stacked into (G, P) blocks, one per key: top label,
    whole-pair mask, and for odd P the label of the split last pair.  The
    prefixes of a block share their completions and the pair-bound filter
    on them, so :func:`search_chunk` scans a block in one call."""
    pre = np.stack(prefixes)
    _, inv = np.unique(_group_key(pre, dmax), axis=0, return_inverse=True)
    order = np.argsort(inv, kind="stable")
    return np.split(pre[order], np.cumsum(np.bincount(inv))[:-1])


# The packed codes.  With B = _SIG_BASE and W[l] = B^(dmax-1-l), the code of
# character c is linear in the per-position weights W[a_j]:
#
#     code[c] = p * sum_l W[l] + sum_j W[a_j] * ST[j, c],
#     ST[j, c] = sden[(j + c) % N] + 1024 * ([j == i1 - c] + [j == i2 - c])
#
# (indices mod N, T_0 = {i1, i2}; labels a part does not use contribute the
# constant field p).  With the rows of ST in pair order, the sum splits into
# a prefix vector over the first P positions and a suffix part over the
# rest.  The completions of a prefix depend only on its top label, so their
# labels, block counts, pair masks and suffix codes are tabulated once per
# (N, P, dmax, top, ST[P:]), cached read-only and shared by every prefix and
# thread.  A call drops the rows the pair bound rules out, adds each prefix
# vector of its block to the rest, and counts distinct codes per row.
#
# int64 is exact: each per-label field lies in [0, 4096) for p < 512, so every
# code is below 4096^dmax <= 2^48; |ST| <= 2049, so every partial sum of the
# split is below N * 2^12 * 4096^(dmax-1) <= 2^53 in absolute value, and the
# difference of two below 2^54.

SCAN_TABLE_BUDGET = 1 << 30  # bytes of one suffix table plus a chunk's arrays
_SLAB = 1 << 14  # (prefix, row) pairs whose codes are compared at once
_TABLE_LOCK = threading.Lock()


@lru_cache(maxsize=None)
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
    blocks: np.ndarray  # (R,) int8 block count of prefix + suffix
    pairs: np.ndarray   # (1 or dmax, R) uint32 masks of the suffix's pairs
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
    blocks = mx + 1
    weights = _SIG_BASE ** np.arange(dmax - 1, -1, -1, dtype=np.int64)
    # with P odd, the first suffix label completes the prefix's last pair:
    # row s of the masks takes that pair's prefix label to be s
    pairs = np.atleast_2d(_pair_mask(labels, dmax, P % 2))
    if P % 2:
        pairs = pairs | _pair_bits(np.arange(dmax)[:, None], labels[:, 0],
                                   dmax)
    table = _SuffixTable(labels, blocks, pairs.astype(np.uint32),
                         np.bincount(blocks, minlength=dmax + 1),
                         st.T @ weights[labels].T)
    for arr in table:
        arr.setflags(write=False)
    return table


def search_chunk(prefix, N, dmin, dmax, half, t0_positions, sden, p,
                 require_nonsym, counts):
    """Scan all completions of a block of label prefixes; returns the
    surviving label rows, in natural position order.

    ``prefix`` labels the first P positions of :func:`pair_order`: one
    prefix of shape (P,), or a (G, P) block from :func:`group_prefixes`,
    whose prefixes share a key.  ``t0_positions`` must be {i, i + N/2}.
    ``counts`` (int64, length >= dmax+2) accumulates the number of leaves per
    block count.  Survivors are partitions whose dual-signature count equals
    the block count (the translation-scheme criterion); the nonsymmetry
    filter keeps only candidates with some part I != I + half.
    """
    prefix = np.atleast_2d(np.asarray(prefix, dtype=np.int8))
    sden = np.asarray(sden, dtype=np.int64)
    G, P = prefix.shape
    top = int(prefix[0].max())
    rows = completion_count(N - P, dmax, top)
    need = rows * (8 * (N + dmax + 3) + N)
    if need > SCAN_TABLE_BUDGET:
        raise BudgetExceeded(
            f"suffix table of {rows} rows needs ~{need >> 20} MiB, over the "
            f"{SCAN_TABLE_BUDGET >> 20} MiB budget of the scan")
    i1, i2 = t0_positions
    if N % 2 or (i2 - i1) % N != N // 2:
        raise PreconditionViolated(
            "the pair bound needs t0_positions = {i, i + N/2}")
    key = _group_key(prefix, dmax)
    if (key != key[0]).any():
        raise PreconditionViolated(
            "prefixes of one call must share top label, pair mask and split")
    order = pair_order(N)
    j = np.arange(N)
    st = (sden[(j[:, None] + j[None, :]) % N] +
          1024 * ((j[:, None] == (i1 - j) % N).astype(np.int64) +
                  (j[:, None] == (i2 - j) % N)))[order]
    with _TABLE_LOCK:
        tab = _suffix_table(N, P, dmax, top, st[P:].tobytes())
    counts[:tab.leaves.shape[0]] += G * tab.leaves
    mask = key[0, 1] | tab.pairs[key[0, 2]]
    keep = np.flatnonzero((np.bitwise_count(mask) <= tab.blocks) &
                          (tab.blocks >= dmin))
    weights = _SIG_BASE ** np.arange(dmax - 1, -1, -1, dtype=np.int64)
    base = p * weights.sum() + weights[prefix] @ st[:P]
    # a row whose first dmax + 1 codes are pairwise distinct has more distinct
    # codes than blocks; only the rest are sorted and counted.  Codes a and c
    # of prefix g and row r clash iff head[a, r] - head[c, r] equals
    # base[g, c] - base[g, a].
    head = tab.codes[:dmax + 1].take(keep, axis=1)
    heads = [(a, c, head[a] - head[c])
             for c in range(1, len(head)) for a in range(c)]
    step = max(1, _SLAB // max(1, len(keep)))
    hit_g, hit_r = [], []
    for g0 in range(0, G, step):
        b = base[g0:g0 + step]
        clash = np.full((len(b), len(keep)), N <= dmax)
        for a, c, diff in heads:
            clash |= diff == (b[:, c] - b[:, a])[:, None]
        g, k = np.nonzero(clash)
        g += g0
        r = keep[k]
        codes = base[g]
        codes += tab.codes.take(r, axis=1).T
        codes.sort(axis=1)
        ndist = 1 + (codes[:, 1:] != codes[:, :-1]).sum(axis=1)
        hit = ndist == tab.blocks[r]
        hit_g.append(g[hit])
        hit_r.append(r[hit])
    g, r = np.concatenate(hit_g), np.concatenate(hit_r)
    found = np.empty((len(g), N), dtype=np.int8)
    found[:, order] = np.concatenate([prefix[g], tab.labels[r]], axis=1)
    if require_nonsym:
        found = found[(found != found[:, (j + half) % N]).any(axis=1)]
    return found
