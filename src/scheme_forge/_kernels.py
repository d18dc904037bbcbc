"""Numeric kernels, numpy only, that no command runs: the tests and
perfbench do.

The antilog table of F_{p^f} (the code of gamma^e for every e) is read off
the trace m-sequence by one fixed linear map; only ``FieldSpec``'s element
tables need it, and the tests and their oracles read those (Gauss periods
read one norm period of the m-sequence).  The exhaustive scan over set
partitions of Z_N visits every restricted-growth labelling, the closure
search's independent oracle in the tests.  perfbench/layers.py traces both;
``bench_kernels.py`` times neither.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PreconditionViolated, check_budget


def use_numba() -> bool:
    # every kernel is numpy; perfbench/child.py's import probe reads this
    # to name the backend
    return False


# --- discrete-log (antilog) table --------------------------------------------
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


# --- exhaustive partition search over Z_N -------------------------------------
#
# Partitions are enumerated as restricted growth strings (labels capped at
# dmax-1), which canonicalises part order.  A candidate with d parts is a
# translation scheme iff its N character signatures take exactly d values.
# Over F_{p^2} with N = 2(p+1) the Gauss periods take three values (one on
# the two zero-trace classes T_0, one each on the square- and nonsquare-
# trace classes T_s, T_n), so the signature of a part I under character c
# is fixed by the field 1024 #[(I+c) meets T_0] + #[(I+c) meets T_s] -
# #[(I+c) meets T_n], in [-p, 2048 + p].  With W[l] = 4096^l the code
#
#     code[c] = sum_j W[a_j] * ST[j, c],
#     ST[j, c] = sden[(j + c) % N] + 1024 * [(j + c) % N in T_0]
#
# packs the fields of all labels, and for p < 1024 two codes agree iff all
# their fields do.  float64 holds the codes exactly: every partial sum is
# an integer of absolute value at most N * 1024 * 4096^(dmax-1) <= 2^52
# (dmax <= 4, N <= 64).


def _completions(prefix, N, dmax):
    """Every restricted-growth completion of ``prefix`` to N labels, in
    odometer order: (labels (R, N) int8, largest label of each row)."""
    cols = [np.full(1, x, dtype=np.int8) for x in prefix]
    mx = np.array([prefix.max()], dtype=np.int8)
    for _ in range(N - len(prefix)):
        allowed = np.minimum(mx + 1, dmax - 1) + 1
        reps = np.repeat(np.arange(len(mx)), allowed)
        new = (np.arange(len(reps)) -
               np.repeat(np.cumsum(allowed) - allowed, allowed)).astype(np.int8)
        cols = [c[reps] for c in cols] + [new]
        mx = np.maximum(mx[reps], new)
    return np.stack(cols, axis=1), mx


def search_chunk(prefix, N, dmin, dmax, half, t0_positions, sden, p,
                 require_nonsym, counts):
    """Scan every completion of one label prefix; returns the surviving
    label rows, in natural position order.

    ``prefix`` labels the positions 0, 1, ..., P-1.  ``t0_positions`` are
    the two zero-trace classes, where ``sden`` is 0, and p < 1024 bounds
    the packed fields.  ``counts`` (int64, length >= dmax+1) accumulates
    the number of leaves per block count.  Survivors are partitions into at
    least ``dmin`` parts whose dual-signature count equals the block count
    (the translation-scheme criterion); the nonsymmetry filter keeps only
    those with some part I != I + half.
    """
    prefix = np.asarray(prefix, dtype=np.int8)
    # at most dmax^(N-P) rows, each with its labels twice (columns and
    # stacked), float64 weights and codes, and int64 odometer indices
    rows = dmax ** (N - len(prefix))
    check_budget(rows * (18 * N + 32), f"the scan's {rows} completions need")
    trace = np.array(sden, dtype=np.float64)
    if trace[list(t0_positions)].any():
        raise PreconditionViolated("sden must be 0 on t0_positions")
    trace[list(t0_positions)] = 1024
    labels, top = _completions(prefix, N, dmax)
    blocks = top + 1
    counts[:dmax + 1] += np.bincount(blocks, minlength=dmax + 1)
    j = np.arange(N)
    # W[labels] with W[l] = 4096^l = 2^(12 l)
    codes = np.ldexp(1.0, 12 * labels) @ trace[(j[:, None] + j) % N]
    codes.sort(axis=1)
    ndist = 1 + (codes[:, 1:] != codes[:, :-1]).sum(axis=1)
    found = labels[(ndist == blocks) & (blocks >= dmin)]
    if require_nonsym:
        found = found[(found != found[:, (j + half) % N]).any(axis=1)]
    return found
