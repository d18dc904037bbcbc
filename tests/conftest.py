import cmath
import os
import tracemalloc

# OpenBLAS sizes its thread pool once, as numpy loads: one thread, as the CLI
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from scheme_forge._kernels import _completions  # noqa: E402
from scheme_forge.finite_field import build_field  # noqa: E402
from scheme_forge.cyclotomy import build_cyclotomy, embed  # noqa: E402


@pytest.fixture(scope="session")
def f9():
    return build_field(3, 2)


@pytest.fixture(scope="session")
def f13():
    return build_field(13, 1)


@pytest.fixture(scope="session")
def f37():
    return build_field(37, 1)


@pytest.fixture(scope="session")
def f243():
    return build_field(3, 5)


@pytest.fixture(scope="session")
def f1331():
    return build_field(11, 3)


@pytest.fixture(scope="session")
def f37_cubed():
    return build_field(37, 3)


@pytest.fixture(scope="session")
def sys28(f37_cubed):
    return build_cyclotomy(f37_cubed, 28)


def brute_force_char_sum(field, class_indices, N, shift=0):
    """Independent oracle: sum exp(2 pi i tr(gamma^a x)/p) elementwise."""
    total = 0j
    want = set(class_indices)
    for a in range(field.q - 1):
        if a % N in want:
            x = int(field.antilog_table[(a + shift) % (field.q - 1)])
            total += cmath.exp(2j * cmath.pi * field.trace_table[x] / field.p)
    return total


def partition_to_relations(field, sys, partition):
    """Element-level relations (including {0}) for the oracle verifier."""
    exps = np.arange(field.q - 1, dtype=np.int64)
    classes = exps % sys.N
    rels = [np.array([0], dtype=np.int64)]
    for part in partition.parts:
        mask = np.isin(classes, np.asarray(part))
        rels.append(field.antilog_table[exps[mask]].astype(np.int64))
    return rels


def search_prefixes(dmax, depth):
    """All label prefixes of the given depth (restricted growth, <= dmax
    labels), in odometer order: the scan's chunks, one search_chunk each."""
    return list(_completions(np.zeros(1, dtype=np.int8), depth, dmax)[0])


def traced_peak(fn):
    """(fn(), the peak of traced heap above its level at the call, in bytes)."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def scalar_embed(coeffs, p):
    """Oracle: a coefficient row evaluated at xi_p one term at a time."""
    roots = [cmath.exp(2j * cmath.pi * k / p) for k in range(p)]
    return sum(c * roots[i] for i, c in enumerate(coeffs) if c)


def assert_embeds_like_scalar_sum(rows, p):
    """embed(rows, p) holds the bytes of scalar_embed entry by entry."""
    rows = np.asarray(rows, dtype=np.int64)
    want = np.array([scalar_embed(row, p)
                     for row in rows.reshape(-1, p - 1).tolist()],
                    dtype=complex).reshape(rows.shape[:-1])
    assert embed(rows, p).tobytes() == want.tobytes()
