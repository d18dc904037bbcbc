"""Builders for the named scheme families, with their advertised properties.

Every builder returns a :class:`BuiltScheme` whose report comes from the
exact verifier; builders raise instead of returning unverified claims, but
for the five-class family at m >= 2, out of field range by design: it emits
index sets alone, once make_index2_params confirms index 2 mod 2 p1^m.
Index sets are only canonical relative to this package's deterministic
generator, so externally published sets (the F_{37^3} reproduction) are
matched over the affine orbit i -> u i + v of Z_N, the exact freedom a
different primitive root and character labelling introduce; its first
eigenmatrix is matched against the Ma-Wang template exactly, in Z[xi_p].
"""

from __future__ import annotations

import importlib.resources
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .cyclotomy import CyclotomicSystem, _cast, _mul, build_cyclotomy
from .errors import (NoOrbitMemberVerifies, OrientationAmbiguous,
                     PreconditionViolated, TemplatePreconditionViolated,
                     check_budget)
from .finite_field import DEFAULT_CAP, FieldSpec, build_field
from .gauss_sums import Index2Params, _coset_mod, make_index2_params
from .scheme_core import (IndexPartition, SchemeReport, is_scheme,
                          verify_scheme)


@dataclass
class BuiltScheme:
    field: FieldSpec | None
    system: CyclotomicSystem | None
    partition: IndexPartition
    report: SchemeReport | None
    params: Index2Params | None = None


def _index2_system(p: int, p1: int, s: int, N: int, cap: int):
    """(params, field, system): the index-2 instance (p, p1), its field
    F_{p^{f s}} and the order-N cyclotomy over it."""
    params = make_index2_params(p, p1, s=s, cap=cap)
    field = build_field(p, params.f * s, cap=cap)
    return params, field, build_cyclotomy(field, N)


# --- the symmetric three-class base scheme ----------------------------------

def three_class_base(p: int, p1: int, s: int = 1,
                     cap: int = DEFAULT_CAP) -> BuiltScheme:
    """{<p> mod p1, -<p> mod p1, {0}} over the index-p1 classes of F_{q^s}."""
    params, field, sys = _index2_system(p, p1, s, p1, cap)
    pos, neg = _coset_mod(p, p1)
    partition = IndexPartition.from_sets(p1, [sorted(pos), sorted(neg), [0]])
    report = verify_scheme(sys, partition)
    if not report.is_scheme:
        raise NoOrbitMemberVerifies("three-class base partition failed to verify")
    if not report.is_self_dual or any(not b for b in report.is_symmetric_rel):
        raise NoOrbitMemberVerifies("three-class base lacks advertised symmetry")
    return BuiltScheme(field, sys, partition, report, params)


# --- four-class fission (p1 = 7 mod 8) ---------------------------------------

def four_class_7mod8(p: int, p1: int, s: int = 1,
                     cap: int = DEFAULT_CAP) -> BuiltScheme:
    """Split the base class C_0^{(p1)} into C_0 and C_{p1} of order 2 p1."""
    if p1 % 8 != 7:
        raise PreconditionViolated(f"p1 = {p1} must be 7 mod 8")
    N = 2 * p1
    params, field, sys = _index2_system(p, p1, s, N, cap)
    pos, _ = _coset_mod(p, p1)
    s1 = sorted(i for i in range(N) if i % p1 in pos)
    s2 = sorted(i for i in range(N) if i % p1 != 0 and i % p1 not in pos)
    partition = IndexPartition.from_sets(N, [s1, s2, [0], [p1]])
    report = verify_scheme(sys, partition)
    if not report.is_scheme or report.d != 4:
        raise NoOrbitMemberVerifies("four-class fission failed to verify")
    if not report.is_self_dual:
        raise NoOrbitMemberVerifies("four-class fission is not self-dual")
    if s % 2 == 1 and p % 4 == 3 and report.nonsymmetric_pair_count != 1:
        raise NoOrbitMemberVerifies(
            "expected exactly one nonsymmetric pair for odd s, p = 3 mod 4")
    if s == 1 and p1 > 2 * params.h + 1 and params.c != 0 and not report.is_primitive:
        raise NoOrbitMemberVerifies("primitivity condition holds but scheme is imprimitive")
    return BuiltScheme(field, sys, partition, report, params)


# --- five-class fission (p1 = 3 mod 8) -----------------------------------------

def five_class_index_sets(p: int, p1: int, m: int = 1,
                          split_negative: bool = True) -> IndexPartition:
    """Index sets of the five-class family over Z_{2 p1^m}.

    S_1 collects both lifts of the recursive <p>-side classes; the other
    coset is split into its two lifts (S_2, S_3); S_4, S_5 split the
    recursive C_0 side.  ``split_negative=False`` builds the mirrored
    orientation (the other prime-ideal choice).
    """
    if m < 1:
        raise PreconditionViolated(f"m = {m} must be >= 1")
    N = 2 * p1 ** m
    pm1 = p1 ** (m - 1)
    pos2, neg2 = _coset_mod(p, 2 * p1)   # odd residues mod 2 p1
    pos1, neg1 = _coset_mod(p, p1)
    split, keep = (neg2, pos1) if split_negative else (pos2, neg1)

    s1, s2, s3, s4, s5 = set(), set(), set(), set(), set()
    for i in range(pm1):
        for j in keep:
            base = (2 * i + pm1 * j) % (p1 ** m)
            s1.add(base)
            s1.add(base + p1 ** m)
        for j in split:
            v = (2 * i + pm1 * j) % N
            s2.add(v)
            s3.add((v + p1 ** m) % N)
        s4.add((2 * i) % N)
        s5.add((2 * i + p1 ** m) % N)
    return IndexPartition.from_sets(N, [sorted(s1), sorted(s2), sorted(s3),
                                        sorted(s4), sorted(s5)])


def five_class_3mod8(p: int, p1: int, m: int = 1,
                     cap: int = DEFAULT_CAP) -> BuiltScheme:
    """Five-class fission; field-verified for m = 1, emission-only for m >= 2.

    The displayed split of the negative coset corresponds to one choice of
    prime ideal; relative to our generator either that split or its mirror
    is the scheme, so both are tried and exactly one must verify.
    """
    if p1 % 8 != 3:
        raise PreconditionViolated(f"p1 = {p1} must be a prime > 3, 3 mod 8")
    params = make_index2_params(p, p1, m, cap=cap)
    if 1 + p1 != 4 * p ** params.h:
        raise PreconditionViolated(
            f"1 + p1 = {1 + p1} != 4 p^h = {4 * p ** params.h}")
    if m >= 2:
        # out of field range by design: emit well-formed index sets only,
        # at ~160 bytes an index at peak (565 MB for the sets of N = 2*11^6)
        check_budget(160 * 2 * p1 ** m,
                     f"the five-class index sets of N = 2*{p1}^{m} need")
        return BuiltScheme(None, None,
                           five_class_index_sets(p, p1, m), None, params)

    field = build_field(p, params.f, cap=cap)
    sys = build_cyclotomy(field, 2 * p1)
    candidates = [five_class_index_sets(p, p1, 1, split_negative=orient)
                  for orient in (True, False)]
    reports = [verify_scheme(sys, c) for c in candidates]
    good = [i for i, r in enumerate(reports) if r.is_scheme]
    if len(good) != 1:
        raise OrientationAmbiguous(
            f"{len(good)} of 2 orientations verify for (p, p1) = ({p}, {p1})")
    partition, report = candidates[good[0]], reports[good[0]]
    if report.d != 5 or not report.is_self_dual:
        raise NoOrbitMemberVerifies("five-class fission lacks advertised structure")
    return BuiltScheme(field, sys, partition, report, params)


# --- two-class conference scheme (p1 = 7 mod 8, p = 1 mod 4) -------------------

def conference_7mod8(p: int, p1: int, i0=None,
                     cap: int = DEFAULT_CAP) -> BuiltScheme:
    """{D_0, D_1} with D_0 a union of order-2p1 classes covering Z_{p1}."""
    if p1 % 8 != 7:
        raise PreconditionViolated(f"p1 = {p1} must be 7 mod 8")
    if p % 4 != 1:
        raise PreconditionViolated(f"p = {p} must be 1 mod 4")
    N = 2 * p1
    i0 = list(range(p1)) if i0 is None else sorted(int(i) for i in i0)
    if {i % p1 for i in i0} != set(range(p1)):
        raise PreconditionViolated("index set I0 must cover Z_{p1} mod p1")
    if len(i0) >= N:
        raise PreconditionViolated("I0 must be a proper subset of Z_{2p1}")
    params, field, sys = _index2_system(p, p1, 1, N, cap)
    rest = sorted(set(range(N)) - set(i0))
    partition = IndexPartition.from_sets(N, [i0, rest])
    report = verify_scheme(sys, partition)
    if not report.is_scheme or report.d != 2:
        raise NoOrbitMemberVerifies("conference partition failed to verify")
    return BuiltScheme(field, sys, partition, report, params)


# --- the Ma-Wang template of four-class skew-symmetric conference fissions ------

def match_template(P_exact: np.ndarray, q: int, g: int):
    """The first pair (rows, cols) of permutations of 0..4 fixing 0, in
    itertools.permutations order, with P_exact[rows][:, cols] the Ma-Wang
    template, or None; decided exactly in Z[xi_p], for q = p^e.

    Needs q = 5 (mod 8) and q = g^2 + 4 h^2 with g = 1 (mod 4).  The template
    has row 0 (1, f, f, f, f), f = (q - 1)/4, column 0 all ones and the block
    [i][j] = v_{(i + j) mod 4}, v = (rho, tau, conj rho, conj tau), where
    4 rho + 1 = sqrt q + r_+ and 4 tau + 1 = -sqrt q + r_- for the principal
    radicals r_s = sqrt(-2q - 2 s g sqrt q), so r_+ r_- = -4|h| sqrt q.  Each
    r_s^2 has the roots +-r_s (v_0 != v_2, v_1 != v_3), and the product pairs
    rho with tau: the block is the template or its complex conjugate.  With
    e odd, sqrt q = p^{(e-1)/2} sqrt p, sqrt p the row (t|p) - (p-1|p).
    """
    p, rem = P_exact.shape[-1] + 1, q - g * g
    e, h = round(math.log(q, p)), math.isqrt(max(rem, 0) // 4)
    if q % 8 != 5 or g % 4 != 1 or 4 * h * h != rem or p ** e != q:
        raise TemplatePreconditionViolated(
            f"(q, g) = ({q}, {g}): the template needs q = {p}^e = 5 mod 8 "
            "and q = g^2 + 4 h^2 with g = 1 mod 4")
    one = np.eye(p - 1, dtype=np.int64)[0]
    if (P_exact.shape[:2] != (5, 5) or (P_exact[:, 0] != one).any()
            or (P_exact[0, 1:] != (q - 1) // 4 * one).any()):
        return None
    legendre = [(pow(t, (p - 1) // 2, p) + 1) % p - 1 for t in range(p)]  # Euler
    sqrt_q = p ** (e // 2) * (np.array(legendre[:-1]) - legendre[-1])

    def equal(c, row):  # c of Z[x]/(x^p - 1), xi_p^{p-1} folded back, is row
        c = _cast(c, object)
        return np.array_equal(c[:-1] - c[-1], row)
    # r[s][x] = 4 v + 1 - s sqrt q of the block's distinct entry v = uniq[x],
    # and sign[x] = s if it squares to -2q - 2 s g sqrt q
    uniq, ids = np.unique(P_exact[1:, 1:].reshape(16, p - 1), axis=0,
                          return_inverse=True)
    r = {s: 4 * uniq + one - s * sqrt_q for s in (1, -1)}
    sign = [next((s for s in (1, -1) if equal(_mul(r[s][x], r[s][x], p),
                                              -2 * q * one - 2 * s * g * sqrt_q)), 0)
            for x in range(len(uniq))]
    ids = ids.reshape(4, 4).tolist()
    for rows in itertools.permutations(range(4)):
        for cols in itertools.permutations(range(4)):
            v = [ids[rows[0]][c] for c in cols]
            if ([sign[x] for x in v] == [1, -1, 1, -1]
                    and v[0] != v[2] and v[1] != v[3]
                    and all(ids[i][c] == v[(a + b) % 4]
                            for a, i in enumerate(rows) for b, c in enumerate(cols))
                    and equal(_mul(r[1][v[0]], r[-1][v[1]], p), -4 * h * sqrt_q)):
                return (0, *(i + 1 for i in rows)), (0, *(c + 1 for c in cols))
    return None


# --- the F_{37^3} conference-fission reproduction -------------------------------

def load_golden() -> dict:
    ref = importlib.resources.files("scheme_forge.data") / "f37_3_n28_golden.json"
    return json.loads(ref.read_text())


@dataclass
class SongReproduction:
    built: BuiltScheme
    affine_map: tuple[int, int]
    class_relabeling: tuple[int, ...] | None
    matrices_match: bool
    dual_affine_map: tuple[int, int] | None
    rho_exact: bool
    template_match: tuple[tuple[int, ...], tuple[int, ...]] | None
    golden: dict


def _affine_maps(N: int):
    """The maps i -> u i + v of Z_N as (u, v), units u in increasing order."""
    for u in range(1, N):
        if math.gcd(u, N) == 1:
            for v in range(N):
                yield u, v


def _affine_orbit_search(sys: CyclotomicSystem, base: IndexPartition):
    N = base.N
    for u, v in _affine_maps(N):
        cand = IndexPartition.from_sets(N, [[(u * i + v) % N for i in p] for p in base.parts])
        if is_scheme(sys, cand):
            return (u, v), cand
    raise NoOrbitMemberVerifies(
        "no affine image of the published index sets verifies")


def song_example(cap: int = DEFAULT_CAP) -> SongReproduction:
    """Reproduce the published four-class fission over F_{37^3}.

    Searches the affine orbit of the published index sets for a verifying
    member, then checks the published intersection matrices (up to one
    simultaneous class relabeling), the dual index sets (up to an affine
    map), the eigenmatrix template with g = 37, and the exact identity
    rho = 9 + 37 eta_0 against the index-4 periods over F_37.
    """
    golden = load_golden()
    N, shift = golden["N"], golden["part_shift"]
    base = IndexPartition.from_sets(
        N, [[(i + k * shift) % N for i in golden["I1"]] for k in range(4)])

    field = build_field(golden["p"], golden["f"], cap=cap)
    sys = build_cyclotomy(field, N)
    (u, v), aligned = _affine_orbit_search(sys, base)
    report = verify_scheme(sys, aligned)
    if report.d != 4 or report.nonsymmetric_pair_count != 2:
        raise NoOrbitMemberVerifies(
            "verifying orbit member lacks the advertised class structure")
    built = BuiltScheme(field, sys, aligned, report)

    # published intersection matrices, up to one simultaneous relabeling
    B = np.array(report.intersection_matrices)
    B_golden = np.array(golden["B"], dtype=np.int64)
    sigmas = ((0,) + perm for perm in itertools.permutations(range(1, 5)))
    relabel = next((sg for sg in sigmas
                    if np.array_equal(B[np.ix_(sg, sg, sg)][1:], B_golden)), None)

    # dual index sets up to an affine map
    dual_sets = {frozenset(pt) for pt in report.dual_parts}
    J = [[(i + k * shift) % N for i in golden["J1"]] for k in range(4)]
    dual_map = next(
        ((u2, v2) for u2, v2 in _affine_maps(N)
         if {frozenset((u2 * i + v2) % N for i in part) for part in J} == dual_sets),
        None)

    # rho = 9 + 37 eta_0 with eta_0 the index-4 period over F_37, exactly
    f37 = build_field(golden["p"], 1)
    rho = golden["rho_period_multiplier"] * build_cyclotomy(f37, 4).period_matrix[0]
    rho[0] += golden["rho_integer_part"]
    rho_exact = bool((report.P_exact == rho).all(axis=-1).any())

    return SongReproduction(
        built=built, affine_map=(u, v), class_relabeling=relabel,
        matrices_match=relabel is not None, dual_affine_map=dual_map,
        rho_exact=rho_exact, golden=golden,
        template_match=match_template(report.P_exact, golden["q"], golden["g"]))
