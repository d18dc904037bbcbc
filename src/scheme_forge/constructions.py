"""Builders for the named scheme families, with their advertised properties.

Every builder returns a :class:`BuiltScheme` whose report comes from the
exact verifier; builders raise instead of returning unverified claims.
Index sets are only canonical relative to this package's deterministic
generator, so externally published sets (the F_{37^3} reproduction) are
matched over the affine orbit i -> u i + v of Z_N, the exact freedom a
different primitive root and character labelling introduce.
"""

from __future__ import annotations

import cmath
import importlib.resources
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .cyclotomy import CyclotomicSystem, build_cyclotomy, embed
from .errors import (FieldTooLarge, NoOrbitMemberVerifies,
                     OrientationAmbiguous, PreconditionViolated,
                     TemplatePreconditionViolated, check_budget)
from .finite_field import DEFAULT_CAP, FieldSpec, build_field, is_prime
from .gauss_sums import (Index2Params, _coset_mod, check_index2_cap,
                         class_number, make_index2_params)
from .scheme_core import (IndexPartition, SchemeReport, is_scheme,
                          verify_scheme)


@dataclass
class BuiltScheme:
    kind: str
    field: FieldSpec | None
    system: CyclotomicSystem | None
    partition: IndexPartition
    report: SchemeReport | None
    params: Index2Params | None = None


def _index2_system(p: int, p1: int, s: int, N: int, cap: int):
    """(params, field, system): the index-2 instance (p, p1), its field
    F_{p^{f s}} and the order-N cyclotomy over it."""
    check_index2_cap(p, p1, s, cap)
    params = make_index2_params(p, p1)
    field = build_field(p, params.f * s, cap=cap)
    return params, field, build_cyclotomy(field, N)


# --- the symmetric three-class base scheme ----------------------------------

def three_class_base(p: int, p1: int, s: int = 1,
                     cap: int = DEFAULT_CAP) -> BuiltScheme:
    """{<p> mod p1, -<p> mod p1, {0}} over the index-p1 classes of F_{q^s}."""
    if s < 1:
        raise PreconditionViolated(f"s = {s} must be >= 1")
    params, field, sys = _index2_system(p, p1, s, p1, cap)
    pos, neg = _coset_mod(p, p1)
    partition = IndexPartition.from_sets(p1, [sorted(pos), sorted(neg), [0]])
    report = verify_scheme(sys, partition)
    if not report.is_scheme:
        raise NoOrbitMemberVerifies("three-class base partition failed to verify")
    if not report.is_self_dual or any(not b for b in report.is_symmetric_rel):
        raise NoOrbitMemberVerifies("three-class base lacks advertised symmetry")
    return BuiltScheme("three_class_base", field, sys, partition, report, params)


# --- four-class fission (p1 = 7 mod 8) ---------------------------------------

def four_class_7mod8(p: int, p1: int, s: int = 1,
                     cap: int = DEFAULT_CAP) -> BuiltScheme:
    """Split the base class C_0^{(p1)} into C_0 and C_{p1} of order 2 p1."""
    if s < 1:
        raise PreconditionViolated(f"s = {s} must be >= 1")
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
    return BuiltScheme("four_class_7mod8", field, sys, partition, report, params)


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
    if m < 1:
        raise PreconditionViolated(f"m = {m} must be >= 1")
    bad_p1 = PreconditionViolated(f"p1 = {p1} must be a prime > 3, 3 mod 8")
    if p1 % 8 != 3 or p1 <= 3:
        raise bad_p1
    # the cap before any number theory: the field for m = 1, else the
    # 2 p1^m indices, never formed once 2^m alone exceeds the cap
    if m == 1:
        check_index2_cap(p, p1, 1, cap)
    elif m >= cap.bit_length() or 2 * p1 ** m > cap:
        raise FieldTooLarge(f"N = 2*{p1}^{m} exceeds cap {cap}")
    if not is_prime(p1):
        raise bad_p1
    h = class_number(p1)
    if 1 + p1 != 4 * p ** h:
        raise PreconditionViolated(f"1 + p1 = {1 + p1} != 4 p^h = {4 * p ** h}")
    if m >= 2:
        # out of field range by design: emit well-formed index sets only,
        # at ~160 bytes an index at peak (565 MB at N = 2*11^6)
        check_budget(160 * 2 * p1 ** m,
                     f"the five-class index sets of N = 2*{p1}^{m} need")
        return BuiltScheme("five_class_3mod8", None, None,
                           five_class_index_sets(p, p1, m), None)

    params, field, sys = _index2_system(p, p1, 1, 2 * p1, cap)
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
    return BuiltScheme("five_class_3mod8", field, sys, partition, report, params)


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
    return BuiltScheme("conference_7mod8", field, sys, partition, report, params)


# --- eigenmatrix template of four-class skew-symmetric conference fissions ------

def ma_wang_template(q: int, g: int) -> np.ndarray:
    """The circulant 5x5 first-eigenmatrix template in rho and tau.

    Needs q = 5 (mod 8) and q = g^2 + 4 h^2 with g = 1 (mod 4); rho and tau
    are quarter-sums built from sqrt(q) and sqrt(-2q +- 2 g sqrt(q)).
    """
    if q % 8 != 5:
        raise TemplatePreconditionViolated(f"q = {q} must be 5 mod 8")
    if g % 4 != 1:
        raise TemplatePreconditionViolated(f"g = {g} must be 1 mod 4")
    rem = q - g * g
    if rem < 0 or rem % 4 != 0 or math.isqrt(rem // 4) ** 2 != rem // 4:
        raise TemplatePreconditionViolated(f"q - g^2 = {rem} is not 4 h^2")
    sq = math.sqrt(q)
    # the coherent principal-branch pairing: rho (the +sqrt(q) value) carries
    # the -2g sqrt(q) radical; this is the assignment whose Galois orbit
    # reproduces the intersection matrices of both reference schemes
    rho = (-1 + sq + cmath.sqrt(complex(-2 * q - 2 * g * sq))) / 4
    tau = (-1 - sq + cmath.sqrt(complex(-2 * q + 2 * g * sq))) / 4
    f = (q - 1) // 4
    rb, tb = rho.conjugate(), tau.conjugate()
    return np.array([
        [1, f, f, f, f],
        [1, rho, tau, rb, tb],
        [1, tau, rb, tb, rho],
        [1, rb, tb, rho, tau],
        [1, tb, rho, tau, rb],
    ], dtype=complex)


def match_template(P: np.ndarray, T: np.ndarray):
    """Smallest max-abs deviation of P from T over row/column permutations
    fixing index 0; returns (err, row_perm, col_perm) or None if above 1e-6."""
    d = P.shape[0] - 1
    best = None
    for rp in itertools.permutations(range(1, d + 1)):
        rows = (0,) + rp
        Pr = P[rows, :]
        for cp in itertools.permutations(range(1, d + 1)):
            cols = (0,) + cp
            err = np.abs(Pr[:, cols] - T).max()
            if best is None or err < best[0]:
                best = (err, rows, cols)
    if best is not None and best[0] <= 1e-6:
        return best
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
    rho_embed_err: float
    template_err: float | None
    golden: dict


def _affine_maps(N: int):
    """The maps i -> u i + v of Z_N as (u, v), units u in increasing order."""
    for u in range(1, N):
        if math.gcd(u, N) == 1:
            for v in range(N):
                yield u, v


def _affine_orbit_search(sys: CyclotomicSystem, base: IndexPartition):
    for u, v in _affine_maps(base.N):
        cand = base.affine_image(u, v)
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
    built = BuiltScheme("song_example", field, sys, aligned, report)

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

    q, g = golden["q"], golden["g"]
    rho_formula = ma_wang_template(q, g)[1, 1]
    rho_embed_err = abs(embed(rho, golden["p"]) - rho_formula)

    tm = match_template(np.asarray(report.P_complex), ma_wang_template(q, g))
    return SongReproduction(
        built=built, affine_map=(u, v), class_relabeling=relabel,
        matrices_match=relabel is not None, dual_affine_map=dual_map,
        rho_exact=rho_exact, rho_embed_err=rho_embed_err,
        template_err=tm[0] if tm else None, golden=golden)
