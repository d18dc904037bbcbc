"""Gauss sums: direct evaluation plus the closed forms this package needs.

Direct sums are double precision (exactness is reserved for Gauss periods,
which is where scheme verdicts live): one in-place FFT of psi(gamma^a), the
p-th roots of unity gathered from each sub-block of the norm stream into
every norm period, or, for a single sum, a tally of the stream folded
over them in closed form.  Closed forms: the quadratic case, the index-2
case over Z_{2 p1} with its class-number data (h, b, c), and the
Davenport-Hasse lift.  The sign of c (equivalently of
sqrt(-p1)) is not pinned by the defining equations; evaluation takes an
explicit c_sign and the comparison harness accepts whichever sign matches
direct computation coherently across all exponents of one field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadDiscriminant, EvenCharacteristic, FieldTooLarge,
                     NoSolution, PreconditionViolated)
from .finite_field import (_BLOCK, DEFAULT_CAP, FieldSpec, _poly_mul_mod,
                           _poly_pow_mod, build_field, check_cap, is_prime,
                           multiplicative_order)

_PIECE = _BLOCK // 4  # terms per piece of gauss_sum_direct's tally


@dataclass(frozen=True)
class MultChar:
    """chi(gamma^j) = exp(2 pi i k j / (q-1))."""

    field: FieldSpec
    k: int

    @property
    def is_trivial(self) -> bool:
        return self.k % (self.field.q - 1) == 0


def _psi_values(field: FieldSpec) -> np.ndarray:
    """psi(gamma^a) = exp(2 pi i tr(gamma^a) / p) for a = 0..q-2, a new array.

    exp runs on the p possible traces only: the same bits as elementwise.
    The roots are gathered through the norm stream, so the q-length trace
    sequence is never built.
    """
    roots = np.exp(2j * np.pi * np.arange(field.p, dtype=np.float64) / field.p)
    return field.gather_trace(roots)


def gauss_sum_direct(chi: MultChar) -> complex:
    """G(chi) = sum_a psi(gamma^a) chi(gamma^a) over a < q - 1, summed over
    the norm stream with no q-length vector.

    Write a = jL + e (e < L), z = chi(gamma), nu = N(gamma) and w = z^L =
    exp(2 pi i k / (p - 1)): then G = sum_t A_t sum_j w^j root[nu^j t],
    A_t summing z^e over the e < L with s_e = t, tallied a piece of a
    sub-block at a time with its angles reduced mod q - 1 in integers.  The
    sum over j is w^-a W for t = nu^a, W = sum_m w^m root[nu^m], and p - 1
    or 0 for t = 0 as w is 1 or not: G = W sum_a w^-a A[nu^a], plus
    (p - 1) A_0 when w = 1.
    """
    field = chi.field
    p, q1 = field.p, field.q - 1
    k = chi.k % q1
    re, im = np.zeros(p), np.zeros(p)
    for start, s in field.norm_stream():
        for i in range(0, len(s), _PIECE):
            t = s[i:i + _PIECE].astype(np.intp)
            e = np.arange(start + i, start + i + len(t), dtype=np.int64)
            e *= k
            e %= q1
            angle = e * (2 * np.pi / q1)
            re += np.bincount(t, np.cos(angle), minlength=p)
            im += np.bincount(t, np.sin(angle, out=angle), minlength=p)
    A = re + 1j * im
    nu = field.norm_powers
    w = np.exp(2j * np.pi / (p - 1) * (k * np.arange(p - 1) % (p - 1)))
    total = (w @ np.exp(2j * np.pi / p * nu)) * (w.conj() @ A[nu])
    if k % (p - 1) == 0:
        total += (p - 1) * A[0]
    return complex(total)


def gauss_sums_all(field: FieldSpec) -> np.ndarray:
    """G(chi_k) for every k in [0, q-1), via one FFT of the psi table."""
    psi = _psi_values(field)
    F = np.fft.fft(psi, out=psi)
    # G(chi_k) = sum_a psi(g^a) e^{+2 pi i k a/(q-1)} = F[-k]
    return np.concatenate((F[:1], F[:0:-1]))


def gauss_sum_quadratic(p: int, f: int) -> complex:
    """Closed form (-1)^(f-1) (sqrt p*)^f, p* = (-1)^((p-1)/2) p."""
    if p == 2:
        raise EvenCharacteristic("quadratic Gauss sums need odd characteristic")
    if not is_prime(p) or f < 1:
        raise PreconditionViolated(f"bad (p, f) = ({p}, {f})")
    root = math.sqrt(p) if p % 4 == 1 else 1j * math.sqrt(p)
    return (-1) ** (f - 1) * root ** f


# --- class numbers of Q(sqrt(-p1)) via reduced forms ---------------------------

def class_number(p1: int) -> int:
    """Count reduced primitive forms ax^2+bxy+cy^2 of discriminant -p1.

    Requires p1 prime, p1 = 3 (mod 4), p1 > 3, so the field discriminant is
    -p1 itself and primitivity is automatic.
    """
    if not is_prime(p1) or p1 % 4 != 3 or p1 <= 3:
        raise BadDiscriminant(f"need a prime p1 > 3 with p1 = 3 (mod 4), got {p1}")
    h = 0
    b = 1
    while 3 * b * b <= p1:
        m4 = b * b + p1  # = 4ac
        if m4 % 4 == 0:
            m = m4 // 4
            a = b if b > 0 else 1
            while a * a <= m:
                if a >= b and m % a == 0:
                    c = m // a
                    h += 1 if (a == b or a == c) else 2  # (a, -b, c) equivalent iff edge case
                a += 1
        b += 2
    return h


def solve_bc(p: int, p1: int, h: int, f: int) -> tuple[int, int]:
    """The unique (b, c >= 0) with 4 p^h = b^2 + p1 c^2 and
    b p^{(f-h)/2} = -2 (mod p1)."""
    if (f - h) % 2 != 0:
        raise NoSolution(f"(f - h)/2 not integral for f={f}, h={h}")
    target = p ** h * 4
    mul = pow(p, (f - h) // 2, p1)
    hits = []
    b = -math.isqrt(target)
    while b * b <= target:
        rem = target - b * b
        if rem % p1 == 0:
            c2 = rem // p1
            c = math.isqrt(c2)
            if c * c == c2 and (b * mul) % p1 == (-2) % p1:
                hits.append((b, c))
        b += 1
    if len(hits) != 1:
        raise NoSolution(
            f"expected exactly one (b, c) for (p, p1, h, f) = ({p}, {p1}, {h}, {f}), "
            f"found {hits}")
    return hits[0]


# --- index-2 closed forms --------------------------------------------------------

@dataclass(frozen=True)
class Index2Params:
    p: int
    p1: int
    m: int
    h: int
    b: int
    c: int
    f: int  # phi(2 p1^m) / 2

    @property
    def q(self) -> int:
        return self.p ** self.f


def check_index2_cap(p: int, p1: int, s: int, cap: int) -> None:
    """FieldTooLarge when the index-2 field F_{p^(f s)}, f = (p1 - 1)/2,
    exceeds the cap; decided before p or p1 is trial-divided, since a huge
    p1 means a huge f.  Other malformed (p, p1) are left to
    make_index2_params."""
    if p >= 2 and p1 > 3 and p1 % 4 == 3:
        check_cap(p, (p1 - 1) // 2 * s, cap)


def make_index2_params(p: int, p1: int, m: int = 1) -> Index2Params:
    # p = 2 is no unit mod 2 p1: 2 p1 never divides 2^f - 1
    if not (is_prime(p) and is_prime(p1)) or p1 % 4 != 3 or p1 <= 3 or p in (2, p1):
        raise PreconditionViolated(f"bad index-2 instance (p, p1) = ({p}, {p1})")
    n = 2 * p1 ** m
    phi = p1 ** (m - 1) * (p1 - 1)
    if multiplicative_order(p, n) != phi // 2:
        raise PreconditionViolated(
            f"[Z_{n}^*:<{p}>] != 2 (order of {p} is not phi/2)")
    f = phi // 2
    h = class_number(p1)
    b, c = solve_bc(p, p1, h, f)
    return Index2Params(p=p, p1=p1, m=m, h=h, b=b, c=c, f=f)


def _coset_mod(p: int, n: int) -> tuple[set[int], set[int]]:
    """(<p>, -<p>) as subsets of Z_n^*."""
    fwd, acc = set(), 1 % n
    while acc not in fwd:
        fwd.add(acc)
        acc = (acc * p) % n
    return fwd, {(-x) % n for x in fwd}


def _coset_sign(u: int, p: int, modulus: int) -> int:
    """+1 if u lies in <p> mod modulus (first, when -1 is in <p>), -1 if in
    -<p>, else raises."""
    pos, neg = _coset_mod(p, modulus)
    if u % modulus in pos:
        return 1
    if u % modulus in neg:
        return -1
    raise PreconditionViolated(f"{u % modulus} is in neither +-<{p}> mod {modulus}")


def gauss_sum_index2(params: Index2Params, chi_exponent: int, s: int = 1,
                     c_sign: int = 1) -> complex:
    """Closed-form G_{q^s}(chi'^e) for chi of order 2 p1^m, lifted by degree s.

    ``c_sign`` picks the embedding of sqrt(-p1) (the two coherent sign
    choices); callers compare both against direct sums.
    """
    p, p1, m, h, f = params.p, params.p1, params.m, params.h, params.f
    e = chi_exponent % (2 * p1 ** m)
    if e == 0:
        return complex(-1.0)

    sqrt_pstar = math.sqrt(p) if p % 4 == 1 else 1j * math.sqrt(p)
    w = (params.b + 1j * c_sign * params.c * math.sqrt(p1)) / 2.0
    eps = (p - 1) // 2

    if e % 2 == 1:
        t = 0
        while t < m and e % (p1 ** (t + 1)) == 0:
            t += 1
        if t == m:
            val = (-1) ** (eps * ((f - 1) // 2)) * p ** ((f - 1) // 2) * sqrt_pstar
        else:
            u = e // (p1 ** t)
            sign = _coset_sign(u, p, 2 * p1 ** (m - t))
            if p1 % 8 == 3:
                val = ((-1) ** (eps * (m - 1))
                       * p ** ((f - 1) // 2 - h * p1 ** t)
                       * sqrt_pstar * w ** (2 * p1 ** t))
            else:  # p1 = 7 (mod 8)
                val = (-1) ** (eps * m) * p ** ((f - 1) // 2) * sqrt_pstar
            if sign < 0:
                parity = (e * ((params.q - 1) // (2 * p1 ** m))) % 2
                val = (-1) ** parity * np.conj(val)
    else:
        e2 = e // 2
        t = 0
        while e2 % (p1 ** (t + 1)) == 0:
            t += 1
        u = e2 // (p1 ** t)
        sign = _coset_sign(u, p, p1 ** (m - t))
        val = p ** ((f - h * p1 ** t) // 2) * w ** (p1 ** t)
        if sign < 0:
            val = np.conj(val)  # chi^even is trivial on -1

    return complex((-1) ** (s - 1) * val ** s)


def index2_comparison(p: int, p1: int, s: int = 1,
                      cap: int = DEFAULT_CAP) -> dict:
    """Formula-vs-direct report over all exponents of the order-2p1 family.

    Tries both c-signs coherently and keeps the better one.  Entries carry
    the direct value, the formula value under the chosen sign, and the
    absolute error.
    """
    if s < 1:
        raise PreconditionViolated(f"s = {s} must be >= 1")
    check_index2_cap(p, p1, s, cap)
    params = make_index2_params(p, p1)
    n = 2 * p1
    field = build_field(p, params.f * s, cap=cap)
    G, step = gauss_sums_all(field), (field.q - 1) // n
    direct = {e: complex(G[e * step]) for e in range(n)}

    best = None
    for c_sign in (1, -1):
        formula = {e: gauss_sum_index2(params, e, s, c_sign) for e in range(n)}
        err = max(abs(direct[e] - formula[e]) for e in range(n))
        if best is None or err < best[0]:
            best = (err, c_sign, formula)
    err, c_sign, formula = best
    return {
        "p": p, "p1": p1, "s": s, "q_s": field.q,
        "h": params.h, "b": params.b, "c": params.c, "c_sign": c_sign,
        "max_abs_err": err,
        "per_exponent": [
            {"exponent": e,
             "direct": direct[e],
             "formula": formula[e],
             "abs_err": abs(direct[e] - formula[e])}
            for e in range(n)],
    }


# --- Davenport-Hasse ----------------------------------------------------------

def lifted_exponent(field: FieldSpec, big: FieldSpec, k: int) -> int:
    """Exponent of chi_k composed with the norm map, in the big field's labels.

    The subfield of order q inside F_{q^s} is identified by locating a root
    beta of the small modulus among the elements of order dividing q-1; then
    Norm(gamma'^a) = beta^{a/c} with beta = gamma'^{cL}, L = (q^s-1)/(q-1).
    The candidates beta_j = gamma'^{jL} are stepped, and the small modulus
    evaluated at each by Horner, in F_p[x]/(m') for the big modulus m': no
    element table is read.
    """
    q1 = field.q - 1
    L = (big.q - 1) // q1
    p, f, mlow = big.p, big.f, big.modulus[:-1]
    step = _poly_pow_mod(big.gamma_poly, L, mlow, f, p)
    beta = [1] + [0] * (f - 1)
    for j in range(1, q1 + 1):
        beta = _poly_mul_mod(beta, step, mlow, f, p)
        if math.gcd(j, q1) != 1:
            continue
        acc = [0] * f
        for coeff in reversed(field.modulus):
            acc = _poly_mul_mod(acc, beta, mlow, f, p)
            acc[0] = (acc[0] + coeff) % p
        if not any(acc):
            return (k * pow(j, -1, q1) % q1) * L
    raise PreconditionViolated("no root of the subfield modulus found")


def davenport_hasse_check(chi: MultChar, s: int,
                          cap: int = DEFAULT_CAP) -> tuple[complex, complex]:
    """(direct G of the lifted character, (-1)^{s-1} G(chi)^s)."""
    field = chi.field
    if s >= cap.bit_length() or field.q ** s > cap:  # q >= 2
        raise FieldTooLarge(f"q^s = {field.q}^{s} exceeds cap {cap}")
    big = build_field(field.p, field.f * s, cap=cap)
    if chi.is_trivial:
        direct = complex(-1.0)
    else:
        kp = lifted_exponent(field, big, chi.k % (field.q - 1))
        direct = gauss_sum_direct(MultChar(big, kp))
    formula = (-1) ** (s - 1) * gauss_sum_direct(chi) ** s
    return direct, formula
