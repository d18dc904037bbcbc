"""Gauss sums: the transform gauss-verify reads, and the closed forms.

Transformed sums are double precision (exactness is reserved for Gauss
periods, which is where scheme verdicts live): one in-place FFT of
psi(gamma^a), the p-th roots of unity gathered from each sub-block of the
norm stream into every norm period.  Closed forms: the quadratic case,
and the index-2 case over Z_{2 p1} with its class-number data (h, b, c),
lifted by degree s.  The sign of c (equivalently of sqrt(-p1)) is not
pinned by the defining equations; evaluation takes an explicit c_sign and
the comparison harness accepts whichever sign matches the transform
coherently across all exponents of one field.  The direct sums and the
Davenport-Hasse check that cross-check the transform live with the tests
(tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadDiscriminant, EvenCharacteristic, FieldTooLarge,
                     NoSolution, PreconditionViolated, check_budget)
from .finite_field import (DEFAULT_CAP, FieldSpec, build_field, check_cap,
                           is_prime, multiplicative_order)


def _psi_values(field: FieldSpec) -> np.ndarray:
    """psi(gamma^a) = exp(2 pi i tr(gamma^a) / p) for a = 0..q-2, a new array.

    exp runs on the p possible traces only: the same bits as elementwise.
    The roots are gathered through the norm stream, so the q-length trace
    sequence is never built.
    """
    roots = np.exp(2j * np.pi * np.arange(field.p, dtype=np.float64) / field.p)
    return field.gather_trace(roots)


# peak RSS bytes an element of the psi vector and its FFT, above import:
# 48 on F_{11^6} and F_{5^9}, 145 where q - 1 has a large prime factor
# (F_{3^13}: 797,161; F_{7^7}: 4,733), pocketfft's scratch ~112 of them
_FFT_BYTES = 145


def gauss_sums_all(field: FieldSpec) -> np.ndarray:
    """The FFT F of the psi table, in place: G(chi_k) = F[-k mod (q-1)]
    for every k in [0, q-1), as G(chi_k) = sum_a psi(gamma^a)
    e^{+2 pi i k a/(q-1)}."""
    check_budget(_FFT_BYTES * (field.q - 1),
                 f"the Gauss sums of F_{{{field.p}^{field.f}}} need")
    psi = _psi_values(field)
    return np.fft.fft(psi, out=psi)


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
    if p1 % 4 != 3 or p1 <= 3 or not is_prime(p1):
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
    """The unique (b, c >= 0) with 4 p^h = b^2 + p1 c^2, p not dividing b
    (where a prime over p is principal, p | b solves it too: 4*17^3 =
    51^2 + 59*17^2), and b p^{(f-h)/2} = -2 (mod p1)."""
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
            if c * c == c2 and b % p and (b * mul) % p1 == (-2) % p1:
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


def make_index2_params(p: int, p1: int, m: int = 1, s: int = 1,
                       cap: int = DEFAULT_CAP) -> Index2Params:
    """The one index-2 gate: the parameters of (p, p1, m), or a refusal.

    Cheapest first: m, s >= 1; residues; the cap before trial division (the
    field F_{p^((p1-1)s/2)} for m = 1; for m >= 2, emission-only, 2 p1^m and
    p); primality; index 2; h, and (b, c) searched over 4 p^h, p^h <= cap."""
    for name, value in (("m", m), ("s", s)):
        if value < 1:
            raise PreconditionViolated(f"{name} = {value} must be >= 1")
    bad = PreconditionViolated(f"bad index-2 instance (p, p1) = ({p}, {p1})")
    if p1 % 4 != 3 or p1 <= 3 or p < 3 or p == p1:  # 2 is no unit mod 2 p1
        raise bad
    if m == 1:
        check_cap(p, (p1 - 1) // 2 * s, cap)
    elif m >= cap.bit_length() or 2 * p1 ** m > cap:
        raise FieldTooLarge(f"N = 2*{p1}^{m} exceeds cap {cap}")
    check_cap(p, 1, cap)  # bounds p's trial division where m >= 2
    if not (is_prime(p) and is_prime(p1)):
        raise bad
    # ord_{2 p1^m}(p) = phi/2 iff ord_{2 p1}(p) = (p1-1)/2 and, for m >= 2,
    # p^((p1-1)/2) = 1 + p1 t with p1 not dividing t
    if (multiplicative_order(p, 2 * p1) != (p1 - 1) // 2
            or m >= 2 and pow(p, (p1 - 1) // 2, p1 * p1) == 1):
        raise PreconditionViolated(
            f"[Z_{2 * p1 ** m}^*:<{p}>] != 2 (order of {p} is not phi/2)")
    f = p1 ** (m - 1) * (p1 - 1) // 2
    h = class_number(p1)
    check_cap(p, h, cap)
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
    params = make_index2_params(p, p1, s=s, cap=cap)
    n = 2 * p1
    field = build_field(p, params.f * s, cap=cap)
    G, step = gauss_sums_all(field), (field.q - 1) // n
    direct = {e: complex(G[-e * step]) for e in range(n)}

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
