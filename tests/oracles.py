"""Independent oracles for the package's exact verdicts.

No command runs these; the tests check the periods path against them.
Each reads the field only through ``FieldSpec`` (``sub_vec``,
``norm_stream``, ``norm_powers``, ``build_field``) and ``finite_field``'s
polynomial helpers, never through the Gauss periods, the signature sums or
the FFT it is held against:

* ``brute_force_verify``: the scheme axioms on an explicit partition of
  F_q, element by element (q <= ORACLE_CAP);
* ``gauss_sum_direct``: one Gauss sum tallied off the norm stream, and
  ``davenport_hasse_check``, the Davenport-Hasse lift (Berndt-Evans-Williams
  1998) of a character composed with the norm, its subfield root found in
  polynomial arithmetic (``lifted_exponent``);
* ``trace_partition``: the classes of Z_{2(p+1)} by zero / square /
  nonsquare trace over F_{p^2} (Euler's criterion), and
  ``ts_identity_check``, its relative-difference-set identity;
* ``check_scheme_document``: a printed report's intersection numbers
  against the regular representation they must form, from the document's
  integers alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scheme_forge.errors import (FieldTooLarge, PartitionInvalid,
                                 PreconditionViolated, SchemeForgeError)
from scheme_forge.finite_field import (_BLOCK, DEFAULT_CAP, FieldSpec,
                                       _poly_mul_mod, _poly_pow_mod,
                                       build_field, check_cap, is_prime)

ORACLE_CAP = 20_000
_PIECE = _BLOCK // 4  # terms per piece of gauss_sum_direct's tally


class TooLargeForOracle(SchemeForgeError):
    cli_code = 3


# --- the scheme axioms, element by element ----------------------------------------

def brute_force_verify(field, relations) -> bool:
    """Direct check of the scheme axioms on an explicit partition of F_q.

    Verifies that {0} is a class, that negation permutes the classes, and
    that #{x in R_i : z - x in R_j} is constant over z in R_k for all
    (i, j, k).  Deliberately independent of the signature criterion.
    """
    q = field.q
    if q > ORACLE_CAP:
        raise TooLargeForOracle(f"q = {q} exceeds oracle cap {ORACLE_CAP}")
    rels = [np.asarray(sorted(int(x) for x in r), dtype=np.int64) for r in relations]
    flat = np.concatenate(rels)
    if len(flat) != q or not np.array_equal(np.sort(flat), np.arange(q)):
        raise PartitionInvalid("relations must partition F_q")

    K = len(rels)
    rel = np.empty(q, dtype=np.int64)
    for i, r in enumerate(rels):
        rel[r] = i
    if len(rels[int(rel[0])]) != 1:
        return False

    # negation closure
    neg = np.zeros(q, dtype=np.int64)
    nz = np.arange(1, q, dtype=np.int64)
    neg[1:] = field.sub_vec(0, nz)
    for r in rels:
        labels = rel[neg[r]]
        if not (labels == labels[0]).all():
            return False

    codes = np.arange(q, dtype=np.int64)
    rel_x = rel
    reference = [None] * K
    for z in range(q):
        rel_zx = rel[field.sub_vec(z, codes)]
        cnt = np.bincount(rel_x * K + rel_zx, minlength=K * K)
        k = int(rel[z])
        if reference[k] is None:
            reference[k] = cnt
        elif not np.array_equal(reference[k], cnt):
            return False
    return True


# --- direct Gauss sums and the Davenport-Hasse lift --------------------------------

@dataclass(frozen=True)
class MultChar:
    """chi(gamma^j) = exp(2 pi i k j / (q-1))."""

    field: FieldSpec
    k: int

    @property
    def is_trivial(self) -> bool:
        return self.k % (self.field.q - 1) == 0


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


# --- the trace partition of Z_{2(p+1)} ----------------------------------------------

def trace_partition(p: int):
    """(T_0, T_s, T_n): class indices of Z_{2(p+1)} with zero / square /
    nonsquare trace, sizes (2, p, p); T_n is T_s shifted by p+1.

    s_i = tr(gamma^i), i < N: the norm period (L = p + 1 < _BLOCK under the
    cap, the norm stream's first sub-block), then s_{i+L} = N(gamma) s_i."""
    if p % 4 == 3:
        check_cap(p, 2, DEFAULT_CAP)  # before trial division
    if p % 4 != 3 or not is_prime(p):
        raise PreconditionViolated(f"p = {p} must be a prime = 3 (mod 4)")
    field = build_field(p, 2)
    _, head = next(field.norm_stream())
    s = np.concatenate((head, head * field.norm_powers[1] % p))
    # Euler's criterion: s_i^((p-1)/2) is 0 on T_0, 1 on T_s, p - 1 on T_n
    euler = np.array([pow(t, (p - 1) // 2, p) for t in s.tolist()])
    t0, ts, tn = (tuple(np.nonzero(euler == v)[0].tolist()) for v in (0, 1, p - 1))
    if len(t0) != 2 or len(ts) != p or len(tn) != p:
        raise PreconditionViolated("trace partition has unexpected sizes")
    return t0, ts, tn


def ts_identity_check(p: int) -> bool:
    """Exact relative-difference-set identity for the square-trace indices:
    T_s T_s^(-1) = p[0] + (p-1)/2 (Z_N - {[0], [N/2]}).  The coefficient
    of [k] on the left counts the pairs i, j in T_s with i - j = k."""
    _, ts, _ = trace_partition(p)
    N = 2 * (p + 1)
    t = np.asarray(ts)
    lhs = np.bincount((t[:, None] - t[None, :]).ravel() % N, minlength=N)
    rhs = np.full(N, (p - 1) // 2)
    rhs[0], rhs[N // 2] = p, 0
    return np.array_equal(lhs, rhs)


# --- a scheme document against its own intersection numbers ------------------------

def check_scheme_document(doc) -> bool:
    """A document's printed intersection matrices form the regular
    representation of a commutative scheme, and its printed first
    eigenmatrix holds that algebra's characters (Brouwer-Cohen-Neumaier 1989,
    2.1-2.2): with (B_a)[k][j] = p_{aj}^k, B_a B_b = sum_c p_{ab}^c B_c for
    all a, b; row k of B_a sums to the valency k_a (k_0 = 1); and
    P[l, i] P[l, j] = sum_k p_{ij}^k P[l, k] in Z[xi_p] for every row l.

    Reads ``doc["report"]`` only.  A product of intersection matrices sums K
    terms of at most max|p|^2, and runs in int64 while that fits, in Python
    ints past it.  With B = max|coefficient| of P_exact, a product of two
    entries folds (p - 1) B^2 twice over, and a sum over k is at most
    K max|p| B: those run in float64 while both are below 2^53, in int64
    below 2^63, and in Python ints past that.
    """
    report = doc["report"]
    k = np.array([1] + report["valencies"], dtype=object)
    B = np.array(report["intersection_matrices"], dtype=object)
    P = np.array([[e["coeffs"] for e in row] for row in report["P_exact"]],
                 dtype=object)
    K = len(k)
    if B.shape != (K, K, K) or P.shape[:2] != (K, K):
        return False
    top, coef, p = int(np.abs(B).max()), int(np.abs(P).max()), P.shape[2] + 1
    if K * top * top < 2 ** 63:
        B, k = B.astype(np.int64), k.astype(np.int64)
    # lhs[a, b] = B_a B_b; rhs[a, b] = sum_c B_a[c][b] B_c
    lhs = B[:, None] @ B[None, :]
    rhs = (B.transpose(0, 2, 1).reshape(K * K, K)
           @ B.reshape(K, K * K)).reshape(K, K, K, K)
    if not ((B.sum(axis=2) == k[:, None]).all() and (lhs == rhs).all()):
        return False
    # each row's products in Z[x]/(x^p - 1): w[j, a] @ u[i] sums
    # u[j][(a - b) mod p] u[i][b], then xi^{p-1} folds back onto the rest.
    # Below 2^53 every partial sum is an integer float64 holds, so BLAS is
    # exact; int64 products run in numpy's own loops, 7 times slower
    bound = max(2 * (p - 1) * coef * coef, K * top * coef)
    dtype = float if bound < 2 ** 53 else np.int64 if bound < 2 ** 63 else object
    P, B = P.astype(dtype), B.astype(dtype)
    shift = np.subtract.outer(np.arange(p), np.arange(p)) % p
    # sums[l, i K + j] = sum_k p_{ij}^k P[l, k]
    sums = B.transpose(0, 2, 1).reshape(K * K, K) @ P
    for row, total in zip(P, sums):
        u = np.zeros((K, p), dtype=dtype)
        u[:, :-1] = row
        conv = (u[:, shift].reshape(K * p, p) @ u.T).reshape(K, p, K)
        prods = (conv[:, :-1] - conv[:, -1:]).transpose(2, 0, 1)
        if not (prods.reshape(K * K, p - 1) == total).all():
            return False
    return True
