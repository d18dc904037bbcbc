"""Concrete models of F_{p^f}: the modulus, the trace m-sequence, and lazy
element tables.

Elements are encoded as integers in [0, q): the base-p digit string of the
code is the coefficient vector (constant term first) of the residue modulo
the chosen primitive polynomial.  The generator gamma is always the residue
of the indeterminate x, so discrete logs are defined relative to the
lexicographically least primitive modulus (or the one a JSON document
names, for a field read by ``FieldSpec.from_json``).  Arithmetic on single
elements is polynomial arithmetic in F_p[x]/(modulus) (_poly_mul_mod,
_poly_pow_mod).

Every Gauss period reads only s_e = tr(gamma^e), a linear recurring sequence
whose characteristic polynomial is the modulus.  One norm period fixes it:
with L = (q-1)/(p-1), gamma^L = N(gamma) = (-1)^f c_0 lies in F_p^*, and tr
is F_p-linear, so s_{e+L} = N(gamma) s_e (mod p) (Lidl-Niederreiter, Finite
Fields, 2.3).  The periods and the Gauss sums read that norm period
s_0, ..., s_{L-1} as a stream: norm_stream yields it in sub-blocks of at
most _BLOCK terms, each summed by the same linearity (gamma^e = sum_i c_i
x^i gives s_{e+k} = sum_i c_i s_{i+k}) from one fixed head
s[0:min(L, _BLOCK) + f - 1]; the periods and the direct Gauss sum tally
it and fold the p - 1 periods, and the psi gather fills them.  Nothing caches
the period, so those paths hold their output and O(_BLOCK) more
(O(N p + _BLOCK) for the periods) however large q is, and building a field
makes no q-sized table.  norm_block assembles the stream for
trace_partition, the oracles and the tests.  The whole sequence is
gathered from the stream for the element tables, which no library path
reads (the tests and the benchmark's field hook do); each is built on
first use: by the trace-dual-basis relation, f consecutive terms s_e, ...,
s_{e+f-1} fix the coordinates of gamma^e, which gives the antilog table;
the log table inverts it, and the trace table scatters the sequence
through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import (DegreeZero, FieldTooLarge, InvalidElement, NotCoprime,
                     NotPrime)

DEFAULT_CAP = 1 << 26
_BLOCK = 1 << 15  # sequence terms per sub-block of every pass over s_e


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(m: int, n: int) -> int:
    """Least e >= 1 with m^e = 1 (mod n)."""
    if n < 1:
        raise NotCoprime(f"invalid modulus {n}")
    import math

    if math.gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m}, {n}) != 1")
    if n == 1:
        return 1
    acc = m % n
    e = 1
    while acc != 1:
        acc = (acc * m) % n
        e += 1
    return e


# --- polynomial helpers over F_p (lists, constant term first) ---------------

def _poly_mul_mod(a, b, mlow, f, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    # reduce by x^f = -mlow; each coefficient is taken mod p once
    for k in range(len(prod) - 1, f - 1, -1):
        c = prod[k] % p
        if c:
            for i in range(f):
                prod[k - f + i] -= c * mlow[i]
    prod = [c % p for c in prod[:f]]
    return prod + [0] * (f - len(prod))


def _poly_pow_mod(base, e, mlow, f, p):
    result = [1] + [0] * (f - 1)
    acc = list(base)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, acc, mlow, f, p)
        acc = _poly_mul_mod(acc, acc, mlow, f, p)
        e >>= 1
    return result


def _x_is_primitive(mlow, f, p, q, q1_factors):
    """True iff the residue of x has multiplicative order q-1 mod (mlow, p).

    Order exactly q-1 forces the quotient ring to be a field (it then has
    q-1 units), so this single test subsumes irreducibility.
    """
    if mlow[0] == 0:  # x divides the modulus
        return False
    one = [1] + [0] * (f - 1)
    x = ([0, 1] + [0] * (f - 2))[:f] if f > 1 else [(-mlow[0]) % p]
    if _poly_pow_mod(x, q - 1, mlow, f, p) != one:
        return False
    for r in q1_factors:
        if _poly_pow_mod(x, (q - 1) // r, mlow, f, p) == one:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Immutable model of F_{p^f}; share freely, never mutate the tables.

    The q-sized tables are cached properties, built on first use.  Equality
    and hashing read the defining fields only.
    """

    p: int
    f: int
    q: int
    modulus: tuple[int, ...]      # monic, constant term first, length f+1
    gamma_poly: tuple[int, ...]   # coefficients of gamma, length f
    basis_trace: tuple[int, ...]  # tr(x^i) for i < f

    # --- sequences and tables, read-only and built once ---------------------

    @property
    def norm_period(self) -> int:
        """L = (q-1)/(p-1): gamma^L = N(gamma), the norm of gamma, in F_p^*."""
        return (self.q - 1) // (self.p - 1)

    @cached_property
    def norm_powers(self) -> np.ndarray:
        """N(gamma)^k mod p for k < p - 1 (int64).

        N(gamma) is the product of the f roots of the modulus, (-1)^f c_0.
        Filled by doubling: entries [n, 2n) are N(gamma)^n times [0, n).
        """
        p = self.p
        norm = (-1) ** self.f * self.modulus[0] % p
        powers = np.ones(p - 1, dtype=np.int64)
        n = 1
        while n < p - 1:
            take = min(n, p - 1 - n)
            np.remainder(powers[:take] * pow(norm, n, p), p,
                         out=powers[n:n + take])
            n += take
        powers.setflags(write=False)
        return powers

    def norm_stream(self):
        """Yield (start, s[start:start + b]) over s_e = tr(gamma^e), e < L.

        The sub-blocks come in order, each start a multiple of _BLOCK and
        b <= _BLOCK, in the norm block's dtype.  Each is a read-only view of
        a buffer the walk reuses: read it before drawing the next.  If
        gamma^e = sum_i c_i x^i, then s_{e+k} = sum_i c_i s_{i+k}, summed over
        the c_i != 0 below f (p-1)^2, the bound that sizes its unsigned type.
        The head s[0:min(L, _BLOCK) + f - 1] doubles from tr(x^i), i < f: on
        [0, n), e = n gives n - f + 1 more terms, gamma^n the last column of
        M = multiplication by gamma^(n-f+1) mod p, and then M <- M^2.  For
        L > _BLOCK, n - f + 1 stops at _BLOCK, a power of 2: that M steps c
        from each sub-block's start to the next, each summed from the head.
        """
        p, f, L = self.p, self.f, self.norm_period
        acc_type = np.min_scalar_type(f * (p - 1) ** 2)
        acc, tmp = np.empty((2, min(_BLOCK, L)), dtype=acc_type)
        head = np.empty(min(L, _BLOCK) + f - 1, np.min_scalar_type(p - 1))
        head[:f] = self.basis_trace

        def combine(coeffs, out):  # out = sum_i c_i head[i:i + b] mod p
            b = len(out)
            (i0, c0), *rest = [(i, c) for i, c in enumerate(coeffs) if c]
            np.multiply(head[i0:i0 + b], c0, out=acc[:b], dtype=acc_type)
            for i, c in rest:
                if c == 1:  # every c for p = 2
                    acc[:b] += head[i:i + b]
                    continue
                np.multiply(head[i:i + b], c, out=tmp[:b], dtype=acc_type)
                acc[:b] += tmp[:b]
            np.remainder(acc[:b], p, out=out)

        # multiplication by gamma = x: x^i -> x^(i+1), x^f = -(c_0 + ...)
        M, n = np.eye(f, k=-1, dtype=np.int64), f
        M[:, -1] = [-c % p for c in self.modulus[:-1]]
        while n < len(head):
            combine(M[:, -1].tolist(), head[n:min(2 * n - f + 1, len(head))])
            M = M @ M % p
            n = 2 * n - f + 1
        coords, out = M[:, 0], np.empty(min(_BLOCK, L), head.dtype)
        chunk = head[:min(L, _BLOCK)]
        for start in range(0, L, _BLOCK):
            if start:
                chunk = out[:min(_BLOCK, L - start)]
                combine(coords.tolist(), chunk)
                coords = M @ coords % p
            chunk.setflags(write=False)
            yield start, chunk

    @cached_property
    def norm_block(self) -> np.ndarray:
        """s_e = tr(gamma^e) for e < L, the norm stream assembled: uint8 for
        p < 256.

        The rest of the m-sequence follows, as tr is F_p-linear:
        s_{e + kL} = N(gamma)^k s_e mod p.  For trace_partition (L = p + 1
        on F_{p^2}), the oracles and the tests: the periods and the Gauss
        sums read norm_stream, never this array.
        """
        s = np.empty(self.norm_period, dtype=np.min_scalar_type(self.p - 1))
        for start, chunk in self.norm_stream():
            s[start:start + len(chunk)] = chunk
        s.setflags(write=False)
        return s

    def gather_trace(self, table: np.ndarray) -> np.ndarray:
        """table[s_e] for e = 0..q-2, a new array of table's dtype.

        Each sub-block of the norm stream is written into all p - 1 norm
        periods: into period k through the permuted p-entry table
        t -> table[N(gamma)^k t mod p].  Every term is below p, so
        mode="clip" gathers the same entries, straight into out, where the
        default mode buffers it.  For f = 1 a period is the one term
        s_0 = tr(1) = 1 (L = 1 < p), so the sequence is N(gamma)^k itself.
        """
        p, L = self.p, self.norm_period
        if L < p:
            return table[self.norm_powers]
        out = np.empty(self.q - 1, dtype=table.dtype)
        t = np.arange(p, dtype=np.int64)
        powers = self.norm_powers.tolist()
        index = np.empty(min(L, _BLOCK), dtype=np.intp)  # cast once, not per take
        for start, chunk in self.norm_stream():
            b = len(chunk)
            index[:b] = chunk
            for k, c in enumerate(powers):
                np.take(table[t * c % p], index[:b],
                        out=out[k * L + start:k * L + start + b], mode="clip")
        return out

    @cached_property
    def trace_sequence(self) -> np.ndarray:
        """s_e = tr(gamma^e) for e = 0..q-2, of the norm block's dtype."""
        dtype = np.min_scalar_type(self.p - 1)
        s = self.gather_trace(np.arange(self.p, dtype=dtype))
        s.setflags(write=False)
        return s

    @cached_property
    def antilog_table(self) -> np.ndarray:
        """Exponent -> element code, length q-1 (int32): the window
        (s_e, ..., s_{e+f-1}) of the trace sequence is T coords(gamma^e),
        T = [tr(x^(i+k))] (trace-dual basis), so coords = T^-1 window mod p.
        """
        from . import _kernels

        table = _kernels.antilog_table(self.p, self.f, self.trace_sequence)
        table.setflags(write=False)
        return table

    @cached_property
    def log_table(self) -> np.ndarray:
        """Element code -> exponent, log[0] = -1 (int32)."""
        table = np.full(self.q, -1, dtype=np.int32)
        table[self.antilog_table] = np.arange(self.q - 1, dtype=np.int32)
        table.setflags(write=False)
        return table

    @cached_property
    def trace_table(self) -> np.ndarray:
        """Element code -> tr(x) in [0, p) (int32).

        tr(antilog[e]) = s_e: the trace sequence scattered through the
        antilog table, with tr(0) = 0.
        """
        table = np.zeros(self.q, dtype=np.int32)
        table[self.antilog_table] = self.trace_sequence
        table.setflags(write=False)
        return table

    # --- vectorised code arithmetic ------------------------------------------

    def sub_vec(self, z: int, codes: np.ndarray) -> np.ndarray:
        """z - codes, elementwise over an int array of codes."""
        p = self.p
        res = np.zeros(codes.shape, dtype=np.int64)
        zz = z
        cc = codes.astype(np.int64)
        for i in range(self.f):
            res += (((zz % p) - (cc % p)) % p) * p ** i
            zz //= p
            cc = cc // p
        return res

    # --- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "f": self.f,
            "modulus_coeffs": list(self.modulus),
            "gamma_coeffs": list(self.gamma_poly),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FieldSpec":
        obj = doc if isinstance(doc, dict) else json.loads(doc)
        p, f, modulus = obj["p"], obj["f"], list(obj["modulus_coeffs"])
        _check_size(p, f, DEFAULT_CAP)
        if (len(modulus) != f + 1 or modulus[-1] != 1
                or not all(0 <= c < p for c in modulus)):
            raise InvalidElement(
                f"modulus_coeffs {modulus} is not a monic degree-{f} "
                f"polynomial over F_{p}")
        mlow = modulus[:-1]
        if not _x_is_primitive(mlow, f, p, p ** f, prime_factors(p ** f - 1)):
            raise InvalidElement("modulus is not primitive")
        fld = _build_from_modulus(p, f, mlow)
        if list(fld.gamma_poly) != list(obj["gamma_coeffs"]):
            raise InvalidElement("gamma_coeffs do not match the rebuilt field")
        return fld


def _check_size(p: int, f: int, cap: int) -> None:
    if p < 2:
        raise NotPrime(f"{p} is not prime")
    if f < 1:
        raise DegreeZero(f"extension degree must be >= 1, got {f}")
    check_cap(p, f, cap)  # before trial division
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def check_cap(p: int, f: int, cap: int) -> None:
    """FieldTooLarge when q = p^f (p >= 2, f >= 1) exceeds the cap."""
    # p^f >= 2^f > cap from f = cap.bit_length() on: a huge f forms no p^f
    if f >= cap.bit_length() or p ** f > cap:
        raise FieldTooLarge(f"q = {p}^{f} exceeds cap {cap}")


def _build_from_modulus(p: int, f: int, mlow: list[int]) -> FieldSpec:
    # tr(x^i) is the i-th power sum P_i of the roots of the modulus; Newton's
    # identities: P_k = -(k c_{f-k} + sum_{0<j<k} c_{f-j} P_{k-j}), P_0 = f
    basis_tr = [f % p]
    for k in range(1, f):
        acc = k * mlow[f - k] + sum(mlow[f - j] * basis_tr[k - j]
                                    for j in range(1, k))
        basis_tr.append(-acc % p)

    gamma = (0, 1) + (0,) * (f - 2) if f > 1 else ((-mlow[0]) % p,)
    return FieldSpec(p=p, f=f, q=p ** f,
                     modulus=tuple(mlow) + (1,),
                     gamma_poly=gamma,
                     basis_trace=tuple(basis_tr))


@lru_cache(maxsize=32)
def _build_field_cached(p: int, f: int) -> FieldSpec:
    q = p ** f
    q1_factors = prime_factors(q - 1)
    p1_factors = prime_factors(p - 1)
    sign = 1 if f % 2 == 0 else -1
    # powers[a-1, i] = a^i mod p.  Of degree > 1, a primitive (so irreducible)
    # modulus has no root in F_p: one product per candidate rules out most
    # reducible ones before the order test (f = 1: no rows, nothing skipped)
    powers = np.ones((p - 1 if f > 1 else 0, f + 1), dtype=np.int64)
    for i in range(1, f + 1):
        powers[:, i] = powers[:, i - 1] * np.arange(1, len(powers) + 1) % p
    # lexicographic on (c_0, ..., c_{f-1}): c_0 is the most significant digit
    for c0 in range(1, p):
        # the product of the roots of a primitive polynomial is the norm of a
        # generator, a primitive root of F_p, so c_0 = (-1)^f * (primitive
        # root); each c_0 is tested only when the scan reaches it
        g = (sign * c0) % p
        if any(pow(g, (p - 1) // r, p) == 1 for r in p1_factors):
            continue
        for rest in product(range(p), repeat=f - 1):
            mlow = [c0, *rest]
            if not (powers @ (mlow + [1]) % p).all():
                continue  # a root in F_p: reducible, so not primitive
            if _x_is_primitive(mlow, f, p, q, q1_factors):
                return _build_from_modulus(p, f, mlow)
    raise InvalidElement(f"no primitive polynomial found for p={p}, f={f}")


def build_field(p: int, f: int, cap: int = DEFAULT_CAP) -> FieldSpec:
    """Deterministic construction of F_{p^f}.

    Scans monic degree-f polynomials in lexicographic order of their
    constant-first coefficient list and takes the first one whose root
    generates the multiplicative group.  Results are cached; treat the
    returned tables as read-only.
    """
    _check_size(p, f, cap)
    return _build_field_cached(p, f)
