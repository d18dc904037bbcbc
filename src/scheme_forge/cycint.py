"""Exact arithmetic in Z[xi_n] for prime conductor n.

Values are stored in the reduced power basis 1, xi, ..., xi^{n-2}: the
relation xi^{n-1} = -(1 + xi + ... + xi^{n-2}) makes the coefficient vector
canonical, so equality and hashing are structural.  Coefficients are Python
ints (no overflow audit needed).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConductorMismatch, NotPrime
from .finite_field import is_prime


@lru_cache(maxsize=None)
def _checked_prime(n: int) -> int:
    if not is_prime(n):
        raise NotPrime(f"conductor {n} must be prime")
    return n


@lru_cache(maxsize=None)
def _roots(n: int) -> tuple[complex, ...]:
    """exp(2 pi i k / n) for k < n, as embed multiplies them."""
    return tuple(cmath.exp(2j * cmath.pi * k / n) for k in range(n))


def reduce_coeffs(n: int, raw) -> tuple[int, ...]:
    """Reduce a coefficient vector on 1..xi^{k} (any k) to the canonical basis."""
    folded = [0] * n
    for i, c in enumerate(raw):
        folded[i % n] += int(c)
    top = folded[n - 1]
    return tuple(folded[i] - top for i in range(n - 1))


@dataclass(frozen=True)
class CycInt:
    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _checked_prime(self.n)
        if len(self.coeffs) != self.n - 1:
            raise ConductorMismatch(
                f"need {self.n - 1} coefficients, got {len(self.coeffs)}")

    # --- constructors ---------------------------------------------------------

    @classmethod
    def from_raw(cls, n: int, raw) -> "CycInt":
        return cls(n, reduce_coeffs(n, raw))

    @classmethod
    def integer(cls, n: int, c: int) -> "CycInt":
        return cls(n, (int(c),) + (0,) * (n - 2))

    @classmethod
    def root(cls, n: int, power: int = 1) -> "CycInt":
        """xi_n^power."""
        raw = [0] * n
        raw[power % n] = 1
        return cls.from_raw(n, raw)

    # --- ring structure ---------------------------------------------------------

    def _coerce(self, other) -> "CycInt":
        if isinstance(other, CycInt):
            if other.n != self.n:
                raise ConductorMismatch(f"conductors {self.n} != {other.n}")
            return other
        if isinstance(other, int):
            return CycInt.integer(self.n, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CycInt(self.n, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CycInt(self.n, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return CycInt(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.n, tuple(other * a for a in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n = self.n
        folded = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        folded[(i + j) % n] += a * b
        top = folded[n - 1]
        return CycInt(n, tuple(folded[i] - top for i in range(n - 1)))

    __rmul__ = __mul__

    # --- embedding, predicates, serialization -------------------------------

    def embed(self) -> complex:
        """Evaluate at xi_n = exp(2 pi i / n), double precision."""
        roots = _roots(self.n)
        return sum(c * roots[i] for i, c in enumerate(self.coeffs) if c)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": list(self.coeffs)}

    def __repr__(self):
        return f"CycInt({self.n}, {self.coeffs})"


def quadratic_gauss_cycint(p: int) -> CycInt:
    """The quadratic character sum sum_t (t|p) xi_p^t, exactly.

    Its square is p* = (-1)^((p-1)/2) p; for p = 1 (mod 4) it is the positive
    real root sqrt(p) under the canonical embedding.
    """
    raw = [0] * p
    for t in range(1, p):
        raw[t] = 1 if pow(t, (p - 1) // 2, p) == 1 else -1
    return CycInt.from_raw(p, raw)
