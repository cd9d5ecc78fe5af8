"""3-adic valuation and the elementary predicates used by congruence checks.

The valuation of 0 is infinite; it is carried as an explicit sentinel
(`Valuation3.INFINITE`), never as a large stand-in integer, so that
comparisons against lower bounds stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .series import TruncatedSeries


@total_ordering
@dataclass(frozen=True)
class Valuation3:
    """Either a nonnegative integer valuation or the infinite value for 0."""

    value: int | None = None  # None encodes +infinity

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @staticmethod
    def _key(x) -> tuple[int, int]:
        if isinstance(x, Valuation3):
            return (1, 0) if x.is_infinite else (0, x.value)
        if isinstance(x, int):
            return (0, x)
        return NotImplemented

    def __eq__(self, other) -> bool:
        key = self._key(other)
        if key is NotImplemented:
            return NotImplemented
        return self._key(self) == key

    def __lt__(self, other) -> bool:
        key = self._key(other)
        if key is NotImplemented:
            return NotImplemented
        return self._key(self) < key

    def __hash__(self):
        return hash(self.value)

    def __add__(self, other: "Valuation3") -> "Valuation3":
        if self.is_infinite or other.is_infinite:
            return INFINITE
        return Valuation3(self.value + other.value)

    def __repr__(self) -> str:
        return "Valuation3(inf)" if self.is_infinite else f"Valuation3({self.value})"


INFINITE = Valuation3(None)


def pi3(n: int) -> Valuation3:
    """Largest e with 3**e dividing n; infinite for n = 0."""
    if n == 0:
        return INFINITE
    n = abs(n)
    e = 0
    while n % 3 == 0:
        n //= 3
        e += 1
    return Valuation3(e)


def series_min_valuation3(a: TruncatedSeries, upto: int) -> Valuation3:
    """Minimum 3-adic valuation over coefficients at exponents below `upto`."""
    if upto > a.order:
        raise ValueError("cannot inspect beyond the truncation order")
    best = INFINITE
    for e in range(a.offset, upto):
        v = pi3(a.coeffs[e - a.offset])
        if v < best:
            best = v
            if best == Valuation3(0):
                break
    return best


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


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion; p must be an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1
