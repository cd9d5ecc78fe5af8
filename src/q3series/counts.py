"""The three counting functions and their expansion engines.

Definitions, as ordinary generating functions:

* three-color partitions          1 / E(q)^3
* l-regular partition triples     E(q^l)^3 / E(q)^3
* 2-color partition triples       1 / (E(q)^3 * E(q^l)^3)
  (every part in three colors, parts divisible by l in three more)

All three reduce to one shared dense expansion of 1/E(q)^3 followed by a
single sparse multiply or divide.  The exact and the reduced engine below
each keep that base and their most recent (kind, l) expansion.  A
deliberately dumb unbounded-knapsack enumerator over colored parts
provides the independent oracle for small n; it shares no code with the
series route.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import modseries
from .eta import jacobi_cube_terms
from .series import TruncatedSeries, mul_sparse, solve_monic_sparse


class Kind(Enum):
    P3 = "p3"
    REGULAR_TRIPLE = "regular"
    TWO_COLOR_TRIPLE = "twocolor"


@dataclass(frozen=True)
class CountingFunction:
    kind: Kind
    ell: int | None = None

    def __post_init__(self):
        if self.kind is Kind.P3:
            object.__setattr__(self, "ell", None)
        else:
            if self.ell is None or self.ell < 1:
                raise ValueError(f"{self.kind.value} needs a positive modulus parameter")

    def label(self) -> str:
        return self.kind.value if self.ell is None else f"{self.kind.value}({self.ell})"


# -- the two engines ---------------------------------------------------
#
# Each engine keeps its base 1/E(q)^3 and the values of the most recent
# (kind, l) it expanded.  Callers that group their requests by key and
# ask for each key's largest order first (the suite runner does) expand
# every key once and build each base once.

_lock = threading.Lock()
_inv_cube: list[int] = [1]  # coefficients of 1/E(q)^3, grown on demand
_exact_last: tuple = (None, None)
_mod_base = np.ones(1, dtype=np.int64)  # 1/E(q)^3 mod 3^STANDARD_EXPONENT
_mod_last: tuple = (None, None)


def _inv_cube_exact(order: int) -> list[int]:
    """1/E(q)^3 to at least `order`, by back-substitution against the sparse cube.

    The recurrence only ever looks backwards, so the list is extended in
    place instead of being recomputed.
    """
    b = _inv_cube
    if len(b) < order:
        terms = jacobi_cube_terms(1, order)[1:]
        for n in range(len(b), order):
            acc = 1 if n == 0 else 0
            for g, c in terms:
                if g > n:
                    break
                acc -= c * b[n - g]
            b.append(acc)
    return b


def _expand(fn: CountingFunction, base, order: int, mul, solve, *mod):
    """The counting function from its base: P3 is the base itself, the
    regular triple multiplies it by E(q^l)^3, the two-color triple divides
    it by E(q^l)^3."""
    if fn.kind is Kind.P3:
        return base
    terms = jacobi_cube_terms(fn.ell, order)
    if fn.kind is Kind.REGULAR_TRIPLE:
        return mul(base, terms, order, *mod)
    return solve(terms, base, order, *mod)


def count_values(fn: CountingFunction, order: int) -> list[int]:
    """Exact coefficients 0..order-1 of the counting function."""
    global _exact_last
    if order < 1:
        raise ValueError("order must be >= 1")
    key = (fn.kind, fn.ell)
    with _lock:
        last, vals = _exact_last
        if last != key or len(vals) < order:
            vals = _expand(fn, _inv_cube_exact(order), order, mul_sparse, solve_monic_sparse)
            _exact_last = (key, vals)
        return vals[:order]


def count_series(fn: CountingFunction, order: int) -> TruncatedSeries:
    """Exact truncated series of the counting function."""
    return TruncatedSeries(0, count_values(fn, order), order)


def count_values_mod(fn: CountingFunction, order: int) -> np.ndarray:
    """Coefficients 0..order-1 reduced mod 3**modseries.STANDARD_EXPONENT."""
    global _mod_base, _mod_last
    if order < 1:
        raise ValueError("order must be >= 1")
    mod_std = 3**modseries.STANDARD_EXPONENT
    key = (fn.kind, fn.ell)
    with _lock:
        last, arr = _mod_last
        if last != key or len(arr) < order:
            if len(_mod_base) < order:
                one = np.ones(1, dtype=np.int64)
                _mod_base = modseries.solve_monic_sparse_mod(jacobi_cube_terms(1, order), one, order, mod_std)
            arr = _expand(fn, _mod_base, order, modseries.mul_sparse_mod,
                          modseries.solve_monic_sparse_mod, mod_std)
            _mod_last = (key, arr)
    return arr[:order]


# -- independent oracle ------------------------------------------------

ENUMERATION_LIMIT = 30


def enumerate_count(fn: CountingFunction, n: int) -> int:
    """Count directly by dynamic programming over colored parts.

    Items are (part size, color) pairs: every part size in three colors,
    and for the two-color-triple function three extra colors on parts
    divisible by l; the regular-triple function strikes multiples of l
    entirely.  No series arithmetic is involved.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration is guarded at n <= {ENUMERATION_LIMIT}")
    ways = [0] * (n + 1)
    ways[0] = 1
    for part in range(1, n + 1):
        if fn.kind is Kind.REGULAR_TRIPLE and part % fn.ell == 0:
            colors = 0
        elif fn.kind is Kind.TWO_COLOR_TRIPLE and part % fn.ell == 0:
            colors = 6
        else:
            colors = 3
        for _ in range(colors):
            for total in range(part, n + 1):
                ways[total] += ways[total - part]
    return ways[n]
