"""The three counting functions and their two engines.

Definitions, as ordinary generating functions:

* three-color partitions          1 / E(q)^3
* l-regular partition triples     E(q^l)^3 / E(q)^3
* 2-color partition triples       1 / (E(q)^3 * E(q^l)^3)
  (every part in three colors, parts divisible by l in three more)

All three are the base 1/E(q)^3 times or divided by E(q^l)^3.  The exact
engine keeps that base in big integers, the reduced one mod 3^15, and
neither keeps anything else: `values_at` reads coefficients off the base
by the same short sums in either engine, `count_values(_mod)` expand in
full.  The tests hold the independent oracle for small n, an
unbounded-knapsack enumerator over colored parts (`tests/oracles.py`)
that shares no code with the series route.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from operator import mul

import numpy as np

from . import modseries
from .eta import jacobi_cube_terms
from .series import extend_monic_sparse, mul_sparse, solve_monic_sparse


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
            if self.ell is not None:
                raise ValueError("p3 takes no modulus parameter")
        elif self.ell is None or self.ell < 1:
            raise ValueError(f"{self.kind.value} needs a positive modulus parameter")

    def label(self) -> str:
        return self.kind.value if self.ell is None else f"{self.kind.value}({self.ell})"


# -- the two engines ---------------------------------------------------

_inv_cube: list[int] = []  # coefficients of 1/E(q)^3, grown on demand
_MOD = 3**modseries.STANDARD_EXPONENT
_mod_base = np.ones(1, dtype=np.int64)  # 1/E(q)^3 mod _MOD, grown on demand, read-only
_mod_base.setflags(write=False)


def _base(order: int, exact: bool):
    """The engine's base 1/E(q)^3 to at least `order`, grown by
    back-substitution against the sparse cube, which only looks backwards,
    so no coefficient is solved twice.  The exact list grows in place; the
    reduced array is replaced by its extension and handed out read-only."""
    global _mod_base
    if exact:
        if len(_inv_cube) < order:
            extend_monic_sparse(jacobi_cube_terms(1, order), (1,), _inv_cube, order)
        return _inv_cube
    if len(_mod_base) < order:
        # the accumulator bound before any term is built, on the count of n >= 1 with n(n+1)/2 < order
        modseries._check_overflow((isqrt(8 * order - 7) - 1) // 2, _MOD)
        _mod_base = modseries.extend_monic_sparse_mod(jacobi_cube_terms(1, order), (1,),
                                                      _mod_base, order, _MOD)
        _mod_base.setflags(write=False)
    return _mod_base


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
    if order < 1:
        raise ValueError("order must be >= 1")
    return _expand(fn, _base(order, True)[:order], order, mul_sparse, solve_monic_sparse)


def count_values_mod(fn: CountingFunction, order: int) -> np.ndarray:
    """Coefficients 0..order-1 reduced mod 3**modseries.STANDARD_EXPONENT.

    P3's array is a read-only view of the shared base.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return _expand(fn, _base(order, False)[:order], order, modseries.mul_sparse_mod,
                   modseries.solve_monic_sparse_mod, _MOD)


def values_at(fn: CountingFunction, indices, exact: bool) -> list[int]:
    """Coefficients at `indices`, read off the base expanded to the largest.

    P3 is the base.  The regular triple sums the cube terms (g, c) of
    E(q^l)^3, T_l[i] = sum c * base[i - g]: exactly index by index, on
    residues one gathered term at a time over every index.  The two-color
    triple is the product sum p_{l,3}[i] = sum_k base[k] * base[i - l*k]
    in both engines.  Nothing but the base is kept.  Reduced sums (mod
    3^STANDARD_EXPONENT) reduce each int64 product of two residues first,
    so they need (mod-1)^2 + order * mod < 2^63 (checked).
    """
    indices = list(indices)
    order = max(indices, default=0) + 1
    base = _base(order, exact)
    if fn.kind is Kind.P3:
        return [int(base[i]) for i in indices]
    if not exact and (_MOD - 1) ** 2 + order * _MOD >= 2**63:
        raise OverflowError(f"residue products overflow int64 at order {order}; lower alpha, beta or n_max")
    if fn.kind is Kind.TWO_COLOR_TRIPLE:
        return [sum(map(mul, a, b)) if exact else int((a * b % _MOD).sum()) % _MOD
                for a, b in ((base[:i // fn.ell + 1], base[i::-fn.ell]) for i in indices)]
    terms = jacobi_cube_terms(fn.ell, order)
    if exact:  # the gaps ascend, so the terms with g <= i are a prefix
        gaps = [g for g, _ in terms]
        return [sum(c * base[i - g] for g, c in terms[:bisect_right(gaps, i)]) for i in indices]
    at, total = np.array(indices, dtype=np.int64), np.zeros(len(indices), dtype=np.int64)
    for g, c in terms:  # base[at - g] wraps below g; np.where drops those
        total += np.where(at >= g, c % _MOD * base[at - g] % _MOD, 0)
    return (total % _MOD).tolist()
