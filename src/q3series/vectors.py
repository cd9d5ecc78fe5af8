"""Coefficient-vector families attached to the dissection identities.

Every family starts from the base vectors x_k (x_1 = (9, 0, 0, ...)) and
descends by one huffing step per level; a step sends a vector ``v`` to

    new[j] = sum_i v[i] * m(4*i + b, i + j + c)

with small offsets (b, c) fixed by the family and the parity of the
current level.  The band of the m-table makes every such sum finite and
keeps all supports finite, roughly tripling per level (1, 3, 10, 30, ...).

A vector is computed afresh from x_1 up one step list: the X steps up
to the family's seed x_k, then the family's own steps up to the level.

Each family obeys a 3-adic lower bound of the shape

    pi3(value at j) >= 3*alpha + f + floor((9j - 10) / 2) + [j == 1]

with f = slope*beta + f0[mu % 2], beta = (mu - 1) // 2 (mu - 1 for the
one-step families S and U).  `_FAMILY` holds each family's step, bound
and seed in one row; constructors assert the bound on every entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .arith3 import pi3


class Family(Enum):
    X = "x"  # base vectors feeding every other family
    R = "r"  # odd-power single-product dissections
    S = "s"  # even-power single-product dissections (one-step recurrence)
    Y = "y"  # odd residue-class dissections
    Z = "z"  # even residue-class dissections
    U = "u"  # odd-power two-product dissections (one-step recurrence)
    V = "v"  # even-power two-product dissections
    W = "w"  # residue-class two-product dissections


class _Rules(NamedTuple):
    step: tuple[tuple[int, int], tuple[int, int]]  # (b, c) from an even level, an odd one
    per: int                # levels per beta: 2, or 1 for S and U
    slope: int              # f = slope * beta + f0[mu % 2]
    f0: tuple[int, int]
    seed: tuple[int, int]   # (s, t): level 1 is x_{s*alpha + t}


# The base family seeds at x_1 and climbs its own levels: level mu is x_mu.
_FAMILY = {
    Family.X: _Rules(((1, 0), (0, 0)), 2, 0, (4, 2), (0, 1)),
    Family.R: _Rules(((-3, -1), (-1, -1)), 2, 2, (2, 2), (2, 1)),
    Family.S: _Rules(((0, 0), (0, 0)), 1, 2, (2, 2), (2, 1)),
    Family.Y: _Rules(((-2, -1), (-1, -1)), 2, 1, (2, 2), (2, 1)),
    Family.Z: _Rules(((1, 0), (0, 0)), 2, 3, (6, 4), (2, 2)),
    Family.U: _Rules(((1, 0), (1, 0)), 1, 1, (2, 2), (2, 1)),
    Family.V: _Rules(((2, 0), (0, 0)), 2, 2, (4, 2), (2, 1)),
    Family.W: _Rules(((0, 0), (1, 0)), 2, 3, (3, 2), (2, 1)),
}


def valuation_bound(family: Family, alpha: int, mu: int, j: int) -> int:
    """Stated 3-adic lower bound for entry j of the family at (alpha, mu).

    For the base family the level is the vector index k itself and must
    equal 2*alpha+1 or 2*alpha+2.
    """
    if j < 1 or mu < 1 or alpha < 0:
        raise ValueError("alpha >= 0, mu >= 1, j >= 1 required")
    if family is Family.X and mu not in (2 * alpha + 1, 2 * alpha + 2):
        raise ValueError(f"base vector level {mu} does not match alpha={alpha}")
    rules = _FAMILY[family]
    f = rules.slope * ((mu - 1) // rules.per) + rules.f0[mu % 2]
    return 3 * alpha + f + (9 * j - 10) // 2 + (1 if j == 1 else 0)


def bound_violations(values, family: Family, alpha: int, mu: int):
    """Entries 1, 2, ... whose 3-adic valuation misses the stated lower bound."""
    out = []
    for j, v in enumerate(values, start=1):
        need = valuation_bound(family, alpha, mu, j)
        actual = pi3(v)
        if actual is not None and actual < need:
            out.append({"j": j, "value": v, "valuation": actual, "required": need})
    return out


@dataclass(frozen=True)
class CoeffVector:
    """Entries 1..jmax of one family vector; indices beyond jmax that lie
    outside the finite support are zero."""

    family: Family
    alpha: int
    mu: int
    jmax: int
    values: tuple[int, ...]

    def value(self, j: int) -> int:
        if j < 1:
            raise ValueError("entries are 1-based")
        if j > self.jmax:
            raise ValueError(f"entry {j} not materialized (jmax={self.jmax})")
        return self.values[j - 1]

    def __post_init__(self):
        bad = bound_violations(self.values, self.family, self.alpha, self.mu)
        if bad:
            raise ValueError(f"valuation bound violated: {bad[:3]}")


_COLUMNS: list[list[int]] = [[9, 6, 1]]  # column j: rows j..3j, grown in order


def m_entry(i: int, j: int) -> int:
    """Entry m(i, j), i, j >= 1, of the m-table of the huffing step.

    Keeping the coefficients at exponents divisible by 3, exponents
    unchanged, sends negative powers of the base quotient

        zeta = E(q)^3 / (q * E(q^9)^3),      T = E(q^3)^12 / (q^3 * E(q^9)^12)

    to integer combinations of negative powers of T: (1/zeta)^i goes to
    sum_j m(i, j) (1/T)^j.  The table is seeded by its first three rows

        9
        6   243
        1   243   6561

    and continued by m(i,j) = 27 m(i-1,j-1) + 9 m(i-2,j-1) + m(i-3,j-1)
    with m(i,1) = 0 for i > 3.  Entries vanish outside the band
    ceil(i/3) <= j <= i, which the recurrence preserves.

    Column j reads only column j-1, so the table is filled column by
    column: column 1 is (9, 6, 1) on rows 1..3, and column k holds rows
    k..3k, each entry the recurrence over rows k-1..3k-3 of column k-1
    (zero outside them).  The recurrence alone gives the seeded 243, 243
    and 6561 of rows 2 and 3, so column 1 is the only seed.  Whole columns
    are appended in order and a built column is never changed.
    """
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    if not j <= i <= 3 * j:
        return 0
    while len(_COLUMNS) < j:
        padded = [0, 0, *_COLUMNS[-1], 0, 0]
        _COLUMNS.append([27 * a + 9 * b + c
                         for c, b, a in zip(padded, padded[1:], padded[2:])])
    return _COLUMNS[j - 1][i - j]


def _step_vector(prev: list[int], b: int, c: int, jcap: int) -> list[int]:
    """Apply one huffing step; the result is trimmed to its support or jcap.
    Entry j reads entry i only inside the band of m(4i + b, i + j + c),
    (j + c - b)/3 <= i <= 3(j + c) - b."""
    out = []
    for j in range(1, jcap + 1):
        acc = 0
        lo = max(1, -((b - j - c) // 3))
        for i, v in enumerate(prev[lo - 1:3 * (j + c) - b], start=lo):
            if v:
                acc += v * m_entry(4 * i + b, i + j + c)
        out.append(acc)
    while out and out[-1] == 0:
        out.pop()
    return out


_X_LEVELS = 8  # base vectors beyond x_8 are not needed at desk scale


def _entries(family: Family, alpha: int, mu: int, jmax: int) -> tuple[int, ...]:
    """Entries 1..jmax of level mu of the family at alpha, stepped up from x_1.

    Entry j of a level reads entry i of the one below through
    m(4i + b, i + j + c), which vanishes outside the band
    ceil(row / 3) <= column <= row: only entries ceil((j + c - b) / 3) to
    3(j + c) - b.  Every step has 3c - b <= 0 and b - c <= 2, so entries
    1..J read entries 1..3J, and an entry past 3L + 2 reads only entries
    past L.  A step from a level of length L thus computes
    min(jmax * 3^(steps left), 3L + 2) entries.  No flag marks a level as
    its whole support: `_step_vector` pops only trailing zeros it
    computed, so past a truncated level's L lie computed zeros up to the
    3J its successor reads.
    """
    rules, base = _FAMILY[family], _FAMILY[Family.X]
    seed = rules.seed[0] * alpha + rules.seed[1]
    if mu < 1 or seed < 1:
        raise ValueError("level >= 1 required")
    chain = [(base, k) for k in range(1, seed)] + [(rules, level) for level in range(1, mu)]
    if sum(r is base for r, _ in chain) >= _X_LEVELS:  # n base steps reach x_(n+1)
        raise ValueError(f"base vectors beyond k={_X_LEVELS} are not needed at desk scale")
    vals = [9]  # x_1
    for n, (r, level) in enumerate(chain, start=1):
        b, c = r.step[level % 2]
        vals = _step_vector(vals, b, c, min(jmax * 3 ** (len(chain) - n), 3 * len(vals) + 2))
    return tuple((vals + [0] * jmax)[:jmax])


def family_vector(family: Family, alpha: int, mu: int, jmax: int) -> CoeffVector:
    """Family vector at (alpha, mu) with entries 1..jmax.

    The base family's level mu is x_mu, with alpha = (mu - 1) // 2.  For
    the other families level 1 is the family's base seed (x_{2 alpha + 1},
    or x_{2 alpha + 2} for the even residue-class family); higher levels
    follow the family's alternating huffing step.
    """
    return CoeffVector(family, alpha, mu, jmax, _entries(family, alpha, mu, jmax))
