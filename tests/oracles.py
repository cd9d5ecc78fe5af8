"""Independent oracles that the tests compare the program and the paper against.

No command, suite job or script calls these; each computes its answer by a
route of its own, apart from the code it checks: a dynamic program over
colored parts for the counting functions, powers by repeated squaring for
the eta quotients, coefficientwise sums and exponent surgery for the
huffing identities.  They are plain functions over `TruncatedSeries`.
"""

from __future__ import annotations

import math

from q3series.counts import CountingFunction, Kind
from q3series.eta import EtaQuotientSpec, eta_quotient
from q3series.series import TruncatedSeries
from q3series.vectors import m_entry


def terms(a: TruncatedSeries) -> list[tuple[int, int]]:
    """The nonzero (exponent, coefficient) pairs of `a`, ascending."""
    return [(a.offset + i, c) for i, c in enumerate(a.coeffs) if c]


def agrees_with(a: TruncatedSeries, b: TruncatedSeries, upto: int | None = None) -> bool:
    """Coefficientwise equality on the common valid window (below `upto`)."""
    stop = min(a.order, b.order)
    if upto is not None:
        stop = min(stop, upto)
    start = min(a.offset, b.offset)
    return all(a.coeff(e) == b.coeff(e) for e in range(start, stop))


def add(a: TruncatedSeries, b: TruncatedSeries, k: int = 1) -> TruncatedSeries:
    """a + k*b on the common window, order min(a.order, b.order)."""
    order = min(a.order, b.order)
    offset = min(a.offset, b.offset)
    coeffs = [0] * (order - offset)
    for s, w in ((a, 1), (b, k)):
        for e in range(s.offset, min(s.order, order)):
            coeffs[e - offset] += w * s.coeffs[e - s.offset]
    return TruncatedSeries(offset, coeffs, order)


def power(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """a**e, e >= 0, by repeated squaring through `TruncatedSeries.mul`."""
    if e < 0:
        raise ValueError("exponent must be >= 0")
    if e == 0:
        return TruncatedSeries.one(a.order - a.offset)
    result = None
    while e:
        if e & 1:
            result = a if result is None else result.mul(a)
        e >>= 1
        if e:
            a = a.mul(a)
    return result


def substitute_power(a: TruncatedSeries, r: int) -> TruncatedSeries:
    """a with q replaced by q**r (r >= 1); exponent k becomes r*k."""
    if r < 1:
        raise ValueError("substitution power must be >= 1")
    if r == 1:
        return a
    order = r * (a.order - 1) + 1
    if not a.coeffs:
        return TruncatedSeries.zero(order)
    coeffs = [0] * (order - r * a.offset)
    for i, c in enumerate(a.coeffs):
        coeffs[r * i] = c
    return TruncatedSeries(r * a.offset, coeffs, order)


def extract_progression(a: TruncatedSeries, r: int, s: int) -> TruncatedSeries:
    """Keep the coefficients at exponents congruent to s mod r, exponents
    kept as they are; (3, 0) is the huffing operator."""
    if r < 1 or not 0 <= s < r:
        raise ValueError("need r >= 1 and 0 <= s < r")
    coeffs = [c if (a.offset + i - s) % r == 0 else 0 for i, c in enumerate(a.coeffs)]
    return TruncatedSeries(a.offset, coeffs, a.order)


def enumerate_count(fn: CountingFunction, n: int) -> int:
    """Count directly by dynamic programming over colored parts.

    Items are (part size, color) pairs: every part size in three colors,
    and for the two-color-triple function three extra colors on parts
    divisible by l; the regular-triple function strikes multiples of l
    entirely.  No series arithmetic is involved.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
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


def p_cap_series(order: int) -> TruncatedSeries:
    """The bilateral level-3 theta sum: sum over all integers n of
    (-1)^n (6n+1) q^{n(3n+1)/2}.

    Together with E(q^9)^3 it splits E(q)^3 by exponent residue mod 3.
    The summation range |n| <= ceil(sqrt(2*order/3)) + 2 covers every
    exponent below the window.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    bound = math.isqrt(2 * order // 3 + 1) + 2
    out = []
    for n in range(-bound, bound + 1):
        e = n * (3 * n + 1) // 2
        if e < order:
            sign = 1 if n % 2 == 0 else -1
            out.append((e, sign * (6 * n + 1)))
    return TruncatedSeries.from_terms(out, order)


def pmij_bound(i: int, j: int) -> int:
    """Divisibility floor for m(i, j): pi3(m(i,j)) >= floor((9j - 3i - 1) / 2)."""
    return (9 * j - 3 * i - 1) // 2


# -- the huffing identities ----------------------------------------------


def _lhs(qpow: int, num: int, den: int) -> EtaQuotientSpec:  # q^qpow E(q^3)^num / E(q)^den
    return EtaQuotientSpec(qpow, ((3, num), (1, -den)))


def _rhs(qpow: int, num: int, den: int) -> EtaQuotientSpec:  # q^qpow E(q^9)^num / E(q^3)^den
    return EtaQuotientSpec(qpow, ((9, num), (3, -den)))


# Each structural identity: huff of one quotient equals an m-weighted sum of
# others.  A row gives the left side at i, the m-table index of term j, and
# the right-hand quotient of term j.  P0 is huff((1/zeta)^i) =
# sum_j m(i,j) (1/T)^j, the identity that defines the table.
_H_LEMMA = {
    "P0": (lambda i: EtaQuotientSpec(i, ((9, 3 * i), (1, -3 * i))),
           lambda i, j: (i, j), lambda j: _rhs(3 * j, 12 * j, 12 * j)),
    "P3": (lambda i: _lhs(i - 3, 12 * i, 12 * i),
           lambda i, j: (4 * i, i + j), lambda j: _rhs(3 * j - 3, 12 * j, 12 * j)),
    "P4": (lambda i: _lhs(i - 2, 12 * i - 3, 12 * i + 3),
           lambda i, j: (4 * i + 1, i + j), lambda j: _rhs(3 * j - 3, 12 * j - 3, 12 * j + 3)),
    "P1": (lambda i: _lhs(i - 3, 12 * i - 9, 12 * i - 9),
           lambda i, j: (4 * i - 3, i + j - 1), lambda j: _rhs(3 * j - 3, 12 * j - 3, 12 * j - 3)),
    "P2": (lambda i: _lhs(i - 1, 12 * i - 3, 12 * i - 3),
           lambda i, j: (4 * i - 1, i + j - 1), lambda j: _rhs(3 * j - 3, 12 * j - 9, 12 * j - 9)),
    "P5": (lambda i: _lhs(i - 1, 12 * i, 12 * i + 6),
           lambda i, j: (4 * i + 2, i + j), lambda j: _rhs(3 * j - 3, 12 * j - 6, 12 * j)),
}


def check_h_lemma(variant: str, i: int, order: int) -> bool:
    """Numerically verify one of the six huffing identities below `order`.

    The power of q of right-hand term j grows with j, so the sum stops at
    the first term the window cannot see; a window that sees no term at
    all is a ValueError.
    """
    if variant not in _H_LEMMA:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(_H_LEMMA)}")
    lhs, m_index, rhs_term = _H_LEMMA[variant]
    if rhs_term(1).power_of_q >= order:
        raise ValueError(f"a window below q^{order} sees no right-hand term of {variant}")
    rhs = TruncatedSeries.zero(order)
    j = 1
    while (spec := rhs_term(j)).power_of_q < order:
        c = m_entry(*m_index(i, j))
        if c:
            rhs = add(rhs, eta_quotient(spec, order), c)
        j += 1
    return agrees_with(extract_progression(eta_quotient(lhs(i), order), 3, 0), rhs, upto=order)
