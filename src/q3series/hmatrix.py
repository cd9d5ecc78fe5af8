"""The huffing operator and the m-table that expresses its action.

huff keeps exactly the coefficients whose exponent is divisible by 3,
exponents unchanged.  Acting on negative powers of the base quotient

    zeta = E(q)^3 / (q * E(q^9)^3),      T = E(q^3)^12 / (q^3 * E(q^9)^12)

it produces integer combinations of negative powers of T; the integer
table m[i][j] of those combinations is seeded by its first three rows

    9
    6   243
    1   243   6561

and continued by m(i,j) = 27 m(i-1,j-1) + 9 m(i-2,j-1) + m(i-3,j-1) with
m(i,1) = 0 for i > 3.  Entries vanish outside the band ceil(i/3) <= j <= i,
which the recurrence preserves.

Column j reads only column j-1, so the table is filled column by column:
column 1 is (9, 6, 1) on rows 1..3, and column k holds rows k..3k, each
entry the recurrence over rows k-1..3k-3 of column k-1 (zero outside
them).  The recurrence alone gives the seeded 243, 243 and 6561 of rows
2 and 3, so column 1 is the only seed.
"""

from __future__ import annotations

from .eta import EtaQuotientSpec, eta_quotient
from .series import TruncatedSeries

_COLUMNS: list[list[int]] = [[9, 6, 1]]  # column j: rows j..3j, grown in order


def m_entry(i: int, j: int) -> int:
    """Entry m(i, j), i, j >= 1, of the table; whole columns are appended
    in order and a built column is never changed."""
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    if not j <= i <= 3 * j:
        return 0
    while len(_COLUMNS) < j:
        padded = [0, 0, *_COLUMNS[-1], 0, 0]
        _COLUMNS.append([27 * a + 9 * b + c
                         for c, b, a in zip(padded, padded[1:], padded[2:])])
    return _COLUMNS[j - 1][i - j]


def pmij_bound(i: int, j: int) -> int:
    """Divisibility floor for m(i, j): pi3(m(i,j)) >= floor((9j - 3i - 1) / 2)."""
    return (9 * j - 3 * i - 1) // 2


def huff(a: TruncatedSeries) -> TruncatedSeries:
    """Keep coefficients at exponents divisible by 3, exponents retained.

    Negative exponents participate on the same terms as positive ones.
    """
    return a.extract_progression(3, 0)


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
            rhs = rhs.add(eta_quotient(spec, order).scale(c))
        j += 1
    return huff(eta_quotient(lhs(i), order)).agrees_with(rhs, upto=order)
