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

import threading

from .eta import EtaQuotientSpec, eta_quotient
from .series import TruncatedSeries


class MTable:
    """Lazily grown table of the huffing coefficients m(i, j), i, j >= 1.

    Whole columns are appended under one lock, in order; a built column
    is never changed, so reads of it are lock-free.
    """

    def __init__(self):
        self._columns: list[list[int]] = [[9, 6, 1]]  # column j: rows j..3j
        self._lock = threading.Lock()

    def entry(self, i: int, j: int) -> int:
        if i < 1 or j < 1:
            raise ValueError("indices are 1-based")
        if not j <= i <= 3 * j:
            return 0
        columns = self._columns
        if j > len(columns):
            with self._lock:
                while len(columns) < j:
                    padded = [0, 0, *columns[-1], 0, 0]
                    columns.append([27 * a + 9 * b + c
                                    for c, b, a in zip(padded, padded[1:], padded[2:])])
        return columns[j - 1][i - j]

    def block(self, imax: int, jmax: int) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(1, jmax + 1)] for i in range(1, imax + 1)]


_TABLE = MTable()


def m_entry(i: int, j: int) -> int:
    """Entry m(i, j) of the shared table."""
    return _TABLE.entry(i, j)


def pmij_bound(i: int, j: int) -> int:
    """Divisibility floor for m(i, j): pi3(m(i,j)) >= floor((9j - 3i - 1) / 2)."""
    return (9 * j - 3 * i - 1) // 2


def huff(a: TruncatedSeries) -> TruncatedSeries:
    """Keep coefficients at exponents divisible by 3, exponents retained.

    Negative exponents participate on the same terms as positive ones.
    """
    return a.extract_progression(3, 0, rescale=False)


def inv_zeta_power(i: int, order: int) -> TruncatedSeries:
    """(1/zeta)^i = q^i * E(q^9)^{3i} / E(q)^{3i}, valuation i."""
    return eta_quotient(EtaQuotientSpec(i, ((9, 3 * i), (1, -3 * i))), order)


def inv_t_power(j: int, order: int) -> TruncatedSeries:
    """(1/T)^j = q^{3j} * E(q^9)^{12j} / E(q^3)^{12j}, valuation 3j."""
    return eta_quotient(EtaQuotientSpec(3 * j, ((9, 12 * j), (3, -12 * j))), order)


def check_p0(i: int, order: int) -> bool:
    """Verify huff((1/zeta)^i) = sum_j m(i,j) * (1/T)^j below `order`.

    The j-th term has valuation 3j, so the sum is truncated at
    J = order // 3 + 1; later terms cannot touch the window.
    """
    if order < 3:
        raise ValueError("window too small to see any term")
    lhs = huff(inv_zeta_power(i, order))
    jmax = order // 3 + 1
    rhs = TruncatedSeries.zero(order)
    for j in range(1, jmax + 1):
        c = m_entry(i, j)
        if c and 3 * j < order:
            rhs = rhs.add(inv_t_power(j, order).scale(c))
    return lhs.agrees_with(rhs, upto=order)


# Each structural identity: huff of one quotient shape equals an m-weighted
# sum of another.  Rows give (lhs q-power, lhs numerator/denominator
# exponents at scale 3 and 1) and (m row, m column offset, rhs q-power
# slope, rhs numerator/denominator exponents at scale 9 and 3).
_H_LEMMA = {
    "P3": (lambda i: (i - 3, 12 * i, 12 * i),
           lambda i, j: (4 * i, i + j), lambda j: (3 * j - 3, 12 * j, 12 * j)),
    "P4": (lambda i: (i - 2, 12 * i - 3, 12 * i + 3),
           lambda i, j: (4 * i + 1, i + j), lambda j: (3 * j - 3, 12 * j - 3, 12 * j + 3)),
    "P1": (lambda i: (i - 3, 12 * i - 9, 12 * i - 9),
           lambda i, j: (4 * i - 3, i + j - 1), lambda j: (3 * j - 3, 12 * j - 3, 12 * j - 3)),
    "P2": (lambda i: (i - 1, 12 * i - 3, 12 * i - 3),
           lambda i, j: (4 * i - 1, i + j - 1), lambda j: (3 * j - 3, 12 * j - 9, 12 * j - 9)),
    "P5": (lambda i: (i - 1, 12 * i, 12 * i + 6),
           lambda i, j: (4 * i + 2, i + j), lambda j: (3 * j - 3, 12 * j - 6, 12 * j)),
}


def check_h_lemma(variant: str, i: int, order: int) -> bool:
    """Numerically verify one of the five huffing dissection identities."""
    if variant not in _H_LEMMA:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(_H_LEMMA)}")
    lhs_shape, m_index, rhs_shape = _H_LEMMA[variant]
    qpow, num, den = lhs_shape(i)
    lhs = huff(eta_quotient(EtaQuotientSpec(qpow, ((3, num), (1, -den))), order))
    rhs = TruncatedSeries.zero(order)
    jmax = order // 3 + 2
    for j in range(1, jmax + 1):
        c = m_entry(*m_index(i, j))
        shift, rnum, rden = rhs_shape(j)
        if c and shift < order:
            rhs = rhs.add(eta_quotient(EtaQuotientSpec(shift, ((9, rnum), (3, -rden))), order).scale(c))
    return lhs.agrees_with(rhs, upto=order)
