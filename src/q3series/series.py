"""Exact truncated Laurent series over Python integers.

A series is stored densely: ``coeffs[i]`` is the coefficient of
``q**(offset + i)`` and every coefficient at an exponent below ``offset``
is zero.  ``order`` is the truncation guarantee: coefficients are correct
for all exponents strictly below it.  Values are immutable after
construction, so a cache can hand the same series to every caller.

A product ``a * b`` keeps ``min(a.order + b.offset, b.order + a.offset)``.
Callers that need a result correct to order N must build the operands
with enough headroom; nothing here silently reuses garbage coefficients.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class TruncatedSeries:
    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs: Sequence[int], order: int):
        coeffs = tuple(coeffs)
        if order - offset != len(coeffs):
            raise ValueError(
                f"window mismatch: order-offset={order - offset}, got {len(coeffs)} coefficients"
            )
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries(order, (), order)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_terms([(0, 1)], order)

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, int]], order: int) -> "TruncatedSeries":
        """Build a series from (exponent, coefficient) pairs.

        Exponents at or beyond `order` are outside the representable
        window and rejected.
        """
        terms = [(e, c) for e, c in terms if c != 0]
        for e, _ in terms:
            if e >= order:
                raise ValueError(f"exponent {e} is outside the window (order {order})")
        if not terms:
            return TruncatedSeries.zero(order)
        offset = min(e for e, _ in terms)
        coeffs = [0] * (order - offset)
        for e, c in terms:
            coeffs[e - offset] += c
        return TruncatedSeries(offset, coeffs, order)

    # -- access and product -------------------------------------------

    def coeff(self, exponent: int) -> int:
        """Coefficient of q**exponent; exponents >= order are not known."""
        if exponent >= self.order:
            raise ValueError(f"exponent {exponent} is beyond truncation order {self.order}")
        if exponent < self.offset:
            return 0
        return self.coeffs[exponent - self.offset]

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Product on the common window, by `mul_sparse` on the nonzero terms of `self`."""
        offset = self.offset + other.offset
        order = min(self.order + other.offset, other.order + self.offset)
        n = order - offset
        if n <= 0:
            return TruncatedSeries.zero(order)
        terms = [(i, a) for i, a in enumerate(self.coeffs) if a]
        return TruncatedSeries(offset, mul_sparse(other.coeffs, terms, n), order)


# -- sparse kernels ----------------------------------------------------
#
# The expensive expansions in this package are all of the form
# "dense series times or divided by a very sparse one" (theta-style gap
# sequences).  These two kernels do every exact product and solve, dense
# ones included; the reduced twins live in modseries.  The m-table's
# three-term column recurrence (vectors.m_entry) is a plain comprehension,
# which is faster there than a product through mul_sparse.


def mul_sparse(dense: Sequence[int], terms: Sequence[tuple[int, int]], order: int) -> list[int]:
    """Convolve a dense coefficient list with sparse (gap, coeff) terms, gaps ascending."""
    out = [0] * order
    for g, c in terms:
        if g >= order:
            break
        for i, d in enumerate(dense[:order - g], start=g):
            if d:
                out[i] += c * d
    return out


def solve_monic_sparse(terms: Sequence[tuple[int, int]], rhs: Sequence[int], order: int) -> list[int]:
    """Solve a * b = rhs for b, where a is sparse and monic (a[0] == 1).

    Sequential back-substitution: b[n] = rhs[n] - sum a[g] * b[n-g].
    """
    return extend_monic_sparse(terms, rhs, [], order)


def extend_monic_sparse(terms: Sequence[tuple[int, int]], rhs: Sequence[int],
                        b: list[int], order: int) -> list[int]:
    """Grow `b`, the first len(b) coefficients of the solution of a * b = rhs,
    in place to `order` by the back-substitution of `solve_monic_sparse`.

    Each new coefficient reads only earlier ones, so a solution is extended
    without solving it again.  After the constant term the gaps of `terms`
    must be positive and ascending: while b[n] is solved, b holds n entries,
    so b[-g] is b[n - g], and the terms with g <= n are a prefix that grows
    only where n reaches the next gap.
    """
    if not terms or terms[0] != (0, 1):
        raise ValueError("sparse operand must be monic with constant term 1")
    tail = [(-g, -c) for g, c in terms[1:] if g < order]
    nrhs = len(rhs)
    for k, stop in enumerate([-g for g, _ in tail] + [order]):
        live = tail[:k]  # the terms with g <= n, for n from the previous stop to this one
        for n in range(len(b), stop):
            acc = rhs[n] if n < nrhs else 0
            for g, c in live:
                acc += c * b[g]
            b.append(acc)
    return b
