"""Exact truncated Laurent series over Python integers.

A series is stored densely: ``coeffs[i]`` is the coefficient of
``q**(offset + i)`` and every coefficient at an exponent below ``offset``
is zero.  ``order`` is the truncation guarantee: coefficients are correct
for all exponents strictly below it.  Values are immutable after
construction, so a cache can hand the same series to every caller.

Truncation bookkeeping follows the usual rules for exact windows:

* ``a + b``     keeps ``min(a.order, b.order)``
* ``a * b``     keeps ``min(a.order + b.offset, b.order + a.offset)``
* ``1 / a``     keeps ``a.order - 2 * v`` where ``v`` is the valuation of ``a``

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

    # -- basic accessors ----------------------------------------------

    def coeff(self, exponent: int) -> int:
        """Coefficient of q**exponent; exponents >= order are not known."""
        if exponent >= self.order:
            raise ValueError(f"exponent {exponent} is beyond truncation order {self.order}")
        if exponent < self.offset:
            return 0
        return self.coeffs[exponent - self.offset]

    def valuation(self) -> int | None:
        """Lowest exponent with a nonzero coefficient, None for the zero window."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.offset + i
        return None

    def terms(self) -> list[tuple[int, int]]:
        return [(self.offset + i, c) for i, c in enumerate(self.coeffs) if c]

    def agrees_with(self, other: "TruncatedSeries", upto: int | None = None) -> bool:
        """Coefficientwise equality on the common valid window."""
        stop = min(self.order, other.order)
        if upto is not None:
            stop = min(stop, upto)
        start = min(self.offset, other.offset)
        return all(self.coeff(e) == other.coeff(e) for e in range(start, stop))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.agrees_with(other)

    __hash__ = None  # mathematically-equal windows compare equal; not hashable

    def __repr__(self) -> str:
        shown = self.terms()[:6]
        body = " + ".join(f"{c}*q^{e}" for e, c in shown) or "0"
        more = " + ..." if len(self.terms()) > 6 else ""
        return f"<series {body}{more} + O(q^{self.order})>"

    # -- ring operations ----------------------------------------------

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        offset = min(self.offset, other.offset)
        coeffs = [0] * (order - offset)
        for s in (self, other):
            hi = min(s.order, order)
            for e in range(s.offset, hi):
                coeffs[e - offset] += s.coeffs[e - s.offset]
        return TruncatedSeries(offset, coeffs, order)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Product on the common window, by `mul_sparse` on the nonzero terms of `self`."""
        offset = self.offset + other.offset
        order = min(self.order + other.offset, other.order + self.offset)
        n = order - offset
        if n <= 0:
            return TruncatedSeries.zero(order)
        terms = [(i, a) for i, a in enumerate(self.coeffs) if a]
        return TruncatedSeries(offset, mul_sparse(other.coeffs, terms, n), order)

    def scale(self, k: int) -> "TruncatedSeries":
        return TruncatedSeries(self.offset, [k * c for c in self.coeffs], self.order)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the leading coefficient must be a unit (+-1).

        Eta-quotients all satisfy this, which keeps every computation in
        exact integer arithmetic.
        """
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("cannot invert the zero series")
        lead = self.coeff(v)
        if lead not in (1, -1):
            raise ValueError(f"leading coefficient {lead} is not a unit; inverse would leave Z[[q]]")
        n = self.order - v  # relative precision available at the valuation
        if n <= 0:
            raise ValueError("window too small to invert at this valuation")
        monic = [(e - v, lead * c) for e, c in self.terms()]
        return TruncatedSeries(-v, solve_monic_sparse(monic, [lead], n), n - v)

    def pow(self, e: int) -> "TruncatedSeries":
        if e < 0:
            return self.inverse().pow(-e)
        if e == 0:
            return TruncatedSeries.one(self.order - self.offset)
        result = None
        base = self
        k = e
        while k:
            if k & 1:
                result = base if result is None else result.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return result

    # -- exponent surgery ---------------------------------------------

    def substitute_power(self, r: int) -> "TruncatedSeries":
        """Replace q by q**r (r >= 1); exponent k becomes r*k."""
        if r < 1:
            raise ValueError("substitution power must be >= 1")
        if r == 1:
            return self
        order = r * (self.order - 1) + 1
        if not self.coeffs:
            return TruncatedSeries.zero(order)
        offset = r * self.offset
        coeffs = [0] * (order - offset)
        for i, c in enumerate(self.coeffs):
            if c:
                coeffs[r * i] = c
        return TruncatedSeries(offset, coeffs, order)

    def extract_progression(self, r: int, s: int) -> "TruncatedSeries":
        """Keep coefficients at exponents congruent to s mod r, exponents
        kept as they are (the huffing-style operator)."""
        if r < 1 or not 0 <= s < r:
            raise ValueError("need r >= 1 and 0 <= s < r")
        coeffs = [c if (self.offset + i - s) % r == 0 else 0
                  for i, c in enumerate(self.coeffs)]
        return TruncatedSeries(self.offset, coeffs, self.order)


# -- sparse kernels ----------------------------------------------------
#
# The expensive expansions in this package are all of the form
# "dense series times or divided by a very sparse one" (theta-style gap
# sequences).  These two kernels do every exact product and solve, dense
# ones included; the reduced twins live in modseries.  The m-table's
# three-term column recurrence (hmatrix.m_entry) is a plain comprehension,
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
