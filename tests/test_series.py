"""Truncated-series arithmetic: frozen examples plus randomized ring laws."""

import pytest
from hypothesis import example, given, settings, strategies as st

from q3series.series import TruncatedSeries, extend_monic_sparse, mul_sparse, solve_monic_sparse


def geometric(order):
    return TruncatedSeries(0, [1] * order, order)


class TestFromTerms:
    def test_constant(self):
        s = TruncatedSeries.from_terms([(0, 1)], 5)
        assert s.offset == 0 and s.order == 5
        assert s.terms() == [(0, 1)]

    def test_negative_exponent_placement(self):
        s = TruncatedSeries.from_terms([(-1, 1), (2, -3)], 4)
        assert s.offset == -1
        assert s.terms() == [(-1, 1), (2, -3)]

    def test_square_truncates(self):
        # (1 - q + O(q^2))^2 = 1 - 2q + O(q^2), the q^2 term is garbage and dropped
        s = TruncatedSeries.from_terms([(0, 1), (1, -1)], 2)
        sq = s.mul(s)
        assert sq.order == 2
        assert [sq.coeff(e) for e in range(2)] == [1, -2]

    def test_exponent_outside_window_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_terms([(5, 1)], 5)


class TestAdd:
    def test_cancellation(self):
        a = TruncatedSeries.from_terms([(0, 1), (1, 1)], 4)
        b = TruncatedSeries.from_terms([(0, 1), (1, -1)], 4)
        assert a.add(b).terms() == [(0, 2)]

    def test_offset_merge(self):
        a = TruncatedSeries.from_terms([(-1, 1)], 4)
        b = TruncatedSeries.from_terms([(1, 1)], 4)
        assert a.add(b).terms() == [(-1, 1), (1, 1)]

    def test_order_is_min(self):
        a = TruncatedSeries.from_terms([(0, 1)], 10)
        b = TruncatedSeries.from_terms([(0, 1)], 7)
        assert a.add(b).order == 7


class TestMul:
    def test_geometric_telescopes(self):
        n = 12
        a = TruncatedSeries.from_terms([(0, 1), (1, -1)], n)
        prod = a.mul(geometric(n))
        assert prod.terms() == [(0, 1)]  # the -q^n term is beyond the window

    def test_offsets_sum(self):
        a = TruncatedSeries.from_terms([(-1, 1)], 3)
        b = TruncatedSeries.from_terms([(1, 1)], 5)
        assert a.mul(b).terms() == [(0, 1)]

    def test_mul_inverse_roundtrip_window(self):
        # 1/E(q) to 50 terms times E(q) gives 1 on the window
        from q3series.eta import euler_series

        e = euler_series(1, 50)
        assert e.mul(e.inverse()).terms() == [(0, 1)]


class TestInverse:
    def test_geometric(self):
        a = TruncatedSeries.from_terms([(0, 1), (1, -1)], 5)
        assert [a.inverse().coeff(k) for k in range(5)] == [1, 1, 1, 1, 1]

    def test_partition_numbers(self):
        # 1/E(q): partition numbers, against the direct part-by-part oracle
        from q3series.eta import euler_series

        def partitions_upto(order):
            ways = [1] + [0] * (order - 1)
            for part in range(1, order):
                for total in range(part, order):
                    ways[total] += ways[total - part]
            return ways

        inv = euler_series(1, 6).inverse()
        assert [inv.coeff(k) for k in range(6)] == partitions_upto(6)

    def test_valuation_shift(self):
        a = TruncatedSeries.from_terms([(1, 1), (2, -1)], 6)  # q(1-q)
        inv = a.inverse()
        assert inv.offset == -1
        assert inv.coeff(-1) == 1 and inv.coeff(0) == 1

    def test_nonunit_lead_rejected(self):
        a = TruncatedSeries.from_terms([(0, 2)], 4)
        with pytest.raises(ValueError):
            a.inverse()

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            TruncatedSeries.zero(4).inverse()


class TestPow:
    def test_binomial_square(self):
        a = TruncatedSeries.from_terms([(0, 1), (1, 1)], 3)
        assert a.pow(2).terms() == [(0, 1), (1, 2), (2, 1)]

    def test_cube_of_euler(self):
        from q3series.eta import euler_series, jacobi_cube

        assert euler_series(1, 10).pow(3).agrees_with(jacobi_cube(10))

    def test_negative_exponent(self):
        # 1/E(q)^3 starts with the three-color counts
        from q3series.eta import euler_series

        s = euler_series(1, 4).pow(-3)
        assert [s.coeff(k) for k in range(4)] == [1, 3, 9, 22]


class TestSubstitute:
    def test_linear(self):
        a = TruncatedSeries.from_terms([(0, 1), (1, -1)], 2)
        assert a.substitute_power(3).terms() == [(0, 1), (3, -1)]

    def test_euler_scale_crosscheck(self):
        from q3series.eta import euler_series

        n = 40
        assert euler_series(1, n).substitute_power(9).agrees_with(euler_series(9, n), upto=n)

    def test_negative_offset(self):
        a = TruncatedSeries.from_terms([(-1, 1)], 2)
        assert a.substitute_power(3).terms() == [(-3, 1)]


class TestExtract:
    def test_multiples_kept_in_place(self):
        a = geometric(4)
        kept = a.extract_progression(3, 0)
        assert kept.terms() == [(0, 1), (3, 1)]

    def test_unit_step_is_identity(self):
        a = TruncatedSeries.from_terms([(0, 2), (3, -1)], 5)
        assert a.extract_progression(1, 0).agrees_with(a)


# -- randomized properties ------------------------------------------------

small_series = st.builds(
    lambda coeffs, offset: TruncatedSeries(offset, coeffs, offset + len(coeffs)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.integers(-3, 3),
)

unimodular = st.builds(
    lambda lead, coeffs: TruncatedSeries(0, [lead] + coeffs, 1 + len(coeffs)),
    st.sampled_from([1, -1]),
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
)


@settings(max_examples=100)
@given(small_series, small_series, small_series)
def test_ring_axioms_on_common_window(a, b, c):
    assert a.add(b).add(c).agrees_with(a.add(b.add(c)))
    assert a.mul(b).agrees_with(b.mul(a))
    lhs = a.mul(b.add(c))
    rhs = a.mul(b).add(a.mul(c))
    assert lhs.agrees_with(rhs, upto=min(lhs.order, rhs.order))


@settings(max_examples=100)
@given(unimodular)
def test_inverse_roundtrip(a):
    prod = a.mul(a.inverse())
    assert prod.terms() == [(0, 1)]


@settings(max_examples=100)
@given(small_series, st.integers(1, 5))
def test_extraction_partition_of_unity(a, r):
    total = a.extract_progression(r, 0)
    for s in range(1, r):
        total = total.add(a.extract_progression(r, s))
    assert total.agrees_with(a)


def schoolbook(a, b, n):
    """First n coefficients of the product of two coefficient lists,
    out[k] = sum(a[i] * b[k - i]), written without the package's kernels."""
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) for k in range(n)]


def back_substitution(terms, rhs, n):
    """First n coefficients of b with a * b = rhs, a monic with (gap, coeff)
    terms, one position at a time without the package's kernels."""
    b = []
    for k in range(n):
        b.append((rhs[k] if k < len(rhs) else 0) - sum(c * b[k - g] for g, c in terms[1:] if g <= k))
    return b


def test_sparse_kernels_match_dense_ops():
    from q3series.eta import euler_terms

    n = 60
    terms = euler_terms(1, n)
    dense = list(range(1, n + 1))
    sparse = TruncatedSeries.from_terms(terms, n).coeffs
    assert mul_sparse(dense, terms, n) == schoolbook(sparse, dense, n)
    solved = solve_monic_sparse(terms, dense, n)
    assert mul_sparse(solved, terms, n) == dense


zero_heavy = st.lists(st.one_of(st.just(0), st.integers(-9, 9)), max_size=10)


@settings(max_examples=100)
@given(zero_heavy, st.integers(-4, 4), zero_heavy, st.integers(-4, 4))
@example([0, 0, 5], -2, [1, -1, 0, 2], -1)  # the window starts with zeros
@example([3], -3, [], 1)                    # an empty window truncates to nothing
def test_product_matches_schoolbook(a, a_off, b, b_off):
    x = TruncatedSeries(a_off, a, a_off + len(a))
    y = TruncatedSeries(b_off, b, b_off + len(b))
    prod = x.mul(y)
    assert prod.order == min(x.order + b_off, y.order + a_off)
    want = schoolbook(a, b, max(prod.order - a_off - b_off, 0))
    assert [prod.coeff(e) for e in range(a_off + b_off, prod.order)] == want


coefficient = st.one_of(st.sampled_from([-1, 1]), st.integers(-10**6, 10**6))


@settings(max_examples=100)
@given(st.lists(st.integers(-10**6, 10**6), max_size=30),
       st.dictionaries(st.integers(0, 40), coefficient, max_size=8),
       st.integers(1, 30))
@example([1, 2, 3], {0: 1, 2: -1, 3: 7, 5: 2}, 3)  # a gap at order, then one past it
@example([4, 0, -5, 6], {1: -1, 5: 2}, 6)          # dense shorter than order
def test_mul_sparse_matches_schoolbook(dense, by_gap, order):
    terms = sorted(by_gap.items())
    sparse = [by_gap.get(g, 0) for g in range(max(by_gap, default=-1) + 1)]
    assert mul_sparse(dense, terms, order) == schoolbook(sparse, dense, order)


big = st.integers(2**64, 2**80)
signed = st.one_of(st.integers(-9, 9), big, big.map(lambda v: -v))


@settings(max_examples=200)
@given(st.dictionaries(st.integers(1, 40), signed, max_size=8),
       st.lists(st.one_of(st.just(0), signed), max_size=45),
       st.integers(0, 40), st.integers(0, 40), st.lists(st.integers(0, 40), max_size=2))
@example({1: -1}, [1], 12, 0, [])                     # 1/(1 - q): all ones
@example({3: 2**70, 5: -7}, [0, 0, 9], 20, 4, [9, 4])  # a cut below the prefix is a no-op
def test_extend_monic_sparse_matches_back_substitution(by_gap, rhs, order, start, cuts):
    # grown from a prefix of `start` coefficients in one to three pieces
    terms = [(0, 1)] + sorted(by_gap.items())
    want = back_substitution(terms, rhs, max(start, *cuts, order))
    b = want[:start]
    for cut in [*cuts, order]:
        assert extend_monic_sparse(terms, rhs, b, cut) is b
    assert b == want


def test_extend_monic_sparse_edges():
    terms = [(0, 1), (2, -3)]
    b = [1, 2, 3]
    assert extend_monic_sparse(terms, [5], b, 3) is b and b == [1, 2, 3]
    assert extend_monic_sparse(terms, [5], b, 1) is b and b == [1, 2, 3]
    assert solve_monic_sparse(terms, [5], 0) == []
    for head in ([], [(0, 2)], [(1, 1)], [(0, -1), (1, 1)]):
        with pytest.raises(ValueError, match="monic"):
            extend_monic_sparse(head, [1], [], 4)
