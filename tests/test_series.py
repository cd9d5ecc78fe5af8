"""Truncated-series arithmetic: frozen examples plus randomized ring laws."""

import pytest
from hypothesis import example, given, settings, strategies as st

from q3series.eta import euler_terms, jacobi_cube_terms
from q3series.series import TruncatedSeries, extend_monic_sparse, mul_sparse, solve_monic_sparse

from oracles import add, agrees_with, extract_progression, power, substitute_power, terms


def geometric(order):
    return TruncatedSeries(0, [1] * order, order)


class TestFromTerms:
    def test_constant(self):
        s = TruncatedSeries.from_terms([(0, 1)], 5)
        assert s.offset == 0 and s.order == 5
        assert terms(s) == [(0, 1)]

    def test_negative_exponent_placement(self):
        s = TruncatedSeries.from_terms([(-1, 1), (2, -3)], 4)
        assert s.offset == -1
        assert terms(s) == [(-1, 1), (2, -3)]

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
        assert terms(add(a, b)) == [(0, 2)]

    def test_offset_merge(self):
        a = TruncatedSeries.from_terms([(-1, 1)], 4)
        b = TruncatedSeries.from_terms([(1, 1)], 4)
        assert terms(add(a, b)) == [(-1, 1), (1, 1)]

    def test_order_is_min(self):
        a = TruncatedSeries.from_terms([(0, 1)], 10)
        b = TruncatedSeries.from_terms([(0, 1)], 7)
        assert add(a, b).order == 7


class TestMul:
    def test_geometric_telescopes(self):
        n = 12
        a = TruncatedSeries.from_terms([(0, 1), (1, -1)], n)
        prod = a.mul(geometric(n))
        assert terms(prod) == [(0, 1)]  # the -q^n term is beyond the window

    def test_offsets_sum(self):
        a = TruncatedSeries.from_terms([(-1, 1)], 3)
        b = TruncatedSeries.from_terms([(1, 1)], 5)
        assert terms(a.mul(b)) == [(0, 1)]

    def test_mul_inverse_roundtrip_window(self):
        # 1/E(q) to 50 terms times E(q) gives 1 on the window
        e = TruncatedSeries.from_terms(euler_terms(1, 50), 50)
        inv = TruncatedSeries(0, solve_monic_sparse(euler_terms(1, 50), [1], 50), 50)
        assert terms(e.mul(inv)) == [(0, 1)]


class TestInverse:
    def test_geometric(self):
        assert solve_monic_sparse([(0, 1), (1, -1)], [1], 5) == [1, 1, 1, 1, 1]

    def test_partition_numbers(self):
        # 1/E(q): partition numbers, against the direct part-by-part oracle
        def partitions_upto(order):
            ways = [1] + [0] * (order - 1)
            for part in range(1, order):
                for total in range(part, order):
                    ways[total] += ways[total - part]
            return ways

        assert solve_monic_sparse(euler_terms(1, 6), [1], 6) == partitions_upto(6)


class TestPow:
    def test_binomial_square(self):
        a = TruncatedSeries.from_terms([(0, 1), (1, 1)], 3)
        assert terms(power(a, 2)) == [(0, 1), (1, 2), (2, 1)]

    def test_cube_of_euler(self):
        cube = TruncatedSeries.from_terms(jacobi_cube_terms(1, 10), 10)
        assert agrees_with(power(TruncatedSeries.from_terms(euler_terms(1, 10), 10), 3), cube)

    def test_negative_exponent(self):
        # 1/E(q)^3 starts with the three-color counts
        inv = TruncatedSeries(0, solve_monic_sparse(euler_terms(1, 4), [1], 4), 4)
        assert list(power(inv, 3).coeffs) == [1, 3, 9, 22]


class TestSubstitute:
    def test_linear(self):
        a = TruncatedSeries.from_terms([(0, 1), (1, -1)], 2)
        assert terms(substitute_power(a, 3)) == [(0, 1), (3, -1)]

    def test_euler_scale_crosscheck(self):
        n = 40
        e1, e9 = (TruncatedSeries.from_terms(euler_terms(r, n), n) for r in (1, 9))
        assert agrees_with(substitute_power(e1, 9), e9, upto=n)

    def test_negative_offset(self):
        a = TruncatedSeries.from_terms([(-1, 1)], 2)
        assert terms(substitute_power(a, 3)) == [(-3, 1)]


class TestExtract:
    def test_multiples_kept_in_place(self):
        a = geometric(4)
        kept = extract_progression(a, 3, 0)
        assert terms(kept) == [(0, 1), (3, 1)]

    def test_unit_step_is_identity(self):
        a = TruncatedSeries.from_terms([(0, 2), (3, -1)], 5)
        assert agrees_with(extract_progression(a, 1, 0), a)


# -- randomized properties ------------------------------------------------

small_series = st.builds(
    lambda coeffs, offset: TruncatedSeries(offset, coeffs, offset + len(coeffs)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.integers(-3, 3),
)



@settings(max_examples=100)
@given(small_series, small_series, small_series)
def test_ring_axioms_on_common_window(a, b, c):
    assert agrees_with(add(add(a, b), c), add(a, add(b, c)))
    assert agrees_with(a.mul(b), b.mul(a))
    lhs = a.mul(add(b, c))
    rhs = add(a.mul(b), a.mul(c))
    assert agrees_with(lhs, rhs, upto=min(lhs.order, rhs.order))


@settings(max_examples=100)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
def test_inverse_roundtrip(tail):
    # a monic series times its solve against 1 is 1 on the window
    a = TruncatedSeries(0, [1] + tail, 1 + len(tail))
    inv = TruncatedSeries(0, solve_monic_sparse(terms(a), [1], a.order), a.order)
    assert terms(a.mul(inv)) == [(0, 1)]


@settings(max_examples=100)
@given(small_series, st.integers(1, 5))
def test_extraction_partition_of_unity(a, r):
    total = extract_progression(a, r, 0)
    for s in range(1, r):
        total = add(total, extract_progression(a, r, s))
    assert agrees_with(total, a)


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
