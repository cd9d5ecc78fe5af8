"""The huffing coefficient table and its structural identities."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from q3series import vectors
from q3series.arith3 import pi3
from q3series.eta import EtaQuotientSpec, eta_quotient
from q3series.series import TruncatedSeries
from q3series.vectors import m_entry

from oracles import add, agrees_with, check_h_lemma, extract_progression, pmij_bound, terms

# the five displayed seed rows, all 25 entries
DISPLAY = [
    [9, 0, 0, 0, 0],
    [6, 243, 0, 0, 0],
    [1, 243, 6561, 0, 0],
    [0, 90, 8748, 177147, 0],
    [0, 15, 4860, 295245, 4782969],
]


@functools.lru_cache(maxsize=None)
def plain_m(i, j):
    """The recurrence from the three displayed seed rows, without the band."""
    if i <= 3:
        return DISPLAY[i - 1][j - 1] if j <= 5 else 0
    if j == 1:
        return 0
    return 27 * plain_m(i - 1, j - 1) + 9 * plain_m(i - 2, j - 1) + plain_m(i - 3, j - 1)


def rows(imax, jmax):
    """Rows 1..imax of the table, each over columns 1..jmax."""
    return [[m_entry(i, j) for j in range(1, jmax + 1)] for i in range(1, imax + 1)]


@pytest.fixture
def cold_table(monkeypatch):
    """The shared table reset to its seed column for one test."""
    monkeypatch.setattr(vectors, "_COLUMNS", [[9, 6, 1]])


class TestTable:
    def test_display_block(self, cold_table):
        assert rows(5, 5) == DISPLAY

    def test_matches_plain_recurrence(self, cold_table):
        for j in range(1, 301):  # column by column keeps the recursion shallow
            for i in range(1, 301):
                assert m_entry(i, j) == plain_m(i, j), (i, j)

    def test_deep_entry_first(self, cold_table):
        assert m_entry(250, 120) == plain_m(250, 120)
        assert len(vectors._COLUMNS) == 120
        assert m_entry(4, 3) == 8748
        assert rows(5, 5) == DISPLAY
        assert [m_entry(i, 40) for i in range(1, 200)] == [plain_m(i, 40) for i in range(1, 200)]

    def test_rows_four_five_come_from_recurrence(self):
        assert m_entry(4, 2) == 27 * m_entry(3, 1) + 9 * m_entry(2, 1) + m_entry(1, 1) == 90
        assert m_entry(5, 2) == 27 * m_entry(4, 1) + 9 * m_entry(3, 1) + m_entry(2, 1) == 15
        assert m_entry(4, 3) == 27 * m_entry(3, 2) + 9 * m_entry(2, 2) + m_entry(1, 2) == 8748
        assert m_entry(5, 5) == 3**14

    def test_first_column_zero_beyond_row_three(self):
        assert all(m_entry(i, 1) == 0 for i in range(4, 30))

    def test_one_step_beyond_seeds(self):
        assert m_entry(6, 2) == 1  # 27*0 + 9*0 + m(3,1)

    def test_band(self):
        assert m_entry(3, 4) == 0       # above the diagonal
        assert m_entry(13, 4) == 0      # below the band floor
        assert m_entry(1, 1) == 9

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (-2, 3)])
    def test_indices_are_one_based(self, i, j):
        with pytest.raises(ValueError, match="indices are 1-based"):
            m_entry(i, j)

    def test_fitted_against_huffing_directly(self):
        # solve for the row coefficients from the operator identity itself:
        # (1/zeta)^i = q^i E(q^9)^{3i} / E(q)^{3i}, (1/T)^j = q^{3j} E(q^9)^{12j} / E(q^3)^{12j}
        order = 31
        for i in (4, 6, 7):
            inv_zeta_i = eta_quotient(EtaQuotientSpec(i, ((9, 3 * i), (1, -3 * i))), order)
            lhs = extract_progression(inv_zeta_i, 3, 0)
            fitted = []
            for j in range(1, order // 3 + 1):
                c = lhs.coeff(3 * j)
                fitted.append(c)
                inv_t_j = eta_quotient(EtaQuotientSpec(3 * j, ((9, 12 * j), (3, -12 * j))), order)
                lhs = add(lhs, inv_t_j, -c)
            assert terms(lhs) == []
            assert fitted == [m_entry(i, j) for j in range(1, len(fitted) + 1)]

    def test_valuation_floor(self):
        for i in range(1, 41):
            for j in range(1, 15):
                m = m_entry(i, j)
                assert m == 0 or pi3(m) >= pmij_bound(i, j), (i, j)


class TestHuff:
    def test_keeps_multiples_in_place(self):
        a = TruncatedSeries(0, [1, 1, 1, 1], 4)
        assert terms(extract_progression(a, 3, 0)) == [(0, 1), (3, 1)]

    def test_negative_exponents_kept(self):
        a = TruncatedSeries.from_terms([(-3, 1), (-1, 1)], 1)
        assert terms(extract_progression(a, 3, 0)) == [(-3, 1)]

    def test_base_quotient_huffs_to_single_term(self):
        # huffing 1/zeta gives 9/T on a decent window
        order = 31
        inv_zeta = eta_quotient(EtaQuotientSpec(1, ((9, 3), (1, -3))), order)
        lhs = extract_progression(inv_zeta, 3, 0)
        inv_t = eta_quotient(EtaQuotientSpec(3, ((9, 12), (3, -12))), order)
        assert all(lhs.coeff(e) == 9 * inv_t.coeff(e) for e in range(order))


class TestP0:
    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_holds(self, i):
        assert check_h_lemma("P0", i, 45)

    def test_wrong_leading_coefficient_detected(self):
        # same comparison with 8/T instead of 9/T must disagree
        order = 30
        inv_zeta = eta_quotient(EtaQuotientSpec(1, ((9, 3), (1, -3))), order)
        lhs = extract_progression(inv_zeta, 3, 0)
        inv_t = eta_quotient(EtaQuotientSpec(3, ((9, 12), (3, -12))), order)
        assert not all(lhs.coeff(e) == 8 * inv_t.coeff(e) for e in range(order))

    def test_window_guard(self):
        # the first right-hand term is 9 q^3 / ...: a window below q^3 sees none
        with pytest.raises(ValueError, match="sees no right-hand term"):
            check_h_lemma("P0", 1, 3)
        assert check_h_lemma("P0", 1, 4)
        with pytest.raises(ValueError, match="sees no right-hand term"):
            check_h_lemma("P3", 1, 0)


class TestHLemma:
    @pytest.mark.parametrize("variant", ["P1", "P2", "P3", "P4", "P5"])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_holds(self, variant, i):
        assert check_h_lemma(variant, i, 27)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            check_h_lemma("P9", 1, 9)


# -- operator properties ---------------------------------------------------

small = st.builds(
    lambda coeffs, offset: TruncatedSeries(offset, coeffs, offset + len(coeffs)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=9),
    st.integers(-4, 2),
)

cubic = st.builds(
    lambda coeffs: TruncatedSeries(0, [c for trip in zip(coeffs, [0] * 9, [0] * 9) for c in trip], 3 * len(coeffs)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3),
)


@settings(max_examples=100)
@given(small, small)
def test_huff_linear(a, b):
    huffed = [extract_progression(s, 3, 0) for s in (a, b, add(a, b))]
    assert agrees_with(huffed[2], add(huffed[0], huffed[1]))


@settings(max_examples=100)
@given(small)
def test_huff_idempotent_on_image(a):
    huffed = extract_progression(a, 3, 0)
    assert agrees_with(extract_progression(huffed, 3, 0), huffed)


@settings(max_examples=100)
@given(small, cubic)
def test_huff_commutes_with_cubic_multipliers(a, s3):
    lhs = extract_progression(a.mul(s3), 3, 0)
    rhs = extract_progression(a, 3, 0).mul(s3)
    assert agrees_with(lhs, rhs, upto=min(lhs.order, rhs.order))
