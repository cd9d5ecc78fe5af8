"""Euler products, quotients, and the classical cube/dissection identities."""

import pytest

from q3series import verifier
from q3series.eta import EtaQuotientSpec, eta_quotient, euler_terms, jacobi_cube_terms
from q3series.series import TruncatedSeries, solve_monic_sparse

from oracles import add, agrees_with, p_cap_series, power, substitute_power, terms


def naive_euler_product(r, order):
    """Direct finite product of (1 - q^{rm}); the oracle for the sparse build."""
    acc = TruncatedSeries.one(order)
    m = 1
    while r * m < order:
        acc = acc.mul(TruncatedSeries.from_terms([(0, 1), (r * m, -1)], order))
        m += 1
    return acc


class TestEulerSeries:
    def test_first_terms(self):
        assert euler_terms(1, 8) == [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1)]

    def test_scaled(self):
        assert euler_terms(3, 4) == [(0, 1), (3, -1)]

    def test_constant_term(self):
        for r in (1, 2, 5):
            assert euler_terms(r, 30)[0] == (0, 1)

    @pytest.mark.parametrize("r", [1, 2, 3, 9])
    def test_matches_naive_product(self, r):
        order = 120
        e = TruncatedSeries.from_terms(euler_terms(r, order), order)
        assert agrees_with(e, naive_euler_product(r, order))


class TestEtaQuotient:
    def test_regular_triple_counts(self):
        spec = EtaQuotientSpec(0, ((3, 3), (1, -3)))
        s = eta_quotient(spec, 4)
        assert [s.coeff(k) for k in range(4)] == [1, 3, 9, 19]

    def test_leading_negative_power(self):
        # E(q)^3 / (q E(q^9)^3) starts at q^{-1}
        spec = EtaQuotientSpec(-1, ((1, 3), (9, -3)))
        s = eta_quotient(spec, 5)
        assert s.offset == -1 and s.coeff(-1) == 1

    def test_empty_product(self):
        assert terms(eta_quotient(EtaQuotientSpec(), 6)) == [(0, 1)]

    def test_merges_duplicate_scales(self):
        spec = EtaQuotientSpec(0, ((3, 2), (3, 1), (1, -3)))
        assert spec.factors == ((1, -3), (3, 3))

    def test_quotient_times_denominator_restores_numerator(self):
        order = 80
        quot = eta_quotient(EtaQuotientSpec(0, ((3, 9), (1, -12))), order)
        num = eta_quotient(EtaQuotientSpec(0, ((3, 9),)), order)
        den = eta_quotient(EtaQuotientSpec(0, ((1, 12),)), order)
        assert agrees_with(quot.mul(den), num, upto=order)


def powered_product(spec, order):
    """Coefficients of q^s .. q^(order-1) of spec as a product of powers of
    E(q^r) or of its inverse, each by repeated squaring; the inverse is one
    back-substitution against the terms of E(q^r)."""
    rel = order - spec.power_of_q
    acc = TruncatedSeries.one(rel)
    for r, e in spec.factors:
        pent = euler_terms(r, rel)
        factor = (TruncatedSeries.from_terms(pent, rel) if e > 0 else
                  TruncatedSeries(0, solve_monic_sparse(pent, [1], rel), rel))
        acc = acc.mul(power(factor, abs(e)))
    return [acc.coeff(i) for i in range(rel)]


class TestEtaQuotientAgainstPowers:
    """eta_quotient takes E(q^r)^e as |e| // 3 Jacobi cubes and |e| % 3 single
    factors; repeated squaring knows neither split."""

    @staticmethod
    def check(spec, order):
        got = eta_quotient(spec, order)
        assert (got.offset, got.order) == (spec.power_of_q, order)
        assert list(got.coeffs) == powered_product(spec, order), str(spec)

    @pytest.mark.parametrize("e", range(-7, 8))
    def test_single_factor(self, e):
        for r in (1, 2, 3):
            for s in (-2, 0, 3):
                self.check(EtaQuotientSpec(s, ((r, e),)), 60)

    @pytest.mark.parametrize("text", ["q^-2 * E(1)^-7 * E(2)^5 * E(3)^4",
                                      "q^3 * E(1)^8 * E(2)^-1 * E(3)^-5"])
    def test_mixed_signs_and_scales(self, text):
        self.check(EtaQuotientSpec.parse(text), 60)

    def test_identity_quotients_and_ratio(self):
        # the factors a window applies: each identity's E(q^3)^num / E(q)^den,
        # and F = E(q^3)^12 / E(q)^12, whose first power the window chain holds
        pairs = sorted({(i.num, i.den) for i in verifier._IDENTITIES})
        assert len(pairs) == 10
        for num, den in pairs:
            self.check(EtaQuotientSpec(0, ((3, num), (1, -den))), 100)
        f = EtaQuotientSpec(0, ((3, 12), (1, -12)))
        self.check(f, 100)
        assert verifier._powers_of_ratio(100, 1)[1] == list(eta_quotient(f, 100).coeffs)


class TestGrammar:
    def test_parse_roundtrip(self):
        spec = EtaQuotientSpec.parse("q^-1 * E(1)^3 * E(9)^-3")
        assert spec.power_of_q == -1
        assert spec.factors == ((1, 3), (9, -3))
        assert EtaQuotientSpec.parse(str(spec)) == spec

    def test_default_exponent(self):
        assert EtaQuotientSpec.parse("E(2)").factors == ((2, 1),)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            EtaQuotientSpec.parse("E(0)^2 + q")


class TestJacobiCube:
    def test_first_terms(self):
        assert jacobi_cube_terms(1, 7) == [(0, 1), (1, -3), (3, 5), (6, -7)]

    def test_non_triangular_vanishes(self):
        assert 2 not in dict(jacobi_cube_terms(1, 7))

    def test_equals_cube_of_euler(self):
        order = 500
        cube = power(TruncatedSeries.from_terms(euler_terms(1, order), order), 3)
        assert agrees_with(TruncatedSeries.from_terms(jacobi_cube_terms(1, order), order), cube)


class TestLevelThreeSum:
    def test_first_terms(self):
        # oracle: enumerate n in [-10, 10] and collect (-1)^n (6n+1) q^{n(3n+1)/2}
        collected = {}
        for n in range(-10, 11):
            e = n * (3 * n + 1) // 2
            if e < 3:
                collected[e] = collected.get(e, 0) + (-1) ** (n % 2) * (6 * n + 1)
        s = p_cap_series(3)
        assert dict(terms(s)) == {e: c for e, c in collected.items() if c}
        assert s.coeff(0) == 1

    def test_cube_dissection(self):
        # E(q)^3 = P(q^3) - 3 q E(q^9)^3 coefficientwise
        order = 200
        lhs = TruncatedSeries.from_terms(jacobi_cube_terms(1, order), order)
        rhs = add(substitute_power(p_cap_series(order // 3 + 2), 3),
                  eta_quotient(EtaQuotientSpec(1, ((9, 3),)), order), -3)
        assert rhs.order >= order
        assert agrees_with(lhs, rhs, upto=order)


def test_ninth_power_quotient_congruences():
    # E(q^3)^9/E(q)^9 is congruent to E(q)^18 mod 27 and to E(q^3)^6 mod 9
    order = 200
    quot = eta_quotient(EtaQuotientSpec(0, ((3, 9), (1, -9))), order)
    e18 = power(TruncatedSeries.from_terms(euler_terms(1, order), order), 18)
    e36 = power(TruncatedSeries.from_terms(euler_terms(3, order), order), 6)
    for e in range(order):
        assert (quot.coeff(e) - e18.coeff(e)) % 27 == 0
        assert (quot.coeff(e) - e36.coeff(e)) % 9 == 0
