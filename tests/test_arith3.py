"""Valuations, primality and the Legendre symbol."""

import pytest
from hypothesis import given, settings, strategies as st

from q3series.arith3 import is_prime, legendre, pi3


class TestPi3:
    def test_basic(self):
        assert pi3(9) == 2
        assert pi3(8748) == 7  # 4 * 3^7
        assert pi3(1) == 0
        assert pi3(-27) == 3

    def test_zero_is_infinite(self):
        # the infinite valuation of 0 is None, which orders against no int
        assert pi3(0) is None
        with pytest.raises(TypeError):
            pi3(0) >= 5


class TestLegendre:
    def test_minus_three(self):
        assert legendre(-3, 5) == -1  # squares mod 5 are 1, 4
        assert legendre(-3, 7) == 1   # -3 is 4 = 2^2 mod 7
        assert legendre(10, 5) == 0

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            legendre(2, 9)
        with pytest.raises(ValueError):
            legendre(2, 2)

    @settings(max_examples=100)
    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]))
    def test_multiplicative(self, a, b, p):
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@settings(max_examples=100)
@given(st.integers(-10**6, 10**6).filter(lambda x: x != 0),
       st.integers(-10**6, 10**6).filter(lambda x: x != 0))
def test_pi3_additive_on_products(a, b):
    assert pi3(a * b) == pi3(a) + pi3(b)
