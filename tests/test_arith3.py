"""Valuations and primality."""

import pytest
from hypothesis import example, given, settings, strategies as st

from q3series.arith3 import is_prime, pi3


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


def _pi3_plain(n: int) -> int | None:
    """The plain loop pi3 is checked against: divide by 3 while it divides."""
    if n == 0:
        return None
    n, e = abs(n), 0
    while n % 3 == 0:
        n, e = n // 3, e + 1
    return e


class TestPi3Differential:
    """pi3 strips whole factors of 3^15 first; the plain loop is the oracle."""

    @pytest.mark.parametrize("u", [1, 2, 5, 3**15 - 1, 3**15 + 1, 7 * 10**300 + 1, 2**1000 + 1],
                             ids=["1", "2", "5", "3^15-1", "3^15+1", "7*10^300+1", "2^1000+1"])
    def test_unit_times_powers(self, u):
        # valuations across every multiple of 15 up to 60, either sign
        for k in range(61):
            for n in (u * 3**k, -u * 3**k):
                assert pi3(n) == _pi3_plain(n) == k

    @settings(max_examples=300)
    @given(st.integers(-10**400, 10**400), st.integers(0, 60))
    @example(0, 7)  # 0 -> None
    def test_matches_plain_loop(self, n, k):
        for m in (n, -n, n * 3**k):
            assert pi3(m) == _pi3_plain(m)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@settings(max_examples=100)
@given(st.integers(-10**6, 10**6).filter(lambda x: x != 0),
       st.integers(-10**6, 10**6).filter(lambda x: x != 0))
def test_pi3_additive_on_products(a, b):
    assert pi3(a * b) == pi3(a) + pi3(b)
