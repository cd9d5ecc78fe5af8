"""3-adic valuation and the primality test used by congruence checks.

A valuation is a plain int; the valuation of 0, which is infinite, is
None.  A caller that compares it against a bound must handle None first:
ordering None against an int raises TypeError, never a silent answer.
"""

from __future__ import annotations


_CHUNK = 3**15


def pi3(n: int) -> int | None:
    """Largest e with 3**e dividing n; None for n = 0.

    Whole factors of 3^15 come off a big n with one remainder each; the
    rest of the valuation, below 15, is that of the small residue n % 3^15.
    """
    if n == 0:
        return None
    e = 0
    while n % _CHUNK == 0:
        n //= _CHUNK
        e += 15
    r = n % _CHUNK
    while r % 3 == 0:
        r //= 3
        e += 1
    return e


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True

