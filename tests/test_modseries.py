"""Reduced int64 kernels against the exact kernels and the sequential
reference, and the overflow guards."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from q3series import modseries
from q3series.eta import euler_terms, jacobi_cube_terms
from q3series.series import mul_sparse, solve_monic_sparse


def test_solve_matches_exact():
    n, mod = 400, 3**15
    terms = jacobi_cube_terms(1, n)
    rhs = list(range(1, n + 1))
    exact = solve_monic_sparse(terms, rhs, n)
    reduced = modseries.solve_monic_sparse_mod(terms, np.array(rhs, dtype=np.int64), n, mod)
    assert [v % mod for v in exact] == [int(v) for v in reduced]


def test_mul_matches_exact():
    n, mod = 400, 3**15
    terms = euler_terms(2, n)
    dense = [((-1) ** k) * k for k in range(n)]
    exact = mul_sparse(dense, terms, n)
    reduced = modseries.mul_sparse_mod(np.array(dense, dtype=np.int64), terms, n, mod)
    assert [v % mod for v in exact] == [int(v) for v in reduced]


def test_overflow_guard():
    with pytest.raises(OverflowError):
        modseries._check_overflow(nterms=10**6, mod=3**15)
    modseries._check_overflow(nterms=4000, mod=3**15)


MOD15 = 3**15


def test_block_overflow_guard():
    with pytest.raises(OverflowError):
        modseries._check_overflow(nterms=1, mod=MOD15, block=50000)
    modseries._check_overflow(nterms=1, mod=MOD15, block=40000)
    gaps, coeffs = modseries._prepare(jacobi_cube_terms(1, 50000)[1:], MOD15)
    with pytest.raises(OverflowError):
        modseries._solve_blocked(gaps, coeffs, np.ones(50000, dtype=np.int64), MOD15, block=50000)


@settings(max_examples=150, deadline=None)
@given(order=st.integers(1, 700), ell=st.sampled_from([0, 1, 2, 3, 5, 9, 27]),
       block=st.one_of(st.none(), st.integers(1, 800)), seed=st.integers(0, 2**32 - 1),
       mod=st.sampled_from([MOD15, 3**7]), split=st.integers(0, 700))
@example(order=1, ell=1, block=1, seed=0, mod=MOD15, split=0)
@example(order=300, ell=1, block=1, seed=1, mod=MOD15, split=0)
@example(order=300, ell=3, block=301, seed=2, mod=MOD15, split=0)
@example(order=300, ell=2, block=7, seed=3, mod=MOD15, split=0)
@example(order=300, ell=0, block=13, seed=4, mod=MOD15, split=0)
@example(order=200, ell=1, block=None, seed=5, mod=3**7, split=0)
@example(order=300, ell=1, block=None, seed=6, mod=MOD15, split=150)
@example(order=300, ell=1, block=7, seed=7, mod=MOD15, split=299)
@example(order=300, ell=0, block=None, seed=8, mod=MOD15, split=300)
def test_blocked_solve_matches_sequential(order, ell, block, seed, mod, split):
    """ell = 0 draws a random sparse operand; otherwise the operand is E(q^ell)^3.
    The blocked solve is given the reference's first k residues followed by
    the rest of the right-hand side, and solves the rest in place."""
    rng = np.random.default_rng(seed)
    if ell:
        gaps, coeffs = modseries._prepare(jacobi_cube_terms(ell, order)[1:], mod)
    else:
        gaps = np.unique(rng.integers(1, max(2, order), size=rng.integers(0, 40)))
        coeffs = rng.integers(0, mod, size=gaps.shape[0])
    rhs = rng.integers(0, mod, size=order)
    expected = modseries._solve_py(gaps, coeffs, rhs, mod)
    k = split % (order + 1)
    b = np.concatenate([expected[:k], rhs[k:]])
    got = modseries._solve_blocked(gaps, coeffs, b, mod, k, block=block)
    assert got is b and (got == expected).all()


def test_extend_to_a_shorter_order_returns_b():
    terms = jacobi_cube_terms(1, 40)
    b = modseries.solve_monic_sparse_mod(terms, np.ones(1, dtype=np.int64), 40, MOD15)
    for order in (0, 39, 40):
        assert modseries.extend_monic_sparse_mod(terms, (1,), b, order, MOD15) is b
    longer = modseries.extend_monic_sparse_mod(terms, (1,), b[:25], 40, MOD15)
    assert longer is not b and (longer == b).all()


@pytest.mark.parametrize("k", [0, 25, 39])
def test_extend_leaves_its_inputs_alone(k):
    # read-only inputs make any write to them raise; rhs is not reduced, and
    # its entries near the int64 minimum overflow an unreduced accumulator
    terms = jacobi_cube_terms(1, 40)
    rhs = np.arange(40, dtype=np.int64) * (MOD15 // 3) - 7
    rhs[1::3] = np.iinfo(np.int64).min + 5
    full = np.array([v % MOD15 for v in solve_monic_sparse(terms, rhs.tolist(), 40)])
    b = full[:k].copy()
    saved = b.copy(), rhs.copy()
    for a in (b, rhs):
        a.setflags(write=False)
    got = modseries.extend_monic_sparse_mod(terms, rhs, b, 40, MOD15)
    assert (got == full).all()
    assert (b == saved[0]).all() and (rhs == saved[1]).all()


def test_non_monic_rejected():
    with pytest.raises(ValueError):
        modseries.solve_monic_sparse_mod([(0, 2)], np.ones(4, dtype=np.int64), 4, 27)
