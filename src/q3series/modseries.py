"""Reduced coefficient arithmetic modulo a power of 3, on int64 arrays.

Divisibility by 3^e is decided by the residue mod 3^E for any E >= e, so
the long congruence scans run here instead of on exact big integers.  The
exact path stays authoritative: tests compare the two on shared prefixes.

Safety: with residues in [0, 3^E) two int64 bounds must hold.  A
back-substitution or product accumulator sums up to one product per
sparse term onto a residue, so mod + nterms * (mod-1)^2 < 2^63; at E = 15
that sustains ~44000 sparse terms.  The blocked solve also convolves a
block of L residues with L residues of an inverse, so L * (mod-1)^2 < 2^63;
at E = 15 that allows L up to ~44700.  Both are checked, and a failure
raises OverflowError, which the command line reports as a refused request
(exit 2) and a suite as an error report.  At E = 15 a base of 1/E(q)^3
past about 1.0e9 coefficients (MR1 at alpha = beta = 4) trips the first
(`counts` checks it before it builds the terms); the default grids stay
far below.  The blocked solve keeps its
accumulator in the unsolved tail of the array it returns, starting from
the right-hand side reduced to residues.  Each slice update reads
positions before the current block and writes positions from the block's
start on, so no update reads what it writes, and the accumulated values,
hence the bound, are those of a separate accumulator.

`extend_monic_sparse_mod` solves only the positions past a known prefix,
like `series.extend_monic_sparse`.  `_solve_py` is the sequential
reference the tests compare the blocked solve against.
"""

from __future__ import annotations

import math

import numpy as np

# residues mod 3^15 cover every exponent the verifier asks about (max 12)
# with room for largest-holding-exponent diagnostics
STANDARD_EXPONENT = 15


def _solve_py(gaps, coeffs, rhs, mod):
    n = rhs.shape[0]
    b = np.zeros(n, dtype=np.int64)
    glist = gaps.tolist()
    clist = coeffs.tolist()
    rlist = rhs.tolist()
    blist = b.tolist()
    for i in range(n):
        s = rlist[i]
        for g, c in zip(glist, clist):
            if g > i:
                break
            s -= c * blist[i - g]
        blist[i] = s % mod
    return np.array(blist, dtype=np.int64)


# Long-gap terms are applied ahead in chunks of at most this many
# positions, so the accumulator slice stays in cache.
_CHUNK = 1 << 16


def _solve_blocked(gaps, coeffs, b, mod, k=0, block=None):
    """Same result as `_solve_py`, block by block with numpy, in place.

    `b[:k]` holds the first k residues of the solution and `b[k:]` the
    right-hand side of the positions after them; those positions are
    solved in place and `b` is returned.  The unknowns of a block [s, s+L)
    depend on earlier blocks and, through the terms with gap < L, on each
    other.  Every term's contribution from entries already known is
    subtracted from the unsolved tail of `b`, which is the accumulator, by
    one slice update, a long-gap term's as far ahead as the known entries
    reach.  What is left is the block times the short-gap part of the
    operand, so the block is its right-hand side convolved with that
    part's inverse, solved once to L coefficients.  `block` forces L
    (tests only).
    """
    n = b.shape[0]
    # 16*sqrt(nterms) balances the per-block Python work, which grows with
    # the number of short-gap terms, against the O(L^2) convolution per
    # block; it measured best on the suite's operands
    L = max(1, min(block or 16 * math.isqrt(len(gaps) + 1), n - k))
    _check_overflow(len(gaps), mod, L)
    unit = np.zeros(L, dtype=np.int64)
    unit[0] = 1
    near = int(np.searchsorted(gaps, L))
    inv = _solve_py(gaps[:near], coeffs[:near], unit, mod)
    chunk = max(L, _CHUNK)
    glist = gaps.tolist()
    clist = coeffs.tolist()
    done = list(glist)  # term t is accounted for at every position below done[t]
    b[k:] %= mod
    for s in range(k, n, L):
        e = min(s + L, n)
        for t, g in enumerate(glist):
            if g >= e:
                break
            if done[t] < e:
                lo = max(done[t], s)
                hi = min(s + g, n, lo + chunk)
                # reads positions below s, writes positions from s on
                b[lo:hi] -= clist[t] * b[lo - g:hi - g]
                done[t] = hi
        m = e - s
        b[s:e] = np.convolve(inv[:m], b[s:e] % mod)[:m] % mod
    return b


def _prepare(terms, mod):
    _check_overflow(len(terms), mod)
    gaps = np.array([g for g, _ in terms], dtype=np.int64)
    coeffs = np.array([c % mod for _, c in terms], dtype=np.int64)
    return gaps, coeffs


def _check_overflow(nterms: int, mod: int, block: int = 0) -> None:
    if mod + nterms * (mod - 1) ** 2 >= 2**63:
        raise OverflowError(
            f"accumulator bound exceeded: {nterms} terms at modulus {mod}; lower alpha, beta or n_max"
        )
    if block * (mod - 1) ** 2 >= 2**63:
        raise OverflowError(
            f"convolution bound exceeded: block length {block} at modulus {mod}; lower alpha, beta or n_max"
        )


def extend_monic_sparse_mod(terms, rhs, b, order: int, mod: int) -> np.ndarray:
    """Extend `b`, the first len(b) residues of the solution of a*b = rhs
    mod (q^order, mod), to `order`; a given by sparse monic terms.  Only the
    positions past len(b) are solved, into a new array that starts with `b`;
    `b` itself comes back when it is already `order` long."""
    if not terms or terms[0] != (0, 1):
        raise ValueError("sparse operand must be monic with constant term 1")
    b = np.asarray(b, dtype=np.int64)
    k = len(b)
    if order <= k:
        return b
    gaps, coeffs = _prepare([t for t in terms[1:] if t[0] < order], mod)
    tail = np.asarray(rhs[k:order], dtype=np.int64)
    out = np.zeros(order, dtype=np.int64)  # pages never written stay out of the RSS
    out[:k] = b
    out[k:k + len(tail)] = tail
    return _solve_blocked(gaps, coeffs, out, mod, k)


def solve_monic_sparse_mod(terms, rhs: np.ndarray, order: int, mod: int) -> np.ndarray:
    """b with a*b = rhs mod (q^order, mod); a given by sparse monic terms."""
    return extend_monic_sparse_mod(terms, rhs, (), order, mod)


def mul_sparse_mod(dense: np.ndarray, terms, order: int, mod: int) -> np.ndarray:
    """Convolve a residue array with sparse terms, mod (q^order, mod)."""
    gaps, coeffs = _prepare([t for t in terms if t[0] < order], mod)
    d = np.zeros(order, dtype=np.int64)
    d[: min(len(dense), order)] = dense[: min(len(dense), order)] % mod
    out = np.zeros(order, dtype=np.int64)
    for g, c in zip(gaps.tolist(), coeffs.tolist()):
        out[g:] += c * d[: order - g]
    return out % mod
