"""Reduced coefficient arithmetic modulo a power of 3, on int64 arrays.

Divisibility by 3^e is decided by the residue mod 3^E for any E >= e, so
the long congruence scans run here instead of on exact big integers.  The
exact path stays authoritative: tests compare the two on shared prefixes.

Safety: with residues in [0, 3^E) a back-substitution accumulator is
bounded by mod + terms * mod^2, which must stay below 2^63.  Callers are
checked against that bound and must lower E or fall back to exact
arithmetic when it fails (it never triggers at this package's scales:
E = 15 sustains ~44000 sparse terms).

`BACKEND` names the kernels in use: "numba" when numba is importable,
otherwise "python", whose first use prints one line on stderr.
"""

from __future__ import annotations

import sys

import numpy as np

try:  # pragma: no cover - exercised implicitly by which path runs
    from numba import njit

    BACKEND = "numba"
except ImportError:  # pragma: no cover
    BACKEND = "python"

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


def _mul_py(dense, gaps, coeffs, mod):
    n = dense.shape[0]
    out = np.zeros(n, dtype=np.int64)
    for g, c in zip(gaps.tolist(), coeffs.tolist()):
        out[g:] = (out[g:] + c * dense[: n - g]) % mod
    return out


if BACKEND == "numba":

    @njit(cache=True, nogil=True)
    def _solve_nb(gaps, coeffs, rhs, mod):  # pragma: no cover - compiled
        n = rhs.shape[0]
        b = np.empty(n, dtype=np.int64)
        for i in range(n):
            s = rhs[i]
            for t in range(gaps.shape[0]):
                g = gaps[t]
                if g > i:
                    break
                s -= coeffs[t] * b[i - g]
            b[i] = s % mod
        return b

    @njit(cache=True, nogil=True)
    def _mul_nb(dense, gaps, coeffs, mod):  # pragma: no cover - compiled
        n = dense.shape[0]
        out = np.zeros(n, dtype=np.int64)
        for t in range(gaps.shape[0]):
            g = gaps[t]
            c = coeffs[t]
            for i in range(g, n):
                out[i] = (out[i] + c * dense[i - g]) % mod
        return out

    _solve_impl, _mul_impl = _solve_nb, _mul_nb
else:
    _solve_impl, _mul_impl = _solve_py, _mul_py

_fallback_announced = False


def _announce_backend() -> None:
    """Say once per process that the slow pure-Python kernels are running."""
    global _fallback_announced
    if BACKEND == "python" and not _fallback_announced:
        _fallback_announced = True
        print("q3series: numba is not installed; the reduced mod-3^15 engine runs its much "
              "slower pure-Python kernels (install the q3series[fast] extra)", file=sys.stderr)


def _prepare(terms, mod):
    gaps = np.array([g for g, _ in terms], dtype=np.int64)
    coeffs = np.array([c % mod for _, c in terms], dtype=np.int64)
    _check_overflow(len(terms), mod)
    return gaps, coeffs


def _check_overflow(nterms: int, mod: int) -> None:
    if mod + nterms * (mod - 1) ** 2 >= 2**63:
        raise OverflowError(
            f"accumulator bound exceeded: {nterms} terms at modulus {mod}; reduce the exponent"
        )


def solve_monic_sparse_mod(terms, rhs: np.ndarray, order: int, mod: int) -> np.ndarray:
    """b with a*b = rhs mod (q^order, mod); a given by sparse monic terms."""
    if not terms or terms[0] != (0, 1):
        raise ValueError("sparse operand must be monic with constant term 1")
    gaps, coeffs = _prepare([t for t in terms[1:] if t[0] < order], mod)
    r = np.zeros(order, dtype=np.int64)
    r[: min(len(rhs), order)] = rhs[: min(len(rhs), order)] % mod
    _announce_backend()
    return _solve_impl(gaps, coeffs, r, mod)


def mul_sparse_mod(dense: np.ndarray, terms, order: int, mod: int) -> np.ndarray:
    """Convolve a residue array with sparse terms, mod (q^order, mod)."""
    gaps, coeffs = _prepare([t for t in terms if t[0] < order], mod)
    d = np.zeros(order, dtype=np.int64)
    d[: min(len(dense), order)] = dense[: min(len(dense), order)] % mod
    _announce_backend()
    return _mul_impl(d, gaps, coeffs, mod)
