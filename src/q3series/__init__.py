"""Exact q-series arithmetic and 3-adic congruence verification for
colored partition triple counting functions."""

from .series import TruncatedSeries
from .eta import EtaQuotientSpec, euler_series, eta_quotient, jacobi_cube, p_cap_series
from .arith3 import pi3
from .hmatrix import check_h_lemma, huff, m_entry
from .vectors import CoeffVector, Family, check_valuation_bounds, family_vector, valuation_bound, x_vector
from .counts import CountingFunction, Kind, enumerate_count
from .verifier import (SuiteConfig, catalog, instantiate, run_suite,
                       verify_congruence, verify_gf_identity)

__all__ = [
    "TruncatedSeries", "EtaQuotientSpec", "euler_series", "eta_quotient",
    "jacobi_cube", "p_cap_series", "pi3",
    "check_h_lemma", "huff", "m_entry",
    "CoeffVector", "Family", "check_valuation_bounds", "family_vector",
    "valuation_bound", "x_vector", "CountingFunction", "Kind",
    "enumerate_count", "SuiteConfig", "catalog", "instantiate", "run_suite",
    "verify_congruence", "verify_gf_identity",
]
