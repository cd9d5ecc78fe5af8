"""Exact q-series arithmetic and 3-adic congruence verification for
colored partition triple counting functions."""

from .series import TruncatedSeries
from .eta import EtaQuotientSpec, eta_quotient
from .arith3 import pi3
from .vectors import CoeffVector, Family, family_vector, m_entry, valuation_bound
from .counts import CountingFunction, Kind
from .verifier import (SuiteConfig, catalog, instantiate, run_suite,
                       verify_congruence, verify_gf_identity)

__all__ = [
    "TruncatedSeries", "EtaQuotientSpec", "eta_quotient", "pi3",
    "CoeffVector", "Family", "family_vector", "m_entry", "valuation_bound",
    "CountingFunction", "Kind", "SuiteConfig", "catalog", "instantiate",
    "run_suite", "verify_congruence", "verify_gf_identity",
]
