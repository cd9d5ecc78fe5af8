"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is exact integer arithmetic; tolerances are zero.  The
residue-class catalog entries are hypotheses whose nominal exponents
overshoot in part of the parameter grid; for those the expected outcome
table below was frozen from two independent engines (the exact path and
the reduced path agree everywhere, and a third plain-bignum prototype
audited every sampled point).  A FAIL entry must be *documented*: the
suite has to produce the counterexample payload, never crash.
"""

import hashlib
import random
import time

import pytest

from q3series.arith3 import pi3
from q3series.counts import CountingFunction, Kind, count_values
from q3series.eta import EtaQuotientSpec, eta_quotient, euler_terms, jacobi_cube_terms
from q3series.series import TruncatedSeries
from q3series.vectors import Family, family_vector, m_entry
from q3series.verifier import SuiteConfig, class_members, run_suite, verify_gf_identity

from oracles import (add, agrees_with, check_h_lemma, enumerate_count, extract_progression,
                     p_cap_series, pmij_bound, power, substitute_power)

pytestmark = pytest.mark.acceptance


def banner(num, ok, note=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {tag}{' - ' + note if note else ''}")
    assert ok, f"criterion {num}: {note}"


@pytest.fixture(scope="module")
def default_suite():
    t0 = time.monotonic()
    suite = run_suite(SuiteConfig())
    elapsed = time.monotonic() - t0
    return suite, elapsed


# sha256 of `q3series verify suite --format json` on the default grids, `SuiteConfig()`
DEFAULT_SUITE_SHA256 = "cb225afa8e62d8e15ca147b11e389e54cc661bfd8ca93a28ece81dd532157f6a"


def test_default_suite_digest(default_suite):
    suite, _ = default_suite
    text = "".join(suite.json_pieces())
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_SUITE_SHA256


def grid(suite, case):
    out = {}
    for r in suite.reports:
        if r.case == case:
            p = r.params
            out.setdefault((p.get("alpha"), p.get("beta")), {})[p["ell"]] = r
    return out


def test_criterion_01_seed_table():
    t0 = time.monotonic()
    block = [[m_entry(i, j) for j in range(1, 6)] for i in range(1, 6)]
    ok = block == [
        [9, 0, 0, 0, 0],
        [6, 243, 0, 0, 0],
        [1, 243, 6561, 0, 0],
        [0, 90, 8748, 177147, 0],
        [0, 15, 4860, 295245, 4782969],
    ]
    elapsed = time.monotonic() - t0
    banner(1, ok and elapsed < 1.0, f"25 seed entries exact, {elapsed:.2f}s")


def test_criterion_02_huffing_expansion_identity():
    t0 = time.monotonic()
    ok = all(check_h_lemma("P0", i, 45) for i in range(1, 6))
    elapsed = time.monotonic() - t0
    banner(2, ok and elapsed < 5.0, f"rows 1..5 at order 45, {elapsed:.2f}s")


def test_criterion_03_dissection_lemmas():
    t0 = time.monotonic()
    ok = all(check_h_lemma(v, i, 27)
             for v in ("P1", "P2", "P3", "P4", "P5") for i in (1, 2, 3))
    elapsed = time.monotonic() - t0
    banner(3, ok and elapsed < 10.0, f"five variants, i=1..3, order 27, {elapsed:.2f}s")


def test_criterion_04_valuation_lower_bounds():
    t0 = time.monotonic()
    ok = all(m == 0 or pi3(m) >= pmij_bound(i, j)
             for i in range(1, 41) for j in range(1, 15) for m in (m_entry(i, j),))
    for family in Family:  # CoeffVector refuses any entry below the bound
        grid = ([((k - 1) // 2, k) for k in range(1, 5)] if family is Family.X
                else [(a, mu) for a in range(2) for mu in range(1, 5)])
        for alpha, mu in grid:
            ok = ok and len(family_vector(family, alpha, mu, 6).values) == 6
    elapsed = time.monotonic() - t0
    banner(4, ok and elapsed < 10.0, f"table 40x14 and all families, {elapsed:.2f}s")


def test_criterion_05_classical_identities():
    t0 = time.monotonic()
    order = 300
    cube = TruncatedSeries.from_terms(jacobi_cube_terms(1, order), order)
    euler = TruncatedSeries.from_terms(euler_terms(1, order), order)
    cube_ok = agrees_with(cube, power(euler, 3), upto=order)
    rhs = add(substitute_power(p_cap_series(order // 3 + 2), 3),
              eta_quotient(EtaQuotientSpec(1, ((9, 3),)), order), -3)
    diss_ok = rhs.order >= order and agrees_with(cube, rhs, upto=order)
    elapsed = time.monotonic() - t0
    banner(5, cube_ok and diss_ok and elapsed < 5.0, f"order 300, {elapsed:.2f}s")


def test_criterion_06_base_extraction_identity():
    t0 = time.monotonic()
    rep = verify_gf_identity("H1", {"alpha": 0}, 60, "exact")
    elapsed = time.monotonic() - t0
    banner(6, rep.status == "PASS" and rep.extras["exact_equal"] and elapsed < 5.0,
           f"60 extracted terms, {elapsed:.2f}s")


# frozen expected outcomes for the residue-class families ("all" = every
# configured representative; otherwise the exact set of passing moduli)
REPS_ODD = {0: class_members(3, 4), 1: class_members(27, 4)}
REPS_EVEN = {0: class_members(9, 4), 1: class_members(81, 4)}

IDENTITY_MOD_PASS = {
    ("T24", 0, 0): "all", ("T24", 0, 1): {3}, ("T24", 1, 0): "all", ("T24", 1, 1): {27},
    ("T25", 0, 0): "all", ("T25", 0, 1): {3}, ("T25", 1, 0): "all", ("T25", 1, 1): {27},
    ("T31", 0, 0): "all", ("T31", 0, 1): {3}, ("T31", 1, 0): "all", ("T31", 1, 1): {27},
    ("T311", 0, 0): "all", ("T311", 0, 1): {3}, ("T311", 1, 0): "all", ("T311", 1, 1): {27},
    ("T32", 0, 0): "all", ("T32", 0, 1): {9, 63, 90}, ("T32", 1, 0): "all",
    ("T32", 1, 1): {81, 567, 810},
    ("T321", 0, 0): {9, 36, 63, 90}, ("T321", 0, 1): set(),
    ("T321", 1, 0): {81, 324, 567, 810}, ("T321", 1, 1): set(),
}

CONGRUENCE_CLASS_PASS = {
    ("MR7", 0, 0): "all", ("MR7", 0, 1): {3}, ("MR7", 1, 0): "all", ("MR7", 1, 1): {27},
    ("MR8", 0, 0): {3}, ("MR8", 0, 1): set(), ("MR8", 1, 0): {27}, ("MR8", 1, 1): set(),
    ("MR9", 0, 0): {3}, ("MR9", 0, 1): set(), ("MR9", 1, 0): {27}, ("MR9", 1, 1): set(),
    ("MR10", 0, 0): set(), ("MR10", 0, 1): set(), ("MR10", 1, 0): set(), ("MR10", 1, 1): set(),
    ("MR12", 0, 0): "all", ("MR12", 0, 1): {9, 63, 90}, ("MR12", 1, 0): "all",
    ("MR12", 1, 1): {81, 567, 810},
    ("MR13", 0, 0): "all", ("MR13", 0, 1): {63}, ("MR13", 1, 0): "all", ("MR13", 1, 1): {567},
    ("MR14", 0, 0): {9, 36, 63, 90}, ("MR14", 0, 1): set(),
    ("MR14", 1, 0): {81, 324, 567, 810}, ("MR14", 1, 1): set(),
    ("MR21", 0, 0): "all", ("MR21", 0, 1): {3}, ("MR21", 1, 0): "all", ("MR21", 1, 1): {27},
    ("MR22", 0, 0): {3, 12, 21, 30}, ("MR22", 0, 1): set(),
    ("MR22", 1, 0): {27, 108, 189, 270}, ("MR22", 1, 1): set(),
    ("MR23", 0, 0): "all", ("MR23", 0, 1): {3}, ("MR23", 1, 0): "all", ("MR23", 1, 1): {27},
    ("MR24", 0, 0): {3, 12}, ("MR24", 0, 1): set(),
    ("MR24", 1, 0): {27, 108}, ("MR24", 1, 1): set(),
}

ALWAYS_PASS_CASES = ("MR1", "MR2", "MR3", "MR4", "MR5", "MR6", "MR15", "MR16",
                     "MR17", "MR171", "MR18", "MR19", "MR20")


def _expected_set(marker, case, alpha):
    reps = REPS_EVEN if case in ("MR12", "MR13", "MR14", "T32", "T321") else REPS_ODD
    return set(reps[alpha]) if marker == "all" else set(marker)


def test_criterion_07_generating_function_identities(default_suite):
    suite, elapsed = default_suite
    problems = []
    # the single-power families are exact identities on the whole grid
    for case in ("H1", "H2", "T11", "D6", "T12", "T21", "T22", "T23"):
        for r in [r for r in suite.reports if r.case == case]:
            if r.status != "PASS" or r.extras.get("exact_equal") is not True:
                problems.append((case, r.params))
    # residue-class families: reduced-modulus outcomes must match the
    # frozen table, and each report must record its exact/mod verdicts
    for (case, a, b), marker in IDENTITY_MOD_PASS.items():
        expected = _expected_set(marker, case, a)
        got = {r.params["ell"] for r in suite.reports
               if r.case == case and r.params["alpha"] == a and r.params["beta"] == b and r.status == "PASS"}
        if got != expected:
            problems.append((case, a, b, "pass-set", sorted(got), sorted(expected)))
    for case in ("T24", "T25", "T31", "T311", "T32", "T321"):
        for r in [r for r in suite.reports if r.case == case]:
            if r.extras.get("exact_checked") is not True or r.extras.get("exact_equal") is not False:
                problems.append((case, r.params, "exactness record"))
        for a in (0, 1):
            passing_at_base = [r for r in suite.reports
                               if r.case == case and r.params["alpha"] == a and r.params["beta"] == 0
                               and r.status == "PASS"]
            if len(passing_at_base) < 4:
                problems.append((case, a, "fewer than four reduced-mode representatives"))
    class_records = sum(1 for r in suite.reports
                        if r.case in ("T24", "T25", "T31", "T311", "T32", "T321"))
    banner(7, not problems and elapsed < 600,
           f"28 exact + {class_records} class records, suite {elapsed:.0f}s"
           if not problems else str(problems[:4]))


def test_criterion_08_congruence_families(default_suite):
    suite, elapsed = default_suite
    problems = []
    for case in ALWAYS_PASS_CASES:
        reports = [r for r in suite.reports if r.case == case]
        if not reports:
            problems.append((case, "missing"))
        for r in reports:
            if r.status != "PASS":
                problems.append((case, r.params, r.status))
    documented = 0
    for (case, a, b), marker in CONGRUENCE_CLASS_PASS.items():
        expected = _expected_set(marker, case, a)
        rows = [r for r in suite.reports
                if r.case == case and r.params["alpha"] == a and r.params["beta"] == b]
        got = {r.params["ell"] for r in rows if r.status == "PASS"}
        if got != expected:
            problems.append((case, a, b, "pass-set", sorted(got), sorted(expected)))
        for r in rows:
            if r.status == "FAIL":
                documented += 1
                first = r.failures[0] if r.failures else {}
                holds = r.extras.get("holds_to_exponent",
                                     r.extras.get("branch_holds_to_exponent"))
                if not r.failures or holds is None or not (
                        {"n", "value", "valuation", "required"} <= set(first)):
                    problems.append((case, r.params, "incomplete counterexample"))
                elif holds >= r.extras["modulus_exponent"]:
                    problems.append((case, r.params, "inconsistent largest exponent"))
    mr11 = [r for r in suite.reports if r.case == "MR11"]
    if not mr11 or any(r.status != "FAIL" or not r.failures for r in mr11):
        problems.append(("MR11", "expected documented counterexamples everywhere"))
    documented += sum(1 for r in mr11 if r.status == "FAIL")
    banner(8, not problems and elapsed < 900,
           f"{documented} catalog overshoots documented with counterexamples, suite {elapsed:.0f}s"
           if not problems else str(problems[:4]))


def test_criterion_09_published_families_regression(default_suite):
    suite, _ = default_suite
    problems = []
    for case in ("G1", "B1", "B2", "B3", "B4", "T1", "T2", "T3"):
        rows = [r for r in suite.reports if r.case == case]
        betas = {r.params["beta"] for r in rows}
        if betas != {0, 1, 2} or any(r.status != "PASS" for r in rows):
            problems.append((case, sorted(betas), [r.status for r in rows]))
    banner(9, not problems, "published families at beta 0..2" if not problems else str(problems))


def test_criterion_10_open_statement_probes(default_suite):
    suite, _ = default_suite
    rows = [r for r in suite.reports if r.case in ("BC1", "BC2")]
    ok = len(rows) == 4 and all(
        r.status == "PASS" and r.extras.get("conjecture") is True for r in rows)
    banner(10, ok, "CONJECTURE/PASS for both open statements")


def test_criterion_11_enumeration_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    fns = [CountingFunction(Kind.P3)]
    fns += [CountingFunction(k, ell) for k in (Kind.REGULAR_TRIPLE, Kind.TWO_COLOR_TRIPLE)
            for ell in (2, 3, 6, 9, 15, 27)]
    for fn in fns:
        series = count_values(fn, 26)
        ok = ok and all(enumerate_count(fn, n) == series[n] for n in range(26))
    elapsed = time.monotonic() - t0
    banner(11, ok and elapsed < 60, f"13 functions to n=25, {elapsed:.1f}s")


def test_criterion_12_randomized_property_suites():
    t0 = time.monotonic()
    rng = random.Random(0xA5A5)

    def rand_series():
        offset = rng.randrange(-3, 4)
        coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 9))]
        return TruncatedSeries(offset, coeffs, offset + len(coeffs))

    ok = True
    for _ in range(100):  # ring laws on the common window
        a, b, c = rand_series(), rand_series(), rand_series()
        ok = ok and agrees_with(add(add(a, b), c), add(a, add(b, c)))
        ok = ok and agrees_with(a.mul(b), b.mul(a))
        lhs, rhs = a.mul(add(b, c)), add(a.mul(b), a.mul(c))
        ok = ok and agrees_with(lhs, rhs, upto=min(lhs.order, rhs.order))
    for _ in range(100):  # huffing linearity and cubic multipliers
        a, b = rand_series(), rand_series()
        ha, hb = extract_progression(a, 3, 0), extract_progression(b, 3, 0)
        ok = ok and agrees_with(extract_progression(add(a, b), 3, 0), add(ha, hb))
        s3 = substitute_power(rand_series(), 3)
        lhs, rhs = extract_progression(a.mul(s3), 3, 0), ha.mul(s3)
        ok = ok and agrees_with(lhs, rhs, upto=min(lhs.order, rhs.order))
    for _ in range(100):  # residue extraction partitions the series
        a = rand_series()
        r = rng.randrange(1, 6)
        total = extract_progression(a, r, 0)
        for s in range(1, r):
            total = add(total, extract_progression(a, r, s))
        ok = ok and agrees_with(total, a)
    for _ in range(100):  # valuation is additive on products
        x = rng.randrange(1, 10**9) * rng.choice([1, -1])
        y = rng.randrange(1, 10**9) * rng.choice([1, -1])
        ok = ok and pi3(x * y) == pi3(x) + pi3(y)
    elapsed = time.monotonic() - t0
    banner(12, ok and elapsed < 60, f"4 suites x 100 instances, {elapsed:.1f}s")
