"""Catalog integrity, instantiation, and the verification engines."""

import contextlib
import dataclasses
import hashlib
import inspect
import io
import itertools
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from q3series import cli, counts, modseries, vectors, verifier
from q3series.arith3 import pi3
from q3series.counts import Kind
from q3series.eta import EtaQuotientSpec, eta_quotient
from q3series.report import FAIL, PASS, SKIPPED, Report, dumps
from q3series.series import TruncatedSeries
from q3series.vectors import Family, family_vector, valuation_bound
from q3series.verifier import (SuiteConfig, SuiteReport, _exact_div, catalog, class_members,
                               instantiate, run_suite, verify_congruence, verify_gf_identity)

from oracles import power

# json.loads of suite_json(run_suite(SuiteConfig(**TestSuite.CFG))) at the default thresholds
# ("default") and with exact_threshold = identity_exact_cap = 200 ("reduced"),
# where 39 congruence and 2 identity jobs read the reduced engine.  Regenerate
# it only with a change that is meant to alter reports.
GOLDEN = Path(__file__).parent / "data" / "suite_small_golden.json"
# the benchmark's identity catalog at a 100-term window
IDENTITY_WINDOWS = Path(__file__).parent.parent / "perfbench" / "configs" / "identity-windows.json"


def suite_json(suite) -> str:
    """The text `verify suite --format json` writes for `suite`."""
    return "".join(suite.json_pieces())


class TestCatalog:
    def test_complete(self):
        cat = catalog()
        ids = {c.id for c in cat["congruences"]}
        expected = {f"MR{i}" for i in range(1, 25)} | {"MR171", "G1", "B1", "B2", "B3", "B4",
                                                       "T1", "T2", "T3", "BC1", "BC2"}
        assert ids == expected
        identity_ids = {i.id for i in cat["identities"]}
        assert identity_ids == {"H1", "H2", "T11", "D6", "T12", "T21", "T22", "T23",
                                "T24", "T25", "T31", "T311", "T32", "T321"}

    def test_exponent_formulas(self):
        by_id = {c.id: c for c in catalog()["congruences"]}
        assert by_id["MR1"].exponent({"alpha": 2, "beta": 3}) == 3 * 2 + 2 * 3 + 2
        assert by_id["BC2"].exponent({"k": 2, "m": 1}) == 3 * 2 + 2 * 1 - 1
        assert by_id["T3"].exponent({"beta": 3}) == 2 * 3 + 4

    def test_conjectures_flagged(self):
        by_id = {c.id: c for c in catalog()["congruences"]}
        assert by_id["BC1"].conjecture and by_id["BC2"].conjecture
        assert not by_id["MR1"].conjecture


class TestInstantiate:
    def test_overlap_with_prior_base_cases(self):
        # the alpha=beta=0 member of the first family is the published base case
        a = instantiate("MR1", {"alpha": 0, "beta": 0})
        g = instantiate("G1", {"beta": 0})
        assert (a.progression, a.exponent, a.fn) == (g.progression, g.exponent, g.fn)
        b = instantiate("MR5", {"alpha": 0, "beta": 0})
        b1 = instantiate("B1", {"beta": 0})
        assert (b.progression, b.exponent, b.fn) == (b1.progression, b1.exponent, b1.fn)

    def test_shift_examples(self):
        inst = instantiate("MR15", {"alpha": 0, "beta": 0})
        assert inst.fn.label() == "twocolor(3)" and inst.progression.A == 3
        assert inst.progression.B == 2 and inst.exponent == 2
        inst = instantiate("MR5", {"alpha": 0, "beta": 0})
        assert (inst.progression.A, inst.progression.B) == (3, 2)

    def test_class_membership_enforced(self):
        instantiate("MR7", {"alpha": 0, "beta": 0, "ell": 15})
        with pytest.raises(ValueError):
            instantiate("MR7", {"alpha": 0, "beta": 0, "ell": 9})
        with pytest.raises(ValueError):
            instantiate("MR12", {"alpha": 0, "beta": 0, "ell": 27})

    def test_prime_classes_enforced(self):
        instantiate("MR4", {"alpha": 0, "beta": 0, "p": 7, "k": 0})
        with pytest.raises(ValueError):
            instantiate("MR4", {"alpha": 0, "beta": 0, "p": 5, "k": 0})
        with pytest.raises(ValueError):
            instantiate("MR16", {"alpha": 0, "beta": 0, "p": 7, "k": 0})
        instantiate("MR16", {"alpha": 0, "beta": 0, "p": 5, "k": 0})

    @pytest.mark.parametrize("case_id", ["MR4", "MR11", "MR16", "MR20", "B4"])
    def test_prime_class_rows_match_the_paper_predicates(self, case_id):
        # the residue rows against each class as the paper states it: (-3/p) = -1
        # by Euler's criterion, primality by a sieve, every p below 20,000
        limit = 20_000
        sieve = [False, False] + [True] * (limit - 2)
        for d in range(2, int(limit**0.5) + 1):
            if sieve[d]:
                sieve[d * d::d] = [False] * len(range(d * d, limit, d))

        def nonresidue(p):
            return pow(-3, (p - 1) // 2, p) == p - 1

        old = {"3mod4": (lambda p: p % 4 == 3, "a prime congruent to 3 mod 4"),
               "odd": (lambda p: p != 2, "an odd prime"),
               "nonresidue-3": (lambda p: p != 2 and nonresidue(p),
                                "an odd prime with -3 a nonresidue mod p")}
        case = verifier._CASE_BY_ID[case_id]
        admits, text = old[case.prime_class]
        # depths 0, and for MR11 ell = 3, the base of its class at alpha = 0
        base = {name: 3 if name == "ell" else 0 for name in case.param_names if name != "p"}
        accepted = 0
        for p in range(limit):
            if sieve[p] and admits(p):
                assert case.instantiate(base | {"p": p}).params["p"] == p
                accepted += 1
            else:
                with pytest.raises(ValueError) as err:
                    case.instantiate(base | {"p": p})
                assert str(err.value) == f"{case_id}: p={p} must be {text}"
        assert accepted > 1000

    def test_non_integral_shift_is_hard_error(self):
        with pytest.raises(ValueError):
            _exact_div(7, 8)

    def test_unknown_case(self):
        with pytest.raises(KeyError):
            instantiate("MR99", {})

    def test_class_member_sets(self):
        assert class_members(3, 4) == [3, 6, 12, 15, 21, 24, 30, 33]
        assert class_members(9, 2) == [9, 18, 36, 45]

    @pytest.mark.parametrize("case_id, params", [
        ("MR5", {"alpha": 0, "beta": -1}),   # exponent 0: would pass anything
        ("B1", {"beta": -1}),
        ("T1", {"beta": -1}),
        ("MR4", {"alpha": 0, "beta": 0, "p": 7, "k": -1}),
        ("MR1", {"alpha": -1, "beta": 0}),
        ("BC1", {"k": 1, "m": -1}),
    ])
    def test_negative_parameters_rejected(self, case_id, params):
        name = next(k for k, v in params.items() if v < 0)
        with pytest.raises(ValueError, match=f"{case_id}: {name}=-1 must be at least 0"):
            instantiate(case_id, params)

    @pytest.mark.parametrize("value", [1.7, True, "0"])
    def test_non_integer_parameter_rejected(self, value):
        # int() would check alpha = 1 (or 0) and report it as the value given
        with pytest.raises(ValueError) as exc:
            verify_congruence("MR1", {"alpha": value, "beta": 0}, 5)
        assert str(exc.value) == f"MR1: alpha={value!r} must be an integer"

    def test_unknown_parameter_rejected(self):
        # MR1's ell is 3^(2 alpha + 1): a stray ell would be dropped and regular(3) checked
        with pytest.raises(ValueError) as exc:
            verify_congruence("MR1", {"alpha": 0, "beta": 0, "ell": 9}, 5)
        assert str(exc.value) == "MR1 takes no parameters ['ell']; it takes ['alpha', 'beta']"

    def test_negative_power_of_three_rejected(self):
        # a grid that would write 3^-1 as an ell is refused at construction
        with pytest.raises(ValueError, match="field 'alphas' must be a list of integers from 0"):
            SuiteConfig(**dict(TestSuite.CFG, alphas=(-1,)))


def _p3(e):
    return 3**e


# The nine identities whose congruence is cataloged, with their progressions
# as written out per identity before `GfIdentity.implies` existed:
# (implied case, kind, ell or class base, residue class?, A, B_num, exponent).
# B = B_num / 8; a residue-class identity takes any ell = +-base mod 3*base.
LINKED = {
    "T11": ("MR1", Kind.REGULAR_TRIPLE, lambda P: _p3(2 * P["alpha"] + 1), False,
            lambda P: _p3(2 * P["alpha"] + 2 * P["beta"] + 1),
            lambda P: 2 * _p3(2 * P["alpha"] + 2 * P["beta"] + 2) - _p3(2 * P["alpha"] + 1) + 1,
            lambda P: 3 * P["alpha"] + 2 * P["beta"] + 2),
    "T12": ("MR5", Kind.REGULAR_TRIPLE, lambda P: _p3(2 * P["alpha"] + 2), False,
            lambda P: _p3(2 * P["alpha"] + P["beta"] + 1),
            lambda P: 8 * _p3(2 * P["alpha"] + P["beta"] + 1) - _p3(2 * P["alpha"] + 2) + 1,
            lambda P: 3 * P["alpha"] + 2 * P["beta"] + 2),
    "T21": ("MR15", Kind.TWO_COLOR_TRIPLE, lambda P: _p3(2 * P["alpha"] + 1), False,
            lambda P: _p3(2 * P["alpha"] + P["beta"] + 1),
            lambda P: 4 * _p3(2 * P["alpha"] + P["beta"] + 1) + _p3(2 * P["alpha"] + 1) + 1,
            lambda P: 3 * P["alpha"] + P["beta"] + 2),
    "T22": ("MR17", Kind.TWO_COLOR_TRIPLE, lambda P: _p3(2 * P["alpha"] + 2), False,
            lambda P: _p3(2 * P["alpha"] + 2 * P["beta"] + 1),
            lambda P: 2 * _p3(2 * P["alpha"] + 2 * P["beta"] + 1) + _p3(2 * P["alpha"] + 2) + 1,
            lambda P: 3 * P["alpha"] + 2 * P["beta"] + 2),
    "T24": ("MR21", Kind.TWO_COLOR_TRIPLE, lambda P: _p3(2 * P["alpha"] + 1), True,
            lambda P: _p3(2 * P["alpha"] + 2 * P["beta"] + 1),
            lambda P: 7 * _p3(2 * P["alpha"] + 2 * P["beta"] + 1) - 2 * _p3(2 * P["alpha"] + 1) + 1,
            lambda P: 3 * P["alpha"] + 3 * P["beta"] + 2),
    "T25": ("MR23", Kind.TWO_COLOR_TRIPLE, lambda P: _p3(2 * P["alpha"] + 1), True,
            lambda P: _p3(2 * P["alpha"] + 2 * P["beta"] + 2),
            lambda P: 5 * _p3(2 * P["alpha"] + 2 * P["beta"] + 2) - 2 * _p3(2 * P["alpha"] + 1) + 1,
            lambda P: 3 * P["alpha"] + 3 * P["beta"] + 3),
    "T31": ("MR7", Kind.REGULAR_TRIPLE, lambda P: _p3(2 * P["alpha"] + 1), True,
            lambda P: _p3(2 * P["alpha"] + 2 * P["beta"] + 1),
            lambda P: _p3(2 * P["alpha"] + 2 * P["beta"] + 2) + 2 * _p3(2 * P["alpha"] + 1) + 1,
            lambda P: 3 * P["alpha"] + P["beta"] + 2),
    "T32": ("MR12", Kind.REGULAR_TRIPLE, lambda P: _p3(2 * P["alpha"] + 2), True,
            lambda P: _p3(2 * P["alpha"] + 2 * P["beta"] + 2),
            lambda P: 5 * _p3(2 * P["alpha"] + 2 * P["beta"] + 2) + 2 * _p3(2 * P["alpha"] + 2) + 1,
            lambda P: 3 * P["alpha"] + 3 * P["beta"] + 4),
    "T321": ("MR14", Kind.REGULAR_TRIPLE, lambda P: _p3(2 * P["alpha"] + 2), True,
             lambda P: _p3(2 * P["alpha"] + 2 * P["beta"] + 3),
             lambda P: 7 * _p3(2 * P["alpha"] + 2 * P["beta"] + 3) + 2 * _p3(2 * P["alpha"] + 2) + 1,
             lambda P: 3 * P["alpha"] + 3 * P["beta"] + 6),
}
UNLISTED = ("H1", "H2", "D6", "T23", "T311")  # their congruences are not cataloged


class TestIdentityLink:
    def test_implied_cases(self):
        cases = catalog()["congruences"]
        by_id = {c.id: c for c in cases}
        identities = {i.id: i for i in catalog()["identities"]}
        assert set(identities) == set(LINKED) | set(UNLISTED)
        for iid, (case_id, *_) in LINKED.items():
            assert identities[iid].implies is by_id[case_id]
        for iid in UNLISTED:
            implies = identities[iid].implies
            assert implies.id == iid and iid not in by_id
            assert all(c is not implies for c in cases)
        assert identities["H1"].implies.kind is Kind.P3 is identities["H2"].implies.kind

    @pytest.mark.parametrize("iid", sorted(LINKED))
    def test_progression_matches_reference(self, iid):
        _, kind, base, residue_class, A, B_num, exponent = LINKED[iid]
        for alpha in range(4):
            for beta in range(4):
                P = {"alpha": alpha, "beta": beta}
                for ell in class_members(base(P), 2) if residue_class else [base(P)]:
                    params = dict(P, ell=ell) if residue_class else P
                    _, inst = verifier._identity_instance(iid, params)
                    assert inst.record.id == iid and inst.params == params
                    assert inst.fn.label() == f"{kind.value}({ell})"
                    assert B_num(params) % 8 == 0
                    assert (inst.progression.A, inst.progression.B, inst.exponent) == \
                        (A(params), B_num(params) // 8, exponent(params))

    def test_lemma_exponent_is_the_family_bound(self):
        # the bound on entry 1 of the identity's family vector is the
        # exponent of the congruence it implies; a class takes its least member
        points = 0
        for identity in catalog()["identities"]:
            names = identity.implies.param_names
            for alpha in range(4):
                for beta in range(4):
                    params = {n: v for n, v in (("alpha", alpha), ("beta", beta)) if n in names}
                    if "ell" in names:
                        params["ell"] = identity.implies.ell.base(alpha)
                    _, inst = verifier._identity_instance(identity.id, params)
                    level = identity.level(params)
                    assert valuation_bound(identity.family, alpha, level, 1) == inst.exponent, \
                        (identity.id, params)
                    points += 1
        assert points == 224

    def test_errors_name_the_identity(self):
        with pytest.raises(ValueError, match=r"^T11 needs parameters \['beta'\]$"):
            verify_gf_identity("T11", {"alpha": 0})
        with pytest.raises(ValueError, match=r"^T31: beta=-1 must be at least 0$"):
            verify_gf_identity("T31", {"alpha": 0, "beta": -1, "ell": 3})
        with pytest.raises(KeyError):
            verifier._identity_instance("MR1", {"alpha": 0, "beta": 0})

    def test_parameter_the_implied_congruence_does_not_take(self):
        # H1 implies a p3 congruence in alpha alone; a beta would be dropped
        with pytest.raises(ValueError) as exc:
            verify_gf_identity("H1", {"alpha": 0, "beta": 3})
        assert str(exc.value) == "H1 takes no parameters ['beta']; it takes ['alpha']"


def _records() -> list:
    """The 40 congruence records by id: the catalog's 35 and the 5 that only
    an identity implies."""
    cat = catalog()
    records = {c.id: c for c in cat["congruences"]} | {i.implies.id: i.implies
                                                        for i in cat["identities"]}
    return [records[cid] for cid in sorted(records)]


# each prime class's residues p mod 8: a prime 3 mod 4 is 3 or 7 mod 8, and
# both other classes (p = 2 refused) hold primes of every odd residue
P_MOD_8 = {"3mod4": (3, 7), "odd": (1, 3, 5, 7), "nonresidue-3": (1, 3, 5, 7)}

# sha256 of _catalog_rows(), computed on the catalog when its formulas were lambdas
CATALOG_SHA256 = "f9d9c51e6c34fc66122bf72d1c7fa767bed1b846b8de63fbef5dc64ccd1cd2ce"


def _catalog_rows() -> list:
    """Every record instantiated on a fixed grid, records sorted by id.

    alpha and beta run over 0..3, k over 0..3, m over 0..2 and p over the
    primes to 23 and 2; a class record's ell, iterated last, over 1, 2 and
    the three least members of each sign of both classes at its alpha.
    Congruences go through `instantiate`, identities through
    `_identity_instance`; a point one refuses is [id, params, "error"].
    """
    grid = {"alpha": range(4), "beta": range(4), "k": range(4), "m": range(3),
            "p": (2, 3, 5, 7, 11, 13, 17, 19, 23)}
    cat = catalog()
    records = [(c.id, c, instantiate) for c in cat["congruences"]]
    records += [(i.id, i.implies, lambda iid, P: verifier._identity_instance(iid, P)[1])
                for i in cat["identities"]]
    rows = []
    for rid, case, make in sorted(records, key=lambda r: r[0]):
        points = [{}]
        for name in sorted(case.param_names, key=lambda name: name == "ell"):
            points = [P | {name: v} for P in points for v in (
                sorted({1, 2, *class_members(3 ** (2 * P["alpha"] + 1), 3),
                        *class_members(3 ** (2 * P["alpha"] + 2), 3)})
                if name == "ell" else grid[name])]
        for P in points:
            try:
                inst = make(rid, P)
            except ValueError:
                rows.append([rid, P, "error"])
                continue
            rows.append([rid, P, inst.fn.label(), inst.progression.A, inst.progression.B,
                         inst.exponent, inst.record.A.y is not None, inst.record.branch,
                         inst.record.conjecture])
    return rows


README = Path(__file__).resolve().parent.parent / "README.md"
README_FUNCTION = {Kind.P3: "`p3`", Kind.REGULAR_TRIPLE: "`T_l`", Kind.TWO_COLOR_TRIPLE: "`p_{l,3}`"}


def _readme_power(term) -> str:
    """c*3^(x)*p^(y), as the README writes it."""
    text = f"3^({term.x.text})" + ("" if term.y is None else f"*p^({term.y.text})")
    return text if term.c == 1 else f"{term.c}*{text}"


def _readme_row(identity) -> str:
    """The README's table row for an identity whose congruence is not cataloged."""
    case, sigma = identity.implies, verifier._SHIFT_SIGN[identity.implies.kind]
    function = README_FUNCTION[case.kind]
    if isinstance(case.ell, verifier.ResidueClass):
        ell0, sigma = f"3^(2a+{case.ell.shift})", -2 * sigma
        function += f", `l = +-{ell0} mod 3^(2a+{case.ell.shift + 1})`"
    elif case.ell is not None:
        ell0 = _readme_power(case.ell)
        function += f", `l = {ell0}`"
    shift = "" if not sigma else f" {'+' if sigma > 0 else '-'} " + (
        ell0 if abs(sigma) == 1 else f"{abs(sigma)}*{ell0}")
    B = f"({_readme_power(case.B)}{shift} + 1)/8"
    exponent = case.exponent.text.replace("+", " + ").replace("-", " - ")
    return f"| `{identity.id}` | {function} | `A = {_readme_power(case.A)}`, `B = {B}` | `{exponent}` |"


class TestRecords:
    """The records as linear forms: what the text reader refuses, a finite
    proof that every shift is an integer, a pin of every instance, and the
    README's tables read off the records."""

    def test_forms(self):
        assert verifier.Form("2a+2b+1")({"alpha": 1, "beta": 2}) == 7
        assert verifier.Form("m+2k-1")({"k": 1, "m": 0}) == 1
        assert verifier.Form("3")({}) == 3

    @pytest.mark.parametrize("text", ["", "2a+", "+2a", "2a+2c", "2a + 1", "2ab", "a2", "2a+-1",
                                      "3^(2a+1)", "2a+1)", "2*a"])
    def test_text_not_read_whole_is_refused(self, text):
        with pytest.raises(ValueError, match="is not a linear form in a, b, k and m"):
            verifier.Form(text)
        # a record with the typo fails when it is built, so at import
        with pytest.raises(ValueError, match="is not a linear form"):
            verifier._case("X", Kind.REGULAR_TRIPLE, "2a+1", "2a+2b+1", (2, text), "3a+2b+2")

    def test_no_lambda_in_records(self):
        for case in _records():
            for value in (case.ell, case.A, case.B, case.exponent):
                assert isinstance(value, (verifier.Term, verifier.ResidueClass, verifier.Form,
                                          type(None))), case.id
        assert all(isinstance(i.level, verifier.Form) for i in catalog()["identities"])

    def test_shift_integral_at_every_parameter(self):
        # 8 | B_num for every admissible parameter.  B_num is c 3^x p^y +
        # sigma*ell0 + 1 with x, y and ell0's exponent linear forms; 3^x mod 8
        # follows the parity of x alone, and p^y mod 8 follows p mod 8 and the
        # parity of y.  So B_num mod 8 depends only on the parities of alpha,
        # beta, k and m and on p mod 8, and one point per pattern, at the
        # least values (k from 1 in the open statements), stands for every parameter.
        checked = 0
        for case in _records():
            depths = [n for n in case.param_names if n in ("alpha", "beta", "k", "m")]
            for parities in itertools.product((0, 1), repeat=len(depths)):
                P = {n: (1 if n == "k" and case.conjecture else 0) + bit
                     for n, bit in zip(depths, parities)}
                for p in P_MOD_8[case.prime_class] if "p" in case.param_names else (None,):
                    assert case.B_num(P | {"p": p}) % 8 == 0, (case.id, P, p)
                    checked += 1
        assert len(_records()) == 40 and checked == 222

    def test_catalog_pinned(self):
        rows = _catalog_rows()
        assert len(rows) == 13_952 and sum(row[2] != "error" for row in rows) == 5_930
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == CATALOG_SHA256

    def test_readme_tables_match_records(self):
        readme = README.read_text()
        identities = catalog()["identities"]
        linked = [i for i in identities if i.implies.id != i.id]
        table = ["| identity | " + " | ".join(f"`{i.id}`" for i in linked) + " |",
                 "|---|" + "---|" * len(linked),
                 "| implies | " + " | ".join(f"`{i.implies.id}`" for i in linked) + " |"]
        assert "\n".join(table) in readme
        unlisted = [i for i in identities if i.implies.id == i.id]
        assert [i.id for i in unlisted] == list(UNLISTED)
        for identity in unlisted:
            assert _readme_row(identity) in readme.splitlines()


class TestVerifyCongruence:
    def test_base_family_passes(self):
        rep = verify_congruence("MR1", {"alpha": 0, "beta": 0}, 200)
        assert rep.status == PASS and rep.checked == 201
        assert rep.extras["holds_to_exponent"] == 2

    def test_published_family_passes(self):
        rep = verify_congruence("G1", {"beta": 1}, 100)
        assert rep.status == PASS

    def test_prime_family_skips_multiples(self):
        rep = verify_congruence("MR4", {"alpha": 0, "beta": 0, "p": 7, "k": 0}, 50)
        assert rep.status == PASS
        assert rep.checked == 51 - len(range(0, 51, 7))

    def test_counterexamples_documented(self):
        rep = verify_congruence("MR8", {"alpha": 0, "beta": 1, "ell": 3}, 60)
        assert rep.status == FAIL
        assert rep.extras["holds_to_exponent"] == 3 < rep.extras["modulus_exponent"]
        first = rep.failures[0]
        assert set(first) == {"n", "value", "valuation", "required"}
        assert int(first["value"]) % 27 == 0

    def test_monotone_in_nmax(self):
        small = verify_congruence("MR8", {"alpha": 0, "beta": 1, "ell": 3}, 20)
        large = verify_congruence("MR8", {"alpha": 0, "beta": 1, "ell": 3}, 60)
        assert small.status == FAIL and large.status == FAIL

    def test_conjecture_marked(self):
        rep = verify_congruence("BC1", {"k": 1, "m": 0}, 50)
        assert rep.status == PASS and rep.extras["conjecture"] is True

    def test_reduced_engine_used_beyond_threshold(self):
        rep = verify_congruence("MR1", {"alpha": 0, "beta": 0}, 60, exact_threshold=10)
        assert rep.status == PASS and rep.extras["engine"].startswith("reduced")
        exact = verify_congruence("MR1", {"alpha": 0, "beta": 0}, 60)
        assert exact.extras["engine"] == "exact"

    @pytest.mark.parametrize("case_id, params", [
        ("MR1", {"alpha": 0, "beta": 0}),
        ("MR8", {"alpha": 0, "beta": 1, "ell": 3}),
        ("MR4", {"alpha": 0, "beta": 0, "p": 7, "k": 0}),
        ("MR10", {"alpha": 0, "beta": 0, "ell": 3}),
        ("MR21", {"alpha": 0, "beta": 1, "ell": 6}),
        ("BC1", {"k": 1, "m": 0}),
    ])
    def test_engines_agree(self, case_id, params):
        # a reduced failure's value is a residue; everything else must match
        def comparable(rep):
            d = rep.to_dict()
            del d["engine"]
            for f in d["failures"]:
                del f["value"]
            return d

        exact = verify_congruence(case_id, params, 40)
        reduced = verify_congruence(case_id, params, 40, exact_threshold=0)
        assert exact.extras["engine"] == "exact"
        assert reduced.extras["engine"].startswith("reduced")
        assert comparable(reduced) == comparable(exact)

    def test_reduced_engine_never_passes_above_cap(self):
        # the exponent 16 needs residues beyond 3^15: undecided there, PASS exactly
        reduced = verify_congruence("MR19", {"alpha": 3, "beta": 0}, 0, exact_threshold=0)
        assert reduced.status == SKIPPED and reduced.failures == []
        assert "3^16" in reduced.extras["undecided"]
        exact = verify_congruence("MR19", {"alpha": 3, "beta": 0}, 0)
        assert exact.extras["engine"] == "exact" and exact.status == PASS
        assert exact.extras["holds_to_exponent"] == 16 and "undecided" not in exact.extras


class TestBranchCase:
    def test_structure_documented(self):
        rep = verify_congruence("MR10", {"alpha": 0, "beta": 0, "ell": 3}, 60)
        assert rep.status == FAIL  # nominal exponent overstated; structure holds lower
        assert rep.extras["fitted_constant"] == "9"
        assert rep.extras["plain_branch_holds"] is False
        assert rep.extras["branch_holds_to_exponent"] == 2

    def test_class_member_choice(self):
        rep = verify_congruence("MR10", {"alpha": 0, "beta": 0, "ell": 6}, 30)
        assert rep.extras["fitted_constant"] == "9"

    def test_open_statement_flag_reaches_branch_report(self):
        # one function writes every congruence report, the two-branch rule included
        params = {"alpha": 0, "beta": 0, "ell": 3}
        record = dataclasses.replace(verifier._CASE_BY_ID["MR10"], conjecture=True)
        rep = verifier._check_instance(record.instantiate(params), 30, verifier._EXACT_THRESHOLD)
        d = rep.to_dict()
        assert d.pop("conjecture") is True and not rep.gates
        assert d == verify_congruence("MR10", params, 30).to_dict()

    def test_negative_range_refused(self):
        # a range of no index would fit no constant and report SKIPPED
        with pytest.raises(ValueError, match=r"^MR10: n_max=-1 must be at least 1$"):
            verify_congruence("MR10", {"alpha": 0, "beta": 0, "ell": 3}, -1)

    def test_single_index_range_refused(self):
        # n = 0 alone is where the constant is fitted, so it would PASS on nothing
        with pytest.raises(ValueError, match=r"^MR10: n_max=0 must be at least 1$"):
            verify_congruence("MR10", {"alpha": 0, "beta": 0, "ell": 3}, 0)

    def test_single_index_range_is_an_error_report_in_suite(self):
        suite = run_suite(SuiteConfig(**dict(TestSuite.CFG, include=("MR10",), n_max_small=0)))
        assert suite.reports and suite.status == FAIL
        assert {r.extras["error"] for r in suite.reports} == {"MR10: n_max=0 must be at least 1"}

    def test_negative_range_refused_in_suite_config(self):
        with pytest.raises(ValueError, match="'n_max_small' must be an integer from 0, not -1"):
            SuiteConfig(**dict(TestSuite.CFG, include=("MR10",), n_max_small=-1))


class TestIdentities:
    def test_base_identity_exact(self):
        rep = verify_gf_identity("H1", {"alpha": 0}, 60, "exact")
        assert rep.status == PASS and rep.extras["exact_equal"] is True

    @pytest.mark.parametrize("iid", ["H2", "T11", "D6", "T12", "T21", "T22", "T23"])
    def test_exact_families_small_grid(self, iid):
        params = {"alpha": 0} if iid == "H2" else {"alpha": 0, "beta": 0}
        rep = verify_gf_identity(iid, params, 12, "exact")
        assert rep.status == PASS, rep.to_dict()

    def test_class_identity_is_congruence_only(self):
        rep = verify_gf_identity("T31", {"alpha": 0, "beta": 0, "ell": 3}, 16, "auto")
        assert rep.status == PASS
        assert rep.extras["exact_equal"] is False
        assert rep.extras["mod_equal"] is True
        assert rep.extras["diff_valuation"] == 2

    def test_class_identity_failure_documented(self):
        rep = verify_gf_identity("T31", {"alpha": 0, "beta": 1, "ell": 6}, 16, "auto")
        assert rep.status == FAIL
        assert rep.extras["diff_valuation"] < rep.extras["lemma_exponent"]

    def test_unknown_mode_rejected_before_expansion(self, monkeypatch):
        def expanded(*args):
            raise AssertionError("expanded before the mode was checked")

        for name in ("values_at", "_rhs_window"):
            monkeypatch.setattr(verifier, name, expanded)
        with pytest.raises(ValueError, match="mode"):
            verify_gf_identity("T31", {"alpha": 0, "beta": 1, "ell": 6}, 16, "Auto")
        # an unknown id is named before an unknown mode
        with pytest.raises(KeyError, match="unknown identity 'T99'"):
            verify_gf_identity("T99", {"alpha": 0}, 16, "Auto")

    @pytest.mark.parametrize("terms", [0, -3])
    def test_empty_window_rejected_before_expansion(self, monkeypatch, terms):
        def expanded(*args):
            raise AssertionError("expanded before the window was checked")

        for name in ("values_at", "_rhs_window"):
            monkeypatch.setattr(verifier, name, expanded)
        with pytest.raises(ValueError, match=rf"^H1: terms={terms} must be at least 1$"):
            verify_gf_identity("H1", {"alpha": 0}, terms)

    def test_capped_difference_valuation(self):
        # H1 holds exactly, so mod 3^15 every difference reads zero: 15 is a lower bound
        reduced = verify_gf_identity("H1", {"alpha": 0}, 20, "mod")
        assert reduced.extras["diff_valuation"] == 15
        assert reduced.extras["diff_valuation_capped"] is True
        exact = verify_gf_identity("H1", {"alpha": 0}, 20, "exact")
        assert exact.extras["diff_valuation"] is None
        assert exact.extras["diff_valuation_capped"] is False

    def test_mod_mode_never_passes_above_cap(self):
        rep = verify_gf_identity("T23", {"alpha": 3, "beta": 2}, 1, "mod")
        assert rep.extras["lemma_exponent"] == 17
        assert rep.status == SKIPPED and "3^17" in rep.extras["undecided"]

    def test_class_members_share_one_window(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return family_vector(*args)

        monkeypatch.setattr(verifier, "family_vector", counted)
        verifier._rhs_window.cache_clear()
        try:
            for ell in (3, 6):
                verify_gf_identity("T31", {"alpha": 0, "beta": 0, "ell": ell}, 12, "auto")
        finally:
            verifier._rhs_window.cache_clear()
        assert len(calls) == 1

    def test_cached_window_is_immutable(self):
        identity = catalog()["identities"][0]
        window = verifier._rhs_window(identity, 1, 0, 8)
        with pytest.raises(TypeError):
            window[0] += 1
        assert verifier._rhs_window(identity, 1, 0, 8) is window

    def test_exact_mode_counterexample(self):
        rep = verify_gf_identity("T31", {"alpha": 0, "beta": 0, "ell": 3}, 12, "exact")
        assert rep.status == FAIL
        assert rep.failures[0]["required"] == "exact"

    def test_auto_report_equals_exact_reading(self):
        # every auto job of the benchmark's identity grid, recomputed from the
        # exact left side: the residue read must give the same report
        cfg = SuiteConfig.from_json(IDENTITY_WINDOWS.read_text())
        jobs = [(iid, P) for kind, iid, P, opts in verifier._suite_jobs(cfg)
                if kind == "identity" and opts["mode"] == "auto"]
        assert len(jobs) == 24
        terms = cfg.identity_terms
        for iid, params in jobs:
            rep = verify_gf_identity(iid, params, terms, "auto", cfg.identity_exact_cap)
            identity, inst = verifier._identity_instance(iid, params)
            e = inst.exponent
            rhs = verifier._rhs_window(identity, identity.level(inst.params), params["alpha"], terms)
            lhs = counts.values_at(inst.fn, [inst.progression.index(n) for n in range(terms)], True)
            valuations = [pi3(a - b) for a, b in zip(lhs, rhs)]
            least = min((v for v in valuations if v is not None), default=None)
            bad = [n for n, v in enumerate(valuations) if v is not None and v < e]
            read = {k: rep.extras[k] for k in ("exact_checked", "exact_equal", "mod_equal",
                                                "diff_valuation", "diff_valuation_capped")}
            assert read == {"exact_checked": True, "exact_equal": lhs == list(rhs),
                            "mod_equal": not bad, "diff_valuation": least,
                            "diff_valuation_capped": False}, (iid, params)
            assert rep.failures == [{"n": n, "value": str(lhs[n] % 3**e),
                                     "expected": str(rhs[n] % 3**e), "valuation": least,
                                     "required": e} for n in bad[:1]], (iid, params)

    @pytest.mark.parametrize("iid", ["T11", "T21"])
    def test_auto_agreeing_residues_read_exactly(self, cold_state, iid):
        # every residue of the difference is zero, so only the exact read tells equality
        rep = verify_gf_identity(iid, {"alpha": 0, "beta": 0}, 30, "auto")
        assert rep.extras["exact_equal"] is True and rep.extras["diff_valuation"] is None
        assert len(counts._inv_cube) > 0

    def test_auto_differing_residue_skips_exact_read(self, cold_state):
        # a nonzero residue decides exact_equal: the exact base is never grown
        rep = verify_gf_identity("T24", {"alpha": 0, "beta": 0, "ell": 3}, 100, "auto")
        assert rep.extras["exact_checked"] is True and rep.extras["exact_equal"] is False
        assert counts._inv_cube == []

    @pytest.mark.parametrize("exponent, exact_reads, first_bad", [(15, [False], 1), (16, [True], 0)])
    def test_auto_lemma_exponent_above_cap_reads_exactly(self, monkeypatch, exponent, exact_reads,
                                                         first_bad):
        # a difference of valuation 15 at n = 0 reads zero mod 3^15; it fails
        # only a lemma exponent above 15, where residues would name n = 1
        identity, inst = verifier._identity_instance("T24", {"alpha": 0, "beta": 0, "ell": 3})
        rhs = verifier._rhs_window(identity, identity.level(inst.params), 0, 3)
        lhs = [rhs[0] + 3**15, rhs[1] + 1, rhs[2]]
        reads = []

        def spy(fn, indices, exact):
            reads.append(exact)
            return lhs if exact else [v % 3**15 for v in lhs]

        monkeypatch.setattr(verifier, "values_at", spy)
        monkeypatch.setattr(verifier, "_identity_instance",
                            lambda iid, params: (identity, dataclasses.replace(inst, exponent=exponent)))
        rep = verify_gf_identity("T24", inst.params, 3, "auto")
        assert reads == exact_reads
        assert [f["n"] for f in rep.failures] == [first_bad]
        assert rep.extras["exact_equal"] is False and rep.extras["diff_valuation"] == 0

    def test_seed_reading_probe(self):
        # the one-step families really do start from the odd base vector
        for iid in ("T12", "T22"):
            for alpha in (0, 1):
                verdict = _seed_reading(iid, alpha)
                assert verdict == {"odd_base_seed": True, "even_base_seed": False}

    @staticmethod
    def _implied(iid: str, params: dict, n_max: int,
                 exact_threshold: int = verifier._EXACT_THRESHOLD) -> Report:
        """The congruence check on what the identity implies, every coefficient
        divisible by 3^lemma_exponent."""
        return verifier._check_instance(verifier._identity_instance(iid, params)[1], n_max,
                                        exact_threshold)

    def test_implied_congruence_consistency(self):
        # identities that hold exactly force the j=1 divisibility on the window
        # (id, params, window, n_max): the eight that hold exactly at alpha = beta = 0
        # to the window's end, and three read past a short window
        zero = {"alpha": 0, "beta": 0}
        cases = [(iid, {n: zero[n] for n in verifier._IDENTITY_BY_ID[iid].implies.param_names},
                  20, 19) for iid in ("H1", "H2", "T11", "D6", "T12", "T21", "T22", "T23")]
        cases += [("H1", {"alpha": 0}, 10, 40), ("T11", {"alpha": 0, "beta": 1}, 10, 40),
                  ("T12", {"alpha": 1, "beta": 0}, 10, 40)]
        for iid, params, terms, n_max in cases:
            assert verify_gf_identity(iid, params, terms, "exact").status == PASS, (iid, params)
            assert self._implied(iid, params, n_max).status == PASS, (iid, params)

    def test_implied_congruence_undecided_above_cap(self):
        # lemma exponent 17: residues mod 3^15 that read zero cannot answer PASS
        rep = self._implied("T23", {"alpha": 3, "beta": 2}, 0, exact_threshold=0)
        assert rep.status == SKIPPED
        assert "3^17" in rep.extras["undecided"]


def _seed_reading(identity_id: str, alpha: int, terms: int = 20) -> dict:
    """Which level-one seed of a one-step family (T12, T22) reproduces its
    progression exactly.

    The stated seed is the odd base vector x_{2 alpha + 1}, even though the
    function parameter uses the even power 3^{2 alpha + 2}; the even base
    vector x_{2 alpha + 2} is the plausible alternative.
    """
    identity, inst = verifier._identity_instance(identity_id, {"alpha": alpha, "beta": 0})
    assert identity.level(inst.params) == 1
    lhs = counts.values_at(inst.fn, map(inst.progression.index, range(terms)), True)
    verdict = {}
    for label, k in (("odd_base_seed", 2 * alpha + 1), ("even_base_seed", 2 * alpha + 2)):
        seed = family_vector(Family.X, alpha, k, terms)
        window = verifier._weighted_quotient_window(seed, identity.num, identity.den, terms)
        verdict[label] = window == lhs
    return verdict


def _direct_window(weights, num, den, terms):
    """sum over j <= terms of weights[j-1] * q^{j-1} E(q^3)^{12j+num} / E(q)^{12j+den}."""
    total = [0] * terms
    for j, c in enumerate(weights[:terms], start=1):
        term = eta_quotient(EtaQuotientSpec(j - 1, ((3, 12 * j + num), (1, -(12 * j + den)))), terms)
        for e in range(terms):
            total[e] += c * term.coeff(e)
    return total


def _running_product_window(weights, num, den, terms):
    """The window as a running product: the j=1 quotient times ratio, once per j."""
    weights = list(weights[:terms])
    while weights and not weights[-1]:
        weights.pop()
    total = [0] * terms
    quotient = eta_quotient(EtaQuotientSpec(0, ((3, 12 + num), (1, -(12 + den)))), terms)
    ratio = eta_quotient(EtaQuotientSpec(1, ((3, 12), (1, -12))), terms + 1)
    for j, c in enumerate(weights, start=1):
        if j > 1:
            quotient = quotient.mul(ratio)
        for e in range(j - 1, terms):
            total[e] += c * quotient.coeff(e)
    return total


class TestWeightedQuotientWindow:
    @staticmethod
    def patterns(terms):
        return {
            "shorter": (5, -3),
            "longer": tuple(range(1, terms + 4)),
            "inner-zeros": (1, 0, 0, 2, 0, 7),
            "trailing-zeros": (4, 0, 3) + (0,) * (terms + 2),
            "all-zero": (0,) * (terms + 1),
            "empty": (),
        }

    @pytest.mark.parametrize("terms", range(1, 13))
    @pytest.mark.parametrize("num, den", [(-3, 0), (0, 3), (-9, -6)])
    def test_matches_direct_sum(self, terms, num, den):
        for name, weights in self.patterns(terms).items():
            vec = SimpleNamespace(values=weights)  # arbitrary weights, no bound check
            got = verifier._weighted_quotient_window(vec, num, den, terms)
            assert got == _direct_window(weights, num, den, terms), name

    @pytest.mark.parametrize("iid, level, products", [("H1", 1, 0), ("T321", 2, 8)])
    def test_product_ends_at_last_weight(self, monkeypatch, iid, level, products):
        # a fresh chain stops at F^last, the power of the last nonzero weight;
        # each power past F^1 is one mul_sparse, truncated to the terms - j + 1
        # coefficients the window reads, and no dense product follows
        identity = verifier._IDENTITY_BY_ID[iid]
        vec = family_vector(identity.family, 0, level, 21)
        last = max(j for j, c in enumerate(vec.values[:20], start=1) if c)
        orders = []
        mul = verifier.mul_sparse

        def counted(dense, terms, order):
            orders.append(order)
            return mul(dense, terms, order)

        def dense_product(self, other):
            raise AssertionError("the window took a dense product")

        monkeypatch.setattr(verifier, "mul_sparse", counted)
        monkeypatch.setattr(TruncatedSeries, "mul", dense_product)
        monkeypatch.setattr(verifier, "_ratio_powers", {})
        verifier._weighted_quotient_window(vec, identity.num, identity.den, 20)
        chain = verifier._ratio_powers[20]
        assert len(chain) - 1 == last == products + 1
        assert orders == [20 - j + 1 for j in range(2, last + 1)]
        assert [len(power) for power in chain] == [20 - j + 1 for j in range(last + 1)]

    @pytest.mark.parametrize("terms", [30, 100])
    def test_matches_running_product(self, terms):
        # every (num, den) of the catalog, with the identity's own vector at
        # beta 0 and 1; at 30 terms also with a weight on every power
        dense = [tuple(range(-7, terms - 7))] if terms == 30 else []
        pairs = {}
        for identity in verifier._IDENTITIES:
            for beta in (0, 1):
                level = identity.level({"alpha": 0, "beta": beta})
                vec = family_vector(identity.family, 0, level, terms + 1)
                pairs.setdefault((identity.num, identity.den), []).append(vec.values)
        assert len(pairs) == 10
        for (num, den), weight_lists in sorted(pairs.items()):
            for weights in weight_lists + dense:
                vec = SimpleNamespace(values=weights)
                got = verifier._weighted_quotient_window(vec, num, den, terms)
                assert got == _running_product_window(weights, num, den, terms), (num, den)

    @pytest.mark.parametrize("config, count, digest", [
        ("identity-windows", 28, "6387d33cd94bdc5c32c0c3cab8b150c09a8a63808637912caaebf5af96dcb7e7"),
        ("default", 52, "ad6c4039decbb47eacc2971a91f8a93c45e3c1e09acea2394a677a898c3c94f9"),
    ])
    def test_suite_windows_digest(self, config, count, digest):
        # every distinct window of the benchmark's identity grid (100 terms)
        # and of the default grids (30 terms), pinned before the window
        # construction was rebuilt
        cfg = (SuiteConfig.from_json(IDENTITY_WINDOWS.read_text()) if config == "identity-windows"
               else SuiteConfig())
        keys = set()
        for kind, iid, params, _ in verifier._suite_jobs(cfg):
            if kind == "identity":
                identity, inst = verifier._identity_instance(iid, params)
                keys.add((iid, identity.level(inst.params), params["alpha"], cfg.identity_terms))
        h = hashlib.sha256()
        for iid, level, alpha, terms in sorted(keys):
            window = verifier._rhs_window(verifier._IDENTITY_BY_ID[iid], level, alpha, terms)
            h.update(f"{iid} {level} {alpha} {terms}: {','.join(map(str, window))}\n".encode())
        assert (len(keys), h.hexdigest()) == (count, digest)

    def test_short_chain_then_long(self, monkeypatch):
        # a chain grown in short steps equals one grown at once, and each F^j
        # holds exactly its terms - j + 1 leading coefficients of the power
        short_first = {}
        monkeypatch.setattr(verifier, "_ratio_powers", short_first)
        verifier._powers_of_ratio(30, 3)
        verifier._powers_of_ratio(30, 1)
        grown = verifier._powers_of_ratio(30, 30)
        monkeypatch.setattr(verifier, "_ratio_powers", {})
        direct = verifier._powers_of_ratio(30, 30)
        assert grown == direct and len(short_first[30]) == 31
        f = eta_quotient(EtaQuotientSpec(0, ((3, 12), (1, -12))), 30)
        assert grown[0] == [1] + [0] * 30 and grown[1] == list(f.coeffs)
        for j in range(2, 31):
            assert grown[j] == list(power(f, j).coeffs[:30 - j + 1]), j


@pytest.fixture
def cold_state(monkeypatch):
    """Every structure the library grows on demand, reset for one test: the
    exact and reduced bases, the m-table, the ratio powers and the
    lru_cache of `_rhs_window`."""
    mod_base = np.ones(1, dtype=np.int64)
    mod_base.setflags(write=False)
    monkeypatch.setattr(counts, "_inv_cube", [])
    monkeypatch.setattr(counts, "_mod_base", mod_base)
    monkeypatch.setattr(vectors, "_COLUMNS", [[9, 6, 1]])
    monkeypatch.setattr(verifier, "_ratio_powers", {})
    verifier._rhs_window.cache_clear()


class TestDerivedStatus:
    """A status is read off what the report or suite holds, whenever it is asked."""

    FAILURE = {"n": 1, "value": "7", "valuation": 0, "required": 2}

    def test_failure_appended_after_construction(self):
        rep = Report("MR1", {"alpha": 0, "beta": 0}, checked=3)
        assert rep.status == PASS
        rep.failures.append(dict(self.FAILURE))
        assert rep.status == FAIL

    def test_undecided_report_is_skipped(self):
        assert Report("MR1", failures=[dict(self.FAILURE)]).status == SKIPPED  # checked nothing
        rep = Report("T23", checked=1)
        assert rep.status == PASS
        rep.extras["undecided"] = "residues mod 3^15 cannot show divisibility by 3^17"
        assert rep.status == SKIPPED

    def test_suite_follows_appended_reports(self):
        suite = SuiteReport()
        assert suite.status == SKIPPED
        suite.reports.append(Report("BC1", checked=5, failures=[dict(self.FAILURE)],
                                    extras={"conjecture": True}))
        suite.reports.append(Report("BC2", checked=5, extras={"conjecture": True}))
        assert suite.status == SKIPPED  # open statements only: no gating report ran
        suite.reports.append(Report("MR1", checked=5))
        assert suite.status == PASS
        suite.reports.append(Report("MR4", {"p": 5}, extras={"error": "p=5 is refused"}))
        assert suite.status == FAIL
        assert SuiteReport([Report("MR4", extras={"error": "refused"})]).status == FAIL


class TestSuite:
    CFG = dict(alphas=(0,), betas=(0,), n_max=30, n_max_small=40, priors_betas=(0,),
               conjecture_ms=(0,), identity_terms=10, class_reps_per_sign=1,
               prime_n_max=15, priors_n_max=40)

    def test_deterministic(self):
        a = run_suite(SuiteConfig(**self.CFG))
        b = run_suite(SuiteConfig(**self.CFG))
        assert suite_json(a) == suite_json(b)

    @pytest.mark.parametrize("name, thresholds", [
        ("default", {}),
        ("reduced", {"exact_threshold": 200, "identity_exact_cap": 200}),
    ])
    def test_matches_golden_report(self, name, thresholds):
        golden = json.loads(GOLDEN.read_text())[name]
        suite = run_suite(SuiteConfig(**dict(self.CFG, **thresholds)))
        assert json.dumps(json.loads(suite_json(suite)), sort_keys=True) == json.dumps(golden, sort_keys=True)

    @pytest.mark.parametrize("name, thresholds", [
        ("default", {}),
        ("reduced", {"exact_threshold": 200, "identity_exact_cap": 200}),
    ])
    def test_growth_order_does_not_change_report(self, cold_state, monkeypatch, name, thresholds):
        # reversed, deep reads come before shallow ones, so every structure
        # grows from cold in an order the golden run never used
        jobs = verifier._suite_jobs
        monkeypatch.setattr(verifier, "_suite_jobs", lambda cfg: jobs(cfg)[::-1])
        golden = json.loads(GOLDEN.read_text())[name]
        suite = run_suite(SuiteConfig(**dict(self.CFG, **thresholds)))
        assert json.dumps(json.loads(suite_json(suite)), sort_keys=True) == json.dumps(golden, sort_keys=True)
        assert len(vectors._COLUMNS) > 1 and verifier._ratio_powers
        assert len(counts._inv_cube) > 1 and (name == "default" or len(counts._mod_base) > 1)

    def test_include_filter(self):
        suite = run_suite(SuiteConfig(**dict(self.CFG, include=("MR1", "H1"))))
        assert {r.case for r in suite.reports} == {"MR1", "H1"}
        assert suite.status == PASS

    def test_empty_grid_skips(self):
        suite = run_suite(SuiteConfig(**dict(self.CFG, include=())))
        assert suite.status == SKIPPED and not suite.reports

    @pytest.mark.parametrize("field, value, message", [
        ("include", ("MR1x",), r"'include' names ids not in the catalog: \['MR1x'\]"),
        ("include", "MR171", "'include' must be null or a list of strings"),
        ("prime_ks", (0, -1), "'prime_ks' must be a list of integers from 0"),
        ("betas", (0, True), "'betas' must be a list of integers"),
        ("n_max", 10.5, "'n_max' must be an integer"),
        ("n_max", -1, "'n_max' must be an integer from 0, not -1"),
        ("n_max_small", -1, "'n_max_small' must be an integer from 0, not -1"),
        ("prime_n_max", -1, "'prime_n_max' must be an integer from 1, not -1"),
        ("prime_n_max", 0, "'prime_n_max' must be an integer from 1, not 0"),
        ("priors_n_max", -1, "'priors_n_max' must be an integer from 0, not -1"),
        ("conjecture_n_max", -1, "'conjecture_n_max' must be an integer from 0, not -1"),
        ("class_reps_per_sign", 0, "'class_reps_per_sign' must be an integer from 1, not 0"),
        ("identity_terms", 0, "'identity_terms' must be an integer from 1, not 0"),
    ])
    def test_config_checked_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SuiteConfig(**{field: value})

    def test_config_frozen_and_rechecked_on_replace(self):
        # an assignment would skip the construction checks; replace runs them again
        cfg = SuiteConfig(include=("MR1",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alphas = (-1,)
        with pytest.raises(ValueError, match="field 'alphas' must be a list of integers from 0"):
            dataclasses.replace(cfg, alphas=(-1,))
        assert dataclasses.replace(cfg, alphas=[2]).alphas == (2,)

    def test_engine_defaults_are_the_suite_defaults(self):
        # a single check and the suite read their engine thresholds from one place
        cfg = SuiteConfig()
        defaults = {name: param.default for fn in (verify_congruence, verify_gf_identity)
                    for name, param in inspect.signature(fn).parameters.items()}
        assert defaults["exact_threshold"] == cfg.exact_threshold == verifier._EXACT_THRESHOLD
        assert defaults["exact_order_cap"] == cfg.identity_exact_cap == verifier._IDENTITY_EXACT_CAP

    def test_config_lists_stored_as_tuples(self):
        cfg = SuiteConfig(alphas=[0, 2], include=["MR1"])
        assert cfg == SuiteConfig(alphas=(0, 2), include=("MR1",))
        assert type(cfg.alphas) is tuple and type(cfg.include) is tuple

    def test_error_report_fails_suite(self):
        # MR4 refuses p = 5 (not 3 mod 4); its error report must not read as a pass
        cfg = SuiteConfig.from_json('{"primes_3mod4": [5], "include": ["MR4", "MR1"], '
                                    '"n_max": 10, "n_max_small": 10, "prime_n_max": 10}')
        suite = run_suite(cfg)
        errors = [r for r in suite.reports if "error" in r.extras]
        assert errors and all(r.status == SKIPPED for r in errors)
        assert all(r.status == PASS for r in suite.reports if r.case == "MR1")
        assert suite.status == FAIL

    def test_nonresidue_error_report_names_case(self):
        cfg = SuiteConfig.from_json('{"primes_nonresidue": [9, 2], "include": ["MR16"], '
                                    '"prime_n_max": 10}')
        suite = run_suite(cfg)
        errors = [r.extras["error"] for r in suite.reports]
        assert errors and all(e.startswith(("MR16: p=9 ", "MR16: p=2 ")) for e in errors)
        assert suite.status == FAIL

    def test_conjecture_error_report_fails_suite(self):
        # an error gates the suite even where a failed check would not (an open statement)
        job = ("congruence", "BC1", {"k": 0, "m": 0}, {"n_max": 5})
        passing = verify_congruence("MR1", {"alpha": 0, "beta": 0}, 10)
        suite = SuiteReport([passing, verifier._error_report(job, ValueError("k=0"))])
        assert suite.status == FAIL
        assert SuiteReport([passing]).status == PASS

    def test_config_roundtrip(self):
        cfg = SuiteConfig(**self.CFG)
        again = SuiteConfig.from_json(json.dumps(dataclasses.asdict(cfg)))
        assert cfg == again

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SuiteConfig.from_json('{"bogus": 1}')

    # every grid of alpha, beta, k or m values
    @pytest.mark.parametrize("name", ["alphas", "betas", "conjecture_ks", "conjecture_ms",
                                      "prime_alphas", "prime_betas", "prime_ks", "priors_betas"])
    def test_config_rejects_negative_depths(self, name):
        assert SuiteConfig.from_json(json.dumps({name: [0, 2]})) == SuiteConfig(**{name: (0, 2)})
        with pytest.raises(ValueError, match=f"field '{name}' must be a list of integers from 0"):
            SuiteConfig.from_json(json.dumps({name: [0, -1]}))

    def test_config_rejects_unknown_include_ids(self):
        assert SuiteConfig.from_json('{"include": ["MR1", "H1"]}').include == ("MR1", "H1")
        with pytest.raises(ValueError, match=r"'include' names ids not in the catalog: \['D7', 'MR1x'\]"):
            SuiteConfig.from_json('{"include": ["MR1x", "T11", "D7"]}')

    def test_config_threads_key_ignored(self):
        # older configs carry "threads"; the suite runs serially either way
        assert SuiteConfig.from_json('{"threads": 2, "n_max": 5}') == SuiteConfig.from_json('{"n_max": 5}')


def _one_dump(suite) -> str:
    """The suite JSON as one dict dumped at once: what the pieces must join to."""
    counts = {s: sum(1 for r in suite.reports if r.status == s) for s in (PASS, FAIL, SKIPPED)}
    d = {"status": suite.status, "counts": counts, "reports": [r.to_dict() for r in suite.reports]}
    return json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"


class TestSuiteJson:
    @staticmethod
    def suite(name):
        if name == "empty":
            return SuiteReport()
        if name == "one-report":
            return SuiteReport([verify_congruence("MR9", {"alpha": 0, "beta": 0, "ell": 6}, 30)])
        if name == "error-report":
            job = ("congruence", "MR7", {"alpha": 0, "beta": 0, "ell": 4}, {"n_max": 5})
            return SuiteReport([verifier._error_report(job, ValueError("4 is not a member"))])
        return run_suite(SuiteConfig(**TestSuite.CFG))

    @pytest.mark.parametrize("name", ["empty", "one-report", "error-report", "small-config"])
    def test_pieces_join_to_one_dump(self, name):
        suite = self.suite(name)
        assert suite_json(suite) == _one_dump(suite)

    def test_cli_writes_the_pieces(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(SuiteConfig(**TestSuite.CFG))))
        code = cli.main(["verify", "suite", "--config", str(path), "--format", "json"])
        out = capsys.readouterr().out
        suite = self.suite("small-config")
        assert out == suite_json(suite) == _one_dump(suite)
        assert code == (0 if suite.status == PASS else 1)

    def test_written_one_report_at_a_time(self):
        # over 1 MB of failures; the writer may hold about one report's text
        failures = [{"n": n, "value": str(7**60 + n), "valuation": 1, "required": 5} for n in range(60)]
        suite = SuiteReport([Report("MR9", {"alpha": 0, "ell": 6 + 9 * i}, 60, failures)
                             for i in range(250)])

        class Counter(io.TextIOBase):
            size = 0

            def write(self, text):
                self.size += len(text)
                return len(text)

        sink = Counter()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                cli._emit_json(suite.json_pieces())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size == len(_one_dump(suite)) > 1 << 20
        assert peak < sink.size / 4


EXACT_GRID = Path(__file__).parent.parent / "perfbench" / "configs" / "exact-grid.json"


class TestReadRule:
    """Residues decide; the exact engine is read only where a report prints
    an integer, or where every residue reads zero."""

    @pytest.fixture
    def reads(self, cold_state, monkeypatch):
        """Every values_at call of the verifier, as (indices, exact)."""
        calls, values_at = [], verifier.values_at

        def spy(fn, indices, exact):
            indices = list(indices)
            calls.append((indices, exact))
            return values_at(fn, indices, exact)

        monkeypatch.setattr(verifier, "values_at", spy)
        return calls

    def test_passing_check_reads_no_integer(self, reads):
        rep = verify_congruence("MR22", {"alpha": 0, "beta": 0, "ell": 3}, 100)
        assert rep.status == PASS and rep.extras["engine"] == "exact"
        assert [exact for _, exact in reads] == [False]
        assert counts._inv_cube == []

    def test_failing_check_reads_integers_at_its_failures(self, reads):
        rep = verify_congruence("MR22", {"alpha": 1, "beta": 0, "ell": 297}, 100)
        assert rep.status == FAIL and rep.extras["engine"] == "exact"
        prog = instantiate("MR22", {"alpha": 1, "beta": 0, "ell": 297}).progression
        failing = [prog.index(f["n"]) for f in rep.failures]
        assert [exact for _, exact in reads] == [False, True] and reads[1][0] == failing
        assert len(failing) < rep.checked and len(counts._inv_cube) == max(failing) + 1

    def test_all_zero_residues_read_exactly(self, monkeypatch):
        # deviations of valuation 16 and 17 read zero mod 3^15: only the exact
        # read gives holds_to_exponent, not the capped 15
        exact_values = [3**16, 2 * 3**17, 3**16 * 5]
        reads = []

        def spy(fn, indices, exact):
            indices = list(indices)
            reads.append(exact)
            return [exact_values[i % 3] if exact else exact_values[i % 3] % 3**15 for i in indices]

        monkeypatch.setattr(verifier, "values_at", spy)
        rep = verify_congruence("MR1", {"alpha": 0, "beta": 0}, 2)
        assert reads == [False, True]
        assert rep.status == PASS and rep.extras["engine"] == "exact"
        assert rep.extras["holds_to_exponent"] == 16 and rep.extras["exponent_capped"] is False

    @pytest.mark.parametrize("config", ["golden", "golden-reduced", "exact-grid"])
    def test_reports_equal_their_exact_twins(self, monkeypatch, config):
        # the twin reads the exact engine at once wherever the engine is exact
        cfg = {"golden": lambda: SuiteConfig(**TestSuite.CFG),
               "golden-reduced": lambda: SuiteConfig(**TestSuite.CFG, exact_threshold=200,
                                                     identity_exact_cap=200),
               "exact-grid": lambda: SuiteConfig.from_json(EXACT_GRID.read_text())}[config]()
        reports = run_suite(cfg).reports
        read = verifier._read
        monkeypatch.setattr(verifier, "_read", lambda fn, indices, wants, exact, required, **kw:
                            read(fn, indices, wants, exact, None if exact else required, **kw))
        twins = run_suite(cfg).reports
        assert len(reports) == len(twins) > 60
        for rep, twin in zip(reports, twins):
            assert dumps(rep.to_dict()) == dumps(twin.to_dict())


class TestSuiteReadsPoints:
    """run_suite reads coefficients off the shared bases: it expands no key,
    makes no sparse-kernel call outside the bases' growth, and solves each
    reduced coefficient once."""

    # keys at orders up to 963; those above 500 read the reduced engine
    CFG = dict(alphas=(0, 1), betas=(0,), n_max=3, n_max_small=6, priors_betas=(0,), priors_n_max=6,
               prime_n_max=3, conjecture_ms=(0,), conjecture_n_max=3, identity_terms=4,
               class_reps_per_sign=1, exact_threshold=500)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """A cold reduced base; every sparse kernel call is logged by name."""
        seed = np.ones(1, dtype=np.int64)
        seed.setflags(write=False)
        monkeypatch.setattr(counts, "_mod_base", seed)
        calls = []

        def logged(name, kernel):
            def run(*args):
                calls.append(name)
                return kernel(*args)
            return run

        monkeypatch.setattr(counts, "mul_sparse", logged("mul", counts.mul_sparse))
        monkeypatch.setattr(counts, "solve_monic_sparse", logged("solve", counts.solve_monic_sparse))
        monkeypatch.setattr(modseries, "mul_sparse_mod", logged("mod-mul", modseries.mul_sparse_mod))
        monkeypatch.setattr(modseries, "solve_monic_sparse_mod",
                            logged("mod-solve", modseries.solve_monic_sparse_mod))
        return calls

    def functions_by_engine(self):
        suite = run_suite(SuiteConfig(**self.CFG))
        engines = {}
        for r in suite.reports:
            engines.setdefault(r.extras.get("engine", "exact"), set()).add(r.extras["function"])
        return engines

    def assert_no_kernel_call(self, kernel_calls):
        assert kernel_calls == []

    def test_no_key_expanded(self, kernel_calls):
        engines = self.functions_by_engine()
        assert len(engines["exact"] - {"p3"}) > 12 and len(engines["reduced(3^15)"]) >= 2
        self.assert_no_kernel_call(kernel_calls)

    def test_reduced_base_solved_once(self, kernel_calls, monkeypatch):
        # each reduced coefficient is solved once: the base grows from its
        # first coefficient in contiguous steps to the deepest read
        spans = []
        extend = modseries.extend_monic_sparse_mod

        def spy(terms, rhs, b, order, mod):
            spans.append((len(b), order))
            return extend(terms, rhs, b, order, mod)

        monkeypatch.setattr(modseries, "extend_monic_sparse_mod", spy)
        self.functions_by_engine()
        self.assert_no_kernel_call(kernel_calls)
        assert spans[0][0] == 1 and spans[-1][1] == 963
        assert all(start < end for start, end in spans)
        assert all(end == start for (_, end), (start, _) in zip(spans, spans[1:]))
