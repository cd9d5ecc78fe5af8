"""Coefficient-vector families: seeds, recurrences, and 3-adic bounds."""

import hashlib

import pytest

from q3series import vectors
from q3series.arith3 import pi3
from q3series.vectors import Family, bound_violations, family_vector, m_entry, valuation_bound


class TestBaseVectors:
    def test_seed(self):
        assert family_vector(Family.X, 0, 1, 4).values == (9, 0, 0, 0)

    def test_first_step(self):
        assert family_vector(Family.X, 0, 2, 1).value(1) == 9 * m_entry(4, 2) == 810

    def test_level_two_support(self):
        # one seed entry spreads along row 4 of the table, then stops
        v = family_vector(Family.X, 0, 2, 6)
        assert v.values == (9 * m_entry(4, 2), 9 * m_entry(4, 3), 9 * m_entry(4, 4), 0, 0, 0)

    def test_level_three_from_identity_coefficients(self):
        # leading coefficient of the 27n+17 three-color extraction
        from q3series.counts import CountingFunction, Kind, count_values

        p3 = count_values(CountingFunction(Kind.P3), 18)
        assert family_vector(Family.X, 1, 3, 1).value(1) == p3[17]

    def test_bound_at_seed(self):
        assert valuation_bound(Family.X, 0, 1, 1) == 2
        assert pi3(9) == 2


class TestFamilySeedsAndSteps:
    def test_odd_single_product_seed_is_base(self):
        assert family_vector(Family.R, 0, 1, 3).values == (9, 0, 0)
        assert family_vector(Family.R, 1, 1, 3).values == family_vector(Family.X, 1, 3, 3).values

    def test_odd_single_product_first_step(self):
        assert family_vector(Family.R, 0, 2, 1).value(1) == 9 * m_entry(3, 1) == 9

    def test_even_class_seed_is_even_base(self):
        x2 = family_vector(Family.X, 0, 2, 2)
        assert family_vector(Family.Z, 0, 1, 2).values == x2.values == (810, 78732)

    def test_one_step_families_share_seed(self):
        for fam in (Family.S, Family.U, Family.V, Family.W, Family.Y):
            assert family_vector(fam, 0, 1, 2).values == (9, 0)

    def test_deep_level_prefix_stable(self):
        # asking for a longer prefix must not change earlier entries
        short = family_vector(Family.Z, 1, 4, 3).values
        long = family_vector(Family.Z, 1, 4, 9).values
        assert long[:3] == short


def _whole_level(family, alpha, mu):
    """Level mu of a non-base family, every level stepped at its whole
    support from x_1 = (9,), with no windows: the reference."""
    def step(vec, fam, lvl):
        b, c = vectors._FAMILY[fam].step[lvl % 2]
        return [sum(v * m_entry(4 * i + b, i + j + c) for i, v in enumerate(vec, start=1))
                for j in range(1, 3 * len(vec) + 3)]

    vec = [9]
    for lvl in range(1, 2 * alpha + (2 if family is Family.Z else 1)):
        vec = step(vec, Family.X, lvl)
    for lvl in range(1, mu):
        vec = step(vec, family, lvl)
    return vec


class TestChain:
    @pytest.mark.parametrize("family", [f for f in Family if f is not Family.X])
    def test_windows_match_whole_levels(self, family):
        for alpha in (0, 1):
            for mu in (3, 1, 2):
                whole = _whole_level(family, alpha, mu)
                for jmax in (1, 7, 60):
                    want = tuple((whole + [0] * jmax)[:jmax])
                    assert family_vector(family, alpha, mu, jmax).values == want, (alpha, mu, jmax)

    def test_step_reads_only_the_band(self, monkeypatch):
        # the banded step against a plain step that reads every entry below
        def full_step(prev, b, c, jcap):
            out = [sum(v * m_entry(4 * i + b, i + j + c) for i, v in enumerate(prev, start=1))
                   for j in range(1, jcap + 1)]
            while out and out[-1] == 0:
                out.pop()
            return out

        requests = [(fam, alpha, mu, 40) for fam in Family if fam is not Family.X
                    for alpha in (0, 1) for mu in range(1, 5)] + [(Family.V, 3, 6, 2)]
        banded = [family_vector(*r).values for r in requests]
        monkeypatch.setattr(vectors, "_step_vector", full_step)
        assert [family_vector(*r).values for r in requests] == banded

    def test_base_vectors_stop_at_eight(self):
        with pytest.raises(ValueError):
            family_vector(Family.X, 4, 9, 1)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            family_vector(Family.R, 0, 0, 3)

    def test_seed_below_one_rejected(self):
        # alpha -1 seeds the odd residue-class family at x_{-1}
        with pytest.raises(ValueError, match="level >= 1 required"):
            family_vector(Family.Y, -1, 2, 3)

    @pytest.mark.parametrize("family, alpha", [(Family.Z, 4), (Family.R, 4)])
    def test_seed_past_eight_rejected(self, family, alpha):
        # seeds x_10 and x_9
        with pytest.raises(ValueError, match="beyond k=8"):
            family_vector(family, alpha, 1, 3)

    def test_family_seed_is_base_level(self):
        assert family_vector(Family.Z, 1, 1, 30).values == family_vector(Family.X, 1, 4, 30).values
        assert family_vector(Family.Y, 1, 1, 30).values == family_vector(Family.X, 1, 3, 30).values

    def test_window_grows_on_demand(self):
        # a short window is the prefix of a longer one, and a window past
        # the whole support is the same however often it is asked for
        short = family_vector(Family.R, 1, 4, 5).values
        long = family_vector(Family.R, 1, 4, 300).values
        assert family_vector(Family.R, 1, 4, 300).values == long
        assert long[:5] == short
        assert long[-1] == 0  # the whole support (264 entries) fits in 300
        assert long[263] and not any(long[264:])


class TestBoundFormula:
    def test_examples(self):
        assert valuation_bound(Family.X, 0, 1, 1) == 2
        assert valuation_bound(Family.Z, 0, 1, 1) == 4
        assert valuation_bound(Family.W, 0, 2, 2) == 7

    def test_base_level_must_match_alpha(self):
        with pytest.raises(ValueError):
            valuation_bound(Family.X, 0, 4, 1)

    def test_even_levels(self):
        assert valuation_bound(Family.X, 0, 2, 1) == 4
        assert valuation_bound(Family.R, 0, 2, 2) == 2 + (18 - 10) // 2

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            valuation_bound(Family.R, 0, 0, 1)


class TestBoundChecks:
    @pytest.mark.parametrize("family", list(Family))
    def test_grid_passes(self, family):
        # CoeffVector refuses any entry below the bound: alpha <= 1, mu <= 4, X at k <= 4
        grid = ([((k - 1) // 2, k) for k in range(1, 5)] if family is Family.X
                else [(a, mu) for a in range(2) for mu in range(1, 5)])
        for alpha, mu in grid:
            assert len(family_vector(family, alpha, mu, 6).values) == 6

    def test_tampered_value_reported(self):
        good = family_vector(Family.R, 0, 2, 3).values
        tampered = (good[0] // 3,) + good[1:]
        bad = bound_violations(tampered, Family.R, 0, 2)
        assert bad and bad[0]["j"] == 1 and bad[0]["required"] == 2
        assert type(bad[0]["valuation"]) is int and bad[0]["valuation"] == 1

    def test_constructor_asserts(self):
        from q3series.vectors import CoeffVector

        with pytest.raises(ValueError):
            CoeffVector(Family.R, 0, 2, 2, (3, 0))


def test_vectors_all_nonnegative_and_divisible():
    # every materialized entry is a nonnegative multiple of 9 at level 1 depth
    for fam in (Family.R, Family.S, Family.U):
        vec = family_vector(fam, 0, 2, 6)
        assert all(v >= 0 for v in vec.values)
        assert all(v % 9 == 0 for v in vec.values if v)


def _pin(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _read(fn, *args) -> str:
    """A call's result in hex (entries past 4,300 digits defeat str), or
    its error message."""
    try:
        out = fn(*args)
    except ValueError as e:
        return f"ValueError: {e}"
    return ",".join(map(hex, out)) if isinstance(out, tuple) else hex(out)


class TestFamilyTablePinned:
    """The per-family rules, pinned by sha256 on grids computed when each
    family's step, bound and seed were written out separately."""

    def test_valuation_bound_grid(self):
        # every family, alpha 0..3, mu 1..8, j 1..6: 1,536 calls, errors included
        lines = [f"{f.value} {a} {mu} {j} {_read(valuation_bound, f, a, mu, j)}"
                 for f in Family for a in range(4) for mu in range(1, 9) for j in range(1, 7)]
        assert len(lines) == 1536
        assert _pin(lines) == "df71c888580749d3d3635f7dba2ad84255638167f524ac97d36c79760d456d34"

    def test_entries_grid(self):
        # every family, alpha 0..1, mu 1..5, six window lengths: 480 requests
        lines = [f"{f.value} {a} {mu} {jmax} {_read(vectors._entries, f, a, mu, jmax)}"
                 for f in Family for a in range(2) for mu in range(1, 6)
                 for jmax in (1, 2, 3, 5, 10, 20)]
        assert len(lines) == 480
        assert _pin(lines) == "cf77b212e0ddfa9e23933551e5044505b75bae538b610386558f611df738d447"
