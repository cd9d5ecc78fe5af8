"""Counting functions: series route against the enumeration oracle."""

import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import q3series
from q3series import counts, modseries
from q3series.arith3 import pi3
from q3series.counts import CountingFunction, Kind, count_values, count_values_mod, values_at
from q3series.eta import jacobi_cube_terms
from q3series.series import solve_monic_sparse

from oracles import enumerate_count


class TestSeriesRoute:
    def test_three_color_counts(self):
        fn = CountingFunction(Kind.P3)
        assert count_values(fn, 6) == [1, 3, 9, 22, 51, 108]

    def test_regular_triples_mod3(self):
        fn = CountingFunction(Kind.REGULAR_TRIPLE, 3)
        vals = count_values(fn, 6)
        # cross-checked against direct enumeration; the two tails follow
        # the three-color counts minus three times the shifted ones
        p3 = count_values(CountingFunction(Kind.P3), 6)
        assert vals[3] == p3[3] - 3 * p3[0] == 19
        assert vals[5] == p3[5] - 3 * p3[2] == 81
        assert vals == [1, 3, 9, 19, 42, 81]

    def test_constant_terms(self):
        for fn in (CountingFunction(Kind.REGULAR_TRIPLE, 5),
                   CountingFunction(Kind.TWO_COLOR_TRIPLE, 7)):
            assert count_values(fn, 1) == [1]

    def test_known_base_congruence(self):
        # regular triples mod 3 on 3n+2 are divisible by 9
        vals = count_values(CountingFunction(Kind.REGULAR_TRIPLE, 3), 3 * 200 + 3)
        assert all(vals[3 * n + 2] % 9 == 0 for n in range(201))

    def test_three_color_progression_valuation(self):
        # the three-color counts on 3n+2, n < 20, are all divisible by 9, not all by 27
        vals = count_values(CountingFunction(Kind.P3), 61)
        assert min(pi3(v) for v in vals[2::3]) == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CountingFunction(Kind.REGULAR_TRIPLE)
        with pytest.raises(ValueError):
            CountingFunction(Kind.TWO_COLOR_TRIPLE, 0)
        # p3 has no modulus: one given is refused, not dropped
        with pytest.raises(ValueError, match="^p3 takes no modulus parameter$"):
            CountingFunction(Kind.P3, 5)


class TestEnumerationOracle:
    def test_examples(self):
        assert enumerate_count(CountingFunction(Kind.P3), 2) == 9
        assert enumerate_count(CountingFunction(Kind.REGULAR_TRIPLE, 3), 2) == 9
        assert enumerate_count(CountingFunction(Kind.REGULAR_TRIPLE, 2), 1) == 3

    def test_empty_partition(self):
        for fn in (CountingFunction(Kind.P3),
                   CountingFunction(Kind.REGULAR_TRIPLE, 4),
                   CountingFunction(Kind.TWO_COLOR_TRIPLE, 4)):
            assert enumerate_count(fn, 0) == 1

    @pytest.mark.parametrize("ell", [2, 3, 6, 9])
    def test_matches_series_route(self, ell):
        for kind in (Kind.REGULAR_TRIPLE, Kind.TWO_COLOR_TRIPLE):
            fn = CountingFunction(kind, ell)
            series = count_values(fn, 16)
            assert [enumerate_count(fn, n) for n in range(16)] == series


class TestReducedRoute:
    def test_differential_against_exact(self):
        mod = 3**15
        for fn in (CountingFunction(Kind.P3),
                   CountingFunction(Kind.REGULAR_TRIPLE, 27),
                   CountingFunction(Kind.TWO_COLOR_TRIPLE, 9)):
            exact = count_values(fn, 1500)
            reduced = count_values_mod(fn, 1500)
            assert [v % mod for v in exact] == [int(r) for r in reduced]

    def test_shared_base_is_read_only(self):
        p3 = count_values_mod(CountingFunction(Kind.P3), 10)
        regular = CountingFunction(Kind.REGULAR_TRIPLE, 3)
        before = count_values_mod(regular, 10).tolist()
        with pytest.raises(ValueError):
            p3[1] = 12345
        assert count_values_mod(regular, 10).tolist() == before
        assert values_at(CountingFunction(Kind.P3), [1], False) == [3]

    def test_seed_is_read_only(self):
        # the first growth replaces the order-1 seed, so only a fresh
        # interpreter still holds it
        child = (
            "import json\n"
            "from q3series import counts\n"
            "from q3series.counts import CountingFunction, Kind, count_values_mod, values_at\n"
            "p3 = CountingFunction(Kind.P3)\n"
            "refused = []\n"
            "for arr in (counts._base(1, False), count_values_mod(p3, 1)):\n"
            "    try:\n"
            "        arr[0] = 5\n"
            "        refused.append(False)\n"
            "    except ValueError:\n"
            "        refused.append(True)\n"
            "seed = len(counts._mod_base)\n"
            "read = values_at(p3, [0, 9], False)\n"
            "print(json.dumps([refused, seed, read, len(counts._mod_base)]))\n"
        )
        src = str(Path(q3series.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        p3_9 = count_values(CountingFunction(Kind.P3), 10)[9] % counts._MOD
        assert json.loads(run.stdout) == [[True, True], 1, [1, p3_9], 10]


class TestPointValues:
    """values_at against the full expansion of each engine."""

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(list(Kind)), ell=st.sampled_from([1, 2, 3, 5, 9, 27, 81]),
           order=st.integers(1, 800), picks=st.lists(st.integers(0, 10**6), max_size=12))
    @example(kind=Kind.TWO_COLOR_TRIPLE, ell=81, order=81, picks=[])
    @example(kind=Kind.REGULAR_TRIPLE, ell=1, order=1, picks=[])
    @example(kind=Kind.TWO_COLOR_TRIPLE, ell=1, order=800, picks=[799, 0, 799])
    def test_matches_full_expansion(self, kind, ell, order, picks):
        # 0, every index below l, order - 1 and random ones, unsorted, repeats kept;
        # p3 takes no l, and its draw of l only picks the indices
        fn = CountingFunction(kind, None if kind is Kind.P3 else ell)
        indices = [order - 1, *range(min(ell, order)), *(p % order for p in picks)]
        exact = count_values(fn, order)
        reduced = count_values_mod(fn, order)
        assert values_at(fn, indices, True) == [exact[i] for i in indices]
        assert values_at(fn, indices, False) == [int(reduced[i]) for i in indices]

    @pytest.mark.parametrize("ell", [1, 3, 12, 33, 81])
    def test_two_color_deep_reads_match_product_sums(self, ell):
        # the exact two-color read solves one row per class mod l; the oracle
        # is the product sum p_{l,3}[i] = sum_k base[k] * base[i - l*k]
        fn = CountingFunction(Kind.TWO_COLOR_TRIPLE, ell)
        indices = [5003, 4999, 4871, 5003, 4901 + ell, 4998, 4999 - ell, ell - 1, 0, ell // 2, 4999]
        assert len({i % ell for i in indices}) >= min(ell, 4)
        base = counts._base(5004, True)[:5004]
        want = [sum(map(operator.mul, base, base[i::-ell])) for i in indices]
        assert values_at(fn, indices, True) == want
        assert values_at(fn, indices, False) == [v % counts._MOD for v in want]

    def test_ascending_reads_extend_the_exact_base(self, monkeypatch):
        # in either engine each read past the base appends to it; nothing is
        # solved again (the reduced base starts from its first coefficient)
        def spied(owner, name):
            starts, extend = [], getattr(owner, name)

            def spy(terms, rhs, b, order, *mod):
                starts.append((len(b), order))
                return extend(terms, rhs, b, order, *mod)

            monkeypatch.setattr(owner, name, spy)
            return starts

        seed = np.ones(1, dtype=np.int64)
        seed.setflags(write=False)
        monkeypatch.setattr(counts, "_inv_cube", [])
        monkeypatch.setattr(counts, "_mod_base", seed)
        engines = {True: spied(counts, "extend_monic_sparse"),
                   False: spied(modseries, "extend_monic_sparse_mod")}
        full = solve_monic_sparse(jacobi_cube_terms(1, 91), [1], 91)
        p3 = CountingFunction(Kind.P3)
        for exact, starts in engines.items():
            got = [values_at(p3, [n], exact)[0] for n in (10, 40, 40, 25, 90)]
            assert starts == [(0 if exact else 1, 11), (11, 41), (41, 91)]
            want = full if exact else [v % counts._MOD for v in full]
            assert got == [want[n] for n in (10, 40, 40, 25, 90)]
            assert list(counts._base(91, exact)) == want

    def test_no_indices(self):
        assert values_at(CountingFunction(Kind.TWO_COLOR_TRIPLE, 2), [], True) == []

    def test_reduced_overflow_guard(self, monkeypatch):
        fn = CountingFunction(Kind.TWO_COLOR_TRIPLE, 3)
        values_at(fn, [5], False)  # the base already reaches index 5: no solve below
        monkeypatch.setattr(counts, "_MOD", 3**20)  # (3^20 - 1)^2 >= 2^63
        with pytest.raises(OverflowError):
            values_at(fn, [5], False)
