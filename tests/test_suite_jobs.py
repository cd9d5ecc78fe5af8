"""The suite's job list, read off the catalog records.

`reference_jobs` is the job list as it was written out by hand, case id
by case id, before the records decided each grid; the derived list must
equal it, in order, on every config the reference can build.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from q3series.report import SKIPPED
from q3series.verifier import (_CASE_BY_ID, SuiteConfig, _pow3, _suite_jobs, catalog,
                               class_members, run_suite)

CASE_IDS = [c.id for c in catalog()["congruences"]]
IDENTITY_IDS = [i.id for i in catalog()["identities"]]


def _case_n_max(cfg: SuiteConfig, A: int) -> int:
    return cfg.n_max_small if A <= cfg.small_A_cutoff else cfg.n_max


def reference_jobs(cfg: SuiteConfig) -> list[tuple[str, str, dict, dict]]:
    """Deterministic job list: (kind, id, params, options)."""
    jobs: list[tuple[str, str, dict, dict]] = []

    def addc(case_id: str, params: dict, n_max: int | None = None):
        if cfg.include is not None and case_id not in cfg.include:
            return
        case = _CASE_BY_ID[case_id]
        A = case.A({k: int(v) for k, v in params.items()})
        jobs.append(("congruence", case_id, params,
                     {"n_max": n_max if n_max is not None else _case_n_max(cfg, A)}))

    def addi(identity_id: str, params: dict, mode: str):
        if cfg.include is not None and identity_id not in cfg.include:
            return
        jobs.append(("identity", identity_id, params, {"mode": mode}))

    grid = [(a, b) for a in cfg.alphas for b in cfg.betas]
    for a, b in grid:
        for cid in ("MR1", "MR2", "MR3", "MR5", "MR6", "MR15", "MR17", "MR171", "MR18", "MR19"):
            addc(cid, {"alpha": a, "beta": b})
        for ell in class_members(_pow3(2 * a + 1), cfg.class_reps_per_sign):
            for cid in ("MR7", "MR8", "MR9", "MR10", "MR21", "MR22", "MR23", "MR24"):
                addc(cid, {"alpha": a, "beta": b, "ell": ell})
        for ell in class_members(_pow3(2 * a + 2), cfg.class_reps_per_sign):
            for cid in ("MR12", "MR13", "MR14"):
                addc(cid, {"alpha": a, "beta": b, "ell": ell})
    for a in cfg.prime_alphas:
        for b in cfg.prime_betas:
            for k in cfg.prime_ks:
                for p in cfg.primes_3mod4:
                    addc("MR4", {"alpha": a, "beta": b, "p": p, "k": k}, cfg.prime_n_max)
                    addc("MR20", {"alpha": a, "beta": b, "p": p, "k": k}, cfg.prime_n_max)
                    for ell in class_members(_pow3(2 * a + 1), cfg.class_reps_per_sign):
                        addc("MR11", {"alpha": a, "beta": b, "ell": ell, "p": p, "k": k},
                             cfg.prime_n_max)
                for p in cfg.primes_nonresidue:
                    addc("MR16", {"alpha": a, "beta": b, "p": p, "k": k}, cfg.prime_n_max)
    for b in cfg.priors_betas:
        for cid in ("G1", "B1", "B2", "B3", "T1", "T2", "T3"):
            addc(cid, {"beta": b}, cfg.priors_n_max)
        for p in cfg.primes_3mod4:
            addc("B4", {"beta": b, "p": p}, cfg.priors_n_max)
    for k in cfg.conjecture_ks:
        for m in cfg.conjecture_ms:
            addc("BC1", {"k": k, "m": m}, cfg.conjecture_n_max)
            addc("BC2", {"k": k, "m": m}, cfg.conjecture_n_max)

    for a in cfg.alphas:
        addi("H1", {"alpha": a}, "exact")
        addi("H2", {"alpha": a}, "exact")
        for b in cfg.betas:
            for iid in ("T11", "D6", "T12", "T21", "T22", "T23"):
                addi(iid, {"alpha": a, "beta": b}, "exact")
            for iid in ("T24", "T25", "T31", "T311"):
                for ell in class_members(_pow3(2 * a + 1), cfg.class_reps_per_sign):
                    addi(iid, {"alpha": a, "beta": b, "ell": ell}, "auto")
            for iid in ("T32", "T321"):
                for ell in class_members(_pow3(2 * a + 2), cfg.class_reps_per_sign):
                    addi(iid, {"alpha": a, "beta": b, "ell": ell}, "auto")

    jobs.sort(key=lambda j: (j[0], j[1], json.dumps(j[2], sort_keys=True)))
    return jobs


_NO_OTHER_GRIDS = dict(primes_3mod4=(), primes_nonresidue=(), prime_ks=(), prime_alphas=(),
                  prime_betas=(), priors_betas=(), conjecture_ks=(), conjecture_ms=())

# the benchmark's three workloads, with the sha256 of their suite JSON
SHAPED = {
    "reduced-deep": (SuiteConfig(alphas=(1,), betas=(1,), n_max=46, class_reps_per_sign=1,
                                 include=("MR13", "MR14", "MR18", "MR24"), **_NO_OTHER_GRIDS),
                     "c8e78d02194842284d3b89a237f1b693806fbbc5bd687989c5afad1cfbdf35dd"),
    "exact-grid": (SuiteConfig(betas=(0,), priors_betas=(0,), include=tuple(CASE_IDS)),
                   "bc1976d0239326dc22a4cf9da75acecd43947dfdf2ff4428610e5c68b9aeb8a7"),
    "identity-windows": (SuiteConfig(betas=(0,), class_reps_per_sign=1, identity_terms=100,
                                     include=tuple(IDENTITY_IDS), **_NO_OTHER_GRIDS),
                         "2202f8111510ea98aa688d1c73f43c4a8267e296c9e5feb3b23eca3c3029d245"),
}


@pytest.mark.parametrize("name", sorted(SHAPED))
def test_perfbench_digest(name):
    cfg, sha256 = SHAPED[name]
    text = "".join(run_suite(cfg).json_pieces())
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


@pytest.mark.parametrize("name", ["default"] + sorted(SHAPED))
def test_derived_jobs_match_reference(name):
    cfg = SuiteConfig() if name == "default" else SHAPED[name][0]
    assert _suite_jobs(cfg) == reference_jobs(cfg)


def test_every_record_runs_on_the_default_grids():
    ids = {jid for _, jid, _, _ in _suite_jobs(SuiteConfig())}
    assert ids == set(CASE_IDS) | set(IDENTITY_IDS)


_depths = st.lists(st.integers(0, 3), max_size=3).map(tuple)
_primes = st.lists(st.integers(2, 30), max_size=3).map(tuple)


@settings(max_examples=150, deadline=None)
@given(cfg=st.builds(
    SuiteConfig, alphas=_depths, betas=_depths, n_max=st.integers(0, 60),
    n_max_small=st.integers(0, 60), small_A_cutoff=st.integers(0, 3**7),
    primes_3mod4=_primes, primes_nonresidue=_primes, prime_ks=_depths, prime_n_max=st.integers(1, 9),
    prime_alphas=_depths, prime_betas=_depths, class_reps_per_sign=st.integers(1, 4),
    priors_betas=_depths, priors_n_max=st.integers(0, 9),
    # the reference evaluates BC2's A = 3^(2k - 1), so it cannot build k = 0
    conjecture_ks=st.lists(st.integers(1, 3), max_size=3).map(tuple), conjecture_ms=_depths,
    conjecture_n_max=st.integers(0, 9),
    include=st.none() | st.lists(st.sampled_from(CASE_IDS + IDENTITY_IDS)).map(tuple)))
def test_derived_jobs_match_reference_on_random_configs(cfg):
    assert _suite_jobs(cfg) == reference_jobs(cfg)


def test_rejected_parameters_become_error_reports():
    # k = 0 is outside the open statements; the job fails, the run goes on
    cfg = SuiteConfig.from_json('{"conjecture_ks": [0], "include": ["BC1", "BC2", "MR1"], '
                                '"n_max": 10, "n_max_small": 10}')
    suite = run_suite(cfg)
    for cid in ("BC1", "BC2"):
        reps = [r for r in suite.reports if r.case == cid]
        assert len(reps) == 2 and all(r.status == SKIPPED for r in reps)
        assert {r.extras["error"] for r in reps} == {f"{cid}: k=0 must be at least 1"}
    mr1 = [r for r in suite.reports if r.case == "MR1"]
    assert len(mr1) == 4 and all("error" not in r.extras for r in mr1)
