"""Output checks for one suite report, computed apart from q3series.

Nothing here imports the package.  The checks take the report JSON and the
coefficient arrays behind it (exact Python integers or residues mod 3^15,
whichever engine produced them) and confirm:

* product: every array satisfies its defining product,
  a * E(q)^3 = E(q^l)^3 (regular) or a * E(q)^3 * E(q^l)^3 = 1 (twocolor),
  in the form a * E(q)^3 = target.  The whole array is checked mod 3^15;
  exact arrays are also checked in exact integers at every index a
  counterexample cites and at a seeded sample of the rest.  E(q)^3 comes
  from Jacobi's formula, written out here.
* engines: the exact and reduced engines agree mod 3^15 on a shared prefix.
* verdicts: each report's counterexamples are recomputed from the arrays
  and shown to miss their exponent; a PASS progression is shown divisible;
  the checked count matches.
* proven: the proven families report PASS and the proven identities
  report exact_equal.

`plant_faults` perturbs one input per check and confirms that the check
then rejects it, so a check that cannot fail is caught.
"""

from __future__ import annotations

import math
import random

import numpy as np

MOD_EXPONENT = 15
MOD = 3**MOD_EXPONENT

PROVEN_FAMILIES = frozenset(
    ["MR1", "MR2", "MR3", "MR4", "MR5", "MR6", "MR15", "MR16", "MR17", "MR18", "MR19", "MR20",
     "MR171", "G1", "B1", "B2", "B3", "B4", "T1", "T2", "T3"])
PROVEN_IDENTITIES = frozenset(["H1", "H2", "T11", "D6", "T12", "T21", "T22", "T23"])
# families whose progression skips indices n divisible by the auxiliary prime p
P_FILTERED = frozenset(["MR4", "MR11", "MR16", "MR20"])
BRANCH_CASES = frozenset(["MR10"])

EXACT_SAMPLE = 16


# -- arithmetic of our own -------------------------------------------------


def v3(n: int) -> int | None:
    """3-adic valuation; None for zero."""
    if n == 0:
        return None
    n = abs(n)
    e = 0
    while n % 3 == 0:
        n //= 3
        e += 1
    return e


def cube_terms(scale: int, order: int) -> list[tuple[int, int]]:
    """Jacobi: E(q^s)^3 = sum_k (-1)^k (2k+1) q^(s k(k+1)/2)."""
    out = []
    k = 0
    while scale * k * (k + 1) // 2 < order:
        out.append((scale * k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    return out


def p3_exact(order: int) -> list[int]:
    """1/E(q)^3 to `order`, by back-substitution against Jacobi's cube."""
    terms = cube_terms(1, order)[1:]
    b = [0] * order
    for n in range(order):
        acc = 1 if n == 0 else 0
        for g, c in terms:
            if g > n:
                break
            acc -= c * b[n - g]
        b[n] = acc
    return b


def parse_label(label: str) -> tuple[str, int | None]:
    """'regular(81)' -> ('regular', 81); 'p3' -> ('p3', None)."""
    if "(" not in label:
        return label, None
    kind, ell = label.rstrip(")").split("(")
    return kind, int(ell)


class Targets:
    """Right-hand sides of a * E(q)^3 = target, shared by all keys."""

    def __init__(self, keys: dict[tuple[str, int | None], int]):
        need = max([-(-order // ell) for (kind, ell), order in keys.items() if kind == "twocolor"],
                   default=1)
        self.p3 = p3_exact(need)

    def exact_at(self, kind: str, ell: int | None, n: int) -> int:
        if kind == "p3":
            return 1 if n == 0 else 0
        if kind == "regular":
            k = (math.isqrt(8 * (n // ell) + 1) - 1) // 2 if n % ell == 0 else -1
            return (-1) ** k * (2 * k + 1) if k >= 0 and ell * k * (k + 1) // 2 == n else 0
        # twocolor: a * E(q)^3 = 1 / E(q^l)^3 = sum_k p3(k) q^(l k)
        return self.p3[n // ell] if n % ell == 0 else 0

    def mod_array(self, kind: str, ell: int | None, order: int) -> np.ndarray:
        out = np.zeros(order, dtype=np.int64)
        if kind == "p3":
            out[0] = 1
        elif kind == "regular":
            for g, c in cube_terms(ell, order):
                out[g] = c % MOD
        else:
            idx = np.arange(0, order, ell)
            out[idx] = [self.p3[k] % MOD for k in range(len(idx))]
        return out


# -- the checks ------------------------------------------------------------


def _residues(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return values % MOD
    return np.array([v % MOD for v in values], dtype=np.int64)


def product_mod_violations(kind, ell, values, targets: Targets) -> list[int]:
    """Indices where a * E(q)^3 != target mod 3^15, over the whole array."""
    res = _residues(values)
    n = len(res)
    acc = np.zeros(n, dtype=np.int64)
    for g, c in cube_terms(1, n):
        # both factors are residues below 3^15, so each product stays below 2^48
        acc[g:] = (acc[g:] + (c % MOD) * res[: n - g]) % MOD
    return np.nonzero(acc != targets.mod_array(kind, ell, n))[0].tolist()


def product_exact_violations(kind, ell, values, indices, targets: Targets) -> list[int]:
    """Indices among `indices` where a * E(q)^3 != target in exact integers."""
    terms = cube_terms(1, len(values))
    bad = []
    for n in indices:
        acc = 0
        for g, c in terms:
            if g > n:
                break
            acc += c * values[n - g]
        if acc != targets.exact_at(kind, ell, n):
            bad.append(n)
    return bad


def engine_violations(exact_prefix, reduced_prefix) -> list[int]:
    """Indices where the exact value and the reduced residue disagree mod 3^15."""
    return np.nonzero(_residues(exact_prefix) != np.asarray(reduced_prefix) % MOD)[0].tolist()


def _triangular(n: int) -> bool:
    k = (math.isqrt(8 * n + 1) - 1) // 2
    return k * (k + 1) // 2 == n


def report_indices(rep: dict) -> list[tuple[int, int]]:
    """(n, coefficient index) pairs a report reads, in order."""
    prog = rep["progression"]
    A, B = prog["A"], prog["B"]
    if "terms" in rep["params"]:
        return [(n, A * n + B) for n in range(rep["params"]["terms"])]
    p = rep["params"].get("p") if rep["case"] in P_FILTERED else None
    return [(n, A * n + B) for n in range(rep["params"]["n_max"] + 1) if p is None or n % p]


def verdict_problems(rep: dict, values) -> list[str]:
    """Recompute a report's failures from the coefficient array."""
    capped = isinstance(values, np.ndarray)
    pairs = report_indices(rep)
    if rep["checked"] != len(pairs):
        return [f"checked {rep['checked']} != {len(pairs)} indices"]
    problems = []
    if "terms" in rep["params"]:  # identity: failures cite lhs residues
        for f in rep["failures"]:
            lhs = int(values[pairs[f["n"]][1]])
            if f["required"] == "exact":
                ok = str(lhs) == f["value"] and lhs != int(f["expected"])
            else:
                mod = 3 ** f["required"]
                ok = str(lhs % mod) == f["value"] and (lhs - int(f["expected"])) % mod != 0
            if not ok:
                problems.append(f"counterexample n={f['n']} not reproduced")
        return problems
    e = rep["modulus_exponent"]
    mod = 3**e
    want = {}
    if rep["case"] in BRANCH_CASES:
        const = int(values[pairs[0][1]])
        for n, i in pairs:
            v = int(values[i])
            w = const * (2 * n + 1) * (-1 if n % 2 else 1) if _triangular(n) else 0
            if (v - w) % mod:
                want[n] = (str(v % mod), str(w % mod))
        got = {f["n"]: (f["value"], f["expected"]) for f in rep["failures"]}
    else:
        for n, i in pairs:
            v = int(values[i])
            val = v3(v % MOD if capped else v)
            if val is not None and val < e:
                want[n] = (str(v), val)
        got = {f["n"]: (f["value"], f["valuation"]) for f in rep["failures"]
               if f["required"] == e}
    if len(got) != len(rep["failures"]):
        problems.append("failure entries with another exponent or repeated n")
    for n in sorted(set(got) | set(want)):
        if n not in want:
            problems.append(f"counterexample n={n} does not miss its exponent")
        elif n not in got:
            problems.append(f"n={n} misses exponent {e} but is not reported")
        elif got[n] != want[n]:
            problems.append(f"counterexample n={n} carries {got[n]}, recomputed {want[n]}")
    if rep["status"] == "PASS" and (want or rep["failures"]):
        problems.append("PASS progression is not divisible")
    return problems


def proven_problems(rep: dict) -> list[str]:
    if rep["case"] in PROVEN_FAMILIES and rep["status"] != "PASS":
        return [f"proven family {rep['case']} reports {rep['status']}"]
    if rep["case"] in PROVEN_IDENTITIES and rep.get("exact_equal") is not True:
        return [f"proven identity {rep['case']} is not exact_equal"]
    return []


# -- one whole check pass ----------------------------------------------------


def key_of(rep: dict) -> tuple[str, int | None]:
    return parse_label(rep["function"])


def check_suite(suite: dict, arrays: dict, prefixes: dict, targets: Targets, seed: int) -> dict:
    """Run every check.  Returns {"job_problems": [[str], ...], "sizes": {...}}.

    arrays:   key -> coefficient array the reports were read from
    prefixes: key -> (exact prefix, reduced prefix) for the engine check
    """
    rng = random.Random(seed)
    reports = suite["reports"]
    bad_keys: dict = {}
    exact_checked = 0
    for key in sorted(arrays, key=str):
        values = arrays[key]
        kind, ell = key
        bad = product_mod_violations(kind, ell, values, targets)
        if not isinstance(values, np.ndarray):
            cited = set()
            for rep in reports:
                if "error" not in rep and key_of(rep) == key and rep["failures"]:
                    fails = {f["n"] for f in rep["failures"]}
                    cited.update(i for n, i in report_indices(rep) if n in fails)
            sample = rng.sample(range(len(values)), min(EXACT_SAMPLE, len(values)))
            todo = sorted(cited | set(sample))
            exact_checked += len(todo)
            bad += product_exact_violations(kind, ell, values, todo, targets)
        exact_p, reduced_p = prefixes[key]
        bad += engine_violations(exact_p, reduced_p)
        if bad:
            bad_keys[key] = sorted(set(bad))[:5]
    job_problems = []
    for rep in reports:
        if "error" in rep:
            job_problems.append([f"error: {rep['error']}"])
            continue
        key = key_of(rep)
        probs = [f"{key} fails its product or engine check at {bad_keys[key]}"] if key in bad_keys else []
        probs += verdict_problems(rep, arrays[key]) + proven_problems(rep)
        job_problems.append(probs)
    return {"job_problems": job_problems,
            "sizes": {"keys": len(arrays), "exact_indices": exact_checked,
                      "coefficients": sum(len(v) for v in arrays.values())}}


def _bumped(values, i: int):
    """A copy of the array with entry i raised by one."""
    if isinstance(values, np.ndarray):
        out = values.copy()
        out[i] = (out[i] + 1) % MOD
        return out
    out = list(values)
    out[i] += 1
    return out


def plant_faults(suite: dict, arrays: dict, prefixes: dict, targets: Targets, seed: int) -> dict:
    """Perturb one input per check; each entry is True when the check rejected it.

    Entries that the workload cannot exercise (no counterexample, no PASS
    congruence, no proven identity) are absent.
    """
    rng = random.Random(seed + 1)
    reports = [r for r in suite["reports"] if "error" not in r]
    out = {}

    # one coefficient: product check
    rep = rng.choice(reports)
    key = key_of(rep)
    _, i = rng.choice(report_indices(rep))
    values = _bumped(arrays[key], i)
    found = product_mod_violations(*key, values, targets)
    if not isinstance(values, np.ndarray):
        found += product_exact_violations(*key, values, [i], targets)
    out["coefficient"] = i in found

    # one counterexample residue: verdict check
    failing = [r for r in reports if r["failures"]]
    if failing:
        rep = dict(rng.choice(failing))
        rep["failures"] = [dict(f) for f in rep["failures"]]
        f = rng.choice(rep["failures"])
        f["value"] = str(int(f["value"]) + 3 ** 13)
        out["counterexample"] = bool(verdict_problems(rep, arrays[key_of(rep)]))

    # one divisible coefficient of a PASS congruence: verdict check
    passing = [r for r in reports if r["status"] == "PASS" and "n_max" in r["params"]
               and r["case"] not in BRANCH_CASES]
    if passing:
        rep = rng.choice(passing)
        key = key_of(rep)
        _, i = rng.choice(report_indices(rep))
        out["pass_divisible"] = bool(verdict_problems(rep, _bumped(arrays[key], i)))

    # one reduced residue of the shared prefix: engine check
    key = rng.choice(sorted(prefixes, key=str))
    exact_p, reduced_p = prefixes[key]
    reduced_p = np.array(reduced_p, dtype=np.int64)
    j = rng.randrange(len(reduced_p))
    reduced_p[j] = (reduced_p[j] + 1) % MOD
    out["engine_prefix"] = j in engine_violations(exact_p, reduced_p)

    proven = [r for r in reports if r["case"] in PROVEN_FAMILIES]
    if proven:
        out["proven_family"] = bool(proven_problems(dict(rng.choice(proven), status="FAIL")))
    exact_ids = [r for r in reports if r["case"] in PROVEN_IDENTITIES]
    if exact_ids:
        out["proven_identity"] = bool(proven_problems(dict(rng.choice(exact_ids), exact_equal=False)))
    return out
