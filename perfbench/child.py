"""One suite invocation in a fresh process: set-up, the timed call, checks.

Usage (from run.py):
  python3 child.py --config CFG --report OUT.json --result RESULT.json
                   --launched T [--trace SPANS.jsonl] [--check SEED]

`--launched` is the parent's time.time() just before it started this
process, so set-up time counts interpreter start-up too.  The suite runs
through `q3series.cli.main` exactly as `q3series verify suite --config CFG`
would, with stdout going to the report file.  The result file gets the
timings (raw, and scaled to the reference CPU speed by SpeedProbe), the
peak RSS, the report digest and, when asked, the check outcome.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import threading
import time

import checks

# time of one probe unit at the speed the reference figures were taken at
# (README); wall times are reported scaled to that speed
PROBE_REFERENCE_S = 1.6e-3
PROBE_PERIOD_S = 0.1


def probe_unit() -> float:
    """Seconds for a fixed exact-integer recurrence (1/E(q)^3 to order 500).

    The clock starts once this thread runs, so waits for the interpreter
    lock are left out; the unit is shorter than the lock's 5 ms switch
    interval, so the suite thread rarely interrupts it.  Time the host
    takes away from this process still counts, as it does in the suite.
    """
    t = time.perf_counter()
    checks.p3_exact(500)
    return time.perf_counter() - t


class SpeedProbe:
    """Samples the CPU speed of this process while a call runs.

    On a shared host the same work can take a third longer from one minute
    to the next.  A thread runs `probe_unit` every PROBE_PERIOD_S, and once
    each at entry and exit.  `scale` converts a wall time measured meanwhile
    to the reference speed.  It uses the median unit: a stall that hits one
    short unit would otherwise weigh some sixty times more in the scale than
    it did in the suite's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(probe_unit())

    def __enter__(self):
        self.samples.append(probe_unit())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append(probe_unit())

    @property
    def scale(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.samples)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace")
    ap.add_argument("--check", type=int)
    args = ap.parse_args()

    import numpy as np

    from q3series import cli, modseries

    one = np.ones(1, dtype=np.int64)
    mod = 3**modseries.STANDARD_EXPONENT
    modseries.solve_monic_sparse_mod([(0, 1)], one, 1, mod)
    modseries.mul_sparse_mod(one, [(0, 1)], 1, mod)
    setup_raw_s = time.time() - args.launched
    setup_scale = PROBE_REFERENCE_S / statistics.median(probe_unit() for _ in range(9))

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)

    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        with open(args.report, "w") as fh, contextlib.redirect_stdout(fh):
            exit_code = cli.main(["verify", "suite", "--config", args.config, "--format", "json"])
        wall_raw_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    with open(args.report, "rb") as fh:
        raw = fh.read()
    result = {
        "setup_s": setup_raw_s * setup_scale,
        "wall_s": wall_raw_s * probe.scale,
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": wall_raw_s,
        "speed_scale": probe.scale,
        "probes": len(probe.samples),
        "peak_rss_mb": peak_rss_mb,
        "exit_code": exit_code,
        "report_sha256": hashlib.sha256(raw).hexdigest(),
        "kernel": kernel_name(modseries),
    }
    if tracer is not None:
        result["layers"] = layers.metrics(tracer)
        layers.dump(tracer, args.trace)
    if args.check is not None:
        result["check"] = run_checks(json.loads(raw), args.check)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def kernel_name(modseries) -> str:
    """Which reduced kernel is bound, read from outside the module."""
    if hasattr(modseries, "BACKEND"):
        return str(modseries.BACKEND)
    impl = getattr(modseries, "_solve_impl", None)
    if impl is None:
        return "unknown"
    return "numba" if hasattr(impl, "py_func") else f"python ({impl.__name__})"


def run_checks(suite: dict, seed: int) -> dict:
    """Collect the arrays the reports were read from, then run checks.py on them.

    Exact arrays evicted from the program's bounded cache are expanded again
    here, outside the timed call; reduced arrays are still cached.
    """
    from q3series.counts import CountingFunction, Kind, count_values, count_values_mod

    t0 = time.perf_counter()
    demand: dict = {}
    for rep in suite["reports"]:
        if "error" in rep:
            continue
        reduced = rep.get("engine", "exact") != "exact" or rep.get("exact_checked") is False
        order = max(i for _n, i in checks.report_indices(rep)) + 1
        key = (checks.key_of(rep), reduced)
        demand[key] = max(demand.get(key, 0), order)
    arrays, prefixes = {}, {}
    for ((kind, ell), reduced), order in sorted(demand.items(), key=str):
        fn = CountingFunction(Kind(kind), ell)
        if (kind, ell) in arrays:
            raise ValueError(f"{kind}({ell}) is read from both engines in one run")
        arrays[(kind, ell)] = count_values_mod(fn, order) if reduced else count_values(fn, order)
        shared = min(order, 1024)
        prefixes[(kind, ell)] = (count_values(fn, shared), count_values_mod(fn, shared))
    targets = checks.Targets({k: len(v) for k, v in arrays.items()})
    outcome = checks.check_suite(suite, arrays, prefixes, targets, seed)
    plants = checks.plant_faults(suite, arrays, prefixes, targets, seed)
    problems = [p for p in outcome["job_problems"] if p]
    return {
        "reports": len(suite["reports"]),
        "failed_reports": len(problems),
        "first_problems": problems[:3],
        "plants": plants,
        "sizes": outcome["sizes"],
        "check_s": time.perf_counter() - t0,
    }


if __name__ == "__main__":
    sys.exit(main())
