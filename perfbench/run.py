#!/usr/bin/env python3
"""Benchmark of `q3series verify suite` on three slices of the catalog.

Usage, from the root of a source checkout:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every round is one fresh process (child.py) that imports q3series, makes one
`verify suite --config perfbench/configs/NAME.json` call through
`q3series.cli.main`, and exits, so expansion caches start cold as in a
user's CLI call.  Rounds repeat while the next one fits in S seconds; there
is always at least one.  The first round's outputs are checked by checks.py
with the seed; later rounds must write byte-identical reports.

--trace 0 prints the end-to-end metrics: setup_s (first round), wall_s and
peak_rss_mb (medians over rounds).  --trace 1 runs one untraced checked
round, then traced rounds, and prints the per-layer metrics (medians over
traced rounds) with the tracing overhead.  The last stdout line is the
result JSON; the line before it is the host and backend fingerprint.
Run records, reports and spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# workload -> number of case jobs its config yields (one operation each)
WORKLOADS = {"reduced-deep": 7, "exact-grid": 231, "identity-windows": 40}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170  # every run must end within 180 s


def fingerprint(kernel: str) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "q3series").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "numba": version("numba"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest()[:16],
        "modseries_kernel": kernel,
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "absent"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_round(workload: str, index: int, trace: bool, check_seed: int | None, deadline: float) -> dict:
    result_path = OUT / f"{workload}.round{index}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"),
           "--config", str(HERE / "configs" / f"{workload}.json"),
           "--report", str(OUT / f"{workload}.report.json"),
           "--result", str(result_path)]
    if trace:
        cmd += ["--trace", str(OUT / f"{workload}.spans.jsonl")]
    if check_seed is not None:
        cmd += ["--check", str(check_seed)]
    env = {k: v for k, v in os.environ.items() if k not in ("Q3SERIES_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for a round")
    cmd += ["--launched", repr(time.time())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"round {index} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    res = json.loads(result_path.read_text())
    if res["exit_code"] not in (0, 1):  # 1 is the CLI's documented "some case FAILed"
        raise RuntimeError(f"round {index}: verify suite exited {res['exit_code']}")
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "q3series" / "cli.py").is_file():
        print("error: no q3series sources under src/; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    try:
        first = run_round(args.workload, 0, False, args.seed, deadline)
        rounds = [first]
        while True:
            spent = time.monotonic() - started
            per_round = (spent - first["check"]["check_s"]) / len(rounds)
            owes_traced_round = args.trace and len(rounds) == 1
            if not owes_traced_round and spent + per_round > args.seconds:
                break
            rounds.append(run_round(args.workload, len(rounds), bool(args.trace), None, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    check = first["check"]
    n_jobs = WORKLOADS[args.workload]
    failed_per_round = check["failed_reports"] + abs(n_jobs - check["reports"])
    failed = 0
    for r in rounds:
        failed += failed_per_round if r["report_sha256"] == first["report_sha256"] else n_jobs
    plants_ok = all(check["plants"].values()) and "coefficient" in check["plants"] \
        and "counterexample" in check["plants"]

    if args.trace:
        traced = rounds[1:]
        metrics = {k: {"value": statistics.median(r["layers"][k][0] for r in traced), "unit": unit}
                   for k, (_v, unit) in traced[0]["layers"].items()}
        overhead = statistics.median(r["wall_s"] for r in traced) - first["wall_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {"setup_s": first["setup_s"],
                  "wall_s": statistics.median(r["wall_s"] for r in rounds),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "metrics": metrics,
              "fingerprint": fingerprint(first["kernel"])}
    (OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    print("checks " + json.dumps({"plants_rejected": check["plants"], "sizes": check["sizes"],
                                  "first_problems": check["first_problems"],
                                  "rounds": len(rounds)}, sort_keys=True))
    print(json.dumps({"correct": plants_ok, "attempted": n_jobs * len(rounds), "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
