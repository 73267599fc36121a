"""Repeat the benchmark over seeds: medians, quartiles and spreads per workload.

    python3 bench/sweep.py [--seeds 10] [--workload NAME ...] [--traced]
                           [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), seeds 1..N, for the
``run_seconds`` of BENCHMARK.json, one run at a time.  For each
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, (q3 - q1) / median,
against a third of the metric's bound.  ``--traced`` adds one
``--trace 1`` run per workload at seed 0.  ``--out`` writes everything
as JSON; ``bench/baseline.json`` is such a file, written with
``--traced --out bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run of run.py: its environment record and its result object."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for name in args.workload or workloads.NAMES:
        runs = []
        for seed in report["seeds"]:
            env, result = bench(name, seed, seconds, 0)
            report.setdefault("environment", env)
            runs.append(result)
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {
                metric: dict(summarize([r["metrics"][metric]["value"] for r in runs]),
                             unit=runs[0]["metrics"][metric]["unit"])
                for metric in bounds
            },
        }
        print(f"{name}: attempted {sum(entry['attempted'])}, failed {sum(entry['failed'])}")
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric:12s} median {s['median']:.4f} {s['unit']}  "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
                  f"spread {s['spread']:.4f} (bound/3 {bounds[metric] / 3:.4f})")
        if args.traced:
            _, result = bench(name, 0, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
