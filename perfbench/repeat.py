"""Run each workload several times and summarise every metric.

    python3 perfbench/repeat.py [--runs 10] [--seconds 12] [--trace 0|1]
        [--first-seed 1] [--workload NAME ...]

Each run is a separate ``run.py`` process with its own seed (``first-seed``,
``first-seed + 1``, ...), started only after the previous one has ended.
For every workload and metric the summary gives the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median; it also
gives the share of failed operations.  The last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOAD_NAMES = ("cold-catalog", "warm-query", "transform-sweep")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workload or WORKLOAD_NAMES:
        results = []
        for k in range(args.runs):
            results.append(one_run(workload, args.first_seed + k, args.seconds, args.trace))
            print(f"{workload}: run {k + 1}/{args.runs} done", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed_shares": sorted(shares),
            "metrics": summarise(results),
        }
        print(f"{workload}: correct={summary[workload]['correct']} failed shares={sorted(shares)}")
        for name, m in summary[workload]["metrics"].items():
            print(
                f"  {name:42s} median {m['median']:12.6g} {m['unit']:6s}"
                f" q1 {m['q1']:12.6g}  q3 {m['q3']:12.6g}  spread {m['spread']:.2%}"
            )
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
