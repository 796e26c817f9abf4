"""Benchmark entry point.

    python3 perfbench/run.py --workload cold-catalog|warm-query|transform-sweep \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the run sets up several times, then repeats identical
rounds of the workload for at least ``--seconds`` seconds (and at least the
workload's minimum number of rounds) and reports the end-to-end metrics.
Their times are scaled to the reference machine speed (see ``speed.py``).
With ``--trace 1`` it sets up once, runs the same rounds untraced, then the
same number of rounds again with every public function of the package
wrapped, and reports the per-layer metrics, in seconds as measured, and
the tracing overhead.  Either way it then certifies every output the
rounds produced.  It prints one line per metric, then as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; it
exits with 1 when a check fails and 2 when the checkout holds no program
to measure.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from certify import CertificationFailed, Certifier
from common import WORK_DIR, MissingProgram, load_oracles
from inputs import load_reference
from tracer import Tracer

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "cli_p50_ms": "ms"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name == "trace.overhead_pct":
        return "%"
    if name == "catalog.cache_bytes":
        return "B"
    if name == "catalog.members_per_candidate":
        return "ratio"
    if last.endswith("_ms"):
        return "ms"
    if last in ("s", "self_s", "wall_s", "hook_s") or name.startswith("transforms.tie_all.s_by_components"):
        return "s"
    return "count"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def run_rounds(workload, seconds: float, rounds: int | None = None) -> int:
    """Run whole rounds: exactly ``rounds`` of them, or until ``seconds`` have passed."""
    done = 0
    t0 = time.perf_counter()
    while True:
        if rounds is not None:
            if done == rounds:
                return done
        elif done >= workload.min_rounds and time.perf_counter() - t0 >= seconds:
            return done
        workload.round()
        done += 1


def measure(workload, seconds: float) -> dict:
    probe = workload.probe
    setups = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        workload.p.fresh_import()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        probe.after(setups[-1])
    run_rounds(workload, seconds)
    ops = workload.op_seconds
    scale = probe.scale()
    print(
        f"measured: setup {statistics.median(setups):.4f} s, {len(ops)} operations in {sum(ops):.3f} s,"
        f" subprocess median {statistics.median(workload.cli_seconds) * 1000:.1f} ms; scale {scale:.4f}"
    )
    return {
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": len(ops) / (sum(ops) * scale),
        "cli_p50_ms": statistics.median(workload.cli_seconds) * 1000 * scale,
    }


def measure_traced(workload, seconds: float) -> tuple[dict, Tracer]:
    p = workload.p
    startup = [p.fresh_import() for _ in range(workload.setup_repeats)]
    workload.setup()
    rounds = run_rounds(workload, seconds)
    untraced = sum(workload.op_seconds)
    with Tracer(p.package, p.layer_modules()) as tracer:
        run_rounds(workload, seconds, rounds)
    traced = sum(workload.op_seconds) - untraced
    metrics = tracer.metrics()
    metrics["cli.startup_ms"] = statistics.median(startup) * 1000
    metrics["trace.overhead_pct"] = (traced / untraced - 1) * 100
    metrics["trace.wall_s"] = traced
    metrics["trace.hook_s"] = tracer.hook_seconds
    return metrics, tracer


def main(argv=None) -> int:
    from workloads import WORKLOADS, Program

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        try:
            program = Program(Path(work))
        except MissingProgram as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](program, args.seed)
        if args.trace:
            values, tracer = measure_traced(workload, args.seconds)
            units = {name: layer_unit(name) for name in values}
            for name, components, seconds in tracer.slowest_ties():
                print(f"slow tie_all input: {name} ({components} components) {seconds * 1000:.0f} ms")
        else:
            values = measure(workload, args.seconds)
            units = UNITS
        correct = True
        t0 = time.perf_counter()
        certifier = Certifier(program.graphs, load_oracles(), load_reference("coefficients.json")["coefficients"])
        try:
            workload.check(certifier)
        except CertificationFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        print(f"checks: {certifier.steps_certified} witness steps certified in {time.perf_counter() - t0:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"attempted = {workload.attempted}, failed = {workload.failed}, correct = {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
