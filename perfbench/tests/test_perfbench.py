"""Tests of the benchmark itself: tiny workloads, and checks that can fail.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from certify import CertificationFailed, Certifier, Step, parse_check_output, step_from_engine
from common import BENCH_DIR, load_oracles
from inputs import load_reference, query_round, sweep_pool, sweep_sample
from tracer import Tracer


class TinyCold(workloads.ColdCatalog):
    classes = ("Q10",)
    cli_runs_per_round = 1
    min_rounds = 2
    setup_repeats = 1


class TinyWarm(workloads.WarmQuery):
    min_rounds = 1
    setup_repeats = 1
    cells = tuple((s, answer, 1) for s in ("Q10", "Z11", "Q11", "E12") for answer in (True, False))


class TinySweep(workloads.TransformSweep):
    per_count = 1
    min_rounds = 2
    setup_repeats = 1


TINY = {w.name: w for w in (TinyCold, TinyWarm, TinySweep)}


@pytest.fixture(scope="module")
def program(tmp_path_factory):
    return workloads.Program(tmp_path_factory.mktemp("work"))


@pytest.fixture(scope="module")
def certifier(program):
    return Certifier(program.graphs, load_oracles())


@pytest.fixture(scope="module")
def cold(program, certifier):
    wl = TinyCold(program, 1)
    run.measure(wl, 0)
    wl.check(certifier)
    return wl


@pytest.fixture(scope="module")
def warm(program, certifier):
    wl = TinyWarm(program, 1)
    run.measure(wl, 0)
    wl.check(certifier)
    return wl


@pytest.fixture(scope="module")
def sweep(program, certifier):
    wl = TinySweep(program, 3)
    run.measure(wl, 0)
    wl.check(certifier)
    return wl


# -- every workload runs at a tiny size and passes its own checks ----------


def test_cold_catalog_tiny(cold):
    assert cold.attempted == 2 * 2 and cold.failed == 0
    assert cold.builds[0][0]["Q10"].names() == load_reference("q10_members.json")["members"]


def test_warm_query_tiny_counts_corrupt_cache_operations(warm):
    per_round = len(TinyWarm.cells) + 2 + 4
    assert warm.attempted == per_round
    # Each corrupt-cache query either failed and was counted, or was answered
    # and so is among the answers the workload's check certified.
    answered = [a for a in warm.answers if a[:3] in warm.corrupt]
    assert warm.failed + len(answered) >= len(warm.corrupt) == 2
    assert warm.failed == sum(warm.failures.values()) <= len(warm.corrupt)


def test_transform_sweep_tiny(sweep):
    assert sorted(len(g.components) for g in sweep.sample) == [1, 2, 3, 4]
    assert sweep.attempted == 2 * (2 * 4 + 1)


@pytest.mark.parametrize("name", sorted(TINY))
def test_run_prints_result_line(monkeypatch, capsys, name):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    for trace, expected in ((0, set(run.UNITS)), (1, None)):
        code = run.main(["--workload", name, "--seed", "2", "--seconds", "0", "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        if expected is not None:
            assert set(result["metrics"]) == expected
            assert all(m["value"] > 0 for m in result["metrics"].values())
        else:
            assert "transforms.tie_all.s" in result["metrics"]
            assert "trace.overhead_pct" in result["metrics"]


def test_traced_cold_catalog_layers_add_up(program):
    metrics, tracer = run.measure_traced(TinyCold(program, 1), 0)
    layers = sum(
        metrics[k] for k in (
            "transforms.tie_all.s", "transforms.elementary_all.s",
            "catalog.build_catalog.self_s", "catalog.catalog_to_json.s",
        )
    )
    assert abs(layers - metrics["trace.wall_s"]) <= 0.05 * metrics["trace.wall_s"]
    assert 0 < metrics["trace.hook_s"] < metrics["trace.wall_s"]
    assert metrics["catalog.members"] == 2 * 73  # two traced rounds
    assert metrics["transforms.apply.calls"] == 0
    slowest = tracer.slowest_ties(3)
    assert len({name for name, _, _ in slowest}) == len(slowest) == 3


def test_tracer_wraps_every_namespace_and_restores(program):
    import dynkintrans

    original = program.transforms.tie_all
    with Tracer(program.package, program.layer_modules()):
        wrapped = program.transforms.tie_all
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert program.catalog.tie_all is wrapped
        assert dynkintrans.tie_all is wrapped
        assert program.cli.tie_all is wrapped
    assert program.transforms.tie_all is original
    assert program.catalog.tie_all is original
    assert dynkintrans.tie_all is original


def test_memo_hits_zero_on_sweep(program):
    metrics, _ = run.measure_traced(TinySweep(program, 5), 0)
    assert metrics["transforms.memo_hits"] == 0
    assert metrics["transforms.tie_all.calls"] == 2 * 4  # two traced rounds; untraced ones are not counted


# -- inputs are made from the seed ----------------------------------------


def test_inputs_depend_only_on_seed(program):
    g = program.graphs
    assert sweep_sample(g, 7) == sweep_sample(g, 7)
    sample = sweep_sample(g, 7)
    assert len({x.name for x in sample}) == len(sample) >= 95
    counts = [len(x.components) for x in sample]
    assert all(counts.count(k) >= 23 for k in (1, 2, 3, 4))
    assert all(x.total_vertices <= 10 for x in sample)
    yes = {"Q10": ["A1"], "Z11": ["A2"], "Q11": ["A3"], "E12": ["A4"]}
    no = {"Q10": ["D4"], "Z11": ["D5"], "Q11": ["D6"], "E12": ["D7"]}
    assert query_round(3, yes, no) == query_round(3, yes, no)
    assert query_round(3, yes, no) != query_round(4, yes, no)


def test_small_reference_covers_the_pool(program):
    small = load_reference("small_transforms.json")["graphs"]
    pool = sweep_pool(program.graphs)
    assert set(small) == {n for n, g in pool.items() if g.total_vertices <= 6}


# -- the checks can fail ----------------------------------------------------


def _a_tie_witness(cold):
    member = next(m for m in cold.builds[0][0]["Q10"].members if m.witness[1].kind == "tie")
    return member, [step_from_engine(s) for s in member.witness]


def test_certifier_accepts_real_witness(cold, certifier):
    member, steps = _a_tie_witness(cold)
    certifier.chain("E6", 10, member.name, steps)


def test_certifier_rejects_tampered_witness(cold, certifier):
    member, steps = _a_tie_witness(cold)
    s1, s2 = steps
    for bad in (
        dataclasses.replace(s2, output="A1" if member.name != "A1" else "A2"),
        dataclasses.replace(s2, first=()),
        dataclasses.replace(s2, kind="elementary"),
    ):
        with pytest.raises(CertificationFailed):
            certifier.step(bad)
    for chain in ([s2, s1], [s1], [s1, dataclasses.replace(s2, input="E7")]):
        with pytest.raises(CertificationFailed):
            certifier.chain("E6", 10, member.name, chain)


def test_certifier_rejects_wrong_b_set(certifier):
    # E6 -> E6 extended has 7 vertices; A = {x} (coefficient 1) is a valid tie.
    good = Step("tie", "E6", (6,), (), "E6+A1")
    certifier.step(good)
    for b in ((6,), (0, 1, 2, 3), (0, 0), (9,)):
        with pytest.raises(CertificationFailed):
            certifier.step(dataclasses.replace(good, second=b))
    # a gcd violation: A = {branch vertex}, coefficient 2, B empty
    with pytest.raises(CertificationFailed):
        certifier.step(Step("tie", "E6", (5,), (), "A5+A1+A1"))


def test_cold_check_rejects_wrong_catalog(program, cold, certifier):
    built, cache_dir = cold.builds[0]
    q10 = built["Q10"]
    broken = dataclasses.replace(q10, members=q10.members[1:])
    cold.builds.append(({"Q10": broken}, cache_dir))
    try:
        with pytest.raises(CertificationFailed):
            cold.check(certifier)
    finally:
        cold.builds.pop()


def test_warm_check_rejects_wrong_answer(warm, certifier):
    symbol, name, expected, code, out = next(a for a in warm.answers if a[2])
    warm.answers.append((symbol, name, expected, 1, f"no: {name} is not reachable from {symbol}\n"))
    try:
        with pytest.raises(CertificationFailed):
            warm.check(certifier)
    finally:
        warm.answers.pop()


def test_sweep_check_rejects_wrong_outcome(sweep, certifier):
    g = next(x for x in sweep.sample if sweep.results[0][x.name][0])
    ties, elems = sweep.results[0][g.name]
    (out, choice), *rest = ties
    wrong = type(out)(out.components + out.components)
    sweep.results[0][g.name] = ([(wrong, choice), *rest], elems)
    try:
        with pytest.raises(CertificationFailed):
            sweep.check(certifier)
    finally:
        sweep.results[0][g.name] = (ties, elems)


def test_parse_check_output_rejects_garbage(certifier):
    with pytest.raises(CertificationFailed):
        parse_check_output("maybe: A1\n", certifier)


# -- without the program the benchmark refuses to run ------------------------


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
