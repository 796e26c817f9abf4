"""The three workloads: cold-catalog, warm-query and transform-sweep.

A workload has a ``setup`` (timed by the caller, repeated), a ``round`` of
operations that every run repeats whole, and a ``check`` that certifies
the outputs the rounds produced.  Every round of a run makes exactly the
same operations on the same inputs, so the share of failed operations is
the same in every run.  In-process operations are timed one by one; each
round also runs real ``dynkintrans`` subprocesses one at a time, never in
parallel.  Every timing also feeds the speed probe (``speed.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from certify import CertificationFailed, Step, parse_check_output, step_from_engine
from common import SRC, import_program
from inputs import (
    QUERY_CELLS,
    SMALL_VERTICES,
    SWEEP_PER_COUNT,
    WARM_CLASSES,
    load_reference,
    no_query_pools,
    query_round,
    sweep_sample,
)
from speed import SpeedProbe

CLI_ENTRY = "from dynkintrans.cli import run; run()"
SUBPROCESS_TIMEOUT_S = 120


class Program:
    """The package under test plus the ways the benchmark calls it."""

    def __init__(self, work_dir: Path):
        self.graphs, self.transforms, self.catalog, self.cli = import_program()
        self.package = sys.modules["dynkintrans"]
        self.work_dir = work_dir
        path = os.environ.get("PYTHONPATH")
        self.child_env = dict(
            os.environ,
            PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
            DYNKINTRANS_CACHE_DIR=str(work_dir / "default-cache"),
        )

    def layer_modules(self):
        return {"graphs": self.graphs, "transforms": self.transforms, "catalog": self.catalog, "cli": self.cli}

    def clear_memos(self) -> None:
        self.catalog.clear_memory_cache()
        self.transforms.clear_transform_cache()

    def new_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work_dir))

    def fresh_import(self) -> float:
        """Seconds for a new interpreter to import the package, as every CLI call does."""
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import dynkintrans, dynkintrans.cli"],
            env=self.child_env, check=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        return time.perf_counter() - t0

    def cli_subprocess(self, argv):
        """(seconds, exit code, stdout) of one ``dynkintrans`` process."""
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv],
            env=self.child_env, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        return time.perf_counter() - t0, done.returncode, done.stdout

    def cli_inprocess(self, argv):
        """(seconds, exit code, stdout) of ``cli.main`` in this process; exceptions propagate."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            dt = time.perf_counter() - t0
        return dt, code, out.getvalue()


class Workload:
    name = ""
    min_rounds = 1
    setup_repeats = 3  # set-ups per run; the run reports their median

    def __init__(self, program: Program, seed: int):
        self.p = program
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.op_seconds: list[float] = []  # every timed in-process operation
        self.cli_seconds: list[float] = []  # every timed subprocess
        self.cli_runs: list[tuple] = []  # (argv, exit code, stdout) of every subprocess
        self.probe = SpeedProbe()

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def check(self, certifier) -> None:
        raise NotImplementedError

    def _timed(self, dt: float) -> None:
        self.attempted += 1
        self.op_seconds.append(dt)
        self.probe.after(dt)

    def _subprocess(self, argv) -> tuple[int, str]:
        dt, code, out = self.p.cli_subprocess(argv)
        self.attempted += 1
        self.cli_seconds.append(dt)
        self.cli_runs.append((argv, code, out))
        self.probe.after(dt)
        return code, out


class ColdCatalog(Workload):
    """First use: six classes built in one session from empty memos and cache."""

    name = "cold-catalog"
    classes = ("Q10", "Z11", "Q11", "E12", "Z12", "Q12")
    cli_runs_per_round = 6
    setup_repeats = 7  # a set-up is one interpreter start, so the median needs several
    min_rounds = 2  # one round is a single 11-17 s session; two halve the weight of a slow spell

    def setup(self) -> None:
        self.p.clear_memos()
        self.builds: list[tuple] = []  # per round: ({symbol: catalog}, cache dir)

    def round(self) -> None:
        p = self.p
        p.clear_memos()
        cache_dir = p.new_dir("cold-")
        built = {}
        for symbol in self.classes:
            t0 = time.perf_counter()
            built[symbol] = p.catalog.build_catalog(symbol, cache=True, cache_dir=cache_dir)
            self._timed(time.perf_counter() - t0)
        self.builds.append((built, cache_dir))
        p.clear_memos()
        for k in range(self.cli_runs_per_round):
            self._subprocess(["catalog", "Q10", "--cache-dir", str(cache_dir / f"cli-{k}")])

    def check(self, certifier) -> None:
        reference = load_reference("q10_members.json")["members"]
        first, _ = self.builds[0]
        for built, cache_dir in self.builds:
            for symbol, catalog in built.items():
                members = [(m.name, m.witness) for m in catalog.members]
                if members != [(m.name, m.witness) for m in first[symbol].members]:
                    raise CertificationFailed(f"{symbol}: rounds built different catalogs")
                files = list(cache_dir.glob(f"{symbol}-*.json"))
                if len(files) != 1:
                    raise CertificationFailed(f"{symbol}: expected one cache file, found {files}")
                stored = json.loads(files[0].read_text(encoding="utf-8"))
                if [e["name"] for e in stored["members"]] != catalog.names():
                    raise CertificationFailed(f"{symbol}: cache file lists other members")
        for symbol, catalog in first.items():
            cls = catalog.singularity
            for m in catalog.members:
                certifier.chain(cls.basic.name, cls.milnor, m.name, [step_from_engine(s) for s in m.witness])
        if first["Q10"].names() != reference:
            raise CertificationFailed("Q10 member names differ from the oracle reference")
        for argv, code, out in self.cli_runs:
            if code != 0 or out.splitlines() != [n or "(empty)" for n in reference]:
                raise CertificationFailed(f"{' '.join(argv)}: exit {code}, output differs from the reference")


class WarmQuery(Workload):
    """Repeat use: ``dynkintrans check`` answered from warm disk caches."""

    name = "warm-query"
    min_rounds = 3  # at least 1000 timed queries, so the 99th percentile has ten beyond it
    cells = QUERY_CELLS

    def setup(self) -> None:
        p = self.p
        p.clear_memos()
        self.cache_dir = p.new_dir("warm-")
        for symbol in WARM_CLASSES:
            p.catalog.build_catalog(symbol, cache=True, cache_dir=self.cache_dir)
        p.clear_memos()
        q10 = load_reference("q10_members.json")["members"]
        yes = {"Q10": q10}
        for symbol in WARM_CLASSES:
            (path,) = self.cache_dir.glob(f"{symbol}-*.json")
            data = json.loads(path.read_text(encoding="utf-8"))
            if symbol == "Q10":
                # A well-formed cache file of the wrong shape: members as an object.
                data["members"] = {e["name"]: e["witness"] for e in data["members"]}
                self.corrupt_dir = p.new_dir("corrupt-")
                self.corrupt_path = self.corrupt_dir / path.name
                self.corrupt_text = json.dumps(data, sort_keys=True, indent=2) + "\n"
            else:
                yes[symbol] = [e["name"] for e in data["members"]]
        no = no_query_pools(p.graphs, p.catalog, q10)
        self.queries, self.sub, self.corrupt = query_round(self.seed, yes, no, self.cells)
        self.answers: list[tuple] = []  # (symbol, name, expected, exit code, stdout)
        self.failures: dict[str, int] = {}

    def round(self) -> None:
        p = self.p
        cache = str(self.cache_dir)
        for symbol, name, expected in self.queries:
            p.catalog.clear_memory_cache()  # a fresh process starts without it
            dt, code, out = p.cli_inprocess(["check", symbol, name, "--cache-dir", cache])
            self._timed(dt)
            self.answers.append((symbol, name, expected, code, out))
        for symbol, name, expected in self.corrupt:
            self.corrupt_path.write_text(self.corrupt_text, encoding="utf-8")
            p.catalog.clear_memory_cache()
            self.attempted += 1
            try:
                _dt, code, out = p.cli_inprocess(["check", symbol, name, "--cache-dir", str(self.corrupt_dir)])
            except Exception as exc:  # the operation failed; count it and go on
                self.failed += 1
                kind = type(exc).__name__
                self.failures[kind] = self.failures.get(kind, 0) + 1
                continue
            self.answers.append((symbol, name, expected, code, out))
        for symbol, name, expected in self.sub:
            code, out = self._subprocess(["check", symbol, name, "--cache-dir", cache])
            self.answers.append((symbol, name, expected, code, out))

    def check(self, certifier) -> None:
        catalog = self.p.catalog
        for symbol, name, expected, code, out in set(self.answers):
            member, answered, steps = parse_check_output(out, certifier)
            if answered != name or code != (0 if member else 1):
                raise CertificationFailed(f"check {symbol} {name}: exit {code}, answer {out!r}")
            if member != expected:
                raise CertificationFailed(f"check {symbol} {name}: answered {member}, expected {expected}")
            if member:
                cls = catalog.singularity_class(symbol)
                certifier.chain(cls.basic.name, cls.milnor, name, steps)


class TransformSweep(Workload):
    """``tie_all`` and ``elementary_all`` on distinct seeded graphs, every memo cleared."""

    name = "transform-sweep"
    per_count = SWEEP_PER_COUNT
    setup_repeats = 7
    cli_every = 1  # every one-component graph also runs as ``dynkintrans transform``

    def setup(self) -> None:
        self.p.clear_memos()
        self.sample = sweep_sample(self.p.graphs, self.seed, self.per_count)
        single = sorted(g.name for g in self.sample if len(g.components) == 1)
        self.cli_graphs = single[:: self.cli_every]
        self.results: list[dict] = []  # per round: name -> (tie results, elementary results)

    def round(self) -> None:
        t = self.p.transforms
        results = {}
        for g in self.sample:
            pair = []
            for fn in (t.tie_all, t.elementary_all):
                t.clear_transform_cache()  # no call may reuse another's work
                t0 = time.perf_counter()
                out = fn(g)
                self._timed(time.perf_counter() - t0)
                pair.append(out)
            results[g.name] = tuple(pair)
        t.clear_transform_cache()
        self.results.append(results)
        for name in self.cli_graphs:
            self._subprocess(["transform", name, "--op", "tie"])

    def check(self, certifier) -> None:
        first = self.results[0]
        for later in self.results[1:]:
            if later != first:
                raise CertificationFailed("sweep rounds returned different outcomes")
        small = load_reference("small_transforms.json")["graphs"]
        for g in self.sample:
            ties, elems = first[g.name]
            for out, choice in ties:
                certifier.step(Step("tie", g.name, choice.a, choice.b, out.name))
            for out, choice in elems:
                certifier.step(Step("elementary", g.name, choice.removed, (), out.name))
            if g.total_vertices <= SMALL_VERTICES:
                ref = small[g.name]
                if sorted(o.name for o, _ in ties) != ref["tie"]:
                    raise CertificationFailed(f"tie_all({g.name}) differs from naive_tie_all")
                if sorted(o.name for o, _ in elems) != ref["elementary"]:
                    raise CertificationFailed(f"elementary_all({g.name}) differs from naive_elementary_all")
        for argv, code, out in self.cli_runs:
            expected = [o.name or "(empty)" for o, _ in first[argv[1]][0]]
            if code != 0 or out.splitlines() != expected:
                raise CertificationFailed(f"{' '.join(argv)}: exit {code}, output differs from tie_all")


WORKLOADS = {w.name: w for w in (ColdCatalog, WarmQuery, TransformSweep)}
