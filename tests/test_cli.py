from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynkintrans import cli as cli_mod
from dynkintrans import transforms
from dynkintrans.catalog import (
    CACHE_ENV_VAR,
    ENGINE_VERSION,
    catalog_from_json,
    clear_memory_cache,
)
from dynkintrans.cli import main


@pytest.fixture()
def cli(catalog_cache_dir, capsys):
    """Run the CLI against the session catalog cache; returns (code, out, err)."""

    def run(*argv: str, cache: bool = True):
        args = list(argv)
        if cache and argv[0] in ("catalog", "check", "verify"):
            args += ["--cache-dir", str(catalog_cache_dir)]
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


class TestCatalogCommand:
    def test_text_output(self, cli, all_catalogs):
        code, out, _ = cli("catalog", "E12")
        assert code == 0
        lines = out.splitlines()
        assert "E8" in lines
        assert "(empty)" in lines
        assert lines == sorted(lines, key=lambda s: "" if s == "(empty)" else s)

    def test_json_output_contains_worked_example(self, cli, all_catalogs):
        code, out, _ = cli("catalog", "Z13", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["class"] == "Z13"
        assert any(m["name"] == "A7+A4" for m in data["members"])

    def test_json_round_trips_through_parser(self, cli, all_catalogs):
        code, out, _ = cli("catalog", "Q10", "--json")
        catalog = catalog_from_json(out)
        assert catalog.singularity.symbol == "Q10"
        assert len(catalog) == len(json.loads(out)["members"])

    def test_unknown_class(self, cli):
        code, _, err = cli("catalog", "X99")
        assert code == 2
        assert "X99" in err and "Z13" in err

    def test_out_file(self, cli, all_catalogs, tmp_path):
        target = tmp_path / "z13.json"
        code, out, _ = cli("catalog", "Z13", "--json", "--out", str(target))
        assert code == 0 and out == ""
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["class"] == "Z13"

    def test_unwritable_out_file_is_an_error(self, cli, all_catalogs, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = cli("catalog", "Q10", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_cached_equals_uncached(self, cli, all_catalogs, fresh_memory_cache):
        code, cold, _ = cli("catalog", "Q11", "--json", "--no-cache", cache=False)
        assert code == 0
        code, warm, _ = cli("catalog", "Q11", "--json")
        assert code == 0
        assert cold == warm


class TestCheckCommand:
    def test_yes_with_witness(self, cli, all_catalogs):
        code, out, _ = cli("check", "Z13", "D8+A2")
        assert code == 0
        assert out.startswith("yes")
        assert "step 1" in out and "step 2" in out

    def test_witness_names_vertices(self, cli, all_catalogs):
        code, out, _ = cli("check", "Z13", "A7+A4")
        assert code == 0
        assert "E8+G2" in out  # the worked-example intermediate
        assert "tie" in out

    def test_no(self, cli, all_catalogs):
        code, out, _ = cli("check", "Z13", "A12")
        assert code == 1
        assert out.startswith("no")

    def test_non_ade_query(self, cli, all_catalogs):
        code, _, err = cli("check", "Z13", "BC1")
        assert code == 2
        assert "BC1" in err

    def test_parse_error(self, cli):
        code, _, err = cli("check", "Z13", "D3")
        assert code == 2
        assert "D3" in err

    def test_unwritable_cache_dir_still_answers(self, cli, all_catalogs, fresh_memory_cache, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        expected = cli("check", "Q10", "A1")
        clear_memory_cache()
        with pytest.warns(RuntimeWarning, match="cannot write catalog cache") as record:
            answer = cli("check", "Q10", "A1", "--cache-dir", str(blocker / "sub"), cache=False)
        assert len(record) == 1
        assert answer == expected and answer[0] == 0
        assert list(tmp_path.iterdir()) == [blocker]

    def test_empty_graph_as_printed(self, cli, all_catalogs):
        code, out, _ = cli("check", "Q10", "(empty)")
        assert code == 0
        assert out.startswith("yes: (empty) is reachable from Q10")


# Exact `check` output: the worked example, and two witnesses whose
# intermediate graph repeats a component type, so occurrence labels matter.
PINNED_CHECK_OUTPUT = {
    ("Z13", "A7+A4"): (
        "yes: A7+A4 is reachable from Z13 (E7+G2)\n"
        "  step 1: tie on E7+G2: A = {E7[1].v6, G2[1].x}, B = {E7[1].x} -> E8+G2\n"
        "  step 2: tie on E8+G2: A = {E8[1].v4, G2[1].short}, B = {E8[1].v1, G2[1].long}"
        " -> A7+A4\n"
    ),
    ("Q10", "A3+A3+A2"): (
        "yes: A3+A3+A2 is reachable from Q10 (E6)\n"
        "  step 1: tie on E6: A = {E6[1].v3}, B = {E6[1].v1} -> A3+A2+A2\n"
        "  step 2: tie on A3+A2+A2: A = {A3[1].v1, A2[1].v1, A2[2].v1}, B = {A2[1].v2}"
        " -> A3+A3+A2\n"
    ),
    ("Z13", "A5+A3+A1+A1"): (
        "yes: A5+A3+A1+A1 is reachable from Z13 (E7+G2)\n"
        "  step 1: tie on E7+G2: A = {E7[1].v2, G2[1].short}, B = {E7[1].v1, G2[1].long}"
        " -> A5+A5\n"
        "  step 2: tie on A5+A5: A = {A5[1].v1, A5[1].v3, A5[2].v1}, B = {} -> A5+A3+A1+A1\n"
    ),
}


@pytest.mark.parametrize("query", sorted(PINNED_CHECK_OUTPUT), ids="-".join)
def test_check_output_is_pinned(cli, all_catalogs, fresh_memory_cache, query):
    code, out, _ = cli("check", *query)
    assert code == 0
    assert out == PINNED_CHECK_OUTPUT[query]


class TestMain:
    @pytest.mark.parametrize("argv", [["check"], ["frob"]])
    def test_usage_error_returns_two(self, argv, capsys):
        assert main(argv) == 2
        assert "usage: dynkintrans" in capsys.readouterr().err

    def test_version_returns_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_parser_is_built_once(self):
        cli_mod.build_parser.cache_clear()
        main(["--version"])
        main(["check"])
        main(["transform", "A2", "--op", "tie"])
        assert cli_mod.build_parser.cache_info().misses == 1

    def test_cache_dir_help_names_the_environment_variable(self, capsys):
        assert main(["check", "--help"]) == 0
        assert f"${CACHE_ENV_VAR}," in capsys.readouterr().out

    def test_default_cache_dir_is_read_per_call(self, monkeypatch, tmp_path, fresh_memory_cache):
        for name in ("first", "second"):
            cache_dir = tmp_path / name
            monkeypatch.setenv("DYNKINTRANS_CACHE_DIR", str(cache_dir))
            clear_memory_cache()
            assert main(["check", "Q10", "A5+A1"]) == 0
            assert (cache_dir / f"Q10-v{ENGINE_VERSION}.json").is_file()


class TestTransformCommand:
    def test_tie_text(self, cli):
        code, out, _ = cli("transform", "E7+G2", "--op", "tie")
        assert code == 0
        assert "E8+G2" in out.splitlines()

    def test_elementary_text(self, cli):
        code, out, _ = cli("transform", "E8+G2", "--op", "elementary")
        assert code == 0
        assert "D8+A2" in out.splitlines()

    def test_a1_includes_empty(self, cli):
        code, out, _ = cli("transform", "A1", "--op", "elementary")
        assert code == 0
        assert set(out.splitlines()) == {"A1", "(empty)"}

    def test_empty_graph_as_printed(self, cli):
        code, out, _ = cli("transform", "(empty)", "--op", "tie")
        assert code == 0
        assert out.splitlines() == ["A1"]

    @pytest.mark.parametrize("op", ["elementary", "tie"])
    def test_json_witnesses_replay(self, cli, op):
        from dynkintrans.graphs import parse_name
        from dynkintrans.transforms import ElementaryChoice, TieChoice, apply

        code, out, _ = cli("transform", "E6+BC1", "--op", op, "--json")
        assert code == 0
        data = json.loads(out)
        assert (data["input"], data["op"]) == ("E6+BC1", op)
        assert {tuple(e["choice"]) for e in data["results"]} == {
            ("removed",) if op == "elementary" else ("a", "b")
        }
        g = parse_name(data["input"])
        for entry in data["results"]:
            c = entry["choice"]
            choice = (
                ElementaryChoice(tuple(c["removed"]))
                if "removed" in c
                else TieChoice(tuple(c["a"]), tuple(c["b"]))
            )
            assert apply(g, choice).name == entry["name"]

    def test_unwritable_out_file_is_an_error(self, cli, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code, out, err = cli("transform", "A3", "--op", "tie", "--out", str(blocker / "x"))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {blocker / 'x'}: Not a directory\n"

    def test_parse_error(self, cli):
        code, _, err = cli("transform", "E9", "--op", "tie")
        assert code == 2
        assert "E9" in err

    def test_subscript_beyond_the_type_codes_is_a_parse_error(self, cli):
        # A1048586 = A(2**20 + 10) would take the type code of D10 and sort before D4
        code, out, err = cli("transform", "D4+A1048586", "--op", "tie")
        assert (code, out) == (2, "")
        assert err == "error: out-of-range component token 'A1048586'\n"

    @pytest.mark.parametrize("graph,op", [("5E8", "tie"), ("A40", "elementary")])
    def test_graph_over_the_size_budget_is_refused(self, cli, monkeypatch, graph, op):
        # no core may be built: without the budget these would allocate gigabytes
        monkeypatch.setattr(transforms, "_CORE_MEMO", {})
        monkeypatch.setattr(transforms, "_CompCore", None)  # a core built is a TypeError
        code, out, err = cli("transform", graph, "--op", op)
        assert (code, out) == (2, "")
        assert err.startswith("error: graph too large to enumerate: ") and err.count("\n") == 1

    def test_multiplicity_beyond_the_type_codes_is_a_parse_error(self, cli):
        # the component list of 1048576A1 would be built before anything checked it
        code, out, err = cli("check", "Q10", "1048576A1")
        assert (code, out) == (2, "")
        assert err == "error: out-of-range component token '1048576A1'\n"


class TestVerifyCommand:
    def test_passes(self, cli, all_catalogs):
        code, out, _ = cli("verify")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_detects_broken_coefficients(self, cli, monkeypatch):
        from dynkintrans import graphs as gmod

        broken = dict(gmod._E_PATH_COEFFS)
        broken[7] = (2, 3, 4, 3, 2, 2)
        monkeypatch.setattr(gmod, "_E_PATH_COEFFS", broken)
        code, out, _ = cli("verify")
        assert code == 1
        assert "FAIL extension-coefficients" in out

    def test_unpublished_catalog_is_a_failed_check(
        self, cli, all_catalogs, fresh_memory_cache, monkeypatch
    ):
        from dynkintrans import catalog as catalog_mod
        from dynkintrans.catalog import Catalog

        compute = catalog_mod._compute_catalog

        def lossy(cls):
            catalog = compute(cls)
            return Catalog(catalog.singularity, catalog.members[:-1])

        monkeypatch.setattr(catalog_mod, "_compute_catalog", lossy)
        code, out, _ = cli("verify", "--no-cache", cache=False)
        assert code == 1
        assert "FAIL published-catalog-Z13: 250 members" in out
        assert "ok   worked-example-chain" in out
        assert out.endswith("1 check(s) failed\n")
        assert "verify-crashed" not in out

    def test_crashed_check_is_reported(self, cli, monkeypatch):
        from dynkintrans import graphs as gmod

        def crash(ct):
            raise RuntimeError("table unreadable")

        monkeypatch.setattr(gmod, "check_extension_identity", crash)
        code, out, _ = cli("verify")
        assert code == 1
        assert out == "FAIL verify-crashed: RuntimeError: table unreadable\n1 check(s) failed\n"


def _last_line(script, argv=()):
    """The last line printed by ``script`` in a fresh ``python -S`` that finds
    this package."""
    import dynkintrans

    src = str(Path(dynkintrans.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return run.stdout.splitlines()[-1]


def _modules_loaded(modules, argv):
    """The last line printed by a fresh ``python -S`` that imports the CLI and
    runs ``main(argv)``: its exit code, then which of ``modules`` were loaded
    after the import and after the command."""
    script = (
        "import sys, dynkintrans.cli\n"
        f"modules = {list(modules)!r}\n"
        "imported = [m for m in modules if m in sys.modules]\n"
        "code = dynkintrans.cli.main(sys.argv[1:])\n"
        "print(code, imported, [m for m in modules if m in sys.modules])\n"
    )
    return _last_line(script, argv)


def test_warm_check_loads_no_openssl(all_catalogs, catalog_cache_dir):
    """The cache digest uses the builtin BLAKE2b: hashlib would load OpenSSL."""
    argv = ["check", "Z13", "A7+A4", "--cache-dir", str(catalog_cache_dir)]
    assert _modules_loaded(["hashlib", "_hashlib"], argv) == "0 [] []"


def test_transform_loads_only_graphs_and_transforms():
    """``transform`` needs neither the catalog layer nor json, pathlib or
    tempfile, and the value classes are no dataclasses, so neither dataclasses
    nor inspect loads; the one-graph-per-process use pays for none."""
    unused = ["dynkintrans.catalog", "json", "pathlib", "tempfile", "dataclasses", "inspect"]
    assert _modules_loaded(unused, ["transform", "D6", "--op", "tie"]) == "0 [] []"


def test_lattice_checks_load_no_dynkintrans():
    """The lattice arithmetic of the checks stands apart from the package:
    importing ``tests/lattice.py`` loads no ``dynkintrans`` module."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import lattice\n"
        "print(lattice.root_count(((2, -1), (-1, 2))),\n"
        "      [m for m in sys.modules if m.split('.')[0] == 'dynkintrans'])\n"
    )
    assert _last_line(script) == "6 []"


def test_warm_check_loads_no_lattice_and_no_tempfile(all_catalogs, catalog_cache_dir):
    """A warm answer builds no ``Catalog``, whose module alone loads
    ``dataclasses`` and, with it, ``inspect``."""
    unused = ["tempfile", "dataclasses", "inspect", "dynkintrans._catalog_type"]
    argv = ["check", "Z13", "A7+A4", "--cache-dir", str(catalog_cache_dir)]
    assert _modules_loaded(unused, argv) == "0 [] []"


def test_catalog_off_the_warm_path_is_the_same_class(cli, all_catalogs):
    """``Catalog`` is one class under each of its names, still a frozen
    dataclass that pickles, and a miss answers ``check`` as a warm file does."""
    import dataclasses
    import pickle

    import dynkintrans
    from dynkintrans import catalog as catalog_mod
    from dynkintrans.catalog import Catalog

    assert dynkintrans.Catalog is catalog_mod.Catalog is Catalog
    with pytest.raises(AttributeError, match="'dynkintrans.catalog' has no attribute 'Catalogs'"):
        catalog_mod.Catalogs
    q10 = all_catalogs["Q10"]
    assert type(q10) is Catalog
    fewer = dataclasses.replace(q10, members=q10.members[1:])
    assert (fewer.singularity, fewer.members) == (q10.singularity, q10.members[1:])
    with pytest.raises(dataclasses.FrozenInstanceError):
        q10.members = ()
    assert pickle.loads(pickle.dumps(q10)) == q10
    for graph, code in (("A7+A4", 0), ("A12", 1)):
        warm = cli("check", "Z13", graph)
        assert warm[0] == code
        assert cli("check", "Z13", graph, "--no-cache", cache=False) == warm
