from __future__ import annotations

import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkintrans import _cli_argparse
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


# Every order of SYMBOL, GRAPH and each set of the two options, SYMBOL before GRAPH.
_PLAIN_ORDERS = [
    [token for part in order for token in part]
    for options in ([], [["--no-cache"]], [["--cache-dir", "d"]], [["--no-cache"], ["--cache-dir", "d"]])
    for order in itertools.permutations([["Z13"], ["A7+A4"], *options])
    if order.index(["Z13"]) < order.index(["A7+A4"])
]
_PLAIN_CASES = [(["check", *argv], True) for argv in _PLAIN_ORDERS + [
    ["Z13", "A7+A4", "--no-cache", "--no-cache"],
    ["--cache-dir", "a", "Z13", "--cache-dir", "b", "A7+A4"],  # the last value wins
    ["Z13", "A7+A4", "--cache-dir", ""],
    ["Q10", ""],  # the empty graph
]] + [(["check", *argv], False) for argv in [
    [],
    ["Z13"],
    ["Z13", "A7+A4", "A1"],
    ["Z13", "A7+A4", "--cache-dir"],
    ["Z13", "A7+A4", "--cache-dir", "-d"],
    ["Z13", "A7+A4", "--cache-dir=d"],
    ["Z13", "A7+A4", "--no-c"],  # an abbreviation that argparse accepts
    ["Z13", "--", "A7+A4"],
    ["Z13", "A7+A4", "-h"],
    ["Z13", "-A1"],
    ["Z13", "-1"],  # argparse reads a negative number as a positional
]]
# Every order of SYMBOL and each set of the four options of `catalog`.
_CATALOG_OPTIONS = [["--json"], ["--out", "F"], ["--no-cache"], ["--cache-dir", "D"]]
_PLAIN_CASES += [
    (["catalog", *(token for part in order for token in part)], True)
    for k in range(len(_CATALOG_OPTIONS) + 1)
    for options in itertools.combinations(_CATALOG_OPTIONS, k)
    for order in itertools.permutations([["Z13"], *options])
] + [(["catalog", *argv], True) for argv in [
    ["Z13", "--json", "--json", "--no-cache", "--no-cache"],
    ["--out", "a", "Z13", "--out", "b"],  # the last value wins
    ["--cache-dir", "a", "--cache-dir", "b", "Z13", "--cache-dir", "c"],
    ["Z13", "--out", "", "--cache-dir", ""],
]] + [(["catalog", *argv], False) for argv in [
    [],
    ["Z13", "Q10"],
    ["Z13", "-h"],
    ["--help", "Z13"],
    ["--", "Z13"],
    ["Z13", "--js"],  # abbreviations that argparse accepts
    ["Z13", "--o", "F"],
    ["Z13", "--no-c"],
    ["Z13", "--cache", "D"],
    ["Z13", "--out=F"],
    ["Z13", "--cache-dir=D"],
    ["Z13", "--out"],
    ["Z13", "--cache-dir"],
    ["Z13", "--out", "-f"],
    ["Z13", "--out", "--json"],
    ["Z13", "--cache-dir", "-d"],
    ["Z13", "--graph", "A1"],
    ["-1"],
    ["Z13", "-x"],
]] + [(argv, False) for argv in [
    ["--version"],
    ["transform", "A2", "--op", "tie"],
    ["verify"],
    ["verify", "--no-cache"],
]]


@pytest.mark.parametrize("argv, plain", _PLAIN_CASES, ids=[shlex.join(a) for a, _ in _PLAIN_CASES])
def test_plain_check_parses_as_argparse_does(argv, plain, capsys):
    """``main`` reads the plain ``catalog`` and ``check`` forms without argparse:
    the fields it sets are those of ``parse_args``, and any other argv goes to
    argparse."""
    fast = cli_mod._plain(argv)
    try:
        parsed = vars(_cli_argparse.build_parser().parse_args(argv))
    except SystemExit as exc:
        parsed = exc.code
    capsys.readouterr()
    assert (fast is not None) == plain
    if plain:
        assert vars(fast) == parsed


# Each command's positional count, flags and options with a value, as its usage names them.
_USAGE = {
    "catalog": (1, ["--json", "--no-cache"], ["--out", "--cache-dir"]),
    "check": (2, ["--no-cache"], ["--cache-dir"]),
    "transform": (1, ["--json"], ["--op", "--out"]),
    "verify": (0, ["--full", "--no-cache"], ["--cache-dir"]),
    "--version": (0, ["--version"], []),
}
_NAMES = ["Z13", "A7+A4", "tie", "F", ""]
_ODD_TOKENS = ["-x", "-1", "-", "--", "-h", "--out=F", "--cache-dir=D", "--no-c", "--js",
               "--version", "--out", "--cache-dir"]


def test_usage_is_the_command_table():
    """``_USAGE`` lists what ``cli._COMMANDS`` declares, so the property below draws
    every option of the grammar: a default of False makes a flag, None a valued option."""
    declared = {
        command: (len(positionals), [flag for flag, default, *_ in options if default is False],
                  [flag for flag, default, *_ in options if default is None])
        for command, (_help, _func, positionals, options) in cli_mod._COMMANDS.items()
    }
    assert {command: _USAGE[command] for command in _USAGE if command != "--version"} == declared


def _argvs(command):
    """``command`` and, in any order: its options, each with a value if it takes
    one, which may start with ``-``; about its number of positionals; and at most
    one token that only argparse reads, or a valued option without its value."""
    n, flags, valued = _USAGE[command]
    value = st.sampled_from(_NAMES + ["-x", "-1", "-"])
    with_value = st.tuples(st.sampled_from(valued), value).map(list) if valued else st.nothing()
    option = st.one_of(st.sampled_from(flags).map(lambda flag: [flag]), with_value)
    name = st.sampled_from(_NAMES).map(lambda name: [name])
    positionals = st.sampled_from([n, n, n + 1, max(n - 1, 0)]).flatmap(
        lambda k: st.lists(name, min_size=k, max_size=k))
    odd = st.lists(st.sampled_from(_ODD_TOKENS).map(lambda token: [token]), max_size=1)
    pieces = st.tuples(st.lists(option, max_size=4), positionals, odd).flatmap(
        lambda parts: st.permutations([piece for part in parts for piece in part]))
    return pieces.map(lambda order: [command, *itertools.chain(*order)])


@given(st.sampled_from(sorted(_USAGE)).flatmap(_argvs))
@settings(max_examples=500, deadline=None)
def test_plain_forms_parse_as_argparse_does(argv):
    """Any argv that the plain reader takes sets the fields ``parse_args`` sets;
    it takes no ``transform``, ``verify`` or ``--version`` command line."""
    fast = cli_mod._plain(argv)
    if argv[0] in ("transform", "verify", "--version"):
        assert fast is None
    if fast is not None:
        try:
            parsed = vars(_cli_argparse.build_parser().parse_args(argv))
        except SystemExit as exc:  # hypothesis would not report it as a failure
            parsed = exc.code
        assert vars(fast) == parsed


class TestMain:
    @pytest.mark.parametrize("argv", [["check"], ["frob"]])
    def test_usage_error_returns_two(self, argv, capsys):
        assert main(argv) == 2
        assert "usage: dynkintrans" in capsys.readouterr().err

    def test_version_returns_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_parser_is_built_once(self):
        _cli_argparse.build_parser.cache_clear()
        main(["--version"])
        main(["check"])
        main(["transform", "A2", "--op", "tie"])
        assert _cli_argparse.build_parser.cache_info().misses == 1

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


# The help and usage text at 80 columns: the same bytes on Python 3.10 to 3.13.
_HELP = {  # stdout of main([*command, "-h"]) at COLUMNS=80
    (): (
        'usage: dynkintrans [-h] [--version] {catalog,check,transform,verify} ...\n'
        '\n'
        'Dynkin-graph transformation catalogs for the nine E/Z/Q triangle singularity\n'
        'classes\n'
        '\n'
        'positional arguments:\n'
        '  {catalog,check,transform,verify}\n'
        '    catalog             write the full catalog of one class\n'
        '    check               membership query with a two-step witness\n'
        '    transform           apply one kind of transformation exhaustively\n'
        '    verify              run the regression suite\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        "  --version             show program's version number and exit\n"
    ),
    ('catalog',): (
        'usage: dynkintrans catalog [-h] [--json] [--out OUT] [--no-cache]\n'
        '                           [--cache-dir CACHE_DIR]\n'
        '                           symbol\n'
        '\n'
        'positional arguments:\n'
        '  symbol                class symbol, e.g. Z13\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --json                JSON output\n'
        '  --out OUT             write to a file instead of stdout\n'
        '  --no-cache            compute without the disk cache\n'
        '  --cache-dir CACHE_DIR\n'
        '                        cache directory (default: $DYNKINTRANS_CACHE_DIR, else\n'
        '                        $XDG_CACHE_HOME/dynkintrans or ~/.cache/dynkintrans)\n'
    ),
    ('check',): (
        'usage: dynkintrans check [-h] [--no-cache] [--cache-dir CACHE_DIR]\n'
        '                         symbol graph\n'
        '\n'
        'positional arguments:\n'
        '  symbol\n'
        '  graph                 graph name, e.g. A7+A4\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --no-cache            compute without the disk cache\n'
        '  --cache-dir CACHE_DIR\n'
        '                        cache directory (default: $DYNKINTRANS_CACHE_DIR, else\n'
        '                        $XDG_CACHE_HOME/dynkintrans or ~/.cache/dynkintrans)\n'
    ),
    ('transform',): (
        'usage: dynkintrans transform [-h] --op {elementary,tie} [--json] [--out OUT]\n'
        '                             graph\n'
        '\n'
        'positional arguments:\n'
        '  graph\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --op {elementary,tie}\n'
        '  --json\n'
        '  --out OUT\n'
    ),
    ('verify',): (
        'usage: dynkintrans verify [-h] [--full] [--no-cache] [--cache-dir CACHE_DIR]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --full                verify all nine classes\n'
        '  --no-cache            compute without the disk cache\n'
        '  --cache-dir CACHE_DIR\n'
        '                        cache directory (default: $DYNKINTRANS_CACHE_DIR, else\n'
        '                        $XDG_CACHE_HOME/dynkintrans or ~/.cache/dynkintrans)\n'
    ),
}
_USAGE_ERRORS = {  # exit code and stderr of main(argv) at COLUMNS=80
    ('check',): (2, (
        'usage: dynkintrans check [-h] [--no-cache] [--cache-dir CACHE_DIR]\n'
        '                         symbol graph\n'
        'dynkintrans check: error: the following arguments are required: symbol, graph\n'
    )),
    ('catalog',): (2, (
        'usage: dynkintrans catalog [-h] [--json] [--out OUT] [--no-cache]\n'
        '                           [--cache-dir CACHE_DIR]\n'
        '                           symbol\n'
        'dynkintrans catalog: error: the following arguments are required: symbol\n'
    )),
    ('transform', 'A1'): (2, (
        'usage: dynkintrans transform [-h] --op {elementary,tie} [--json] [--out OUT]\n'
        '                             graph\n'
        'dynkintrans transform: error: the following arguments are required: --op\n'
    )),
    ('transform', 'A1', '--op', 'x'): (2, (
        'usage: dynkintrans transform [-h] --op {elementary,tie} [--json] [--out OUT]\n'
        '                             graph\n'
        "dynkintrans transform: error: argument --op: invalid choice: 'x'"
        " (choose from 'elementary', 'tie')\n"
    )),
    ('verify', 'X'): (2, (
        'usage: dynkintrans [-h] [--version] {catalog,check,transform,verify} ...\n'
        'dynkintrans: error: unrecognized arguments: X\n'
    )),
    ('frob',): (2, (
        'usage: dynkintrans [-h] [--version] {catalog,check,transform,verify} ...\n'
        "dynkintrans: error: argument command: invalid choice: 'frob'"
        " (choose from 'catalog', 'check', 'transform', 'verify')\n"
    )),
}


@pytest.mark.parametrize("command", sorted(_HELP), ids=lambda c: " ".join(c) or "dynkintrans")
def test_help_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*command, "-h"]) == 0
    assert capsys.readouterr() == (_HELP[command], "")


@pytest.mark.parametrize("argv", sorted(_USAGE_ERRORS), ids=" ".join)
def test_usage_errors_are_pinned(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, err = _USAGE_ERRORS[argv]
    assert main(list(argv)) == code
    assert capsys.readouterr() == ("", err)


def test_type_hints_resolve():
    """Each annotation of a CLI function names what its module defines or imports
    at module level, so ``typing.get_type_hints`` resolves it."""
    import inspect
    import typing

    functions = [obj for module in (cli_mod, _cli_argparse) for obj in vars(module).values()
                 if inspect.isfunction(inspect.unwrap(obj)) and obj.__module__ == module.__name__]
    assert {"main", "_plain", "build_parser", "_cmd_transform"} <= {f.__name__ for f in functions}
    for function in functions:
        typing.get_type_hints(function)


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

        compute = catalog_mod._compute_catalog

        def lossy(cls):
            return compute(cls)[:-1]

        monkeypatch.setattr(catalog_mod, "_compute_catalog", lossy)
        code, out, _ = cli("verify", "--no-cache", cache=False)
        assert code == 1
        assert "FAIL published-catalog-Z13: 250 members" in out
        assert "ok   worked-example-chain" in out
        assert out.endswith("1 check(s) failed\n")
        assert "verify-crashed" not in out

    def test_crashed_check_is_reported(self, cli, monkeypatch):
        def crash(ct):
            raise RuntimeError("table unreadable")

        monkeypatch.setattr(transforms, "check_extension_identity", crash)
        code, out, _ = cli("verify")
        assert code == 1
        assert out == "FAIL verify-crashed: RuntimeError: table unreadable\n1 check(s) failed\n"


def _python_s(*args):
    """The finished run of a fresh ``python -S`` with ``args`` that finds this package."""
    import dynkintrans

    src = str(Path(dynkintrans.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True, env=env, check=True,
    )


def _last_line(script, argv=()):
    """The last line printed by ``script`` in a fresh ``python -S`` that finds
    this package."""
    return _python_s("-c", script, *argv).stdout.splitlines()[-1]


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


_CLI_MODULES = ["dynkintrans", "dynkintrans.cli", "dynkintrans.graphs"]


@pytest.mark.parametrize("argv, more", [
    ([], []),
    (["check", "Z13", "A7+A4", "--cache-dir", "{cache}"], ["dynkintrans.catalog"]),
    (["transform", "D6", "--op", "tie"],
     ["dynkintrans._cli_argparse", "dynkintrans.transforms"]),
    (["check", "Q10", "A5", "--no-cache"],
     ["dynkintrans.catalog", "dynkintrans.transforms"]),
    (["catalog", "Q10", "--cache-dir", "{empty}"],
     ["dynkintrans.catalog", "dynkintrans.transforms"]),
    (["verify", "--cache-dir", "{cache}"],
     ["dynkintrans._catalog_type", "dynkintrans._cli_argparse", "dynkintrans.catalog",
      "dynkintrans.transforms"]),
], ids=["import", "warm-check", "transform", "computed-check", "computed-catalog", "verify"])
def test_each_command_loads_exactly_its_package_modules(
    argv, more, all_catalogs, catalog_cache_dir, tmp_path
):
    """The ``dynkintrans`` modules of a fresh ``python -S`` after importing the
    CLI, then after running ``argv`` (a warm ``check`` reads the session cache):
    every command loads the graph layer, which holds the step values, and
    besides it only the layers that the command uses: a computed catalog or
    answer builds no ``Catalog``; and only ``transform`` and ``verify`` load
    the argparse path, ``_cli_argparse``."""
    argv = [arg.format(cache=catalog_cache_dir, empty=tmp_path / "empty") for arg in argv]
    script = (
        "import sys, dynkintrans.cli\n"
        "def package(): return sorted(m for m in sys.modules if m.split('.')[0] == 'dynkintrans')\n"
        "imported = package()\n"
        "code = dynkintrans.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(code, imported, package())\n"
    )
    assert _last_line(script, argv) == f"0 {_CLI_MODULES} {sorted(_CLI_MODULES + more)}"


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


def test_python_m_loads_the_cli_once():
    """Under ``python -m dynkintrans.cli`` the running module serves as
    ``dynkintrans.cli``, so a command line that ``_plain`` does not read, whose
    ``_cli_argparse`` imports ``.cli``, loads no second copy of cli.py: under
    ``-X importtime`` no line imports ``dynkintrans.cli``."""
    run = _python_s("-X", "importtime", "-m", "dynkintrans.cli", "transform", "A1", "--op", "tie")
    assert run.stdout == "A1\nA1+A1\nA2\n"
    assert "dynkintrans._cli_argparse" in run.stderr
    assert [line for line in run.stderr.splitlines()
            if line.rsplit("|", 1)[-1].strip() == "dynkintrans.cli"] == []


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


def test_warm_check_loads_only_what_its_answer_reads(all_catalogs, catalog_cache_dir):
    """A warm answer builds no ``Catalog``, whose module alone loads
    ``dataclasses`` and, with it, ``inspect``; it enumerates nothing, so
    the transform engine, with ``fractions`` and ``decimal``, does not
    load; and its plain command line is read without
    ``argparse``, which would load ``shutil`` for the help width, or the
    parser module."""
    unused = ["tempfile", "dataclasses", "inspect", "argparse", "shutil", "fractions",
              "decimal", "dynkintrans._catalog_type", "dynkintrans._cli_argparse",
              "dynkintrans.transforms"]
    argv = ["check", "Z13", "A7+A4", "--cache-dir", str(catalog_cache_dir)]
    assert _modules_loaded(unused, argv) == "0 [] []"


def test_computed_catalog_loads_only_what_it_prints(tmp_path):
    """A ``catalog`` computed into an empty cache dir prints and writes its
    member tuple, so it builds no ``Catalog``, whose module alone loads
    ``dataclasses`` and, with it, ``inspect``; it parses no JSON; and its plain
    command line is read without ``argparse``, which would load ``gettext``, or
    the parser module."""
    unused = ["argparse", "gettext", "dataclasses", "inspect", "json",
              "dynkintrans._catalog_type", "dynkintrans._cli_argparse"]
    argv = ["catalog", "Q10", "--cache-dir", str(tmp_path / "empty")]
    assert _modules_loaded(unused, argv) == "0 [] []"
    assert (tmp_path / "empty" / f"Q10-v{ENGINE_VERSION}.json").is_file()


def test_engine_loads_only_to_enumerate_or_replay(all_catalogs, catalog_cache_dir):
    """A warm ``membership`` answer leaves the engine unloaded, and each of
    its witness steps then replays to its output, importing ``apply`` as it
    runs; ``test_each_command_loads_exactly_its_package_modules`` pins which
    commands load it."""
    script = (
        "import sys\n"
        "from dynkintrans.catalog import membership\n"
        "from dynkintrans.graphs import parse_name\n"
        f"witness = membership('Z13', parse_name('A7+A4'), cache_dir={str(catalog_cache_dir)!r})\n"
        "warm = 'dynkintrans.transforms' in sys.modules\n"
        "replayed = [step.replay() == step.output for step in witness]\n"
        "print(warm, replayed, 'dynkintrans.transforms' in sys.modules)\n"
    )
    assert _last_line(script) == "False [True, True] True"


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
