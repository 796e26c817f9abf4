"""Command-line front end: catalogs, membership checks, single transformations.

Exit codes: 0 success (or membership yes), 1 membership no or failed
verification, 2 usage or parse errors, or an ``--out`` file that cannot be
written.  All text output is UTF-8, line-oriented and sorted, so runs diff
cleanly.

Importing this module loads only the graph layer, which holds the step values,
and not ``argparse``: ``main`` reads the plain forms of ``catalog`` and ``check``
itself and builds the parser for any other command line.  ``catalog``, ``check``
and ``verify`` import the catalog layer when they run; only ``verify`` builds a
``Catalog`` (with ``dataclasses``), the others read member tuples.  ``transform``
and ``verify`` import the transform engine and the exact layer, as does a catalog
that is computed, not read, and ``transform --json`` imports ``json``.
"""

from __future__ import annotations

import sys
from functools import cache
from types import SimpleNamespace

from . import __version__
from .graphs import (DynkinGraph, ElementaryChoice, ParseError, TransformStep,
                     extended_vertex_ids, parse_name)

USAGE_ERROR = 2


def __getattr__(name: str):  # PEP 562: the engine's current objects, loaded on first use
    if name in ("elementary_all", "tie_all"):
        from . import transforms
        return getattr(transforms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _emit(text: str, out_path: str | None) -> int:
    """Write ``text`` to ``out_path``, or to stdout; the command's exit code."""
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _usage_error(f"cannot write {out_path}: {exc.strerror}")
    return 0


def _parse_graph_arg(text: str) -> DynkinGraph:
    try:
        return parse_name(text)
    except ParseError as exc:
        raise SystemExit(_usage_error(str(exc)))


def _parse_class_arg(symbol: str):
    from .catalog import singularity_class

    try:
        return singularity_class(symbol)
    except KeyError as exc:
        raise SystemExit(_usage_error(exc.args[0]))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _cache_kwargs(args) -> dict:
    return {"cache": not args.no_cache, "cache_dir": args.cache_dir}


def _cmd_catalog(args) -> int:
    from .catalog import _class_members, catalog_to_json

    pair = _class_members(_parse_class_arg(args.symbol), **_cache_kwargs(args))
    if args.json:
        text = catalog_to_json(pair)
    else:
        text = "\n".join(str(m.graph) for m in pair[1]) + "\n"
    return _emit(text, args.out)


def _describe_step(step: TransformStep) -> str:
    ids = extended_vertex_ids(step.input)

    def show(indices) -> str:
        return "{" + ", ".join(ids[i] for i in indices) + "}"

    choice = step.choice
    if isinstance(choice, ElementaryChoice):
        detail = f"remove {show(choice.removed)}"
    else:
        detail = f"A = {show(choice.a)}, B = {show(choice.b)}"
    return f"{step.kind} on {step.input}: {detail} -> {step.output}"


def _cmd_check(args) -> int:
    from .catalog import QueryNotADE, membership

    cls = _parse_class_arg(args.symbol)
    g = _parse_graph_arg(args.graph)
    try:
        witness = membership(cls, g, **_cache_kwargs(args))
    except QueryNotADE as exc:
        return _usage_error(str(exc))
    if witness is None:
        print(f"no: {g} is not reachable from {cls.symbol}")
        return 1
    print(f"yes: {g} is reachable from {cls.symbol} ({cls.basic})")
    for k, step in enumerate(witness, start=1):
        print(f"  step {k}: {_describe_step(step)}")
    return 0


def _cmd_transform(args) -> int:
    from .transforms import GraphTooLarge, elementary_all, tie_all

    g = _parse_graph_arg(args.graph)
    try:
        results = elementary_all(g) if args.op == "elementary" else tie_all(g)
    except GraphTooLarge as exc:
        return _usage_error(str(exc))
    if args.json:
        import json

        rows = [{"name": out.name, "choice": dict(zip(c._fields, c._key))}
                for out, c in results]  # index tuples dump as JSON lists
        payload = {"input": g.name, "op": args.op, "results": rows}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(str(out) for out, _ in results) + "\n"
    return _emit(text, args.out)


def _verify_checks(full: bool, cache_kwargs: dict):
    """Yield (name, ok, detail) tuples for the regression suite."""
    from .catalog import SINGULARITY_CLASSES, build_catalog, is_published
    from .exact import check_extension_identity
    from .graphs import A, BC1, D, E, G1, G2
    from .transforms import elementary_all, tie_all

    try:
        for ct in (A(1), A(5), D(4), D(7), E(6), E(7), E(8), G2, G1, BC1):
            check_extension_identity(ct)
        yield "extension-coefficients", True, "added vertex realizes minus the maximal root"
    except AssertionError as exc:
        yield "extension-coefficients", False, str(exc)

    e7g2, e8g2 = parse_name("E7+G2"), parse_name("E8+G2")
    tie1 = {out.name for out, _ in tie_all(e7g2)}
    tie2 = {out.name for out, _ in tie_all(e8g2)}
    elem2 = {out.name for out, _ in elementary_all(e8g2)}
    ok = "E8+G2" in tie1 and "A7+A4" in tie2 and "D8+A2" in elem2
    yield "worked-example-chain", ok, "E7+G2 -tie-> E8+G2 -tie-> A7+A4, -elem-> D8+A2"

    for symbol in SINGULARITY_CLASSES if full else ["Z13"]:
        catalog = build_catalog(symbol, **cache_kwargs)
        ok = is_published(catalog)
        yield f"published-catalog-{symbol}", ok, f"{len(catalog)} members, byte for byte"


def _cmd_verify(args) -> int:
    failures = 0
    try:
        for name, ok, detail in _verify_checks(args.full, _cache_kwargs(args)):
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
            failures += not ok
    except Exception as exc:  # a crashed check is a failed check
        print(f"FAIL verify-crashed: {type(exc).__name__}: {exc}")
        failures += 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


@cache  # built by the first main() call
def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="dynkintrans",
        description=(
            "Dynkin-graph transformation catalogs for the nine E/Z/Q "
            "triangle singularity classes"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_flags(p) -> None:
        p.add_argument("--no-cache", action="store_true", help="compute without the disk cache")
        p.add_argument("--cache-dir", default=None, help=(
            "cache directory (default: $DYNKINTRANS_CACHE_DIR, else"
            " $XDG_CACHE_HOME/dynkintrans or ~/.cache/dynkintrans)"))

    p = sub.add_parser("catalog", help="write the full catalog of one class")
    p.add_argument("symbol", help="class symbol, e.g. Z13")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    add_cache_flags(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("check", help="membership query with a two-step witness")
    p.add_argument("symbol")
    p.add_argument("graph", help="graph name, e.g. A7+A4")
    add_cache_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("transform", help="apply one kind of transformation exhaustively")
    p.add_argument("graph")
    p.add_argument("--op", choices=("elementary", "tie"), required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify", help="run the regression suite")
    p.add_argument("--full", action="store_true", help="verify all nine classes")
    add_cache_flags(p)
    p.set_defaults(func=_cmd_verify)
    return parser


_PLAIN = {  # the forms main reads without argparse: command -> (handler, positionals, options)
    "catalog": (_cmd_catalog, ("symbol",),
                {"--json": False, "--out": None, "--no-cache": False, "--cache-dir": None}),
    "check": (_cmd_check, ("symbol", "graph"), {"--no-cache": False, "--cache-dir": None}),
}


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The fields ``build_parser().parse_args(argv)`` sets for exactly a plain form of
    ``_PLAIN``: positionals and options in any order, an option with a default of None
    taking a value and its last value winning; None for any other argv, read by argparse."""
    func, names, options = _PLAIN.get(argv[0] if argv else "", (None, (), {}))
    if func is None:
        return None
    fields = {"command": argv[0], "func": func}
    fields.update((opt[2:].replace("-", "_"), default) for opt, default in options.items())
    positionals = []
    tokens = iter(argv[1:])
    for arg in tokens:
        if arg not in options:
            if arg.startswith("-"):  # -h, --, an abbreviation or --out=FILE
                return None
            positionals.append(arg)
            continue
        value = True if options[arg] is False else next(tokens, "-")  # "-": argparse reports it
        if value is not True and value.startswith("-"):
            return None
        fields[arg[2:].replace("-", "_")] = value
    fields.update(zip(names, positionals))
    return SimpleNamespace(**fields) if len(positionals) == len(names) else None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _plain(argv) or build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else USAGE_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
