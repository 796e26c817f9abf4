"""Command-line front end: catalogs, membership checks, single transformations.

Exit codes: 0 success (or membership yes), 1 membership no or failed
verification, 2 usage or parse errors, or an ``--out`` file that cannot be
written.  All text output is UTF-8, line-oriented and sorted, so runs diff
cleanly.

``_COMMANDS`` declares each command once.  ``main`` reads the plain ``catalog``
and ``check`` forms itself (``_plain``); any other command line imports
``_cli_argparse``, which builds the ``argparse`` parser from that table and holds
the ``transform`` and ``verify`` handlers.  Importing this module loads only the
graph layer, which holds the step values.  ``catalog``, ``check`` and ``verify``
import the catalog layer when they run; only ``verify`` builds a ``Catalog``, the
others read member tuples.  ``transform`` and ``verify`` import the transform
engine and the exact layer, as does a catalog that is computed, not read.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

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


_CACHE_OPTIONS = (("--no-cache", False, "compute without the disk cache"),
                  ("--cache-dir", None, "cache directory (default: $DYNKINTRANS_CACHE_DIR, else"
                                        " $XDG_CACHE_HOME/dynkintrans or ~/.cache/dynkintrans)"))
# The grammar, in usage order: command -> (help, handler, (positional, help) pairs, options
# as (flag, default, help[, more add_argument keywords])); a default of False makes a flag,
# None an option with a value.  A handler given by name is one of ``_cli_argparse``, which
# only argparse reads; ``_plain`` reads the plain forms of the other commands.
_COMMANDS = {
    "catalog": ("write the full catalog of one class", _cmd_catalog,
                (("symbol", "class symbol, e.g. Z13"),),
                (("--json", False, "JSON output"),
                 ("--out", None, "write to a file instead of stdout"), *_CACHE_OPTIONS)),
    "check": ("membership query with a two-step witness", _cmd_check,
              (("symbol", None), ("graph", "graph name, e.g. A7+A4")), _CACHE_OPTIONS),
    "transform": ("apply one kind of transformation exhaustively", "_cmd_transform",
                  (("graph", None),),
                  (("--op", None, None, {"choices": ("elementary", "tie"), "required": True}),
                   ("--json", False, None), ("--out", None, None))),
    "verify": ("run the regression suite", "_cmd_verify", (),
               (("--full", False, "verify all nine classes"), *_CACHE_OPTIONS)),
}


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The fields ``build_parser().parse_args(argv)`` sets for exactly a plain form of a
    command with a handler here: positionals and options in any order, an option with a
    default of None taking a value and its last value winning; None for any other argv."""
    _help, func, positionals, options = _COMMANDS.get(argv[0] if argv else "", (0, "", (), ()))
    if isinstance(func, str):
        return None
    defaults = {flag: default for flag, default, *_ in options}
    fields = {"command": argv[0], "func": func}
    fields.update((flag[2:].replace("-", "_"), default) for flag, default in defaults.items())
    values, tokens = [], iter(argv[1:])
    for arg in tokens:
        if arg not in defaults:
            if arg.startswith("-"):  # -h, --, an abbreviation or --out=FILE
                return None
            values.append(arg)
            continue
        value = True if defaults[arg] is False else next(tokens, "-")  # "-": argparse reports it
        if value is not True and value.startswith("-"):
            return None
        fields[arg[2:].replace("-", "_")] = value
    fields.update(zip((name for name, _ in positionals), values))
    return SimpleNamespace(**fields) if len(values) == len(positionals) else None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _plain(argv)
        if args is None:
            from ._cli_argparse import build_parser
            args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else USAGE_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
