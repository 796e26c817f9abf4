"""The CLI's argparse path: the parser built from ``cli._COMMANDS``, and the
``transform`` and ``verify`` handlers.  ``cli.main`` imports this module only for
a command line that ``cli._plain`` does not read."""

from __future__ import annotations

import argparse
from functools import cache

from . import __version__
from .cli import _COMMANDS, _cache_kwargs, _emit, _parse_graph_arg, _usage_error
from .graphs import parse_name


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


@cache  # built by the first command line that cli._plain does not read
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynkintrans", description=(
        "Dynkin-graph transformation catalogs for the nine E/Z/Q triangle singularity classes"))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (about, func, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for name, text in positionals:
            p.add_argument(name, help=text)
        for flag, default, text, *more in options:
            action = "store_true" if default is False else "store"
            p.add_argument(flag, action=action, default=default, help=text, **dict(*more))
        p.set_defaults(func=globals()[func] if isinstance(func, str) else func)
    return parser
