"""Two-transformation catalogs for the nine E/Z/Q triangle singularity classes.

Each class has a basic graph and a Milnor number (the suffix of its
symbol).  The catalog of a class collects every Dynkin graph with only
A/D/E components that can be made from the basic graph by exactly two
transformations, in any of the four ordered combinations of elementary
and tie steps.  Intermediate graphs may contain G2, G1 or BC1 components;
only the final outcomes are filtered to A/D/E.

Every member carries one replayable two-step witness.  Catalogs serialize
to a byte-stable JSON format and can be cached on disk keyed by class
symbol and engine version; a cache file is served only when its BLAKE2b-256
digest is the published digest of its class.
"""

from __future__ import annotations

import json
import os
from _blake2 import blake2b  # builtin: hashlib would load OpenSSL for one digest
from functools import cache
from operator import attrgetter
from pathlib import Path

from .graphs import DynkinGraph, _Value, parse_name
from .transforms import (
    Choice,
    ElementaryChoice,
    TieChoice,
    TransformStep,
    _decode_graph,
    _reach,
    _winners,
    elementary_all,
    tie_all,
)

ENGINE_VERSION = "1"

# BLAKE2b-256 of catalog_to_json for every class, frozen from the exhaustive
# enumeration engine; any change to a member set or to a witness shows here.
GOLDEN_DIGESTS = {
    "E12": "e4ba50c32e6679f3d5d670ff94e9565846e43b1e5622641d71bbf106e4f8e019",
    "Z11": "edbb78f3199317df2527c7defb61704910acf906983e5a128ffc9d46ba811c55",
    "Q10": "01bc580772c7457d6394881df04a7c8c920a108ba5f4a7e439c7060d76304090",
    "E13": "24b234f6c4d8daddd8f6891b9e302d87d2bdfa5fc3628a546206d72af258254e",
    "Z12": "da8d268498e00dbd5452cef957a8aa7a38781ee27983a7d260ffc715e590a182",
    "Q11": "b90506a2b6fce8fc5fd37bcf355c41afb305f25bdb482a8135aa93c7d85b2fe4",
    "E14": "bdb6a5d6e220c7f2af5bf6341be09baa59fbcccd22797577fb1b1c6e517770ff",
    "Z13": "b02371e459798034072b4941ae8865b7339132ea169c46927ef8f6c3ea26cd0b",
    "Q12": "c5031ba9e0aab0ff0f9f36a26b27c3d29709d41822951048503403bc28f485c9",
}

CACHE_ENV_VAR = "DYNKINTRANS_CACHE_DIR"


class QueryNotADE(ValueError):
    """Membership queries are only defined for graphs with A/D/E components."""


class SingularityClass(_Value):
    """One of the nine classes: symbol, Milnor number and basic graph."""

    __slots__ = ("symbol", "milnor", "basic")


def _cls(symbol: str, basic: str) -> SingularityClass:
    return SingularityClass(symbol, int(symbol[1:]), parse_name(basic))


SINGULARITY_CLASSES: dict[str, SingularityClass] = {
    c.symbol: c
    for c in (
        _cls("E12", "E8"),
        _cls("Z11", "E7"),
        _cls("Q10", "E6"),
        _cls("E13", "E8+BC1"),
        _cls("Z12", "E7+BC1"),
        _cls("Q11", "E6+BC1"),
        _cls("E14", "E8+G2"),
        _cls("Z13", "E7+G2"),
        _cls("Q12", "E6+G2"),
    )
}


def singularity_class(symbol: str) -> SingularityClass:
    try:
        return SINGULARITY_CLASSES[symbol]
    except KeyError:
        valid = ", ".join(SINGULARITY_CLASSES)
        raise KeyError(f"unknown singularity class {symbol!r}; valid symbols: {valid}") from None


Witness = tuple[TransformStep, TransformStep]


class CatalogMember(_Value):
    __slots__ = ("graph", "witness")

    @property
    def name(self) -> str:
        return self.graph.name


def __getattr__(name: str):  # PEP 562: Catalog, and with it dataclasses, on first use
    if name == "Catalog":
        from ._catalog_type import Catalog
        return Catalog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@cache
def _joined(indices: tuple[int, ...]) -> str:
    """The body of the JSON list of one index tuple."""
    return ",".join(map(str, indices))


def _encode_step(input_name: str, a: tuple, b: tuple | None = None) -> str:
    """The compact JSON of the elementary step removing ``a`` from the graph
    named ``input_name``, or of its tie step (a, b) when ``b`` is given:
    ``json.dumps`` of its step object with ``sort_keys=True`` and
    ``separators=(",", ":")``, built directly.  Names use only [A-Z0-9+]
    and indices are ints, so nothing needs escaping."""
    if b is None:
        return '{"input":"%s","kind":"elementary","removed":[%s]}' % (input_name, _joined(a))
    return '{"a":[%s],"b":[%s],"input":"%s","kind":"tie"}' % (_joined(a), _joined(b), input_name)


def _compute_catalog(cls: SingularityClass) -> Catalog:
    """Members with their witnesses.

    Per member the witness (s1, s2) whose compact JSON encoding
    ``"[" + enc1 + "," + enc2 + "]"`` is shortest, then smallest, wins.
    That key orders by ``(len(enc1), enc1)`` for a fixed s2, and by
    ``(len(enc2), enc2)`` for a fixed s1: lengths add up, and among keys of
    equal length the first difference lies inside the step that differs.
    So the selection runs per intermediate graph, with no key built per
    candidate:

    - of the (at most two) first steps reaching one intermediate, keep the
      one with the smaller ``(len(enc1), enc1)``;
    - visit the (intermediate, kind) pairs in ascending order of ``bound``
      = len(enc1) + len(enc2 without indices) + 2 (n_ext + [tie]) - 1, for
      n_ext extended vertices: a step to an outcome of v vertices removes
      n_ext + [tie] - v, in 2 (n_ext + [tie] - v) - 1 characters or more.
      Skip a pair if each outcome it reaches (``transforms._reach``) has a
      witness shorter than ``bound - 2 v``; else compare each candidate of
      its A/D/E winner table (``transforms._winners``) with the member's
      best by ``len(enc1) + len(enc2)``, building keys only when they tie.

    Members are keyed by the engine's type multisets; only each member's
    winner gets its graph, name, second-step choice and step.
    """
    basic = cls.basic
    basic_name = basic.name
    # intermediate name -> (enc1, first step)
    firsts: dict[str, tuple[str, TransformStep]] = {}
    for kind_all in (elementary_all, tie_all):
        for mid, choice in kind_all(basic):
            enc1 = _encode_step(basic_name, *choice._key)  # (removed,) or (A, B)
            name = mid.name
            old = firsts.get(name)
            if old is None or (len(enc1), enc1) < (len(old[0]), old[0]):
                firsts[name] = (enc1, TransformStep(choice, basic, mid))
    pairs = sorted(  # (bound, intermediate name, kind, n_ext + [tie])
        (len(enc1) + len(_encode_step(name, (), b)) + 2 * n - 1, name, kind, n)
        for name, (enc1, s1) in firsts.items()
        for n_ext in [s1.output.total_vertices + len(s1.output.components)]
        for kind, b, n in (("elementary", None, n_ext), ("tie", (), n_ext + 1))
    )
    # member types -> (len(enc1) + len(enc2), enc1, enc2, first step,
    # second-step A, second-step B or None for an elementary step)
    best: dict[int, tuple] = {}
    limits: dict[int, int] = {}  # member types -> its best length + 2 v(types)
    for bound, mid_name, kind, n in pairs:
        enc1, s1 = firsts[mid_name]
        if all(bound > limits.get(types, bound) for types in _reach(s1.output, kind)):
            continue
        len1 = len(enc1)
        for types, (a, b) in _winners(s1.output, kind).items():
            b = b if kind == "tie" else None
            enc2 = _encode_step(mid_name, a, b)
            length = len1 + len(enc2)
            old = best.get(types)
            if old is not None:
                if length > old[0]:
                    continue
                if length == old[0] and enc1 + "," + enc2 >= old[1] + "," + old[2]:
                    continue
            best[types] = (length, enc1, enc2, s1, a, b)
            limits[types] = length + 2 * (n - len(a))  # v(types) = n - |A|
    members = []
    for types, (_, _, _, s1, a, b) in best.items():
        out = _decode_graph(types)
        choice = ElementaryChoice(a) if b is None else TieChoice(a, b)
        members.append(CatalogMember(out, (s1, TransformStep(choice, s1.output, out))))
    members.sort(key=attrgetter("name"))
    from ._catalog_type import Catalog  # here, not at the top: a warm answer builds none
    return Catalog(cls, tuple(members))


# --------------------------------------------------------------------------
# Serialization and caching.
# --------------------------------------------------------------------------


# The published layout, json.dumps(..., sort_keys=True, indent=2) plus a newline,
# from one template per object kind; as in _encode_step, nothing needs escaping.
_CATALOG_JSON = """{
  "basic": "%s",
  "class": "%s",
  "engine_version": "%s",
  "members": %s,
  "milnor": %d
}
"""
_MEMBER_JSON = """    {
      "name": "%s",
      "witness": [
%s,
%s
      ]
    }"""
_ELEMENTARY_JSON = """        {
          "input": "%s",
          "kind": "elementary",
          "removed": %s
        }"""
_TIE_JSON = """        {
          "a": %s,
          "b": %s,
          "input": "%s",
          "kind": "tie"
        }"""
_CHOICE_CLASSES = {c.kind: c for c in (ElementaryChoice, TieChoice)}  # by a step's "kind"


def _index_list(indices: tuple[int, ...]) -> str:
    """The JSON list of one step's indices: one int per line, or []."""
    body = ",\n            ".join(map(str, indices))
    return "[\n            %s\n          ]" % body if indices else "[]"


def _step_json(step: TransformStep) -> str:
    choice, name = step.choice, step.input.name
    if isinstance(choice, ElementaryChoice):
        return _ELEMENTARY_JSON % (name, _index_list(choice.removed))
    return _TIE_JSON % (_index_list(choice.a), _index_list(choice.b), name)


def catalog_to_json(catalog: Catalog) -> str:
    """Byte-stable JSON: sorted keys, fixed indentation, trailing newline."""
    cls = catalog.singularity
    members = ",\n".join(_MEMBER_JSON % (m.name, *map(_step_json, m.witness))
                         for m in catalog.members)
    members = "[\n" + members + "\n  ]" if members else "[]"
    return _CATALOG_JSON % (cls.basic.name, cls.symbol, ENGINE_VERSION, members, cls.milnor)


def _choice_from_dict(d: dict) -> Choice:
    cls = _CHOICE_CLASSES.get(d["kind"])
    if cls is None:
        raise ValueError(f"unknown step kind {d['kind']!r}")
    choice = cls(*[tuple(d[name]) for name in cls._fields])  # the fields are the JSON keys
    if any(type(i) is not int for indices in choice._key for i in indices):
        raise ValueError(f"witness indices of {d!r} are not all integers")
    return choice


def _entry_witness(cls: SingularityClass, entry: dict, graph: DynkinGraph, mids: dict) -> Witness:
    d1, d2 = entry["witness"]
    mid = mids.get(d2["input"])
    if mid is None:
        mid = mids[d2["input"]] = parse_name(d2["input"])
    s1 = TransformStep(_choice_from_dict(d1), cls.basic, mid)
    return s1, TransformStep(_choice_from_dict(d2), mid, graph)


def catalog_from_json(text: str) -> Catalog:
    """The catalog of JSON text from outside the program, whose header and
    each entry's name, order and first step are checked; ValueError if malformed."""
    data = json.loads(text)  # outside the try: a non-string argument stays a TypeError
    try:
        cls = singularity_class(data["class"])
        basic = cls.basic.name
        header = (data["class"], data["milnor"], data["basic"], data["engine_version"])
        if header != (cls.symbol, cls.milnor, basic, ENGINE_VERSION):
            raise ValueError(f"catalog header {header!r} does not match engine {ENGINE_VERSION}")
        members = []
        mids: dict[str, DynkinGraph] = {}  # each intermediate name parsed once
        last = None
        for entry in data["members"]:
            name = entry["name"]
            d1, _ = entry["witness"]
            graph = parse_name(name)  # a name must be canonical, as Catalog.get looks it up
            if graph.name != name or (last is not None and name <= last) or d1["input"] != basic:
                raise ValueError(f"malformed, unsorted or non-canonical catalog entry {name!r}")
            last = name
            members.append(CatalogMember(graph, _entry_witness(cls, entry, graph, mids)))
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed catalog: {exc!r}") from exc
    from ._catalog_type import Catalog
    return Catalog(cls, tuple(members))


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "dynkintrans"


def _is_published(symbol: str, data: bytes) -> bool:
    """Whether ``data`` is, byte for byte, the published catalog of ``symbol``."""
    return blake2b(data, digest_size=32).hexdigest() == GOLDEN_DIGESTS[symbol]


def is_published(catalog: Catalog) -> bool:
    """Whether ``catalog`` serializes, byte for byte, to the published catalog."""
    return _is_published(catalog.singularity.symbol, catalog_to_json(catalog).encode("utf-8"))


def _cached(cls, cache, cache_dir) -> tuple[SingularityClass, Path | None, bytes | None]:
    """The class, its cache file when ``cache`` is set, and the file's bytes
    when they are the published catalog of the class, else None (no cache,
    no file, an unreadable or a wrong one)."""
    if isinstance(cls, str):
        cls = singularity_class(cls)
    if not cache:
        return cls, None, None
    path = Path(cache_dir or default_cache_dir()) / f"{cls.symbol}-v{ENGINE_VERSION}.json"
    try:
        data = path.read_bytes()
    except OSError:
        return cls, path, None
    return cls, path, data if _is_published(cls.symbol, data) else None


def _computed(cls: SingularityClass, path: Path | None) -> Catalog:
    """The computed catalog of ``cls``, its JSON written atomically to ``path``
    unless that is None.  A write that fails with OSError warns at the line
    that called build_catalog or membership."""
    catalog = _compute_catalog(cls)
    if path is None:
        return catalog
    import tempfile  # with random and shutil, only when a file is written

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(catalog_to_json(catalog))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        import warnings

        warnings.warn(f"cannot write catalog cache {path}: {exc}", RuntimeWarning, stacklevel=3)
    return catalog


def build_catalog(
    cls: SingularityClass | str,
    *,
    cache: bool = True,
    cache_dir: str | os.PathLike | None = None,
) -> Catalog:
    """Compute (or load) the catalog of one class.

    With ``cache=True`` the catalog is read from and written to
    ``cache_dir`` (default: $DYNKINTRANS_CACHE_DIR, else the user cache
    directory).  Writes are atomic; two independent computations serialize
    to byte-identical JSON.  A cache file is served only when its bytes
    are the published catalog (``GOLDEN_DIGESTS``), which each call checks
    anew, also after this process wrote the file; otherwise the catalog is
    recomputed and the file rewritten.  No catalog is kept in memory: each
    call reads the file or computes.  A write that fails with OSError
    issues a RuntimeWarning, and the catalog is returned all the same.
    """
    cls, path, data = _cached(cls, cache, cache_dir)
    return _computed(cls, path) if data is None else catalog_from_json(data.decode())


def clear_memory_cache() -> None:
    """Drop the memo of the witness encoder; no catalog is kept in memory."""
    _joined.cache_clear()


def membership(
    cls: SingularityClass | str,
    g: DynkinGraph,
    *,
    cache: bool = True,
    cache_dir: str | os.PathLike | None = None,
) -> Witness | None:
    """The two-step witness for ``g`` in the class catalog, or None.

    Raises QueryNotADE when ``g`` contains a G2, G1 or BC1 component:
    membership is only defined for graphs with A/D/E components.

    The answer comes from the one entry for ``g`` in a published cache
    file, else from the catalog, recomputed as build_catalog does, which
    rewrites a file that is not published.  Each call reads the file once.
    """
    if not g.is_ade:
        raise QueryNotADE(f"membership is undefined for non-ADE graph {g.name!r}")
    cls, path, data = _cached(cls, cache, cache_dir)
    if data is None:
        member = _computed(cls, path).get(g.name)
        return None if member is None else member.witness
    # Exact on published bytes: sort_keys and indent=2 fix the layout, and
    # only member entries have a "name" key.
    text = data.decode("utf-8")
    i = text.find('"name": "%s",' % g.name)
    if i < 0:
        return None
    entry, _ = json.JSONDecoder().raw_decode(text, text.rfind("{", 0, i))
    return _entry_witness(cls, entry, g, {})
