"""Dynkin graphs built from the component types A, D, E, G2, G1 and BC1.

Connected components are restricted to the eight shapes that occur in
rational double point configurations on deformations of the nine E/Z/Q
triangle singularities: ``A_k`` (k >= 1), ``D_l`` (l >= 4), ``E6``, ``E7``,
``E8``, the two-vertex ``G2`` graph (one long root of norm 2, one short
root of norm 2/3, joined by a single edge), the one-vertex ``G1`` graph
(short root of norm 2/3) and the one-vertex ``BC1`` graph (non-reduced
root of norm 1/2).  Types B_k, C_k, F4 and BC_l with l >= 2 are
unrepresentable: a root of norm 1 never occurs here.

The recorded steps of a witness, ``TransformStep`` and its two choices, live
here too, as does the layout of each extended component: its norm codes,
edges and coefficients.  ``transforms`` builds the exact labeled graphs
from the layouts.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from operator import attrgetter

# Canonical component order: E > D > A > G2 > G1 > BC1, subscripts descending,
# which is the natural order of the type codes.
_FAMILY_RANK = {"E": 0, "D": 1, "A": 2, "G": 3, "BC": 4}
_SUB_LIMIT = 1 << 20  # subscripts stay below it, so codes stay below 2**30 (small ints)
# The subscripts of each family, as ComponentType accepts them.
_SUBSCRIPTS = {"A": range(1, _SUB_LIMIT), "D": range(4, _SUB_LIMIT),
               "E": (6, 7, 8), "G": (1, 2), "BC": (1,)}


def _code(rank: int, subscript: int) -> int:
    return rank * _SUB_LIMIT + _SUB_LIMIT - subscript


class ParseError(ValueError):
    """A graph name could not be parsed."""


class NotADynkinGraph(ValueError):
    """A labeled graph is not a disjoint union of the eight allowed shapes."""


_set = object.__setattr__  # how an ``__init__`` sets the fields of a frozen value


class _Value:
    """Base of the value classes, which behave as frozen dataclasses: ``_fields``
    are the ``__slots__`` not named with a leading underscore, and equality
    (same class only), hashing, ``repr`` and pickling go by ``_key``, their tuple."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = names = tuple(n for n in cls.__slots__ if n[0] != "_")
        get = attrgetter(*names)
        cls._key = property(get if len(names) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs) -> None:
        """Set the fields by position, then by keyword, as a dataclass does."""
        names = self._fields
        if kwargs or len(args) != len(names):  # else every field is given by position
            given = dict(zip(names, args))
            wrong = [n for n in kwargs if n not in names or n in given]
            given.update(kwargs)
            if len(args) > len(names) or wrong or len(given) != len(names):
                raise TypeError(f"{type(self).__name__} takes the fields {names}, "
                                f"not {len(args)} by position and {list(kwargs)} by keyword")
            args = [given[n] for n in names]
        for name, value in zip(names, args):
            _set(self, name, value)

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class ComponentType(_Value):
    """One connected component type, e.g. A(7), D(4), E(8), G2, G1, BC1."""

    __slots__ = ("family", "subscript")

    def __init__(self, family: str, subscript: int) -> None:
        if subscript not in _SUBSCRIPTS.get(family, ()):
            raise ValueError(f"no Dynkin component of type {family}{subscript}")
        _set(self, "family", family)
        _set(self, "subscript", subscript)

    def __hash__(self):  # written out: every engine memo lookup hashes a type
        return hash((self.family, self.subscript))

    @property
    def vertex_count(self) -> int:
        return self.subscript  # G2 has two vertices, G1 and BC1 one

    @property
    def name(self) -> str:
        return f"{self.family}{self.subscript}"

    @property
    def sort_key(self) -> int:
        return _code(_FAMILY_RANK[self.family], self.subscript)

    def __repr__(self) -> str:
        return f"ComponentType({self.name})"


def A(k: int) -> ComponentType:
    return ComponentType("A", k)


def D(l: int) -> ComponentType:
    return ComponentType("D", l)


def E(n: int) -> ComponentType:
    return ComponentType("E", n)


G2 = ComponentType("G", 2)
G1 = ComponentType("G", 1)
BC1 = ComponentType("BC", 1)


class DynkinGraph(_Value):
    """A finite multiset of components; order never matters.

    Components are kept sorted E > D > A > G2 > G1 > BC1, so the graph is
    A/D/E exactly when its last component is.  The name and the hash are
    functions of the sorted components alone: each is computed on first use
    and kept on the instance; equality, hashing and ``repr`` see only the
    components.
    """

    __slots__ = ("components", "_name", "_hash")

    def __init__(self, components: Iterable[ComponentType] = ()) -> None:
        _set(self, "components", tuple(sorted(components, key=lambda c: c.sort_key)))
        _set(self, "_name", None)
        _set(self, "_hash", None)

    def __hash__(self):  # kept: every engine memo lookup hashes a graph
        h = self._hash
        if h is None:
            h = hash(self._key)
            _set(self, "_hash", h)
        return h

    @property
    def total_vertices(self) -> int:
        return sum(c.vertex_count for c in self.components)

    @property
    def is_ade(self) -> bool:
        comps = self.components
        return not comps or comps[-1].family in ("A", "D", "E")

    @property
    def name(self) -> str:
        name = self._name
        if name is None:
            name = "+".join(c.name for c in self.components)
            _set(self, "_name", name)
        return name

    def __str__(self) -> str:
        return self.name or "(empty)"

    def __repr__(self) -> str:
        return f"DynkinGraph({self.name!r})"


EMPTY = DynkinGraph()

_TOKEN = re.compile(r"(\d+)?(BC|[ADEG])(\d+)")


def parse_name(text: str) -> DynkinGraph:
    """Parse names like ``"A7+A4"``, ``"E8+G2"`` or ``"2A3+BC1"``.

    A component token is an optional multiplicity prefix followed by one of
    A<k>, D<l>, E6, E7, E8, G2, G1, BC1.  Whitespace is ignored; the empty
    string and ``(empty)``, as ``str`` prints it, denote the empty graph.
    """
    s = "".join(text.split())
    if s in ("", str(EMPTY)):
        return EMPTY
    comps: list[ComponentType] = []
    for token in s.split("+"):
        m = _TOKEN.fullmatch(token)
        if m is None:
            raise ParseError(f"malformed component token {token!r} in {text!r}")
        digits = m.group(1) or "1"
        if not digits.strip("0"):
            raise ParseError(f"zero multiplicity in token {token!r}")
        try:
            ct = ComponentType(m.group(2), int(m.group(3)))
            mult = int(digits)
            if mult >= _SUB_LIMIT:  # bounded like a subscript, before the list is built
                raise ValueError(mult)
        except ValueError:
            raise ParseError(f"out-of-range component token {token!r}") from None
        comps.extend([ct] * mult)
    return DynkinGraph(tuple(comps))


class ElementaryChoice(_Value):
    """Vertex indices of the extended graph removed by an elementary step."""

    __slots__ = ("removed",)
    kind = "elementary"

    def __init__(self, removed: Iterable[int]) -> None:
        _set(self, "removed", tuple(sorted(removed)))


class TieChoice(_Value):
    """The sets A (removed) and B (joined to the new vertex) of a tie step."""

    __slots__ = ("a", "b")
    kind = "tie"

    def __init__(self, a: Iterable[int], b: Iterable[int]) -> None:
        _set(self, "a", tuple(sorted(a)))
        _set(self, "b", tuple(sorted(b)))


Choice = ElementaryChoice | TieChoice


class TransformStep(_Value):
    """One recorded transformation: replaying ``choice`` on ``input`` gives ``output``."""

    __slots__ = ("choice", "input", "output")

    @property
    def kind(self) -> str:
        return self.choice.kind

    def replay(self) -> DynkinGraph:
        from .transforms import apply  # the engine loads only for a replay
        return apply(self.input, self.choice)


# The recipe of the extended graph of one component type; its added vertex, role "x", is last.
# ``norms`` are norm codes and ``edges`` are (i, j, inner product), each an int or the
# string of a fraction; ``transforms`` reads both as ``Fraction`` values.
_Layout = namedtuple("_Layout", "norms edges roles coeffs")
_LONG, _HALF, _SHORT = range(3)  # the norm codes of 2, 1/2 and 2/3


# Maximal-root coefficient tables, validated against the -eta Gram identity
# by check_extension_identity (a transcription error cannot survive).
_E_PATH_COEFFS = {6: (1, 2, 3, 2, 1), 7: (2, 3, 4, 3, 2, 1), 8: (2, 4, 6, 5, 4, 3, 2)}
_E_BRANCH_COEFF = {6: 2, 7: 2, 8: 3}
# The index the added vertex attaches to: E6 the branch vertex (5), E7 the
# first path vertex (0), E8 the last path vertex (6).
_E_ADDED_AT = {6: 5, 7: 0, 8: 6}


def _layout(ct: ComponentType) -> _Layout:
    fam, sub = ct.family, ct.subscript
    m1 = -1
    if fam == "A":
        k = sub
        norms = (_LONG,) * (k + 1)
        edges = tuple((i, i + 1, m1) for i in range(k - 1))
        if k == 1:
            edges += ((0, 1, -2),)
        else:  # the added vertex k closes the path v1..vk into a cycle
            edges += ((0, k, m1), (k - 1, k, m1))
        roles = tuple(f"v{i + 1}" for i in range(k)) + ("x",)
        coeffs = (1,) * (k + 1)
        return _Layout(norms, edges, roles, coeffs)
    if fam == "D":
        l = sub
        # Path v1..v_{l-2}, the fork vertices f1, f2 on v_{l-2}; the added
        # vertex attaches to v2, so the extended graph is forked at both ends.
        norms = (_LONG,) * (l + 1)
        edges = tuple((i, i + 1, m1) for i in range(l - 3))
        edges += ((l - 3, l - 2, m1), (l - 3, l - 1, m1), (1, l, m1))
        roles = tuple(f"v{i + 1}" for i in range(l - 2)) + ("f1", "f2", "x")
        coeffs = (1,) + (2,) * (l - 3) + (1, 1, 1)
        return _Layout(norms, edges, roles, coeffs)
    if fam == "E":
        n = sub
        path = n - 1
        norms = (_LONG,) * (n + 1)
        edges = tuple((i, i + 1, m1) for i in range(path - 1))
        # the branch vertex hangs on the third path vertex
        edges += ((2, path, m1), (_E_ADDED_AT[n], n, m1))
        roles = tuple(f"v{i + 1}" for i in range(path)) + ("b", "x")
        coeffs = _E_PATH_COEFFS[n] + (_E_BRANCH_COEFF[n], 1)
        return _Layout(norms, edges, roles, coeffs)
    if fam == "G" and sub == 2:
        # One long and one short root at 150 degrees: inner product -1.
        return _Layout((_LONG, _SHORT, _LONG), ((0, 1, m1), (0, 2, m1)),
                       ("long", "short", "x"), (2, 3, 1))
    if fam == "G" and sub == 1:
        return _Layout((_SHORT,) * 2, ((0, 1, "-2/3"),), ("v", "x"), (1, 1))
    # BC1: the maximal root is twice the basis root, so the added vertex is
    # an ordinary norm-2 circle and the basis root carries coefficient 2.
    return _Layout((_HALF, _LONG), ((0, 1, m1),), ("v", "x"), (2, 1))


def _named_layouts(g: DynkinGraph) -> Iterator[tuple[ComponentType, _Layout, list[str]]]:
    """Type, layout and extended vertex ids of each component, in order.

    The ids are ``<type>[<occurrence>].<role>`` in layout order, so the
    added vertex, which comes last, is ``.x``.
    """
    counts: dict[ComponentType, int] = {}
    for ct in g.components:
        counts[ct] = k = counts.get(ct, 0) + 1
        lay, prefix = _layout(ct), f"{ct.name}[{k}]"
        yield ct, lay, [f"{prefix}.{role}" for role in lay.roles]


def extended_vertex_ids(g: DynkinGraph) -> list[str]:
    """The vertex ids of ``extend(g)``, in its vertex order, without building it."""
    return [vid for _, _, ids in _named_layouts(g) for vid in ids]


def __getattr__(name: str):  # PEP 562: the labeled-graph names that perfbench/certify.py reads here
    if name in ("extend", "Vertex", "LabeledGraph", "NORM_LONG", "ORDINARY_EDGE"):
        from . import transforms
        return getattr(transforms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
