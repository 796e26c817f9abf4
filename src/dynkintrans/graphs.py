"""Dynkin graphs built from the component types A, D, E, G2, G1 and BC1.

Connected components are restricted to the eight shapes that occur in
rational double point configurations on deformations of the nine E/Z/Q
triangle singularities: ``A_k`` (k >= 1), ``D_l`` (l >= 4), ``E6``, ``E7``,
``E8``, the two-vertex ``G2`` graph (one long root of norm 2, one short
root of norm 2/3, joined by a single edge), the one-vertex ``G1`` graph
(short root of norm 2/3) and the one-vertex ``BC1`` graph (non-reduced
root of norm 1/2).

Vertices carry exact rational norms and edges carry exact rational inner
products: -1 for every ordinary edge, -2 for the doubled edge of the
extended A1 graph, -2/3 for the doubled edge of the extended G1 graph.
Types B_k, C_k, F4 and BC_l with l >= 2 are unrepresentable: a root of
norm 1 never occurs here.

The recorded steps of a witness, ``TransformStep`` and its two choices, live here too.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cache
from operator import attrgetter

NORM_LONG = Fraction(2)
NORM_HALF = Fraction(1, 2)
NORM_SHORT = Fraction(2, 3)

ORDINARY_EDGE = Fraction(-1)

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


class Vertex(_Value):
    """A vertex with an opaque id and an exact norm (2, 1/2 or 2/3)."""

    __slots__ = ("id", "norm")


class LabeledGraph(_Value):
    """Vertices with norms plus edges labeled by nonzero inner products.

    Edges are stored as ``(i, j, value)`` with ``i < j``; an absent pair
    means inner product 0.  The Gram matrix (diagonal = norms,
    off-diagonal = edge labels) is symmetric by construction.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple[Vertex, ...], edges: Iterable[tuple]) -> None:
        n = len(vertices)
        labels: dict[tuple[int, int], Fraction] = {}
        for i, j, val in edges:
            if i == j:
                raise ValueError(f"self-edge at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if val == 0:
                raise ValueError(f"zero inner product stored for edge ({i},{j})")
            if i > j:
                i, j = j, i
            if (i, j) in labels:
                raise ValueError(f"duplicate edge ({i},{j})")
            labels[i, j] = Fraction(val)
        _set(self, "vertices", vertices)
        _set(self, "edges", tuple((i, j, val) for (i, j), val in sorted(labels.items())))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def induced(self, indices: Iterable[int]) -> "LabeledGraph":
        """The induced subgraph on the given vertex indices."""
        idx = sorted(set(indices))
        pos = {v: k for k, v in enumerate(idx)}
        verts = tuple(self.vertices[v] for v in idx)
        edges = tuple(
            (pos[i], pos[j], val)
            for i, j, val in self.edges
            if i in pos and j in pos
        )
        return LabeledGraph(verts, edges)


class ExtendedGraph(_Value):
    """A labeled graph with one added vertex per component and root coefficients.

    ``coefficients[i]`` is the coefficient of vertex ``i`` in the maximal
    root of its component; every added vertex, which stands for the
    negative of the maximal root, carries coefficient 1.  ``components``
    lists the vertex indices of each connected component in the documented
    deterministic ordering used by all transformation witnesses; the last
    index of each is its added vertex.
    """

    __slots__ = ("base", "coefficients", "components")

    @property
    def n(self) -> int:
        return self.base.n


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
_Layout = namedtuple("_Layout", "norms edges roles coeffs")


# Maximal-root coefficient tables, validated against the -eta Gram identity
# by check_extension_identity (a transcription error cannot survive).
_E_PATH_COEFFS = {6: (1, 2, 3, 2, 1), 7: (2, 3, 4, 3, 2, 1), 8: (2, 4, 6, 5, 4, 3, 2)}
_E_BRANCH_COEFF = {6: 2, 7: 2, 8: 3}
# The index the added vertex attaches to: E6 the branch vertex (5), E7 the
# first path vertex (0), E8 the last path vertex (6).
_E_ADDED_AT = {6: 5, 7: 0, 8: 6}


def _layout(ct: ComponentType) -> _Layout:
    fam, sub = ct.family, ct.subscript
    m1 = ORDINARY_EDGE
    if fam == "A":
        k = sub
        norms = (NORM_LONG,) * (k + 1)
        edges = tuple((i, i + 1, m1) for i in range(k - 1))
        if k == 1:
            edges += ((0, 1, Fraction(-2)),)
        else:  # the added vertex k closes the path v1..vk into a cycle
            edges += ((0, k, m1), (k - 1, k, m1))
        roles = tuple(f"v{i + 1}" for i in range(k)) + ("x",)
        coeffs = (1,) * (k + 1)
        return _Layout(norms, edges, roles, coeffs)
    if fam == "D":
        l = sub
        # Path v1..v_{l-2}, the fork vertices f1, f2 on v_{l-2}; the added
        # vertex attaches to v2, so the extended graph is forked at both ends.
        norms = (NORM_LONG,) * (l + 1)
        edges = tuple((i, i + 1, m1) for i in range(l - 3))
        edges += ((l - 3, l - 2, m1), (l - 3, l - 1, m1), (1, l, m1))
        roles = tuple(f"v{i + 1}" for i in range(l - 2)) + ("f1", "f2", "x")
        coeffs = (1,) + (2,) * (l - 3) + (1, 1, 1)
        return _Layout(norms, edges, roles, coeffs)
    if fam == "E":
        n = sub
        path = n - 1
        norms = (NORM_LONG,) * (n + 1)
        edges = tuple((i, i + 1, m1) for i in range(path - 1))
        # the branch vertex hangs on the third path vertex
        edges += ((2, path, m1), (_E_ADDED_AT[n], n, m1))
        roles = tuple(f"v{i + 1}" for i in range(path)) + ("b", "x")
        coeffs = _E_PATH_COEFFS[n] + (_E_BRANCH_COEFF[n], 1)
        return _Layout(norms, edges, roles, coeffs)
    if fam == "G" and sub == 2:
        # One long and one short root at 150 degrees: inner product -1.
        return _Layout((NORM_LONG, NORM_SHORT, NORM_LONG), ((0, 1, m1), (0, 2, m1)),
                       ("long", "short", "x"), (2, 3, 1))
    if fam == "G" and sub == 1:
        return _Layout((NORM_SHORT,) * 2, ((0, 1, Fraction(-2, 3)),), ("v", "x"), (1, 1))
    # BC1: the maximal root is twice the basis root, so the added vertex is
    # an ordinary norm-2 circle and the basis root carries coefficient 2.
    return _Layout((NORM_HALF, NORM_LONG), ((0, 1, m1),), ("v", "x"), (2, 1))


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


def extend(g: DynkinGraph) -> ExtendedGraph:
    """Replace each component by its extended graph and attach coefficients.

    Per component one vertex standing for the negative of the maximal root
    is appended after the base vertices (role ``x``, coefficient 1); the
    base vertices carry the coefficients of the maximal root.  Each
    coefficient table is checked by check_extension_identity the first time
    it is used for its component type.
    """
    verts: list[Vertex] = []
    edges: list[tuple[int, int, Fraction]] = []
    coeffs: list[int] = []
    comps: list[tuple[int, ...]] = []
    offset = 0
    for ct, lay, ids in _named_layouts(g):
        _check_once(ct, lay.coeffs)
        verts.extend(map(Vertex, ids, lay.norms))
        edges.extend((offset + i, offset + j, val) for i, j, val in lay.edges)
        coeffs.extend(lay.coeffs)
        comps.append(tuple(range(offset, offset + len(ids))))
        offset += len(ids)
    return ExtendedGraph(
        base=LabeledGraph(tuple(verts), tuple(edges)),
        coefficients=tuple(coeffs),
        components=tuple(comps),
    )


@cache  # a pair that fails raises, so only pairs that passed are kept
def _check_once(ct: ComponentType, coeffs: tuple[int, ...]) -> None:
    """check_extension_identity(ct), once per (type, coefficient table) pair."""
    check_extension_identity(ct)


def check_extension_identity(ct: ComponentType) -> None:
    """Raise AssertionError unless sum_i n_i (i, j) == 0 for each vertex j of the extended
    component ``ct``, summed over its layout's edges, with n_x = 1 for the added vertex x."""
    lay = _layout(ct)
    n = lay.coeffs[:-1] + (1,)
    acc = [c * norm for c, norm in zip(n, lay.norms)]
    for i, j, val in lay.edges:
        acc[i], acc[j] = acc[i] + n[j] * val, acc[j] + n[i] * val
    if any(acc):
        raise AssertionError(f"maximal-root coefficient table broken for {ct.name}")


# ---------------------------------------------------------------------------
# Shape recognition.
#
# One recognizer names every piece, for ``classify`` and for the enumeration
# engine in ``transforms``.  It works on masks: ``adj[v]`` is the neighbour
# mask of vertex v, ``norm[v]`` its norm code, and a piece is the mask of one
# connected vertex set.  Component types are integer codes whose natural
# order is the canonical component order (family rank ascending, subscript
# descending); ``transforms`` keys a multiset of them as a product of primes.
# ---------------------------------------------------------------------------

_NORM_CODE = {NORM_LONG: 0, NORM_HALF: 1, NORM_SHORT: 2}

_FAMILY_BY_RANK = {rank: fam for fam, rank in _FAMILY_RANK.items()}
_RANK_D, _RANK_A = _FAMILY_RANK["D"], _FAMILY_RANK["A"]

_CODE_A1 = _code(_RANK_A, 1)
_CODE_G2 = _code(_FAMILY_RANK["G"], 2)
_CODE_G1 = _code(_FAMILY_RANK["G"], 1)
_CODE_BC1 = _code(_FAMILY_RANK["BC"], 1)
_SINGLE_CODES = (_CODE_A1, _CODE_BC1, _CODE_G1)  # one vertex, by norm code
_E_CODES = {(1, 2, n - 4): _code(_FAMILY_RANK["E"], n) for n in (6, 7, 8)}


@cache
def _decode(code: int) -> ComponentType:
    rank, low = divmod(code, _SUB_LIMIT)
    return ComponentType(_FAMILY_BY_RANK[rank], _SUB_LIMIT - low)


def _legs_code(l1: int, l2: int, l3: int) -> int | None:
    """Type code of a one-fork tree with sorted leg lengths l1 <= l2 <= l3:
    (1, 1, l) is D(l+3), (1, 2, 2..4) is E6..E8, anything else is None."""
    if l1 == 1 and l2 == 1:
        return _code(_RANK_D, l3 + 3)
    return _E_CODES.get((l1, l2, l3))


def _bits(mask: int) -> list[int]:
    """The vertices of a mask in ascending order."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


def _pieces(adj: list[int], mask: int) -> list[int]:
    """The connected pieces of ``mask``, in order of their lowest vertex."""
    pieces = []
    while mask:
        piece = frontier = mask & -mask  # grown from the lowest vertex left
        while frontier:
            grow = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                grow |= adj[b.bit_length() - 1]
            frontier = grow & mask & ~piece
            piece |= frontier
        pieces.append(piece)
        mask ^= piece
    return pieces


def _walk(adj: list[int], piece: int, prev: int, cur: int) -> list[int]:
    """Vertices from ``cur`` onward, away from ``prev``, to the end of a
    stretch of vertices of degree at most 2."""
    out = [cur]
    seen = (1 << prev) | (1 << cur)
    nxt = adj[cur] & piece & ~seen
    while nxt:
        cur = nxt.bit_length() - 1
        out.append(cur)
        seen |= nxt
        nxt = adj[cur] & piece & ~seen
    return out


def _mask_view(norms: Iterable[Fraction], edges: Iterable[tuple]) -> tuple[list[int], list[int]]:
    """Neighbour mask and norm code of every vertex, from its norm and the (i, j, value) edges."""
    norm = []
    for x in norms:
        code = _NORM_CODE.get(x)
        if code is None:
            raise NotADynkinGraph(f"vertex of norm {x}")
        norm.append(code)
    adj = [0] * len(norm)
    for i, j, _val in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj, norm


def _recognize(adj: list[int], norm: list[int], piece: int) -> tuple[int, list[list[int]]]:
    """Type code and legs of one connected piece, or NotADynkinGraph.

    The legs of a fork-free piece are its one path, from the end with the
    smaller index; a forked piece has three, each read outward from the
    fork (fork excluded), in ascending order of their first vertex.
    """
    verts = _bits(piece)
    size = len(verts)
    if size == 1:
        return _SINGLE_CODES[norm[verts[0]]], [verts]
    odd = [norm[v] for v in verts if norm[v]]
    if odd:
        if 1 in odd:  # the norm code of 1/2
            raise NotADynkinGraph("norm-1/2 vertex in a component of size > 1")
        if size == 2 and len(odd) == 1:
            return _CODE_G2, [verts]
        raise NotADynkinGraph(
            f"norm-2/3 vertex in a component of size {size} that is not the G2 shape"
        )
    degs = [(adj[v] & piece).bit_count() for v in verts]
    nedges = sum(degs) // 2
    if nedges != size - 1:
        raise NotADynkinGraph(f"component with {nedges} edges on {size} vertices")
    if max(degs) > 3:
        raise NotADynkinGraph("vertex of degree > 3")
    forks = [v for v, d in zip(verts, degs) if d == 3]
    if not forks:
        end = verts[degs.index(1)]
        return _code(_RANK_A, size), [_walk(adj, piece, end, end)]
    if len(forks) > 1:
        raise NotADynkinGraph("more than one trivalent vertex")
    fork = forks[0]
    legs = [_walk(adj, piece, fork, first) for first in _bits(adj[fork] & piece)]
    lengths = sorted(len(leg) for leg in legs)
    code = _legs_code(*lengths)
    if code is None:
        raise NotADynkinGraph(f"trivalent tree with leg lengths {lengths}")
    return code, legs


def classify(lg: LabeledGraph) -> DynkinGraph:
    """Recognize a labeled graph as a Dynkin graph, or raise NotADynkinGraph.

    Every edge must be an ordinary -1 edge and every norm one of 2, 1/2 and
    2/3; each connected piece is then named by the shape recognizer shared
    with the enumeration engine (norm census, degrees, fork and legs).
    """
    for _i, _j, val in lg.edges:
        if val != ORDINARY_EDGE:
            raise NotADynkinGraph(f"edge label {val} (only -1 allowed)")
    adj, norm = _mask_view((v.norm for v in lg.vertices), lg.edges)
    pieces = _pieces(adj, (1 << lg.n) - 1)
    return DynkinGraph(tuple(_decode(_recognize(adj, norm, p)[0]) for p in pieces))
