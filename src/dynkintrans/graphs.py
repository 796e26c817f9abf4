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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

NORM_LONG = Fraction(2)
NORM_HALF = Fraction(1, 2)
NORM_SHORT = Fraction(2, 3)

ORDINARY_EDGE = Fraction(-1)

# Canonical component order: E > D > A > G2 > G1 > BC1, subscripts descending,
# which is the natural order of the type codes.
_FAMILY_RANK = {"E": 0, "D": 1, "A": 2, "G": 3, "BC": 4}
_SUB_LIMIT = 1 << 20  # subscripts stay below it, so codes stay below 2**30 (small ints)


def _code(rank: int, subscript: int) -> int:
    return rank * _SUB_LIMIT + _SUB_LIMIT - subscript


class ParseError(ValueError):
    """A graph name could not be parsed."""


class NotADynkinGraph(ValueError):
    """A labeled graph is not a disjoint union of the eight allowed shapes."""


@dataclass(frozen=True)
class ComponentType:
    """One connected component type, e.g. A(7), D(4), E(8), G2, G1, BC1."""

    family: str
    subscript: int

    def __post_init__(self) -> None:
        fam, sub = self.family, self.subscript
        ok = (
            (fam == "A" and sub >= 1)
            or (fam == "D" and sub >= 4)
            or (fam == "E" and sub in (6, 7, 8))
            or (fam == "G" and sub in (1, 2))
            or (fam == "BC" and sub == 1)
        )
        if not ok:
            raise ValueError(f"no Dynkin component of type {fam}{sub}")

    @property
    def vertex_count(self) -> int:
        if self.family in ("A", "D", "E"):
            return self.subscript
        if self.family == "G" and self.subscript == 2:
            return 2
        return 1  # G1 and BC1

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


@dataclass(frozen=True, slots=True)
class DynkinGraph:
    """A finite multiset of components; order never matters.

    Components are kept sorted E > D > A > G2 > G1 > BC1, so the graph is
    A/D/E exactly when its last component is.  The name is a function of
    the sorted components alone: it is built on first read and kept on the
    instance; equality, hashing and ``repr`` see only the components.
    """

    components: tuple[ComponentType, ...] = ()
    _name: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        comps = tuple(sorted(self.components, key=lambda c: c.sort_key))
        object.__setattr__(self, "components", comps)

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
            object.__setattr__(self, "_name", name)
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
    string denotes the empty graph.
    """
    s = "".join(text.split())
    if not s:
        return EMPTY
    comps: list[ComponentType] = []
    for token in s.split("+"):
        m = _TOKEN.fullmatch(token)
        if m is None:
            raise ParseError(f"malformed component token {token!r} in {text!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        if mult < 1:
            raise ParseError(f"zero multiplicity in token {token!r}")
        try:
            ct = ComponentType(m.group(2), int(m.group(3)))
        except ValueError:
            raise ParseError(f"out-of-range component token {token!r}") from None
        comps.extend([ct] * mult)
    return DynkinGraph(tuple(comps))


def canonical_name(g: DynkinGraph) -> str:
    """Deterministic name: components sorted E>D>A>G2>G1>BC1, subscripts descending."""
    return g.name


@dataclass(frozen=True)
class Vertex:
    """A vertex with an opaque id and an exact norm (2, 1/2 or 2/3)."""

    id: str
    norm: Fraction


@dataclass(frozen=True)
class LabeledGraph:
    """Vertices with norms plus edges labeled by nonzero inner products.

    Edges are stored as ``(i, j, value)`` with ``i < j``; an absent pair
    means inner product 0.  The Gram matrix (diagonal = norms,
    off-diagonal = edge labels) is symmetric by construction.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        seen = set()
        norm: list[tuple[int, int, Fraction]] = []
        for i, j, val in self.edges:
            if i == j:
                raise ValueError(f"self-edge at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if val == 0:
                raise ValueError(f"zero inner product stored for edge ({i},{j})")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            norm.append((i, j, Fraction(val)))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def norm(self, i: int) -> Fraction:
        return self.vertices[i].norm

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


@dataclass(frozen=True)
class ExtendedGraph:
    """A labeled graph with one added vertex per component and root coefficients.

    ``coefficients[i]`` is the coefficient of vertex ``i`` in the maximal
    root of its component; every added vertex, which stands for the
    negative of the maximal root, carries coefficient 1.  ``components``
    lists the vertex indices of each connected component in the documented
    deterministic ordering used by all transformation witnesses; the last
    index of each is its added vertex.
    """

    base: LabeledGraph
    coefficients: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.base.n


@dataclass(frozen=True)
class _Layout:
    """Per-type recipe: base vertices/edges plus the extension data."""

    norms: tuple[Fraction, ...]
    edges: tuple[tuple[int, int, Fraction], ...]
    roles: tuple[str, ...]
    coeffs: tuple[int, ...]
    added_norm: Fraction
    added_edges: tuple[tuple[int, Fraction], ...]


# Maximal-root coefficient tables, validated against the -eta Gram identity
# by check_extension_identity (a transcription error cannot survive).
_E_PATH_COEFFS = {6: (1, 2, 3, 2, 1), 7: (2, 3, 4, 3, 2, 1), 8: (2, 4, 6, 5, 4, 3, 2)}
_E_BRANCH_COEFF = {6: 2, 7: 2, 8: 3}
# Added vertex attaches to: E6 the branch vertex, E7 the first path vertex,
# E8 the last path vertex.
_E_ADDED_AT = {6: "branch", 7: "first", 8: "last"}


def _layout(ct: ComponentType) -> _Layout:
    fam, sub = ct.family, ct.subscript
    m1 = ORDINARY_EDGE
    if fam == "A":
        k = sub
        norms = (NORM_LONG,) * k
        edges = tuple((i, i + 1, m1) for i in range(k - 1))
        roles = tuple(f"v{i + 1}" for i in range(k))
        coeffs = (1,) * k
        if k == 1:
            added_edges = ((0, Fraction(-2)),)
        else:
            added_edges = ((0, m1), (k - 1, m1))
        return _Layout(norms, edges, roles, coeffs, NORM_LONG, added_edges)
    if fam == "D":
        l = sub
        # Path v1..v_{l-2}, the fork vertices f1, f2 on v_{l-2}; the added
        # vertex attaches to v2, so the extended graph is forked at both ends.
        norms = (NORM_LONG,) * l
        edges = tuple((i, i + 1, m1) for i in range(l - 3))
        edges += ((l - 3, l - 2, m1), (l - 3, l - 1, m1))
        roles = tuple(f"v{i + 1}" for i in range(l - 2)) + ("f1", "f2")
        coeffs = (1,) + (2,) * (l - 3) + (1, 1)
        return _Layout(norms, edges, roles, coeffs, NORM_LONG, ((1, m1),))
    if fam == "E":
        n = sub
        path = n - 1
        norms = (NORM_LONG,) * n
        edges = tuple((i, i + 1, m1) for i in range(path - 1))
        edges += ((2, path, m1),)  # branch vertex hangs on the third path vertex
        roles = tuple(f"v{i + 1}" for i in range(path)) + ("b",)
        coeffs = _E_PATH_COEFFS[n] + (_E_BRANCH_COEFF[n],)
        at = {"branch": path, "first": 0, "last": path - 1}[_E_ADDED_AT[n]]
        return _Layout(norms, edges, roles, coeffs, NORM_LONG, ((at, m1),))
    if fam == "G" and sub == 2:
        # One long and one short root at 150 degrees: inner product -1.
        return _Layout(
            (NORM_LONG, NORM_SHORT),
            ((0, 1, m1),),
            ("long", "short"),
            (2, 3),
            NORM_LONG,
            ((0, m1),),
        )
    if fam == "G" and sub == 1:
        return _Layout(
            (NORM_SHORT,), (), ("v",), (1,), NORM_SHORT, ((0, Fraction(-2, 3)),)
        )
    # BC1: the maximal root is twice the basis root, so the added vertex is
    # an ordinary norm-2 circle and the basis root carries coefficient 2.
    return _Layout((NORM_HALF,), (), ("v",), (2,), NORM_LONG, ((0, m1),))


def _occurrence_labels(g: DynkinGraph) -> list[str]:
    counts: dict[str, int] = {}
    labels = []
    for ct in g.components:
        counts[ct.name] = counts.get(ct.name, 0) + 1
        labels.append(f"{ct.name}[{counts[ct.name]}]")
    return labels


def _named_layouts(g: DynkinGraph) -> Iterator[tuple[ComponentType, _Layout, list[str]]]:
    """Type, layout and extended vertex ids of each component, in order.

    The ids are ``<type>[<occurrence>].<role>`` for the base vertices in
    layout order, then ``.x`` for the added vertex.
    """
    for ct, prefix in zip(g.components, _occurrence_labels(g)):
        lay = _layout(ct)
        yield ct, lay, [f"{prefix}.{role}" for role in lay.roles] + [f"{prefix}.x"]


def extended_vertex_ids(g: DynkinGraph) -> list[str]:
    """The vertex ids of ``extend(g)``, in its vertex order, without building it."""
    return [vid for _, _, ids in _named_layouts(g) for vid in ids]


def realize(g: DynkinGraph) -> LabeledGraph:
    """The standard labeled graph of ``g`` in the documented vertex order.

    Components appear in canonical order; within a component the vertices
    follow the layout order (path vertices, then fork/branch vertices).
    It is ``extend(g)`` without its added vertices.
    """
    ext = _extend(g)
    return ext.base.induced(v for comp in ext.components for v in comp[:-1])


# (component type, coefficient table) pairs that passed the identity check.
_VALIDATED: set[tuple[ComponentType, tuple[int, ...]]] = set()


def extend(g: DynkinGraph) -> ExtendedGraph:
    """Replace each component by its extended graph and attach coefficients.

    Per component one vertex standing for the negative of the maximal root
    is appended after the base vertices (role ``x``, coefficient 1); the
    base vertices carry the coefficients of the maximal root.  Each
    coefficient table is checked by check_extension_identity the first time
    it is used for its component type.
    """
    ext = _extend(g)
    for ct, comp in zip(g.components, ext.components):
        _check_once(ct, ext.coefficients[comp[0] : comp[-1]])
    return ext


def _check_once(ct: ComponentType, coeffs: tuple[int, ...]) -> None:
    """check_extension_identity(ct), once per (type, coefficient table) pair."""
    if (ct, coeffs) not in _VALIDATED:
        check_extension_identity(ct)
        _VALIDATED.add((ct, coeffs))


def _extend(g: DynkinGraph) -> ExtendedGraph:
    verts: list[Vertex] = []
    edges: list[tuple[int, int, Fraction]] = []
    coeffs: list[int] = []
    comps: list[tuple[int, ...]] = []
    offset = 0
    for ct, lay, ids in _named_layouts(g):
        k = ct.vertex_count
        verts.extend(map(Vertex, ids, lay.norms + (lay.added_norm,)))
        edges.extend((offset + i, offset + j, val) for i, j, val in lay.edges)
        edges.extend((offset + i, offset + k, val) for i, val in lay.added_edges)
        coeffs.extend(lay.coeffs)
        coeffs.append(1)
        comps.append(tuple(range(offset, offset + k + 1)))
        offset += k + 1
    return ExtendedGraph(
        base=LabeledGraph(tuple(verts), tuple(edges)),
        coefficients=tuple(coeffs),
        components=tuple(comps),
    )


def check_extension_identity(ct: ComponentType) -> None:
    """Raise AssertionError unless row(x) == -sum(n_i * row(i)) holds on the
    Gram matrix of the extended component ``ct`` (x its added vertex)."""
    ext = _extend(DynkinGraph((ct,)))
    gm = gram(ext.base)
    x = ext.n - 1
    for j in range(ext.n):
        acc = sum((ext.coefficients[i] * gm[i][j] for i in range(x)), Fraction(0))
        if gm[x][j] != -acc:
            raise AssertionError(f"maximal-root coefficient table broken for {ct.name}")


def gram(lg: LabeledGraph) -> tuple[tuple[Fraction, ...], ...]:
    """The symmetric Gram matrix of a labeled graph in its vertex order."""
    n = lg.n
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = lg.norm(i)
    for i, j, val in lg.edges:
        m[i][j] = val
        m[j][i] = val
    return tuple(tuple(row) for row in m)


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

_DECODE_MEMO: dict[int, ComponentType] = {}


def _decode(code: int) -> ComponentType:
    ct = _DECODE_MEMO.get(code)
    if ct is None:
        rank, low = divmod(code, _SUB_LIMIT)
        ct = _DECODE_MEMO[code] = ComponentType(_FAMILY_BY_RANK[rank], _SUB_LIMIT - low)
    return ct


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
