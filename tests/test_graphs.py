from __future__ import annotations

import copy
import importlib
import pickle
import re
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkintrans.exact import (
    ExtendedGraph,
    LabeledGraph,
    NORM_HALF,
    NORM_LONG,
    NORM_SHORT,
    Vertex,
    check_extension_identity,
    classify,
    extend,
)
from dynkintrans.graphs import (
    A,
    BC1,
    ComponentType,
    D,
    DynkinGraph,
    E,
    EMPTY,
    G1,
    G2,
    NotADynkinGraph,
    ParseError,
    extended_vertex_ids,
    parse_name,
)
from dynkintrans.catalog import CatalogMember, SingularityClass
from dynkintrans.transforms import ElementaryChoice, TieChoice, TransformStep

from lattice import determinant, ldl
from oracles import (
    finite_part,
    gram,
    gram_isomorphic,
    highest_root_coefficients,
    oracle_classify,
    reference,
)
from test_transform_digests import CORE_TYPES

ALL_TYPES = [A(1), A(5), D(4), D(7), E(6), E(7), E(8), G2, G1, BC1]


def textbook_determinant(ct: ComponentType) -> Fraction:
    """The determinant of a component's Gram matrix, long roots of norm 2."""
    if ct.family == "A":
        return Fraction(ct.subscript + 1)
    if ct.family == "D":
        return Fraction(4)
    return {E(6): Fraction(3), E(7): Fraction(2), E(8): Fraction(1),
            G2: Fraction(1, 3), G1: Fraction(2, 3), BC1: Fraction(1, 2)}[ct]


class TestComponentType:
    def test_vertex_counts(self):
        assert A(7).vertex_count == 7
        assert D(4).vertex_count == 4
        assert E(8).vertex_count == 8
        assert G2.vertex_count == 2
        assert G1.vertex_count == 1
        assert BC1.vertex_count == 1

    @pytest.mark.parametrize("family,sub", [("A", 0), ("D", 3), ("D", 2), ("E", 5), ("E", 9), ("G", 3), ("BC", 2), ("BC", 0)])
    def test_unrepresentable(self, family, sub):
        with pytest.raises(ValueError):
            ComponentType(family, sub)

    def test_subscripts_stay_below_the_code_limit(self):
        # type codes are rank * 2**20 + 2**20 - subscript, so a subscript of
        # 2**20 + 4 would give A the code, and the sort position, of D4
        top = A(2**20 - 1)
        assert top.sort_key > D(4).sort_key and top.sort_key > D(2**20 - 1).sort_key
        assert parse_name("D4+A1048575").name == "D4+A1048575"
        for family in ("A", "D"):
            with pytest.raises(ValueError):
                ComponentType(family, 2**20)
        with pytest.raises(ParseError, match="out-of-range component token 'A1048580'"):
            parse_name("D4+A1048580")


_V = Vertex("v", NORM_SHORT)
_TIE = TieChoice((5, 2), (7,))
_STEP = TransformStep(_TIE, parse_name("E7+G2"), parse_name("E8+G2"))
_STEP_REPR = ("TransformStep(choice=TieChoice(a=(2, 5), b=(7,)), "
              "input=DynkinGraph('E7+G2'), output=DynkinGraph('E8+G2'))")
# (instance, its fields by name in order, its repr): the repr of a frozen
# dataclass, except for the two classes that write their own
VALUES = [
    (A(7), {"family": "A", "subscript": 7}, "ComponentType(A7)"),
    (parse_name("A1+E7"), {"components": (E(7), A(1))}, "DynkinGraph('E7+A1')"),
    (_V, {"id": "v", "norm": NORM_SHORT}, "Vertex(id='v', norm=Fraction(2, 3))"),
    (
        LabeledGraph((_V, _V), [(1, 0, -1)]),
        {"vertices": (_V, _V), "edges": ((0, 1, Fraction(-1)),)},
        "LabeledGraph(vertices=(Vertex(id='v', norm=Fraction(2, 3)), "
        "Vertex(id='v', norm=Fraction(2, 3))), edges=((0, 1, Fraction(-1, 1)),))",
    ),
    (
        ExtendedGraph(LabeledGraph((_V,), ()), (1,), ((0,),)),
        {"base": LabeledGraph((_V,), ()), "coefficients": (1,), "components": ((0,),)},
        "ExtendedGraph(base=LabeledGraph(vertices=(Vertex(id='v', norm=Fraction(2, 3)),), "
        "edges=()), coefficients=(1,), components=((0,),))",
    ),
    (ElementaryChoice([3, 1]), {"removed": (1, 3)}, "ElementaryChoice(removed=(1, 3))"),
    (_TIE, {"a": (2, 5), "b": (7,)}, "TieChoice(a=(2, 5), b=(7,))"),
    (
        _STEP,
        {"choice": _TIE, "input": parse_name("E7+G2"), "output": parse_name("E8+G2")},
        _STEP_REPR,
    ),
    (
        SingularityClass("Z13", 13, parse_name("E7+G2")),
        {"symbol": "Z13", "milnor": 13, "basic": parse_name("E7+G2")},
        "SingularityClass(symbol='Z13', milnor=13, basic=DynkinGraph('E7+G2'))",
    ),
    (
        CatalogMember(parse_name("E8+G2"), (_STEP, _STEP)),
        {"graph": parse_name("E8+G2"), "witness": (_STEP, _STEP)},
        f"CatalogMember(graph=DynkinGraph('E8+G2'), witness=({_STEP_REPR}, {_STEP_REPR}))",
    ),
]


@pytest.mark.parametrize("value,fields,text", VALUES, ids=[type(v[0]).__name__ for v in VALUES])
def test_value_classes_behave_as_frozen_dataclasses(value, fields, text):
    cls, values = type(value), tuple(fields.values())
    assert value == cls(*values) == cls(**fields)
    assert hash(value) == hash(values)
    # equality holds only within one class: not with a subclass of equal
    # fields, nor with the field tuple
    other = type(cls.__name__, (cls,), {})(*values)
    assert value != other and other != value and value != values
    assert repr(value) == text
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, values[0])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)
        assert repr(copied) == text


@pytest.mark.parametrize(
    "args,kwargs",
    [
        (("v",), {}),  # a missing field
        ((), {"norm": NORM_SHORT}),  # a missing field, the other by keyword
        (("v", NORM_SHORT, 1), {}),  # an extra positional
        (("v",), {"norm": NORM_SHORT, "size": 1}),  # an unknown keyword
        (("v", NORM_SHORT), {"id": "w"}),  # a field given twice
    ],
)
def test_value_construction_rejects_a_wrong_call(args, kwargs):
    with pytest.raises(TypeError, match=r"Vertex takes the fields \('id', 'norm'\)"):
        Vertex(*args, **kwargs)


def test_catalog_is_the_only_dataclass():
    """Every other value class is a ``graphs._Value``, so only ``_catalog_type``
    loads ``dataclasses``; ``Catalog`` stays one for ``dataclasses.replace``."""
    modules = [importlib.import_module(f"dynkintrans.{name}")
               for name in ("graphs", "exact", "transforms", "catalog", "_catalog_type", "cli")]
    found = [f"{cls.__module__}.{cls.__name__}" for mod in modules for cls in vars(mod).values()
             if isinstance(cls, type) and cls.__module__ == mod.__name__
             and hasattr(cls, "__dataclass_fields__")]
    assert found == ["dynkintrans._catalog_type.Catalog"]
    assert [mod.__name__ for mod in modules if "dataclass" in vars(mod)] == [
        "dynkintrans._catalog_type"]


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(1, 1, -1)], "self-edge"),
        ([(0, 2, -1)], "out of range"),
        ([(-1, 0, -1)], "out of range"),
        ([(0, 1, 0)], "zero inner product"),
        ([(0, 1, -1), (1, 0, -1)], "duplicate edge"),
    ],
)
def test_labeled_graph_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        LabeledGraph((_V, _V), edges)


class TestNaming:
    def test_parse_examples(self):
        assert parse_name("A7+A4") == DynkinGraph((A(7), A(4)))
        assert parse_name("E8+G2") == DynkinGraph((E(8), G2))
        assert parse_name("2A1") == DynkinGraph((A(1), A(1)))
        assert parse_name(" E7 + G2 ") == DynkinGraph((E(7), G2))
        assert parse_name("") == EMPTY

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="D3"):
            parse_name("D3")
        with pytest.raises(ParseError, match="E5"):
            parse_name("E5")
        with pytest.raises(ParseError):
            parse_name("A7++A4")
        with pytest.raises(ParseError):
            parse_name("X9")
        with pytest.raises(ParseError):
            parse_name("A0")
        with pytest.raises(ParseError):
            parse_name("BC2")
        with pytest.raises(ParseError):
            parse_name("0A3")
        # a multiplicity is bounded like a subscript, before the component list is built
        with pytest.raises(ParseError, match=f"out-of-range component token '{2**20}A1'"):
            parse_name(f"{2**20}A1")
        with pytest.raises(ParseError, match="out-of-range"):  # beyond int()'s digit limit
            parse_name("9" * 5000 + "A1")

    def test_canonical_name_order(self):
        assert DynkinGraph((A(4), A(7))).name == "A7+A4"
        assert DynkinGraph((G2, E(8))).name == "E8+G2"
        assert EMPTY.name == ""
        assert parse_name("BC1+G1+G2+A1+D4+E6").name == "E6+D4+A1+G2+G1+BC1"
        assert parse_name("2A3").name == "A3+A3"

    def test_round_trip(self, family12):
        graphs = family12 + [
            parse_name("E8+G2"),
            parse_name("2A3+D4+BC1"),
            parse_name("A2+A2+G1"),
            EMPTY,
        ]
        for g in graphs:
            assert parse_name(g.name) == g
            assert parse_name(str(g)) == g  # the empty graph prints as (empty)

    def test_multiset_equality(self):
        assert DynkinGraph((A(1), A(2))) == DynkinGraph((A(2), A(1)))
        assert parse_name("A1+A2") == parse_name("A2+A1")
        assert parse_name("2A2") != parse_name("A2")
        # built in two orders, one graph is one dict key, and it hashes as
        # parse_name of its name does
        g, h = DynkinGraph((A(1), E(6), A(1))), DynkinGraph((A(1), A(1), E(6)))
        assert {g: 1, h: 2} == {parse_name(g.name): 2}
        assert hash(g) == hash(h) == hash(parse_name(h.name))

    def test_name_of_unsorted_input(self):
        assert DynkinGraph((A(1), E(6))).name == "E6+A1"

    def test_name_is_computed_on_first_read(self):
        g = parse_name("E7+A1")
        assert g._name is None
        assert g == parse_name("A1+E7") and hash(g) == hash(DynkinGraph((A(1), E(7))))
        assert g._name is None
        assert g.name == "E7+A1"
        assert g._name == "E7+A1"

    def test_reading_name_keeps_identity(self):
        fresh, read = parse_name("E6+G2+BC1"), parse_name("E6+G2+BC1")
        assert read.name == "E6+G2+BC1"
        for g in (read, pickle.loads(pickle.dumps(read)), copy.copy(read)):
            assert g == fresh and hash(g) == hash(fresh)
            assert repr(g) == repr(fresh) == "DynkinGraph('E6+G2+BC1')"
            assert g.name == "E6+G2+BC1"
        assert pickle.loads(pickle.dumps(fresh)).name == "E6+G2+BC1"

    def test_is_ade_on_small_graphs(self, family12):
        comps = [g.components[0] for g in family12 if g.total_vertices <= 10]
        graphs = [EMPTY]
        for k in range(1, 5):
            for combo in combinations_with_replacement(comps, k):
                if sum(c.vertex_count for c in combo) <= 10:
                    graphs.append(DynkinGraph(combo[::-1]))
        assert any(g.is_ade for g in graphs) and any(not g.is_ade for g in graphs)
        for g in graphs:
            assert g.is_ade == all(c.family in ("A", "D", "E") for c in g.components), g

    def test_transforms_see_one_graph_whatever_the_input_order(self):
        from dynkintrans.transforms import clear_transform_cache, elementary_all, tie_all

        for enumerate_all in (tie_all, elementary_all):
            clear_transform_cache()
            unsorted = enumerate_all(DynkinGraph((A(1), E(6))))
            assert enumerate_all(parse_name("E6+A1")) == unsorted
            clear_transform_cache()
            assert enumerate_all(parse_name("E6+A1")) == unsorted


class TestRealize:
    """The finite part of ``extend``: its extended graph without the added vertices."""

    def test_a1_single_circle(self):
        lg = finite_part(parse_name("A1"))
        assert lg.n == 1 and lg.edges == () and lg.vertices[0].norm == 2

    def test_g2_shape(self):
        lg = finite_part(DynkinGraph((G2,)))
        gm = gram(lg)
        assert gm == ((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2, 3)))
        # Cartan integers of the long/short pair
        assert 2 * gm[0][1] / gm[0][0] == -1
        assert 2 * gm[0][1] / gm[1][1] == -3

    def test_bc1_shape(self):
        lg = finite_part(DynkinGraph((BC1,)))
        assert gram(lg) == ((NORM_HALF,),)

    def test_a2_gram(self):
        assert gram(finite_part(parse_name("A2"))) == (
            (Fraction(2), Fraction(-1)),
            (Fraction(-1), Fraction(2)),
        )

    def test_component_order_and_vertex_ids(self):
        lg = finite_part(parse_name("A3+A3+G2"))
        ids = [v.id for v in lg.vertices]
        assert ids == [
            "A3[1].v1",
            "A3[1].v2",
            "A3[1].v3",
            "A3[2].v1",
            "A3[2].v2",
            "A3[2].v3",
            "G2[1].long",
            "G2[1].short",
        ]

    def test_gram_positive_definite(self, family12):
        for g in family12 + [parse_name("E8+G2+BC1"), parse_name("D5+A2+G1")]:
            ldl(gram(finite_part(g)))  # raises unless positive definite


class TestDeterminants:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_a_series(self, k):
        assert determinant(gram(finite_part(DynkinGraph((A(k),))))) == k + 1

    @pytest.mark.parametrize("l", range(4, 9))
    def test_d_series(self, l):
        assert determinant(gram(finite_part(DynkinGraph((D(l),))))) == 4

    @pytest.mark.parametrize("n,value", [(6, 3), (7, 2), (8, 1)])
    def test_e_series(self, n, value):
        assert determinant(gram(finite_part(DynkinGraph((E(n),))))) == value

    def test_special_norms(self):
        assert determinant(gram(finite_part(DynkinGraph((BC1,))))) == Fraction(1, 2)
        assert determinant(gram(finite_part(DynkinGraph((G1,))))) == Fraction(2, 3)
        assert determinant(gram(finite_part(DynkinGraph((G2,))))) == Fraction(1, 3)

    @pytest.mark.parametrize("ct", CORE_TYPES, ids=lambda ct: ct.name)
    def test_reference_diagram_is_the_textbook_one_and_the_layout(self, ct):
        # the oracle's diagram has its textbook determinant, and the layout's
        # finite part is the same diagram up to a permutation of its vertices
        ref = reference(ct)
        assert determinant(gram(ref)) == textbook_determinant(ct), ct.name
        assert gram_isomorphic(ref, finite_part(DynkinGraph((ct,)))), ct.name

    def test_against_sympy(self, family12):
        for g in family12:
            gm = gram(finite_part(g))
            expected = sympy.Matrix([[sympy.Rational(x) for x in row] for row in gm]).det()
            assert sympy.Rational(determinant(gm)) == expected


class TestExtend:
    def test_bc1_extension(self):
        ext = extend(DynkinGraph((BC1,)))
        assert ext.coefficients == (2, 1)
        assert ext.base.vertices[0].norm == NORM_HALF and ext.base.vertices[1].norm == NORM_LONG
        assert ext.base.edges == ((0, 1, Fraction(-1)),)

    def test_g1_extension(self):
        ext = extend(DynkinGraph((G1,)))
        assert ext.coefficients == (1, 1)
        assert ext.base.vertices[1].norm == NORM_SHORT
        assert ext.base.edges == ((0, 1, Fraction(-2, 3)),)

    def test_a1_extension(self):
        ext = extend(DynkinGraph((A(1),)))
        assert ext.coefficients == (1, 1)
        assert ext.base.edges == ((0, 1, Fraction(-2)),)

    def test_e8_coefficients(self):
        ext = extend(DynkinGraph((E(8),)))
        assert sorted(ext.coefficients) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
        assert ext.coefficients[-1] == 1  # the added vertex

    def test_g2_extension_attaches_to_long_root(self):
        ext = extend(DynkinGraph((G2,)))
        assert ext.coefficients == (2, 3, 1)
        assert (0, 2, Fraction(-1)) in ext.base.edges
        assert all(not (i == 1 and j == 2) for i, j, _ in ext.base.edges)

    def test_a_cycle(self):
        ext = extend(DynkinGraph((A(3),)))
        # extended A3 is a 4-cycle
        assert len(ext.base.edges) == 4
        assert all(sum(v in (i, j) for i, j, _ in ext.base.edges) == 2 for v in range(4))

    @pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda ct: ct.name)
    def test_added_vertex_realizes_minus_maximal_root(self, ct):
        check_extension_identity(ct)

    @pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda ct: ct.name)
    def test_coefficients_match_reflection_closure(self, ct):
        ext = extend(DynkinGraph((ct,)))
        base = ext.coefficients[: ct.vertex_count]
        assert base == highest_root_coefficients(ct)

    @pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda ct: ct.name)
    def test_added_vertex_edges_match_maximal_root(self, ct):
        # inner products of the added vertex come from -eta directly
        ext = extend(DynkinGraph((ct,)))
        k = ct.vertex_count
        eta = highest_root_coefficients(ct)
        gm = gram(finite_part(DynkinGraph((ct,))))
        ext_gm = gram(ext.base)
        for j in range(k):
            expected = -sum(eta[i] * gm[i][j] for i in range(k))
            assert ext_gm[k][j] == expected
        norm_eta = sum(
            eta[i] * eta[j] * gm[i][j] for i in range(k) for j in range(k)
        )
        assert ext_gm[k][k] == norm_eta

    def test_one_added_vertex_per_component(self):
        ext = extend(parse_name("E7+G2+A2"))
        assert len(ext.components) == 3
        added = [v for v in range(ext.n) if ext.base.vertices[v].id.endswith(".x")]
        assert added == [comp[-1] for comp in ext.components]
        assert all(ext.coefficients[v] == 1 for v in added)

    @pytest.mark.parametrize(
        "g",
        [DynkinGraph((ct,)) for ct in [A(k) for k in range(1, 13)] + [D(l) for l in range(4, 13)]]
        + [DynkinGraph((ct,)) for ct in (E(6), E(7), E(8), G2, G1, BC1)]
        + [parse_name("E8+G2+BC1+G1"), parse_name("2A3+D4"), EMPTY],
        ids=lambda g: g.name or "(empty)",
    )
    def test_vertex_ids_without_extending(self, g):
        assert extended_vertex_ids(g) == [v.id for v in extend(g).base.vertices]

    def test_vertex_ids_name_occurrences_and_roles(self):
        assert extended_vertex_ids(parse_name("A2+A2+G1")) == [
            "A2[1].v1", "A2[1].v2", "A2[1].x",
            "A2[2].v1", "A2[2].v2", "A2[2].x",
            "G1[1].v", "G1[1].x",
        ]

    def test_corrupted_table_is_caught(self, monkeypatch):
        from dynkintrans import graphs as gmod

        broken = dict(gmod._E_PATH_COEFFS)
        broken[8] = (2, 4, 6, 5, 4, 3, 3)
        monkeypatch.setattr(gmod, "_E_PATH_COEFFS", broken)
        with pytest.raises(AssertionError):
            check_extension_identity(E(8))

    def test_extend_checks_each_table_once(self, monkeypatch):
        from dynkintrans import exact
        from dynkintrans import graphs as gmod

        extend(parse_name("E7+A2"))
        checked = []
        real = exact.check_extension_identity
        monkeypatch.setattr(
            exact, "check_extension_identity", lambda ct: checked.append(ct) or real(ct)
        )
        extend(parse_name("E7+2A2"))
        assert checked == []
        # a changed table is a new one: extend checks it, and it fails
        broken = dict(gmod._E_PATH_COEFFS)
        broken[7] = (2, 3, 4, 3, 2, 2)
        monkeypatch.setattr(gmod, "_E_PATH_COEFFS", broken)
        with pytest.raises(AssertionError):
            extend(parse_name("E7+A2"))
        assert checked == [E(7)]

    @pytest.mark.parametrize("name", ["A3000", "D3000"])
    def test_first_extend_of_a_long_component_is_linear(self, name):
        # the coefficient check of a new type walks its layout's edges, with
        # no Gram matrix: quadratic, it took about 35 s for these two
        start = time.monotonic()
        ext = extend(parse_name(name))
        assert time.monotonic() - start < 5
        assert ext.n == 3001 and ext.coefficients[-1] == 1


class TestClassify:
    def test_round_trip(self, family12):
        for g in family12 + [
            parse_name("A7+A4"),
            parse_name("E8+G2+BC1+G1"),
            parse_name("2A3+D4"),
            EMPTY,
        ]:
            assert classify(finite_part(g)) == g

    def test_cycle_rejected(self):
        square = LabeledGraph(
            tuple(Vertex(f"c{i}", NORM_LONG) for i in range(4)),
            ((0, 1, Fraction(-1)), (1, 2, Fraction(-1)), (2, 3, Fraction(-1)), (0, 3, Fraction(-1))),
        )
        with pytest.raises(NotADynkinGraph, match=re.escape("component with 4 edges on 4 vertices")):
            classify(square)

    def test_mixed_components(self):
        lg = LabeledGraph(
            (
                Vertex("p", NORM_LONG),
                Vertex("q", NORM_LONG),
                Vertex("r", NORM_HALF),
            ),
            ((0, 1, Fraction(-1)),),
        )
        assert classify(lg) == parse_name("A2+BC1")

    def test_bad_edge_label_rejected(self):
        lg = LabeledGraph(
            (Vertex("p", NORM_LONG), Vertex("q", NORM_LONG)),
            ((0, 1, Fraction(-2)),),
        )
        with pytest.raises(NotADynkinGraph, match=re.escape("edge label -2 (only -1 allowed)")):
            classify(lg)

    def test_half_norm_in_big_component_rejected(self):
        lg = LabeledGraph(
            (Vertex("p", NORM_LONG), Vertex("q", NORM_HALF)),
            ((0, 1, Fraction(-1)),),
        )
        with pytest.raises(
            NotADynkinGraph, match=re.escape("norm-1/2 vertex in a component of size > 1")
        ):
            classify(lg)

    def test_two_forks_rejected(self):
        edges = [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]
        lg = LabeledGraph(
            tuple(Vertex(f"v{i}", NORM_LONG) for i in range(6)),
            tuple((i, j, Fraction(-1)) for i, j in edges),
        )
        with pytest.raises(NotADynkinGraph, match=re.escape("more than one trivalent vertex")):
            classify(lg)

    def test_affine_leg_pattern_rejected(self):
        # star with legs (2,2,2): the extended E6 shape is not a Dynkin graph
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]
        lg = LabeledGraph(
            tuple(Vertex(f"v{i}", NORM_LONG) for i in range(7)),
            tuple((i, j, Fraction(-1)) for i, j in edges),
        )
        with pytest.raises(
            NotADynkinGraph, match=re.escape("trivalent tree with leg lengths [2, 2, 2]")
        ):
            classify(lg)

    def test_degree_four_rejected(self):
        edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
        lg = LabeledGraph(
            tuple(Vertex(f"v{i}", NORM_LONG) for i in range(5)),
            tuple((i, j, Fraction(-1)) for i, j in edges),
        )
        with pytest.raises(NotADynkinGraph, match=re.escape("vertex of degree > 3")):
            classify(lg)

    @pytest.mark.parametrize(
        "norms, edges, message",
        [
            ((Fraction(1),), (), "vertex of norm 1"),  # isolated vertex of norm 1
            (
                (NORM_LONG, NORM_SHORT, NORM_LONG),
                ((0, 1), (1, 2)),
                "norm-2/3 vertex in a component of size 3 that is not the G2 shape",
            ),  # short root in a path of 3
            (
                (NORM_SHORT, NORM_SHORT),
                ((0, 1),),
                "norm-2/3 vertex in a component of size 2 that is not the G2 shape",
            ),  # two joined short roots
            ((NORM_LONG, Fraction(1)), ((0, 1),), "vertex of norm 1"),  # in a 2-vertex component
        ],
        ids=["isolated-norm-1", "short-in-path-of-3", "two-shorts", "norm-1-in-pair"],
    )
    def test_bad_norm_pattern_rejected(self, norms, edges, message):
        lg = LabeledGraph(
            tuple(Vertex(f"v{i}", n) for i, n in enumerate(norms)),
            tuple((i, j, Fraction(-1)) for i, j in edges),
        )
        with pytest.raises(NotADynkinGraph, match=re.escape(message)):
            classify(lg)

    def test_long_path(self):
        # beyond any component of the nine catalogs, and beyond 1023 vertices
        assert classify(finite_part(parse_name("A1100+D1030"))) == parse_name("A1100+D1030")

    def test_agrees_with_isomorphism_oracle(self, family12):
        for g in family12:
            assert oracle_classify(finite_part(g)) == g

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_rejects_exactly_what_the_oracle_cannot_match(self, data):
        # random labeled graphs of at most 6 vertices, mostly forests of
        # norm-2 vertices and -1 edges: classify raises exactly where the
        # isomorphism oracle finds no reference diagram, and otherwise names
        # the same graph
        n = data.draw(st.integers(0, 6))
        norms = data.draw(st.lists(
            st.sampled_from([NORM_LONG] * 24 + [NORM_SHORT, NORM_HALF, Fraction(1)]),
            min_size=n, max_size=n))
        # a forest, each vertex hung on an earlier one or on none, and up to
        # two more edges, which may close a cycle
        hung = [(data.draw(st.integers(0, i - 1) | st.none()), i) for i in range(1, n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        more = data.draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
        joined = sorted({(i, j) for i, j in hung if i is not None} | set(more))
        values = data.draw(st.lists(st.sampled_from([Fraction(-1)] * 15 + [Fraction(-2)]),
                                    min_size=len(joined), max_size=len(joined)))
        lg = LabeledGraph(tuple(Vertex(f"v{i}", norm) for i, norm in enumerate(norms)),
                          tuple((i, j, val) for (i, j), val in zip(joined, values)))
        try:
            got = classify(lg)
        except NotADynkinGraph:
            got = None
        assert got == oracle_classify(lg)
