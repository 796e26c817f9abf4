from __future__ import annotations

import itertools
import tracemalloc
from math import prod

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dynkintrans.exact import _pieces, _recognize, extend
from dynkintrans.graphs import (
    A,
    BC1,
    D,
    DynkinGraph,
    E,
    EMPTY,
    G1,
    G2,
    NotADynkinGraph,
    parse_name,
)
from dynkintrans import transforms
from dynkintrans.catalog import SINGULARITY_CLASSES
from dynkintrans.transforms import (
    ElementaryChoice,
    GraphTooLarge,
    InvalidChoice,
    TieChoice,
    _chain,
    _CompCore,
    _decode_graph,
    _lex_masks,
    _prime,
    _reach,
    _winners,
    apply,
    apply_labeled,
    clear_transform_cache,
    elementary_all,
    tie_all,
)

from oracles import (
    finite_part,
    gram_isomorphic,
    literal_tie_table,
    naive_elementary_all,
    naive_elementary_witnesses,
    naive_tie_all,
    naive_tie_witnesses,
    oracle_classify,
)
from test_transform_digests import CORE_TYPES


def names(results) -> set[str]:
    return {out.name for out, _ in results}


class TestElementaryExamples:
    def test_worked_example(self):
        assert "D8+A2" in names(elementary_all(parse_name("E8+G2")))

    def test_identity_by_removing_added_vertices(self, family12):
        for g in family12 + [parse_name("E8+G2"), parse_name("A2+A2+BC1")]:
            assert g.name in names(elementary_all(g))
            ext = extend(g)
            added = tuple(comp[-1] for comp in ext.components)
            assert apply(g, ElementaryChoice(added)) == g

    def test_a1_outputs(self):
        assert names(elementary_all(parse_name("A1"))) == {"A1", ""}

    def test_empty_graph(self):
        assert names(elementary_all(EMPTY)) == {""}

    def test_full_removal_gives_empty(self):
        g = parse_name("E6+BC1")
        ext = extend(g)
        assert apply(g, ElementaryChoice(tuple(range(ext.n)))) == EMPTY


class TestTieExamples:
    def test_worked_example_first_step(self):
        assert "E8+G2" in names(tie_all(parse_name("E7+G2")))

    def test_worked_example_second_step(self):
        assert "A7+A4" in names(tie_all(parse_name("E8+G2")))

    def test_gcd_filter_per_component(self):
        # removing only the branch vertex of extended E7 (coefficient 2)
        # with no B-support on that component violates the gcd condition
        g = parse_name("E7")
        ext = extend(g)
        branch = next(
            i for i, v in enumerate(ext.base.vertices) if v.id.endswith(".b")
        )
        with pytest.raises(InvalidChoice, match="gcd"):
            apply(g, TieChoice((branch,), ()))
        # with an odd-coefficient B-vertex the same removal is admissible
        end = next(
            i for i, v in enumerate(ext.base.vertices) if v.id.endswith(".v6")
        )
        assert ext.coefficients[end] == 1
        assert apply(g, TieChoice((branch,), (end,))) == parse_name("A8")

    def test_bc1_outputs(self):
        outs = dict((out.name, choice) for out, choice in tie_all(parse_name("BC1")))
        assert set(outs) == {"A1", "A1+BC1", "A2"}
        # the choice A = {basis vertex}, B = {added vertex} passes the gcd
        # condition (gcd(2, 1) = 1) and joins the new vertex to the circle
        assert apply(parse_name("BC1"), TieChoice((0,), (1,))) == parse_name("A2")

    def test_g1_gives_g2(self):
        assert "G2" in names(tie_all(parse_name("G1")))

    def test_empty_graph(self):
        assert names(tie_all(EMPTY)) == {"A1"}


class TestApply:
    def test_replays_all_witnesses(self, family12):
        sample = [parse_name("E7+G2"), parse_name("E8+BC1"), parse_name("A3+A1")]
        for g in sample:
            for out, choice in elementary_all(g):
                assert apply(g, choice) == out
            for out, choice in tie_all(g):
                assert apply(g, choice) == out

    def test_overlapping_a_b_rejected(self):
        with pytest.raises(InvalidChoice, match="<a>"):
            apply(parse_name("A2"), TieChoice((0,), (0, 1)))

    def test_large_b_rejected(self):
        g = parse_name("A5")
        with pytest.raises(InvalidChoice, match="#B = 4"):
            apply(g, TieChoice((0,), (1, 2, 3, 4)))

    def test_component_without_removal_rejected(self):
        g = parse_name("A2+A2")
        with pytest.raises(InvalidChoice):
            apply(g, ElementaryChoice((0,)))
        with pytest.raises(InvalidChoice, match="at least one A-vertex"):
            apply(g, TieChoice((0,), ()))

    @pytest.mark.parametrize(
        "choice", [ElementaryChoice((0, 0)), TieChoice((0, 0), ()), TieChoice((0,), (1, 1))]
    )
    def test_repeated_vertex_rejected(self, choice):
        with pytest.raises(InvalidChoice, match="repeated vertex"):
            apply(parse_name("A2"), choice)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidChoice):
            apply(parse_name("A2"), ElementaryChoice((7,)))

    def test_tie_result_can_fail_recognition(self):
        # joining the new vertex to two vertices of one surviving path piece
        # closes a cycle
        g = parse_name("A4")
        with pytest.raises(NotADynkinGraph):
            apply(g, TieChoice((4,), (0, 2)))


class TestAgainstNaiveEnumeration:
    """Dual-route check: the mask engine against literal replays classified
    by Gram-isomorphism search."""

    SMALL = ["A1", "A2", "A3", "A4", "D4", "G2", "G1", "BC1", "A1+A1", "A2+BC1", "A1+G2", "A2+G1"]

    @pytest.mark.parametrize("name", SMALL)
    def test_elementary(self, name):
        g = parse_name(name)
        assert names(elementary_all(g)) == naive_elementary_all(g)

    @pytest.mark.parametrize("name", SMALL)
    def test_tie(self, name):
        g = parse_name(name)
        assert names(tie_all(g)) == naive_tie_all(g)

    @pytest.mark.parametrize("name", ["A5", "A6", "D5", "E6", "E7", "D7", "D4+G2", "A3+BC1+A1"])
    def test_medium_tie(self, name):
        g = parse_name(name)
        assert names(tie_all(g)) == naive_tie_all(g)

    @pytest.mark.parametrize("name", ["A4+A2", "D5+A1", "E6+BC1", "E7", "E8", "D7", "A8", "D8"])
    def test_medium_elementary(self, name):
        g = parse_name(name)
        assert names(elementary_all(g)) == naive_elementary_all(g)

    @pytest.mark.parametrize("name", ["A2", "A3", "G2", "BC1", "A1+A1"])
    def test_no_valid_choice_needs_b_of_four(self, name):
        # enumerating with #B up to 4 finds nothing new: the bound is real
        g = parse_name(name)
        assert naive_tie_all(g, max_b=4) == naive_tie_all(g, max_b=3)


def _named(winners) -> dict:
    return {_decode_graph(codes).name: w for codes, w in winners.items()}


class TestInvariants:
    def test_vertex_count_monotonicity(self, family12):
        for g in family12:
            r = g.total_vertices
            for out, _ in elementary_all(g):
                assert out.total_vertices <= r
            c = len(g.components)
            for out, choice in tie_all(g):
                assert out.total_vertices == r + c - len(choice.a) + 1
                assert out.total_vertices <= r + 1

    def test_elementary_totality_exhaustive(self, family12):
        # elementary_all classifies every removal internally and would raise
        # on any residual that failed recognition
        for g in family12:
            elementary_all(g)

    def test_deterministic_across_runs(self):
        g = parse_name("E6+G2")
        first_e = elementary_all(g)
        first_t = tie_all(g)
        clear_transform_cache()
        assert elementary_all(g) == first_e
        assert tie_all(g) == first_t

    @pytest.mark.parametrize("fn", [elementary_all, tie_all])
    def test_returned_list_is_the_callers_own(self, fn):
        # results are built once per graph; a caller that reorders, trims or
        # extends the list it got must not change what the next call returns
        g = parse_name("E6+G2")
        clear_transform_cache()
        first = fn(g)
        expected = list(first)
        first.reverse()
        first.append(first.pop(0))
        del first[1:]
        assert fn(g) == expected
        assert fn(g) is not fn(g)

    @pytest.mark.parametrize(
        "name, other", [("A2+A2+G2", "A2+G2"), ("D4+D4", "D4"), ("E6+A2+A2", "E6")]
    )
    def test_core_memo_is_order_independent(self, name, other):
        # cores are shared per component type, so their memos may already be
        # warm from another transform or another graph
        g = parse_name(name)
        clear_transform_cache()
        cold_tie = tie_all(g)
        clear_transform_cache()
        cold_elementary = elementary_all(g)
        assert tie_all(g) == cold_tie
        clear_transform_cache()
        tie_all(parse_name(other))
        assert tie_all(g) == cold_tie
        assert elementary_all(g) == cold_elementary
        clear_transform_cache()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_core_visits_masks_in_lex_order(self, n):
        # a core keeps the first mask it meets per key as the smallest, so it
        # must visit masks, and give its tie A-parts, in the order in which
        # witnesses compare
        def members(mask):
            return tuple(v for v in range(n) if mask >> v & 1)

        expected = sorted(range(1, 1 << n), key=members)
        assert _lex_masks(n) == expected
        if n > 1:
            masks = [a for a, _, _ in _CompCore(A(n - 1)).tie_reps()]
            assert masks == sorted(masks, key=members)

    def test_residual_pass_is_the_flood_fill(self):
        # a core keeps, per residual mask, only the piece of its lowest vertex
        # and reads the other pieces by r ^= piece; for every residual of
        # every core table the digest pins, that chain must be the flood fill
        # classify uses, and the recurrence over it must give the product of
        # the recognized piece types, which both tables key on
        for ct in CORE_TYPES:
            core = _CompCore(ct)
            pieces, types = core.residual_types()
            prime = {p: _prime(_recognize(core.adj, core.norm, p)) for p in set(pieces[1:])}
            most = 0  # pieces in one residual: under 32 keeps the 5-bit fields apart
            for r in range(core.full):
                flood = _pieces(core.adj, r)
                assert list(_chain(pieces, r)) == flood, (ct, r)
                assert types[r] == prod(prime[p] for p in flood), (ct, r)
                most = max(most, len(flood))
            assert most < 32

    def test_pieces_of_one_type_have_one_descriptor_set(self):
        # at g = 1 the tie signature is the residual's type product, which is
        # exact only because a piece's descriptors follow from its type: every
        # piece of one type lists the same descriptors
        for ct in CORE_TYPES + [A(17), D(16)]:
            core, by_type = _CompCore(ct), {}
            for piece in set(core.residual_types()[0][1:]):
                prime, pairs = core.piece(piece)
                descs = sorted(d for _, d in pairs)
                first = by_type.setdefault(prime, (piece, descs))
                assert first[1] == descs, (
                    f"{ct.name}: {_decode_graph(prime).name} pieces {bin(first[0])} and "
                    f"{bin(piece)} list {first[1]} and {descs}")

    @pytest.mark.parametrize("ct", CORE_TYPES, ids=lambda ct: ct.name)
    def test_tie_table_is_the_literal_build(self, ct):
        # tie_table takes one A-part per signature and one B-candidate per
        # class; the literal build tries every (A, B) of the core and keeps
        # the smallest per key, so the two agree only if the signature and
        # the classes lose no key and no smaller choice
        core = _CompCore(ct)
        table = {(descs, types): w
                 for descs, group in core.tie_table().items() for types, w in group.items()}
        literal = literal_tie_table(core)
        for descs, types in table.keys() | literal.keys():
            key = (descs, types)
            assert table.get(key) == literal.get(key), (
                f"{ct.name}, key ({descs}, {_decode_graph(types).name}): "
                f"table {table.get(key)}, literal {literal.get(key)}")

    def test_clear_transform_cache_leaves_no_core(self, monkeypatch):
        # the transform sweep measures per-call work only if a clear drops
        # every core, so the next call builds its own; the catalog's A/D/E
        # tables, the winner memo and the cached join rule go with them
        g, h = parse_name("D10"), parse_name("D4+A3+A1")
        clear_transform_cache()
        first = tie_all(g)
        winners = _winners(h, "tie")
        assert _reach(h, "tie") == set(winners)
        old = {ct: c._tables["tie", True] for ct, c in transforms._CORE_MEMO.items() if ct != D(10)}
        assert len(old) == 3
        # one cache holds the A/D/E winner tables and another the key-only
        # folds, both keyed by graph and kind; the public call leaves neither
        # an entry
        memos = (transforms._winners, transforms._reach, transforms._settle, transforms._end)
        assert [m.cache_info().currsize for m in memos[:2]] == [1, 1]
        assert all(m.cache_info().currsize for m in memos)
        # a core reached only for its A/D/E cut keeps the cut alone
        assert all(("tie", False) not in transforms._CORE_MEMO[ct]._tables for ct in old)
        clear_transform_cache()
        assert not transforms._CORE_MEMO and not any(m.cache_info().currsize for m in memos)
        built = []

        class CountedCore(_CompCore):
            __slots__ = ()

            def __init__(self, ct):
                built.append(ct)
                super().__init__(ct)

        monkeypatch.setattr(transforms, "_CompCore", CountedCore)
        again = tie_all(g)
        assert again == first
        assert built == [D(10)]
        # outcome graphs stay interned: the clear drops results, not graphs
        assert all(new is old for (new, _), (old, _) in zip(again, first))
        assert _winners(h, "tie") == winners
        assert built == [D(10), D(4), A(3), A(1)]
        for ct, table in old.items():
            assert transforms._CORE_MEMO[ct]._tables["tie", True] is not table
        clear_transform_cache()

    def test_core_keeps_only_its_tables(self):
        # a core lists every vertex mask of its component while it builds its
        # tables and keeps only the tables and its named pieces after: what
        # tie_all and elementary_all of A15 leave allocated is less than the
        # list of its 65,535 masks alone
        g = parse_name("A15")
        clear_transform_cache()
        tracemalloc.start()
        try:
            tie_all(g)
            elementary_all(g)
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.clear_traces()
            masks = _lex_masks(16)
            listed = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            clear_transform_cache()
        assert len(masks) == 2**16 - 1
        assert kept < listed

    def test_public_transforms_leave_no_per_graph_memo(self):
        # only a catalog build reads a fold of one graph again, so the
        # per-graph memos hold its A/D/E folds and no public result; a
        # repeat call folds again and gives the same interned outcome graphs
        g = parse_name("E7+G2")
        memos = (transforms._winners, transforms._reach)
        clear_transform_cache()
        try:
            for run in (tie_all, elementary_all):
                first, again = run(g), run(g)
                assert [m.cache_info().currsize for m in memos] == [0, 0]
                assert again == first
                assert all(new is old for (new, _), (old, _) in zip(again, first))
        finally:
            clear_transform_cache()

    @pytest.mark.parametrize("symbol", ["Q10", "Z12", "Q12"])
    def test_ade_winners_agree_with_public_results(self, symbol):
        # a catalog reads its second steps from A/D/E-only folds; they must
        # give the A/D/E rows of the public functions, outcome and witness
        basic = SINGULARITY_CLASSES[symbol].basic
        clear_transform_cache()
        mids = {mid.name: mid for first in (elementary_all, tie_all) for mid, _ in first(basic)}
        tables = {  # before any public call
            name: [_winners(mid, kind) for kind in ("elementary", "tie")]
            for name, mid in mids.items()
        }
        for name, mid in mids.items():
            elementary, tie = tables[name]
            assert _named(elementary) == {
                out.name: (c.removed, ()) for out, c in elementary_all(mid) if out.is_ade
            }, name
            assert _named(tie) == {
                out.name: (c.a, c.b) for out, c in tie_all(mid) if out.is_ade
            }, name
        clear_transform_cache()

    def test_reach_is_the_ade_winner_keys(self):
        # a catalog decides from the key-only fold which witness folds to
        # run: it must reach exactly the keys of the A/D/E witness fold, on
        # every graph of at most 8 vertices in at most 4 components and on
        # every intermediate graph of the nine classes; the key-only fold
        # joins its smallest table first, which reorders four components most
        types = [A(k) for k in range(1, 9)] + [D(k) for k in range(4, 9)]
        types += [E(6), E(7), E(8), G2, G1, BC1]
        graphs = [EMPTY] + [
            DynkinGraph(comps)
            for k in (1, 2, 3, 4)
            for comps in itertools.combinations_with_replacement(types, k)
            if sum(c.vertex_count for c in comps) <= 8
        ]
        assert {"", "G2", "G1", "BC1", "E8", "D4+A2+A2", "G2+G1+BC1", "A5+A1+G1+BC1"} <= {
            g.name for g in graphs}
        assert sum(len(g.components) == 4 for g in graphs) == 171
        graphs += [
            mid
            for cls in SINGULARITY_CLASSES.values()
            for first in (elementary_all, tie_all)
            for mid, _ in first(cls.basic)
        ]
        clear_transform_cache()
        for g in graphs:
            for kind in ("elementary", "tie"):
                assert _reach(g, kind) == set(_winners(g, kind)), (g.name, kind)
        clear_transform_cache()

    def test_tie_witness_has_the_smallest_b_for_its_a(self):
        # E6+A3 has an A-part whose residual pieces interleave by vertex, so
        # the smallest B is found only if B-candidates are taken in vertex
        # order across pieces
        g = parse_name("E6+A3")
        n = extend(g).n
        for out, choice in tie_all(g):
            rest = [v for v in range(n) if v not in choice.a]
            for k in range(4):
                for b in itertools.combinations(rest, k):
                    if b >= choice.b:
                        continue
                    try:
                        other = apply(g, TieChoice(choice.a, b))
                    except (InvalidChoice, NotADynkinGraph):
                        continue
                    assert other != out, (out.name, choice, b)

    def test_type_multisets_of_many_components_stay_exact(self):
        # 260 components: a per-type counter packed into fewer than nine bits
        # would wrap and merge outcomes; each A1 is removed or kept
        many = DynkinGraph((A(1),) * 260)
        results = elementary_all(many)
        assert [out for out, _ in results] == [DynkinGraph((A(1),) * j) for j in range(261)]
        # the tie outcomes of 20 A1, pinned in name order
        expected = ["+".join(["A1"] * j) for j in range(1, 22)]
        expected += ["+".join([top] + ["A1"] * j)
                     for top, count in (("A2", 20), ("A3", 19), ("D4", 18)) for j in range(count)]
        assert [out.name for out, _ in tie_all(DynkinGraph((A(1),) * 20))] == expected

    def test_results_sorted_by_name(self):
        for results in (elementary_all(parse_name("E7")), tie_all(parse_name("D5"))):
            ns = [out.name for out, _ in results]
            assert ns == sorted(ns)

    def test_lattice_realization_of_elementary_outputs(self, family12):
        # the Gram matrix of the surviving extended-graph vertices matches
        # the finite part of the output's extended graph up to simultaneous
        # permutation
        for g in family12:
            for out, choice in elementary_all(g):
                survived = apply_labeled(g, choice)
                assert gram_isomorphic(survived, finite_part(out)), (g.name, out.name)

    def test_tie_outputs_match_oracle_classification(self, family12):
        for g in family12:
            if g.total_vertices > 6:
                continue
            for out, choice in tie_all(g):
                raw = apply_labeled(g, choice)
                assert oracle_classify(raw) == out, (g.name, out.name)

    def test_edge_labels_stay_in_the_documented_alphabet(self, family12):
        from fractions import Fraction

        allowed = {Fraction(-1), Fraction(-2), Fraction(-2, 3)}
        for g in family12 + [parse_name("E6+G2+BC1"), parse_name("A1+G1")]:
            assert {val for _, _, val in finite_part(g).edges} <= {Fraction(-1)}
            assert {val for _, _, val in extend(g).base.edges} <= allowed
            for _, choice in tie_all(g)[:5]:
                labels = {val for _, _, val in apply_labeled(g, choice).edges}
                assert labels <= allowed


class TestSizeBudget:
    # Each refused graph would allocate far more than a test should (5E8 took
    # 86 s and 1.5 GB for tie_all), so cores cannot be built here: without
    # the budget check the test fails at the first core instead.
    @pytest.fixture()
    def no_cores(self, monkeypatch):
        def refuse(ct):
            raise AssertionError(f"a core was built for {ct.name}")

        monkeypatch.setattr(transforms, "_CORE_MEMO", {})
        monkeypatch.setattr(transforms, "_CompCore", refuse)

    @pytest.mark.parametrize("name", [
        "A20", "D20+A1", "A40", "2A19", "D19+D11", "D19+D12", "22A1+D19", "3E8+A3", "5E8",
        f"{2**20 - 1}A1",
    ])
    def test_over_budget_is_refused_before_any_core(self, name, no_cores):
        g = parse_name(name)
        for run in (tie_all, elementary_all, lambda g: _reach(g, "tie")):
            with pytest.raises(GraphTooLarge, match="too large to enumerate"):
                run(g)

    @pytest.mark.parametrize("name", [
        "A19", "D19+D7", "21A1+D19", "3E8+A2", "4E7", "E8+E8+D10", "E8+E7+A3", "E6+E6+E6",
        "E8+D6+A2+A1", "260A1",
    ])
    def test_inputs_up_to_the_budget_are_accepted(self, name, monkeypatch):
        # checked on stand-in cores: the largest of these take 4-14 s
        monkeypatch.setattr(transforms, "_CORE_MEMO", {})
        monkeypatch.setattr(transforms, "_CompCore", lambda ct: ct)
        g = parse_name(name)
        assert [core for _, core in transforms._core(g)] == list(g.components)


# Component types for the witness-minimality property: A1-A6 and G1, plus
# every type of at most six vertices whose extended graph has a coefficient
# above 1 (D4-D6, E6, G2, BC1), where the gcd condition and the classes of
# coefficients mod gcd decide which choices are admissible.
SMALL_TYPES = [A(k) for k in range(1, 7)] + [D(4), D(5), D(6), E(6), G2, G1, BC1]


@st.composite
def small_graphs(draw) -> DynkinGraph:
    """Graphs with at most two components and at most six vertices."""
    first = draw(st.sampled_from(SMALL_TYPES))
    fits = [ct for ct in SMALL_TYPES if ct.vertex_count + first.vertex_count <= 6]
    second = draw(st.lists(st.sampled_from(fits), max_size=1)) if fits else []
    return DynkinGraph((first, *second))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_graphs())
@example(parse_name("E6"))
@example(parse_name("D6"))
@example(parse_name("D4+G2"))
@example(parse_name("D4+BC1"))
@example(parse_name("G2+BC1"))
def test_witnesses_are_lexicographic_minima(g):
    assert_witnesses_are_lexicographic_minima(g)


# Three and four components: B-vertices spread over several components,
# closed fusions (a short root, a pair with one path end, three path ends)
# beside components that may take no further B, and open path ends that
# meet across components.
@pytest.mark.parametrize(
    "name",
    [
        "A1+A1+A1",
        "A1+A1+A1+A1",
        "A2+A1+A1",
        "A3+A1+A1",
        "A2+A2+A1",
        "A2+A1+A1+G1",
        "A1+A1+G1+BC1",
        "D4+A1+A1",
    ],
)
def test_witnesses_are_lexicographic_minima_across_components(name):
    assert_witnesses_are_lexicographic_minima(parse_name(name))


def assert_witnesses_are_lexicographic_minima(g):
    # the oracles replay every admissible choice literally and keep the
    # smallest (A, B), or the smallest removed set, per outcome
    ties = tie_all(g)
    elems = elementary_all(g)
    tie_minima = naive_tie_witnesses(g)
    elem_minima = naive_elementary_witnesses(g)
    assert names(ties) == set(tie_minima)
    assert names(elems) == set(elem_minima)
    for out, choice in ties + elems:
        assert apply(g, choice) == out
    assert {out.name: (choice.a, choice.b) for out, choice in ties} == tie_minima
    assert {out.name: choice.removed for out, choice in elems} == elem_minima
