from __future__ import annotations

import json
import re
from math import prod

import pytest

from dynkintrans import catalog as catalog_module
from dynkintrans import transforms
from dynkintrans.catalog import (
    ENGINE_VERSION,
    Catalog,
    CatalogMember,
    QueryNotADE,
    SINGULARITY_CLASSES,
    SingularityClass,
    _Lists,
    _encode_step,
    _indices,
    build_catalog,
    catalog_from_json,
    catalog_to_json,
    membership,
    singularity_class,
)
from dynkintrans.graphs import EMPTY, parse_name
from dynkintrans.transforms import (
    ElementaryChoice,
    TieChoice,
    TransformStep,
    apply,
    elementary_all,
    tie_all,
)


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# The reference encoder: the published layout is json.dumps of this dict
# with sort_keys=True and indent=2, plus a newline.
def _step_dict(step: TransformStep) -> dict:
    choice = step.choice
    if isinstance(choice, ElementaryChoice):
        return {
            "kind": "elementary",
            "input": step.input.name,
            "removed": list(choice.removed),
        }
    return {
        "kind": "tie",
        "input": step.input.name,
        "a": list(choice.a),
        "b": list(choice.b),
    }


def catalog_to_dict(catalog: Catalog) -> dict:
    cls = catalog.singularity
    return {
        "class": cls.symbol,
        "milnor": cls.milnor,
        "basic": cls.basic.name,
        "engine_version": ENGINE_VERSION,
        "members": [
            {"name": m.name, "witness": [_step_dict(s) for s in m.witness]}
            for m in catalog.members
        ],
    }


BASIC_TABLE = {
    "E12": ("E8", 12),
    "Z11": ("E7", 11),
    "Q10": ("E6", 10),
    "E13": ("E8+BC1", 13),
    "Z12": ("E7+BC1", 12),
    "Q11": ("E6+BC1", 11),
    "E14": ("E8+G2", 14),
    "Z13": ("E7+G2", 13),
    "Q12": ("E6+G2", 12),
}


class TestSingularityTable:
    def test_nine_classes(self):
        assert set(SINGULARITY_CLASSES) == set(BASIC_TABLE)

    @pytest.mark.parametrize("symbol", sorted(BASIC_TABLE))
    def test_basic_graph_and_milnor_number(self, symbol):
        cls = SINGULARITY_CLASSES[symbol]
        basic, milnor = BASIC_TABLE[symbol]
        assert cls.basic == parse_name(basic)
        assert cls.milnor == milnor
        assert cls.milnor == int(symbol[1:])

    def test_basic_graph_has_milnor_minus_four_vertices(self):
        for cls in SINGULARITY_CLASSES.values():
            assert cls.basic.total_vertices == cls.milnor - 4

    def test_unknown_symbol(self):
        with pytest.raises(KeyError, match="X99"):
            singularity_class("X99")


class TestCatalogContents:
    def test_worked_example_members(self, all_catalogs):
        z13 = all_catalogs["Z13"]
        assert parse_name("A7+A4") in z13
        assert parse_name("D8+A2") in z13

    def test_a7a4_witness_is_two_ties_through_e8g2(self, all_catalogs):
        member = all_catalogs["Z13"].get("A7+A4")
        s1, s2 = member.witness
        assert (s1.kind, s2.kind) == ("tie", "tie")
        assert s1.output == parse_name("E8+G2")
        assert s2.input == parse_name("E8+G2")

    def test_basic_graph_of_ade_classes_is_a_member(self, all_catalogs):
        for symbol in ("E12", "Z11", "Q10"):
            cls = SINGULARITY_CLASSES[symbol]
            assert cls.basic in all_catalogs[symbol]

    def test_members_are_ade_and_sorted(self, all_catalogs):
        for catalog in all_catalogs.values():
            ns = catalog.names()
            assert ns == sorted(ns)
            assert len(ns) == len(set(ns))
            for m in catalog.members:
                assert m.graph.is_ade

    def test_empty_graph_is_reachable(self, all_catalogs):
        # removing every vertex twice is a valid pair of elementary steps
        for catalog in all_catalogs.values():
            assert parse_name("") in catalog

    def test_witnesses_replay(self, all_catalogs):
        for symbol in ("Q10", "Z12"):
            catalog = all_catalogs[symbol]
            basic = catalog.singularity.basic
            for m in catalog.members:
                s1, s2 = m.witness
                assert s1.input == basic
                assert s1.replay() == s1.output
                assert s2.input == s1.output
                assert s2.replay() == m.graph

    def test_four_combinations_union(self, all_catalogs):
        # recompute the member set of one class from the four ordered
        # combinations independently
        cls = SINGULARITY_CLASSES["Q12"]
        kinds = {"elementary": elementary_all, "tie": tie_all}
        union = set()
        for first in kinds.values():
            for mid, _ in first(cls.basic):
                for second in kinds.values():
                    for out, _ in second(mid):
                        if out.is_ade:
                            union.add(out.name)
        assert union == set(all_catalogs["Q12"].names())


class TestWitnessSelection:
    def test_encoder_matches_json(self, all_catalogs):
        steps = [s for c in all_catalogs.values() for m in c.members for s in m.witness]
        a1, tie = parse_name("A1"), TieChoice((0,), ())  # B empty
        steps.append(TransformStep(tie, a1, apply(a1, tie)))
        for kind_all in (elementary_all, tie_all):  # the empty graph as input
            steps += [TransformStep(choice, EMPTY, out) for out, choice in kind_all(EMPTY)]
        lists = _Lists()  # shared by every step, as in a catalog build
        for s in steps:
            assert _encode_step(lists, s.input.name, *_indices(s.choice)) == _compact(_step_dict(s))

    @pytest.mark.parametrize("symbol", list(SINGULARITY_CLASSES))
    def test_witnesses_are_json_minima(self, all_catalogs, symbol):
        catalog = all_catalogs[symbol]
        expected = _json_minima(catalog.singularity.basic, elementary_all, tie_all)
        assert _witness_json(catalog) == expected

    @pytest.mark.parametrize("symbol", list(SINGULARITY_CLASSES))
    def test_candidates_meet_their_pair_bound(self, symbol):
        # A build skips an (intermediate, kind) pair when, for every outcome t
        # it reaches, bound - 2 v(t) exceeds the best witness length held for
        # t.  That is exact only if no candidate of the pair is shorter, with
        # bound = len(enc1) + len(fixed JSON of kind) + len(intermediate name)
        # + 2 (n_ext + [tie]) - 1, n_ext the intermediate's vertex count plus
        # its component count.  Lengths count enc1 + enc2, without the
        # brackets and comma that every witness adds.
        basic = SINGULARITY_CLASSES[symbol].basic
        fixed = {
            "elementary": len(_compact({"input": "", "kind": "elementary", "removed": []})),
            "tie": len(_compact({"a": [], "b": [], "input": "", "kind": "tie"})),
        }
        firsts = {}  # intermediate name -> (len(enc1), enc1), the kept first step
        for first in (elementary_all, tie_all):
            for mid, c1 in first(basic):
                enc1 = _compact(_step_dict(TransformStep(c1, basic, mid)))
                key = min(firsts.get(mid.name, (len(enc1), enc1)), (len(enc1), enc1))
                firsts[mid.name] = key
        slack = []
        for mid_name, (len1, _) in firsts.items():
            mid = parse_name(mid_name)
            for kind, tie, second in (("elementary", 0, elementary_all), ("tie", 1, tie_all)):
                n_ext = mid.total_vertices + len(mid.components)
                bound = len1 + fixed[kind] + len(mid_name) + 2 * (n_ext + tie) - 1
                for out, c2 in second(mid):
                    if out.is_ade:
                        enc2 = _compact(_step_dict(TransformStep(c2, mid, out)))
                        slack.append(len1 + len(enc2) - (bound - 2 * out.total_vertices))
        assert min(slack) == 0  # never shorter, and met exactly: no sharper bound of this form

    def test_selection_rule_on_made_up_transforms(self, monkeypatch):
        # Made-up outcome tables over the basic graph A3: A1 is best reached
        # through A2 by its elementary first step, although the tie step
        # reaching A2 comes later; A3 is reached through A2 and through A1+A1
        # by witnesses of equal length; G2 is not A/D/E.  First steps come
        # from elementary_all and tie_all; second steps come from the real
        # _winners, over one made-up core per graph that holds the same
        # rows as its option tables, so the A/D/E cut is the engine's own.
        g = parse_name
        elementary = {
            "A3": [(g("A2"), ElementaryChoice((0,))), (g("D4"), ElementaryChoice((0, 1, 2, 3)))],
            "A2": [(g("A1"), ElementaryChoice((0,))), (g("G2"), ElementaryChoice((1,)))],
            "A1+A1": [(g("A1"), ElementaryChoice((1,)))],
            "D4": [],
        }
        tie = {
            "A3": [(g("A2"), TieChoice((0, 1, 2, 3, 4), (5,))), (g("A1+A1"), TieChoice((1,), ()))],
            "A2": [(g("A1"), TieChoice((0,), (1,))), (g("A3"), TieChoice((), ()))],
            "A1+A1": [(g("A3"), TieChoice((0, 1), ())), (g("A2"), TieChoice((0,), ()))],
            "D4": [(g("A1"), TieChoice((1,), (2,)))],
        }

        def fake_elementary(graph):
            return elementary[graph.name]

        def fake_tie(graph):
            return tie[graph.name]

        class MadeUpCore(transforms._CompCore):
            # a graph's rows as the tables of one core: elementary states stay
            # open with no descriptor, tie states are closed
            def __init__(self, name):
                self._tables, self.name = {}, name

            def elementary_table(self):
                return {(): {_types(out): (c.removed, ()) for out, c in elementary[self.name]}}

            def tie_table(self):
                return {None: {_types(out): (c.a, c.b) for out, c in tie[self.name]}}

        monkeypatch.setattr(catalog_module, "elementary_all", fake_elementary)
        monkeypatch.setattr(catalog_module, "tie_all", fake_tie)
        monkeypatch.setattr(transforms, "_core", lambda graph: [(0, MadeUpCore(graph.name))])
        monkeypatch.setattr(transforms, "_MEMO_WINNERS", {})
        monkeypatch.setattr(transforms, "_MEMO_REACH", {})
        assert transforms._winners(g("A2"), "elementary")[_types(g("G2"))] == ((1,), ())  # a row to drop
        cls = SingularityClass("X7", 7, g("A3"))
        catalog = catalog_module._compute_catalog(cls)
        assert _witness_json(catalog) == _json_minima(cls.basic, fake_elementary, fake_tie)
        assert catalog.get("A1").witness[0].choice == ElementaryChoice((0,))
        assert catalog.get("A3").witness[0].output == g("A1+A1")
        assert catalog.get("G2") is None


def _types(g) -> int:
    """The type multiset of a graph as the enumeration engine keys it: the
    product of the primes of its type codes."""
    return prod(transforms._prime(c.sort_key) for c in g.components)


def _json_minima(basic, elementary, tie) -> dict[str, str]:
    """Per A/D/E outcome, the compact JSON of the two-step witness that is
    shortest, then smallest, over every (first step, second step) pair."""
    best: dict[str, tuple[int, str]] = {}
    for first in (elementary, tie):
        for mid, c1 in first(basic):
            d1 = _step_dict(TransformStep(c1, basic, mid))
            for second in (elementary, tie):
                for out, c2 in second(mid):
                    if not out.is_ade:
                        continue
                    enc = _compact([d1, _step_dict(TransformStep(c2, mid, out))])
                    key = (len(enc), enc)
                    if out.name not in best or key < best[out.name]:
                        best[out.name] = key
    return {name: enc for name, (_, enc) in best.items()}


def _witness_json(catalog) -> dict[str, str]:
    return {m.name: _compact([_step_dict(s) for s in m.witness]) for m in catalog.members}


class TestMilnorBound:
    def test_bound_is_attained(self, all_catalogs):
        for catalog in all_catalogs.values():
            most = max(m.graph.total_vertices for m in catalog.members)
            assert most == catalog.singularity.milnor - 2, catalog.singularity.symbol


class TestMembership:
    def test_yes_with_witness(self, catalog_cache_dir):
        witness = membership("Z13", parse_name("A7+A4"), cache_dir=catalog_cache_dir)
        assert witness is not None
        s1, s2 = witness
        assert s1.replay() == s1.output and s2.replay() == parse_name("A7+A4")

    def test_no_for_too_many_vertices(self, catalog_cache_dir):
        assert membership("Z13", parse_name("A12"), cache_dir=catalog_cache_dir) is None

    def test_no_for_every_ade_graph_with_twelve_vertices(self, all_catalogs):
        z13 = all_catalogs["Z13"]
        count = 0
        for g in _ade_graphs_with_total(12):
            assert g not in z13, g.name
            count += 1
        assert count > 100  # the family is substantial

    def test_non_ade_query_rejected(self, catalog_cache_dir):
        with pytest.raises(QueryNotADE):
            membership("E12", parse_name("BC1"), cache_dir=catalog_cache_dir)
        with pytest.raises(QueryNotADE):
            membership("Z13", parse_name("A3+G2"), cache_dir=catalog_cache_dir)


def _ade_graphs_with_total(total: int):
    """Every ADE graph (multiset of components) with the given vertex count."""
    from dynkintrans.graphs import A, D, DynkinGraph, E

    types = [A(k) for k in range(1, total + 1)]
    types += [D(l) for l in range(4, total + 1)]
    types += [E(n) for n in (6, 7, 8) if n <= total]

    def rec(remaining: int, start: int, chosen: list):
        if remaining == 0:
            yield DynkinGraph(tuple(chosen))
            return
        for i in range(start, len(types)):
            ct = types[i]
            if ct.vertex_count <= remaining:
                chosen.append(ct)
                yield from rec(remaining - ct.vertex_count, i, chosen)
                chosen.pop()

    yield from rec(total, 0, [])


def _reference_json(catalog) -> str:
    return json.dumps(catalog_to_dict(catalog), sort_keys=True, indent=2) + "\n"


class TestSerialization:
    def test_writer_matches_the_stdlib_encoder(self, all_catalogs):
        for catalog in all_catalogs.values():
            assert catalog_to_json(catalog) == _reference_json(catalog), catalog.singularity.symbol

    def test_writer_on_a_zero_member_catalog(self):
        catalog = Catalog(SINGULARITY_CLASSES["Q10"], ())
        assert catalog_to_json(catalog) == _reference_json(catalog)
        assert '"members": [],' in catalog_to_json(catalog)

    def test_writer_on_empty_and_single_index_lists(self):
        # steps with an empty B, an empty removed set and one-index lists
        a1, a2 = parse_name("A1"), parse_name("A2")
        cls = SingularityClass("X5", 5, a1)
        tie = TransformStep(TieChoice((0,), ()), a1, a1)
        (empty_out, empty_removed), = elementary_all(EMPTY)
        assert empty_removed.removed == ()
        members = (
            CatalogMember(EMPTY, (TransformStep(ElementaryChoice((0, 1)), a1, EMPTY),
                                  TransformStep(empty_removed, EMPTY, empty_out))),
            CatalogMember(a1, (tie, TransformStep(ElementaryChoice((1,)), a1, a1))),
            CatalogMember(a2, (tie, TransformStep(TieChoice((0,), (1,)), a1, a2))),
        )
        catalog = Catalog(cls, members)
        text = catalog_to_json(catalog)
        assert text == _reference_json(catalog)
        assert '"b": [],' in text and '"removed": []' in text

    def test_round_trip(self, all_catalogs):
        catalog = all_catalogs["Q11"]
        text = catalog_to_json(catalog)
        back = catalog_from_json(text)
        assert back.singularity == catalog.singularity
        assert back.names() == catalog.names()
        assert catalog_to_json(back) == text

    def test_schema_fields(self, all_catalogs):
        data = json.loads(catalog_to_json(all_catalogs["Z13"]))
        assert data["class"] == "Z13"
        assert data["milnor"] == 13
        assert data["basic"] == "E7+G2"
        assert isinstance(data["engine_version"], str)
        member_names = [m["name"] for m in data["members"]]
        assert member_names == sorted(member_names)
        entry = next(m for m in data["members"] if m["name"] == "A7+A4")
        step1, step2 = entry["witness"]
        assert step1["kind"] == "tie" and step1["input"] == "E7+G2"
        assert set(step1) == {"kind", "input", "a", "b"}

    def test_deterministic_recomputation(self, all_catalogs, fresh_memory_cache):
        reference = catalog_to_json(all_catalogs["Z13"])
        recomputed = build_catalog("Z13", cache=False)
        assert catalog_to_json(recomputed) == reference

    def test_disk_cache_round_trip(self, tmp_path, fresh_memory_cache):
        first = build_catalog("Q10", cache=True, cache_dir=tmp_path)
        assert (tmp_path / "Q10-v1.json").is_file()
        from dynkintrans.catalog import clear_memory_cache

        clear_memory_cache()
        second = build_catalog("Q10", cache=True, cache_dir=tmp_path)
        assert catalog_to_json(first) == catalog_to_json(second)
        assert second.get("E6") is not None

    def test_str_cache_dir(self, tmp_path, fresh_memory_cache):
        built = build_catalog("Q10", cache=True, cache_dir=str(tmp_path / "a"))
        path = tmp_path / "a" / "Q10-v1.json"
        assert path.is_file()
        assert path.read_text(encoding="utf-8") == catalog_to_json(built)
        witness = membership("Q10", parse_name("A1"), cache_dir=str(tmp_path / "b"))
        assert witness is not None and witness[1].replay() == parse_name("A1")
        assert (tmp_path / "b" / "Q10-v1.json").is_file()

    def test_memo_hit_writes_missing_cache_file(self, tmp_path, fresh_memory_cache):
        uncached = build_catalog("Q10", cache=False)
        build_catalog("Q10", cache=True, cache_dir=tmp_path)
        path = tmp_path / "Q10-v1.json"
        assert path.is_file()
        assert path.read_text(encoding="utf-8") == catalog_to_json(uncached)

    def test_memo_hit_rewrites_an_unpublished_cache_file(
        self, tmp_path, fresh_memory_cache, monkeypatch
    ):
        good = catalog_to_json(build_catalog("Q10", cache=False))
        path = tmp_path / "Q10-v1.json"
        path.write_text("{}", encoding="utf-8")
        build_catalog("Q10", cache_dir=tmp_path)
        assert path.read_text(encoding="utf-8") == good
        path.write_text("{}", encoding="utf-8")
        catalog_module.clear_memory_cache()
        build_catalog("Q10", cache=False)
        assert membership("Q10", parse_name("A1"), cache_dir=tmp_path) is not None
        assert path.read_text(encoding="utf-8") == good
        # a warm memo reads and hashes each cache file once per process
        reads = []
        monkeypatch.setattr(catalog_module, "_published", lambda *args: reads.append(args))
        for _ in range(5):
            assert membership("Q10", parse_name("A1"), cache_dir=tmp_path) is not None
            build_catalog("Q10", cache_dir=tmp_path)
        assert reads == []

    @pytest.mark.parametrize(
        "damage",
        [
            "members as an object", "not utf-8", "first step from A1", "member A1 dropped",
            "witness index digit changed", "trailing newline added", "last byte dropped",
        ],
    )
    def test_bad_cache_file_is_recomputed(self, tmp_path, fresh_memory_cache, damage):
        good = catalog_to_json(build_catalog("Q10", cache=False))
        path = tmp_path / "Q10-v1.json"
        # the last three are well-formed catalogs that only a whole-file digest
        # tells from the published bytes
        if damage == "witness index digit changed":
            # the last digit of the first index in A1's witness
            i = re.compile(r"\d(?=,?\n)").search(good, good.index('"name": "A1",')).start()
            path.write_text(good[:i] + str((int(good[i]) + 1) % 10) + good[i + 1:], encoding="utf-8")
        elif damage == "trailing newline added":
            path.write_text(good + "\n", encoding="utf-8")
        elif damage == "last byte dropped":
            path.write_text(good[:-1], encoding="utf-8")
        elif damage == "not utf-8":
            path.write_bytes(b"\xff\xfe" + good.encode("utf-8"))
        elif damage == "first step from A1":
            # a witness whose first step claims another input than the basic graph
            data = json.loads(good)
            data["members"][0]["witness"][0]["input"] = "A1"
            path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        elif damage == "member A1 dropped":
            # well-formed and sorted, every witness replays, one member missing
            data = json.loads(good)
            data["members"] = [e for e in data["members"] if e["name"] != "A1"]
            path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        else:
            # well-formed JSON of the wrong shape
            data = json.loads(good)
            data["members"] = {e["name"]: e["witness"] for e in data["members"]}
            path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        from dynkintrans.catalog import clear_memory_cache

        clear_memory_cache()
        witness = membership("Q10", parse_name("A1"), cache_dir=tmp_path)
        assert witness is not None and witness[1].replay() == parse_name("A1")
        assert path.read_text(encoding="utf-8") == good

    @pytest.mark.parametrize(
        "damage",
        [
            "engine version", "unsorted", "first step from A1", "unknown step kind",
            "not an object", "no milnor", "member without witness", "step input not a name",
            'index "x"', "index 1.5", "index true",
        ],
    )
    def test_parser_rejects_a_malformed_catalog(self, all_catalogs, damage):
        data = json.loads(catalog_to_json(all_catalogs["Q10"]))
        if damage.startswith("index "):
            # catalog_to_json would write any index it holds, so each must be an int
            step = data["members"][0]["witness"][1]
            step["removed" if step["kind"] == "elementary" else "a"] = [json.loads(damage[6:])]
        elif damage == "engine version":
            data["engine_version"] = "0"
        elif damage == "unsorted":
            data["members"].reverse()
        elif damage == "first step from A1":
            data["members"][0]["witness"][0]["input"] = "A1"
        elif damage == "unknown step kind":
            data["members"][0]["witness"][0]["kind"] = "bogus"
        elif damage == "not an object":
            data = []
        elif damage == "no milnor":
            del data["milnor"]
        elif damage == "member without witness":
            del data["members"][0]["witness"]
        else:
            data["members"][0]["witness"][1]["input"] = 6
        with pytest.raises(ValueError):
            catalog_from_json(json.dumps(data))

    def test_witness_replay_after_deserialization(self, all_catalogs):
        catalog = catalog_from_json(catalog_to_json(all_catalogs["Q10"]))
        member = catalog.get("A1")
        assert member is not None
        s1, s2 = member.witness
        assert s2.replay() == member.graph


def _steps(witness) -> list[dict]:
    return [_step_dict(s) for s in witness]


def _write_json(path, data) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")


class TestOneEntryMembership:
    """``membership`` answers from one entry of a published cache file."""

    @pytest.fixture()
    def no_recompute(self, monkeypatch):
        def refuse(cls):
            raise AssertionError(f"{cls.symbol} recomputed from a good cache file")

        monkeypatch.setattr(catalog_module, "_compute_catalog", refuse)

    @pytest.mark.parametrize("symbol", ["Q10", "Z13"])
    def test_every_member_matches_the_catalog(
        self, symbol, all_catalogs, catalog_cache_dir, fresh_memory_cache, no_recompute
    ):
        path = catalog_cache_dir / f"{symbol}-v1.json"
        before = path.read_bytes()
        for member in all_catalogs[symbol].members:
            catalog_module.clear_memory_cache()
            witness = membership(symbol, member.graph, cache_dir=catalog_cache_dir)
            assert witness is not None, member.name
            assert _steps(witness) == _steps(member.witness), member.name
        assert path.read_bytes() == before

    def test_non_members(self, all_catalogs, catalog_cache_dir, fresh_memory_cache, no_recompute):
        queries = [
            (symbol, g)
            for symbol in ("Q10", "Z13")
            for total in (4, 8, 11)
            for g in _ade_graphs_with_total(total)
            if g not in all_catalogs[symbol]
        ]
        chosen = queries[:: max(1, len(queries) // 20)][:20]
        assert len(chosen) == 20 and {s for s, _ in chosen} == {"Q10", "Z13"}
        for symbol, g in chosen:
            catalog_module.clear_memory_cache()
            assert membership(symbol, g, cache_dir=catalog_cache_dir) is None, (symbol, g.name)

    def test_whole_file_is_not_parsed(
        self, all_catalogs, catalog_cache_dir, fresh_memory_cache, no_recompute, monkeypatch
    ):
        def refuse(data):
            raise AssertionError("the whole catalog was parsed")

        monkeypatch.setattr(catalog_module, "catalog_from_dict", refuse)
        witness = membership("Z13", parse_name("A7+A4"), cache_dir=catalog_cache_dir)
        assert _steps(witness) == _steps(all_catalogs["Z13"].get("A7+A4").witness)
        assert membership("Z13", parse_name("A12"), cache_dir=catalog_cache_dir) is None


def _with_forged_a12(good: str) -> dict:
    """A Z13 catalog dict that also lists A12, with the witness of A7+A4."""
    data = json.loads(good)
    forged = json.loads(json.dumps(next(e for e in data["members"] if e["name"] == "A7+A4")))
    forged["name"] = "A12"
    data["members"] = sorted(data["members"] + [forged], key=lambda e: e["name"])
    return data


class TestForgedCacheEntry:
    """A cache file that is not the published catalog is never served."""

    def test_extra_member_is_a_miss(self, all_catalogs, tmp_path, fresh_memory_cache, capsys):
        from dynkintrans.cli import main

        good = catalog_to_json(all_catalogs["Z13"])
        data = _with_forged_a12(good)
        path = tmp_path / "Z13-v1.json"

        _write_json(path, data)
        assert membership("Z13", parse_name("A12"), cache_dir=tmp_path) is None
        assert path.read_text(encoding="utf-8") == good

        _write_json(path, data)
        catalog_module.clear_memory_cache()
        assert main(["check", "Z13", "A12", "--cache-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().out.startswith("no: A12")
        assert path.read_text(encoding="utf-8") == good

    @pytest.mark.parametrize("damage", ["A12 added", "A7+A4 dropped"])
    def test_load_serves_only_the_published_file(
        self, all_catalogs, tmp_path, fresh_memory_cache, capsys, damage
    ):
        from dynkintrans.cli import main

        good = catalog_to_json(all_catalogs["Z13"])
        if damage == "A12 added":
            data = _with_forged_a12(good)
        else:
            data = json.loads(good)
            data["members"] = [e for e in data["members"] if e["name"] != "A7+A4"]
        path = tmp_path / "Z13-v1.json"
        _write_json(path, data)
        loaded = build_catalog("Z13", cache_dir=tmp_path)
        assert loaded.names() == all_catalogs["Z13"].names()
        assert path.read_text(encoding="utf-8") == good

        _write_json(path, data)
        catalog_module.clear_memory_cache()
        assert main(["catalog", "Z13", "--cache-dir", str(tmp_path)]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert listed == [str(m.graph) for m in all_catalogs["Z13"].members]
        assert path.read_text(encoding="utf-8") == good

    def test_step_that_replays_elsewhere_is_a_miss(self, all_catalogs, tmp_path, fresh_memory_cache):
        good = catalog_to_json(all_catalogs["Z13"])
        data = json.loads(good)
        entry = next(e for e in data["members"] if e["name"] == "A7+A4")
        step = entry["witness"][1]
        step["b"] = [1, 9]  # the same A with this B gives E7+A4
        assert apply(parse_name(step["input"]), TieChoice(tuple(step["a"]), (1, 9))) == parse_name(
            "E7+A4"
        )
        path = tmp_path / "Z13-v1.json"
        _write_json(path, data)
        witness = membership("Z13", parse_name("A7+A4"), cache_dir=tmp_path)
        assert witness is not None
        assert _steps(witness) == _steps(all_catalogs["Z13"].get("A7+A4").witness)
        assert path.read_text(encoding="utf-8") == good
