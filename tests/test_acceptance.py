"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line printed
by every criterion.
"""

from __future__ import annotations

import hashlib
import time

from dynkintrans.catalog import (
    GOLDEN_DIGESTS,
    SINGULARITY_CLASSES,
    _compute_catalog,
    build_catalog,
    catalog_to_json,
    clear_memory_cache,
    membership,
)
from dynkintrans.graphs import (
    A,
    BC1,
    D,
    DynkinGraph,
    E,
    G1,
    G2,
    parse_name,
)
from dynkintrans.transforms import (
    apply_labeled,
    check_extension_identity,
    clear_transform_cache,
    elementary_all,
    tie_all,
)

from conftest import BUILD_STATS
from lattice import root_count
from oracles import finite_part, gram, oracle_classify

# Golden member counts, frozen after the first verified computation; the
# enumeration is its own oracle and these guard against behavioral drift.
GOLDEN_COUNTS = {
    "E12": 165,
    "Z11": 120,
    "Q10": 73,
    "E13": 255,
    "Z12": 186,
    "Q11": 111,
    "E14": 343,
    "Z13": 251,
    "Q12": 154,
}

# SHA-256 of catalog_to_json for every class, as first published: the frozen
# pin of the published bytes, next to the BLAKE2b-256 digests that the cache
# checks (GOLDEN_DIGESTS)
GOLDEN_SHA256 = {
    "E12": "ac4231312e3a8a4adc5d568db287f02d24d4d0dbf7216cdb95a4237a0f117e15",
    "Z11": "ea3efd65d72ce21ab10bdc6714d04df44a6baaa65d427b37ff3e12780e2c823e",
    "Q10": "134540cd1ab3ac6d789f5d536acb702c4842f6e10a2e1357d9e2aa0aa148c090",
    "E13": "1660a0ac3b56f793177e84713971600faa419fddfd20990ed97c4c66ddb612aa",
    "Z12": "49dfac0a37ef805b513055cf7d364ea65f10cbdc2ebea51bfe9c0f95329ff1f7",
    "Q11": "441fcb6ec4a3edefdebfd08cc3c179a1eea6e627b83bbbd0a57b36875bc4fe01",
    "E14": "b6146511ad48210bafa42804de564f4162d30d8d56e4a10179f3d77d891287e4",
    "Z13": "44e61d400d636de1fe3244bd445c9cde0cc4c35918cbf8e1183a1c3551f7c830",
    "Q12": "7d08bb640f6ed8117631e52b08bb4f07132913f0e3ac4db35190ff44e401a033",
}


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_1_worked_example_regression(all_catalogs, catalog_cache_dir):
    start = time.monotonic()
    w_a7a4 = membership("Z13", parse_name("A7+A4"), cache_dir=catalog_cache_dir)
    w_d8a2 = membership("Z13", parse_name("D8+A2"), cache_dir=catalog_cache_dir)
    elapsed = time.monotonic() - start

    assert w_a7a4 is not None and w_d8a2 is not None
    for witness, target in ((w_a7a4, "A7+A4"), (w_d8a2, "D8+A2")):
        s1, s2 = witness
        assert s1.input == parse_name("E7+G2")
        assert s1.replay() == s1.output == s2.input
        assert s2.replay() == parse_name(target)
    # the A7+A4 witness runs through E8+G2 with two tie transformations
    s1, s2 = w_a7a4
    assert (s1.kind, s2.kind) == ("tie", "tie")
    assert s1.output == parse_name("E8+G2")
    assert elapsed < 1.0, f"membership lookups took {elapsed:.2f}s"
    report(
        "PASS criterion 1: Z13 reaches A7+A4 (tie, tie via E8+G2) and D8+A2; "
        f"queries took {elapsed * 1000:.0f} ms"
    )


def test_criterion_2_class_table_regression():
    table = {
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
    assert set(SINGULARITY_CLASSES) == set(table)
    for symbol, (basic, milnor) in table.items():
        cls = SINGULARITY_CLASSES[symbol]
        assert cls.basic == parse_name(basic), symbol
        assert cls.milnor == milnor == int(symbol[1:]), symbol
    report("PASS criterion 2: all nine basic graphs and Milnor numbers match")


def test_criterion_3_milnor_bound(all_catalogs):
    lines = []
    for symbol, catalog in sorted(all_catalogs.items()):
        bound = catalog.singularity.milnor - 2
        most = max(m.graph.total_vertices for m in catalog.members)
        assert most <= bound, symbol
        assert most == bound, f"{symbol}: bound {bound} not attained"
        lines.append(f"{symbol}: max r = {most} (bound {bound})")
    seconds = BUILD_STATS.get("nine_class_seconds")
    assert seconds is not None and seconds < 300.0, f"nine-class build took {seconds}s"
    report(
        "PASS criterion 3: vertex bound holds in all nine catalogs "
        f"[{'; '.join(lines)}] built in {seconds:.0f}s"
    )


def test_criterion_4_extension_coefficient_soundness():
    instances = [A(1), A(5), D(4), D(7), E(6), E(7), E(8), G2, G1, BC1]
    for ct in instances:
        check_extension_identity(ct)  # exact identity, no tolerance
    report(
        "PASS criterion 4: added-vertex Gram row equals minus the weighted "
        f"root rows for {', '.join(ct.name for ct in instances)}"
    )


def test_criterion_5_recognition_oracle_equivalence(family12):
    checked = 0
    for g in family12:
        for kind_all in (elementary_all, tie_all):
            for out, choice in kind_all(g):
                raw = apply_labeled(g, choice)
                assert oracle_classify(raw) == out, (g.name, out.name)
                checked += 1
    report(
        "PASS criterion 5: structural recognition agrees with Gram-isomorphism "
        f"search on {checked} transformation outcomes"
    )


def test_criterion_6_root_count_oracle():
    start = time.monotonic()
    for k in range(1, 9):
        assert root_count(gram(finite_part(DynkinGraph((A(k),))))) == k * (k + 1)
    for l in range(4, 9):
        assert root_count(gram(finite_part(DynkinGraph((D(l),))))) == 2 * l * (l - 1)
    for n, count in ((6, 72), (7, 126), (8, 240)):
        assert root_count(gram(finite_part(DynkinGraph((E(n),))))) == count
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(f"PASS criterion 6: recomputed root counts match in {elapsed:.1f}s")


def test_criterion_7_determinism(all_catalogs):
    reference = catalog_to_json(all_catalogs["Z13"])
    clear_memory_cache()
    clear_transform_cache()
    fresh = catalog_to_json(build_catalog("Z13", cache=False))
    assert fresh == reference
    report(
        "PASS criterion 7: independent Z13 computations serialize to "
        f"byte-identical JSON ({len(reference)} bytes)"
    )


def test_criterion_8_golden_member_counts(all_catalogs):
    counts = {symbol: len(catalog) for symbol, catalog in all_catalogs.items()}
    assert counts == GOLDEN_COUNTS
    report(
        "PASS criterion 8: member counts match the frozen golden values "
        f"{GOLDEN_COUNTS}"
    )


def test_criterion_9_golden_catalog_digests():
    # the engine's own output, not a catalog that the loader checked
    published = {
        symbol: catalog_to_json((cls, _compute_catalog(cls))).encode("utf-8")
        for symbol, cls in SINGULARITY_CLASSES.items()
    }
    sha256 = {symbol: hashlib.sha256(data).hexdigest() for symbol, data in published.items()}
    blake2b = {
        symbol: hashlib.blake2b(data, digest_size=32).hexdigest()
        for symbol, data in published.items()
    }
    assert sha256 == GOLDEN_SHA256
    assert blake2b == GOLDEN_DIGESTS
    report(
        "PASS criterion 9: all nine catalogs serialize to their frozen "
        "SHA-256 and BLAKE2b-256 digests, witnesses included"
    )
