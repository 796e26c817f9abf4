"""Catalog facts with a short proof, checked member by member.

A wrong catalog fails its digest, which says nothing about which members
moved.  These tests fail naming the class, the fact and the missing member.

- Lemma 1, the extra component.  Let X be E6, E7 or E8 and C be BC1 or G2.
  A step on X extends to a step on X+C that takes the whole extended C into
  A, or removes it; the gcd condition holds on C, whose added vertex has
  coefficient 1, and the outcome is the same graph.  So the catalog of the
  class with basic graph X lies in that of the class with basic graph X+C.
- Lemma 2, the identity step.  Removing exactly the added vertices is an
  elementary step that returns its input.  So every A/D/E outcome of one
  step from the basic graph is a member.
"""

from __future__ import annotations

from dynkintrans.catalog import SINGULARITY_CLASSES
from dynkintrans.transforms import elementary_all, tie_all

# class -> the class whose basic graph is its own less the G2 or BC1 component
LEMMA_1 = {"Q11": "Q10", "Q12": "Q10", "Z12": "Z11", "Z13": "Z11", "E13": "E12", "E14": "E12"}

# The covers of the measured inclusion order of the nine member sets; each
# raises the Milnor number by one.
COVERS = {
    ("Q10", "Q11"), ("Q10", "Z11"),
    ("Z11", "Z12"), ("Z11", "E12"),
    ("Q11", "Q12"), ("Q11", "Z12"), ("Q11", "E12"),
    ("E12", "E13"), ("E12", "Z13"),
    ("Z12", "Z13"), ("Z12", "E13"),
    ("Q12", "Z13"), ("Q12", "E13"),
    ("Z13", "E14"), ("E13", "E14"),
}


def _names(all_catalogs) -> dict[str, set[str]]:
    return {symbol: set(catalog.names()) for symbol, catalog in all_catalogs.items()}


def _misses(small: set[str], big: set[str]) -> str:
    return ", ".join(sorted(small - big)) or "nothing, as the two are equal"


def test_lemma_1_a_catalog_lies_in_that_of_its_extension(all_catalogs):
    names = _names(all_catalogs)
    failures = []
    for big, small in LEMMA_1.items():
        basic, extension = (SINGULARITY_CLASSES[s].basic.components for s in (small, big))
        assert extension[:-1] == basic and extension[-1].name in ("G2", "BC1"), (small, big)
        failures += [f"{big} (Lemma 1, from {small}) lacks {name}"
                     for name in sorted(names[small] - names[big])]
    assert not failures, "\n".join(failures)


def test_lemma_2_every_ade_first_step_outcome_is_a_member(all_catalogs):
    names = _names(all_catalogs)
    failures, outcomes = [], {}
    for symbol, cls in SINGULARITY_CLASSES.items():
        reached = {out.name for step_all in (elementary_all, tie_all)
                   for out, _ in step_all(cls.basic) if out.is_ade}
        outcomes[symbol] = len(reached)
        failures += [f"{symbol} (Lemma 2) lacks {name}" for name in sorted(reached - names[symbol])]
    assert not failures, "\n".join(failures)
    assert [(outcomes[s], len(names[s])) for s in ("Q10", "E14")] == [(36, 73), (174, 343)]
    assert sum(outcomes.values()) == 826


def test_the_measured_inclusion_order(all_catalogs):
    names = _names(all_catalogs)
    milnor = {symbol: cls.milnor for symbol, cls in SINGULARITY_CLASSES.items()}
    expected = set(COVERS)
    while True:  # the transitive closure of the covers
        longer = {(a, d) for a, b in expected for c, d in expected if b == c}
        if longer <= expected:
            break
        expected |= longer
    assert len(expected) == 30
    assert {(small, big) for big, small in LEMMA_1.items()} <= expected
    failures = [
        f"{small} is not in {big} ({'Lemma 1' if LEMMA_1.get(big) == small else 'measured'}): "
        f"{big} lacks {_misses(names[small], names[big])}"
        for small, big in sorted(expected) if not names[small] < names[big]
    ]
    failures += [f"{small} is newly in {big}" for small in names for big in names
                 if small != big and names[small] < names[big] and (small, big) not in expected]
    assert not failures, "\n".join(failures)
    assert all(milnor[big] == milnor[small] + 1 for small, big in COVERS)
    covers = {(a, c) for a, c in expected
              if not any((a, b) in expected and (b, c) in expected for b in names)}
    assert covers == COVERS
