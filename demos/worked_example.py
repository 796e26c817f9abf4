"""Walk through the Z13 story: E7+G2 -> E8+G2 -> A7+A4 and D8+A2.

Starting from the basic graph E7+G2 of the class Z13, one tie
transformation produces E8+G2; from there a second tie reaches A7+A4 and
an elementary step reaches D8+A2.  Both end graphs are therefore
configurations realizable by exactly two transformations.
"""

from __future__ import annotations

from dynkintrans import (
    elementary_all,
    extend,
    membership,
    parse_name,
    tie_all,
)


def show_extended(name: str) -> None:
    ext = extend(parse_name(name))
    print(f"extended {name}: {ext.n} vertices")
    added = {comp[-1] for comp in ext.components}
    for i, vertex in enumerate(ext.base.vertices):
        marker = "*" if i in added else " "
        print(f"  [{i:2d}]{marker} {vertex.id:<12} norm {vertex.norm}  coeff {ext.coefficients[i]}")


def main() -> None:
    basic = parse_name("E7+G2")
    print(f"basic graph of Z13: {basic} ({basic.total_vertices} vertices)")
    print()
    show_extended("E7+G2")
    print()

    ties = dict((out.name, choice) for out, choice in tie_all(basic))
    choice = ties["E8+G2"]
    print(f"one tie transformation reaches E8+G2 via A = {choice.a}, B = {choice.b}")

    second = parse_name("E8+G2")
    tie_names = {out.name for out, _ in tie_all(second)}
    elem_names = {out.name for out, _ in elementary_all(second)}
    print(f"tie outcomes of E8+G2 include A7+A4: {'A7+A4' in tie_names}")
    print(f"elementary outcomes of E8+G2 include D8+A2: {'D8+A2' in elem_names}")
    print()

    for target in ("A7+A4", "D8+A2"):
        witness = membership("Z13", parse_name(target))
        assert witness is not None
        s1, s2 = witness
        print(f"{target} is reachable from Z13:")
        print(f"  step 1 ({s1.kind}): {s1.input} -> {s1.output}")
        print(f"  step 2 ({s2.kind}): {s2.input} -> {s2.output}")
        assert s1.replay() == s1.output and s2.replay() == s2.output
    print()
    print("both witnesses replay exactly")


if __name__ == "__main__":
    main()
