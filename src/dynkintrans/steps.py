"""The recorded transformation steps: the two kinds of choice and one step.

These value classes are all that a warm catalog answer needs of the
transform layer, so they live apart from the enumeration engine:
``TransformStep.replay`` imports ``transforms.apply`` when it runs.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graphs import DynkinGraph, _set, _Value


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
