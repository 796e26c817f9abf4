import bisect
from dataclasses import dataclass
from operator import attrgetter

from .catalog import CatalogMember, DynkinGraph, SingularityClass


@dataclass(frozen=True)  # kept a dataclass for perfbench's replace(), out of catalog's warm path
class Catalog:
    """The computed member set of one class, sorted by canonical name."""

    singularity: SingularityClass
    members: tuple[CatalogMember, ...]

    def names(self) -> list[str]:
        return [m.name for m in self.members]

    def get(self, name: str) -> CatalogMember | None:
        i = bisect.bisect_left(self.members, name, key=attrgetter("name"))
        if i < len(self.members) and self.members[i].name == name:
            return self.members[i]
        return None

    def __contains__(self, g: DynkinGraph) -> bool:
        return self.get(g.name) is not None

    def __len__(self) -> int:
        return len(self.members)
