from dataclasses import dataclass

from .catalog import CatalogMember, DynkinGraph, SingularityClass, _find


@dataclass(frozen=True)  # for perfbench's replace(); built by build_catalog and catalog_from_json
class Catalog:
    """The computed member set of one class, sorted by canonical name."""

    singularity: SingularityClass
    members: tuple[CatalogMember, ...]

    def names(self) -> list[str]:
        return [m.name for m in self.members]

    def get(self, name: str) -> CatalogMember | None:
        return _find(self.members, name)

    def __contains__(self, g: DynkinGraph) -> bool:
        return self.get(g.name) is not None

    def __len__(self) -> int:
        return len(self.members)
