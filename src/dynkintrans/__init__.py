"""Exact Dynkin-graph transformation calculus for triangle singularities.

The package computes, for each of the nine E/Z/Q triangle singularity
classes, the set of A/D/E Dynkin graphs obtainable from the class's basic
graph by exactly two elementary or tie transformations, together with
replayable witnesses.

Public names resolve lazily (PEP 562): ``import dynkintrans`` loads no
submodule, and ``dynkintrans.tie_all`` imports ``dynkintrans.transforms``
on first use.  A name is looked up in its module on every access and never
stored here, so it is always the module's current object.
"""

__version__ = "0.1.0"

# The defining module of each public name; __all__, __getattr__ and __dir__ read it.
_PUBLIC = {
    name: module
    for module, names in {
        "graphs": """A BC1 ComponentType D DynkinGraph E EMPTY ElementaryChoice G1 G2
            NotADynkinGraph ParseError TieChoice TransformStep parse_name""",
        "exact": "ExtendedGraph LabeledGraph Vertex classify extend",
        "transforms": "GraphTooLarge InvalidChoice apply apply_labeled elementary_all tie_all",
        "_catalog_type": "Catalog",
        "catalog": """CatalogMember ENGINE_VERSION QueryNotADE SINGULARITY_CLASSES SingularityClass
            build_catalog catalog_from_json catalog_to_json membership singularity_class""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_PUBLIC)


def __getattr__(name: str):
    module = _PUBLIC.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC})
