import importlib

import pytest

import dynkintrans

MODULES = ("graphs", "transforms", "catalog", "_catalog_type")


def test_all_lists_exactly_the_public_names():
    # one table names the defining module of each public name; __all__ is its key list
    assert dynkintrans.__all__ == sorted(dynkintrans._PUBLIC)
    assert len(dynkintrans.__all__) == 37
    assert set(dynkintrans._PUBLIC.values()) == set(MODULES)


@pytest.mark.parametrize("name", dynkintrans.__all__)
def test_name_resolves_to_its_defining_module(name):
    module = importlib.import_module(f"dynkintrans.{dynkintrans._PUBLIC[name]}")
    assert getattr(dynkintrans, name) is getattr(module, name)
    home = getattr(module, name)
    if callable(home) and hasattr(home, "__module__"):
        assert home.__module__ == module.__name__


def test_names_are_looked_up_on_every_access(monkeypatch):
    # never cached in the package: a patched module attribute shows through at once
    from dynkintrans import transforms

    assert dynkintrans.tie_all is transforms.tie_all
    monkeypatch.setattr(transforms, "tie_all", lambda g: [])
    assert dynkintrans.tie_all is transforms.tie_all
    monkeypatch.undo()
    assert dynkintrans.tie_all is transforms.tie_all
    assert "tie_all" not in vars(dynkintrans)


@pytest.mark.parametrize("layer", ["catalog", "cli"])
def test_engine_functions_forward_to_transforms(layer, monkeypatch):
    # catalog and cli hold no engine function: each name reads transforms's current object
    from dynkintrans import transforms

    module = importlib.import_module(f"dynkintrans.{layer}")
    for name in ("elementary_all", "tie_all"):
        assert getattr(module, name) is getattr(transforms, name)
        assert name not in vars(module)
        monkeypatch.setattr(transforms, name, lambda g: [])
        assert getattr(module, name) is getattr(transforms, name)
        monkeypatch.undo()
        assert getattr(module, name) is getattr(transforms, name)
        assert name not in vars(module)
    with pytest.raises(AttributeError, match=f"'dynkintrans.{layer}' has no attribute 'tie_al'"):
        module.tie_al


def test_step_classes_are_one_class_under_every_name(all_catalogs):
    import pickle

    from dynkintrans import catalog, cli, graphs, transforms

    for name in ("ElementaryChoice", "TieChoice", "TransformStep"):
        home = getattr(graphs, name)
        assert getattr(dynkintrans, name) is getattr(transforms, name) is home
        assert getattr(catalog, name) is home
    assert cli.ElementaryChoice is graphs.ElementaryChoice and cli.TransformStep is graphs.TransformStep
    assert transforms.Choice is catalog.Choice is graphs.Choice
    witness = all_catalogs["Z13"].get("A7+A4").witness
    copy = pickle.loads(pickle.dumps(witness))
    assert copy == witness and [type(step) for step in copy] == [graphs.TransformStep] * 2


def test_graphs_forwards_only_the_certifier_names():
    """``graphs`` forwards the five labeled-graph names that the benchmark's
    certifier reads from it, each the current object of ``transforms``, and no other."""
    from dynkintrans import graphs, transforms

    for name in ("extend", "Vertex", "LabeledGraph", "NORM_LONG", "ORDINARY_EDGE"):
        assert getattr(graphs, name) is getattr(transforms, name)
        assert name not in vars(graphs)
    for name in ("ExtendedGraph", "classify", "check_extension_identity", "NORM_SHORT",
                 "_recognize", "Fraction", "extent"):
        with pytest.raises(AttributeError, match=f"'dynkintrans.graphs' has no attribute '{name}'"):
            getattr(graphs, name)


def test_dir_lists_every_public_name():
    listed = dir(dynkintrans)
    assert set(dynkintrans.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'tie_none'"):
        dynkintrans.tie_none
    assert not hasattr(dynkintrans, "_PRIME")  # private engine names are not re-exported


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from dynkintrans import *", namespace)
    bound = {name for name in namespace if name != "__builtins__"}
    assert bound == set(dynkintrans.__all__)
    assert namespace["tie_all"] is dynkintrans.tie_all
