import importlib

import pytest

import dynkintrans

MODULES = ("graphs", "transforms", "catalog", "_catalog_type")


def test_all_lists_exactly_the_public_names():
    # one table names the defining module of each public name; __all__ is its key list
    assert dynkintrans.__all__ == sorted(dynkintrans._PUBLIC)
    assert len(dynkintrans.__all__) == 39
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
