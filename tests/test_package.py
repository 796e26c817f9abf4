import types

import dynkintrans


def test_all_lists_exactly_the_public_names():
    # __all__ repeats the imports above it; a name dropped from one must go from both
    public = [
        name
        for name, value in vars(dynkintrans).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(dynkintrans.__all__) == sorted(public)
