"""The package namespace: one list of public names."""

import types

import consensusgame


def test_all_lists_exactly_the_public_names_bound_in_the_package():
    bound = {
        name
        for name, obj in vars(consensusgame).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert len(consensusgame.__all__) == len(set(consensusgame.__all__))
    assert set(consensusgame.__all__) == bound
    for name in consensusgame.__all__:
        getattr(consensusgame, name)
