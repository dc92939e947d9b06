"""The package's public API."""

import types

import relcat


def test_all_lists_every_imported_name_and_no_submodule():
    public = {
        name for name, value in vars(relcat).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(relcat.__all__) == len(set(relcat.__all__))
    assert set(relcat.__all__) == public
