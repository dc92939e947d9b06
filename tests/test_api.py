"""The package's public API: one table of names, each imported from its
submodule on first access."""

import types

import pytest

import relcat


def test_all_lists_every_imported_name_and_no_submodule():
    assert len(relcat.__all__) == len(set(relcat.__all__))
    for name in relcat.__all__:
        assert not isinstance(getattr(relcat, name), types.ModuleType), name
    # once every name is resolved, the namespace holds no other public name
    public = {
        name for name, value in vars(relcat).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(relcat.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from relcat import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(relcat.__all__)


def test_dir_lists_every_public_name():
    assert set(relcat.__all__) <= set(dir(relcat))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        relcat.no_such_name
    assert not hasattr(relcat, "no_such_name")
