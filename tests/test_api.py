"""The package's public name list."""

import ergopulse


def test_all_names_resolve_once():
    names = ergopulse.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(ergopulse, name) is not None, name
    namespace = {}
    exec("from ergopulse import *", namespace)
    assert set(names) <= set(namespace)
