"""The package's public surface."""

import lfqkd


def test_all_names_resolve_once():
    # A name left in __all__ after its definition is gone fails here, and so
    # does ``from lfqkd import *``.
    missing = [name for name in lfqkd.__all__ if not hasattr(lfqkd, name)]
    assert missing == []
    assert len(set(lfqkd.__all__)) == len(lfqkd.__all__)
