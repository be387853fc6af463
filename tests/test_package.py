"""The package's public surface."""

import lfqkd


def test_all_names_resolve_once():
    # A name left in __all__ after its definition is gone fails here, and so
    # does ``from lfqkd import *``.
    missing = [name for name in lfqkd.__all__ if not hasattr(lfqkd, name)]
    assert missing == []
    assert len(set(lfqkd.__all__)) == len(lfqkd.__all__)


def test_tracer_scaffolding_is_not_public():
    # Kept in lfqkd.rates and lfqkd.numerics for the benchmark tracer alone.
    assert not {"SystemParams", "binary_entropy"} & (set(lfqkd.__all__) | set(vars(lfqkd)))
