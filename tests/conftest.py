"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def empty_rank_store():
    """The rank prefix store, emptied before and after the test.

    A test that monkeypatches _necklace or homotopy_ranks takes this, so that
    no table computed or skipped under the patch reaches another test and no
    outcome depends on which test ran first.
    """
    from fourfold.ranks import _store

    _store.clear()
    yield _store
    _store.clear()
