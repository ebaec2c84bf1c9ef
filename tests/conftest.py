"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def empty_rank_store():
    """The prefix store (ranks, both check flags and the growth base beta),
    emptied before and after.

    A test that monkeypatches _necklace or homotopy_ranks takes this, so that
    no table or check outcome computed or skipped under the patch reaches
    another test and no outcome depends on which test ran first.  It yields
    the store.
    """
    from fourfold.ranks import _store

    _store.clear()
    yield _store
    _store.clear()
