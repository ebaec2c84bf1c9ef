"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def empty_rank_store():
    """The prefix stores (ranks and both check flags), emptied before and after.

    A test that monkeypatches _necklace or homotopy_ranks takes this, so that
    no table or check outcome computed or skipped under the patch reaches
    another test and no outcome depends on which test ran first.  It yields
    the rank store.
    """
    from fourfold.ranks import _bound_store, _pbw_store, _store

    stores = (_store, _bound_store, _pbw_store)
    for store in stores:
        store.clear()
    yield _store
    for store in stores:
        store.clear()
