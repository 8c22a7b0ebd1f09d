"""Test setup shared by ``tests/`` and ``perfbench/``: every test starts with
the receive side's table caches cold, as a fresh benchmark process does, so
that a check of how much of a traced sweep the traced stages cover reads the
same whichever tests ran before it."""

import pytest

from otfsync import sync


@pytest.fixture(autouse=True)
def cold_receive_caches():
    sync._cached_bundle.cache_clear()
    sync.lag_tables.cache_clear()
