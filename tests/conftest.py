"""Shared fixtures."""

import pytest


@pytest.fixture
def cold():
    """cold(table) empties a memo table for one test; every table emptied
    this way gets its entries back afterwards."""
    saved = []

    def empty(table: dict) -> None:
        saved.append((table, dict(table)))
        table.clear()

    yield empty
    for table, entries in reversed(saved):
        table.clear()
        table.update(entries)
