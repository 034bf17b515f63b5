"""Fixtures shared by the counting and the writing tests of the worker pool."""

import concurrent.futures
from concurrent.futures import ProcessPoolExecutor

import pytest

from macroreal import _pool


@pytest.fixture
def two_workers(monkeypatch):
    """Run ``_pool.map`` through a pool of two workers, however many CPUs the host has.

    Returns the list of the worker counts of the pools started, so that a
    test can tell a pooled call from a serial one.
    """
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)
    started = []

    class RecordedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    return started
