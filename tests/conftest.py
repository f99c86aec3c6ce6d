"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

from swarm_mimo_sim import _kernels


@pytest.fixture
def inline_kernel(monkeypatch):
    """Call it to run the kernel's row blocks inline for the rest of the test.

    ``_block_pool`` then gives None, as on a process with one usable core, so
    every ``map_tasks`` caller runs its tasks in order on the calling thread.
    """
    return lambda: monkeypatch.setattr(_kernels, "_block_pool", lambda: None)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` gives ``(fn(), peak)``, with tracemalloc's peak in bytes while ``fn`` ran."""

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
