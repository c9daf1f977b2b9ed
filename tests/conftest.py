"""Shared fixtures."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from phaseproj import grid, kernels


def _clear_kernel_caches():
    grid._first_equal.cache_clear()
    kernels.build_dictionary.cache_clear()
    kernels._periodized_sinc_power.cache_clear()
    kernels.class_envelope.cache_clear()
    kernels.forbidden_frequencies.cache_clear()
    kernels.tau_multiplier.cache_clear()
    kernels.psi_cone_multiplier.cache_clear()


@pytest.fixture(autouse=True)
def fresh_kernel_caches():
    """Every test starts and ends with empty kernel and grid-array
    caches, so no test depends on what an earlier one built."""
    _clear_kernel_caches()
    yield
    _clear_kernel_caches()


class RecordingPool(ThreadPoolExecutor):
    """A thread pool that keeps every task it was given."""

    def __init__(self, workers):
        super().__init__(workers)
        self.tasks = []

    def submit(self, fn, *args, **kwargs):
        task = super().submit(fn, *args, **kwargs)
        self.tasks.append(task)
        return task


@pytest.fixture
def pool(monkeypatch):
    """pool(k) puts a k-worker RecordingPool in place of the norm pool."""
    made = []

    def install(workers):
        made.append(RecordingPool(workers))
        monkeypatch.setattr(grid, "_POOL", (made[-1], workers))
        return made[-1]

    yield install
    for executor in made:
        executor.shutdown()
