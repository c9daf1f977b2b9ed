"""Shared fixtures."""

import importlib
import pkgutil
from concurrent.futures import ThreadPoolExecutor

import pytest

import phaseproj
from phaseproj import kernels


def _package_caches():
    """Every functools.lru_cache of the package: each attribute of a
    phaseproj module that has cache_clear, found rather than listed, so
    that a cache added or deleted needs no edit here."""
    caches = set()
    for info in pkgutil.iter_modules(phaseproj.__path__):
        module = importlib.import_module(f"phaseproj.{info.name}")
        caches.update(value for value in vars(module).values() if hasattr(value, "cache_clear"))
    return caches


PACKAGE_CACHES = _package_caches()


def _clear_package_caches():
    for cache in PACKAGE_CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def fresh_kernel_caches():
    """Every test starts and ends with empty kernel and grid-array
    caches, so no test depends on what an earlier one built."""
    _clear_package_caches()
    yield
    _clear_package_caches()


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
    """pool(k) puts a k-worker RecordingPool in place of the executor that
    fills the sinc-profile tables."""
    made = []

    def install(workers):
        made.append(RecordingPool(workers))
        monkeypatch.setattr(kernels, "_POOL", made[-1])
        return made[-1]

    yield install
    for executor in made:
        executor.shutdown()
