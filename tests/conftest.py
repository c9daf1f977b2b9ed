"""Shared fixtures."""

import importlib
import pkgutil

import pytest

import phaseproj


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
