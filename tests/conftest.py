"""Shared fixtures."""

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
