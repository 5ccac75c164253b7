"""Shared helpers of the test suite: the golden corpus and one builder.

Test modules import them with ``from conftest import GOLDEN, kr``.
The fixture ``cold_kernel_caches`` is found by name.
"""

import pytest

from eqkr.groups import _KERNEL_CACHES, build_root_data
from eqkr.presentation import build_kr_presentation
from eqkr.realstruct import Involution

# the five group/involution pairs whose compute bytes perfbench/reference pins
GOLDEN = [("SU2", "trivial"), ("SU3", "sigmaR"), ("SU4", "sigmaH"),
          ("Sp2", "trivial"), ("SU3", "trivial")]


def kr(name, kind):
    """KR*_G(G^-) for a group spec and an involution name (or one name
    per factor)."""
    rd = build_root_data(name)
    return build_kr_presentation(rd, Involution(rd, kind))


@pytest.fixture
def cold_kernel_caches():
    """Empty the process-wide kernel caches before and after the test.

    They are keyed on the shared root-data objects, so a test that patches
    a root-data method would otherwise read answers computed before the
    patch, and leave answers computed under it to later tests."""
    for cache in _KERNEL_CACHES:
        cache.cache_clear()
    yield
    for cache in _KERNEL_CACHES:
        cache.cache_clear()
