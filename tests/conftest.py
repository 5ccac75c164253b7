"""Shared helpers of the test suite: the golden corpus and one builder.

Test modules import them with ``from conftest import GOLDEN, kr``.
"""

from eqkr.groups import build_root_data
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
