"""Property tests of the character kernel against independent models.

Random dominant weights of every simple family (dimension capped) must
satisfy the Weyl dimension formula through their orbit sums, give a
W-invariant character, and, for SU(n), agree with Kostka numbers counted
from semistandard tableaux, a model that shares no code with Freudenthal.
Random integer vectors pin each family's dominance test to the simple
coroot pairings.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from eqkr.groups import (
    _dominant_multiplicities,
    build_root_data,
    character,
    weyl_dimension,
)

GROUPS = ("SU2", "SU3", "SU4", "SU5", "SU6", "Sp2", "Sp3", "Sp4", "Spin7", "Spin8",
          "Spin9", "Spin10", "G2", "F4", "E6", "E7", "E8")
DIM_CAP = 1500


@lru_cache(maxsize=None)
def small_dominant_weights(name):
    """Every dominant weight of dimension <= DIM_CAP, in sorted order.

    Dimension grows with each label, so the set is closed under lowering
    a label and is found by raising labels from 0.
    """
    rd = build_root_data(name)
    found = {rd.zero()}
    todo = [rd.zero()]
    while todo:
        lam = todo.pop()
        for i in range(rd.rank):
            up = tuple(x + (j == i) for j, x in enumerate(lam))
            if up not in found and weyl_dimension(rd, up) <= DIM_CAP:
                found.add(up)
                todo.append(up)
    return sorted(found)


def group_and_weight(names):
    return st.sampled_from(names).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(small_dominant_weights(name))))


@given(group_and_weight(GROUPS))
@settings(max_examples=60, deadline=None)
def test_orbit_sum_of_multiplicities_is_weyl_dimension(case):
    name, lam = case
    rd = build_root_data(name)
    dom = _dominant_multiplicities(rd, lam)
    assert all(rd.is_dominant(mu) and m > 0 for mu, m in dom.items())
    assert sum(m * len(rd.orbit(mu)) for mu, m in dom.items()) == weyl_dimension(rd, lam)


@given(group_and_weight(GROUPS))
@settings(max_examples=60, deadline=None)
def test_character_is_weyl_invariant(case):
    name, lam = case
    rd = build_root_data(name)
    ch = character(rd, lam)
    for i in range(rd.n_simple()):
        assert all(ch.get(rd.reflect_simple(w, i)) == m for w, m in ch.items())


# every series A-G, E6-E8, U(n) and two products
DOMINANCE_GROUPS = ("SU4", "Spin7", "Sp3", "Spin8", "G2", "F4", "E6", "E7", "E8",
                    "U1", "U3", "SU3xU2", "Sp2xG2")


def random_vector(names):
    return st.sampled_from(names).flatmap(
        lambda name: st.tuples(st.just(name), st.tuples(
            *[st.integers(-3, 3)] * build_root_data(name).dim)))


@given(random_vector(DOMINANCE_GROUPS))
@settings(max_examples=200, deadline=None)
def test_is_dominant_is_the_simple_coroot_test(case):
    # each family tests dominance in its own coordinates; the definition
    # is <v, alpha_i^vee> >= 0 for every simple root, factor by factor.
    # The orbit's dominant member is tried too, so that both answers
    # occur on every family.
    name, v = case
    rd = build_root_data(name)
    top = rd.join([f.dominate(part) for f, part in zip(rd.factors, rd.split(v))])
    for w in (v, top):
        expected = all(f.pairing_simple(part, i) >= 0
                       for f, part in zip(rd.factors, rd.split(w))
                       for i in range(f.n_simple()))
        assert rd.is_dominant(w) == expected, w


# ---------------------------------------------------------------------------
# Kostka numbers from semistandard tableaux
# ---------------------------------------------------------------------------

def _horizontal_strips(shape, size):
    """Shapes inner with shape/inner a horizontal strip of the given size."""
    floors = shape[1:] + (0,)
    # room[i]: the most cells rows i, i+1, ... can give up together
    room = [sum(a - b for a, b in zip(shape[i:], floors[i:]))
            for i in range(len(shape) + 1)]

    def rows(i, left):
        if i == len(shape):
            if left == 0:
                yield ()
            return
        for take in range(max(0, left - room[i + 1]),
                          min(left, shape[i] - floors[i]) + 1):
            for rest in rows(i + 1, left - take):
                yield (shape[i] - take,) + rest
    return rows(0, size)


def kostka(shape, content):
    """Number of semistandard tableaux of the given shape and content.

    The entries equal to k of such a tableau form a horizontal strip, so
    peeling off the largest entry recursively counts the tableaux.
    """
    @lru_cache(maxsize=None)
    def count(inner, k):
        if k == 0:
            return int(not any(inner))
        return sum(count(smaller, k - 1)
                   for smaller in _horizontal_strips(inner, content[k - 1]))
    return count(tuple(shape), len(content))


def _partition(labels):
    """Dynkin labels of SU(n) as a partition with n parts (last part 0)."""
    return tuple(sum(labels[i:]) for i in range(len(labels))) + (0,)


def _partitions(total, parts, top):
    if parts == 0:
        if total == 0:
            yield ()
        return
    # the first part is the largest, so it is at least total / parts
    for first in range(min(total, top), -(-total // parts) - 1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def kostka_mismatches(lam, dominant_mults):
    """Dominant weights of V_lam (SU(n), Dynkin labels) whose multiplicity
    differs from the Kostka number; weights missing on either side count."""
    shape = _partition(lam)
    expected = {}
    for mu in _partitions(sum(shape), len(shape), shape[0]):
        k = kostka(shape, mu)
        if k:
            expected[tuple(a - b for a, b in zip(mu, mu[1:]))] = k
    return {mu for mu in expected.keys() | dominant_mults.keys()
            if expected.get(mu) != dominant_mults.get(mu)}


def test_kostka_hand_values():
    assert kostka((2, 1, 0), (1, 1, 1)) == 2
    assert kostka((2, 2, 0), (1, 1, 1, 1)) == 2
    assert kostka((3, 0), (1, 2)) == 1
    assert kostka((1, 1), (2, 0)) == 0


@given(group_and_weight(("SU2", "SU3", "SU4", "SU5", "SU6")))
@settings(max_examples=60, deadline=None)
def test_su_multiplicities_are_kostka_numbers(case):
    name, lam = case
    rd = build_root_data(name)
    assert kostka_mismatches(lam, _dominant_multiplicities(rd, lam)) == set()


def test_kostka_check_catches_an_off_by_one_multiplicity():
    rd = build_root_data("SU4")
    lam = (1, 0, 1)
    mults = dict(_dominant_multiplicities(rd, lam))
    assert kostka_mismatches(lam, mults) == set()
    mults[(0, 0, 0)] += 1
    assert kostka_mismatches(lam, mults) == {(0, 0, 0)}
