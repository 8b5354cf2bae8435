"""Property-based checks over random trees, posets, and statistics."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from treerow import (
    Poset,
    RootedTree,
    Statistic,
    all_orbits,
    down_set,
    enumerate_antichains,
    ideal_of_indicator,
    indicator_point,
    orbit_sum,
    orbit_sums_from_tiling,
    parse_statistic,
    pl_rowmotion,
    rho_antichain,
    rho_ideal,
    rho_via_toggles,
    tiling_of_orbit,
    validate_tiling,
)
from treerow import stats
from treerow.errors import SpecParseError

ALL_POSETS = {
    n: [Poset(n, oracles.covers_of(n, rel)) for rel in oracles.all_posets(n)]
    for n in range(1, 6)
}


@st.composite
def trees(draw, max_n=9):
    """Random preorder parent tables: each new node hangs off the current
    root-to-last path, which is exactly the preorder condition."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    parents = [None]
    path = [0]
    for i in range(1, n):
        parent = draw(st.sampled_from(path))
        parents.append(parent)
        path = path[: path.index(parent) + 1] + [i]
    return RootedTree(tuple(parents))


@st.composite
def posets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return draw(st.sampled_from(ALL_POSETS[n]))


def antichain_from(poset, members):
    return {
        x
        for x in members
        if not any(y != x and poset.le(x, y) for y in members)
    }


def ideal_from(poset, members):
    out = set()
    for x in members:
        out.update(y for y in range(poset.n) if poset.le(y, x))
    return out


node_sets = st.sets(st.integers(min_value=0, max_value=63))


class TestRowmotionProperties:
    @settings(max_examples=60, deadline=None)
    @given(trees(max_n=8))
    def test_rho_permutes_the_antichains(self, tree):
        antichains = enumerate_antichains(tree)
        images = {rho_antichain(tree, a) for a in antichains}
        assert images == set(antichains)
        assert tree.count_antichains() == len(antichains)

    @settings(max_examples=80, deadline=None)
    @given(trees(), node_sets)
    def test_ideal_and_antichain_maps_are_conjugate(self, tree, raw):
        antichain = antichain_from(tree, {x % tree.n for x in raw})
        assert rho_ideal(tree, down_set(tree, antichain)) == down_set(
            tree, rho_antichain(tree, antichain)
        )

    @settings(max_examples=80, deadline=None)
    @given(trees(), node_sets, st.integers(min_value=0, max_value=10**6))
    def test_toggle_composite_is_extension_independent(self, tree, raw, seed):
        rng = random.Random(seed)
        rel = oracles.relations_from_parents(tree.parents)
        ext = oracles.random_linear_extension(rng, tree.n, rel)
        ideal = ideal_from(tree, {x % tree.n for x in raw})
        assert rho_via_toggles(tree, ideal, ext) == rho_ideal(tree, ideal)

    @settings(max_examples=80, deadline=None)
    @given(posets(), node_sets)
    def test_pl_map_extends_ideal_rowmotion(self, poset, raw):
        ideal = ideal_from(poset, {x % poset.n for x in raw})
        moved = pl_rowmotion(poset, indicator_point(poset, ideal))
        assert ideal_of_indicator(moved) == rho_ideal(poset, ideal)


class TestTilingProperties:
    @settings(max_examples=40, deadline=None)
    @given(trees(max_n=8), st.integers(min_value=0, max_value=10**6))
    def test_roundtrip_and_sums(self, tree, pick):
        orbits = all_orbits(tree)
        orbit = orbits[pick % len(orbits)]
        tiling = tiling_of_orbit(tree, orbit)
        assert validate_tiling(tree, tiling).ok
        sums = orbit_sums_from_tiling(tree, tiling)
        assert sums.chi == orbit_sum(tree, Statistic.chi(), orbit)
        assert sums.hatchi == orbit_sum(tree, Statistic.hatchi(), orbit)


ATOM = st.sampled_from(["chi", "hatchi", "chi_x", "hatchi_x"])
TERM = st.tuples(st.integers(min_value=-9, max_value=9), ATOM, st.integers(0, 30))


class TestStatisticProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(TERM, min_size=1, max_size=5))
    def test_spec_roundtrip(self, raw_terms):
        stat = combination(None, raw_terms)
        assert parse_statistic(stat.spec()) == stat

    @settings(max_examples=100, deadline=None)
    @given(st.lists(TERM, min_size=1, max_size=5), st.data())
    def test_spaces_between_tokens_never_inside_one(self, raw_terms, data):
        stat = combination(None, raw_terms)
        tokens = re.findall(r"[0-9]+|[a-z_]+|[-+*:]", stat.spec())
        n_gaps = len(tokens) + 1
        gaps = data.draw(
            st.lists(st.sampled_from(["", " ", "  "]), min_size=n_gaps, max_size=n_gaps)
        )
        spaced = "".join(g + t for g, t in zip(gaps, tokens)) + gaps[-1]
        assert parse_statistic(spaced) == stat
        i = data.draw(st.sampled_from([i for i, t in enumerate(tokens) if len(t) > 1]))
        cut = data.draw(st.integers(1, len(tokens[i]) - 1))
        tokens[i] = tokens[i][:cut] + " " + tokens[i][cut:]
        with pytest.raises(SpecParseError):
            parse_statistic("".join(tokens))

    @settings(max_examples=60, deadline=None)
    @given(trees(max_n=12), st.lists(TERM, min_size=1, max_size=5))
    def test_orbit_sums_from_the_build(self, tree, raw_terms):
        """The sums carried through the orbit build are the member-by-member
        sums, on random trees and random integer combinations."""
        stat = combination(tree, raw_terms)
        orbits, sums = stats._orbit_sums(tree, stat, 10**6)
        assert orbits == all_orbits(tree)
        assert sums == [sum(stats._term_sums(tree, stat, o.masks)) for o in orbits]

    @settings(max_examples=100, deadline=None)
    @given(trees(max_n=10), st.lists(TERM, min_size=1, max_size=5))
    def test_folded_sums_count_the_enumerated_ones(self, tree, raw_terms):
        """The class fold counts the orbits of each size and sum as the
        orbit build does, on random integer combinations."""
        stat = combination(tree, raw_terms)
        orbits, sums = stats._orbit_sums(tree, stat, 10**6)
        expected = Counter((o.size, s) for o, s in zip(orbits, sums))
        assert stats._folded_sums(tree, stat, 10**6) == expected


def combination(tree, raw_terms):
    """The statistic of ``TERM`` draws, node ids taken mod the tree's size
    (as drawn with no tree)."""
    n = tree.n if tree is not None else 31
    return Statistic(
        tuple(
            (c, a, node % n if a.endswith("_x") else None) for c, a, node in raw_terms
        )
    )
