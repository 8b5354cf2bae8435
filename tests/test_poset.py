"""Poset construction, tree parsing, and the leaf-interval machinery.

Exhaustive cross-checks run against the naive implementations in oracles.py
over every plane tree with at most MAX_N nodes.
"""

import itertools
import random
from enum import IntEnum

import pytest

import oracles
import treerow
from treerow import (
    Poset,
    RootedTree,
    SpecParseError,
    chain_product,
    count_antichains,
    down_set,
    interval_partition,
    intervals,
    linear_extension,
    parse_tree,
)

MAX_N = 8

ALL_TREES = [
    (parents, RootedTree(parents))
    for n in range(1, MAX_N + 1)
    for parents in oracles.parent_vectors(n)
]

STAR_332 = "((())(())())"


class TestParseTree:
    def test_roundtrip(self):
        for spec in ["()", "(())", "(()())", STAR_332, "(((()())(()())))"]:
            assert parse_tree(spec).to_spec() == spec

    def test_whitespace_ignored(self):
        assert parse_tree(" ( () ( ) ) ").to_spec() == "(()())"

    def test_all_small_trees_roundtrip(self):
        for parents, tree in ALL_TREES:
            again = parse_tree(tree.to_spec())
            assert again.parents == tree.parents == tuple(parents)

    @pytest.mark.parametrize(
        "bad", ["", "(()", "())(", "()()", "(a)", ")(", "(()))"]
    )
    def test_parse_errors(self, bad):
        with pytest.raises(SpecParseError):
            parse_tree(bad)

    def test_parent_table_must_be_preorder(self):
        with pytest.raises(ValueError):
            RootedTree([None, 0, 0, 1])  # parent 1 is not on node 2's path
        with pytest.raises(ValueError):
            RootedTree([0])
        with pytest.raises(ValueError):
            RootedTree([None, None])
        with pytest.raises(ValueError):
            RootedTree([None, 2, 0])  # a parent past its child
        with pytest.raises(ValueError):
            RootedTree([None, 1])  # a node its own parent
        with pytest.raises(ValueError):
            RootedTree([None, -1])

    @pytest.mark.parametrize("parent", [True, False, 0.0, 1.0, "0"])
    def test_parents_are_ints(self, parent):
        # True would otherwise stand for parent 1
        with pytest.raises(ValueError, match="of node 2 is not an int"):
            RootedTree([None, 0, parent])


class TestPoset:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Poset(2, [(0, 1), (1, 0)])

    def test_redundant_cover_rejected(self):
        with pytest.raises(ValueError):
            Poset(3, [(0, 1), (1, 2), (0, 2)])
        cases = [
            (0, [], "at least one element"),
            (2, [(0, 5)], r"cover \(0,5\) out of range"),
            (2, [(1, 1)], r"reflexive cover \(1,1\)"),
            # False and True would otherwise stand for 0 and 1
            (2, [(False, True)], "cover end False is not an int"),
            (3, [(0, 1.0)], r"cover end 1\.0 is not an int"),
        ]
        for n, covers, message in cases:
            with pytest.raises(ValueError, match=message):
                Poset(n, covers)

    def test_le_and_extremes(self):
        p = Poset(4, [(0, 2), (1, 2), (2, 3)])
        assert p.le(0, 3) and p.le(1, 2) and not p.le(0, 1)
        assert p.minimal_elements() == {0, 1}
        assert p.maximal_elements() == {3}

    def test_grid_matches_oracle(self):
        for pq in [(1, 1), (2, 2), (2, 3), (3, 3)]:
            g = chain_product(*pq)
            rel = oracles.grid_relations(*pq)
            for a, b in itertools.permutations(range(g.n), 2):
                assert g.le(a, b) == ((a, b) in rel)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            chain_product(0, 3)

    @pytest.mark.parametrize(
        "p, q, message",
        [(True, 2, "chain length True"), (2, 1.5, r"chain length 1\.5")],
    )
    def test_grid_sides_are_ints(self, p, q, message):
        with pytest.raises(ValueError, match=message + " is not an int"):
            chain_product(p, q)

    def test_covers_given_shuffled_come_out_sorted(self):
        # the cover tables are appended in the order of the sorted covers
        rng = random.Random(5)
        posets = [chain_product(2, 3), chain_product(3, 4), parse_tree("(()()(()())()())")]
        for base in posets:
            for _ in range(5):
                covers = list(base.covers)
                rng.shuffle(covers)
                poset = Poset(base.n, covers)
                assert poset.covers == base.covers
                for table in (poset.lower_covers, poset.upper_covers):
                    assert all(list(v) == sorted(v) for v in table)
                for x in range(base.n):
                    assert set(poset.lower_covers[x]) == {a for a, b in covers if b == x}
                    assert set(poset.upper_covers[x]) == {b for a, b in covers if a == x}


class TestIntervals:
    def test_star_332_branches(self):
        tree = parse_tree(STAR_332)
        specs = {s.interval: s for s in intervals(tree)}
        assert set(specs) == {(1, 1), (2, 2), (3, 3), (1, 3)}
        assert specs[(1, 3)].nodes == (0,)
        assert specs[(1, 1)].nodes == (2, 1)  # deepest first
        assert specs[(3, 3)].beta == 1

    def test_interval_family_matches_oracle(self):
        for parents, tree in ALL_TREES:
            iv = oracles.leaf_intervals(parents)
            grouped = {}
            for x, i in iv.items():
                grouped.setdefault(i, []).append(x)
            assert set(tree.interval_specs) == set(grouped)
            for i, nodes in grouped.items():
                spec = tree.interval_specs[i]
                assert spec.beta == len(nodes)
                assert sorted(spec.nodes) == sorted(nodes)
                # deepest first means decreasing preorder id along a chain
                assert list(spec.nodes) == sorted(nodes, reverse=True)

    def test_branches_in_increasing_order_of_top(self):
        # poset._fold walks interval_specs backwards to meet every child
        # branch before its parent
        for _, tree in ALL_TREES:
            tops = [spec.nodes[-1] for spec in tree.interval_specs.values()]
            assert tops == sorted(set(tops))

    def test_interval_ends_by_start_are_strictly_descending(self):
        # interval_partition takes the first end that fits as the largest
        for _, tree in ALL_TREES:
            ends = {}
            for lo, hi in tree.interval_specs:
                ends.setdefault(lo, set()).add(hi)
            assert set(tree._starts) == set(ends) == set(range(1, tree.n_leaves + 1))
            for lo, his in tree._starts.items():
                assert his == sorted(ends[lo], reverse=True)

    def test_branches_are_chains(self):
        for parents, tree in ALL_TREES:
            rel = oracles.relations_from_parents(parents)
            for spec in tree.interval_specs.values():
                for shallow, deep in zip(spec.nodes[1:], spec.nodes):
                    assert (shallow, deep) in rel

    def test_family_is_laminar_with_singletons(self):
        for _, tree in ALL_TREES:
            family = set(tree.interval_specs)
            for k in range(1, tree.n_leaves + 1):
                assert (k, k) in family
            assert (1, tree.n_leaves) in family
            for (a, b), (c, d) in itertools.combinations(family, 2):
                nested = (a <= c and d <= b) or (c <= a and b <= d)
                disjoint = b < c or d < a
                assert nested or disjoint


class TestIntervalPartition:
    def test_star_332(self):
        tree = parse_tree(STAR_332)
        assert interval_partition(tree, (1, 3), proper=True) == (
            (1, 1),
            (2, 2),
            (3, 3),
        )
        assert interval_partition(tree, (2, 3)) == ((2, 2), (3, 3))

    def test_coarsest_against_exhaustive_search(self):
        """The returned partition must be refined by every tiling of the
        same segment, for every segment of every small tree."""
        for parents, tree in ALL_TREES:
            family = sorted(tree.interval_specs)
            for lo in range(1, tree.n_leaves + 1):
                for hi in range(lo, tree.n_leaves + 1):
                    tilings = oracles.interval_tilings(family, lo, hi)
                    assert tilings, (tree.to_spec(), lo, hi)
                    got = interval_partition(tree, (lo, hi))
                    assert got in [tuple(t) for t in tilings]
                    for other in tilings:
                        for a, b in other:
                            assert any(c <= a and b <= d for c, d in got)

    def test_proper_excludes_trivial_block(self):
        for parents, tree in ALL_TREES:
            for iv, spec in tree.interval_specs.items():
                if iv[0] == iv[1]:
                    continue
                blocks = interval_partition(tree, iv, proper=True)
                assert iv not in blocks
                assert len(blocks) >= 2

    def test_errors(self):
        tree = parse_tree(STAR_332)
        with pytest.raises(ValueError):
            interval_partition(tree, (0, 2))
        with pytest.raises(ValueError):
            interval_partition(tree, (1, 1), proper=True)
        with pytest.raises(ValueError):
            interval_partition(tree, (2, 3), proper=True)  # not a tree interval
        # a leaf 1.5 starts no interval, and True would pass for leaf 1;
        # (True, 3) and (1.0, 3) equal (1, 3), which the memo now holds
        assert interval_partition(tree, (1, 3), proper=True) == ((1, 1), (2, 2), (3, 3))
        with pytest.raises(ValueError, match=r"interval end 1\.5 is not an int"):
            interval_partition(tree, (1.5, 2))
        for end in (True, 1.0):
            with pytest.raises(ValueError, match=f"interval end {end!r} is not an int"):
                interval_partition(tree, (end, 3), proper=True)


class TestEnumerationHelpers:
    def test_count_antichains_matches_oracle(self):
        for parents, tree in ALL_TREES:
            rel = oracles.relations_from_parents(parents)
            assert tree.count_antichains() == len(oracles.antichains(tree.n, rel))
            assert count_antichains(tree) == tree.count_antichains()

    def test_down_set_matches_oracle(self):
        for parents, tree in ALL_TREES:
            rel = oracles.relations_from_parents(parents)
            for x in range(tree.n):
                assert down_set(tree, [x]) == oracles.downset(tree.n, rel, [x])
            assert down_set(tree, range(tree.n)) == frozenset(range(tree.n))

    def test_down_set_unknown_node(self):
        with pytest.raises(ValueError):
            down_set(parse_tree("()"), [3])

    def test_linear_extension_is_identity_on_trees(self):
        # preorder ids are already a linear extension, and the smallest one
        for _, tree in ALL_TREES[:200]:
            assert linear_extension(tree) == tuple(range(tree.n))

    def test_linear_extension_on_grids(self):
        for pq in [(2, 2), (2, 3), (3, 3)]:
            g = chain_product(*pq)
            ext = linear_extension(g)
            assert sorted(ext) == list(range(g.n))
            rel = oracles.grid_relations(*pq)
            for a, b in rel:
                assert ext.index(a) < ext.index(b)

    def test_linear_extension_is_the_smallest_and_computed_once(self):
        # smallest id first gives the lexicographically smallest extension;
        # relabeling at random keeps the identity from being one
        rng = random.Random(144)
        for n in range(1, 6):
            for natural in oracles.all_posets(n):
                perm = rng.sample(range(n), n)
                rel = {(perm[a], perm[b]) for a, b in natural}
                poset = Poset(n, oracles.covers_of(n, rel))
                ext = linear_extension(poset)
                assert ext == min(oracles.linear_extensions(n, rel)), rel
                assert linear_extension(poset) is ext


class One(IntEnum):
    ONE = 1


CHERRY = parse_tree("(()())")
PATH3 = chain_product(1, 3)

# Every integer entry point, given the value 1 in the form ``one``; each
# must refuse a bool, a float and an int subclass alike.
INT_ENTRY_POINTS = {
    "Poset n": lambda one: Poset(one, []),
    "Poset cover end": lambda one: Poset(2, [(0, one)]),
    "RootedTree parent": lambda one: RootedTree([None, 0, one]),
    "toggle node": lambda one: treerow.toggle(CHERRY, [], one),
    "down_set node": lambda one: down_set(CHERRY, [one]),
    "Orbit member": lambda one: treerow.Orbit([[one]]),
    "Statistic node": lambda one: treerow.Statistic.chi_x(one),
    "interval end": lambda one: interval_partition(CHERRY, (one, 2)),
    "rho_via_toggles extension": lambda one: treerow.rho_via_toggles(
        PATH3, [], [0, one, 2]
    ),
    "pl_rowmotion extension": lambda one: treerow.pl_rowmotion(
        PATH3, treerow.indicator_point(PATH3, []), [0, one, 2]
    ),
    "birational_rowmotion extension": lambda one: treerow.birational_rowmotion(
        PATH3, treerow.LabeledPoint(PATH3, (1, 1, 1)), [0, one, 2]
    ),
    "all_orbits budget": lambda one: treerow.all_orbits(CHERRY, budget=one),
    "enumerate_antichains budget": lambda one: treerow.enumerate_antichains(
        CHERRY, budget=one
    ),
    "check_homomesy budget": lambda one: treerow.check_homomesy(
        CHERRY, treerow.Statistic.chi(), budget=one
    ),
    "check_homometry budget": lambda one: treerow.check_homometry(
        CHERRY, treerow.Statistic.chi(), budget=one
    ),
    "observed_profile budget": lambda one: treerow.observed_profile(
        CHERRY, budget=one
    ),
    "verify_family budget": lambda one: treerow.verify_family(
        treerow.Comb(2), budget=one
    ),
    "chain length": lambda one: treerow.chain(one),
    "chain_product side": lambda one: chain_product(one, 2),
    "graft root branch": lambda one: treerow.graft(CHERRY, CHERRY, one),
    "family parameter": lambda one: treerow.Comb(one),
    "combine_profiles root branch": lambda one: treerow.combine_profiles(
        treerow.predicted_profile(treerow.Comb(1)),
        treerow.predicted_profile(treerow.Comb(1)),
        one,
    ),
    "extend_root_transfer": lambda one: treerow.extend_root_transfer(
        treerow.predicted_profile(treerow.Comb(1)), one
    ),
    "order_search max_iter": lambda one: treerow.order_search(
        CHERRY, rng=random.Random(0), max_iter=one
    ),
    "order_search max_retries": lambda one: treerow.order_search(
        CHERRY, rng=random.Random(0), max_retries=one
    ),
    "order_search p": lambda one: treerow.order_search(
        CHERRY, rng=random.Random(0), p=one
    ),
    "LabeledPoint modulus": lambda one: treerow.LabeledPoint(
        CHERRY, (1, 2, 3), "modp", one
    ),
    "LabeledPoint mod-p value": lambda one: treerow.LabeledPoint(
        CHERRY, (one, 2, 3), "modp", 7
    ),
}


@pytest.mark.parametrize("one", [True, 1.0, One.ONE], ids=["bool", "float", "IntEnum"])
@pytest.mark.parametrize("entry", INT_ENTRY_POINTS.values(), ids=INT_ENTRY_POINTS)
def test_every_integer_entry_point_takes_plain_ints_only(entry, one):
    with pytest.raises(ValueError, match="is not an int"):
        entry(one)
