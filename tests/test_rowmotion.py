"""Rowmotion, toggles, and orbit enumeration against the naive oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from treerow import (
    BudgetExceededError,
    Orbit,
    Poset,
    RootedTree,
    all_orbits,
    enumerate_antichains,
    linear_extension,
    make_family,
    orbit_of,
    parse_family,
    parse_tree,
    rho_antichain,
    rho_ideal,
    rho_via_toggles,
    toggle,
)
from treerow import rowmotion

TREES = [
    (parents, RootedTree(parents))
    for n in range(1, 8)
    for parents in oracles.parent_vectors(n)
]

# S(3,3,2): root 0, chains 1<2, 3<4, and 5.  One full trip of the orbit
# through the empty antichain, worked by hand.
STAR_332 = "((())(())())"
HAND_ORBIT = [
    set(),
    {0},
    {1, 3, 5},
    {2, 4},
    {5},
    {1, 3},
    {2, 4, 5},
]


class TestRho:
    def test_hand_worked_star_orbit(self):
        tree = parse_tree(STAR_332)
        for cur, nxt in zip(HAND_ORBIT, HAND_ORBIT[1:] + HAND_ORBIT[:1]):
            assert rho_antichain(tree, cur) == nxt

    def test_matches_oracle_on_all_small_trees(self):
        for parents, tree in TREES:
            rel = oracles.relations_from_parents(parents)
            for a in oracles.antichains(tree.n, rel):
                assert rho_antichain(tree, a) == oracles.rho(tree.n, rel, a)

    def test_matches_oracle_on_general_posets(self):
        for n in range(1, 5):
            for rel in oracles.all_posets(n):
                poset = Poset(n, oracles.covers_of(n, rel))
                for a in oracles.antichains(n, rel):
                    assert rho_antichain(poset, a) == oracles.rho(n, rel, a)

    def test_is_a_bijection(self):
        for parents, tree in TREES:
            rel = oracles.relations_from_parents(parents)
            chains = oracles.antichains(tree.n, rel)
            images = {rho_antichain(tree, a) for a in chains}
            assert len(images) == len(chains)

    def test_rejects_non_antichain(self):
        tree = parse_tree(STAR_332)
        with pytest.raises(ValueError):
            rho_antichain(tree, {1, 2})
        with pytest.raises(ValueError):
            rho_antichain(tree, {0, 5})
        with pytest.raises(ValueError):
            rho_antichain(tree, {99})


class TestRhoIdeal:
    def test_matches_oracle(self):
        for parents, tree in TREES:
            rel = oracles.relations_from_parents(parents)
            for ideal in oracles.ideals(tree.n, rel):
                assert rho_ideal(tree, ideal) == oracles.rho_ideal(tree.n, rel, ideal)

    def test_conjugate_of_antichain_rowmotion(self):
        # rho_ideal(A down-set) = down-set of rho(A)
        from treerow import down_set

        for parents, tree in TREES:
            rel = oracles.relations_from_parents(parents)
            for a in oracles.antichains(tree.n, rel):
                left = rho_ideal(tree, down_set(tree, a))
                assert left == down_set(tree, rho_antichain(tree, a))

    def test_on_general_posets(self):
        for n in range(1, 5):
            for rel in oracles.all_posets(n):
                poset = Poset(n, oracles.covers_of(n, rel))
                for ideal in oracles.ideals(n, rel):
                    assert rho_ideal(poset, ideal) == oracles.rho_ideal(n, rel, ideal)

    def test_rejects_non_ideal(self):
        tree = parse_tree(STAR_332)
        with pytest.raises(ValueError):
            rho_ideal(tree, {1, 2})  # missing the root


class TestToggles:
    def test_toggle_is_an_involution(self):
        for parents, tree in TREES[:100]:
            rel = oracles.relations_from_parents(parents)
            for ideal in oracles.ideals(tree.n, rel):
                for x in range(tree.n):
                    once = toggle(tree, ideal, x)
                    assert toggle(tree, once, x) == ideal
                    assert once.symmetric_difference(ideal) <= {x}

    def test_rho_via_toggles_equals_rho_ideal(self):
        for parents, tree in TREES:
            rel = oracles.relations_from_parents(parents)
            ext = linear_extension(tree)
            for ideal in oracles.ideals(tree.n, rel):
                assert rho_via_toggles(tree, ideal, ext) == rho_ideal(tree, ideal)

    def test_every_extension_gives_the_same_map(self):
        for parents, tree in TREES:
            if tree.n > 5:
                continue
            rel = oracles.relations_from_parents(parents)
            exts = oracles.linear_extensions(tree.n, rel)
            for ideal in oracles.ideals(tree.n, rel):
                expect = rho_ideal(tree, ideal)
                for ext in exts:
                    assert rho_via_toggles(tree, ideal, ext) == expect

    def test_random_large_triples(self):
        rng = random.Random(20240817)
        for _ in range(100):
            n = rng.randint(9, 14)
            parents = oracles.random_parents(rng, n)
            tree = RootedTree(parents)
            rel = oracles.relations_from_parents(parents)
            seed = frozenset(
                x for x in range(n) if rng.random() < 0.4
            )
            ideal = oracles.downset(n, rel, seed)
            ext = oracles.random_linear_extension(rng, n, rel)
            assert rho_via_toggles(tree, ideal, ext) == rho_ideal(tree, ideal)

    def test_every_small_poset_against_the_oracle(self):
        """Toggles and their sweeps on every poset with at most 5 elements,
        not only trees, along random linear extensions."""
        rng = random.Random(1597)
        for n in range(1, 6):
            for rel in oracles.all_posets(n):
                poset = Poset(n, oracles.covers_of(n, rel))
                for ideal in oracles.ideals(n, rel):
                    for x in range(n):
                        want = oracles.toggle(n, rel, ideal, x)
                        assert toggle(poset, ideal, x) == want, (rel, ideal, x)
                    want = oracles.rho_ideal(n, rel, ideal)
                    ext = oracles.random_linear_extension(rng, n, rel)
                    assert rho_via_toggles(poset, ideal, ext) == want, (rel, ideal, ext)
                    assert rho_via_toggles(poset, ideal, None) == want

    def test_extension_validation(self):
        tree = parse_tree(STAR_332)
        with pytest.raises(ValueError):
            rho_via_toggles(tree, set(), [0, 0, 1, 2, 3, 4])
        with pytest.raises(ValueError):
            rho_via_toggles(tree, set(), [1, 0, 2, 3, 4, 5])  # root after child
        with pytest.raises(ValueError, match="unknown node id 5"):
            toggle(parse_tree("(()())"), set(), 5)


class TestOrbits:
    def test_orbit_canonical_rotation(self):
        cyc = [frozenset({2, 4}), frozenset(), frozenset({0})]
        orb = Orbit.from_cycle(cyc)
        assert orb.antichains[0] == frozenset()
        assert orb.antichains == (frozenset(), frozenset({0}), frozenset({2, 4}))
        assert orb.size == 3 and orb.delta == 1
        # ids at and past the largest code point still rotate by value
        top = 0x10FFFF
        cycles = [
            [{top - 1}, {top}],
            [{top + 1}, {top}],
            [{2 * top}, {top + 5}],
            [{top, top + 2}, {top, top + 1, 5 * top}, {top}],
            [{top, top + 2}, {top, top + 1, 5 * top}],
        ]
        for cycle in cycles:
            first = min(cycle, key=sorted)
            for i in range(len(cycle)):
                orb = Orbit.from_cycle(cycle[i:] + cycle[:i])
                assert orb.antichains[0] == first

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.frozensets(
                st.integers(0, 40) | st.integers(0x10FFFF - 3, 0x10FFFF + 3),
                max_size=4,
            ),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    def test_orbit_rotation_is_lex_smallest(self, cycle):
        # small id ranges make prefix pairs such as {a} and {a, b} common
        first = min(cycle, key=sorted)
        for i in range(len(cycle)):
            orb = Orbit.from_cycle(cycle[i:] + cycle[:i])
            assert orb.antichains[0] == first

    def test_orbit_rejects_repeats(self):
        with pytest.raises(ValueError):
            Orbit((frozenset(), frozenset({1}), frozenset()))

    def test_orbit_rejects_no_members(self):
        with pytest.raises(ValueError, match="at least one member"):
            Orbit([])
        with pytest.raises(ValueError, match="at least one member"):
            Orbit.from_cycle([])

    def test_orbit_of_matches_oracle(self):
        for parents, tree in TREES:
            rel = oracles.relations_from_parents(parents)
            for a in oracles.antichains(tree.n, rel):
                expect = oracles.orbit(tree.n, rel, a)
                got = orbit_of(tree, a)
                assert got.size == len(expect)
                assert set(got.antichains) == set(expect)

    def test_all_orbits_partitions_the_antichains(self):
        for parents, tree in TREES:
            rel = oracles.relations_from_parents(parents)
            chains = set(oracles.antichains(tree.n, rel))
            orbits = all_orbits(tree)
            seen = [a for o in orbits for a in o.antichains]
            assert len(seen) == len(chains)
            assert set(seen) == chains
            # exactly one orbit holds both the empty antichain and {root}
            deltas = [o for o in orbits if o.delta]
            assert len(deltas) == 1
            assert frozenset() in deltas[0].antichains
            assert frozenset({0}) in deltas[0].antichains

    def test_orbit_order_is_by_representative(self):
        for _, tree in TREES[:200]:
            orbits = all_orbits(tree)
            reps = [tuple(sorted(o.antichains[0])) for o in orbits]
            assert reps == sorted(reps)
            assert reps[0] == ()

    def test_orbit_views_agree(self):
        """Every orbit of every plane tree with at most 8 nodes: rebuilt
        from its antichains, from any rotation, or from any member, it is
        the orbit all_orbits gave, and its two decoded views agree."""
        for n in range(1, 9):
            for parents in oracles.parent_vectors(n):
                tree = RootedTree(parents)
                for o in all_orbits(tree):
                    members = o.antichains
                    rebuilt = Orbit(members)
                    assert rebuilt == o and hash(rebuilt) == hash(o)
                    for i in range(o.size):
                        rotated = members[i:] + members[:i]
                        assert Orbit.from_cycle(rotated) == o
                        assert orbit_of(tree, members[i]) == o
                    assert o.as_id_lists() == [sorted(a) for a in members]

    def test_enumerate_antichains_sorted_and_complete(self):
        for parents, tree in TREES:
            rel = oracles.relations_from_parents(parents)
            got = enumerate_antichains(tree)
            assert got == sorted(
                oracles.antichains(tree.n, rel), key=sorted
            )
        # the order, and orbit_of's rotation, on every plane tree with at
        # most 9 nodes, and on ids past one byte
        wide = [
            RootedTree(parents)
            for n in range(1, 10)
            for parents in oracles.parent_vectors(n)
        ]
        wide += [
            parse_tree("(" * 600 + ")" * 600),
            make_family(parse_family("star:60,61")),
        ]
        for tree in wide:
            got = enumerate_antichains(tree)
            assert got == sorted(got, key=sorted)
            assert len(got) == tree.count_antichains()
            for orbit in all_orbits(tree):
                members = orbit_of(tree, orbit.antichains[-1]).antichains
                assert members[0] == min(members, key=sorted)

    def test_budget_enforced_before_enumeration(self):
        wide = parse_tree("(" + "()" * 25 + ")")  # 2^25 + 1 antichains
        with pytest.raises(BudgetExceededError) as err:
            enumerate_antichains(wide)
        assert err.value.needed == 2**25 + 1
        assert err.value.budget == 10**6
        with pytest.raises(BudgetExceededError):
            all_orbits(parse_tree(STAR_332), budget=10)
        assert len(all_orbits(parse_tree(STAR_332), budget=19)) == 3

    def test_budget_refusal_of_a_count_too_long_to_print(self):
        # 2^14300 + 1 antichains: 4,305 digits, past the 4,300 that Python
        # writes in decimal
        flat = parse_tree("(" + "()" * 14300 + ")")
        with pytest.raises(BudgetExceededError) as err:
            all_orbits(flat, budget=10)
        assert err.value.needed == 2**14300 + 1
        assert err.value.budget == 10
        assert str(err.value) == (
            "enumeration needs at least 10^4304 antichains, budget is 10"
        )

    def test_budget_below_one_refused(self):
        tree = parse_tree("(())")
        for budget in (0, -1):
            with pytest.raises(ValueError, match="budget must be positive"):
                all_orbits(tree, budget=budget)
            with pytest.raises(ValueError, match="budget must be positive"):
                enumerate_antichains(tree, budget=budget)


def walked_orbits(tree):
    """The orbits as a lex walk of the antichains meets them: every
    antichain not yet seen starts a cycle traced by rowmotion steps.  The
    walk meets each orbit first at its lex-smallest member, so the cycles
    come out canonically rotated and in order."""
    seen = set()
    out = []
    for start in rowmotion._antichain_masks(tree, rowmotion.DEFAULT_ANTICHAIN_BUDGET):
        if start not in seen:
            cycle = rowmotion._cycle(tree, start)
            seen.update(cycle)
            out.append(cycle)
    return out


class TestOrbitsFromSubtrees:
    """`all_orbits` joins the subtrees' cycles; it must give exactly what
    the rowmotion walk gives, member for member and in the same order."""

    def test_every_plane_tree_up_to_ten_nodes(self):
        count = 0
        for n in range(1, 11):
            for parents in oracles.parent_vectors(n):
                tree = RootedTree(parents)
                got = [o.masks for o in all_orbits(tree)]
                assert got == walked_orbits(tree), tree.to_spec()
                count += 1
        assert count == 6918

    @pytest.mark.parametrize(
        "family",
        ["zipper:6", "star:5,7,8,9,11", "comb:12", "estar:b=500;2,3"],
    )
    def test_families(self, family):
        tree = make_family(parse_family(family))
        assert [o.masks for o in all_orbits(tree)] == walked_orbits(tree)

    @pytest.mark.parametrize("n", [600, 3000])
    def test_long_chains(self, n):
        tree = parse_tree("(" * n + ")" * n)
        (orbit,) = all_orbits(tree)
        assert orbit.masks == (0, *[1 << x for x in range(n)])
        assert [orbit.masks] == walked_orbits(tree)

    def test_sort_key_orders_masks_as_id_lists(self):
        masks = list(range(1, 1 << 11)) + [1 << 300, 1 << 300 | 5, 3 << 299]
        assert sorted(masks, key=rowmotion._lex_key) == sorted(
            masks, key=lambda m: [x for x in range(m.bit_length()) if m >> x & 1]
        )

    def test_takes_no_rowmotion_step(self, monkeypatch):
        def refused(*args):
            raise AssertionError("all_orbits stepped or walked the antichains")

        for name in ("_rho_mask", "_cycle", "_antichain_masks"):
            monkeypatch.setattr(rowmotion, name, refused)
        for spec in (STAR_332, "(())", "(()(()(()))())"):
            assert all_orbits(parse_tree(spec))
        assert len(all_orbits(make_family(parse_family("zipper:4")))) > 1

    def test_refusals_come_before_any_work(self, monkeypatch):
        joins = []
        monkeypatch.setattr(rowmotion, "_join", lambda *cycles: joins.append(cycles))
        tree = parse_tree(STAR_332)
        counted = []
        monkeypatch.setattr(tree, "count_antichains", lambda: counted.append(1))
        with pytest.raises(ValueError, match="budget must be positive"):
            all_orbits(tree, budget=0)
        assert counted == [] and joins == []
        cbt6 = make_family(parse_family("cbt:6"))
        with pytest.raises(BudgetExceededError) as err:
            all_orbits(cbt6)
        assert err.value.needed == cbt6.count_antichains() > 10**22
        assert joins == []
