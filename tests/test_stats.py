"""Statistics, orbit sums via tilings, homomesy and homometry checks."""

import io
from collections import Counter
from contextlib import redirect_stdout
from enum import IntEnum
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest

import oracles
from treerow import (
    CompleteBinary,
    Orbit,
    RootedTree,
    Statistic,
    all_orbits,
    check_homometry,
    check_homomesy,
    down_set,
    eval_statistic,
    make_family,
    observed_profile,
    orbit_sum,
    orbit_sums_from_tiling,
    parse_family,
    parse_statistic,
    parse_tree,
    tiling_of_orbit,
)
from treerow import rowmotion
from treerow import stats as stats_module
from treerow.errors import BudgetExceededError, SpecParseError
from treerow.poset import _bits, _down_mask

STAR_332 = parse_tree("((())(())())")

TREES = [
    RootedTree(parents)
    for n in range(1, 8)
    for parents in oracles.parent_vectors(n)
]


class TestStatisticAlgebra:
    def test_constructors_and_spec(self):
        assert Statistic.chi().spec() == "1*chi"
        assert Statistic.hatchi_x(3).spec() == "1*hatchi_x:3"
        combo = 3 * Statistic.chi_x(4) + Statistic.chi_x(0) - 2 * Statistic.chi()
        assert combo.spec() == "3*chi_x:4+1*chi_x:0-2*chi"

    def test_parse_roundtrip(self):
        for text in (
            "chi",
            "hatchi",
            "chi_x:0",
            "3*chi_x:4+1*chi_x:0-2*chi",
            "-2*hatchi_x:1+5*hatchi",
        ):
            stat = parse_statistic(text)
            assert parse_statistic(stat.spec()) == stat

    def test_parse_accepts_spaces_and_bare_atoms(self):
        assert parse_statistic(" 2*chi + hatchi ") == Statistic(
            ((2, "chi", None), (1, "hatchi", None))
        )

    def test_spaces_stand_between_tokens(self):
        assert parse_statistic(" - 2 * hatchi_x : 3 + chi_x :0 ") == Statistic(
            ((-2, "hatchi_x", 3), (1, "chi_x", 0))
        )

    def test_spaces_never_split_a_token(self):
        # no longer read as chi_x:12, 20*chi, chi_x:3 and hatchi
        cases = (("chi_x:1 2", 8), ("2 0*chi", 0), ("chi _x:3", 4), ("hat chi", 0))
        for bad, pos in cases:
            with pytest.raises(SpecParseError) as exc:
                parse_statistic(bad)
            assert str(exc.value) == f"cannot parse statistic {bad!r} at position {pos}"

    def test_parse_errors(self):
        for bad in (
            "",
            "   ",
            "chi_x",
            "hatchi:3",
            "2chi",
            "chi_y",
            "chi+",
            "chi 3",
            "chi_x:\u0663",  # integers are ASCII decimal digits only
            "\u0663*chi",
            "2\u0663*chi",
            "hatchi_x:1\u0663",
        ):
            with pytest.raises(SpecParseError):
                parse_statistic(bad)

    def test_domain(self):
        assert Statistic.chi().domain == "antichain"
        assert Statistic.hatchi().domain == "ideal"
        assert (Statistic.hatchi() - Statistic.hatchi_x(0)).domain == "ideal"
        assert (Statistic.hatchi() - Statistic.chi()).domain == "antichain"

    def test_terms_normalised_to_tuples(self):
        listed = Statistic([[1, "chi", None]])
        assert listed.terms == ((1, "chi", None),)
        assert {listed, Statistic.chi()} == {Statistic.chi()}  # equal, hashable
        assert listed + Statistic.hatchi() == parse_statistic("chi+hatchi")
        assert Statistic.hatchi() + listed == parse_statistic("hatchi+chi")

    def test_bad_terms_rejected(self):
        with pytest.raises(ValueError):
            Statistic(((1, "size", None),))
        with pytest.raises(ValueError, match="^chi does not take a node id$"):
            Statistic(((1, "chi", 3),))
        with pytest.raises(ValueError, match="^chi_x needs a node id$"):
            Statistic(((1, "chi_x", None),))

    def test_no_terms_refused(self):
        # its spec would be '', which parse_statistic refuses
        with pytest.raises(ValueError, match="^a statistic needs at least one term$"):
            Statistic(())

    def test_parser_states_the_constructors_atom_node_rule(self):
        # one rule, the constructor's, reported as a parse error of the text
        for text, message in (
            ("chi_x", "chi_x needs a node id in 'chi_x'"),
            ("hatchi:3", "hatchi does not take a node id in 'hatchi:3'"),
            ("chi+2*hatchi_x", "hatchi_x needs a node id in 'chi+2*hatchi_x'"),
        ):
            with pytest.raises(SpecParseError) as exc:
                parse_statistic(text)
            assert str(exc.value) == message

    @pytest.mark.parametrize("coeff", [0.5, 1.0, True, False, Fraction(1), "1"])
    def test_coefficients_are_ints(self, coeff):
        # 0.5*chi would print a spec that parse_statistic refuses
        with pytest.raises(ValueError, match="coefficient .* is not an int"):
            Statistic(((coeff, "chi", None),))

    def test_scaling_by_a_non_integer_refused(self):
        with pytest.raises(ValueError, match="coefficient 0.5 is not an int"):
            0.5 * Statistic.hatchi_x(2)

    @pytest.mark.parametrize(
        "scale",
        [lambda s: s * True, lambda s: True * s, lambda s: s * False,
         lambda s: Small.TWO * s, lambda s: s * Small.TWO],
        ids=["s*True", "True*s", "s*False", "IntEnum*s", "s*IntEnum"],
    )
    def test_scaling_by_a_bool_or_int_enum_refused(self, scale):
        # k * c is a plain int again by the time a coefficient is checked
        with pytest.raises(ValueError, match="coefficient .* is not an int"):
            scale(Statistic.chi())

    def test_scaling_by_ints(self):
        chi_x = Statistic.chi_x(1)
        assert (chi_x * 2).terms == ((2, "chi_x", 1),)
        assert (-1 * chi_x).terms == ((-1, "chi_x", 1),)
        assert (Statistic.chi() - chi_x).terms == ((1, "chi", None), (-1, "chi_x", 1))

    @pytest.mark.parametrize("node", [True, False, 1.0, 0.5])
    def test_node_ids_are_ints(self, node):
        # True would otherwise stand for node 1
        for make in (Statistic.chi_x, Statistic.hatchi_x):
            with pytest.raises(ValueError, match="node id .* is not an int"):
                make(node)
        with pytest.raises(ValueError, match="node id .* is not an int"):
            Statistic(((1, "chi", None), (2, "chi_x", node)))


class Small(IntEnum):
    TWO = 2


class TestEval:
    def test_hand_values(self):
        members = {1, 3, 5}  # generates the ideal {0, 1, 3, 5}
        assert eval_statistic(STAR_332, Statistic.chi(), members) == 3
        assert eval_statistic(STAR_332, Statistic.chi_x(1), members) == 1
        assert eval_statistic(STAR_332, Statistic.chi_x(2), members) == 0
        # all-hatted statistics take the ideal itself
        assert eval_statistic(STAR_332, Statistic.hatchi(), {0, 1, 3, 5}) == 4
        assert eval_statistic(STAR_332, Statistic.hatchi_x(0), {0, 1, 3, 5}) == 1
        # a mixed statistic takes the antichain and reads hatted atoms
        # through its generated ideal
        combo = 2 * Statistic.hatchi() - 3 * Statistic.chi_x(5)
        assert eval_statistic(STAR_332, combo, members) == 5

    def test_ideal_statistics_accept_ideals(self):
        # all-hatted statistics read their argument as an ideal, so a
        # downward-closed set that is not an antichain is fine
        assert eval_statistic(STAR_332, Statistic.hatchi(), {0, 1, 2}) == 3
        with pytest.raises(ValueError):
            eval_statistic(STAR_332, Statistic.hatchi(), {1, 2})
        with pytest.raises(ValueError):
            eval_statistic(STAR_332, Statistic.chi(), {0, 1})

    def test_unknown_node(self):
        with pytest.raises(ValueError):
            eval_statistic(STAR_332, Statistic.chi_x(6), set())
        with pytest.raises(ValueError):
            eval_statistic(STAR_332, Statistic.hatchi_x(17), set())
        orbit = all_orbits(STAR_332)[0]
        with pytest.raises(ValueError, match="unknown node id 6"):
            orbit_sum(STAR_332, Statistic.hatchi() + Statistic.chi_x(6), orbit)
        with pytest.raises(ValueError, match="unknown node id 7"):
            orbit_sum(parse_tree("(()())"), Statistic.chi(), Orbit([{7}]))
        # the first unknown node in term order is the one named
        with pytest.raises(ValueError, match="unknown node id 9"):
            orbit_sum(STAR_332, Statistic.chi_x(9) + Statistic.hatchi_x(7), orbit)


class TestOrbitSums:
    def test_star_332_by_hand(self):
        orbits = all_orbits(STAR_332)
        assert [orbit_sum(STAR_332, Statistic.chi(), o) for o in orbits] == [12, 11, 11]
        assert [orbit_sum(STAR_332, Statistic.hatchi(), o) for o in orbits] == [21] * 3
        assert [orbit_sum(STAR_332, Statistic.hatchi_x(0), o) for o in orbits] == [
            6,
            6,
            6,
        ]

    def test_tiling_sums_match_direct_sums(self):
        """The four tile-count identities, on every orbit of every small tree."""
        for tree in TREES:
            for orbit in all_orbits(tree):
                sums = orbit_sums_from_tiling(tree, tiling_of_orbit(tree, orbit))
                assert sums.chi == orbit_sum(tree, Statistic.chi(), orbit)
                assert sums.hatchi == orbit_sum(tree, Statistic.hatchi(), orbit)
                for x in range(tree.n):
                    iv, _ = tree.branch_of[x]
                    assert sums.chi_x[iv] == orbit_sum(
                        tree, Statistic.chi_x(x), orbit
                    )
                    assert sums.hatchi_x[x] == orbit_sum(
                        tree, Statistic.hatchi_x(x), orbit
                    )


class TestHomomesy:
    def test_chi_is_not_homomesic_on_star(self):
        verdict = check_homomesy(STAR_332, Statistic.chi())
        assert not verdict.is_homomesic
        first, second = verdict.witness
        assert Fraction(orbit_sum(STAR_332, Statistic.chi(), first), first.size) == (
            Fraction(12, 7)
        )
        assert Fraction(orbit_sum(STAR_332, Statistic.chi(), second), second.size) == (
            Fraction(11, 6)
        )

    def test_same_branch_difference_is_zero_mesic(self):
        stat = Statistic.chi_x(2) - Statistic.chi_x(1)
        verdict = check_homomesy(STAR_332, stat)
        assert verdict.is_homomesic and verdict.constant == 0

    def test_weighted_combinations_on_star(self):
        # per-branch weight alpha_i makes chi_x + root membership 1-mesic,
        # and matched-depth hatted differences 0-mesic
        cases = [
            (3 * Statistic.chi_x(1) + Statistic.chi_x(0), 1),
            (3 * Statistic.chi_x(2) + Statistic.chi_x(0), 1),
            (2 * Statistic.chi_x(5) + Statistic.chi_x(0), 1),
            (3 * Statistic.chi_x(1) - 2 * Statistic.chi_x(5), 0),
            (3 * Statistic.hatchi_x(2) - Statistic.hatchi_x(0), 0),
            (3 * Statistic.hatchi_x(1) - 2 * Statistic.hatchi_x(0), 0),
            (3 * Statistic.hatchi_x(2) - 2 * Statistic.hatchi_x(5), 0),
        ]
        for stat, constant in cases:
            verdict = check_homomesy(STAR_332, stat)
            assert verdict.is_homomesic, stat.spec()
            assert verdict.constant == constant, stat.spec()

    def test_depth_mismatch_breaks_homomesy(self):
        # node 1 sits one step higher than node 5, so the matched-depth
        # combination above fails when the depths differ
        verdict = check_homomesy(STAR_332, 3 * Statistic.hatchi_x(1) - 2 * Statistic.hatchi_x(5))
        assert not verdict.is_homomesic


class TestHomometry:
    def test_star_332_tables(self):
        chi = check_homometry(STAR_332, Statistic.chi())
        assert chi.is_homometric and chi.class_table == {6: 11, 7: 12}
        hatchi = check_homometry(STAR_332, Statistic.hatchi())
        assert hatchi.is_homometric and hatchi.class_table == {6: 21, 7: 21}

    def test_comb_3_hatchi_table(self):
        tree = make_family(parse_family("comb:3"))
        verdict = check_homometry(tree, Statistic.hatchi())
        assert verdict.is_homometric
        assert verdict.class_table == {2: 10, 15: 55}

    def test_complete_binary_counterexample(self):
        tree = make_family(parse_family("cbt:3"))
        chi = check_homometry(tree, Statistic.chi())
        assert not chi.is_homometric
        a, b = chi.witness
        assert a.size == b.size == 4
        assert {orbit_sum(tree, Statistic.chi(), o) for o in (a, b)} == {14, 15}

        hatchi = check_homometry(tree, Statistic.hatchi())
        assert not hatchi.is_homometric
        a, b = hatchi.witness
        assert a.size == b.size == 4
        assert {orbit_sum(tree, Statistic.hatchi(), o) for o in (a, b)} == {26, 35}

    def test_homomesy_implies_homometry(self):
        """Equal orbit averages force equal sums within a size class, so a
        homomesic verdict must come with a homometric one.  Checked on every
        verdict pair this sweep computes."""
        stats = [
            Statistic.chi(),
            Statistic.hatchi(),
            Statistic.chi_x(0),
            Statistic.hatchi_x(0),
            Statistic.hatchi() - 2 * Statistic.chi(),
        ]
        checked = 0
        for tree in TREES:
            if tree.n < 2:
                continue
            for stat in stats:
                mesy = check_homomesy(tree, stat)
                metry = check_homometry(tree, stat)
                if mesy.is_homomesic:
                    assert metry.is_homometric, (tree.to_spec(), stat.spec())
                    checked += 1
        assert checked > 100

    def test_hatchi_homometry_implies_chi_homometry_up_to_ten_nodes(self):
        hatchi_homometric = 0
        for n in range(1, 11):
            for parents in oracles.parent_vectors(n):
                tree = RootedTree(parents)
                if check_homometry(tree, Statistic.hatchi()).is_homometric:
                    assert check_homometry(tree, Statistic.chi()).is_homometric, (
                        tree.to_spec()
                    )
                    hatchi_homometric += 1
        assert hatchi_homometric == 5990  # of the 6,918 plane trees

    def test_hatchi_but_not_chi_homometric_at_thirteen_nodes(self):
        """The implication above fails from 13 nodes on."""
        tree = parse_tree("(((())()()())((())(())()))")
        assert (tree.n, tree.count_antichains()) == (13, 476)
        assert check_homometry(tree, Statistic.hatchi()).is_homometric
        assert not check_homometry(tree, Statistic.chi()).is_homometric

    def test_witness_is_canonical(self):
        tree = make_family(parse_family("cbt:3"))
        orbits = all_orbits(tree)
        verdict = check_homometry(tree, Statistic.chi())
        first, second = verdict.witness
        assert first == next(o for o in orbits if o.size == 4)
        sums = {
            o: orbit_sum(tree, Statistic.chi(), o) for o in orbits if o.size == 4
        }
        expected = next(o for o in orbits if o.size == 4 and sums[o] != sums[first])
        assert second == expected


def enumerated_classes(tree, stat):
    """`_orbit_sums` as ``(size, delta, sum) -> count``, the reference for
    the fold."""
    orbits, sums = stats_module._orbit_sums(tree, stat, 10**6)
    return Counter((o.size, o.delta, s) for o, s in zip(orbits, sums))


def folded_classes(tree, stat):
    """The class fold's table of ``stat``, as the verdicts read it."""
    return rowmotion._class_table(tree, (stats_module._weight(tree, stat),))


def enumerated_verdicts(tree, stat):
    """Both verdicts taken from every orbit and its sum, in enumeration
    order, as they were before the fold: the reference for the verdicts
    and their witnesses."""
    orbits, sums = stats_module._orbit_sums(tree, stat, 10**6)
    size, total = orbits[0].size, sums[0]
    odd = [o for o, s in zip(orbits, sums) if s * size != total * o.size]
    if odd:
        mesy = stats_module.HomomesyVerdict(False, witness=(orbits[0], odd[0]))
    else:
        mesy = stats_module.HomomesyVerdict(True, constant=Fraction(total, size))
    by_size = {}
    for o, s in zip(orbits, sums):
        by_size.setdefault(o.size, []).append((o, s))
    table = {}
    for size in sorted(by_size):
        first, value = by_size[size][0]
        other = [o for o, v in by_size[size] if v != value]
        if other:
            return mesy, stats_module.HomometryVerdict(False, witness=(first, other[0]))
        table[size] = value
    return mesy, stats_module.HomometryVerdict(True, class_table=table)


class TestFoldedSums:
    """`rowmotion._class_table` counts the orbits of each size, delta and
    sum with no antichain built; the verdicts take it, and enumerate only
    for the witness of a failure."""

    def test_every_plane_tree_up_to_ten_nodes(self):
        """Every atom at once: one statistic weighs chi, hatchi and each
        chi_x and hatchi_x by its own power of a base larger than any
        atom's orbit sum, so equal (size, sum) counts mean equal counts of
        orbits by size and the sums of all the atoms together."""
        count = 0
        for n in range(1, 11):
            for parents in oracles.parent_vectors(n):
                tree = RootedTree(parents)
                atoms = [("chi", None), ("hatchi", None)]
                atoms += [(a, x) for a in ("chi_x", "hatchi_x") for x in range(n)]
                base = n * tree.count_antichains() + 1
                packed = Statistic(
                    tuple((base**i, a, x) for i, (a, x) in enumerate(atoms))
                )
                got = folded_classes(tree, packed)
                assert got == enumerated_classes(tree, packed), tree.to_spec()
                count += 1
        assert count == 6918

    def test_every_atom_of_the_small_trees(self):
        for tree in TREES:
            for stat in every_atom(tree):
                got = folded_classes(tree, stat)
                assert got == enumerated_classes(tree, stat), (tree.to_spec(), stat)

    def test_verdicts_and_witnesses_as_enumerated(self):
        negative = 0
        for tree in TREES:
            for stat in every_atom(tree):
                mesy, metry = enumerated_verdicts(tree, stat)
                assert check_homomesy(tree, stat) == mesy, (tree.to_spec(), stat)
                verdict = check_homometry(tree, stat)
                assert verdict == metry, (tree.to_spec(), stat)
                if verdict.is_homometric:  # in size order, as the CLI prints it
                    assert list(verdict.class_table) == sorted(verdict.class_table)
                negative += not mesy.is_homomesic
        assert negative > 1000

    @pytest.mark.parametrize("family", ["cbt:3", "zipper:2"])
    def test_failures_keep_their_witnesses(self, family):
        tree = make_family(parse_family(family))
        for stat in every_atom(tree):
            mesy, metry = enumerated_verdicts(tree, stat)
            assert check_homomesy(tree, stat) == mesy, stat
            assert check_homometry(tree, stat) == metry, stat

    def test_positive_verdicts_build_no_orbit(self, monkeypatch):
        calls = []
        build = stats_module._built_orbits

        def counted(tree, budget, weight):
            calls.append(tree.n)
            return build(tree, budget, weight)

        monkeypatch.setattr(stats_module, "_built_orbits", counted)
        star = make_family(parse_family("star:5,7,8,9,11"))
        zipper = make_family(parse_family("zipper:6"))
        assert check_homomesy(star, Statistic.chi()).constant == Fraction(120032, 27721)
        assert check_homometry(zipper, Statistic.chi()).is_homometric
        assert check_homometry(zipper, Statistic.hatchi()).is_homometric
        assert calls == []
        # a failure builds the orbits once, for its witness
        cbt = make_family(parse_family("cbt:3"))
        assert not check_homometry(cbt, Statistic.chi()).is_homometric
        assert calls == [cbt.n]

    def test_negative_verdicts_read_the_statistic_once(self, monkeypatch):
        """The fold and the witness's build take one ``(c0, w)`` pair, from
        one node-id check."""
        calls = []

        def counting(fn):
            def counted(tree, stat):
                calls.append(fn.__name__)
                return fn(tree, stat)

            return counted

        for name in ("_weight", "_check_nodes"):
            counted = counting(getattr(stats_module, name))
            monkeypatch.setattr(stats_module, name, counted)
        cbt = make_family(parse_family("cbt:3"))
        for check in (check_homomesy, check_homometry):
            calls.clear()
            assert check(cbt, Statistic.chi()).witness is not None
            assert calls == ["_weight", "_check_nodes"]

    def test_budget_refuses_a_tree_the_fold_could_answer(self):
        tree = make_family(CompleteBinary(6))  # about 4.4e22 antichains
        for check in (check_homometry, check_homomesy):
            with pytest.raises(BudgetExceededError):
                check(tree, Statistic.hatchi())
        star = make_family(parse_family("star:5,7,8,9,11"))
        total = star.count_antichains()
        with pytest.raises(BudgetExceededError):
            check_homomesy(star, Statistic.chi(), budget=total - 1)
        assert check_homomesy(star, Statistic.chi(), budget=total).is_homomesic


class TestNodeIdsCheckedFirst:
    """A statistic naming a node the tree lacks is refused once, before
    any antichain is enumerated, even on a tree no budget allows."""

    def test_no_enumeration_before_refusal(self, monkeypatch):
        calls = []
        masks = rowmotion._antichain_masks

        def counted(tree, budget):
            calls.append(tree.n)
            return masks(tree, budget)

        monkeypatch.setattr(rowmotion, "_antichain_masks", counted)
        tree = make_family(CompleteBinary(6))  # about 4.4e22 antichains
        for check in (check_homometry, check_homomesy):
            with pytest.raises(ValueError, match="unknown node id 999"):
                check(tree, Statistic.chi_x(999))
        assert calls == []


class TestEnumeratedOrbitsAreSummedUnchecked:
    def test_no_antichain_rebuilt(self, monkeypatch):
        """Orbits fresh from all_orbits are summed from their masks: no
        member goes back through an antichain check."""
        calls = []

        def counting(check):
            def counted(*args):
                calls.append(args)
                return check(*args)

            return counted

        for name in ("_antichain_mask", "_checked_antichain"):
            counted = counting(getattr(rowmotion, name))
            monkeypatch.setattr(rowmotion, name, counted)
            monkeypatch.setattr(stats_module, name, counted)
        tree = make_family(parse_family("zipper:2"))
        observed_profile(tree)
        check_homometry(tree, Statistic.chi())
        check_homomesy(tree, Statistic.hatchi())
        assert calls == []
        # the public orbit_sum does check every member
        orbit_sum(tree, Statistic.chi(), all_orbits(tree)[0])
        assert calls


class TestIdealStatisticsUseGeneratedIdeal:
    def test_orbit_sum_reads_down_sets(self):
        orbit = all_orbits(STAR_332)[0]
        total = sum(
            len(down_set(STAR_332, a)) for a in orbit.antichains
        )
        assert orbit_sum(STAR_332, Statistic.hatchi(), orbit) == total == 21
        # orbit members are antichains whatever the statistic reads
        not_antichain = Orbit((frozenset({0, 1}),))
        for stat in (Statistic.chi(), Statistic.hatchi(), Statistic.hatchi_x(0)):
            with pytest.raises(ValueError, match="not an antichain: 0 < 1"):
                orbit_sum(STAR_332, stat, not_antichain)


def term_sum_per_orbit(tree, stat, orbits):
    """The orbit sums taken member by member, the reference for the build."""
    return [sum(stats_module._term_sums(tree, stat, o.masks)) for o in orbits]


def mixed(tree):
    """A statistic of all four atoms with negative coefficients."""
    return parse_statistic(
        f"2*hatchi_x:{tree.n - 1}-chi_x:0-3*hatchi+5*chi-7*hatchi_x:{tree.n // 2}"
    )


def every_atom(tree):
    """Each atom, at every node for the per-node ones, and `mixed`."""
    yield Statistic.chi()
    yield Statistic.hatchi()
    for x in range(tree.n):
        yield Statistic.chi_x(x)
        yield Statistic.hatchi_x(x)
    yield mixed(tree)


class TestOrbitSumsFromTheBuild:
    """`_orbit_sums` carries the sums through the orbit build; it must give
    exactly the member-by-member sums, orbit for orbit and in order."""

    def test_every_plane_tree_up_to_nine_nodes(self):
        count = 0
        for n in range(1, 10):
            for parents in oracles.parent_vectors(n):
                tree = RootedTree(parents)
                orbits = all_orbits(tree)
                # each atom kind once, at a leaf and at an inner node
                for stat in (
                    Statistic.chi(),
                    Statistic.hatchi(),
                    Statistic.chi_x(n - 1),
                    Statistic.hatchi_x(n // 2),
                    mixed(tree),
                ):
                    got_orbits, got = stats_module._orbit_sums(tree, stat, 10**6)
                    assert got_orbits == orbits
                    assert got == term_sum_per_orbit(tree, stat, orbits), (
                        tree.to_spec(),
                        stat,
                    )
                count += 1
        assert count == 2056

    def test_every_node_of_the_small_trees(self):
        for tree in TREES:
            orbits = all_orbits(tree)
            for stat in every_atom(tree):
                _, got = stats_module._orbit_sums(tree, stat, 10**6)
                assert got == term_sum_per_orbit(tree, stat, orbits)

    @pytest.mark.parametrize("family", ["zipper:4", "cbt:3", "star:5,7,8,9,11"])
    def test_families(self, family):
        tree = make_family(parse_family(family))
        orbits = all_orbits(tree)
        for stat in every_atom(tree):
            _, got = stats_module._orbit_sums(tree, stat, 10**6)
            assert got == term_sum_per_orbit(tree, stat, orbits), stat

    def test_long_chain(self):
        n = 600
        tree = parse_tree("(" * n + ")" * n)
        orbits = all_orbits(tree)
        for stat in (
            Statistic.chi(),
            Statistic.hatchi(),
            Statistic.hatchi_x(n - 1) - 2 * Statistic.chi_x(n // 2),
        ):
            _, got = stats_module._orbit_sums(tree, stat, n + 1)
            assert got == term_sum_per_orbit(tree, stat, orbits), stat
        # one orbit: {} and every singleton, hatchi sums 0 + 1 + ... + n
        assert stats_module._orbit_sums(tree, Statistic.hatchi(), n + 1) == (
            orbits,
            [n * (n + 1) // 2],
        )

    def test_hatchi_is_n_minus_the_filter_of_rho(self):
        """The complement of down(A) is the disjoint union of the subtrees
        up[y] over y in rho(A), on every antichain of every small tree."""
        for tree in TREES:
            for amask in rowmotion._antichain_masks(tree, 10**6):
                rho = _bits(rowmotion._rho_mask(tree, amask))
                down = _down_mask(tree, amask)
                subtrees = [tree.up[y] for y in rho]
                union = reduce(or_, subtrees, 0)
                assert union == tree.full_mask & ~down
                # disjoint, so hatchi(A) = n - sum |up[y]|
                assert sum(map(int.bit_count, subtrees)) == tree.n - down.bit_count()
                for x in range(tree.n):
                    covered = sum(tree.up[y] >> x & 1 for y in rho)
                    assert down >> x & 1 == 1 - covered

    def test_no_member_is_summed(self, monkeypatch):
        """`stats`, `check_homomesy`, `check_homometry` and `verify` read
        their sums from the build."""
        from treerow import families, poset
        from treerow.cli import main

        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)

            return counted

        for module in (stats_module, families, rowmotion, poset):
            for name in ("_term_sums", "_down_mask"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        tree = make_family(parse_family("zipper:2"))
        for stat in (Statistic.hatchi(), Statistic.chi(), mixed(tree)):
            check_homomesy(tree, stat)
            check_homometry(tree, stat)
        for fmt in ("json", "csv"):
            argv = ["stats", "--family", "zipper:2", "--stat", "hatchi", "--format", fmt]
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "--family", "zipper:2"]) == 0
        assert calls == []
