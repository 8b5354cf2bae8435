"""Family constructors, closed-form orbit tables, profile algebra."""

import importlib.util
from pathlib import Path

import pytest

import oracles
from treerow import (
    RootedTree,
    chain,
    combine_profiles,
    descriptor_string,
    extend_root_transfer,
    family_spec,
    graft,
    make_family,
    observed_profile,
    parse_family,
    parse_tree,
    predicted_profile,
    verify_family,
)
from treerow import families, poset, rowmotion, stats
from treerow.errors import (
    BudgetExceededError,
    SpecParseError,
    UnsupportedFamilyError,
)
from treerow.families import (
    Comb,
    CompleteBinary,
    ExtendedComb,
    ExtendedStar,
    OrbitClass,
    OrbitProfile,
    Star,
    ThreeLeaf,
    Tk,
    Zipper,
)


def member_profile(tree):
    """The orbit table summed member by member (`oracles.orbit_table`) over
    the orbits of `all_orbits`, labelled as `observed_profile` labels it."""
    orbits = [o.masks for o in rowmotion.all_orbits(tree)]
    return OrbitProfile(families._labeled(oracles.orbit_table(tree.down, orbits)))


def survey_sweep():
    """Every descriptor `scripts/survey_families.py` sweeps by default."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "survey_families.py"
    spec = importlib.util.spec_from_file_location("survey_families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [text for texts in module.DEFAULT_SWEEP.values() for text in texts]


def as_multiset(profile):
    out = {}
    for c in profile.classes:
        key = (c.size, c.delta, c.chi, c.hatchi)
        out[key] = out.get(key, 0) + c.count
    return out


class TestDescriptors:
    ROUNDTRIPS = [
        "star:3,3,2",
        "estar:b=2;3,3",
        "threeleaf:1,2,3,2,1",
        "tk:3",
        "comb:4",
        "ecomb:n=3,k=2",
        "zipper:2",
        "cbt:3",
    ]

    def test_roundtrip(self):
        for text in self.ROUNDTRIPS:
            assert descriptor_string(parse_family(text)) == text

    def test_parse_errors(self):
        for bad in (
            "star",
            "star:",
            "star:a,b",
            "estar:3,3",
            "estar:b2;3",
            "threeleaf:1,2,3",
            "ecomb:n=3",
            "ecomb:3,2",
            "ecomb:n=3,k=2,x",
            "tk:3,9",
            "estar:b=2,7;3,3",
            "comb:4,5",
            "zipper:2,3",
            "cbt:3,1",
            "spider:3",
            # integers are ASCII decimal digits only
            "star:\u0663,2",
            "star:3_0",
            "star: 3",
            "star:+3",
            "star:-3",
            "tk:\u00b2",
            "estar:b=\u0662;3,3",
            "ecomb:n=3,k=+2",
        ):
            with pytest.raises(SpecParseError):
                parse_family(bad)

    def test_parameter_validation(self):
        for bad in (
            "star:1,3",
            "estar:b=0;3",
            "threeleaf:0,1,1,1,1",
            "tk:1",
            "comb:0",
            "ecomb:n=1,k=0",
            "zipper:0",
            "cbt:0",
        ):
            with pytest.raises(ValueError):
                parse_family(bad)

    def test_extended_star_legs_follow_the_star_rule(self):
        legs = "star needs at least one branch parameter, all >= 2"
        with pytest.raises(ValueError, match=legs):
            parse_family("estar:b=2;1,3")
        with pytest.raises(ValueError, match=legs):
            ExtendedStar(1, ())
        # the root branch is checked first
        with pytest.raises(ValueError, match="root branch size must be >= 1"):
            ExtendedStar(0, (1,))


STAR_33_PROFILE = predicted_profile(Star((3, 3)))


class TestParametersAreInts:
    """A bool or a non-int parameter is refused before its range check:
    True would pass it as 1, and 1.5 would fail later with TypeError."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Comb(True), "n True is not an int"),
            (lambda: Star((2.5,)), r"branch parameter 2\.5 is not an int"),
            (lambda: Star((3, True)), "branch parameter True is not an int"),
            (lambda: ExtendedStar(1.0, (3,)), r"root branch size 1\.0 is not an int"),
            (lambda: ThreeLeaf(1.5, 1, 1, 1, 1), r"branch size 1\.5 is not an int"),
            (lambda: ThreeLeaf(1, 1, 1, 1, True), "branch size True is not an int"),
            (lambda: Tk(3.0), r"k 3\.0 is not an int"),
            (lambda: ExtendedComb(2, True), "k True is not an int"),
            (lambda: Zipper("2"), "n '2' is not an int"),
            (lambda: CompleteBinary(True), "depth True is not an int"),
            (lambda: chain(True), "chain length True is not an int"),
            (
                lambda: graft(chain(1), chain(1), 1.5),
                r"root branch size 1\.5 is not an int",
            ),
            (
                lambda: combine_profiles(STAR_33_PROFILE, STAR_33_PROFILE, True),
                "root branch size True is not an int",
            ),
            (lambda: extend_root_transfer(STAR_33_PROFILE, False), "delta_beta False"),
            (lambda: extend_root_transfer(STAR_33_PROFILE, 0.5), r"delta_beta 0\.5"),
        ],
        ids=[
            "comb", "star-float", "star-bool", "estar", "threeleaf-float",
            "threeleaf-bool", "tk", "ecomb", "zipper", "cbt", "chain", "graft",
            "combine", "extend-bool", "extend-float",
        ],
    )
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestSpecs:
    FROZEN = {
        "star:3,3,2": "((())(())())",
        "estar:b=2;3,3": "(((())(())))",
        "threeleaf:1,2,3,2,1": "(((((()))(())))())",
        "tk:3": "(((((((())(()))))(()))))",
        "comb:3": "(((()())())())",
        "ecomb:n=2,k=3": "((((()())))())",
        "zipper:2": "(((()())())((()())()))",
        "cbt:2": "((()())(()()))",
    }

    def test_frozen_specs(self):
        for text, spec in self.FROZEN.items():
            assert family_spec(parse_family(text)) == spec
            assert make_family(parse_family(text)).to_spec() == spec

    def test_shapes(self):
        assert make_family(parse_family("cbt:3")).n == 15
        assert make_family(parse_family("comb:4")).n == 9
        # with one tooth the extended comb collapses to the plain cherry
        assert family_spec(parse_family("ecomb:n=1,k=5")) == "(()())"
        assert make_family(parse_family("star:2,2,2,2")).n_leaves == 4

    def test_chain(self):
        assert chain(3).to_spec() == "((()))"
        assert chain(1).n == 1
        with pytest.raises(ValueError):
            chain(0)

    def test_graft(self):
        assert graft(chain(1), chain(1), 1).to_spec() == "(()())"
        with pytest.raises(ValueError):
            graft(chain(1), chain(1), 0)
        # the three-branch tower is an extended star over two equal chains
        # with another chain grafted on
        for k in (2, 3):
            estar = make_family(parse_family(f"estar:b={k};{k},{k}"))
            assert graft(estar, chain(k - 1), k).to_spec() == family_spec(
                parse_family(f"tk:{k}")
            )

    def test_zipper_is_two_combs(self):
        for n in (1, 2, 3):
            comb_tree = make_family(parse_family(f"comb:{n}"))
            assert graft(comb_tree, comb_tree, 1).to_spec() == family_spec(
                parse_family(f"zipper:{n}")
            )


class TestPredictedProfiles:
    def test_star_332(self):
        profile = predicted_profile(parse_family("star:3,3,2"))
        assert as_multiset(profile) == {
            (7, 1, 12, 21): 1,
            (6, 0, 11, 21): 2,
        }
        assert profile.total_antichains == 19
        assert profile.delta_class().size == 7

    def test_tk_3(self):
        profile = predicted_profile(parse_family("tk:3"))
        assert as_multiset(profile) == {
            (3, 0, 6, 27): 6,
            (6, 0, 11, 42): 2,
            (9, 1, 14, 45): 1,
        }

    def test_comb_3(self):
        profile = predicted_profile(parse_family("comb:3"))
        assert as_multiset(profile) == {(2, 0, 4, 10): 4, (15, 1, 28, 55): 1}

    def test_ecomb_even_ladder(self):
        profile = predicted_profile(parse_family("ecomb:n=3,k=2"))
        ladder = sorted(
            (c for c in profile.classes if not c.delta), key=lambda c: c.size
        )
        assert [c.size for c in ladder] == [2, 4, 6]  # k*(i-1) + 2
        assert [c.count for c in ladder] == [4, 2, 1]  # 2**(n-i)
        assert as_multiset(profile) == {
            (2, 0, 4, 14): 4,
            (4, 0, 8, 23): 2,
            (6, 0, 11, 27): 1,
            (7, 1, 12, 27): 1,
        }

    def test_ecomb_odd_two_classes(self):
        profile = predicted_profile(parse_family("ecomb:n=2,k=3"))
        assert as_multiset(profile) == {(2, 0, 3, 11): 2, (11, 1, 16, 37): 1}

    def test_zipper_2(self):
        profile = predicted_profile(parse_family("zipper:2"))
        assert as_multiset(profile) == {
            (2, 0, 6, 16): 8,
            (7, 0, 20, 41): 6,
            (8, 1, 21, 41): 1,
            (14, 0, 41, 97): 4,
        }
        comb_sq = make_family(parse_family("comb:2")).count_antichains() ** 2
        assert profile.total_antichains == 1 + comb_sq == 122

    def test_threeleaf(self):
        profile = predicted_profile(parse_family("threeleaf:1,2,3,2,1"))
        assert as_multiset(profile) == {(15, 1, 27, 76): 1, (14, 0, 26, 76): 1}

    def test_no_table_for_complete_binary(self):
        with pytest.raises(UnsupportedFamilyError):
            predicted_profile(parse_family("cbt:3"))

    def test_delta_class_validation(self):
        no_delta = OrbitProfile((OrbitClass("A", 2, 3, 1, 1),))
        with pytest.raises(ValueError):
            no_delta.delta_class()
        counted = OrbitProfile((OrbitClass("A", 2, 3, 1, 1, delta=1),))
        with pytest.raises(ValueError):
            counted.delta_class()


class TestProfileAlgebra:
    def test_extend_root_identity(self):
        profile = predicted_profile(parse_family("star:3,3"))
        assert extend_root_transfer(profile, 0) is profile
        # a profile with no orbit through the empty antichain is refused
        # at every width, 0 included
        headless = OrbitProfile(tuple(c for c in profile.classes if not c.delta))
        for d in (0, 1):
            with pytest.raises(ValueError):
                extend_root_transfer(headless, d)

    def test_extend_root_matches_extended_star(self):
        for alphas, b in (("3,3", 2), ("4,2", 3), ("3,3,2", 2)):
            base = predicted_profile(parse_family(f"star:{alphas}"))
            widened = extend_root_transfer(base, b - 1)
            target = predicted_profile(parse_family(f"estar:b={b};{alphas}"))
            assert as_multiset(widened) == as_multiset(target)
            labels = [c.label for c in widened.classes]
            assert labels == [f"O{i}" for i in range(1, len(labels) + 1)]

    def test_extend_root_errors(self):
        profile = predicted_profile(parse_family("star:3,3"))
        with pytest.raises(ValueError):
            extend_root_transfer(profile, -1)
        # a profile needs no record of its root branch to be extended
        bare = OrbitProfile(profile.classes)
        target = predicted_profile(parse_family("estar:b=2;3,3"))
        assert as_multiset(extend_root_transfer(bare, 1)) == as_multiset(target)

    def test_combine_matches_brute_force(self):
        """Both steps against enumeration: every pair of plane trees under
        a root branch of b nodes, |L| + |R| + b <= 9."""
        trees = {
            n: [RootedTree(p) for p in oracles.parent_vectors(n)] for n in range(1, 8)
        }
        observed = {t: member_profile(t) for ts in trees.values() for t in ts}
        cases = 0
        for nl in range(1, 8):
            for nr in range(1, 9 - nl):
                for b in range(1, min(3, 9 - nl - nr) + 1):
                    for left in trees[nl]:
                        for right in trees[nr]:
                            combined = combine_profiles(
                                observed[left], observed[right], b
                            )
                            direct = member_profile(graft(left, right, b))
                            assert combined.classes == direct.classes
                            cases += 1
        assert cases == 885

    def test_extend_matches_brute_force(self):
        """Widening the root branch of every plane tree with <= 7 nodes."""
        for n in range(1, 8):
            for parents in oracles.parent_vectors(n):
                tree = RootedTree(parents)
                profile = member_profile(tree)
                for d in (1, 2):
                    wide = parse_tree("(" * d + tree.to_spec() + ")" * d)
                    extended = extend_root_transfer(profile, d)
                    assert extended.classes == member_profile(wide).classes

    def test_fold_matches_brute_force(self):
        """Both steps folded over every plane tree with <= 10 nodes, nodes
        with three or more children included: at each branch the union of
        its child branches' tables, under a chain of beta nodes.  The
        union is the class fold's (`rowmotion._class_table`, the
        three-leaf table), whose root steps read chi's and hatchi's
        ``(c0, w)`` pairs instead."""
        trees = 0
        for n in range(1, 11):
            for parents in oracles.parent_vectors(n):
                tree = RootedTree(parents)
                table = poset._fold(
                    tree,
                    {(1, 1, 0, 0): 1},  # the empty forest: {} alone
                    rowmotion._join_classes,
                    lambda t, spec: families._add_root(t, spec.beta),
                )
                expected = member_profile(tree).classes
                assert families._labeled(table) == expected
                chi, hatchi = (0, [1] * tree.n), rowmotion._hatchi_weight(tree)
                folded = rowmotion._class_table(tree, (chi, hatchi))
                assert families._labeled(folded) == expected
                trees += 1
        assert trees == 6918

    def test_combine_builds_zipper_table(self):
        for n in (1, 2):
            comb_profile = predicted_profile(parse_family(f"comb:{n}"))
            combined = combine_profiles(comb_profile, comb_profile, 1)
            target = predicted_profile(parse_family(f"zipper:{n}"))
            assert as_multiset(combined) == as_multiset(target)

    def test_combine_needs_delta_classes(self):
        profile = predicted_profile(parse_family("star:3,3"))
        headless = OrbitProfile(tuple(c for c in profile.classes if not c.delta))
        with pytest.raises(ValueError):
            combine_profiles(profile, headless, 1)


class TestVerify:
    GRID = [
        "star:2,2",
        "star:3,3,2",
        "star:4,3,2",
        "estar:b=2;3,3",
        "estar:b=3;2,2",
        "threeleaf:2,1,2,1,3",
        "tk:2",
        "tk:3",
        "comb:1",
        "comb:2",
        "comb:3",
        "comb:4",
        "ecomb:n=3,k=2",
        "ecomb:n=2,k=3",
        "zipper:1",
        "zipper:2",
    ]

    def test_grid_green(self):
        for text in self.GRID:
            desc = parse_family(text)
            report = verify_family(desc)
            assert report.ok, (text, report.diffs)
            assert report.predicted_total == report.observed_total
            assert report.observed_total == make_family(desc).count_antichains()
            assert all(d.ok for d in report.diffs)

    def test_complete_binary_reports(self):
        depth2 = verify_family(parse_family("cbt:2"))
        assert depth2.ok and "NOT confirmed" in depth2.note
        depth3 = verify_family(parse_family("cbt:3"))
        assert depth3.ok and depth3.note.endswith("homometry failure confirmed")

    def test_complete_binary_enumerates_once(self, monkeypatch):
        calls = []
        build = rowmotion._built_orbits

        def counted(tree, budget, weight):
            calls.append(tree.n)
            return build(tree, budget, weight)

        # all_orbits, the orbit sums of stats and observed_profile all
        # build through _built_orbits; stats and families hold their own
        # bindings
        for module in (rowmotion, stats, families):
            monkeypatch.setattr(module, "_built_orbits", counted)
        assert verify_family(parse_family("cbt:3")).ok
        assert calls == [15]

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            verify_family(parse_family("comb:5"), budget=10)

    def test_observed_profile_matches_prediction_for_star(self):
        desc = parse_family("star:3,2")
        observed = observed_profile(make_family(desc))
        assert as_multiset(observed) == as_multiset(predicted_profile(desc))


class TestObservedProfile:
    """`observed_profile` reads each orbit's hatchi sum off the orbit
    build; it must give the member-by-member table, labels included."""

    def test_every_plane_tree_up_to_ten_nodes(self):
        count = 0
        for n in range(1, 11):
            for parents in oracles.parent_vectors(n):
                tree = RootedTree(parents)
                assert observed_profile(tree) == member_profile(tree), tree.to_spec()
                count += 1
        assert count == 6918

    @pytest.mark.parametrize("text", survey_sweep())
    def test_survey_descriptors(self, text):
        tree = make_family(parse_family(text))
        assert observed_profile(tree) == member_profile(tree)
