"""PL and birational rowmotion: toggles, indicator points, order search."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import oracles
import treerow.continuous
import treerow.poset
from treerow import (
    LabeledPoint,
    Poset,
    birational_rowmotion,
    birational_toggle,
    chain_product,
    ideal_of_indicator,
    indicator_point,
    linear_extension,
    order_search,
    parse_tree,
    pl_rowmotion,
    pl_toggle,
    random_birational_point,
    random_pl_point,
    rho_ideal,
)
from treerow.errors import RetriesExhaustedError, ZeroInFieldError

CHERRY = parse_tree("(()())")
STAR_332 = parse_tree("((())(())())")
P61 = 2**61 - 1
# the non-graded trees of acceptance criterion 13
NON_GRADED_TREES = (
    "(()(()))", "(()((())))", "(()(())())", "((())((())))", "(()()(()))"
)


def count_fractions(monkeypatch):
    """A list that gets one entry per `Fraction` constructed from now on."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return made


def small_posets(max_n):
    out = []
    for n in range(1, max_n + 1):
        for rel in oracles.all_posets(n):
            out.append(Poset(n, oracles.covers_of(n, rel)))
    return out


def to_modp(f, p):
    vals = tuple(
        v.numerator * pow(v.denominator, -1, p) % p for v in f.values
    )
    return LabeledPoint(f.poset, vals, "modp", p)


class TestLabeledPoint:
    def test_rational_coercion(self):
        f = LabeledPoint(CHERRY, (0, 1, "1/2"))
        assert f.values == (Fraction(0), Fraction(1), Fraction(1, 2))
        assert f.mode_string() == "rational"

    def test_modp_reduction(self):
        f = LabeledPoint(CHERRY, (8, -1, 3), "modp", 7)
        assert f.values == (1, 6, 3)
        assert f.mode_string() == "modp:7"

    def test_modp_fraction_is_numerator_times_inverse_denominator(self):
        vals = (Fraction(1, 2), Fraction(-3, 4), Fraction(14, 7))
        f = LabeledPoint(CHERRY, vals, "modp", 7)
        assert f.values == (4, 1, 2)  # 1/2 ≡ 4, -3/4 ≡ -3·2 ≡ 1, 14/7 = 2
        assert LabeledPoint(CHERRY, f.values, "modp", 7) == f

    def test_modp_denominator_divisible_by_p_is_rejected(self):
        for v in (Fraction(1, 7), Fraction(3, 14)):
            with pytest.raises(ValueError, match="7 divides its denominator"):
                LabeledPoint(CHERRY, (1, v, 1), "modp", 7)

    def test_modp_rejects_floats_and_strings(self):
        for v in (2.7, 2.0, "3", None):
            with pytest.raises(ValueError, match="ints or Fractions"):
                LabeledPoint(CHERRY, (1, v, 1), "modp", 7)
        with pytest.raises(ValueError):
            LabeledPoint(CHERRY, (Fraction(1, 2), 2.7, "3"), "modp", 7)

    def test_modulus_must_be_prime(self):
        for p in (9, 1, 0, -7, 2**61 + 1, 7.0, None):
            with pytest.raises(ValueError, match="prime modulus"):
                LabeledPoint(CHERRY, (1, 2, 3), "modp", p)
        for p in (9, 1, 561):
            with pytest.raises(ValueError, match="prime modulus"):
                random_birational_point(CHERRY, random.Random(0), p)
            with pytest.raises(ValueError, match="prime modulus"):
                order_search(CHERRY, rng=random.Random(0), p=p)
        for p in (2, 3, 7, 10007, P61):
            assert LabeledPoint(CHERRY, (1, 2, 3), "modp", p).p == p

    def test_primality_by_trial_division(self):
        for n in range(-3, 3000):
            want = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
            assert treerow.continuous._is_prime(n) == want, n

    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledPoint(CHERRY, (0, 1))
        with pytest.raises(ValueError):
            LabeledPoint(CHERRY, (0, 1, 1), "rational", 7)
        with pytest.raises(ValueError):
            LabeledPoint(CHERRY, (1, 2, 3), "modp")
        with pytest.raises(ValueError):
            LabeledPoint(CHERRY, (1, 2, 3), "real")


class TestPLToggle:
    def test_reflection_by_hand(self):
        chain2 = parse_tree("(())")
        f = LabeledPoint(chain2, (0, Fraction(1, 2)))
        g = pl_toggle(chain2, f, 0)
        assert g.values == (Fraction(1, 2), Fraction(1, 2))
        h = pl_toggle(chain2, f, 1)
        assert h.values == (0, Fraction(1, 2))  # 0 + 1 - 1/2

    def test_involution(self):
        rng = random.Random(5)
        for poset in (CHERRY, STAR_332, chain_product(2, 3)):
            f = random_pl_point(poset, rng)
            for x in range(poset.n):
                assert pl_toggle(poset, pl_toggle(poset, f, x), x) == f

    def test_sweep_builds_one_fraction_per_value(self, monkeypatch):
        grid = chain_product(2, 3)
        f = random_pl_point(grid, random.Random(9))
        made = count_fractions(monkeypatch)
        pl_rowmotion(grid, f)
        assert len(made) == grid.n

    def test_input_checks(self):
        with pytest.raises(ValueError):
            pl_toggle(CHERRY, LabeledPoint(CHERRY, (1, 2, 3), "modp", 7), 0)
        with pytest.raises(ValueError):
            pl_toggle(CHERRY, LabeledPoint(CHERRY, (0, 2, 1)), 0)
        with pytest.raises(ValueError):
            pl_toggle(CHERRY, LabeledPoint(CHERRY, (1, 0, 0)), 0)
        with pytest.raises(ValueError, match="unknown node id 3"):
            pl_toggle(CHERRY, LabeledPoint(CHERRY, (0, 1, 1)), 3)
        with pytest.raises(ValueError, match="unknown node id -1"):
            birational_toggle(CHERRY, LabeledPoint(CHERRY, (1, 2, 3)), -1)


class TestIndicatorPoints:
    def test_roundtrip(self):
        f = indicator_point(STAR_332, {0, 1, 3})
        assert f.values[0] == 0 and f.values[2] == 1
        assert ideal_of_indicator(f) == {0, 1, 3}

    def test_rejects_non_indicator(self):
        with pytest.raises(ValueError):
            ideal_of_indicator(LabeledPoint(CHERRY, (0, 1, "1/2")))
        with pytest.raises(ValueError):
            indicator_point(CHERRY, {1})  # not downward closed

    def test_pl_rowmotion_restricts_to_ideal_rowmotion(self):
        """On indicator vertices the PL map is combinatorial rowmotion —
        checked on every ideal of every poset with up to 5 elements."""
        for poset in small_posets(5):
            rel = oracles.relations_from_covers(poset.n, poset.covers)
            for ideal in oracles.ideals(poset.n, rel):
                moved = pl_rowmotion(poset, indicator_point(poset, ideal))
                assert ideal_of_indicator(moved) == rho_ideal(poset, ideal)

    def test_indicator_round_trip_builds_no_fraction(self, monkeypatch):
        grid = chain_product(2, 3)
        rel = oracles.relations_from_covers(grid.n, grid.covers)
        made = count_fractions(monkeypatch)
        for ideal in oracles.ideals(grid.n, rel):
            moved = pl_rowmotion(grid, indicator_point(grid, ideal))
            assert ideal_of_indicator(moved) == rho_ideal(grid, ideal)
        assert made == []

    def test_pl_order_on_indicator_is_orbit_size(self):
        result = order_search(
            STAR_332, indicator_point(STAR_332, set()), kind="pl"
        )
        assert result.outcome == "finite-order" and result.order == 7


class TestBirational:
    def test_single_node_inverts(self):
        single = parse_tree("()")
        f = LabeledPoint(single, (Fraction(3, 7),))
        g = birational_toggle(single, f, 0)
        assert g.values == (Fraction(7, 3),)
        assert birational_rowmotion(single, g).values == f.values

    def test_zero_values_rejected(self):
        with pytest.raises(ZeroInFieldError):
            birational_toggle(CHERRY, LabeledPoint(CHERRY, (0, 1, 1)), 0)
        for f in (
            LabeledPoint(CHERRY, (1, 1, 0)),
            LabeledPoint(CHERRY, (1, 7, 1), "modp", 7),
        ):
            with pytest.raises(ZeroInFieldError, match="nonzero everywhere"):
                order_search(CHERRY, f)

    def test_modp_matches_rational(self):
        rng = random.Random(11)
        p = 10007
        for poset in (CHERRY, STAR_332, chain_product(3, 2)):
            f = random_birational_point(poset, rng)
            exact = birational_rowmotion(poset, f)
            residue = birational_rowmotion(poset, to_modp(f, p))
            assert to_modp(exact, p).values == residue.values

    def test_reciprocal_sum_vanishing_mod_p(self):
        f = LabeledPoint(CHERRY, (1, 2, 3), "modp", 5)
        with pytest.raises(ZeroInFieldError):
            birational_toggle(CHERRY, f, 0)

    def test_vanishing_reciprocal_sum_is_reported_first(self):
        # 0, 1 < 2 < 3, 4: both sums at 2 vanish mod 5 (1 + 4 and 1 + 1/4)
        bowtie = Poset(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        f = LabeledPoint(bowtie, (1, 4, 2, 1, 4), "modp", 5)
        with pytest.raises(ZeroInFieldError) as err:
            birational_toggle(bowtie, f, 2)
        assert str(err.value) == "reciprocal sum vanishes toggling 2 (mod 5)"
        f = LabeledPoint(bowtie, (1, 4, 2, 1, 3), "modp", 5)
        with pytest.raises(ZeroInFieldError) as err:
            birational_toggle(bowtie, f, 2)
        assert str(err.value) == "toggling 2 produced zero (mod 5)"
        # the same over the rationals: 1 - 1 and 1/1 - 1/1
        f = LabeledPoint(bowtie, (1, -1, 2, 1, -1))
        with pytest.raises(ZeroInFieldError) as err:
            birational_toggle(bowtie, f, 2)
        assert str(err.value) == "reciprocal sum vanishes toggling 2"


class TestExtensions:
    def starts(self, poset, rng):
        g = random_birational_point(poset, rng)
        return zip(
            (pl_rowmotion, birational_rowmotion, birational_rowmotion),
            (random_pl_point(poset, rng), g, to_modp(g, 10007)),
        )

    def test_every_linear_extension_gives_the_same_point(self):
        rng = random.Random(31)
        for poset in small_posets(4):
            rel = oracles.relations_from_covers(poset.n, poset.covers)
            exts = oracles.linear_extensions(poset.n, rel)
            images = []
            for lift, f in self.starts(poset, rng):
                want = lift(poset, f)
                images.append(want)
                for ext in exts:
                    assert lift(poset, f, ext) == want, (poset, ext)
            assert to_modp(images[1], 10007) == images[2]

    def test_extension_validation(self):
        grid = chain_product(2, 2)
        backwards = tuple(reversed(linear_extension(grid)))
        for lift, f in self.starts(grid, random.Random(4)):
            for bad in (backwards, [0], [0, 0, 1, 2]):
                with pytest.raises(ValueError):
                    lift(grid, f, bad)

    def test_order_search_resolves_the_extension_once(self, monkeypatch):
        calls = []
        real = treerow.poset.linear_extension
        for module in (treerow.poset, treerow.continuous):
            monkeypatch.setattr(
                module, "linear_extension", lambda ps: calls.append(ps) or real(ps),
                raising=False,
            )
        f = LabeledPoint(CHERRY, (1, 2, 3), "modp", 5)
        result = order_search(CHERRY, f, rng=random.Random(8))
        assert result.restarts >= 1 and result.iterations_used > 1
        assert calls == [CHERRY]
        calls.clear()
        result = order_search(chain_product(2, 3), rng=random.Random(0), kind="pl")
        assert result.iterations_used == 5 and len(calls) == 1


class TestOrderSearch:
    def test_grid_orders(self):
        rng = random.Random(2024)
        for p, q in ((1, 1), (2, 2), (2, 3)):
            grid = chain_product(p, q)
            for kind, modulus in (("pl", None), ("birational", None), ("birational", 10007)):
                result = order_search(grid, kind=kind, p=modulus, rng=rng)
                assert result.outcome == "finite-order"
                assert result.order == p + q, (p, q, kind, modulus)

    def test_result_metadata(self):
        grid = chain_product(2, 2)
        exact = order_search(grid, rng=random.Random(1), kind="birational")
        assert exact.mode == "rational" and exact.max_bits is not None
        pl = order_search(grid, rng=random.Random(1), kind="pl")
        assert pl.kind == "pl" and pl.max_bits is None
        modp = order_search(grid, rng=random.Random(1), kind="birational", p=101)
        assert modp.mode == "modp:101" and modp.max_bits is None

    def test_determinism_per_seed(self):
        grid = chain_product(3, 3)
        runs = [
            order_search(grid, rng=random.Random(77), kind="birational", p=997)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_no_repeat_outcome(self):
        result = order_search(
            chain_product(2, 2), rng=random.Random(0), kind="pl", max_iter=3
        )
        assert result.outcome == "no-repeat"
        assert result.order is None and result.iterations_used == 3

    def test_exact_search_stops_past_the_bit_cap(self):
        result = order_search(parse_tree(NON_GRADED_TREES[0]), rng=random.Random(0))
        assert (result.outcome, result.order) == ("no-repeat", None)
        assert (result.iterations_used, result.max_bits) == (119, 20063)

    def test_return_on_the_capping_step_counts(self, monkeypatch):
        # on one element x -> 1/x: 1 is fixed, 2 has order 2, and with the
        # cap at 0 bits every step passes it
        monkeypatch.setattr(treerow.continuous, "MAX_EXACT_BITS", 0)
        single = parse_tree("()")
        fixed = order_search(single, LabeledPoint(single, (1,)), max_iter=5)
        assert (fixed.outcome, fixed.order, fixed.iterations_used) == (
            "finite-order", 1, 1
        )
        moved = order_search(single, LabeledPoint(single, (2,)), max_iter=5)
        assert (moved.outcome, moved.order, moved.iterations_used) == (
            "no-repeat", None, 1
        )
        assert moved.max_bits == 2

    def test_modulus_inherited_from_start(self):
        grid = chain_product(2, 2)
        f = random_birational_point(grid, random.Random(3), p=13)
        result = order_search(grid, f)
        assert result.mode == "modp:13"
        with pytest.raises(ValueError):
            order_search(grid, f, p=17)
        # a rational start does not silently drop a modulus
        exact = random_birational_point(grid, random.Random(3))
        with pytest.raises(ValueError, match="disagree on the modulus"):
            order_search(grid, exact, p=10007)

    def test_argument_errors(self):
        grid = chain_product(2, 2)
        with pytest.raises(ValueError):
            order_search(grid, rng=random.Random(0), max_iter=0)
        with pytest.raises(ValueError):
            order_search(grid, rng=random.Random(0), kind="tropical")
        with pytest.raises(ValueError):
            order_search(grid, rng=random.Random(0), kind="pl", p=7)
        with pytest.raises(ValueError):
            f = random_birational_point(grid, random.Random(0), p=7)
            order_search(grid, f, kind="pl")
        with pytest.raises(ValueError):
            order_search(grid)  # no start and nothing to draw one with

    def test_zero_hit_restarts_with_rng(self):
        # this start dies on the first toggle mod 5; with an rng available
        # the search redraws instead of failing
        f = LabeledPoint(CHERRY, (1, 2, 3), "modp", 5)
        result = order_search(CHERRY, f, rng=random.Random(8))
        assert result.outcome == "finite-order" and result.restarts >= 1

    def test_zero_hit_propagates_without_rng(self):
        f = LabeledPoint(CHERRY, (1, 2, 3), "modp", 5)
        with pytest.raises(ZeroInFieldError):
            order_search(CHERRY, f)

    def test_retries_exhausted(self):
        f = LabeledPoint(CHERRY, (1, 2, 3), "modp", 5)
        with pytest.raises(RetriesExhaustedError):
            order_search(CHERRY, f, rng=random.Random(8), max_retries=0)


class TestPointOnItsPoset:
    """Every lift refuses a point drawn on another poset, and takes one
    drawn on an equal poset built separately."""

    def steps(self, poset, pl, bi):
        return [
            lambda: pl_toggle(poset, pl, 0),
            lambda: pl_rowmotion(poset, pl),
            lambda: birational_toggle(poset, bi, 0),
            lambda: birational_rowmotion(poset, bi),
            lambda: order_search(poset, pl, kind="pl", max_iter=2),
            lambda: order_search(poset, bi, max_iter=2),
        ]

    def test_other_poset_refused(self):
        grid = chain_product(2, 2)
        for other in (parse_tree("(((())))"), parse_tree("(())")):
            rng = random.Random(1)
            pl = random_pl_point(other, rng)
            bi = random_birational_point(other, rng)
            for step in self.steps(grid, pl, bi):
                with pytest.raises(ValueError, match="lives on another poset"):
                    step()

    def test_equal_poset_accepted(self):
        rng = random.Random(1)
        pl = random_pl_point(chain_product(2, 2), rng)
        bi = random_birational_point(chain_product(2, 2), rng)
        twin = chain_product(2, 2)
        assert twin is not pl.poset and twin == pl.poset
        for step in self.steps(twin, pl, bi):
            step()


def modp_universe():
    """Every poset with at most 5 elements and the non-graded trees, each
    with its strict relation."""
    out = [
        (Poset(n, oracles.covers_of(n, rel)), rel)
        for n in range(1, 6)
        for rel in oracles.all_posets(n)
    ]
    for spec in NON_GRADED_TREES:
        tree = parse_tree(spec)
        out.append((tree, oracles.relations_from_parents(tree.parents)))
    return out


def values_or_zero(step):
    """The values ``step()`` gives, or the message of the zero it meets."""
    try:
        out = step()
    except (ZeroInFieldError, oracles.FieldZero) as err:
        return str(err)
    return list(getattr(out, "values", out))


class TestModpAgainstOracle:
    """Mod-p birational rowmotion against an oracle that takes one inverse
    per toggle, for p in {5, 7, 13, 10007, 2^61 - 1}."""

    PRIMES = (5, 7, 13, 10007, P61)

    def test_rowmotion_and_toggles(self):
        rng = random.Random(2718)
        seen = []
        for poset, rel in modp_universe():
            n = poset.n
            for p in self.PRIMES * 2:  # two starts per prime
                ext = oracles.random_linear_extension(rng, n, rel)
                vals = [rng.randrange(1, p) for _ in range(n)]
                f = LabeledPoint(poset, tuple(vals), "modp", p)
                want = values_or_zero(
                    lambda: oracles.birational_step(n, rel, vals, ext, p)
                )
                assert values_or_zero(
                    lambda: birational_rowmotion(poset, f, ext)
                ) == want, (poset.covers, p, vals, ext)
                seen.append(want)
                for x in range(n):
                    want = values_or_zero(
                        lambda: oracles.birational_toggle(n, rel, vals, x, p)
                    )
                    assert values_or_zero(
                        lambda: birational_toggle(poset, f, x)
                    ) == want, (poset.covers, p, vals, x)
                    seen.append(want)
        # both kinds of zero were met
        zeros = {w.split()[0] for w in seen if isinstance(w, str)}
        assert zeros == {"reciprocal", "toggling"}

    def test_order_search(self):
        seeds = random.Random(3141)
        outcomes = Counter()
        for poset, rel in modp_universe():
            ext = linear_extension(poset)
            assert all(ext.index(a) < ext.index(b) for a, b in rel)
            for p in self.PRIMES:
                seed = seeds.randrange(2**32)
                given = None
                if seed % 2:  # half the searches start from a given point
                    given = random_birational_point(poset, random.Random(~seed), p)
                try:
                    result = order_search(
                        poset, given, max_iter=40, p=p, rng=random.Random(seed)
                    )
                    got = (
                        result.outcome,
                        result.order,
                        result.iterations_used,
                        result.restarts,
                    )
                except RetriesExhaustedError:
                    got = ("retries-exhausted", None, None, 10)
                want = oracles.birational_search(
                    poset.n, rel, ext, p, random.Random(seed), 40,
                    given and given.values,
                )
                assert got == want, (poset.covers, p, seed)
                outcomes[got[0]] += 1
                outcomes["restarted"] += got[3] > 0
        assert outcomes["finite-order"] and outcomes["no-repeat"]
        assert outcomes["restarted"]

    def test_search_builds_no_point_per_step(self, monkeypatch):
        built = []
        post_init = LabeledPoint.__post_init__
        monkeypatch.setattr(
            LabeledPoint,
            "__post_init__",
            lambda self: built.append(self) or post_init(self),
        )
        tree = parse_tree(NON_GRADED_TREES[0])
        counts = []
        for max_iter in (10, 1000):
            built.clear()
            result = order_search(tree, max_iter=max_iter, p=P61, rng=random.Random(7))
            assert (result.outcome, result.iterations_used) == ("no-repeat", max_iter)
            counts.append(len(built))
        assert counts[0] == counts[1] <= 2


# signed values, so that cover sums can cancel and both kinds of zero occur
SIGNED_VALUES = tuple(
    Fraction(v) for v in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-1/3")
)


class TestExactAgainstOracle:
    """Exact birational rowmotion against the Fraction oracle on every
    poset with at most 4 elements."""

    def universe(self):
        return [
            (poset, oracles.relations_from_covers(poset.n, poset.covers))
            for poset in small_posets(4)
        ]

    def test_rowmotion_and_toggles(self):
        rng = random.Random(1729)
        seen = []
        for poset, rel in self.universe():
            n = poset.n
            for _ in range(6):
                ext = oracles.random_linear_extension(rng, n, rel)
                vals = [rng.choice(SIGNED_VALUES) for _ in range(n)]
                f = LabeledPoint(poset, tuple(vals))
                want = values_or_zero(
                    lambda: oracles.birational_step(n, rel, vals, ext)
                )
                assert values_or_zero(
                    lambda: birational_rowmotion(poset, f, ext)
                ) == want, (poset.covers, vals, ext)
                seen.append(want)
                for x in range(n):
                    want = values_or_zero(
                        lambda: oracles.birational_toggle(n, rel, vals, x)
                    )
                    assert values_or_zero(
                        lambda: birational_toggle(poset, f, x)
                    ) == want, (poset.covers, vals, x)
                    seen.append(want)
        zeros = {w.split()[0] for w in seen if isinstance(w, str)}
        assert zeros == {"reciprocal", "toggling"}
        assert all("mod" not in w for w in seen if isinstance(w, str))

    def test_order_search(self):
        rng = random.Random(1123)
        outcomes = Counter()
        for poset, rel in self.universe():
            ext = linear_extension(poset)
            for start in (random_birational_point(poset, rng), None):
                if start is None:
                    vals = [rng.choice(SIGNED_VALUES) for _ in range(poset.n)]
                    start = LabeledPoint(poset, tuple(vals))
                try:
                    want = oracles.exact_birational_search(
                        poset.n, rel, ext, start.values, 12
                    )
                except oracles.FieldZero as err:
                    want = str(err)
                try:
                    result = order_search(poset, start, max_iter=12)
                    got = (result.outcome, result.order, result.max_bits)
                except ZeroInFieldError as err:
                    got = str(err)
                assert got == want, (poset.covers, start.values)
                outcomes[got if isinstance(got, str) else got[0]] += 1
        assert outcomes["finite-order"] and outcomes["no-repeat"]
        assert any(key.startswith(("reciprocal", "toggling")) for key in outcomes)

    def test_search_builds_no_point_per_step(self, monkeypatch):
        # count points built either way, checked or not
        built = []
        post_init = LabeledPoint.__post_init__
        of = LabeledPoint._of.__func__
        monkeypatch.setattr(
            LabeledPoint,
            "__post_init__",
            lambda self: built.append(self) or post_init(self),
        )
        monkeypatch.setattr(
            LabeledPoint,
            "_of",
            classmethod(lambda cls, *args: built.append(args) or of(cls, *args)),
        )
        tree = parse_tree(NON_GRADED_TREES[0])
        counts = []
        for max_iter in (4, 24):
            built.clear()
            result = order_search(tree, max_iter=max_iter, rng=random.Random(7))
            assert (result.outcome, result.iterations_used) == ("no-repeat", max_iter)
            counts.append(len(built))
        assert counts[0] == counts[1] <= 1


# the values an order-preserving start is drawn from: mixed denominators
# and both boundary values
PL_VALUES = tuple(
    Fraction(v) for v in ("0", "1/3", "5/12", "1/2", "7/12", "2/3", "3/4", "1")
)


def pl_start(rng, n, ext):
    """Values drawn from PL_VALUES, ascending along ``ext``."""
    drawn = sorted(rng.choice(PL_VALUES) for _ in range(n))
    vals = [None] * n
    for x, v in zip(ext, drawn):
        vals[x] = v
    return vals


def message_of(step):
    """The message of the ValueError ``step()`` raises, or None."""
    try:
        step()
    except ValueError as err:
        return str(err)
    return None


class TestPLAgainstOracle:
    """PL rowmotion against the Fraction-only oracle on every poset with at
    most 5 elements."""

    def universe(self):
        return [
            (poset, oracles.relations_from_covers(poset.n, poset.covers))
            for poset in small_posets(5)
        ]

    def test_rowmotion_and_toggles(self):
        rng = random.Random(1618)
        denominators = set()
        for poset, rel in self.universe():
            n = poset.n
            for _ in range(2):
                ext = oracles.random_linear_extension(rng, n, rel)
                vals = pl_start(rng, n, ext)
                denominators.update(v.denominator for v in vals)
                f = LabeledPoint(poset, tuple(vals))
                got = pl_rowmotion(poset, f, ext)
                assert list(got.values) == oracles.pl_step(n, rel, vals, ext), (
                    poset.covers, vals, ext
                )
                assert all(type(v) is Fraction for v in got.values)
                for x in range(n):
                    want = oracles.pl_toggle(n, rel, vals, x)
                    assert list(pl_toggle(poset, f, x).values) == want, (
                        poset.covers, vals, x
                    )
        assert denominators == {1, 2, 3, 4, 12}

    def test_points_outside_the_polytope(self):
        rng = random.Random(1414)
        messages = Counter()
        for poset, rel in self.universe():
            n = poset.n
            ext = oracles.random_linear_extension(rng, n, rel)
            vals = pl_start(rng, n, ext)
            bad = [list(vals), list(vals)]
            bad[0][rng.randrange(n)] = rng.choice((Fraction(-1, 3), Fraction(13, 12)))
            if poset.covers:  # undo the order on one cover
                a, b = rng.choice(poset.covers)
                bad[1][a], bad[1][b] = Fraction(2, 3), Fraction(1, 2)
            for vals in bad:
                f = LabeledPoint(poset, tuple(vals))
                want = message_of(lambda: oracles.pl_check(n, rel, vals))
                if want is None:  # no cover to undo
                    continue
                for lift in (
                    lambda: pl_rowmotion(poset, f, ext),
                    lambda: pl_toggle(poset, f, rng.randrange(n)),
                    lambda: order_search(poset, f, kind="pl", max_iter=3),
                ):
                    assert message_of(lift) == want, (poset.covers, vals)
                messages[want.split()[0]] += 1
        assert messages["value"] and messages["not"]

    def test_order_search(self):
        rng = random.Random(2236)
        outcomes = Counter()
        for poset, rel in self.universe():
            ext = linear_extension(poset)
            start_ext = oracles.random_linear_extension(rng, poset.n, rel)
            vals = pl_start(rng, poset.n, start_ext)
            result = order_search(
                poset, LabeledPoint(poset, tuple(vals)), max_iter=12, kind="pl"
            )
            got = (result.outcome, result.order, result.iterations_used)
            assert got == oracles.pl_search(poset.n, rel, ext, vals, 12), (
                poset.covers, vals
            )
            outcomes[got[0]] += 1
        assert outcomes["finite-order"] and outcomes["no-repeat"]

    def test_search_builds_no_point_per_step(self, monkeypatch):
        built = []
        post_init = LabeledPoint.__post_init__
        monkeypatch.setattr(
            LabeledPoint,
            "__post_init__",
            lambda self: built.append(self) or post_init(self),
        )
        tree = parse_tree(NON_GRADED_TREES[0])
        start = LabeledPoint(tree, random_pl_point(tree, random.Random(0)).values)
        counts = []
        for max_iter in (10, 1000):
            built.clear()
            result = order_search(tree, start, max_iter=max_iter, kind="pl")
            assert (result.outcome, result.iterations_used) == ("no-repeat", max_iter)
            counts.append(len(built))
        assert counts[0] == counts[1] <= 1
