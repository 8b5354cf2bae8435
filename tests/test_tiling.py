"""Cylinder tilings: construction, the two succession rules, inversion."""

import io
import json
from contextlib import redirect_stdout

import pytest

import oracles
from treerow import (
    Orbit,
    RootedTree,
    Tile,
    Tiling,
    all_orbits,
    make_family,
    orbit_of,
    orbit_of_tiling,
    orbit_sums_from_tiling,
    parse_family,
    parse_tree,
    render_tiling,
    tile_counts,
    tiling_of_orbit,
    validate_tiling,
)
from treerow.cli import main

STAR_332 = parse_tree("((())(())())")
STAR_33 = parse_tree("((())(()))")

TREES = [
    RootedTree(parents)
    for n in range(1, 8)
    for parents in oracles.parent_vectors(n)
]


def zero_orbit(tree):
    return next(o for o in all_orbits(tree) if o.delta)


class TestConstruction:
    def test_star_332_zero_orbit_tiles(self):
        """Frozen against the hand-worked orbit in test_rowmotion."""
        tiling = tiling_of_orbit(STAR_332, zero_orbit(STAR_332))
        assert tiling.columns == 7 and tiling.rows == 3
        black = {t for t in tiling.tiles if t.color == "black"}
        assert black == {
            Tile("black", (1, 3), 1, 1),
            Tile("black", (1, 1), 2, 2),
            Tile("black", (1, 1), 5, 2),
            Tile("black", (2, 2), 2, 2),
            Tile("black", (2, 2), 5, 2),
            Tile("black", (3, 3), 2, 1),
            Tile("black", (3, 3), 4, 1),
            Tile("black", (3, 3), 6, 1),
        }
        yellow = {(t.interval[0], t.start) for t in tiling.tiles if t.color == "yellow"}
        assert yellow == {(1, 0), (2, 0), (3, 0), (1, 4), (2, 4), (3, 3), (3, 5)}

    def test_chain_orbit_is_one_long_tile(self):
        chain = parse_tree("((()))")
        tiling = tiling_of_orbit(chain, zero_orbit(chain))
        assert tiling.columns == 4
        assert set(tiling.tiles) == {
            Tile("black", (1, 1), 1, 3),
            Tile("yellow", (1, 1), 0, 1),
        }

    def test_wrapping_tile(self):
        # third orbit of S(3,3): the right branch's tile crosses the seam
        orbit = all_orbits(STAR_33)[2]
        assert orbit.as_id_lists() == [[1, 4], [2], [3]]
        tiling = tiling_of_orbit(STAR_33, orbit)
        assert Tile("black", (2, 2), 2, 2) in tiling.tiles

    def test_rejects_orbit_from_the_wrong_tree(self):
        orbit = zero_orbit(STAR_332)
        with pytest.raises(ValueError):
            tiling_of_orbit(parse_tree("(()())"), orbit)

    def test_rejects_unknown_node(self):
        cases = [
            ("(()())", [set(), {0}, {1, 7}], "unknown node 7"),
            ("(())", [{1}], "a branch is not walked whole"),
            ("((()))", [{0, 2}, {1}], "(1, 1)-tile wider than the orbit"),
            ("(()())", [{0, 1}], "cell (1, 0) doubly covered"),
        ]
        for spec, members, fragment in cases:
            with pytest.raises(ValueError) as err:
                tiling_of_orbit(parse_tree(spec), Orbit(members))
            assert str(err.value).startswith("orbit inconsistent with tree: ")
            assert fragment in str(err.value)


class TestValidateAndInvert:
    def test_roundtrip_on_all_small_trees(self):
        for tree in TREES:
            for orbit in all_orbits(tree):
                tiling = tiling_of_orbit(tree, orbit)
                report = validate_tiling(tree, tiling)
                assert report.ok, (tree.to_spec(), report.violation)
                assert orbit_of_tiling(tree, tiling) == orbit

    def test_recolored_cell_breaks_succession(self):
        tiling = tiling_of_orbit(STAR_332, zero_orbit(STAR_332))
        # make the (3,3) yellow cell at column 3 black: locally well-shaped
        # (beta of (3,3) is 1) but now a black tile is not followed by yellow
        tiles = tuple(
            Tile("black", t.interval, t.start, t.width)
            if t == Tile("yellow", (3, 3), 3, 1)
            else t
            for t in tiling.tiles
        )
        report = validate_tiling(STAR_332, Tiling(STAR_332, tiling.columns, tiles))
        assert not report.ok
        assert "yellow" in report.violation

    def test_names_the_first_violation_in_tile_order(self):
        tiling = tiling_of_orbit(STAR_332, zero_orbit(STAR_332))
        recolored = (Tile("yellow", (3, 3), 3, 1), Tile("yellow", (3, 3), 5, 1))
        tiles = tuple(
            Tile("black", t.interval, t.start, t.width) if t in recolored else t
            for t in tiling.tiles
        )
        for order in (tiles, tiles[::-1]):
            report = validate_tiling(STAR_332, Tiling(STAR_332, 7, order))
            assert report.violation == (
                "(3, 3)-tile ending before column 3 is not followed by a yellow tile"
            )

    def test_wrong_width_rejected(self):
        tiling = tiling_of_orbit(STAR_332, zero_orbit(STAR_332))
        tiles = tuple(
            Tile("black", (1, 1), 2, 1) if t == Tile("black", (1, 1), 2, 2) else t
            for t in tiling.tiles
        )
        report = validate_tiling(STAR_332, Tiling(STAR_332, 7, tiles))
        assert not report.ok and "width" in report.violation

    def test_gap_and_overlap_rejected(self):
        tiling = tiling_of_orbit(STAR_332, zero_orbit(STAR_332))
        dropped = tuple(t for t in tiling.tiles if t != Tile("yellow", (3, 3), 3, 1))
        report = validate_tiling(STAR_332, Tiling(STAR_332, 7, dropped))
        assert not report.ok and "not covered" in report.violation

        doubled = tiling.tiles + (Tile("yellow", (3, 3), 3, 1),)
        report = validate_tiling(STAR_332, Tiling(STAR_332, 7, doubled))
        assert not report.ok and "twice" in report.violation

    def test_shape_violations(self):
        ok = tiling_of_orbit(STAR_332, zero_orbit(STAR_332))
        cases = [
            (Tile("black", (2, 3), 0, 1), "not an interval"),
            (Tile("yellow", (1, 2), 0, 1), "1x1"),
            (Tile("yellow", (1, 1), 9, 1), "out of range"),
            (Tile("purple", (1, 1), 0, 1), "color"),
            (Tile("black", (0, 1), 0, 1), "tile rows (0, 1) out of range"),
            (Tile("black", (1, 1), 0, 9), "tile width 9 out of range"),
        ]
        for tile, fragment in cases:
            report = validate_tiling(
                STAR_332, Tiling(STAR_332, 7, (tile,) + ok.tiles[1:])
            )
            assert not report.ok
            assert fragment in report.violation, report.violation

    def test_doubled_cylinder_is_locally_valid_but_not_an_orbit(self):
        """Both succession rules are local, so gluing two copies of an
        orbit's tiling passes validation; inversion must refuse it."""
        cherry = parse_tree("(()())")
        tiles = []
        for shift in (0, 3):
            tiles += [
                Tile("yellow", (1, 1), shift, 1),
                Tile("yellow", (2, 2), shift, 1),
                Tile("black", (1, 2), shift + 1, 1),
                Tile("black", (1, 1), shift + 2, 1),
                Tile("black", (2, 2), shift + 2, 1),
            ]
        doubled = Tiling(cherry, 6, tuple(tiles))
        assert validate_tiling(cherry, doubled).ok
        with pytest.raises(ValueError, match="smaller orbit"):
            orbit_of_tiling(cherry, doubled)

    def test_invert_rejects_invalid(self):
        cherry = parse_tree("(()())")
        with pytest.raises(ValueError, match="invalid tiling"):
            orbit_of_tiling(cherry, Tiling(cherry, 1, (Tile("yellow", (1, 1), 0, 1),)))

    def test_verdict_is_reused_only_for_the_same_tree(self):
        orbit = zero_orbit(STAR_332)
        tiling = tiling_of_orbit(STAR_332, orbit)
        # same three leaves, but every branch has a single node
        flat = parse_tree("(()()())")
        assert validate_tiling(STAR_332, tiling).ok
        with pytest.raises(ValueError, match="invalid tiling: .*width"):
            orbit_of_tiling(flat, tiling)
        report = validate_tiling(flat, tiling)
        assert not report.ok and "width" in report.violation
        # an equal tree that is another object is judged afresh too
        assert orbit_of_tiling(parse_tree(STAR_332.to_spec()), tiling) == orbit
        assert orbit_of_tiling(STAR_332, tiling) == orbit

    def test_invert_raises_after_a_reported_violation(self):
        tiling = tiling_of_orbit(STAR_332, zero_orbit(STAR_332))
        tiles = tuple(
            Tile("black", t.interval, t.start, t.width)
            if t == Tile("yellow", (3, 3), 3, 1)
            else t
            for t in tiling.tiles
        )
        broken = Tiling(STAR_332, tiling.columns, tiles)
        report = validate_tiling(STAR_332, broken)
        assert not report.ok
        with pytest.raises(ValueError) as err:
            orbit_of_tiling(STAR_332, broken)
        assert str(err.value) == f"invalid tiling: {report.violation}"


class TestTileCounts:
    def test_star_332_zero_orbit(self):
        tiling = tiling_of_orbit(STAR_332, zero_orbit(STAR_332))
        assert tile_counts(tiling) == {
            (1, 1): (2, 0),
            (2, 2): (2, 0),
            (3, 3): (3, 0),
            (1, 3): (1, 5),
        }

    def test_star_332_free_orbits(self):
        for orbit in all_orbits(STAR_332):
            if orbit.delta:
                continue
            counts = tile_counts(tiling_of_orbit(STAR_332, orbit))
            assert counts[(1, 3)] == (0, 6)  # every column meets a leaf tile

    def test_nesting_is_strict(self):
        # a branch interval never counts its own tiles as nested
        for tree in TREES[:120]:
            for orbit in all_orbits(tree):
                counts = tile_counts(tiling_of_orbit(tree, orbit))
                for (lo, hi), (m, c) in counts.items():
                    if lo == hi:
                        assert c == 0
                    assert c <= orbit.size


class TestRender:
    def test_ascii_star_332(self):
        tiling = tiling_of_orbit(STAR_332, zero_orbit(STAR_332))
        assert render_tiling(tiling, "ascii") == (
            "|.|#|# #|.|# #|\n"
            "|.|#|# #|.|# #|\n"
            "|.|#|#|.|#|.|#|\n"
        )

    def test_ascii_seam_markers(self):
        tiling = tiling_of_orbit(STAR_33, all_orbits(STAR_33)[2])
        assert render_tiling(tiling) == "|# #|.|\n<#|.|#>\n"

    def test_svg_structure(self):
        tiling = tiling_of_orbit(STAR_33, all_orbits(STAR_33)[2])
        svg = render_tiling(tiling, "svg")
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        # background + 3 plain tiles + the wrapping tile split in two
        assert svg.count("<rect") == 6
        assert svg.count("#444444") == 3
        assert svg.count("#ffeeaa") == 2

    def test_refuses_a_tiling_that_does_not_cover_exactly(self):
        tiling = tiling_of_orbit(STAR_33, all_orbits(STAR_33)[2])
        c = tiling.columns
        gap = Tiling(STAR_33, c, tiling.tiles[1:])
        doubled = Tiling(STAR_33, c, tiling.tiles + tiling.tiles[:1])
        off = Tiling(STAR_33, c, tiling.tiles + (Tile("yellow", (1, 1), 9, 1),))
        no_columns = Tiling(STAR_33, 0, ())
        for bad in (gap, doubled, off, no_columns):
            for format in ("ascii", "svg"):
                with pytest.raises(ValueError, match="do not cover the cylinder"):
                    render_tiling(bad, format)

    def test_unknown_format(self):
        tiling = tiling_of_orbit(STAR_33, all_orbits(STAR_33)[0])
        with pytest.raises(ValueError):
            render_tiling(tiling, "png")


def recolored_star_33():
    """The third orbit of S(3,3) with its yellow tiles made black: every
    cell is covered once, but the (2,2) tiles are too narrow."""
    tiling = tiling_of_orbit(STAR_33, all_orbits(STAR_33)[2])
    tiles = tuple(Tile("black", t.interval, t.start, t.width) for t in tiling.tiles)
    return Tiling(STAR_33, tiling.columns, tiles)


class TestTwoRoutes:
    """A tiling built from an orbit and the same tiles given explicitly
    are laid into their cylinders by different code."""

    def test_explicit_tiles_behave_as_the_orbit_built_tiling(self):
        for tree in TREES:
            for orbit in all_orbits(tree):
                built = tiling_of_orbit(tree, orbit)
                # judge the orbit-built tiling before its tiles are read
                seen = (
                    validate_tiling(tree, built),
                    render_tiling(built),
                    tile_counts(built),
                    orbit_of_tiling(tree, built),
                )
                explicit = Tiling(tree, built.columns, built.tiles)
                assert explicit == built and hash(explicit) == hash(built)
                assert repr(explicit) == repr(built)
                assert seen == (
                    validate_tiling(tree, explicit),
                    render_tiling(explicit),
                    tile_counts(explicit),
                    orbit_of_tiling(tree, explicit),
                )
                assert render_tiling(explicit, "svg") == render_tiling(built, "svg")

    def test_tilings_rebuilt_from_the_tiling_verbs_json(self):
        """The ``tiling`` verb writes the tiles and their intervals as
        lists; tiles and a tiling made from those lists are the built
        ones."""
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["tiling", "--family", "star:3,3"]) == 0
        records = json.loads(out.getvalue())["tilings"]
        tree = make_family(parse_family("star:3,3"))
        orbits = all_orbits(tree)
        assert len(records) == len(orbits)
        for record, orbit in zip(records, orbits):
            built = tiling_of_orbit(tree, orbit)
            rebuilt = Tiling(
                tree, record["columns"], [Tile(**t) for t in record["tiles"]]
            )
            assert rebuilt == built and hash(rebuilt) == hash(built)
            report = validate_tiling(tree, rebuilt)
            assert report.ok and report == validate_tiling(tree, built)
            assert orbit_of_tiling(tree, rebuilt) == orbit
            assert orbit_of_tiling(tree, built) == orbit

    def test_one_tile_mutations(self):
        """Each mutation is either rejected, with inversion raising the
        reported violation, or inverts to a true orbit."""
        rejected = 0
        for tree in (t for t in TREES if t.n <= 6):
            rel = oracles.relations_from_parents(tree.parents)
            for orbit in all_orbits(tree):
                tiling = tiling_of_orbit(tree, orbit)
                c = tiling.columns
                for i, t in enumerate(tiling.tiles):
                    other = "yellow" if t.color == "black" else "black"
                    swaps = [
                        Tile(other, t.interval, t.start, t.width),
                        Tile(t.color, t.interval, (t.start + 1) % c, t.width),
                        Tile(t.color, t.interval, t.start, t.width + 1),
                    ]
                    rest = tiling.tiles[:i], tiling.tiles[i + 1 :]
                    variants = [rest[0] + (s,) + rest[1] for s in swaps]
                    variants += [rest[0] + rest[1], tiling.tiles + (t,)]
                    for tiles in variants:
                        mutated = Tiling(tree, c, tiles)
                        report = validate_tiling(tree, mutated)
                        if not report.ok:
                            rejected += 1
                            with pytest.raises(ValueError) as err:
                                orbit_of_tiling(tree, mutated)
                            assert str(err.value) == f"invalid tiling: {report.violation}"
                            continue
                        inverse = orbit_of_tiling(tree, mutated)
                        members = list(inverse.antichains)
                        assert oracles.orbit(tree.n, rel, members[0]) == members
        assert rejected > 0

    def test_renders_a_misshapen_exact_cover(self):
        tiling = recolored_star_33()
        report = validate_tiling(STAR_33, tiling)
        assert report.violation == "(2, 2)-tile at column 1 has width 1, expected 2"
        assert render_tiling(tiling) == "|# #|#|\n<#|#|#>\n"
        # background + 3 plain tiles + the wrapping tile split in two
        svg = render_tiling(tiling, "svg")
        assert svg.count("<rect") == 6 and svg.count("#444444") == 5


class TestCountsNeedAValidTiling:
    def test_invalid_tiling_is_refused(self):
        tiling = recolored_star_33()
        message = "invalid tiling: (2, 2)-tile at column 1 has width 1, expected 2"
        with pytest.raises(ValueError) as err:
            orbit_sums_from_tiling(STAR_33, tiling)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            tile_counts(tiling)
        assert str(err.value) == message

    def test_tiling_of_another_tree_is_refused(self):
        tree = parse_tree("(((()))(()))")
        for orbit in all_orbits(STAR_33):
            tiling = tiling_of_orbit(STAR_33, orbit)
            with pytest.raises(ValueError, match="invalid tiling: .*width"):
                orbit_sums_from_tiling(tree, tiling)
            assert orbit_sums_from_tiling(STAR_33, tiling).chi == sum(
                len(a) for a in orbit.antichains
            )


class TestTilesAreBuiltOnRead:
    @pytest.fixture
    def made(self, monkeypatch):
        """The colour of every Tile built while the test runs."""
        made = []
        init = Tile.__init__

        def counting_init(self, color, *rest):
            made.append(color)
            init(self, color, *rest)

        monkeypatch.setattr(Tile, "__init__", counting_init)
        return made

    def test_no_tile_until_tiles_are_read(self, made):
        tree = make_family(parse_family("star:3,3,2"))
        tilings = []
        for orbit in all_orbits(tree):
            tiling = tiling_of_orbit(tree, orbit)
            assert validate_tiling(tree, tiling).ok
            assert orbit_of_tiling(tree, tiling) == orbit
            orbit_sums_from_tiling(tree, tiling)
            render_tiling(tiling)
            render_tiling(tiling, "svg")
            tilings.append((orbit, tiling))
        assert made == []
        for orbit, tiling in tilings:
            before = len(made)
            tiles = tiling.tiles
            assert len(made) - before == len(tiles)
            assert tiling.tiles is tiles  # built once
            assert tiles == tuple(
                sorted(tiles, key=lambda t: (t.start, t.interval, t.color))
            )
            # the yellow tiles are the cells no member's branch blackens
            black_cells = {
                (row, col)
                for col, members in enumerate(orbit.antichains)
                for x in members
                for row in range(
                    tree.branch_of[x][0][0], tree.branch_of[x][0][1] + 1
                )
            }
            yellow = {(t.interval[0], t.start) for t in tiles if t.color == "yellow"}
            assert yellow == {
                (row, col)
                for row in range(1, tree.n_leaves + 1)
                for col in range(tiling.columns)
            } - black_cells
            assert all(
                t.interval[0] == t.interval[1] and t.width == 1
                for t in tiles
                if t.color == "yellow"
            )
            # a black tile starts where a branch's node nearest the root is
            specs = tree.interval_specs
            assert {
                (t.start, t.interval, t.width) for t in tiles if t.color == "black"
            } == {
                (col, iv, specs[iv].beta)
                for col, members in enumerate(orbit.antichains)
                for x in members
                for iv in [tree.branch_of[x][0]]
                if specs[iv].nodes[-1] == x
            }
        assert len(made) == sum(len(tiling.tiles) for _, tiling in tilings)

    def test_svg_rendering_builds_no_tile(self, made):
        tree = make_family(parse_family("star:3,3,2"))
        built = [tiling_of_orbit(tree, orbit) for orbit in all_orbits(tree)]
        svgs = [render_tiling(tiling, "svg") for tiling in built]
        assert made == []
        for tiling, svg in zip(built, svgs):
            explicit = Tiling(tree, tiling.columns, tiling.tiles)
            assert render_tiling(explicit, "svg") == svg
            assert svg.count('fill="#ffeeaa"') == sum(
                t.color == "yellow" for t in tiling.tiles
            )
