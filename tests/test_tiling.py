"""Cylinder tilings: construction, the two succession rules, inversion."""

import pytest

import oracles
from treerow import (
    Orbit,
    RootedTree,
    Tile,
    Tiling,
    all_orbits,
    orbit_of,
    orbit_of_tiling,
    parse_tree,
    render_tiling,
    tile_counts,
    tiling_of_orbit,
    validate_tiling,
)

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
        tree = parse_tree("(()())")
        orbit = Orbit((frozenset(), frozenset({0}), frozenset({1, 7})))
        with pytest.raises(
            ValueError, match="orbit inconsistent with tree: unknown node 7"
        ):
            tiling_of_orbit(tree, orbit)


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
        gap = Tiling(STAR_33, tiling.columns, tiling.tiles[1:])
        doubled = Tiling(STAR_33, tiling.columns, tiling.tiles + tiling.tiles[:1])
        for bad in (gap, doubled):
            with pytest.raises(ValueError, match="cover"):
                render_tiling(bad)

    def test_unknown_format(self):
        tiling = tiling_of_orbit(STAR_33, all_orbits(STAR_33)[0])
        with pytest.raises(ValueError):
            render_tiling(tiling, "png")
