"""Cylinder tilings of rowmotion orbits.

An orbit of size ``c`` on a tree with ``n`` leaf labels becomes a tiling
of an ``n``-row, ``c``-column cylinder: column ``t`` shows the ``t``-th
antichain, each member blackening the rows of its leaf interval, and runs
of the same branch walked bottom-to-top merge into a single black tile of
shape ``interval x beta`` (possibly wrapping the column seam).  All
remaining cells are 1x1 yellow tiles.  The two local succession rules —
what must follow a black tile and what must follow a maximal yellow run —
characterise exactly the tilings that arise this way, which is what
:func:`validate_tiling` checks and :func:`orbit_of_tiling` inverts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter
from typing import Iterator, Optional, Sequence

from .poset import RootedTree, _bits, interval_partition
from .rowmotion import Orbit, _canonical, _rho_mask

__all__ = [
    "Tile",
    "Tiling",
    "TilingReport",
    "tiling_of_orbit",
    "orbit_of_tiling",
    "validate_tiling",
    "tile_counts",
    "render_tiling",
]

BLACK = "black"
YELLOW = "yellow"


@dataclass(frozen=True)
class Tile:
    color: str
    interval: tuple[int, int]  # leaf-label rows lo..hi, inclusive
    start: int  # column of the first cell, 0-based mod columns
    width: int

    def __init__(self, color: str, interval: tuple[int, int], start: int, width: int):
        # The generated __init__ of a frozen dataclass sets each field
        # through object.__setattr__, about twice the cost of this; a
        # tiling holds one tile per yellow cell.
        d = self.__dict__
        d["color"] = color
        d["interval"] = interval
        d["start"] = start
        d["width"] = width

    def columns(self, total: int) -> list[int]:
        return [(self.start + o) % total for o in range(self.width)]


@dataclass(frozen=True)
class TilingReport:
    ok: bool
    violation: Optional[str] = None


@dataclass(frozen=True)
class _Grid:
    """The cylinder's cells, column-major: ``cells[col * rows + row - 1]``
    is the tile covering ``(row, col)``, or None where no tile does.

    ``defect`` is ``(i, cell)`` when tile ``i`` could not be placed: it
    covers ``cell`` a second time, or (``cell`` None) it does not fit the
    cylinder.  Tiles after it are not placed; every tile before it fits.
    ``gaps`` counts the cells left None.
    """

    rows: int
    cells: list[Optional[Tile]]
    defect: Optional[tuple[int, Optional[tuple[int, int]]]]
    gaps: int


@dataclass(frozen=True)
class Tiling:
    """A tiling of the ``rows x columns`` cylinder of a tree.

    The cell grid is derived from ``tiles`` once per tiling (by
    :func:`tiling_of_orbit` as it lays the tiles, otherwise on first use)
    and shared by :func:`validate_tiling` and :func:`render_tiling`.  The
    tiling also keeps, each with the tree object it was reached against,
    the last verdict of :func:`validate_tiling`, so that
    :func:`orbit_of_tiling` validates each tiling once, and its columns
    read as antichains, which :func:`orbit_of_tiling` and
    :func:`tile_counts` share.
    """

    tree: RootedTree
    columns: int
    tiles: tuple[Tile, ...]
    _grid: Optional[_Grid] = field(default=None, init=False, repr=False, compare=False)
    _verdict: Optional[tuple[RootedTree, TilingReport]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _columns: Optional[tuple[RootedTree, list[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def rows(self) -> int:
        return self.tree.n_leaves


def _sorted_tiles(tiles) -> tuple[Tile, ...]:
    return tuple(sorted(tiles, key=lambda t: (t.start, t.interval, t.color)))


def _place(
    cells: list[Optional[Tile]], rows: int, columns: int, tiles: Sequence[Tile]
) -> tuple[Optional[tuple[int, Optional[tuple[int, int]]]], int]:
    """Write ``tiles`` into ``cells`` in order: the defect stopping it, if
    any, and the number of cells written."""
    written = 0
    for i, tile in enumerate(tiles):
        lo, hi = tile.interval
        start = tile.start
        width = tile.width
        fits = 1 <= lo <= hi <= rows and 0 <= start < columns
        if not (fits and 1 <= width <= columns):
            return (i, None), written
        for col in range(start, start + width):
            col %= columns
            base = col * rows - 1
            for row in range(lo, hi + 1):
                if cells[base + row] is not None:
                    return (i, (row, col)), written
                cells[base + row] = tile
        written += width * (hi - lo + 1)
    return None, written


def _black(tiles: Sequence[Tile]) -> Iterator[Tile]:
    """The black tiles among ``tiles``, in order, filtered without a loop
    in Python."""
    return compress(tiles, map(BLACK.__eq__, map(attrgetter("color"), tiles)))


def _grid_of(tiling: Tiling, rows: int) -> _Grid:
    """The tiling's grid with ``rows`` rows, derived on first use."""
    grid = tiling._grid
    if grid is not None and grid.rows == rows:
        return grid
    cells: list[Optional[Tile]] = [None] * (rows * tiling.columns)
    defect, written = _place(cells, rows, tiling.columns, tiling.tiles)
    grid = _Grid(rows, cells, defect, len(cells) - written)
    if rows == tiling.rows:
        object.__setattr__(tiling, "_grid", grid)
    return grid


def tiling_of_orbit(tree: RootedTree, orbit: Orbit) -> Tiling:
    """Build the cylinder tiling of an orbit (column 0 = representative).

    The tiles are laid straight into the tiling's cell grid, so the grid
    comes with the tiling.
    """
    c = orbit.size
    n = tree.n_leaves
    top = max(orbit.masks, default=0).bit_length() - 1
    if top >= tree.n:
        raise ValueError(f"orbit inconsistent with tree: unknown node {top}")
    # Each branch must be walked bottom to top, one node per column: a
    # member with one child (id + 1, the next node of its branch) is
    # followed by that child, and a member whose parent has one child
    # (id - 1) follows its parent.  The walks are then whole tiles,
    # each starting where the bottom of its branch appears.
    one = tree.one_child_mask
    for t in range(c):
        nxt = (t + 1) % c
        if (orbit.masks[t] & one) << 1 != orbit.masks[nxt] & one << 1:
            raise ValueError(
                "orbit inconsistent with tree: a branch is not walked whole "
                f"across columns {t} and {nxt}"
            )
    cells: list[Optional[Tile]] = [None] * (n * c)
    bottoms = ~(one << 1)
    branch_of = tree.branch_of
    for t, m in enumerate(orbit.masks):
        for x in _bits(m & bottoms):
            iv, beta = branch_of[x]  # the bottom is the beta-th deepest
            if beta > c:
                raise ValueError(
                    f"orbit inconsistent with tree: {iv}-tile wider than the orbit"
                )
            tile = Tile(BLACK, iv, t, beta)
            lo, hi = iv
            for col in range(t, t + beta):
                base = col % c * n - 1
                for row in range(lo, hi + 1):
                    if cells[base + row] is not None:
                        raise ValueError(
                            "orbit inconsistent with tree: cell "
                            f"{(row, col % c)} doubly covered"
                        )
                    cells[base + row] = tile
    # Fill the gaps with yellow cells and list every tile where its first
    # cell falls in a column-major scan: that is the (start, interval)
    # order of _sorted_tiles, since tiles starting in one column are
    # disjoint there.
    tiles: list[Tile] = []
    for col in range(c):
        base = col * n
        for r in range(n):
            tile = cells[base + r]
            if tile is None:
                tile = cells[base + r] = Tile(YELLOW, (r + 1, r + 1), col, 1)
                tiles.append(tile)
            elif tile.start == col and tile.interval[0] == r + 1:
                tiles.append(tile)
    tiling = Tiling(tree, c, tuple(tiles))
    object.__setattr__(tiling, "_grid", _Grid(n, cells, None, 0))
    return tiling


def validate_tiling(tree: RootedTree, tiling: Tiling) -> TilingReport:
    """Check shapes, exact cover, and the two succession rules.

    Violations are reported, not raised; the first one found (in a fixed
    scan order) is named in the report.  Every call runs every check,
    reading the tiling's cell grid (derived once per tiling); the verdict
    is kept on the tiling for :func:`orbit_of_tiling`.
    """
    report = _validate(tree, tiling)
    object.__setattr__(tiling, "_verdict", (tree, report))
    return report


def _validate(tree: RootedTree, tiling: Tiling) -> TilingReport:
    c = tiling.columns
    n = tree.n_leaves
    if c < 1:
        return TilingReport(False, "tiling must have at least one column")

    grid = _grid_of(tiling, n)
    specs = tree.interval_specs
    # Without a defect every tile was placed, so it fits the cylinder;
    # the rest of its shape is checked once per distinct shape.
    if grid.defect is not None or not _shapes_fit(tiling.tiles, specs):
        return TilingReport(False, _first_shape_violation(tiling.tiles, grid, c, specs))
    cells = grid.cells
    if grid.gaps:
        col, r = divmod(next(i for i, t in enumerate(cells) if t is None), n)
        return TilingReport(False, f"cell {(r + 1, col)} not covered")

    violation = _black_rule_violation(tree, cells, c, tiling.tiles)
    if violation is not None:
        # name the first violation in the canonical tile order
        violation = _black_rule_violation(tree, cells, c, _sorted_tiles(tiling.tiles))
        return TilingReport(False, violation)
    # Rule for yellow runs: each maximal vertical run of yellow cells is
    # followed by the maximal partition of its row interval.
    for col in range(c):
        nxt = (col + 1) % c
        base = col * n - 1
        row = 1
        while row <= n:
            if cells[base + row].color != YELLOW:
                row += 1
                continue
            top = row
            while row <= n and cells[base + row].color == YELLOW:
                row += 1
            run = (top, row - 1)
            for block in interval_partition(tree, run, proper=False):
                t = cells[nxt * n + block[0] - 1]
                if t.color != BLACK or t.interval != block or t.start != nxt:
                    return TilingReport(
                        False,
                        f"yellow run {run} in column {col} is not followed "
                        f"by a {block}-tile starting at column {nxt}",
                    )
    return TilingReport(True)


def _shapes_fit(tiles: Sequence[Tile], specs: dict) -> bool:
    """Whether every tile has a known color and the height and width
    that color asks for; one check per distinct shape."""
    shapes = set(map(attrgetter("color", "interval", "width"), tiles))
    for color, (lo, hi), width in shapes:
        if color == YELLOW:
            fits = lo == hi and width == 1
        else:
            spec = specs.get((lo, hi)) if color == BLACK else None
            fits = spec is not None and width == spec.beta
        if not fits:
            return False
    return True


def _first_shape_violation(
    tiles: Sequence[Tile], grid: _Grid, c: int, specs: dict
) -> str:
    """What is wrong with the first tile, in order, whose shape is wrong
    or that could not be placed in the grid; each tile's checks are
    taken in a fixed order."""
    n = grid.rows
    defect_at, twice = grid.defect if grid.defect is not None else (-1, None)
    for i, tile in enumerate(tiles):
        lo, hi = tile.interval
        if tile.color not in (BLACK, YELLOW):
            return f"unknown color {tile.color!r}"
        if not (1 <= lo <= hi <= n):
            return f"tile rows {tile.interval} out of range"
        if not (0 <= tile.start < c):
            return f"tile start {tile.start} out of range"
        if tile.width < 1 or tile.width > c:
            return f"tile width {tile.width} out of range"
        if tile.color == YELLOW:
            if lo != hi or tile.width != 1:
                return f"yellow tile at {tile.start} is not 1x1"
        else:
            spec = specs.get(tile.interval)
            if spec is None:
                return f"{tile.interval} is not an interval of the tree"
            if tile.width != spec.beta:
                return (
                    f"{tile.interval}-tile at column {tile.start} has width "
                    f"{tile.width}, expected {spec.beta}"
                )
        if i == defect_at:
            return f"cell {twice} covered twice"
    raise AssertionError("no tile is at fault")


def _black_rule_violation(
    tree: RootedTree, cells: list, c: int, tiles: Sequence[Tile]
) -> Optional[str]:
    """Rule for black tiles: a singleton-interval tile is followed by a
    yellow cell; a wider one by the maximal proper partition of its
    interval, all starting in the next column (a block starts there when
    the tile on its first cell does).  The first violation among
    ``tiles``, in their order."""
    n = tree.n_leaves
    for tile in _black(tiles):
        lo, hi = tile.interval
        nxt = (tile.start + tile.width) % c
        if lo == hi:
            if cells[nxt * n + lo - 1].color != YELLOW:
                return (
                    f"{tile.interval}-tile ending before column {nxt} "
                    "is not followed by a yellow tile"
                )
        else:
            for block in interval_partition(tree, tile.interval, proper=True):
                t = cells[nxt * n + block[0] - 1]
                if t.color != BLACK or t.interval != block or t.start != nxt:
                    return (
                        f"{tile.interval}-tile ending before column {nxt} is not "
                        f"followed by a {block}-tile starting there"
                    )
    return None


def orbit_of_tiling(tree: RootedTree, tiling: Tiling) -> Orbit:
    """Invert :func:`tiling_of_orbit` (up to the canonical rotation).

    The tiling is validated first — once: a verdict that
    :func:`validate_tiling` already reached on this tiling against this
    same tree object is reused.  Reconstruction then reads each column,
    mapping the ``o``-th column of a black tile to the ``o``-th smallest
    branch element.  A final rowmotion-consistency pass rejects anything
    that slipped past the local rules (e.g. a cylinder that repeats a
    smaller orbit more than once).
    """
    verdict = tiling._verdict
    if verdict is not None and verdict[0] is tree:
        report = verdict[1]
    else:
        report = validate_tiling(tree, tiling)
    if not report.ok:
        raise ValueError(f"invalid tiling: {report.violation}")
    c = tiling.columns
    masks = _column_masks(tree, tiling)
    for t, m in enumerate(masks):
        if _rho_mask(tree, m) != masks[(t + 1) % c]:
            raise ValueError(
                f"invalid tiling: column {t} does not step to column {(t + 1) % c}"
            )
    if len(set(masks)) != c:
        raise ValueError("invalid tiling: repeats a smaller orbit")
    return Orbit._of(_canonical(tuple(masks)))


def _column_masks(tree: RootedTree, tiling: Tiling) -> list[int]:
    """Each column's antichain, as a bitmask: the ``o``-th column of a
    black tile holds the ``o``-th node of its branch counted from the
    root.  Read once per tiling and tree object."""
    cached = tiling._columns
    if cached is not None and cached[0] is tree:
        return cached[1]
    c = tiling.columns
    specs = tree.interval_specs
    masks = [0] * c
    for tile in _black(tiling.tiles):
        # a branch's ids run up by one from its node nearest the root
        bit = 1 << specs[tile.interval].nodes[-1]
        for o in range(tile.width):
            masks[(tile.start + o) % c] |= bit << o
    object.__setattr__(tiling, "_columns", (tree, masks))
    return masks


def tile_counts(tiling: Tiling) -> dict[tuple[int, int], tuple[int, int]]:
    """Per interval ``I``: (number of I-tiles, columns meeting tiles of
    strictly nested intervals)."""
    tree = tiling.tree
    m_counts = Counter(map(attrgetter("interval"), _black(tiling.tiles)))
    masks = _column_masks(tree, tiling)
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for iv, spec in tree.interval_specs.items():
        # the nodes strictly above I's top are those of the strictly
        # nested intervals; a leaf's branch nests none
        top = spec.nodes[0]
        nested = tree.up[top] & ~(1 << top)
        cols = sum(1 for m in masks if m & nested) if nested else 0
        out[iv] = (m_counts[iv], cols)
    return out


def render_tiling(tiling: Tiling, format: str = "ascii") -> str:
    if format == "ascii":
        return _render_ascii(tiling)
    if format == "svg":
        return _render_svg(tiling)
    raise ValueError(f"unsupported render format {format!r}")


def _render_ascii(tiling: Tiling) -> str:
    """One char per cell ('#' black, '.' yellow); '|' separates tiles,
    spaces join cells of one tile; '<'/'>' mark tiles crossing the seam."""
    c = tiling.columns
    n = tiling.rows
    grid = _grid_of(tiling, n)
    cells = grid.cells
    if c < 1 or grid.defect is not None or grid.gaps:
        raise ValueError("cannot render: the tiles do not cover the cylinder exactly")

    def wraps(tile: Tile) -> bool:
        return tile.start + tile.width > c

    lines = []
    for row in range(n):
        line = cells[row::n]
        first = line[0]
        chars = ["<" if wraps(first) and first.start != 0 else "|"]
        for col, tile in enumerate(line):
            chars.append("#" if tile.color == BLACK else ".")
            if col + 1 < c:
                chars.append(" " if line[col + 1] is tile else "|")
        chars.append(">" if wraps(line[-1]) else "|")
        lines.append("".join(chars))
    return "\n".join(lines) + "\n"


def _render_svg(tiling: Tiling) -> str:
    """Deterministic SVG; seam-crossing tiles protrude half a cell."""
    size = 20
    pad = size // 2
    c = tiling.columns
    width = c * size + 2 * pad
    height = tiling.rows * size + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')

    def rect(col: float, row: int, w: float, h: int, fill: str) -> str:
        return (
            f'<rect x="{pad + col * size:g}" y="{pad + (row - 1) * size}" '
            f'width="{w * size:g}" height="{h * size}" '
            f'fill="{fill}" stroke="black" stroke-width="1"/>'
        )

    for tile in _sorted_tiles(tiling.tiles):
        fill = "#444444" if tile.color == BLACK else "#ffeeaa"
        h = tile.interval[1] - tile.interval[0] + 1
        if tile.start + tile.width <= c:
            parts.append(rect(tile.start, tile.interval[0], tile.width, h, fill))
        else:
            head = c - tile.start  # columns before the seam
            parts.append(rect(tile.start, tile.interval[0], head + 0.5, h, fill))
            parts.append(rect(-0.5, tile.interval[0], tile.width - head + 0.5, h, fill))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
