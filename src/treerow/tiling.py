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

A tiling keeps one cylinder, for the tree it was last judged against
(an equal tree counts as the same): its black tiles, each a plain
``(start, interval, width, color)`` tuple, and one int per cell, naming
the black tile that covers the cell or marking it yellow or empty, with
the verdict of :func:`validate_tiling` and the columns read as
antichains.  Validation, inversion, :func:`tile_counts`, the tiling sums
of :mod:`treerow.stats` and rendering read it; :func:`tiling_of_orbit`
lays it directly, with the orbit's members as its columns, and builds no
:class:`Tile`: the ``Tile`` objects of ``Tiling.tiles``, black and
yellow, are built only when they are read.  All but validation and
rendering raise ``ValueError("invalid tiling: …")`` on a tiling that is
not valid for the tree they are given.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import _EXPORTS
from .poset import RootedTree, _bits, interval_partition
from .rowmotion import Orbit, _canonical, _rho_mask

__all__ = list(_EXPORTS["tiling"])

BLACK = "black"
YELLOW = "yellow"

# cell marks beside the black-tile indices 0, 1, ...
_YELLOW = -1  # covered by a 1x1 yellow tile
_EMPTY = -2  # covered by no tile


@dataclass(frozen=True)
class Tile:
    color: str
    interval: tuple[int, int]  # leaf-label rows lo..hi, inclusive
    start: int  # column of the first cell, 0-based mod columns
    width: int

    def __post_init__(self) -> None:
        # an interval given as a list (as JSON reads it back) compares,
        # hashes and looks up like the tuple
        object.__setattr__(self, "interval", tuple(self.interval))


@dataclass(frozen=True)
class TilingReport:
    ok: bool
    violation: Optional[str] = None


# the verdict of every valid tiling; frozen, so one is shared
_VALID = TilingReport(True)


@dataclass(eq=False)
class _Cylinder:
    """A tiling laid on the cylinder of ``tree``, column-major:
    ``cells[col * rows + row - 1]`` is the index in ``black`` of the tile
    covering ``(row, col)``, or ``_YELLOW``, or ``_EMPTY``.

    ``black`` holds the tiles that are not 1x1 yellow, which on a
    well-shaped tiling are its black tiles, each as a tuple
    ``(start, interval, width, color)``: ``sorted(black)`` is the
    ``(start, interval)`` order, since laid tiles never share a first
    cell.  ``cells`` is None when the columns are not a positive int or a
    tile could not be laid (see :func:`_cylinder`).  ``verdict`` and
    ``masks`` (each column's antichain) are filled in on first use, or
    at once by :func:`tiling_of_orbit`.
    """

    tree: RootedTree
    black: list[tuple[int, tuple[int, int], int, str]]
    cells: Optional[list[int]]
    verdict: Optional[TilingReport] = None
    masks: Optional[Sequence[int]] = None


@dataclass(frozen=True)
class Tiling:
    """A tiling of the ``rows x columns`` cylinder of a tree.

    Explicit ``tiles`` are laid into the tiling's one private cylinder on
    first use.  A tiling from :func:`tiling_of_orbit` comes with its
    cylinder and builds ``tiles``, in ``(start, interval)`` order, only
    when they are first read.  Equality, hashing and ``repr`` read
    ``tiles`` either way.
    """

    tree: RootedTree
    columns: int
    tiles: tuple[Tile, ...]
    _cylinder: Optional[_Cylinder] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # tiles given as a list compare and hash like the tuple
        object.__setattr__(self, "tiles", tuple(self.tiles))

    @classmethod
    def _of(cls, tree: RootedTree, columns: int, cylinder: _Cylinder) -> "Tiling":
        """The tiling laid out on ``cylinder``, its ``tiles`` not yet built."""
        tiling = object.__new__(cls)
        object.__setattr__(tiling, "tree", tree)
        object.__setattr__(tiling, "columns", columns)
        object.__setattr__(tiling, "_cylinder", cylinder)
        return tiling

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks, as ``tiles``
        # on a tiling made by _of.
        cylinder = self._cylinder
        if name != "tiles" or cylinder is None:
            raise AttributeError(name)
        # a list first: tuple() of a generator grows the tuple by resizing,
        # which kept 0.45 MB more in use over every plane tree with <= 8
        # nodes (CPython 3.11, tracemalloc)
        tiles = [Tile(color, interval, start, width)
                 for start, interval, width, color in _tiles(cylinder)]
        object.__setattr__(self, "tiles", tuple(tiles))
        return self.tiles

    @property
    def rows(self) -> int:
        return self.tree.n_leaves


def _tiles(cylinder: _Cylinder) -> list[tuple[int, tuple[int, int], int, str]]:
    """Every tile of a laid cylinder, a yellow cell as a 1x1 yellow tuple,
    sorted: the (start, interval) order, as ``_Cylinder`` says."""
    n = cylinder.tree.n_leaves
    return sorted(cylinder.black + [
        (i // n, (i % n + 1, i % n + 1), 1, YELLOW)
        for i, k in enumerate(cylinder.cells)
        if k == _YELLOW
    ])


def tiling_of_orbit(tree: RootedTree, orbit: Orbit) -> Tiling:
    """Build the cylinder tiling of an orbit (column 0 = representative).

    The black tiles are laid straight into the tiling's cylinder, and the
    cells they leave are yellow.  The checks below make the columns read
    back as the orbit's members, so they are the cylinder's ``masks``.
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
    cells = [_YELLOW] * (n * c)
    black = []
    bottoms = ~(one << 1)
    branch_of = tree.branch_of
    for t, m in enumerate(orbit.masks):
        for x in _bits(m & bottoms):
            iv, beta = branch_of[x]  # the bottom is the beta-th deepest
            if beta > c:
                raise ValueError(
                    f"orbit inconsistent with tree: {iv}-tile wider than the orbit"
                )
            k = len(black)
            black.append((t, iv, beta, BLACK))
            lo, hi = iv
            for col in range(t, t + beta):
                base = col % c * n - 1
                for row in range(lo, hi + 1):
                    if cells[base + row] != _YELLOW:
                        raise ValueError(
                            "orbit inconsistent with tree: cell "
                            f"{(row, col % c)} doubly covered"
                        )
                    cells[base + row] = k
    return Tiling._of(tree, c, _Cylinder(tree, black, cells, masks=orbit.masks))


def _cylinder(tree: RootedTree, tiling: Tiling) -> _Cylinder:
    """The tiling's cylinder for ``tree``.

    Unless the tiling keeps one for this tree (an equal tree counts as
    the same), its tiles are laid in order.  The first tile that is
    misshapen (by :func:`_misshapen`) or that covers a cell a second time
    sets the verdict; the pass stops at a tile that overlaps an earlier one
    or is off the cylinder (by :func:`_off_cylinder`), but lays a
    misshapen one that fits, so that such a tiling can still be drawn.
    """
    cylinder = tiling._cylinder
    if cylinder is not None and (cylinder.tree is tree or cylinder.tree == tree):
        return cylinder
    c = tiling.columns
    n = tree.n_leaves
    specs = tree.interval_specs
    if type(c) is not int:
        flaw = f"tiling columns {c!r} is not an int"
    else:
        flaw = None if c >= 1 else "tiling must have at least one column"
    black = []
    cells: Optional[list[int]] = None if flaw else [_EMPTY] * (n * c)
    for tile in tiling.tiles if flaw is None else ():  # read off the old cylinder
        misshapen = _misshapen(tile, n, c, specs)
        if misshapen is not None:
            flaw = flaw or misshapen
            if _off_cylinder(tile, n, c) is not None:
                cells = None
                break
        lo, hi = tile.interval
        start, width = tile.start, tile.width
        spots = [
            col % c * n + row - 1
            for col in range(start, start + width)
            for row in range(lo, hi + 1)
        ]
        taken = next((i for i in spots if cells[i] != _EMPTY), None)
        if taken is not None:
            col, r = divmod(taken, n)
            flaw = flaw or f"cell {(r + 1, col)} covered twice"
            cells = None
            break
        if tile.color == YELLOW and lo == hi and width == 1:
            mark = _YELLOW
        else:
            mark = len(black)
            black.append((start, tile.interval, width, tile.color))
        for i in spots:
            cells[i] = mark
    cylinder = _Cylinder(tree, black, cells)
    if flaw is not None:
        cylinder.verdict = TilingReport(False, flaw)
    object.__setattr__(tiling, "_cylinder", cylinder)
    return cylinder


def _off_cylinder(tile: Tile, n: int, c: int) -> Optional[str]:
    """What keeps the tile off an ``n x c`` cylinder: a row, start or
    width that is not an int (a bool is not one) or is out of range; None
    if it fits."""
    interval = tile.interval
    if not (len(interval) == 2 and type(interval[0]) is type(interval[1]) is int):
        return f"tile rows {interval!r} are not two ints"
    lo, hi = interval
    if not (1 <= lo <= hi <= n):
        return f"tile rows {interval} out of range"
    if type(tile.start) is not int:
        return f"tile start {tile.start!r} is not an int"
    if not (0 <= tile.start < c):
        return f"tile start {tile.start} out of range"
    if type(tile.width) is not int:
        return f"tile width {tile.width!r} is not an int"
    if tile.width < 1 or tile.width > c:
        return f"tile width {tile.width} out of range"
    return None


def _misshapen(tile: Tile, n: int, c: int, specs: dict) -> Optional[str]:
    """What is wrong with the tile's shape on an ``n x c`` cylinder, its
    checks taken in a fixed order; None if nothing is."""
    if tile.color not in (BLACK, YELLOW):
        return f"unknown color {tile.color!r}"
    off = _off_cylinder(tile, n, c)
    if off is not None:
        return off
    lo, hi = tile.interval
    if tile.color == YELLOW:
        if lo != hi or tile.width != 1:
            return f"yellow tile at {tile.start} is not 1x1"
        return None
    spec = specs.get(tile.interval)
    if spec is None:
        return f"{tile.interval} is not an interval of the tree"
    if tile.width != spec.beta:
        return (
            f"{tile.interval}-tile at column {tile.start} has width "
            f"{tile.width}, expected {spec.beta}"
        )
    return None


def validate_tiling(tree: RootedTree, tiling: Tiling) -> TilingReport:
    """Check shapes, exact cover, and the two succession rules.

    Violations are reported, not raised; the first one found (in a fixed
    scan order) is named in the report.  The verdict is reached once per
    tiling and tree (an equal tree counts as the same) and kept on the
    tiling's cylinder, where :func:`orbit_of_tiling`, :func:`tile_counts`
    and the tiling sums read it.
    """
    cylinder = _cylinder(tree, tiling)
    if cylinder.verdict is None:
        violation = _violation(cylinder, tiling.columns)
        cylinder.verdict = (
            _VALID if violation is None else TilingReport(False, violation)
        )
    return cylinder.verdict


def _violation(cylinder: _Cylinder, c: int) -> Optional[str]:
    """The first gap or broken succession rule of a cylinder whose tiles
    are well shaped and laid."""
    tree = cylinder.tree
    n = tree.n_leaves
    cells = cylinder.cells
    black = cylinder.black
    if _EMPTY in cells:
        col, r = divmod(cells.index(_EMPTY), n)
        return f"cell {(r + 1, col)} not covered"
    # laying order first: sparing a valid tiling the sort takes about 2 % off
    # the tiling-sweep workload's wall_s; sorted names the first violation
    if _black_rule_violation(cylinder, c, black) is not None:
        return _black_rule_violation(cylinder, c, sorted(black))
    # Rule for yellow runs: each maximal vertical run of yellow cells is
    # followed by the maximal partition of its row interval.
    for col in range(c):
        nxt = (col + 1) % c
        base = col * n - 1
        row = 1
        while row <= n:
            if cells[base + row] != _YELLOW:
                row += 1
                continue
            top = row
            while row <= n and cells[base + row] == _YELLOW:
                row += 1
            run = (top, row - 1)
            for block in interval_partition(tree, run, proper=False):
                k = cells[nxt * n + block[0] - 1]
                if k < 0 or black[k][1] != block or black[k][0] != nxt:
                    return (
                        f"yellow run {run} in column {col} is not followed "
                        f"by a {block}-tile starting at column {nxt}"
                    )
    return None


def _black_rule_violation(
    cylinder: _Cylinder, c: int, tiles: Sequence[tuple]
) -> Optional[str]:
    """Rule for black tiles: a singleton-interval tile is followed by a
    yellow cell; a wider one by the maximal proper partition of its
    interval, all starting in the next column (a block starts there when
    the tile on its first cell does).  The first violation among
    ``tiles``, in their order."""
    tree = cylinder.tree
    n = tree.n_leaves
    cells = cylinder.cells
    black = cylinder.black
    for start, interval, width, _ in tiles:
        lo, hi = interval
        nxt = (start + width) % c
        if lo == hi:
            if cells[nxt * n + lo - 1] != _YELLOW:
                return (
                    f"{interval}-tile ending before column {nxt} "
                    "is not followed by a yellow tile"
                )
            continue
        for block in interval_partition(tree, interval, proper=True):
            k = cells[nxt * n + block[0] - 1]
            if k < 0 or black[k][1] != block or black[k][0] != nxt:
                return (
                    f"{interval}-tile ending before column {nxt} is not "
                    f"followed by a {block}-tile starting there"
                )
    return None


def _valid(tree: RootedTree, tiling: Tiling) -> _Cylinder:
    """The tiling's cylinder for ``tree``, once the tiling is valid there;
    ``ValueError`` naming the violation otherwise."""
    report = validate_tiling(tree, tiling)
    if not report.ok:
        raise ValueError(f"invalid tiling: {report.violation}")
    return tiling._cylinder


def orbit_of_tiling(tree: RootedTree, tiling: Tiling) -> Orbit:
    """Invert :func:`tiling_of_orbit` (up to the canonical rotation).

    The tiling is validated first, once per tiling and tree (an equal tree
    counts as the same).  Reconstruction then reads each column, mapping
    the ``o``-th column of a black tile to the ``o``-th smallest branch
    element.  A final rowmotion-consistency pass rejects anything that
    slipped past the local rules (e.g. a cylinder that repeats a smaller
    orbit more than once).
    """
    c = tiling.columns
    masks = _column_masks(_valid(tree, tiling), c)
    for t, m in enumerate(masks):
        if _rho_mask(tree, m) != masks[(t + 1) % c]:
            raise ValueError(
                f"invalid tiling: column {t} does not step to column {(t + 1) % c}"
            )
    if len(set(masks)) != c:
        raise ValueError("invalid tiling: repeats a smaller orbit")
    return Orbit._of(_canonical(tuple(masks)))


def _column_masks(cylinder: _Cylinder, c: int) -> Sequence[int]:
    """Each column's antichain, as a bitmask: the ``o``-th column of a
    black tile holds the ``o``-th node of its branch counted from the
    root.  Read once per cylinder."""
    if cylinder.masks is None:
        specs = cylinder.tree.interval_specs
        masks = [0] * c
        for start, interval, width, _ in cylinder.black:
            # a branch's ids run up by one from its node nearest the root
            bit = 1 << specs[interval].nodes[-1]
            for o in range(width):
                masks[(start + o) % c] |= bit << o
        cylinder.masks = masks
    return cylinder.masks


def tile_counts(tiling: Tiling) -> dict[tuple[int, int], tuple[int, int]]:
    """Per interval ``I``: (number of I-tiles, columns meeting tiles of
    strictly nested intervals).  ``ValueError`` if the tiling is not valid
    for its tree."""
    return _tile_counts(tiling.tree, tiling)


def _tile_counts(
    tree: RootedTree, tiling: Tiling
) -> dict[tuple[int, int], tuple[int, int]]:
    cylinder = _valid(tree, tiling)
    m_counts = Counter(tile[1] for tile in cylinder.black)
    masks = _column_masks(cylinder, tiling.columns)
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
    """Draw a tiling whose tiles cover its cylinder exactly, misshapen
    or not; ``ValueError`` for any other tiling."""
    if format not in ("ascii", "svg"):
        raise ValueError(f"unsupported render format {format!r}")
    cylinder = _cylinder(tiling.tree, tiling)
    cells = cylinder.cells
    if cells is None or _EMPTY in cells:
        raise ValueError("cannot render: the tiles do not cover the cylinder exactly")
    render = _render_ascii if format == "ascii" else _render_svg
    return render(tiling, cylinder)


def _render_ascii(tiling: Tiling, cylinder: _Cylinder) -> str:
    """One char per cell ('#' black, '.' yellow); '|' separates tiles,
    spaces join cells of one tile; '<'/'>' mark tiles crossing the seam."""
    c = tiling.columns
    n = tiling.rows
    cells = cylinder.cells
    black = cylinder.black

    def wraps(k: int) -> bool:
        return k >= 0 and black[k][0] + black[k][2] > c

    lines = []
    for row in range(n):
        line = cells[row::n]
        chars = ["<" if wraps(line[0]) else "|"]
        for col, k in enumerate(line):
            chars.append("#" if k >= 0 and black[k][3] == BLACK else ".")
            if col + 1 < c:
                chars.append(" " if k >= 0 and line[col + 1] == k else "|")
        chars.append(">" if wraps(line[-1]) else "|")
        lines.append("".join(chars))
    return "\n".join(lines) + "\n"


def _render_svg(tiling: Tiling, cylinder: _Cylinder) -> str:
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

    for start, (lo, hi), width, color in _tiles(cylinder):
        fill = "#444444" if color == BLACK else "#ffeeaa"
        if start + width <= c:
            parts.append(rect(start, lo, width, hi - lo + 1, fill))
        else:
            head = c - start  # columns before the seam
            parts.append(rect(start, lo, head + 0.5, hi - lo + 1, fill))
            parts.append(rect(-0.5, lo, width - head + 0.5, hi - lo + 1, fill))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
