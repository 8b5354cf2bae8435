"""Checks shared by the workloads that build orbits and tilings."""

from __future__ import annotations

import oracle

from . import Raised


def raised(out):
    if isinstance(out, Raised):
        return f"raised {type(out.error).__name__}: {out.error}"
    return None


def orbit_masks(orbit):
    return [oracle.mask_of(a) for a in orbit.antichains]


def check_orbit(ref, orbit):
    """An orbit object: distinct members, each stepped to the next by
    the reference rho, and the delta flag on the orbit through the empty
    antichain."""
    masks = orbit_masks(orbit)
    problem = ref.orbit_problem(masks)
    if problem:
        return problem
    if orbit.size != len(masks) or orbit.contains_root != (0 in masks):
        return "orbit size or delta flag is wrong"
    return None


def check_partition(ref, orbits):
    """Orbits of all antichains: sizes add up to the reference total, no
    antichain is in two orbits, every orbit steps under rho."""
    total = ref.count_antichains()
    if sum(o.size for o in orbits) != total:
        return f"orbit sizes add up to {sum(o.size for o in orbits)}, not {total}"
    seen = set()
    for o in orbits:
        seen.update(orbit_masks(o))
        problem = check_orbit(ref, o)
        if problem:
            return problem
    if len(seen) != total:
        return "an antichain lies in two orbits"
    return None


def check_tiling(ref, orbit, tiling):
    """The tiling reads back, column by column, into the orbit's members."""
    tiles = [(t.color, tuple(t.interval), t.start, t.width) for t in tiling.tiles]
    cols = ref.tiling_columns(tiles, tiling.columns)
    if isinstance(cols, str):
        return cols
    if tiling.rows != ref.n_leaves or cols != orbit_masks(orbit):
        return "tiling columns do not spell the orbit"
    return None


def check_tiling_sums(ref, orbit, sums):
    chi, hatchi, chi_x, hatchi_x = ref.orbit_sums(orbit_masks(orbit))
    if (sums.chi, sums.hatchi) != (chi, hatchi):
        return f"tiling sums chi/hatchi {sums.chi}/{sums.hatchi}, direct {chi}/{hatchi}"
    for x in range(ref.n):
        if sums.chi_x[ref.interval[x]] != chi_x[x] or sums.hatchi_x[x] != hatchi_x[x]:
            return f"tiling sums at node {x} differ from direct sums"
    return None


def check_render(ref, orbit, tiling, art):
    """ASCII art: one line per leaf row, '#' exactly on the cells below
    some member's leaf interval, '|' or ' ' between cells."""
    lines = art.split("\n")
    c = tiling.columns
    if lines[-1] != "" or len(lines) != ref.n_leaves + 1:
        return "render has the wrong number of rows"
    masks = orbit_masks(orbit)
    for row, line in enumerate(lines[:-1], start=1):
        if len(line) != 2 * c + 1:
            return f"render row {row} has the wrong width"
        for t, m in enumerate(masks):
            black = any(ref.interval[x][0] <= row <= ref.interval[x][1] for x in oracle.bits(m))
            if line[2 * t + 1] != ("#" if black else "."):
                return f"render cell ({row}, {t}) is wrong"
        if any(ch not in "| " for ch in line[2:-1:2]):
            return f"render row {row} has a bad separator"
    return None
