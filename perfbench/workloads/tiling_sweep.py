"""Every plane tree with at most MAX_NODES nodes, one tree per operation:
build it, partition its antichains into orbits, and take each orbit
around the tiling round trip (tile, validate, invert, sums, render)."""

from __future__ import annotations

import random

import oracle
import treerow

from . import Op
from .common import (
    check_orbit,
    check_partition,
    check_render,
    check_tiling,
    check_tiling_sums,
    raised,
)

MAX_NODES = 8


def inputs(seed):
    trees = []
    for n in range(1, MAX_NODES + 1):
        batch = oracle.plane_trees(n)
        if len(batch) != oracle.catalan(n - 1):
            raise AssertionError(f"{len(batch)} plane trees with {n} nodes")
        trees += batch
    random.Random(seed).shuffle(trees)
    return trees


def round_trip(parents):
    tree = treerow.RootedTree(parents)
    orbits = treerow.all_orbits(tree)
    out = []
    for orbit in orbits:
        tiling = treerow.tiling_of_orbit(tree, orbit)
        report = treerow.validate_tiling(tree, tiling)
        inverse = treerow.orbit_of_tiling(tree, tiling)
        sums = treerow.orbit_sums_from_tiling(tree, tiling)
        art = treerow.render_tiling(tiling, "ascii")
        out.append((orbit, tiling, report, inverse, sums, art))
    return out


def check(parents, out):
    problem = raised(out)
    if problem:
        return problem
    ref = oracle.Tree(parents)
    problem = check_partition(ref, [rec[0] for rec in out])
    if problem:
        return problem
    for orbit, tiling, report, inverse, sums, art in out:
        if not report.ok:
            return f"a true tiling fails validation: {report.violation}"
        if inverse.antichains != orbit.antichains:
            return "the tiling does not invert to its orbit"
        problem = (
            check_orbit(ref, inverse)
            or check_tiling(ref, orbit, tiling)
            or check_tiling_sums(ref, orbit, sums)
            or check_render(ref, orbit, tiling, art)
        )
        if problem:
            return problem
    return None


def ops(trees):
    return [
        Op(
            f"tree:{oracle.to_parens(p)}",
            lambda p=p: round_trip(p),
            lambda out, p=p: check(p, out),
        )
        for p in trees
    ]
