"""Deep trees (up to 600 nodes) with few antichains and long orbits,
library calls only.  One tree per operation: all orbits, the orbit
through a seeded antichain, the tiling of each orbit built and
validated, and the hatchi sum of each orbit."""

from __future__ import annotations

import random
from math import lcm, prod

import oracle
import treerow

from . import Op
from .common import check_orbit, check_partition, check_tiling, raised

# (shape, copies per round); each copy is drawn with its own seeded
# child order, so node ids and leaf labels differ between copies
SHAPES = (
    [("chain:100", 20), ("chain:150", 6), ("chain:200", 3), ("chain:300", 2), ("chain:600", 1)]
    + [("star:60,61", 1), ("star:30,31", 2), ("star:20,21", 6), ("star:9,10,11", 2)]
    + [("estar:b=50;20,21", 2), ("estar:b=100;10,11", 4), ("estar:b=100;3,4", 6),
       ("estar:b=200;7,9", 2), ("estar:b=500;2,3", 1)]
    + [("ecomb:n=2,k=50", 26), ("ecomb:n=2,k=100", 4), ("ecomb:n=3,k=30", 8),
       ("ecomb:n=3,k=60", 2), ("ecomb:n=4,k=25", 2), ("ecomb:n=5,k=20", 2)]
)
STARTS = 1  # orbit_of calls per tree


def shape_spec(shape):
    if shape.startswith("chain:"):
        m = int(shape[6:])
        return "(" * m + ")" * m
    return oracle.family_tree(shape)


def random_antichain(parents, rng):
    """Seeded antichain: nodes in random order, each kept if it is
    incomparable with those kept so far (empty with small chance)."""
    ref = oracle.Tree(parents)
    up = [0] * ref.n
    for x in reversed(range(ref.n)):
        up[x] = 1 << x
        for k in ref.kids[x]:
            up[x] |= up[k]
    order = list(range(ref.n))
    rng.shuffle(order)
    chosen = 0
    for x in order[: rng.randint(0, 4)]:
        if not (ref.down[x] | up[x]) & chosen:
            chosen |= 1 << x
    return sorted(oracle.bits(chosen))


def deep_orbits(spec, starts):
    tree = treerow.parse_tree(spec)
    orbits = treerow.all_orbits(tree)
    through = [treerow.orbit_of(tree, a) for a in starts]
    hatchi = treerow.Statistic.hatchi()
    out = []
    for orbit in orbits:
        tiling = treerow.tiling_of_orbit(tree, orbit)
        report = treerow.validate_tiling(tree, tiling)
        out.append((orbit, tiling, report, treerow.orbit_sum(tree, hatchi, orbit)))
    return out, through


def check(shape, spec, starts, out):
    problem = raised(out)
    if problem:
        return problem
    records, through = out
    ref = oracle.Tree(oracle.parse_parens(spec))
    orbits = [rec[0] for rec in records]
    problem = check_partition(ref, orbits)
    if problem:
        return problem
    if shape.startswith(("star:", "estar:")):
        b = int(shape.split(";")[0][8:]) if shape.startswith("estar:") else 1
        alphas = [int(a) for a in shape.split(";")[-1].split(":")[-1].split(",")]
        l = lcm(*alphas)
        want = sorted([l + b] + [l] * (prod(alphas) // l - 1))
        if sorted(o.size for o in orbits) != want:
            return "star orbits are not prod/lcm orbits of sizes lcm and lcm+b"
    by_member = {}
    for orbit in orbits:
        by_member[oracle.mask_of(orbit.antichains[0])] = orbit
    for start, orbit in zip(starts, through):
        problem = check_orbit(ref, orbit)
        if problem:
            return f"orbit_of: {problem}"
        if frozenset(start) not in orbit.antichains:
            return "orbit_of misses its start"
        if by_member.get(oracle.mask_of(orbit.antichains[0])) != orbit:
            return "orbit_of is not rotated like all_orbits"
    for orbit, tiling, report, hatchi in records:
        if not report.ok:
            return f"a true tiling fails validation: {report.violation}"
        problem = check_tiling(ref, orbit, tiling)
        if problem:
            return problem
        if hatchi != sum(ref.ideal(oracle.mask_of(a)).bit_count() for a in orbit.antichains):
            return "orbit hatchi sum differs from the direct sum"
    return None


def inputs(seed):
    """(shape, tree spec, start antichains) of each operation, in a seeded order."""
    rng = random.Random(seed)
    out = []
    for shape, copies in SHAPES:
        for _ in range(copies):
            spec = oracle.reembed(shape_spec(shape), rng)
            parents = oracle.parse_parens(spec)
            out.append((shape, spec, [random_antichain(parents, rng) for _ in range(STARTS)]))
    rng.shuffle(out)
    return out


def ops(trees):
    return [
        Op(
            f"{shape} {spec.count('(')} nodes",
            lambda s=spec, a=starts: deep_orbits(s, a),
            lambda o, sh=shape, s=spec, a=starts: check(sh, s, a, o),
        )
        for shape, spec, starts in trees
    ]
