"""The piecewise-linear and birational lifts (treerow.continuous) alone.

Mod-p order searches on non-graded trees carry most of the time; exact
birational runs, order searches on grids and the PL indicator
restriction on every small poset set the operation percentiles.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle
import treerow

from . import Op, Raised
from .common import raised

P61 = 2**61 - 1
NON_GRADED_TREES = ("(()(()))", "(()((())))", "(()(())())", "((())((())))", "(()()(()))")
MODP_ITER = 1500  # mod-p rowmotion steps per search
MODP_SEARCHES = 4  # searches per tree, each run twice from its own seed
TRAJECTORY = 100  # mod-p steps compared one by one with the reference
EXACT_ITER = 50
GRID_SIDE = 4
GRID_STARTS = 2  # seeded start points per grid and kind
MAX_POSET = 5


def tree_poset(spec):
    parents = oracle.parse_parens(spec)
    rel = set()
    for x in range(1, len(parents)):
        p = parents[x]
        while p is not None:
            rel.add((p, x))
            p = parents[p]
    return oracle.FinitePoset(len(parents), rel)


def _point(poset, vals, p=None):
    if p is None:
        return treerow.LabeledPoint(poset, tuple(vals))
    return treerow.LabeledPoint(poset, tuple(vals), "modp", p)


def _start(rng, n, p=None):
    vals = [Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(n)]
    if p is None:
        return vals
    return [v.numerator * pow(v.denominator, -1, p) % p for v in vals]


# -- operations and their checks ----------------------------------------------


def modp_search(poset, vals, seed):
    runs = []
    for _ in range(2):
        runs.append(treerow.order_search(
            poset, _point(poset, vals, P61), max_iter=MODP_ITER, p=P61, rng=random.Random(seed)
        ))
    return runs


def check_modp_search(out):
    problem = raised(out)
    if problem:
        return problem
    first, second = out
    if first != second:
        return "two mod-p runs from the same seed disagree"
    if (first.outcome, first.iterations_used, first.mode) != ("no-repeat", MODP_ITER, f"modp:{P61}"):
        return f"mod-p search on a non-graded tree gave {first.outcome} after {first.iterations_used}"
    return None


def modp_trajectory(poset, vals):
    cur = _point(poset, vals, P61)
    out = []
    for _ in range(TRAJECTORY):
        cur = treerow.birational_rowmotion(poset, cur)
        out.append(cur.values)
    return out


def check_modp_trajectory(ref, vals, out):
    problem = raised(out)
    if problem:
        return problem
    ext = tuple(range(ref.n))
    cur = list(vals)
    for i, got in enumerate(out):
        cur = oracle.birational_step(ref, cur, ext, P61)
        if list(got) != cur:
            return f"mod-p iterate {i + 1} differs from the reference step"
    return None


def exact_search(poset, vals):
    return treerow.order_search(poset, _point(poset, vals), max_iter=EXACT_ITER)


def check_exact(ref, vals, out):
    problem = raised(out)
    if problem:
        return problem
    if (out.outcome, out.iterations_used) != ("no-repeat", EXACT_ITER):
        return f"exact search gave {out.outcome} after {out.iterations_used}"
    ext = tuple(range(ref.n))
    cur, bits = list(vals), 0
    for _ in range(EXACT_ITER + 1):
        bits = max(bits, max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in cur))
        cur = oracle.birational_step(ref, cur, ext)
    return None if out.max_bits == bits else f"max_bits {out.max_bits}, reference {bits}"


def grid_search(poset, vals, kind, p):
    return treerow.order_search(poset, _point(poset, vals, p), max_iter=4 * GRID_SIDE, kind=kind, p=p)


def check_grid(order, out):
    problem = raised(out)
    if problem:
        return problem
    if out.outcome != "finite-order" or out.order != order:
        return f"order {out.order} on a grid of order {order}"
    return None


def indicator_images(poset, ideals, ext):
    out = []
    for ideal in ideals:
        moved = treerow.pl_rowmotion(poset, treerow.indicator_point(poset, ideal), ext)
        out.append(treerow.ideal_of_indicator(moved))
    return out


def check_indicators(ref, ideals, out):
    problem = raised(out)
    if problem:
        return problem
    for ideal, got in zip(ideals, out):
        want = oracle.members(ref.rho_ideal(oracle.mask_of(ideal)))
        if got != want:
            return f"PL image of the indicator of {sorted(ideal)} is not rho of it"
    return None if len(out) == len(ideals) else "missing images"


def bad_extension(poset, ext):
    return treerow.pl_rowmotion(poset, treerow.indicator_point(poset, ()), ext)


def check_rejected(out):
    if isinstance(out, Raised) and isinstance(out.error, ValueError):
        return None
    return f"accepted an order that is not a linear extension: {raised(out) or 'no error'}"


# -- the workload ----------------------------------------------------------------


def inputs(seed):
    """One tuple per operation, in a seeded order: its kind, then what
    the operation and its check need."""
    rng = random.Random(seed)
    out = []
    for spec in NON_GRADED_TREES:
        ref = tree_poset(spec)
        for _ in range(MODP_SEARCHES):
            out.append(("modp-search", spec, _start(rng, ref.n, P61), rng.randrange(2**32)))
        out.append(("modp-trajectory", spec, ref, _start(rng, ref.n, P61)))
        out.append(("exact", spec, ref, _start(rng, ref.n)))
    for p in range(1, GRID_SIDE + 1):
        for q in range(1, GRID_SIDE + 1):
            ref = oracle.grid(p, q)
            ext = tuple(range(ref.n))
            for kind, mod in (("pl", None), ("birational", None), ("birational", P61)):
                for _ in range(GRID_STARTS):
                    vals = oracle.generic_start(ref, ext, kind, rng, p + q, mod)
                    out.append(("grid", (p, q), kind, mod, vals))
    for n in range(1, MAX_POSET + 1):
        for rel in oracle.natural_posets(n):
            ref = oracle.FinitePoset(n, rel)
            ideals = [oracle.members(m) for m in ref.ideals()]
            out.append(("pl-indicators", rel, ref, ideals, ref.random_extension(rng)))
    out.append(("bad-extension",))
    rng.shuffle(out)
    return out


def ops(items):
    trees = {spec: treerow.parse_tree(spec) for spec in NON_GRADED_TREES}
    grids = {}
    out = []
    for kind, *args in items:
        if kind == "modp-search":
            spec, vals, s = args
            out.append(Op(f"modp-search {spec}",
                          lambda t=trees[spec], v=vals, s=s: modp_search(t, v, s),
                          check_modp_search))
        elif kind == "modp-trajectory":
            spec, ref, vals = args
            out.append(Op(f"modp-trajectory {spec}",
                          lambda t=trees[spec], v=vals: modp_trajectory(t, v),
                          lambda o, r=ref, v=vals: check_modp_trajectory(r, v, o)))
        elif kind == "exact":
            spec, ref, vals = args
            out.append(Op(f"exact {spec}", lambda t=trees[spec], v=vals: exact_search(t, v),
                          lambda o, r=ref, v=vals: check_exact(r, v, o)))
        elif kind == "grid":
            (p, q), lift, mod, vals = args
            if (p, q) not in grids:
                grids[p, q] = treerow.chain_product(p, q)
            out.append(Op(
                f"{lift}{'-modp' if mod else ''} grid {p}x{q}",
                lambda g=grids[p, q], v=vals, k=lift, m=mod: grid_search(g, v, k, m),
                lambda o, n=p + q: check_grid(n, o),
            ))
        elif kind == "pl-indicators":
            rel, ref, ideals, ext = args
            poset = treerow.Poset(ref.n, ref.covers)
            out.append(Op(
                f"pl-indicators {ref.n}:{sorted(rel)}",
                lambda ps=poset, i=ideals, e=ext: indicator_images(ps, i, e),
                lambda o, r=ref, i=ideals: check_indicators(r, i, o),
            ))
        else:
            grid22 = treerow.chain_product(2, 2)
            backwards = tuple(reversed(treerow.linear_extension(grid22)))
            out.append(Op(
                "pl-rowmotion grid 2x2 reversed extension",
                lambda: bad_extension(grid22, backwards),
                check_rejected,
                known_fault="pl_rowmotion does not check that its extension is a linear extension",
            ))
    return out
