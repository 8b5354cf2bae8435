"""Naive reference implementations that the tests diff the package against.

Everything here is deliberately direct and slow: order relations are explicit
pair sets, enumeration filters all subsets, partitions are found by exhaustive
search.  None of it calls into the package, so agreement is meaningful.
"""

import itertools
import random
from fractions import Fraction

POSET_COUNTS = [1, 2, 7, 40, 357, 4824]  # naturally labeled posets, n = 1..6
TREE_COUNTS = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]  # plane trees, n = 1..10


# -- building relations ------------------------------------------------------

def relations_from_parents(parents):
    """Strict order pairs (a, b) meaning a < b, from a parent table."""
    rel = set()
    for i in range(1, len(parents)):
        p = parents[i]
        while p is not None:
            rel.add((p, i))
            p = parents[p]
    return rel


def relations_from_covers(n, covers):
    rel = set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return rel


def covers_of(n, rel):
    """Irredundant cover pairs of a strict relation."""
    return sorted(
        (a, b)
        for a, b in rel
        if not any((a, c) in rel and (c, b) in rel for c in range(n))
    )


def grid_relations(p, q):
    """[p] x [q] with id(i, j) = i*q + j, componentwise order."""
    rel = set()
    for i1, j1 in itertools.product(range(p), range(q)):
        for i2, j2 in itertools.product(range(p), range(q)):
            if (i1, j1) != (i2, j2) and i1 <= i2 and j1 <= j2:
                rel.add((i1 * q + j1, i2 * q + j2))
    return rel


# -- basic order machinery ---------------------------------------------------

def downset(n, rel, nodes):
    out = set(nodes)
    for x in nodes:
        for y in range(n):
            if (y, x) in rel:
                out.add(y)
    return frozenset(out)


def is_antichain(rel, s):
    return not any((a, b) in rel for a, b in itertools.permutations(s, 2))


def is_ideal(n, rel, s):
    return all((y, x) not in rel or y in s for x in s for y in range(n))


def subsets(n):
    items = range(n)
    for k in range(n + 1):
        for combo in itertools.combinations(items, k):
            yield frozenset(combo)


def antichains(n, rel):
    return [s for s in subsets(n) if is_antichain(rel, s)]


def ideals(n, rel):
    return [s for s in subsets(n) if is_ideal(n, rel, s)]


def minimal_of(n, rel, s):
    return frozenset(x for x in s if not any((y, x) in rel and y in s for y in s))


def rho(n, rel, antichain):
    """Rowmotion: minimal elements of the complement of the down-set."""
    comp = set(range(n)) - downset(n, rel, antichain)
    return minimal_of(n, rel, comp)


def rho_ideal(n, rel, ideal):
    """Ideal rowmotion, stated without going through max(L)."""
    comp = set(range(n)) - set(ideal)
    return downset(n, rel, minimal_of(n, rel, comp))


def toggle(n, rel, ideal, x):
    """Flip the membership of x when that leaves an ideal, else keep it."""
    flipped = frozenset(ideal) ^ {x}
    return flipped if is_ideal(n, rel, flipped) else frozenset(ideal)


def orbit(n, rel, antichain):
    seq = [frozenset(antichain)]
    cur = rho(n, rel, seq[0])
    while cur != seq[0]:
        seq.append(cur)
        cur = rho(n, rel, cur)
    return seq


def linear_extensions(n, rel):
    return [
        perm
        for perm in itertools.permutations(range(n))
        if all(perm.index(a) < perm.index(b) for a, b in rel)
    ]


def random_linear_extension(rng, n, rel):
    remaining = set(range(n))
    out = []
    while remaining:
        mins = sorted(x for x in remaining if not any((y, x) in rel for y in remaining))
        out.append(rng.choice(mins))
        remaining.discard(out[-1])
    return tuple(out)


# -- exhaustive universes ----------------------------------------------------

def parent_vectors(n):
    """All preorder parent tables of plane trees with n nodes."""
    if n == 1:
        return [(None,)]
    out = []

    def rec(parents, path):
        if len(parents) == n:
            out.append(tuple(parents))
            return
        i = len(parents)
        for idx in range(len(path)):
            rec(parents + [path[idx]], path[: idx + 1] + [i])

    rec([None], [0])
    return out


def parent_table_error(parents):
    """Why ``parents`` is not the preorder parent table of a plane tree, in
    ``RootedTree``'s words, for the first node that shows it; None if it
    is one.  Node i's parent must be i - 1 or one of its ancestors."""
    if not parents or parents[0] is not None:
        return "parents[0] must be None (the root)"
    for i in range(1, len(parents)):
        p = parents[i]
        if p is None:
            return f"node {i} has no parent"
        if type(p) is not int:
            return f"parent {p!r} of node {i} is not an int"
        ancestors, y = set(), i - 1
        while y is not None:
            ancestors.add(y)
            y = parents[y]
        if p not in ancestors:
            return f"ids are not in preorder: parent of {i} must be an ancestor of {i - 1}"
    return None


def all_posets(n):
    """Every transitively closed strict relation inside {(i,j): i < j}."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            out.append(frozenset(rel))
    return out


def random_parents(rng, n):
    parents = [None]
    path = [0]
    for i in range(1, n):
        idx = rng.randrange(len(path))
        parents.append(path[idx])
        path = path[: idx + 1] + [i]
    return parents


# -- orbit tables, member by member -----------------------------------------

def orbit_table(down, orbits):
    """The (size, delta, chi, hatchi) -> count table of ``orbits``, each a
    sequence of antichain bitmasks, summed member by member: chi counts a
    member's elements and hatchi those of the ideal it generates, the union
    of ``down[x]`` (the down-set mask of x) over its elements x.  Delta is
    1 on the orbit holding the empty antichain."""
    table = {}
    for masks in orbits:
        chi = hatchi = 0
        for mask in masks:
            ideal = 0
            for x in range(mask.bit_length()):
                if mask >> x & 1:
                    chi += 1
                    ideal |= down[x]
            hatchi += bin(ideal).count("1")
        key = (len(masks), int(0 in masks), chi, hatchi)
        table[key] = table.get(key, 0) + 1
    return table


# -- leaf intervals, the slow way --------------------------------------------

def leaf_intervals(parents):
    """Map node -> (lo, hi) of the leaf labels below it, labels 1..#leaves
    in id order (preorder ids make that the left-to-right order)."""
    n = len(parents)
    children = [[] for _ in range(n)]
    for i in range(1, n):
        children[parents[i]].append(i)
    leaves = [x for x in range(n) if not children[x]]
    label = {x: k + 1 for k, x in enumerate(leaves)}
    rel = relations_from_parents(parents)
    iv = {}
    for x in range(n):
        below = [label[y] for y in leaves if y == x or (x, y) in rel]
        iv[x] = (min(below), max(below))
    return iv


def subtree_sizes(parents):
    """Per node: itself and every node above it."""
    rel = relations_from_parents(parents)
    return [1 + sum((x, y) in rel for y in range(len(parents))) for x in range(len(parents))]


def side_masks(parents):
    """Per node x: the children of every y <= x, as a bitmask."""
    rel = relations_from_parents(parents)
    n = len(parents)
    return [
        sum(1 << c for c in range(1, n) if parents[c] == x or (parents[c], x) in rel)
        for x in range(n)
    ]


def interval_tilings(family, lo, hi):
    """All ways to write [lo, hi] as consecutive intervals from a family."""
    if lo > hi:
        return [()]
    out = []
    for a, b in family:
        if a == lo and b <= hi:
            for rest in interval_tilings(family, b + 1, hi):
                out.append(((a, b),) + rest)
    return out


# -- birational rowmotion, one inverse per toggle ----------------------------

class FieldZero(Exception):
    """A toggle divided by zero or produced zero; the message says which
    and at what element, in the package's wording."""


def birational_toggle(n, rel, vals, x, p=None, covers=None):
    """Toggle x, boundary values 1, over the rationals (``p`` None) or mod
    the prime p: (sum of lower covers) / (f(x) * sum of inverses of upper
    covers).  ``covers`` is ``covers_of(n, rel)``, found here if not given."""
    if p is None:
        field, inverse, suffix = Fraction, lambda v: 1 / Fraction(v), ""
    else:
        field, suffix = (lambda v: v % p), f" (mod {p})"
        inverse = lambda v: pow(v, -1, p)
    if covers is None:
        covers = covers_of(n, rel)
    lower = [a for a, b in covers if b == x]
    upper = [b for a, b in covers if a == x]
    num = field(sum(vals[y] for y in lower)) if lower else 1
    recip = field(sum(inverse(vals[z]) for z in upper)) if upper else 1
    if recip == 0:
        raise FieldZero(f"reciprocal sum vanishes toggling {x}{suffix}")
    if num == 0:
        raise FieldZero(f"toggling {x} produced zero{suffix}")
    out = list(vals)
    out[x] = field(num * inverse(vals[x] * recip))
    return out


def birational_step(n, rel, vals, ext, p=None, covers=None):
    """Birational rowmotion, over the rationals or mod p: toggle every
    element, the last of the linear extension ``ext`` first.  ``covers``
    is ``covers_of(n, rel)``, found here if not given."""
    if covers is None:
        covers = covers_of(n, rel)
    for x in reversed(ext):
        vals = birational_toggle(n, rel, vals, x, p, covers)
    return vals


def exact_birational_search(n, rel, ext, start, max_iter):
    """First return of birational rowmotion over the rationals along
    ``ext`` to ``start``, as ``(outcome, order, max_bits)``, max_bits the
    largest bit length of a numerator or denominator seen, the start's
    included.  A zero raises FieldZero."""

    def bits(vals):
        return max(
            max(v.numerator.bit_length(), v.denominator.bit_length()) for v in vals
        )

    seen = [[Fraction(v) for v in start]]
    for i in range(1, max_iter + 1):
        seen.append(birational_step(n, rel, seen[-1], ext))
        if seen[-1] == seen[0]:
            return ("finite-order", i, max(map(bits, seen)))
    return ("no-repeat", None, max(map(bits, seen)))


def birational_search(n, rel, ext, p, rng, max_iter, start=None, max_retries=10):
    """First return of mod-p birational rowmotion along ``ext``, as
    ``(outcome, order, iterations, restarts)``.  On a zero the search
    redraws its start from ``rng``: per element, numerator and denominator
    uniform on 1..100 until both are units, the value their quotient.
    Gives ``("retries-exhausted", None, None, max_retries)`` when the
    redraws run out."""

    def draw():
        out = []
        for _ in range(n):
            while True:
                a, d = rng.randint(1, 100), rng.randint(1, 100)
                if a % p and d % p:
                    break
            out.append(a * pow(d, -1, p) % p)
        return out

    start = draw() if start is None else list(start)
    restarts = 0
    while True:
        cur = start
        try:
            for i in range(1, max_iter + 1):
                cur = birational_step(n, rel, cur, ext, p)
                if cur == start:
                    return ("finite-order", i, i, restarts)
            return ("no-repeat", None, max_iter, restarts)
        except FieldZero:
            if restarts == max_retries:
                return ("retries-exhausted", None, None, max_retries)
            restarts += 1
            start = draw()


# -- piecewise-linear rowmotion, on Fractions --------------------------------

def pl_check(n, rel, vals):
    """Raise ValueError, in the package's wording, unless ``vals`` lies in
    the order polytope: each value in [0, 1], then each cover in order."""
    for x in range(n):
        if not 0 <= vals[x] <= 1:
            raise ValueError(f"value at {x} is outside [0, 1]")
    for a, b in covers_of(n, rel):
        if vals[a] > vals[b]:
            raise ValueError(f"not order-preserving: f({a}) > f({b})")


def pl_toggle(n, rel, vals, x):
    """Toggle x, boundary values 0 and 1:
    max(lower covers) + min(upper covers) - f(x)."""
    pl_check(n, rel, vals)
    covers = covers_of(n, rel)
    lower = [vals[a] for a, b in covers if b == x]
    upper = [vals[b] for a, b in covers if a == x]
    out = list(vals)
    out[x] = max(lower, default=Fraction(0)) + min(upper, default=Fraction(1)) - vals[x]
    return out


def pl_step(n, rel, vals, ext):
    """PL rowmotion: toggle every element, the last of the linear
    extension ``ext`` first."""
    for x in reversed(ext):
        vals = pl_toggle(n, rel, vals, x)
    return vals


def pl_search(n, rel, ext, start, max_iter):
    """First return of PL rowmotion along ``ext`` to ``start``, as
    ``(outcome, order, iterations)``."""
    cur = list(start)
    for i in range(1, max_iter + 1):
        cur = pl_step(n, rel, cur, ext)
        if cur == list(start):
            return ("finite-order", i, i)
    return ("no-repeat", None, max_iter)
