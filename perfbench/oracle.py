"""Reference computations the benchmark checks the program against.

Nothing here imports treerow.  Trees are preorder parent tables (root 0,
``parents[0] is None``) and sets of nodes are bitmasks, so every check is
made by code that shares no logic with the program under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members(mask):
    return frozenset(bits(mask))


def mask_of(nodes):
    m = 0
    for x in nodes:
        m |= 1 << x
    return m


# -- rooted plane trees --------------------------------------------------------


def parse_parens(spec):
    """Parent table of a nested-parenthesis tree spec."""
    parents, stack = [], []
    for ch in spec:
        if ch == "(":
            parents.append(stack[-1] if stack else None)
            stack.append(len(parents) - 1)
        elif ch == ")":
            stack.pop()
        else:
            raise ValueError(f"bad character {ch!r} in tree spec")
    if stack or not parents:
        raise ValueError("unbalanced tree spec")
    return tuple(parents)


def _children(parents):
    kids = [[] for _ in parents]
    for i in range(1, len(parents)):
        kids[parents[i]].append(i)
    return kids


def _parens(kids):
    out, stack = [], [0]
    while stack:
        x = stack.pop()
        if x < 0:
            out.append(")")
            continue
        out.append("(")
        stack.append(-1)
        stack.extend(reversed(kids[x]))
    return "".join(out)


def to_parens(parents):
    return _parens(_children(parents))


def plane_trees(n):
    """Preorder parent tables of all plane trees with n nodes."""
    out = []

    def rec(parents, path):
        if len(parents) == n:
            out.append(tuple(parents))
            return
        i = len(parents)
        for k in range(len(path)):
            rec(parents + [path[k]], path[: k + 1] + [i])

    rec([None], [0])
    return out


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def reembed(spec, rng):
    """Shuffle the children of every node: an isomorphic tree whose node ids
    and leaf labels differ from the original."""
    kids = _children(parse_parens(spec))
    for k in kids:
        rng.shuffle(k)
    return _parens(kids)


class Tree:
    """A rooted tree read from its parent table, with bitmask order data."""

    def __init__(self, parents):
        n = self.n = len(parents)
        self.kids = [[] for _ in range(n)]
        for i in range(1, n):
            self.kids[parents[i]].append(i)
        self.depth = [0] * n
        self.down = [1] * n  # ancestors and the node itself
        for i in range(1, n):
            self.depth[i] = self.depth[parents[i]] + 1
            self.down[i] = self.down[parents[i]] | 1 << i
        self.kidmask = [mask_of(k) for k in self.kids]
        leaves = [x for x in range(n) if not self.kids[x]]
        self.n_leaves = len(leaves)
        label = {x: k + 1 for k, x in enumerate(leaves)}
        self.interval = [None] * n
        for x in reversed(range(n)):
            if x in label:
                self.interval[x] = (label[x], label[x])
            else:
                ivs = [self.interval[c] for c in self.kids[x]]
                self.interval[x] = (min(lo for lo, _ in ivs), max(hi for _, hi in ivs))
        # each branch listed from the node nearest the root upwards
        self.branch = {}
        for x in sorted(range(n), key=lambda x: self.depth[x]):
            self.branch.setdefault(self.interval[x], []).append(x)

    def ideal(self, amask):
        d = 0
        for a in bits(amask):
            d |= self.down[a]
        return d

    def rho(self, amask):
        """Minimal elements outside the ideal of ``amask``: the children of
        ideal members that are not in it, or the root when it is empty."""
        d = self.ideal(amask)
        if not d:
            return 1
        nxt = 0
        for x in bits(d):
            nxt |= self.kidmask[x]
        return nxt & ~d

    def count_antichains(self):
        c = [1] * self.n
        for x in reversed(range(self.n)):
            c[x] = 1 + prod(c[k] for k in self.kids[x])
        return c[0]

    def antichains(self):
        """All antichain bitmasks: {x}, or one antichain per child subtree."""
        sub = [None] * self.n
        for x in reversed(range(self.n)):
            acc = [0]
            for k in self.kids[x]:
                acc = [a | b for a in acc for b in sub[k]]
            sub[x] = [1 << x] + acc
        return sub[0]

    def orbits(self):
        """Every orbit as a list of bitmasks, found by following rho."""
        seen, out = set(), []
        for a in self.antichains():
            if a in seen:
                continue
            cyc, cur = [], a
            while cur not in seen:
                seen.add(cur)
                cyc.append(cur)
                cur = self.rho(cur)
            if cur != a:
                raise AssertionError("reference rho is not a permutation")
            out.append(cyc)
        return out

    def profile(self):
        """(size, delta, chi, hatchi) -> number of orbits."""
        out = {}
        for cyc in self.orbits():
            key = (
                len(cyc),
                int(0 in cyc),
                sum(a.bit_count() for a in cyc),
                sum(self.ideal(a).bit_count() for a in cyc),
            )
            out[key] = out.get(key, 0) + 1
        return out

    def orbit_problem(self, orbit):
        """Why ``orbit`` (antichain masks in order) is not an orbit, or None."""
        if len(set(orbit)) != len(orbit):
            return "orbit members are not distinct"
        for i, a in enumerate(orbit):
            for x in bits(a):
                if self.down[x] & a != 1 << x:
                    return f"member {i} is not an antichain"
            if self.rho(a) != orbit[(i + 1) % len(orbit)]:
                return f"rho does not step member {i} to member {i + 1}"
        return None

    def tiling_columns(self, tiles, columns):
        """Read a tiling back into its column antichains.

        ``tiles`` are (color, (lo, hi), start, width).  Returns the list of
        column masks, or a string naming the first inconsistency.
        """
        cells = {}
        cols = [0] * columns
        for color, iv, start, width in tiles:
            for o in range(width):
                col = (start + o) % columns
                for row in range(iv[0], iv[1] + 1):
                    if (row, col) in cells:
                        return f"cell {(row, col)} covered twice"
                    cells[(row, col)] = color
            if color == "black":
                chain = self.branch.get(iv)
                if chain is None or len(chain) != width:
                    return f"black tile {iv} does not match a branch"
                for o in range(width):
                    cols[(start + o) % columns] |= 1 << chain[o]
            elif color != "yellow" or iv[0] != iv[1] or width != 1:
                return f"bad {color} tile {iv}x{width}"
        if len(cells) != self.n_leaves * columns:
            return "tiling does not cover the cylinder"
        return cols

    def orbit_sums(self, orbit):
        """Direct chi, hatchi, per-node chi_x and hatchi_x sums."""
        chi_x = [0] * self.n
        hatchi_x = [0] * self.n
        for a in orbit:
            for x in bits(a):
                chi_x[x] += 1
            for x in bits(self.ideal(a)):
                hatchi_x[x] += 1
        return sum(chi_x), sum(hatchi_x), chi_x, hatchi_x


# -- tree families, built from the descriptor text -----------------------------


def _chain(m):
    return "(" * m + ")" * m


def _comb(n):
    s = "(()())"
    for _ in range(n - 1):
        s = "(" + s + "()" + ")"
    return s


def family_tree(text):
    """Parenthesis spec of a family descriptor as the paper draws it."""
    name, _, rest = text.partition(":")
    if name == "star":
        return "(" + "".join(_chain(int(a) - 1) for a in rest.split(",")) + ")"
    if name == "estar":
        b, alphas = rest.split(";")
        b = int(b.removeprefix("b="))
        return "(" * b + "".join(_chain(int(a) - 1) for a in alphas.split(",")) + ")" * b
    if name in ("threeleaf", "tk"):
        if name == "tk":
            k = int(rest)
            a, b, c, d, e = k, k, k - 1, k - 1, k - 1
        else:
            a, b, c, d, e = map(int, rest.split(","))
        return "(" * a + "(" * b + _chain(c) + _chain(d) + ")" * b + _chain(e) + ")" * a
    if name == "comb":
        return _comb(int(rest))
    if name == "ecomb":
        kv = dict(p.split("=") for p in rest.split(","))
        n, k = int(kv["n"]), int(kv["k"])
        if n == 1:
            return "(()())"
        inner = "(" * k + "()()" + ")" * k
        for _ in range(n - 2):
            inner = "(" * k + inner + "()" + ")" * k
        return "(" + inner + "()" + ")"
    if name == "zipper":
        return "(" + _comb(int(rest)) * 2 + ")"
    if name == "cbt":
        s = "()"
        for _ in range(int(rest)):
            s = "(" + s + s + ")"
        return s
    raise ValueError(f"unknown family {name!r}")


# -- general finite posets -----------------------------------------------------


def natural_posets(n):
    """Every transitively closed relation inside {(i, j): i < j}, as the
    list of its strict pairs; these are the naturally labelled posets."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for m in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if m >> k & 1}
        if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            out.append(frozenset(rel))
    return out


class FinitePoset:
    """A poset on 0..n-1 given by its strict relation."""

    def __init__(self, n, rel):
        self.n = n
        self.below = [mask_of(a for a, b in rel if b == x) for x in range(n)]
        self.covers = sorted(
            (a, b) for a, b in rel if not any((a, c) in rel and (c, b) in rel for c in range(n))
        )
        self.lower = [[a for a, b in self.covers if b == x] for x in range(n)]
        self.upper = [[b for a, b in self.covers if a == x] for x in range(n)]

    def ideals(self):
        return [m for m in range(1 << self.n) if all(self.below[x] & ~m == 0 for x in bits(m))]

    def rho_ideal(self, lmask):
        """The ideal generated by the minimal elements outside ``lmask``."""
        comp = ((1 << self.n) - 1) & ~lmask
        out = 0
        for x in bits(comp):
            if not self.below[x] & comp:
                out |= 1 << x | self.below[x]
        return out

    def random_extension(self, rng):
        left, out = set(range(self.n)), []
        while left:
            mins = sorted(x for x in left if not any(a in left for a in bits(self.below[x])))
            out.append(rng.choice(mins))
            left.discard(out[-1])
        return tuple(out)


def grid(p, q):
    """[p] x [q] with id i*q + j, componentwise order."""
    rel = set()
    for i1 in range(p):
        for j1 in range(q):
            for i2 in range(i1, p):
                for j2 in range(j1, q):
                    if (i1, j1) != (i2, j2):
                        rel.add((i1 * q + j1, i2 * q + j2))
    return FinitePoset(p * q, rel)


# -- continuous lifts, stated from their defining formulas --------------------


def pl_step(poset, vals, ext):
    """Piecewise-linear rowmotion with boundary values 0 (below) and 1."""
    vals = list(vals)
    for x in reversed(ext):
        lo = max((vals[y] for y in poset.lower[x]), default=Fraction(0))
        hi = min((vals[z] for z in poset.upper[x]), default=Fraction(1))
        vals[x] = lo + hi - vals[x]
    return vals


def birational_step(poset, vals, ext, p=None):
    """Birational rowmotion with both boundary values 1; exact when p is
    None, else in the field of p elements."""
    vals = list(vals)
    for x in reversed(ext):
        if p is None:
            num = sum((vals[y] for y in poset.lower[x]), Fraction(0)) if poset.lower[x] else 1
            den = sum((1 / vals[z] for z in poset.upper[x]), Fraction(0)) if poset.upper[x] else 1
            vals[x] = num / (vals[x] * den)
        else:
            num = sum(vals[y] for y in poset.lower[x]) % p if poset.lower[x] else 1
            den = sum(pow(vals[z], -1, p) for z in poset.upper[x]) % p if poset.upper[x] else 1
            vals[x] = num * pow(vals[x] * den % p, -1, p) % p
    return vals


def period(step, vals, limit):
    cur = step(vals)
    for i in range(1, limit + 1):
        if cur == vals:
            return i
        cur = step(cur)
    return None


def generic_start(poset, ext, kind, rng, order, p=None):
    """A seeded start point whose reference period is ``order``.

    Random points have the full period almost surely, but the small value
    range used here makes special points (period a proper divisor) likely
    enough on tiny grids, so those are redrawn.
    """
    n = poset.n
    for _ in range(100):
        if kind == "pl":
            w = [rng.randint(1, 100) for _ in range(n)]
            total = sum(w) + 1
            vals = [Fraction(w[x] + sum(w[y] for y in bits(poset.below[x])), total) for x in range(n)]
            step = lambda v: pl_step(poset, v, ext)
        else:
            vals = [Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(n)]
            if p is not None:
                vals = [v.numerator * pow(v.denominator, -1, p) % p for v in vals]
            step = lambda v: birational_step(poset, v, ext, p)
        if period(step, vals, order) == order:
            return vals
    raise AssertionError(f"no start point of period {order} found")
