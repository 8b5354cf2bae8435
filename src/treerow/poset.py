"""Finite posets and rooted plane trees.

Elements are dense integer ids ``0..n-1``.  Rooted trees fix a planar
embedding: ids are assigned in depth-first preorder (root = 0), so each
node's children carry increasing ids in left-to-right drawing order, and
leaves are labeled ``1..n_leaves`` left to right.  Consequently the set of
leaf labels below any node is a contiguous interval, and the nodes sharing
one interval form a chain — a *branch* — recorded as an
:class:`IntervalSpec`.

Down-sets and order tests are backed by per-element bitmasks, which keeps
the rowmotion inner loops cheap without any dependencies.  A general
:class:`Poset` builds them, and checks its covers for cycles and redundant
pairs, when it is made.  A :class:`RootedTree` is built from its checked
parent table alone, in linear passes, and builds its masks (``down``, ``up``
and ``side``, O(n^2) bits in all) when each is first read: the subtree
sizes, the children and the branches are all that counting antichains,
folding over the branches and refusing a budget read.

Every integer argument (sizes, ids, ends, budgets, parameters, moduli,
mod-p values) is a plain int, ``type(x) is int``: a bool, float or int
subclass is refused with ``ValueError``.  `_least_int` states the rule once,
each entry point checks it, and nothing behind one checks or converts again.
An integer written as text (descriptors, statistics, grids, moduli, CLI
options) is ASCII decimal digits, at most ``sys.get_int_max_str_digits()``
of them, else ``SpecParseError``; `_decimal` is the one reader of such text.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Iterable, Optional, Sequence

from . import _EXPORTS
from .errors import SpecParseError

__all__ = list(_EXPORTS["poset"])


def _bits(mask: int) -> list[int]:
    """The set bit positions of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _least_int(name: str, *values) -> int:
    """The least of ``values``, once each is checked to be a plain int (the
    module docstring's rule); ``ValueError`` naming ``name`` otherwise."""
    for value in values:
        if type(value) is not int:
            raise ValueError(f"{name} {value!r} is not an int")
    return min(values)


def _node_mask(members: Iterable[int], n: float) -> int:
    """The mask of the node ids ``members``, each checked to be a plain int
    in ``0..n-1``."""
    mask = 0
    for x in members:
        # _least_int's rule, inline: every lift step checks its ids here, and
        # the call put about 8 % on the lifts workload's op_p50_ms
        if type(x) is not int:
            _least_int("node id", x)  # raises
        if not 0 <= x < n:
            raise ValueError(f"unknown node id {x}")
        mask |= 1 << x
    return mask


def _smallest_first_order(poset: "Poset") -> tuple[int, ...]:
    """Topological order of the covers taking the smallest free id first;
    it misses the elements on or above a directed cycle."""
    indeg = [len(v) for v in poset.lower_covers]
    heap = [x for x, d in enumerate(indeg) if not d]  # sorted, so a heap
    out: list[int] = []
    while heap:
        x = heapq.heappop(heap)
        out.append(x)
        for y in poset.upper_covers[x]:
            indeg[y] -= 1
            if not indeg[y]:
                heapq.heappush(heap, y)
    return tuple(out)


def _down_mask(poset: "Poset", mask: int) -> int:
    """The ideal generated by the elements of ``mask``, as a mask."""
    down = poset.down
    downm = 0
    while mask:
        low = mask & -mask
        downm |= down[low.bit_length() - 1]
        mask ^= low
    return downm


class Poset:
    """A finite poset given by its (irredundant) cover relations.

    Attributes
    ----------
    n : number of elements (ids ``0..n-1``).
    covers : sorted tuple of pairs ``(x, y)`` with ``x`` covered by ``y``.
    down : per-element bitmask of ``{y : y <= x}`` (reflexive).
    up : per-element bitmask of ``{y : y >= x}`` (reflexive).
    """

    def __init__(self, n: int, covers: Iterable[tuple[int, int]]):
        if _least_int("poset size", n) < 1:
            raise ValueError("poset must have at least one element")
        self.n = n
        pairs = list(map(tuple, covers))
        if pairs:
            _least_int("cover end", *[end for pair in pairs for end in pair])
        self.covers: tuple[tuple[int, int], ...] = tuple(sorted(set(pairs)))
        lower: list[list[int]] = [[] for _ in range(n)]
        upper: list[list[int]] = [[] for _ in range(n)]
        for x, y in self.covers:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"cover ({x},{y}) out of range")
            if x == y:
                raise ValueError(f"reflexive cover ({x},{y})")
            lower[y].append(x)
            upper[x].append(y)
        # appended walking the sorted covers, so each is sorted
        self.lower_covers = tuple(map(tuple, lower))
        self.upper_covers = tuple(map(tuple, upper))

        # The default linear extension; a leftover element means a cycle.
        topo = _smallest_first_order(self)
        if len(topo) != n:
            raise ValueError("cover relations contain a directed cycle")
        self._linear_extension = topo

        def closure(order, covers):  # each x and all it reaches by covers
            masks = [0] * n
            for x in order:
                m = 1 << x
                for y in covers[x]:
                    m |= masks[y]
                masks[x] = m
            return tuple(masks)

        self.down = closure(topo, self.lower_covers)
        self.up = closure(reversed(topo), self.upper_covers)

        for x, y in self.covers:
            # x < z < y would make the stored cover redundant.
            if self.down[y] & self.up[x] != (1 << x) | (1 << y):
                raise ValueError(f"redundant cover ({x},{y}): intermediate element exists")

        self.full_mask = (1 << n) - 1

    # -- order queries ---------------------------------------------------

    def le(self, x: int, y: int) -> bool:
        return bool(self.down[y] >> x & 1)

    def minimal_elements(self) -> frozenset[int]:
        return frozenset([x for x, low in enumerate(self.lower_covers) if not low])

    def maximal_elements(self) -> frozenset[int]:
        return frozenset([x for x, up in enumerate(self.upper_covers) if not up])

    def elements(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self.covers == other.covers
        )

    def __hash__(self) -> int:
        return hash((self.n, self.covers))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n}, covers={list(self.covers)})"


@dataclass(frozen=True)
class IntervalSpec:
    """One branch of a rooted tree: its leaf interval, size, and nodes.

    ``nodes`` lists the branch top-down: ``nodes[0]`` is the maximal
    element (farthest from the root), ``nodes[-1]`` the one closest to
    the root.  ``beta == len(nodes)``.
    """

    interval: tuple[int, int]
    beta: int
    nodes: tuple[int, ...]


class RootedTree(Poset):
    """A rooted plane tree; the root (id 0) is the unique minimal element.

    Construct from a parent table in preorder: ``parents[0] is None`` and
    for ``i >= 1`` the parent of ``i`` must lie on the ancestor path of
    ``i - 1`` (including ``i - 1`` itself), which is exactly the preorder
    condition.  :func:`parse_tree` produces such tables from the nested
    parenthesis notation.

    The checked table fixes everything else, so the tree is built from it
    in a few linear passes and ``Poset.__init__`` is not run.  Every
    parent has a smaller id than its child, so there is no cycle and id
    order is a linear extension; a node has one lower cover, so no cover
    is redundant.  Built at once, in O(n) space: ``parents``, ``children``
    (also ``upper_covers``), ``lower_covers``, ``covers``, ``sizes``
    (``sizes[x]`` nodes in x's subtree, the ids ``x .. x + sizes[x] - 1``),
    ``leaves``, the branches (``interval_specs``, ``branch_of``) and
    ``one_child_mask``.  The per-node masks ``down``, ``up`` and ``side``
    take O(n^2) bits; each is built when it is first read, so counting
    the antichains, folding over the branches or refusing a budget never
    builds them.
    """

    def __init__(self, parents: Sequence[Optional[int]]):
        n = len(parents)
        if n == 0 or parents[0] is not None:
            raise ValueError("parents[0] must be None (the root)")
        children: list[list[int]] = [[] for _ in range(n)]
        sizes = [0] * n
        path = [0]  # the ancestors of i - 1 and i - 1 itself, root first
        for i in range(1, n):
            p = parents[i]
            if type(p) is not int:  # None, or a bool or float posing as an id
                raise ValueError(
                    f"node {i} has no parent"
                    if p is None
                    else f"parent {p!r} of node {i} is not an int"
                )
            while path and path[-1] != p:
                x = path.pop()
                sizes[x] = i - x  # x's subtree ends at i - 1
            if not path:
                raise ValueError("ids are not in preorder: parent of "
                                 f"{i} must be an ancestor of {i - 1}")
            path.append(i)
            children[p].append(i)
        for x in path:
            sizes[x] = n - x
        self.n = n
        self.parents = tuple(parents)
        self.root = 0
        self.sizes = tuple(sizes)
        # increasing id is planar order, so each child list is sorted
        kids = tuple(map(tuple, children))
        self.children = self.upper_covers = kids
        self.lower_covers = ((),) + tuple([(p,) for p in self.parents[1:]])
        self.covers = tuple([(x, c) for x, cs in enumerate(kids) for c in cs])
        self._linear_extension = tuple(range(n))
        self.full_mask = (1 << n) - 1
        # The nodes with exactly one child: that child is id + 1 and lies
        # on the same branch, one step farther from the root.  Read off a
        # string of bits, as a sum of n shifts would take O(n^2) time.
        self.one_child_mask = int(
            "".join(["1" if len(cs) == 1 else "0" for cs in reversed(kids)]), 2
        )

        # Preorder ids make id order the planar depth-first order, so the
        # leaves come out left to right; before[x] leaves have ids below x.
        before = [0]
        for cs in kids:
            before.append(before[-1] + (not cs))
        self.leaves = tuple([x for x, cs in enumerate(kids) if not cs])
        self.n_leaves = len(self.leaves)

        # A branch runs down one-child nodes, top, top + 1, ..., to a node
        # x with none or several; id x + 1 tops the next branch.  So the
        # branches come in increasing order of their tops, which `_fold`
        # needs, and the leaves of x's subtree are labeled before[x] + 1 to
        # before[x + sizes[x]].
        specs: dict[tuple[int, int], IntervalSpec] = {}
        branch_of: dict[int, tuple[tuple[int, int], int]] = {}
        # each list descends: nested intervals, outermost (smallest top id) first
        starts: dict[int, list[int]] = {}
        top = 0
        for x, cs in enumerate(kids):
            if len(cs) == 1:
                continue
            iv = (before[x] + 1, before[x + sizes[x]])
            nodes = tuple(range(x, top - 1, -1))  # deepest first
            specs[iv] = IntervalSpec(iv, len(nodes), nodes)
            for j, y in enumerate(nodes, start=1):
                branch_of[y] = (iv, j)
            starts.setdefault(iv[0], []).append(iv[1])
            top = x + 1
        self.interval_specs = specs
        self.branch_of = branch_of
        self._starts = starts
        self._partition_cache: dict[tuple[tuple[int, int], bool], tuple] = {}

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: a mask table
        # not read before.
        if name == "up":  # x's subtree, the ids x .. x + sizes[x] - 1
            masks = [((1 << s) - 1) << x for x, s in enumerate(self.sizes)]
        elif name == "down":  # x and its ancestors
            masks = [1]
            for x, p in enumerate(self.parents[1:], start=1):
                masks.append(masks[p] | 1 << x)
        elif name == "side":
            # the children of every y <= x.  The minimal elements outside
            # down(A) are the members of OR side[a] (a in A) that down(A)
            # misses, which is how rowmotion steps on a tree.
            masks = []
            for x, cs in enumerate(self.children):
                m = masks[self.parents[x]] if x else 0
                for c in cs:
                    m |= 1 << c
                masks.append(m)
        else:
            raise AttributeError(name)
        masks = tuple(masks)
        setattr(self, name, masks)
        return masks

    @classmethod
    def from_spec(cls, spec: str) -> "RootedTree":
        return parse_tree(spec)

    def to_spec(self) -> str:
        """Nested-parenthesis form; inverse of :func:`parse_tree`."""
        out, path = [], []  # path: the open nodes, root first
        for i, p in enumerate(self.parents):
            while path and path[-1] != p:  # close down to i's parent
                path.pop()
                out.append(")")
            out.append("(")
            path.append(i)
        return "".join(out) + ")" * len(path)

    def count_antichains(self) -> int:
        """Number of antichains: a forest has the product of its trees'
        counts, and a branch below it adds its beta singletons."""
        return _fold(self, 1, mul, lambda count, spec: count + spec.beta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RootedTree({self.to_spec()!r})"


def _fold(tree: RootedTree, empty, union, root):
    """Fold ``tree`` over its branches, leaves first: a branch's value is
    ``root(v, spec)``, where ``v`` combines the values of the child
    branches on its deepest node left to right by ``union``, or is
    ``empty`` (shared, so no step may change its inputs) on a leaf branch.
    ``interval_specs`` is in increasing order of each branch's top, and a
    child's top has a larger id than its parent's, so the reverse walk
    meets children first.  Returns the root branch's value."""
    values = {}  # by top id, each kept until its parent branch takes it
    for spec in reversed(tree.interval_specs.values()):
        kids = tree.children[spec.nodes[0]]
        value = reduce(union, map(values.pop, kids)) if kids else empty
        values[spec.nodes[-1]] = root(value, spec)
    return values[0]


def _decimal(text: str, low: int = 0) -> int:
    """``text`` as an int of at least ``low`` (the module docstring's text
    rule), else ``SpecParseError``.  ``int`` also reads ``٣``, ``3_0``,
    ``+3`` and padding spaces, and ``str.isdigit`` passes ``٣`` and ``²``."""
    if not (text.isascii() and text.isdigit()):
        raise SpecParseError(f"expected ASCII decimal digits, got {text!r}")
    try:
        value = int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise SpecParseError(
            f"expected at most {sys.get_int_max_str_digits()} digits, got {len(text)}"
        ) from None
    if value < low:
        raise SpecParseError(f"expected an integer >= {low}, got {text!r}")
    return value


def parse_tree(spec: str) -> RootedTree:
    """Parse nested-parenthesis tree notation.

    Each ``(...)`` is a node whose children are its immediate sub-pairs in
    written order; the outermost pair is the root.  Whitespace is ignored.
    """
    text = "".join(spec.split())
    if not text:
        raise SpecParseError("empty tree spec")
    parents: list[Optional[int]] = []
    stack: list[int] = []
    for pos, ch in enumerate(text):
        if ch == "(":
            if not stack and parents:
                raise SpecParseError("multiple roots in tree spec")
            parents.append(stack[-1] if stack else None)
            stack.append(len(parents) - 1)
        elif ch == ")":
            if not stack:
                raise SpecParseError(f"unbalanced ')' at position {pos}")
            stack.pop()
        else:
            raise SpecParseError(f"unexpected character {ch!r} at position {pos}")
    if stack:
        raise SpecParseError("unbalanced '(' in tree spec")
    return RootedTree(parents)


def intervals(tree: RootedTree) -> tuple[IntervalSpec, ...]:
    """The interval family of ``tree``, sorted by (lo, hi)."""
    return tuple(tree.interval_specs[iv] for iv in sorted(tree.interval_specs))


def down_set(poset: Poset, nodes: Iterable[int]) -> frozenset[int]:
    """All elements below (or in) ``nodes``: the ideal they generate."""
    mask = _node_mask(nodes, poset.n)
    return frozenset(_bits(_down_mask(poset, mask)))


def count_antichains(tree: RootedTree) -> int:
    return tree.count_antichains()


def interval_partition(
    tree: RootedTree, interval: tuple[int, int], proper: bool = False
) -> tuple[tuple[int, int], ...]:
    """The unique maximal partition of ``interval`` into tree intervals.

    With ``proper=True`` the input must itself be a tree interval with at
    least two leaves, and the trivial one-block partition is excluded.
    Maximality is in refinement order; uniqueness follows from the
    intervals being pairwise nested or disjoint, which also makes the
    greedy largest-block-first scan below correct.
    """
    interval = tuple(interval)
    lo, hi = interval
    # before the memo, which would take (True, 3) for (1, 3); inline, as a
    # call here put about 7 % on the tiling-sweep workload's wall_s
    if type(lo) is not int or type(hi) is not int:
        _least_int("interval end", lo, hi)  # raises, naming the end
    key = (interval, proper)
    # validation asks again per tile; the memo saves ~3 % of tiling-sweep's wall time
    cached = tree._partition_cache.get(key)  # holds checked inputs only
    if cached is not None:
        return cached
    if not (1 <= lo <= hi <= tree.n_leaves):
        raise ValueError(f"interval {interval} out of range")
    if proper:
        if interval not in tree.interval_specs:
            raise ValueError(f"{interval} is not an interval of the tree")
        if lo == hi:
            raise ValueError(f"no proper partition of the singleton {interval}")

    blocks: list[tuple[int, int]] = []
    p = lo
    while p <= hi:
        for h in tree._starts[p]:  # descending to (p, p), which fits by (I1)
            if h <= hi and not (proper and (p, h) == interval):
                break
        blocks.append((p, h))
        p = h + 1
    result = tuple(blocks)
    tree._partition_cache[key] = result
    return result


def chain_product(p: int, q: int) -> Poset:
    """The grid poset [p] x [q]; element (i, j) has id ``i * q + j``."""
    if _least_int("chain length", p, q) < 1:
        raise ValueError("chain lengths must be >= 1")
    covers = []
    for i in range(p):
        for j in range(q):
            if i + 1 < p:
                covers.append((i * q + j, (i + 1) * q + j))
            if j + 1 < q:
                covers.append((i * q + j, i * q + j + 1))
    return Poset(p * q, covers)


def linear_extension(poset: Poset) -> tuple[int, ...]:
    """Deterministic linear extension: smallest-id-first topological order."""
    return poset._linear_extension


def _extension(poset: Poset, extension: Optional[Sequence[int]]) -> tuple[int, ...]:
    """The linear extension ``extension``, checked; ``None`` gives the default."""
    if extension is None:
        return linear_extension(poset)
    ext = tuple(extension)
    if len(ext) != poset.n or _node_mask(ext, poset.n) != poset.full_mask:
        raise ValueError("extension is not a permutation of the elements")
    pos = {x: i for i, x in enumerate(ext)}
    for a, b in poset.covers:
        if pos[a] > pos[b]:
            raise ValueError(f"not a linear extension: {a} < {b} but listed after")
    return ext
