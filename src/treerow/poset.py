"""Finite posets and rooted plane trees.

Elements are dense integer ids ``0..n-1``.  Rooted trees fix a planar
embedding: ids are assigned in depth-first preorder (root = 0), so each
node's children carry increasing ids in left-to-right drawing order, and
leaves are labeled ``1..n_leaves`` left to right.  Consequently the set of
leaf labels below any node is a contiguous interval, and the nodes sharing
one interval form a chain — a *branch* — recorded as an
:class:`IntervalSpec`.

Down-sets and order tests are backed by per-element bitmasks, which keeps
the rowmotion inner loops cheap without any dependencies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import SpecParseError

__all__ = [
    "Poset",
    "RootedTree",
    "IntervalSpec",
    "parse_tree",
    "intervals",
    "down_set",
    "count_antichains",
    "interval_partition",
    "chain_product",
    "linear_extension",
]


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        if n <= 0:
            raise ValueError("poset must have at least one element")
        self.n = n
        self.covers: tuple[tuple[int, int], ...] = tuple(sorted(set(map(tuple, covers))))
        lower: list[list[int]] = [[] for _ in range(n)]
        upper: list[list[int]] = [[] for _ in range(n)]
        for x, y in self.covers:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"cover ({x},{y}) out of range")
            if x == y:
                raise ValueError(f"reflexive cover ({x},{y})")
            lower[y].append(x)
            upper[x].append(y)
        self.lower_covers = tuple(tuple(sorted(v)) for v in lower)
        self.upper_covers = tuple(tuple(sorted(v)) for v in upper)

        # Topological order (Kahn); a leftover element means a cycle.
        indeg = [len(lower[i]) for i in range(n)]
        queue = [i for i in range(n) if indeg[i] == 0]
        topo: list[int] = []
        while queue:
            x = queue.pop()
            topo.append(x)
            for y in self.upper_covers[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    queue.append(y)
        if len(topo) != n:
            raise ValueError("cover relations contain a directed cycle")

        down = [0] * n
        for x in topo:
            m = 1 << x
            for y in self.lower_covers[x]:
                m |= down[y]
            down[x] = m
        up = [0] * n
        for x in reversed(topo):
            m = 1 << x
            for y in self.upper_covers[x]:
                m |= up[y]
            up[x] = m
        self.down = tuple(down)
        self.up = tuple(up)

        for x, y in self.covers:
            # x < z < y would make the stored cover redundant.
            if self.down[y] & self.up[x] != (1 << x) | (1 << y):
                raise ValueError(f"redundant cover ({x},{y}): intermediate element exists")

        self.full_mask = (1 << n) - 1
        self.minimal_mask = 0
        self.maximal_mask = 0
        for i in range(n):
            if not self.lower_covers[i]:
                self.minimal_mask |= 1 << i
            if not self.upper_covers[i]:
                self.maximal_mask |= 1 << i

    # -- order queries ---------------------------------------------------

    def le(self, x: int, y: int) -> bool:
        return bool(self.down[y] >> x & 1)

    def minimal_elements(self) -> frozenset[int]:
        return frozenset(_bits(self.minimal_mask))

    def maximal_elements(self) -> frozenset[int]:
        return frozenset(_bits(self.maximal_mask))

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
    """

    def __init__(self, parents: Sequence[Optional[int]]):
        n = len(parents)
        if n == 0 or parents[0] is not None:
            raise ValueError("parents[0] must be None (the root)")
        path = [0]
        for i in range(1, n):
            p = parents[i]
            if not isinstance(p, int):
                raise ValueError(f"node {i} has no parent")
            if p not in path:
                raise ValueError("ids are not in preorder: parent of "
                                 f"{i} must be an ancestor of {i - 1}")
            del path[path.index(p) + 1:]
            path.append(i)
        self.parents = tuple(parents)
        super().__init__(n, ((parents[i], i) for i in range(1, n)))
        self.root = 0
        kids: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            kids[parents[i]].append(i)  # increasing id = planar order
        self.children = tuple(tuple(v) for v in kids)
        # side[x]: the children of every y <= x, as a bitmask.  The
        # minimal elements outside down(A) are the members of
        # OR side[a] (a in A) that down(A) misses, which is how rowmotion
        # steps on a tree.
        side = [0] * n
        for x in range(n):
            m = side[parents[x]] if x else 0
            for c in kids[x]:
                m |= 1 << c
            side[x] = m
        self.side = tuple(side)
        # The nodes with exactly one child: that child is id + 1 and lies
        # on the same branch, one step farther from the root.
        self.one_child_mask = sum(1 << x for x in range(n) if len(kids[x]) == 1)

        # Preorder ids make id order the planar depth-first order, so the
        # leaves come out left to right.
        leaves = [i for i in range(n) if not self.children[i]]
        self.leaves = tuple(leaves)
        self.n_leaves = len(leaves)
        self.leaf_label = {node: k + 1 for k, node in enumerate(leaves)}
        self.leaf_of_label = {k + 1: node for k, node in enumerate(leaves)}

        interval: list[tuple[int, int]] = [(0, 0)] * n
        for x in range(n - 1, -1, -1):
            if not self.children[x]:
                lab = self.leaf_label[x]
                interval[x] = (lab, lab)
            else:
                interval[x] = (interval[self.children[x][0]][0],
                               interval[self.children[x][-1]][1])
        self.node_interval = tuple(interval)

        by_interval: dict[tuple[int, int], list[int]] = {}
        for x in range(n):
            by_interval.setdefault(interval[x], []).append(x)
        specs: dict[tuple[int, int], IntervalSpec] = {}
        branch_of: dict[int, tuple[tuple[int, int], int]] = {}
        for iv, nodes in by_interval.items():
            nodes.sort(reverse=True)  # child id > parent id, so deepest first
            specs[iv] = IntervalSpec(iv, len(nodes), tuple(nodes))
            for j, x in enumerate(nodes, start=1):
                branch_of[x] = (iv, j)
        self.interval_specs = specs
        self.branch_of = branch_of

        starts: dict[int, list[int]] = {}
        for lo, hi in specs:
            starts.setdefault(lo, []).append(hi)
        for lo in starts:
            starts[lo].sort(reverse=True)
        self._starts = starts
        self._partition_cache: dict[tuple[tuple[int, int], bool], tuple] = {}

    @classmethod
    def from_spec(cls, spec: str) -> "RootedTree":
        return parse_tree(spec)

    def to_spec(self) -> str:
        """Nested-parenthesis form; inverse of :func:`parse_tree`."""
        out: list[str] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            x, closing = stack.pop()
            if closing:
                out.append(")")
                continue
            out.append("(")
            stack.append((x, True))
            for c in reversed(self.children[x]):
                stack.append((c, False))
        return "".join(out)

    def count_antichains(self) -> int:
        """Number of antichains, via the product recursion over subtrees."""
        counts = [1] * self.n
        for x in range(self.n - 1, -1, -1):
            prod = 1
            for c in self.children[x]:
                prod *= counts[c]
            counts[x] = 1 + prod
        return counts[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RootedTree({self.to_spec()!r})"


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
    mask = 0
    for x in nodes:
        if not 0 <= x < poset.n:
            raise ValueError(f"unknown node id {x}")
        mask |= poset.down[x]
    return frozenset(_bits(mask))


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
    key = (interval, proper)
    cached = tree._partition_cache.get(key)  # holds checked inputs only
    if cached is not None:
        return cached
    lo, hi = interval
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
        best = -1
        for h in tree._starts.get(p, ()):  # his sorted descending
            if h > hi or (proper and (p, h) == interval):
                continue
            best = h
            break
        if best < 0:
            # (I1) guarantees the singleton, so this cannot happen.
            raise AssertionError(f"no interval starts at leaf {p}")
        blocks.append((p, best))
        p = best + 1
    result = tuple(blocks)
    tree._partition_cache[key] = result
    return result


def chain_product(p: int, q: int) -> Poset:
    """The grid poset [p] x [q]; element (i, j) has id ``i * q + j``."""
    if p < 1 or q < 1:
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
    indeg = [len(poset.lower_covers[i]) for i in range(poset.n)]
    heap = [i for i in range(poset.n) if indeg[i] == 0]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        x = heapq.heappop(heap)
        out.append(x)
        for y in poset.upper_covers[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    return tuple(out)


def _extension(poset: Poset, extension: Optional[Sequence[int]]) -> tuple[int, ...]:
    """The linear extension ``extension``, checked; ``None`` gives the default."""
    if extension is None:
        return linear_extension(poset)
    ext = tuple(extension)
    if sorted(ext) != list(range(poset.n)):
        raise ValueError("extension is not a permutation of the elements")
    pos = {x: i for i, x in enumerate(ext)}
    for a, b in poset.covers:
        if pos[a] > pos[b]:
            raise ValueError(f"not a linear extension: {a} < {b} but listed after")
    return ext
