"""Rowmotion on antichains and ideals, toggles, and orbit enumeration.

Inside the library antichains, ideals and :class:`Orbit` members are node
bitmasks; the public entry points check node-id sets and return frozensets.
Rowmotion on antichains sends ``A`` to the minimal elements of the
complement of the ideal it generates; on ideals it is the conjugate map
``L -> down_set(rho(max L))``, which also equals the composition of
toggles along any linear extension, applied top element first.

`all_orbits` takes no rowmotion step.  Rowmotion acts componentwise on a
forest, so it joins the cycles of sibling subtrees (`_join`), and a root
below a forest only puts ``{root}`` just after ``{}`` in the cycle through
``{}``; it builds each tree's orbits that way from its leaves up, as a
`poset._fold` over the branches.  `orbit_of` still takes rowmotion steps,
and `enumerate_antichains` still walks the antichains one by one.

The fold (`_orbit_cycles`) carries, per orbit, the sum of each statistic
it is given.  Rowmotion permutes each orbit, and the complement of
``down(A)`` is the disjoint union of the subtrees ``up[y]``, y in
``rho(A)``, so any statistic is a pair ``(c0, w)`` (`stats._weight`,
`_hatchi_weight`; chi is ``(0, [1] * n)``) that sums over an orbit ``O``
to ``c0 * |O|`` plus ``w[y]`` over the elements ``y`` of its members;
this module alone applies that rule.  A joined cycle holds each member
of ``A`` lcm/a times and each of ``B`` lcm/b times, so its weight sum is
``lcm/a * S_A + lcm/b * S_B``; a root step adds ``w[x] + ... + w[j]`` to
the delta cycle, its singletons being the only new members; ``c0 * |O|``
is added once the fold is done.  `_built_orbits` is the fold put in
enumeration order; `families.observed_profile` tallies its raw cycles.
`_class_table` runs the fold on class tables ``(size, delta, *sums) ->
count`` instead, with no antichain built: `_join_classes` pairs classes
as `_join` pairs cycles.  `stats` takes its verdicts from it, and
`families` its three-leaf table and the union of `combine_profiles`.

Ideal toggles are the PL toggles (`_pl_run`, shared with `continuous`)
of the ideal's indicator point, 0 on the ideal and 1 off it; `rho_ideal`
does not toggle, so it stays an independent check on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf
from operator import add, or_
from typing import Iterable, Optional, Sequence

from . import _EXPORTS
from .errors import BudgetExceededError
from .poset import (
    Poset, RootedTree, _bits, _down_mask, _extension, _fold, _least_int, _node_mask
)

__all__ = list(_EXPORTS["rowmotion"])

DEFAULT_ANTICHAIN_BUDGET = 10**6

_Weights = Sequence[tuple[int, Sequence[int]]]  # (c0, w) pairs, the module docstring's


def _antichain_mask(tree: Poset, members: Iterable[int]) -> int:
    return _checked_antichain(tree, _node_mask(members, tree.n))


def _checked_antichain(tree: Poset, mask: int) -> int:
    """``mask``, once checked to be an antichain of ``tree``."""
    if mask >> tree.n:
        raise ValueError(f"unknown node id {mask.bit_length() - 1}")
    down = tree.down
    rest = mask
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        if down[x] & mask != low:
            below = next(b for b in _bits(down[x] & mask) if b != x)
            raise ValueError(f"not an antichain: {below} < {x}")
        rest ^= low
    return mask


def _ideal_mask(poset: Poset, members: Iterable[int]) -> int:
    mask = _node_mask(members, poset.n)
    down = poset.down
    outside = ~mask
    rest = mask
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        if down[x] & outside:
            raise ValueError(f"not an ideal: {x} is in but part of its down-set is not")
        rest ^= low
    return mask


def _rho_mask(tree: Poset, amask: int) -> int:
    """Rowmotion on an antichain bitmask (no validation).

    A rooted tree takes O(|A|) mask operations through ``tree.side``;
    any other poset tests every element outside ``down(A)``.
    """
    if isinstance(tree, RootedTree):
        if not amask:
            return 1 << tree.root
        side = tree.side
        down = tree.down
        sidem = downm = 0
        while amask:
            low = amask & -amask
            x = low.bit_length() - 1
            sidem |= side[x]
            downm |= down[x]
            amask ^= low
        return sidem & ~downm
    comp = tree.full_mask & ~_down_mask(tree, amask)
    out = 0
    for x in _bits(comp):
        if tree.down[x] & comp == 1 << x:
            out |= 1 << x
    return out


def rho_antichain(tree: Poset, antichain: Iterable[int]) -> frozenset[int]:
    """One rowmotion step: minimal elements outside the generated ideal."""
    amask = _antichain_mask(tree, antichain)
    return frozenset(_bits(_rho_mask(tree, amask)))


def rho_ideal(tree: Poset, ideal: Iterable[int]) -> frozenset[int]:
    """Rowmotion on ideals: the ideal generated by ``rho(max ideal)``."""
    lmask = _ideal_mask(tree, ideal)
    maxmask = 0
    for x in _bits(lmask):
        if not any(lmask >> z & 1 for z in tree.upper_covers[x]):
            maxmask |= 1 << x
    new = _rho_mask(tree, maxmask)
    return frozenset(_bits(_down_mask(tree, new)))


def _plan(poset: Poset, order: Iterable[int]) -> tuple:
    """``(x, lower covers, upper covers)`` per toggle, in order."""
    return tuple([(x, poset.lower_covers[x], poset.upper_covers[x]) for x in order])


def _pl_run(plan: tuple, nums: list, d: int) -> None:
    """Toggle along ``plan`` in place, the value at x being nums[x]/d.

    ``max(lo) + min(up) − f(x)`` keeps every value on the (1/d)-lattice,
    the boundary values 0 and d/d included, so the toggle is integer
    arithmetic on the numerators.
    """
    for x, lo, up in plan:
        big = max([nums[y] for y in lo]) if lo else 0
        small = min([nums[z] for z in up]) if up else d
        nums[x] = big + small - nums[x]


def _toggle_sweep(poset: Poset, lmask: int, order: Iterable[int]) -> frozenset[int]:
    """Toggle the ideal ``lmask`` at each element of ``order`` in turn."""
    nums = [(lmask >> x & 1) ^ 1 for x in range(poset.n)]
    _pl_run(_plan(poset, order), nums, 1)
    return frozenset([x for x, v in enumerate(nums) if not v])


def toggle(poset: Poset, ideal: Iterable[int], x: int) -> frozenset[int]:
    """Flip membership of ``x`` if the result is an ideal, else no-op."""
    lmask = _ideal_mask(poset, ideal)
    _node_mask((x,), poset.n)
    return _toggle_sweep(poset, lmask, (x,))


def rho_via_toggles(
    poset: Poset, ideal: Iterable[int], extension: Optional[Sequence[int]]
) -> frozenset[int]:
    """Toggle along a linear extension, top element first.

    An explicit ``extension`` is checked (``ValueError`` if it is not a
    linear extension); ``None`` means the default :func:`linear_extension`.
    Equals :func:`rho_ideal` on rooted trees and is independent of the
    extension chosen.
    """
    ext = _extension(poset, extension)
    return _toggle_sweep(poset, _ideal_mask(poset, ideal), reversed(ext))


def _canonical(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle of masks rotated to start at its lex-smallest member.

    Two distinct masks agree on the ids below ``low``, the lowest id in
    one and not the other.  The mask holding it is smaller unless the
    other holds no larger id, for then the other's list is a prefix of
    its own.
    """
    best, rep = cycle[0], 0
    for i, m in enumerate(cycle):
        low = m ^ best
        low &= -low
        above = -(low << 1)  # the ids past the first difference
        if best & above if m & low else not m & above:
            best, rep = m, i
    return cycle[rep:] + cycle[:rep]


# id x in the mask -> "0" at index x, not in it -> "1", up to the largest
_LEX_DIGITS = str.maketrans("01", "10")


def _lex_key(mask: int) -> str:
    """A sort key of a nonempty mask that orders masks as their sorted id
    lists.  At the first id where two masks differ, the one holding it
    has the smaller digit, unless the other holds no larger id; then the
    other's key is a prefix of its own, so it sorts first."""
    return bin(mask)[:1:-1].translate(_LEX_DIGITS)


def _cycle(tree: Poset, start: int) -> tuple[int, ...]:
    """The rowmotion cycle through the antichain mask ``start``, from it."""
    cycle = [start]
    while (cur := _rho_mask(tree, cycle[-1])) != start:
        cycle.append(cur)
    return tuple(cycle)


@dataclass(frozen=True, init=False)
class Orbit:
    """A rowmotion orbit of antichain bitmasks, with the lex-smallest first.

    ``contains_root`` is the delta flag: the orbit through the empty
    antichain also contains the root singleton (rowmotion sends one to
    the other), and no other orbit contains either.
    """

    masks: tuple[int, ...]

    def __init__(self, antichains: Iterable[Iterable[int]]):
        masks = tuple([_node_mask(a, inf) for a in antichains])
        if not masks:
            raise ValueError("an orbit has at least one member")
        if len(set(masks)) != len(masks):
            raise ValueError("orbit members are not distinct")
        object.__setattr__(self, "masks", masks)

    @classmethod
    def _of(cls, masks: tuple[int, ...]) -> "Orbit":
        """The orbit whose members are ``masks``, distinct, in that order."""
        orbit = object.__new__(cls)
        object.__setattr__(orbit, "masks", masks)
        return orbit

    @classmethod
    def from_cycle(cls, cycle: Sequence[Iterable[int]]) -> "Orbit":
        return cls._of(_canonical(cls(cycle).masks))

    @property
    def antichains(self) -> tuple[frozenset[int], ...]:
        return tuple([frozenset(_bits(m)) for m in self.masks])

    @property
    def contains_root(self) -> bool:
        return 0 in self.masks

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def delta(self) -> int:
        return int(self.contains_root)

    def as_id_lists(self) -> list[list[int]]:
        return [_bits(m) for m in self.masks]


def orbit_of(tree: RootedTree, antichain: Iterable[int]) -> Orbit:
    """The rowmotion orbit through ``antichain`` (canonically rotated)."""
    start = _antichain_mask(tree, antichain)
    return Orbit._of(_canonical(_cycle(tree, start)))


def enumerate_antichains(
    tree: RootedTree, budget: int = DEFAULT_ANTICHAIN_BUDGET
) -> list[frozenset[int]]:
    """All antichains of the tree, sorted by their sorted id tuple."""
    return [frozenset(_bits(m)) for m in _antichain_masks(tree, budget)]


def _check_budget(tree: RootedTree, budget: int) -> None:
    """Refuse ``budget < 1``, or a tree with more antichains than it."""
    if _least_int("budget", budget) < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    total = tree.count_antichains()
    if total > budget:
        raise BudgetExceededError(total, budget)


def _antichain_masks(tree: RootedTree, budget: int) -> list[int]:
    """Every antichain mask, in lex order of the sorted id lists.

    Preorder ids make each subtree a range of ids, so the ids larger than
    ``x`` that are incomparable with it are exactly those past its
    subtree, and they are incomparable with the earlier members of a list
    ending in ``x`` too.  A depth-first walk that extends each list by
    those ids in increasing order, and emits every list when it reaches
    it, emits them sorted, each one before the lists it is a prefix of.
    """
    _check_budget(tree, budget)
    n = tree.n
    # after[x]: the first id past x's subtree
    after = [x + s for x, s in enumerate(tree.sizes)]
    out, stack = [0], [(0, 0)]  # (mask so far, smallest id that may come next)
    while stack:
        mask, x = stack.pop()
        if x < n:
            stack.append((mask, x + 1))
            mask |= 1 << x
            out.append(mask)
            stack.append((mask, after[x]))
    return out


def _join(left_built: tuple, right_built: tuple) -> tuple[list, list]:
    """The ``(cycles, sums)`` of the disjoint union of two forests, from
    each one's, ``sums`` holding one list per ``(c0, w)`` pair.

    Rowmotion acts componentwise, so cycles ``A`` and ``B`` of sizes a and
    b give gcd(a, b) cycles of size lcm(a, b), cycle s running through
    ``A[t mod a] | B[(t + s) mod b]``.  The forests' ids are disjoint, so
    the union of two antichains is an OR.  The cycle through both empty
    antichains (s = 0 of the two delta cycles) comes first, from index 0.
    Each of the gcd(a, b) cycles holds every member of ``A`` lcm/a times
    and every member of ``B`` lcm/b times, so it sums to
    ``lcm/a * S_A + lcm/b * S_B``.
    """
    (left, left_sums), (right, right_sums) = left_built, right_built
    out = []
    for a in left:
        size_a = len(a)
        for b in right:
            size_b = len(b)
            g = gcd(size_a, size_b)
            reps_b = size_a // g  # lcm / size_b
            a_run = a * (size_b // g)
            for s in range(g):
                out.append(list(map(or_, a_run, (b[s:] + b[:s]) * reps_b)))
    sums = []
    for pair_a, pair_b in zip(left_sums, right_sums):  # one pass per pair
        sums.append(pair := [])
        for a, sum_a in zip(left, pair_a):
            for b, sum_b in zip(right, pair_b):
                g = gcd(len(a), len(b))
                pair += [len(b) // g * sum_a + len(a) // g * sum_b] * g
    return out, sums


def _join_classes(left: dict, right: dict) -> dict:
    """`_join` on class tables ``(size, delta, *sums) -> count``: each pair
    of classes of sizes a and b gives gcd(a, b) classes of size lcm(a, b),
    each side's sums scaled by lcm over its size.  Of those from the two
    delta classes, one is the delta class (`_join`'s s = 0)."""
    table = {}
    for (size_a, delta_a, *sums_a), count_a in left.items():
        for (size_b, delta_b, *sums_b), count_b in right.items():
            g = gcd(size_a, size_b)
            reps_a, reps_b = size_b // g, size_a // g  # lcm / size_a, lcm / size_b
            size = size_a * reps_a
            sums = [reps_a * s + reps_b * t for s, t in zip(sums_a, sums_b)]
            if delta_a and delta_b:
                table[(size, 1, *sums)] = 1
                plain = g - 1
            else:
                plain = count_a * count_b * g
            if plain:
                key = (size, 0, *sums)
                table[key] = table.get(key, 0) + plain
    return table


def _class_table(tree: RootedTree, weights: _Weights) -> dict:
    """The orbits of ``tree`` as a class table ``(size, delta, *S) -> count``,
    the delta class first, ``S`` holding the sum over an orbit of each
    ``(c0, w)`` pair in ``weights``, with no antichain built: `_orbit_cycles`'
    fold, run on the classes.  A root step adds a branch's nodes to the
    delta class's size and their weights to its sums, and leaves every
    other class as it is; ``c0 * size`` is added to each sum at the end."""

    def root(table, spec):
        adds = [sum([w[x] for x in spec.nodes]) for _, w in weights]
        out = {}
        for key, count in table.items():
            if key[1]:
                key = (key[0] + spec.beta, 1, *map(add, key[2:], adds))
            out[key] = count
        return out

    table = _fold(tree, {(1, 1, *[0] * len(weights)): 1}, _join_classes, root)
    return {
        (size, delta, *[c0 * size + s for (c0, _), s in zip(weights, sums)]): count
        for (size, delta, *sums), count in table.items()
    }


def all_orbits(
    tree: RootedTree, budget: int = DEFAULT_ANTICHAIN_BUDGET
) -> tuple[Orbit, ...]:
    """Partition all antichains into orbits, ordered by representative.

    The orbits are built from the subtrees' cycles, with no rowmotion
    step.  The antichains of a tree are ``{root}`` and those of the forest
    of its children, on which rowmotion acts as on the forest, except
    that ``{}`` goes to ``{root}`` and ``{root}`` to the forest's roots.
    So a root below a forest inserts ``{root}`` just after ``{}`` in the
    forest's delta cycle and leaves every other cycle as it is; a branch
    of one-child nodes ``x < ... < j`` inserts ``{x}, ..., {j}`` at once.
    Siblings are joined by :func:`_join`.  The delta cycle starts at
    ``{}``, the lex-smallest antichain, so it is already canonical and
    comes first; every other cycle is rotated to its lex-smallest member
    (``_canonical``), and they are sorted by it.  That is the rotation
    and the order in which a lex walk of the antichains, stepping round
    each orbit it has not seen, would meet them.
    """
    _check_budget(tree, budget)
    return _built_orbits(tree, ())[0]


def _hatchi_weight(tree: RootedTree) -> tuple[int, list[int]]:
    """hatchi as its ``(c0, w)`` pair: the complement of ``down(A)`` is
    the disjoint union of the subtrees ``up[y]``, y in ``rho(A)``, so
    ``hatchi(A) = n - sum_{y in rho(A)} |up[y]|``, which is ``c0 = n`` and
    ``w[y] = -|up[y]|``, minus the size of y's subtree."""
    return tree.n, [-s for s in tree.sizes]


def _orbit_cycles(tree: RootedTree, weights: _Weights) -> tuple[list, list]:
    """The orbits as raw mask cycles, the delta cycle first with {} at
    index 0, and ``sums[k][i]``, the sum over cycle i of the pair
    ``weights[k]`` (``()``: no sums), as the module docstring says.  The
    caller checks the budget first, once: a verdict has checked it for its
    fold already.  The cycles are lists: the freed ones go back to the
    allocator, where tuples would stay on CPython's per-size free lists
    and raise the peak memory."""

    def root(built, spec):
        cycles, sums = built[0].copy(), built[1].copy()
        # {top}, ..., {deepest} go just after {}, in a copy: the leaf value is shared
        cycles[0] = [0, *[1 << x for x in reversed(spec.nodes)], *cycles[0][1:]]
        for k, (_, w) in enumerate(weights):
            sums[k] = [sums[k][0] + sum([w[x] for x in spec.nodes]), *sums[k][1:]]
        return cycles, sums

    leaf = [[0]], [[0]] * len(weights)
    cycles, sums = _fold(tree, leaf, _join, root)
    for k, (c0, _) in enumerate(weights):
        sums[k] = [c0 * len(c) + s for c, s in zip(cycles, sums[k])]
    return cycles, sums


def _built_orbits(tree: RootedTree, weights: _Weights) -> tuple[tuple, list]:
    """`all_orbits` and the fold's sums in enumeration order: each cycle but
    the delta cycle rotated by `_canonical`, then sorted by `_lex_key`."""
    (delta, *rest), sums = _orbit_cycles(tree, weights)
    rest = list(map(_canonical, map(tuple, rest)))
    keys = [_lex_key(c[0]) for c in rest]
    order = sorted(range(len(rest)), key=keys.__getitem__)
    orbits = (Orbit._of(tuple(delta)), *[Orbit._of(rest[i]) for i in order])
    return orbits, [[pair[0], *[pair[i + 1] for i in order]] for pair in sums]
