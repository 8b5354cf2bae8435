"""Rowmotion on antichains and ideals, toggles, and orbit enumeration.

Inside the library antichains, ideals and :class:`Orbit` members are node
bitmasks; the public entry points check node-id sets and return frozensets.
Rowmotion on antichains sends ``A`` to the minimal elements of the
complement of the ideal it generates; on ideals it is the conjugate map
``L -> down_set(rho(max L))``, which also equals the composition of
toggles along any linear extension, applied top element first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError
from .poset import Poset, RootedTree, _bits, _down_mask, _extension, _node_mask

__all__ = [
    "Orbit",
    "rho_antichain",
    "rho_ideal",
    "toggle",
    "rho_via_toggles",
    "orbit_of",
    "all_orbits",
    "enumerate_antichains",
    "DEFAULT_ANTICHAIN_BUDGET",
]

DEFAULT_ANTICHAIN_BUDGET = 10**6


def _antichain_mask(tree: Poset, members: Iterable[int]) -> int:
    return _checked_antichain(tree, _node_mask(members, tree.n))


def _checked_antichain(tree: Poset, mask: int) -> int:
    """``mask``, once checked to be an antichain of ``tree``."""
    if mask >> tree.n:
        raise ValueError(f"unknown node id {mask.bit_length() - 1}")
    for x in _bits(mask):
        if tree.down[x] & mask != 1 << x:
            below = next(b for b in _bits(tree.down[x] & mask) if b != x)
            raise ValueError(f"not an antichain: {below} < {x}")
    return mask


def _ideal_mask(poset: Poset, members: Iterable[int]) -> int:
    mask = _node_mask(members, poset.n)
    for x in _bits(mask):
        if poset.down[x] & mask != poset.down[x]:
            raise ValueError(f"not an ideal: {x} is in but part of its down-set is not")
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


def _toggle_sweep(poset: Poset, lmask: int, order: Iterable[int]) -> frozenset[int]:
    """Toggle the ideal ``lmask`` at each element of ``order`` in turn."""
    for x in order:
        if lmask >> x & 1:
            if not any(lmask >> z & 1 for z in poset.upper_covers[x]):
                lmask ^= 1 << x
        elif all(lmask >> y & 1 for y in poset.lower_covers[x]):
            lmask ^= 1 << x
    return frozenset(_bits(lmask))


def toggle(poset: Poset, ideal: Iterable[int], x: int) -> frozenset[int]:
    """Flip membership of ``x`` if the result is an ideal, else no-op."""
    lmask = _ideal_mask(poset, ideal)
    if not 0 <= x < poset.n:
        raise ValueError(f"unknown node id {x}")
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


def _lex_key(mask: int) -> list[int]:
    """Sort key of a mask: its id list (a generator-built tuple holds more memory)."""
    return list(_bits(mask))


def _canonical(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle of masks rotated to start at its lex-smallest member."""
    rep = cycle.index(min(cycle, key=_lex_key))
    return cycle[rep:] + cycle[:rep]


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
        return [list(_bits(m)) for m in self.masks]


def orbit_of(tree: RootedTree, antichain: Iterable[int]) -> Orbit:
    """The rowmotion orbit through ``antichain`` (canonically rotated)."""
    start = _antichain_mask(tree, antichain)
    return Orbit._of(_canonical(_cycle(tree, start)))


def enumerate_antichains(
    tree: RootedTree, budget: int = DEFAULT_ANTICHAIN_BUDGET
) -> list[frozenset[int]]:
    """All antichains of the tree, sorted by their sorted id tuple."""
    return [frozenset(_bits(m)) for m in _antichain_masks(tree, budget)]


def _antichain_masks(tree: RootedTree, budget: int) -> list[int]:
    total = tree.count_antichains()
    if total > budget:
        raise BudgetExceededError(total, budget)
    # Antichains of the subtree at x: either {x}, or a union of one
    # (possibly empty) antichain per child subtree.  A node with one child
    # takes the child's list over instead of copying it.
    memo: list[list[int]] = [[] for _ in range(tree.n)]
    for x in range(tree.n - 1, -1, -1):
        kids = tree.children[x]
        if len(kids) == 1:
            acc = memo[kids[0]]
        else:
            acc = [0]
            for c in kids:
                acc = [m | cm for m in acc for cm in memo[c]]
        acc.append(1 << x)
        memo[x] = acc
        for c in kids:
            memo[c] = []  # free child lists as they are absorbed
    memo[0].sort(key=_lex_key)  # every caller wants lex order
    return memo[0]


def all_orbits(
    tree: RootedTree, budget: int = DEFAULT_ANTICHAIN_BUDGET
) -> tuple[Orbit, ...]:
    """Partition all antichains into orbits, ordered by representative."""
    seen: set[int] = set()
    orbits: list[Orbit] = []
    for start in _antichain_masks(tree, budget):
        if start in seen:
            continue
        # Every earlier antichain lies in an earlier orbit, so this one is
        # already the lex-smallest member of its own: the cycle as traced
        # is canonically rotated.
        cycle = _cycle(tree, start)
        seen.update(cycle)
        orbits.append(Orbit._of(cycle))
    return tuple(orbits)
