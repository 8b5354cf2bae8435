"""Membership and cardinality statistics on orbits.

Four atoms: ``chi_x`` (is node x in the antichain), ``chi`` (antichain
size), ``hatchi_x`` (is x in the ideal), ``hatchi`` (ideal size), plus
integer linear combinations.  Hatted atoms applied to an antichain read
its generated ideal, which is how orbit sums of ideal statistics are
taken throughout.

Orbit sums of all four atoms can be read off a cylinder tiling: with
``m_I`` tiles of interval ``I`` and ``c_I`` columns meeting strictly
nested tiles,

    sum chi_x  = m_I                 (x anywhere on branch I)
    sum chi    = sum_I beta_I m_I
    sum hatchi_x = j m_I + c_I       (x the j-th deepest on branch I)
    sum hatchi = sum_I [ C(beta_I+1,2) m_I + beta_I c_I ]

`orbit_sums_from_tiling` evaluates these; tests confirm they agree with
direct summation on every orbit of every small tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Iterator, Optional

from .errors import SpecParseError
from .poset import RootedTree, _down_mask
from .rowmotion import (
    DEFAULT_ANTICHAIN_BUDGET,
    Orbit,
    _antichain_mask,
    _checked_antichain,
    _ideal_mask,
    all_orbits,
)

if TYPE_CHECKING:
    from .tiling import Tiling

__all__ = [
    "Statistic",
    "parse_statistic",
    "TilingSums",
    "HomomesyVerdict",
    "HomometryVerdict",
    "eval_statistic",
    "orbit_sum",
    "orbit_sums_from_tiling",
    "check_homomesy",
    "check_homometry",
]

_ATOMS = ("chi", "hatchi", "chi_x", "hatchi_x")


@dataclass(frozen=True)
class Statistic:
    """Integer combination sum coeff * atom(node).

    Terms are (coeff, atom, node) with node None for the global atoms.
    """

    terms: tuple[tuple[int, str, Optional[int]], ...]

    def __post_init__(self):
        for coeff, atom, node in self.terms:
            if atom not in _ATOMS:
                raise ValueError(f"unknown statistic atom {atom!r}")
            if (node is None) == atom.endswith("_x"):
                raise ValueError(f"atom {atom} and node {node} do not go together")

    @classmethod
    def chi(cls) -> "Statistic":
        return cls(((1, "chi", None),))

    @classmethod
    def hatchi(cls) -> "Statistic":
        return cls(((1, "hatchi", None),))

    @classmethod
    def chi_x(cls, node: int) -> "Statistic":
        return cls(((1, "chi_x", node),))

    @classmethod
    def hatchi_x(cls, node: int) -> "Statistic":
        return cls(((1, "hatchi_x", node),))

    @property
    def domain(self) -> str:
        """'ideal' when every atom is hatted, else 'antichain'."""
        if all(atom.startswith("hat") for _, atom, _ in self.terms):
            return "ideal"
        return "antichain"

    def __mul__(self, k: int) -> "Statistic":
        return Statistic(tuple((k * c, a, x) for c, a, x in self.terms))

    __rmul__ = __mul__

    def __add__(self, other: "Statistic") -> "Statistic":
        return Statistic(self.terms + other.terms)

    def __sub__(self, other: "Statistic") -> "Statistic":
        return self + (-1) * other

    def spec(self) -> str:
        parts = []
        for i, (coeff, atom, node) in enumerate(self.terms):
            suffix = f":{node}" if node is not None else ""
            sign = "-" if coeff < 0 else ("+" if i else "")
            parts.append(f"{sign}{abs(coeff)}*{atom}{suffix}")
        return "".join(parts)


_TERM_RE = re.compile(
    r"(?P<sign>[+-])?((?P<coeff>[0-9]+)\*)?(?P<atom>hatchi_x|chi_x|hatchi|chi)"
    r"(:(?P<node>[0-9]+))?"
)


def parse_statistic(text: str) -> Statistic:
    """`chi`, `hatchi_x:3`, combos like `3*chi_x:4+1*chi_x:0-2*chi`."""
    s = text.replace(" ", "")
    if not s:
        raise SpecParseError("empty statistic")
    terms = []
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or (pos > 0 and m.group("sign") is None):
            raise SpecParseError(f"cannot parse statistic {text!r} at position {pos}")
        coeff = int(m.group("coeff") or 1)
        if m.group("sign") == "-":
            coeff = -coeff
        atom = m.group("atom")
        node = m.group("node")
        if (node is None) == atom.endswith("_x"):
            raise SpecParseError(
                f"{atom} {'needs' if atom.endswith('_x') else 'does not take'} a node id"
                f" in {text!r}"
            )
        terms.append((coeff, atom, int(node) if node is not None else None))
        pos = m.end()
    return Statistic(tuple(terms))


def _check_nodes(tree: RootedTree, stat: Statistic) -> None:
    """Refuse a statistic naming a node the tree does not have; callers
    check once, before any enumeration."""
    for _, _, node in stat.terms:
        if node is not None and not 0 <= node < tree.n:
            raise ValueError(f"unknown node id {node}")


def _term_sums(tree: RootedTree, stat: Statistic, amasks, lmasks=None) -> Iterator[int]:
    """Each term of ``stat`` with its coefficient, summed over unchecked antichain
    masks; hatted atoms read their ideals ``lmasks``, worked out here if not given.
    The node ids must have passed ``_check_nodes``."""
    for coeff, atom, node in stat.terms:
        if atom.startswith("hat") and lmasks is None:
            lmasks = [_down_mask(tree, m) for m in amasks]
        masks = lmasks if atom.startswith("hat") else amasks
        if node is None:
            yield coeff * sum(m.bit_count() for m in masks)
        else:
            yield coeff * sum(m >> node & 1 for m in masks)


def eval_statistic(tree: RootedTree, stat: Statistic, members) -> int:
    """Evaluate on an antichain (or an ideal, for all-hatted statistics)."""
    _check_nodes(tree, stat)
    if stat.domain == "ideal":
        return sum(_term_sums(tree, stat, None, [_ideal_mask(tree, members)]))
    return sum(_term_sums(tree, stat, [_antichain_mask(tree, members)]))


def orbit_sum(tree: RootedTree, stat: Statistic, orbit: Orbit) -> int:
    """Sum the statistic over the orbit (ideals read through A -> down(A))."""
    _check_nodes(tree, stat)
    for m in orbit.masks:
        _checked_antichain(tree, m)
    return sum(_term_sums(tree, stat, orbit.masks))


@dataclass(frozen=True)
class TilingSums:
    chi_x: dict[tuple[int, int], int]  # per branch interval
    chi: int
    hatchi_x: dict[int, int]  # per node id
    hatchi: int


# tiling._tile_counts, the one use of the tiling layer here: bound on the
# first call, so that importing stats does not load tiling, and not
# imported on every call, which took about 2 us of each call
_tile_counts = None


def orbit_sums_from_tiling(tree: RootedTree, tiling: Tiling) -> TilingSums:
    """The orbit sums of the four atoms, read off a tiling valid for
    ``tree`` (``ValueError`` naming the violation otherwise)."""
    global _tile_counts
    if _tile_counts is None:
        from .tiling import _tile_counts
    counts = _tile_counts(tree, tiling)
    chi_x = {}
    hatchi_x = {}
    chi = 0
    hatchi = 0
    for iv, spec in tree.interval_specs.items():
        m, c = counts[iv]
        chi_x[iv] = m
        chi += spec.beta * m
        hatchi += comb(spec.beta + 1, 2) * m + spec.beta * c
        for idx, x in enumerate(spec.nodes):  # deepest first: j = idx + 1
            hatchi_x[x] = (idx + 1) * m + c
    return TilingSums(chi_x, chi, dict(sorted(hatchi_x.items())), hatchi)


@dataclass(frozen=True)
class HomomesyVerdict:
    is_homomesic: bool
    constant: Optional[Fraction] = None
    witness: Optional[tuple[Orbit, Orbit]] = None


@dataclass(frozen=True)
class HomometryVerdict:
    is_homometric: bool
    class_table: Optional[dict[int, int]] = None
    witness: Optional[tuple[Orbit, Orbit]] = None


def check_homomesy(
    tree: RootedTree, stat: Statistic, budget: int = DEFAULT_ANTICHAIN_BUDGET
) -> HomomesyVerdict:
    _check_nodes(tree, stat)
    orbits = all_orbits(tree, budget=budget)
    averages = [Fraction(sum(_term_sums(tree, stat, o.masks)), o.size) for o in orbits]
    for o, avg in zip(orbits[1:], averages[1:]):
        if avg != averages[0]:
            return HomomesyVerdict(False, witness=(orbits[0], o))
    return HomomesyVerdict(True, constant=averages[0])


def check_homometry(
    tree: RootedTree, stat: Statistic, budget: int = DEFAULT_ANTICHAIN_BUDGET
) -> HomometryVerdict:
    """On failure the witness is canonical: the smallest offending orbit
    size, and within it the first disagreeing pair in enumeration order."""
    _check_nodes(tree, stat)
    orbits = all_orbits(tree, budget=budget)
    by_size: dict[int, list[tuple[Orbit, int]]] = {}
    for o in orbits:
        by_size.setdefault(o.size, []).append((o, sum(_term_sums(tree, stat, o.masks))))
    table: dict[int, int] = {}
    for size in sorted(by_size):
        (first, value) = by_size[size][0]
        for o, v in by_size[size][1:]:
            if v != value:
                return HomometryVerdict(False, witness=(first, o))
        table[size] = value
    return HomometryVerdict(True, class_table=table)
