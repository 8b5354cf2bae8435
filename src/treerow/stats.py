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

`check_homomesy`, `check_homometry` and the CLI's ``stats`` take no
per-member pass.  The complement of the ideal ``down(A)`` is the filter
generated by ``rho(A)``, and in a rooted tree the up-sets of an
antichain's members are disjoint subtrees, so

    hatchi(A)   = n - sum_{y in rho(A)} |up[y]|
    hatchi_x(A) = 1 - #{y in rho(A) : y <= x}

So every statistic is a constant ``c0`` and a weight ``w[y]`` per node,
read off its terms by `_weight` (hatchi's pair is
`rowmotion._hatchi_weight`), and `rowmotion` alone turns such pairs into
orbit sums, any number in one fold (its module docstring); `families`
takes chi's and hatchi's from one fold alike.

A verdict needs only how many orbits of each size carry each sum:
`check_homomesy` and `check_homometry` take their verdict, the constant
and the class table from `rowmotion._class_table`, a fold over the
branches with no antichain built.  Only a negative verdict builds the
orbits (`rowmotion._built_orbits`, from the same pair), to name its
witness in enumeration order.  Both check the node ids first and then
the budget, as the enumeration would, though the fold has no more
classes than the tree has antichains.  The CLI's ``stats`` lists every
orbit, so it takes the build, the fold in enumeration order, too
(`_orbit_sums`).  `eval_statistic` and `orbit_sum` (on an orbit it is
given) still sum member by member through `_term_sums`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Iterator, Optional

from . import _EXPORTS
from .errors import SpecParseError
from .poset import RootedTree, _decimal, _down_mask, _least_int, _node_mask
from .rowmotion import (
    DEFAULT_ANTICHAIN_BUDGET,
    Orbit,
    _antichain_mask,
    _built_orbits,
    _check_budget,
    _checked_antichain,
    _class_table,
    _hatchi_weight,
    _ideal_mask,
)

if TYPE_CHECKING:
    from .tiling import Tiling

__all__ = list(_EXPORTS["stats"])

_ATOMS = ("chi", "hatchi", "chi_x", "hatchi_x")


@dataclass(frozen=True)
class Statistic:
    """Integer combination sum coeff * atom(node).

    Terms are (coeff, atom, node) with node None for the global atoms.
    """

    terms: tuple[tuple[int, str, Optional[int]], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(map(tuple, self.terms)))
        if not self.terms:  # its spec would be '', which parse_statistic refuses
            raise ValueError("a statistic needs at least one term")
        for coeff, atom, node in self.terms:
            if atom not in _ATOMS:
                raise ValueError(f"unknown statistic atom {atom!r}")
            if (node is None) == atom.endswith("_x"):
                raise ValueError(
                    f"{atom} {'needs' if node is None else 'does not take'} a node id"
                )
            _least_int("coefficient", coeff)
            # its spec would be chi_x:-1, which parse_statistic refuses
            if node is not None and _least_int("node id", node) < 0:
                raise ValueError(f"node id must be >= 0, got {node}")

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
        _least_int("coefficient", k)  # a bool or IntEnum k would pass as k * c
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


# spaces may stand between the tokens of a term (sign, coefficient, "*",
# atom, ":", node id) and around it, never inside a token
_TERM_RE = re.compile(
    r" *(?P<sign>[+-])? *((?P<coeff>[0-9]+) *\* *)?(?P<atom>hatchi_x|chi_x|hatchi|chi)"
    r"( *: *(?P<node>[0-9]+))? *"
)


def parse_statistic(text: str) -> Statistic:
    """`chi`, `hatchi_x:3`, combos like `3*chi_x:4+1*chi_x:0-2*chi`;
    spaces between tokens, as in ``2 * chi + hatchi_x : 3``."""
    if not text.strip(" "):
        raise SpecParseError("empty statistic")
    terms = []
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or (pos > 0 and m.group("sign") is None):
            raise SpecParseError(f"cannot parse statistic {text!r} at position {pos}")
        coeff, atom, node = m.group("coeff", "atom", "node")
        coeff = _decimal(coeff) if coeff else 1
        if m.group("sign") == "-":
            coeff = -coeff
        terms.append((coeff, atom, _decimal(node) if node else None))
        pos = m.end()
    try:
        return Statistic(tuple(terms))
    except ValueError as exc:  # an atom without its node id, or the reverse
        raise SpecParseError(f"{exc} in {text!r}") from None


def _check_nodes(tree: RootedTree, stat: Statistic) -> None:
    """Refuse a statistic naming a node the tree does not have; callers
    check once, before any enumeration."""
    _node_mask([node for _, _, node in stat.terms if node is not None], tree.n)


def _term_sums(tree: RootedTree, stat: Statistic, amasks, lmasks=None) -> Iterator[int]:
    """Each term of ``stat`` with its coefficient, summed over unchecked antichain
    masks; hatted atoms read their ideals ``lmasks``, worked out here if not given.
    The node ids must have passed ``_check_nodes``."""
    for coeff, atom, node in stat.terms:
        if atom.startswith("hat") and lmasks is None:
            lmasks = [_down_mask(tree, m) for m in amasks]
        masks = lmasks if atom.startswith("hat") else amasks
        if node is None:
            yield coeff * sum(map(int.bit_count, masks))
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


def _weight(tree: RootedTree, stat: Statistic) -> tuple[int, list[int]]:
    """``stat`` as the ``(c0, w)`` pair that `rowmotion` sums over orbits
    (the module docstring), its node ids checked first."""
    _check_nodes(tree, stat)
    c0 = 0
    weight = [0] * tree.n
    for coeff, atom, node in stat.terms:
        if atom == "chi":
            weight = [w + coeff for w in weight]
        elif atom == "chi_x":
            weight[node] += coeff
        elif atom == "hatchi":
            c_hat, w_hat = _hatchi_weight(tree)
            c0 += coeff * c_hat
            weight = [w + coeff * h for w, h in zip(weight, w_hat)]
        else:  # hatchi_x: the y <= node, up its root path
            c0 += coeff
            y = node
            while y is not None:
                weight[y] -= coeff
                y = tree.parents[y]
    return c0, weight


def _orbit_sums(
    tree: RootedTree, stat: Statistic, budget: int
) -> tuple[tuple[Orbit, ...], list[int]]:
    """All orbits of ``tree``, as `all_orbits` orders them, and the sum of
    ``stat`` over each, carried through the build, the node ids checked
    before any enumeration."""
    weight = _weight(tree, stat)
    _check_budget(tree, budget)
    orbits, (sums,) = _built_orbits(tree, (weight,))
    return orbits, sums


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
    """The verdict and constant come from the class fold
    (`rowmotion._class_table`).  Only a failure builds the orbits, for its
    witness: the first orbit and the first, in enumeration order, whose
    average differs from it."""
    weight = _weight(tree, stat)
    _check_budget(tree, budget)
    (size, _, total), *rest = _class_table(tree, (weight,))
    if all(s * size == total * o_size for o_size, _, s in rest):
        return HomomesyVerdict(True, constant=Fraction(total, size))
    orbits, (sums,) = _built_orbits(tree, (weight,))
    other = next(o for o, s in zip(orbits, sums) if s * size != total * o.size)
    return HomomesyVerdict(False, witness=(orbits[0], other))


def check_homometry(
    tree: RootedTree, stat: Statistic, budget: int = DEFAULT_ANTICHAIN_BUDGET
) -> HomometryVerdict:
    """The verdict and class table come from the class fold
    (`rowmotion._class_table`).  Only a failure builds the orbits, for its
    witness, which is canonical: the smallest offending orbit size, and
    within it the first disagreeing pair in enumeration order."""
    weight = _weight(tree, stat)
    _check_budget(tree, budget)
    classes = sorted({(size, s) for size, _, s in _class_table(tree, (weight,))})
    table = dict(classes)  # one sum per size iff no size repeats
    if len(table) == len(classes):
        return HomometryVerdict(True, class_table=table)
    size = next(a for (a, _), (b, _) in zip(classes, classes[1:]) if a == b)
    orbits, (sums,) = _built_orbits(tree, (weight,))
    same = [(o, s) for o, s in zip(orbits, sums) if o.size == size]
    first, value = same[0]
    other = next(o for o, s in same if s != value)
    return HomometryVerdict(False, witness=(first, other))
