"""Tree families with closed-form orbit structure.

Each family constructor produces a rooted tree; for most of them the
whole orbit table (sizes, multiplicities, chi and hatchi sums per class)
is known in closed form and `predicted_profile` returns it without any
enumeration.  `verify_family` then diffs the prediction against brute
force.  Every table here is (size, delta, chi, hatchi) -> count.
`combine_profiles` and `extend_root_transfer` take tables with no tree:
the disjoint union of two trees (`rowmotion._join_classes`, orbit sizes
pairing by gcd and lcm) and a chain put below a forest (`_add_root`: only
the orbit through the empty antichain grows, and every nonempty ideal
gains the chain).  The three-leaf table is the class fold over its tree
(`rowmotion._class_table`, the fold of `stats`' homomesy and homometry
verdicts), which joins by the same step and reads its root steps off
chi's and hatchi's ``(c0, w)`` pairs (`_profile_weights`).  Classes are
labelled O1, O2, ... once, when a step or `observed_profile` returns
them, the delta class first, then by key (`_in_class_order`).
`observed_profile` enumerates: it runs the orbit fold once
(`rowmotion._orbit_cycles`) on the same two pairs, so chi and hatchi
sums both come from it, and tallies its cycles as they come.  It is the
table that the closed forms and both steps are checked against; the
tests hold it to a member-by-member sum.

The complete binary tree is deliberately not predictable: at depth 3 it
is the standard witness that equal-size orbits can carry different chi
and hatchi sums, and the predictor refuses it.

The public names, like every layer's, are listed once, in
``treerow._EXPORTS``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Union

from . import _EXPORTS
from .errors import SpecParseError, UnsupportedFamilyError
from .poset import RootedTree, _decimal, _least_int, parse_tree
from .rowmotion import (
    DEFAULT_ANTICHAIN_BUDGET,
    _check_budget,
    _class_table,
    _hatchi_weight,
    _join_classes,
    _orbit_cycles,
)

__all__ = list(_EXPORTS["families"])


@dataclass(frozen=True)
class Star:
    """Leaf chains of alpha_i - 1 nodes hanging off a common root."""

    alphas: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        if not self.alphas or _least_int("branch parameter", *self.alphas) < 2:
            raise ValueError("star needs at least one branch parameter, all >= 2")


@dataclass(frozen=True)
class ExtendedStar:
    b: int
    alphas: tuple[int, ...]

    def __post_init__(self):
        if _least_int("root branch size", self.b) < 1:
            raise ValueError("root branch size must be >= 1")
        object.__setattr__(self, "alphas", Star(self.alphas).alphas)


@dataclass(frozen=True)
class ThreeLeaf:
    """Branch sizes: a above the fork, then b over the (c, d) pair, e aside."""

    a: int
    b: int
    c: int
    d: int
    e: int

    def __post_init__(self):
        if _least_int("branch size", self.a, self.b, self.c, self.d, self.e) < 1:
            raise ValueError("all five branch sizes must be >= 1")


@dataclass(frozen=True)
class Tk:
    k: int

    def __post_init__(self):
        if _least_int("k", self.k) < 2:
            raise ValueError("k must be >= 2")


@dataclass(frozen=True)
class Comb:
    n: int

    def __post_init__(self):
        if _least_int("n", self.n) < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class ExtendedComb:
    n: int
    k: int

    def __post_init__(self):
        if _least_int("n", self.n) < 1 or _least_int("k", self.k) < 1:
            raise ValueError("n and k must be >= 1")


@dataclass(frozen=True)
class Zipper:
    n: int

    def __post_init__(self):
        if _least_int("n", self.n) < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class CompleteBinary:
    depth: int

    def __post_init__(self):
        if _least_int("depth", self.depth) < 1:
            raise ValueError("depth must be >= 1")


FamilyDescriptor = Union[
    Star, ExtendedStar, ThreeLeaf, Tk, Comb, ExtendedComb, Zipper, CompleteBinary
]

_ONE_INT = {"tk": Tk, "comb": Comb, "zipper": Zipper, "cbt": CompleteBinary}


def _ints(text: str) -> tuple[int, ...]:
    return tuple(map(_decimal, text.split(",")))


def parse_family(text: str) -> FamilyDescriptor:
    """`star:3,3,2`, `estar:b=2;3,3,2`, `threeleaf:2,2,1,1,1`, `tk:3`,
    `comb:4`, `ecomb:n=3,k=2`, `zipper:2`, `cbt:3`."""
    name, sep, rest = text.partition(":")
    if not sep or not rest:
        raise SpecParseError(f"family descriptor {text!r} needs a name:params form")
    if name == "star":
        return Star(_ints(rest))
    if name == "estar":
        m_b, sep2, m_alphas = rest.partition(";")
        if not sep2 or not m_b.startswith("b="):
            raise SpecParseError(f"extended star wants b=B;alphas, got {rest!r}")
        return ExtendedStar(_decimal(m_b[2:]), _ints(m_alphas))
    if name == "threeleaf":
        params = _ints(rest)
        if len(params) != 5:
            raise SpecParseError("threeleaf takes exactly five branch sizes")
        return ThreeLeaf(*params)
    if name in _ONE_INT:
        return _ONE_INT[name](_decimal(rest))
    if name == "ecomb":
        parts = rest.split(",")
        pairs = dict(p.split("=", 1) for p in parts if "=" in p)
        if len(parts) != 2 or set(pairs) != {"n", "k"}:
            raise SpecParseError(f"ecomb wants n=N,k=K, got {rest!r}")
        return ExtendedComb(_decimal(pairs["n"]), _decimal(pairs["k"]))
    raise SpecParseError(f"unknown family {name!r}")


def descriptor_string(desc: FamilyDescriptor) -> str:
    if isinstance(desc, Star):
        return "star:" + ",".join(map(str, desc.alphas))
    if isinstance(desc, ExtendedStar):
        return f"estar:b={desc.b};" + ",".join(map(str, desc.alphas))
    if isinstance(desc, ThreeLeaf):
        return f"threeleaf:{desc.a},{desc.b},{desc.c},{desc.d},{desc.e}"
    if isinstance(desc, ExtendedComb):
        return f"ecomb:n={desc.n},k={desc.k}"
    for name, cls in _ONE_INT.items():
        if isinstance(desc, cls):
            (value,) = vars(desc).values()
            return f"{name}:{value}"
    raise UnsupportedFamilyError(f"unknown descriptor {desc!r}")


def _chain_spec(m: int) -> str:
    return "(" * m + ")" * m


def _star_body(alphas) -> str:
    return "".join(_chain_spec(a - 1) for a in alphas)


def _comb_spec(n: int) -> str:
    s = "(()())"
    for _ in range(n - 1):
        s = "(" + s + "()" + ")"
    return s


def _ecomb_spec(n: int, k: int) -> str:
    if n == 1:
        return "(()())"
    inner = "(" * k + "()()" + ")" * k
    for _ in range(n - 2):
        inner = "(" * k + inner + "()" + ")" * k
    return "(" + inner + "()" + ")"


def _cbt_spec(depth: int) -> str:
    s = "()"
    for _ in range(depth):
        s = "(" + s + s + ")"
    return s


def family_spec(desc: FamilyDescriptor) -> str:
    """Nested-parenthesis string of the family member."""
    if isinstance(desc, Star):
        return "(" + _star_body(desc.alphas) + ")"
    if isinstance(desc, ExtendedStar):
        return "(" * desc.b + _star_body(desc.alphas) + ")" * desc.b
    if isinstance(desc, ThreeLeaf):
        fork = "(" * desc.b + _chain_spec(desc.c) + _chain_spec(desc.d) + ")" * desc.b
        return "(" * desc.a + fork + _chain_spec(desc.e) + ")" * desc.a
    if isinstance(desc, Tk):
        k = desc.k
        return family_spec(ThreeLeaf(k, k, k - 1, k - 1, k - 1))
    if isinstance(desc, Comb):
        return _comb_spec(desc.n)
    if isinstance(desc, ExtendedComb):
        return _ecomb_spec(desc.n, desc.k)
    if isinstance(desc, Zipper):
        return "(" + _comb_spec(desc.n) + _comb_spec(desc.n) + ")"
    if isinstance(desc, CompleteBinary):
        return _cbt_spec(desc.depth)
    raise UnsupportedFamilyError(f"unknown descriptor {desc!r}")


def make_family(desc: FamilyDescriptor) -> RootedTree:
    return parse_tree(family_spec(desc))


def chain(m: int) -> RootedTree:
    """The path with m nodes."""
    if _least_int("chain length", m) < 1:
        raise ValueError("chain needs at least one node")
    return parse_tree(_chain_spec(m))


def graft(left: RootedTree, right: RootedTree, b: int) -> RootedTree:
    """Hang both trees below a new b-node root branch (left = lower leaf
    labels)."""
    if _least_int("root branch size", b) < 1:
        raise ValueError("root branch size must be >= 1")
    return parse_tree("(" * b + left.to_spec() + right.to_spec() + ")" * b)


# ---------------------------------------------------------------------------
# orbit profiles


@dataclass(frozen=True)
class OrbitClass:
    label: str
    size: int
    count: int
    chi: int
    hatchi: int
    delta: int = 0  # 1 on the class of the orbit through the empty antichain


@dataclass(frozen=True)
class OrbitProfile:
    classes: tuple[OrbitClass, ...]

    @property
    def total_antichains(self) -> int:
        return sum(c.size * c.count for c in self.classes)

    def delta_class(self) -> OrbitClass:
        hits = [c for c in self.classes if c.delta]
        if len(hits) != 1 or hits[0].count != 1:
            raise ValueError("profile needs exactly one orbit through the empty antichain")
        return hits[0]


def _exact_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {x}")
    return int(x)


def _star_classes(b: int, alphas) -> list[OrbitClass]:
    l = lcm(*alphas)
    n_orbits = 1
    for a in alphas:
        n_orbits *= a
    n_orbits //= l
    chi_free = sum(l // a * (a - 1) for a in alphas)
    hatchi_free = l * b + sum(l // a * comb(a, 2) for a in alphas)
    classes = [
        OrbitClass("L", l + b, 1, b + chi_free, hatchi_free + comb(b, 2), delta=1)
    ]
    if n_orbits > 1:
        classes.append(OrbitClass("S", l, n_orbits - 1, chi_free, hatchi_free))
    return classes


def _comb_classes(n: int) -> list[OrbitClass]:
    return [
        OrbitClass("S", 2, 2 ** (n - 1), n + 1, 3 * n + 1),
        OrbitClass(
            "L",
            2 ** (n + 1) - 1,
            1,
            (2 * n + 1) * 2 ** (n - 1),
            2 ** (n - 1) * (6 * n - 5) + 3,
            delta=1,
        ),
    ]


def _ecomb_classes(n: int, k: int) -> list[OrbitClass]:
    if k % 2 == 1:
        return [
            OrbitClass("S", 2, 2 ** (n - 1), n + 1, (2 * k + 1) * n - 2 * k + 3),
            OrbitClass(
                "L",
                (k + 1) * 2**n - 2 * k + 1,
                1,
                ((k + 1) * n + 1) * 2 ** (n - 1) - k + 1,
                (2 * k + 1) * (k + 1) * n * 2 ** (n - 1)
                - (5 * k**2 + 3 * k - 3) * 2 ** (n - 1)
                + 3 * k**2,
                delta=1,
            ),
        ]
    qk = Fraction(k, 4)
    tail = comb(k - 2, 2) if k >= 2 else 0
    classes = []
    for i in range(1, n + 1):
        size = k * (i - 1) + 2
        chi = _exact_int(Fraction(size, 2) * n - qk * (i * i - 5 * i + 4) + 1)
        hatchi = _exact_int(
            Fraction((2 * k + 1) * size, 2) * n
            - Fraction(k * (2 * k + 1), 4) * i * i
            + Fraction(3 * k, 4) * i
            + tail
        )
        classes.append(OrbitClass(f"S{i}", size, 2 ** (n - i), chi, hatchi))
    classes.append(
        OrbitClass(
            "L",
            k * (n - 1) + 3,
            1,
            _exact_int(qk * n * n + Fraction(3 * k + 4, 4) * n - k + 2),
            _exact_int(
                Fraction(k * (2 * k + 1), 4) * n * n
                - Fraction(4 * k**2 - 9 * k - 4, 4) * n
                + tail
            ),
            delta=1,
        )
    )
    return classes


def _zipper_classes(n: int) -> list[OrbitClass]:
    p2 = 2**n
    return [
        OrbitClass("S", 2, 2 ** (2 * n - 1), 2 * n + 2, 6 * n + 4),
        OrbitClass(
            "M",
            2 * p2 - 1,
            2 * p2 - 2,
            p2 * (2 * n + 1),
            3 * p2 * (2 * n - 1) + 5,
        ),
        OrbitClass(
            "L", 2 * p2, 1, p2 * (2 * n + 1) + 1, 3 * p2 * (2 * n - 1) + 5, delta=1
        ),
        OrbitClass(
            "G",
            4 * p2 - 2,
            p2,
            p2 * (4 * n + 3) - n - 1,
            p2 * (12 * n + 1) - 3 * n + 3,
        ),
    ]


_Table = dict[tuple[int, int, int, int], int]


def _profile_weights(tree: RootedTree) -> tuple:  # chi's and hatchi's (c0, w) pairs
    return (0, [1] * tree.n), _hatchi_weight(tree)


def predicted_profile(desc: FamilyDescriptor) -> OrbitProfile:
    """Closed-form orbit table; refuses the complete binary tree."""
    if isinstance(desc, (Star, ExtendedStar)):
        b = desc.b if isinstance(desc, ExtendedStar) else 1
        return OrbitProfile(tuple(_star_classes(b, desc.alphas)))
    if isinstance(desc, ThreeLeaf):
        tree = make_family(desc)
        return OrbitProfile(_labeled(_class_table(tree, _profile_weights(tree))))
    if isinstance(desc, Tk):
        k = desc.k
        classes = (
            OrbitClass("S", k, k * (k - 1), 3 * k - 3, (7 * k * k - 3 * k) // 2),
            OrbitClass("M", 2 * k, k - 1, 5 * k - 4, (11 * k * k - 5 * k) // 2),
            OrbitClass("L", 3 * k, 1, 6 * k - 4, 6 * k * k - 3 * k, delta=1),
        )
        return OrbitProfile(classes)
    if isinstance(desc, Comb):
        return OrbitProfile(tuple(_comb_classes(desc.n)))
    if isinstance(desc, ExtendedComb):
        return OrbitProfile(tuple(_ecomb_classes(desc.n, desc.k)))
    if isinstance(desc, Zipper):
        return OrbitProfile(tuple(_zipper_classes(desc.n)))
    raise UnsupportedFamilyError(
        f"no closed-form orbit table for {descriptor_string(desc)}"
    )


def _normalize(classes) -> _Table:
    """The (size, delta, chi, hatchi) -> count table of some classes."""
    out = Counter()
    for c in classes:
        out[c.size, c.delta, c.chi, c.hatchi] += c.count
    return out


def _in_class_order(keys) -> list:
    """Table keys in class order: the delta class first, then by key."""
    return sorted(keys, key=lambda k: (-k[1], k))


def _labeled(table: _Table) -> tuple[OrbitClass, ...]:
    """Classes of a table in class order, labelled O1, O2, ..."""
    return tuple(
        OrbitClass(f"O{i}", size, table[size, delta, chi, hatchi], chi, hatchi, delta)
        for i, (size, delta, chi, hatchi) in enumerate(_in_class_order(table), 1)
    )


def _add_root(table: _Table, k: int) -> _Table:
    """Table after putting a k-node chain below the forest, for a table
    given with no tree (`combine_profiles`, `extend_root_transfer`).

    Only the orbit through the empty antichain changes size: it gains the
    k chain singletons, with ideals of 1..k nodes.  Every nonempty ideal
    of the forest gains the whole chain.
    """
    grown = comb(k, 2)
    return {
        (size + k * delta, delta, chi + k * delta, hatchi + k * size + delta * grown): n
        for (size, delta, chi, hatchi), n in table.items()
    }


def combine_profiles(left: OrbitProfile, right: OrbitProfile, b: int) -> OrbitProfile:
    """Orbit table of the tree whose root branch (b nodes) splits into two
    subtrees with the given tables: their disjoint union under a b-chain."""
    if _least_int("root branch size", b) < 1:
        raise ValueError("root branch size must be >= 1")
    left.delta_class()
    right.delta_class()
    union = _join_classes(_normalize(left.classes), _normalize(right.classes))
    return OrbitProfile(_labeled(_add_root(union, b)))


def extend_root_transfer(profile: OrbitProfile, delta_beta: int) -> OrbitProfile:
    """Widen the root branch by delta_beta nodes: the same root step as in
    `combine_profiles`, applied to a whole tree."""
    if _least_int("delta_beta", delta_beta) < 0:
        raise ValueError("cannot shrink the root branch")
    profile.delta_class()
    if delta_beta == 0:
        return profile
    return OrbitProfile(_labeled(_add_root(_normalize(profile.classes), delta_beta)))


def observed_profile(
    tree: RootedTree, budget: int = DEFAULT_ANTICHAIN_BUDGET
) -> OrbitProfile:
    """Enumerated orbit table: the orbit fold's cycles and the chi and
    hatchi sums it carries, tallied with no orbit rotated or sorted."""
    _check_budget(tree, budget)
    cycles, (chi, hatchi) = _orbit_cycles(tree, _profile_weights(tree))
    deltas = [1] + [0] * (len(cycles) - 1)
    return OrbitProfile(_labeled(Counter(zip(map(len, cycles), deltas, chi, hatchi))))


@dataclass(frozen=True)
class ClassDiff:
    size: int
    delta: int
    chi: int
    hatchi: int
    predicted_count: int
    observed_count: int

    @property
    def ok(self) -> bool:
        return self.predicted_count == self.observed_count


@dataclass(frozen=True)
class FamilyReport:
    descriptor: str
    ok: bool
    diffs: tuple[ClassDiff, ...]
    predicted_total: int
    observed_total: int
    note: Optional[str] = None


def verify_family(
    desc: FamilyDescriptor, budget: int = DEFAULT_ANTICHAIN_BUDGET
) -> FamilyReport:
    """Diff the closed-form table against enumeration.

    The complete binary tree has no table; for it the check is inverted:
    at depth 3 the report is ok when equal-size orbits with unequal sums
    are actually found, reproducing the known failure.
    """
    name = descriptor_string(desc)
    tree = make_family(desc)
    observed = observed_profile(tree, budget=budget)
    observed_total = observed.total_antichains
    if isinstance(desc, CompleteBinary):
        # a statistic is homometric iff each orbit size carries one sum
        sizes = len({c.size for c in observed.classes})
        confirmed = all(
            len({(c.size, getattr(c, stat)) for c in observed.classes}) > sizes
            for stat in ("chi", "hatchi")
        )
        return FamilyReport(
            name,
            ok=confirmed if desc.depth == 3 else True,
            diffs=(),
            predicted_total=observed_total,
            observed_total=observed_total,
            note=(
                "no closed-form table; homometry failure "
                + ("confirmed" if confirmed else "NOT confirmed")
            ),
        )
    predicted = predicted_profile(desc)
    want, got = _normalize(predicted.classes), _normalize(observed.classes)
    diffs = tuple(
        ClassDiff(*key, want.get(key, 0), got.get(key, 0))
        for key in _in_class_order(set(want) | set(got))
    )
    predicted_total = predicted.total_antichains
    ok = all(d.ok for d in diffs) and predicted_total == observed_total
    return FamilyReport(name, ok, diffs, predicted_total, observed_total)
