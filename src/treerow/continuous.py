"""Piecewise-linear and birational rowmotion.

Both act on labelings of the poset extended by a global minimum and
maximum, whose values are pinned by convention: 0 and 1 for the
piecewise-linear map on the order polytope, 1 and 1 for the birational
map.  With these conventions the PL map restricted to ideal indicator
points (0 on the ideal, 1 off it) is exactly combinatorial rowmotion on
ideals, and orders are well defined.  Each map toggles every element
once, top of a linear extension first; an explicit extension is checked
(``ValueError`` if it is not one) and ``None`` means the default one.

Every sweep turns its toggle order into one plan (`rowmotion._plan`)
and runs one of three loops on it.  The PL loop `_pl_run`, which the
ideal toggles of `rowmotion` run on too, works on integer numerators
over the values' common denominator D: the toggle
``max(lo) + min(up) − f(x)`` keeps a value on the (1/D)-lattice, and the
boundary values are 0 and D.  The polytope check reads the numerators,
and the `Fraction`s are built once per call (`ZERO` and `ONE` when D = 1).

Birational values are `Fraction`s, toggled by `_bi_run_rational`, or
integers mod a prime for the fast screening path, toggled by
`_bi_run_modp`; both raise the same zeros in the same order, the mod-p
messages suffixed ``(mod p)``.  Exact coordinates blow up quickly,
which is why the prime-field mode exists: an exact `order_search`
reports the largest bit length it saw, and gives up (``no-repeat``)
after the step that takes a coordinate past `MAX_EXACT_BITS` bits.  The
modulus must be prime (``ValueError`` otherwise), since the zero checks
and the return test need a field.  A mod-p point is a tuple of
residues, but the loop works on projective pairs ``(a, b)`` with value
``a/b``: a toggle is a ratio of subtraction-free products
(Einstein–Propp, arXiv:1310.5294; Grinberg–Roby, arXiv:1402.6178), so
no inverse is taken per toggle, and the public maps normalise once at
the end.  A mod-p point takes ints and `Fraction`s (``num · den⁻¹``)
and rejects any other value.

`order_search` runs its loop on bare values and builds no point per
step: it compares PL numerators, exact `Fraction`s, or mod-p pairs as
``a`` against ``start · b``, never normalised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import RetriesExhaustedError, ZeroInFieldError
from .poset import Poset, _extension
from .rowmotion import _ideal_mask, _pl_run, _plan

__all__ = [
    "LabeledPoint",
    "OrderSearchResult",
    "indicator_point",
    "ideal_of_indicator",
    "pl_toggle",
    "pl_rowmotion",
    "birational_toggle",
    "birational_rowmotion",
    "random_pl_point",
    "random_birational_point",
    "order_search",
    "DEFAULT_MAX_ITER",
]

DEFAULT_MAX_ITER = 10**5
# an exact search stops once a numerator or denominator passes this many bits
MAX_EXACT_BITS = 20_000
DEFAULT_MAX_RETRIES = 10
# numerators and denominators of random starts are drawn uniformly here
RANDOM_VALUE_RANGE = (1, 100)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LabeledPoint:
    """Values on the poset's elements; the two boundary values are implied.

    mode "rational" stores `Fraction`s, mode "modp" stores residues in
    [0, p).
    """

    poset: Poset
    values: tuple
    mode: str = "rational"
    p: Optional[int] = None

    def __post_init__(self):
        if len(self.values) != self.poset.n:
            raise ValueError("one value per poset element required")
        if self.mode == "rational":
            if self.p is not None:
                raise ValueError("rational points carry no modulus")
            object.__setattr__(
                self, "values", tuple(Fraction(v) for v in self.values)
            )
        elif self.mode == "modp":
            _require_prime(self.p)
            object.__setattr__(
                self, "values", tuple(_residue(v, self.p) for v in self.values)
            )
        else:
            raise ValueError(f"unknown scalar mode {self.mode!r}")

    @classmethod
    def _of(
        cls,
        poset: Poset,
        values: tuple,
        mode: str = "rational",
        p: Optional[int] = None,
    ) -> "LabeledPoint":
        """The point with ``values`` as they stand: one per element, each a
        `Fraction` or (mode "modp") a residue in [0, p)."""
        point = object.__new__(cls)
        object.__setattr__(point, "poset", poset)
        object.__setattr__(point, "values", values)
        object.__setattr__(point, "mode", mode)
        object.__setattr__(point, "p", p)
        return point

    def mode_string(self) -> str:
        return "rational" if self.mode == "rational" else f"modp:{self.p}"


@lru_cache(maxsize=256)
def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes as bases: deterministic
    below 3.1·10^23, and far beyond any modulus in use here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p) -> None:
    if not (isinstance(p, int) and _is_prime(p)):
        raise ValueError(f"mod-p arithmetic needs a prime modulus, got {p!r}")


def _residue(v, p: int) -> int:
    """An int reduced mod p, or a `Fraction` as num·den⁻¹ mod p."""
    if isinstance(v, int):
        return v % p
    if isinstance(v, Fraction):
        if v.denominator % p == 0:
            raise ValueError(
                f"{v} has no residue mod {p}: {p} divides its denominator"
            )
        return v.numerator * pow(v.denominator, -1, p) % p
    raise ValueError(f"mod-p values must be ints or Fractions, got {v!r}")


def _require_rational(f: LabeledPoint) -> None:
    if f.mode != "rational":
        raise ValueError("piecewise-linear rowmotion works over the rationals")


def _numerators(vals: Sequence[Fraction]) -> tuple[list, int]:
    """The values as integer numerators over their common denominator D."""
    dens = [v.denominator for v in vals]
    d = lcm(*dens)
    return [v.numerator * (d // e) for v, e in zip(vals, dens)], d


def _check_polytope(poset: Poset, nums: Sequence[int], d: int) -> None:
    """The point ``nums``/d lies in the order polytope."""
    for x in range(poset.n):
        if not 0 <= nums[x] <= d:
            raise ValueError(f"value at {x} is outside [0, 1]")
    for a, b in poset.covers:
        if nums[a] > nums[b]:
            raise ValueError(f"not order-preserving: f({a}) > f({b})")


def _fractions(nums: list, d: int) -> tuple:
    """The values nums[x]/d; over d = 1 they are ZERO and ONE."""
    if d == 1:
        return tuple([ONE if n else ZERO for n in nums])
    return tuple([Fraction(n, d) for n in nums])


def _require_on(poset: Poset, f: LabeledPoint) -> None:
    """The point f lives on ``poset``: the same object, or an equal one."""
    if f.poset is not poset and f.poset != poset:
        raise ValueError("the point lives on another poset")


def _pl_sweep(poset: Poset, f: LabeledPoint, order: Iterable[int]) -> LabeledPoint:
    """Check that f lies in the order polytope, then toggle along ``order``."""
    _require_on(poset, f)
    _require_rational(f)
    nums, d = _numerators(f.values)
    _check_polytope(poset, nums, d)
    _pl_run(_plan(poset, order), nums, d)
    return LabeledPoint._of(poset, _fractions(nums, d))


def pl_toggle(poset: Poset, f: LabeledPoint, x: int) -> LabeledPoint:
    """Reflect f(x) inside the interval its neighbors allow."""
    if not 0 <= x < poset.n:
        raise ValueError(f"unknown node id {x}")
    return _pl_sweep(poset, f, (x,))


def pl_rowmotion(
    poset: Poset, f: LabeledPoint, extension: Optional[Sequence[int]] = None
) -> LabeledPoint:
    """Toggle every element once, top of a linear extension first."""
    return _pl_sweep(poset, f, reversed(_extension(poset, extension)))


def indicator_point(poset: Poset, ideal) -> LabeledPoint:
    """0 on the ideal, 1 off it (the polytope vertex matching the ideal)."""
    lmask = _ideal_mask(poset, ideal)
    return LabeledPoint._of(
        poset, tuple([ZERO if lmask >> x & 1 else ONE for x in range(poset.n)])
    )


def ideal_of_indicator(f: LabeledPoint) -> frozenset[int]:
    members = []
    for x, v in enumerate(f.values):
        n = v.numerator
        if n not in (0, 1) or v.denominator != 1:
            raise ValueError("not an indicator point")
        if not n:
            members.append(x)
    _ideal_mask(f.poset, members)
    return frozenset(members)


def _require_nonzero(values) -> None:
    if any(v == 0 for v in values):
        raise ZeroInFieldError("birational points must be nonzero everywhere")


def _bi_run_rational(plan: list, vals: list) -> None:
    """Toggle the `Fraction`s ``vals`` along ``plan`` in place, with the
    zero checks of `_bi_run_modp`, in its order."""
    for x, lo, up in plan:
        num = sum([vals[y] for y in lo]) if lo else ONE
        recip = sum([1 / vals[z] for z in up]) if up else ONE
        if not recip:
            raise ZeroInFieldError(f"reciprocal sum vanishes toggling {x}")
        if not num:
            raise ZeroInFieldError(f"toggling {x} produced zero")
        vals[x] = num / (vals[x] * recip)


def _bi_run_modp(plan: list, a: list, b: list, p: int) -> None:
    """Toggle along ``plan`` in place, the value at x being a[x]/b[x].

    The lower-cover sum is N/D and the reciprocal upper-cover sum S/Q,
    both built with running products, so the toggle
    ``(N/D) / ((a_x/b_x)·(S/Q))`` is ``a_x ← N·b_x·Q``, ``b_x ← D·a_x·S``.
    Each value stays a ratio of units: S ≡ 0 or N ≡ 0 is the only way
    for a zero to appear, and either raises.
    """
    for x, lo, up in plan:
        if lo:
            y = lo[0]
            num, den = a[y], b[y]
            for y in lo[1:]:
                num = (num * b[y] + a[y] * den) % p
                den = den * b[y] % p
        else:
            num = den = 1
        if up:
            z = up[0]
            s, q = b[z], a[z]
            for z in up[1:]:
                s = (s * a[z] + b[z] * q) % p
                q = q * a[z] % p
            if not s:
                raise ZeroInFieldError(
                    f"reciprocal sum vanishes toggling {x} (mod {p})"
                )
        else:
            s = q = 1
        if not num:
            raise ZeroInFieldError(f"toggling {x} produced zero (mod {p})")
        a[x], b[x] = num * b[x] * q % p, den * a[x] * s % p


def _normalised(a: list, b: list, p: int) -> tuple:
    """The residues a[i]/b[i], with one inverse for all of them."""
    prefix = [1]
    for v in b:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(a)
    for i in range(len(a) - 1, -1, -1):
        # here inv = 1 / (b[0] ... b[i]) and prefix[i] = b[0] ... b[i-1]
        out[i] = a[i] * prefix[i] * inv % p
        inv = inv * b[i] % p
    return tuple(out)


def _bi_sweep(poset: Poset, f: LabeledPoint, order: Iterable[int]) -> LabeledPoint:
    """Check that f is nonzero everywhere, then toggle along ``order``."""
    _require_on(poset, f)
    _require_nonzero(f.values)
    plan = _plan(poset, order)
    if f.mode == "rational":
        vals = list(f.values)
        _bi_run_rational(plan, vals)
        return LabeledPoint._of(poset, tuple(vals))
    a, b = list(f.values), [1] * poset.n
    _bi_run_modp(plan, a, b, f.p)
    return LabeledPoint._of(poset, _normalised(a, b, f.p), "modp", f.p)


def birational_toggle(poset: Poset, f: LabeledPoint, x: int) -> LabeledPoint:
    """g(x) = (sum of lower covers) / (f(x) * sum of upper reciprocals)."""
    if not 0 <= x < poset.n:
        raise ValueError(f"unknown node id {x}")
    return _bi_sweep(poset, f, (x,))


def birational_rowmotion(
    poset: Poset, f: LabeledPoint, extension: Optional[Sequence[int]] = None
) -> LabeledPoint:
    """Toggle every element once, top of a linear extension first."""
    return _bi_sweep(poset, f, reversed(_extension(poset, extension)))


def random_pl_point(poset: Poset, rng: random.Random) -> LabeledPoint:
    """Strictly order-preserving interior point with small random slacks."""
    lo, hi = RANDOM_VALUE_RANGE
    weights = [rng.randint(lo, hi) for _ in range(poset.n)]
    total = sum(weights) + 1
    vals = []
    for x in range(poset.n):
        below = sum(w for y, w in enumerate(weights) if poset.le(y, x))
        vals.append(Fraction(below, total))
    return LabeledPoint._of(poset, tuple(vals))


def random_birational_point(
    poset: Poset, rng: random.Random, p: Optional[int] = None
) -> LabeledPoint:
    """num/den per element, both uniform on RANDOM_VALUE_RANGE; the mod-p
    variant maps the same draws through num * den^-1."""
    if p is not None:
        _require_prime(p)
    lo, hi = RANDOM_VALUE_RANGE

    def draw() -> tuple[int, int]:
        for _ in range(100):
            n, d = rng.randint(lo, hi), rng.randint(lo, hi)
            if p is None or (n % p and d % p):
                return n, d
        raise ZeroInFieldError(f"cannot draw values coprime to {p}")

    draws = [draw() for _ in range(poset.n)]
    if p is None:
        return LabeledPoint._of(poset, tuple(Fraction(n, d) for n, d in draws))
    return LabeledPoint._of(
        poset, tuple(n * pow(d, -1, p) % p for n, d in draws), "modp", p
    )


@dataclass(frozen=True)
class OrderSearchResult:
    outcome: str  # "finite-order" | "no-repeat"
    order: Optional[int]
    iterations_used: int  # steps taken: the order, max_iter, or fewer at the bit cap
    kind: str  # "pl" | "birational"
    mode: str  # "rational" | "modp:P"
    restarts: int = 0
    # exact birational only: the largest num/den bit length seen
    max_bits: Optional[int] = None


def _bits_of(vals) -> int:
    return max(
        max(v.numerator.bit_length(), v.denominator.bit_length()) for v in vals
    )


def _first_return(
    plan: list, start: tuple, max_iter: int
) -> tuple[Optional[int], int, int]:
    """The first i <= max_iter at which exact birational rowmotion along
    ``plan`` brings ``start`` back (None if there is none), the steps
    taken and the largest bit length seen.  The search stops after the
    step that takes a coordinate past `MAX_EXACT_BITS` bits.  The toggles
    keep a nonzero start nonzero."""
    _require_nonzero(start)
    first, vals = list(start), list(start)
    bits = _bits_of(start)
    for i in range(1, max_iter + 1):
        _bi_run_rational(plan, vals)
        bits = max(bits, _bits_of(vals))
        if vals == first:
            return i, i, bits
        if bits > MAX_EXACT_BITS:
            return None, i, bits
    return None, max_iter, bits


def _first_return_pl(
    poset: Poset, plan: list, start: tuple, max_iter: int
) -> Optional[int]:
    """`_first_return` for PL rowmotion, run on the numerators over the
    start's common denominator: the start is checked once, and the
    iterate is the start once their numerators agree."""
    nums, d = _numerators(start)
    _check_polytope(poset, nums, d)
    first = list(nums)
    for i in range(1, max_iter + 1):
        _pl_run(plan, nums, d)
        if nums == first:
            return i
    return None


def _first_return_modp(
    plan: list, start: tuple, p: int, max_iter: int
) -> Optional[int]:
    """`_first_return` for mod-p birational rowmotion, run on projective
    pairs: the iterate a/b is the start once a ≡ start·b everywhere."""
    _require_nonzero(start)
    a, b = list(start), [1] * len(start)
    first = start[0]  # a poset has an element; test it alone first
    for i in range(1, max_iter + 1):
        _bi_run_modp(plan, a, b, p)
        if a[0] == first * b[0] % p and all(
            u == v * w % p for u, v, w in zip(a, start, b)
        ):
            return i
    return None


def order_search(
    poset: Poset,
    f0: Optional[LabeledPoint] = None,
    max_iter: int = DEFAULT_MAX_ITER,
    kind: str = "birational",
    p: Optional[int] = None,
    rng: Optional[random.Random] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> OrderSearchResult:
    """First return time to the start under repeated rowmotion.

    Iterates are compared to the start only: the maps are invertible, so
    the first return is the order of the start.  An exact birational
    search also gives up after the step that takes a coordinate past
    `MAX_EXACT_BITS` bits.  In mod-p mode a vanishing
    denominator is an artifact of the field; the search restarts with
    fresh random values, up to `max_retries` times.  A modulus ``p`` must
    be prime, and a start point given with it must live mod ``p`` too.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if kind not in ("pl", "birational"):
        raise ValueError(f"unknown rowmotion kind {kind!r}")
    if f0 is not None:
        _require_on(poset, f0)
    plan = _plan(poset, reversed(_extension(poset, None)))
    if kind == "pl":
        if f0 is not None:
            _require_rational(f0)
        if p is not None:
            raise ValueError("piecewise-linear search runs over the rationals")
        make = random_pl_point
    else:
        if p is not None:
            _require_prime(p)
        if f0 is not None:
            if p is not None and p != f0.p:
                raise ValueError("start point and search disagree on the modulus")
            p = f0.p
        make = lambda ps, r: random_birational_point(ps, r, p)
    if f0 is None:
        if rng is None:
            raise ValueError("need a start point or an rng to draw one")
        f0 = make(poset, rng)
    restarts = 0
    while True:
        used, bits = max_iter, None
        try:
            if kind == "pl":
                found = _first_return_pl(poset, plan, f0.values, max_iter)
            elif f0.mode == "modp":
                found = _first_return_modp(plan, f0.values, f0.p, max_iter)
            else:
                found, used, bits = _first_return(plan, f0.values, max_iter)
        except ZeroInFieldError:
            if f0.mode != "modp" or rng is None:
                raise
            if restarts >= max_retries:
                raise RetriesExhaustedError(
                    f"gave up after {max_retries} restarts hitting zeros mod {f0.p}"
                ) from None
            restarts += 1
            f0 = make(poset, rng)
            continue
        outcome = "no-repeat" if found is None else "finite-order"
        used = used if found is None else found
        return OrderSearchResult(
            outcome, found, used, kind, f0.mode_string(), restarts, bits
        )
