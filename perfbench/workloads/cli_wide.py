"""CLI verbs run in-process through ``treerow.cli.main``, stdout captured.

One operation per verb: ``verify`` and ``homometry`` (chi and hatchi) on
each descriptor of the family survey sweep, a few heavy verbs on zipper
and star trees with tens of thousands of antichains, and two descriptors
that the parser must refuse.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import product
from math import lcm, prod

import oracle
import treerow.cli

from . import Op
from .common import raised

SWEEP = (
    [f"star:{','.join(map(str, t))}" for n in (1, 2, 3) for t in product((2, 3, 4), repeat=n)]
    + [f"estar:b={b};{','.join(map(str, t))}" for b in (1, 2, 3) for t in product((2, 3), repeat=2)]
    + ["threeleaf:1,2,3,2,1", "threeleaf:2,2,2,1,1", "threeleaf:1,3,3,2,2"]
    + [f"tk:{k}" for k in (2, 3, 4)]
    + [f"comb:{n}" for n in range(1, 7)]
    + [f"ecomb:n={n},k={k}" for n in (1, 2, 3, 4) for k in (2, 3)]
    + [f"zipper:{n}" for n in (1, 2, 3)]
    + ["cbt:2", "cbt:3"]
)
HEAVY_ZIPPER = "zipper:6"
HEAVY_STAR = (5, 7, 8, 9, 11)
# descriptors with parameters the grammar does not allow: the CLI must
# refuse them with the usage exit code
MALFORMED = ("tk:3,9", "estar:b=2,7;3,3")
USAGE_ERROR = 2


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = treerow.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit this way
            code = exc.code
    return code, out.getvalue()


def bytes_out(out):
    return {"cli.bytes_out": len(out[1].encode()) if isinstance(out, tuple) else 0}


def permuted(desc, rng):
    """The same tree drawn another way: star legs and threeleaf fork
    branches in a seeded order."""
    name, _, rest = desc.partition(":")
    if name == "star":
        legs = rest.split(",")
        rng.shuffle(legs)
        return "star:" + ",".join(legs)
    if name == "estar":
        b, legs = rest.split(";")
        legs = legs.split(",")
        rng.shuffle(legs)
        return f"estar:{b};" + ",".join(legs)
    if name == "threeleaf":
        a, b, c, d, e = rest.split(",")
        if rng.random() < 0.5:
            c, d = d, c
        return f"threeleaf:{a},{b},{c},{d},{e}"
    return desc


class References:
    """Reference orbit profiles, computed once per tree spec."""

    def __init__(self):
        self.trees = {}
        self.profiles = {}

    def tree(self, spec):
        if spec not in self.trees:
            self.trees[spec] = oracle.Tree(oracle.parse_parens(spec))
        return self.trees[spec]

    def profile(self, spec):
        if spec not in self.profiles:
            self.profiles[spec] = self.tree(spec).profile()
        return self.profiles[spec]


def _parsed(out):
    problem = raised(out)
    if problem:
        return None, problem
    code, text = out
    if code not in (0, 1):
        return None, f"exit code {code}"
    try:
        return (code, json.loads(text)), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def check_verify(refs, desc, out):
    got, problem = _parsed(out)
    if problem:
        return problem
    code, doc = got
    spec = oracle.family_tree(desc)
    total = refs.tree(spec).count_antichains()
    profile = refs.profile(spec)
    if code != 0 or doc["family"] != desc or doc["ok"] is not True:
        return f"verify {desc} reports a mismatch (exit {code})"
    if doc["antichains"] != {"predicted": total, "observed": total}:
        return f"antichain totals {doc['antichains']}, reference {total}"
    if desc.startswith("cbt:"):
        note = doc.get("note", "")
        broken = desc == "cbt:3"
        if doc["classes"] or note.endswith("NOT confirmed") == broken:
            return f"cbt note {note!r} is wrong"
        return None
    observed = {}
    for c in doc["classes"]:
        if c["predicted"] != c["observed"] or c["ok"] is not True:
            return "a class disagrees with its prediction"
        if c["observed"]:
            observed[(c["size"], c["delta"], c["chi"], c["hatchi"])] = c["observed"]
    if observed != profile:
        return "observed classes differ from the reference orbits"
    if desc.startswith("star:"):
        alphas = [int(a) for a in desc[5:].split(",")]
        l = lcm(*alphas)
        sizes = sorted(size for (size, _, _, _), k in profile.items() for _ in range(k))
        want = sorted([l + 1] + [l] * (prod(alphas) // l - 1))
        if sizes != want:
            return f"star orbit sizes {sizes[:4]}..., not lcm and lcm+1"
    return None


def _sums_by_size(profile, stat):
    col = 2 if stat == "chi" else 3
    out = {}
    for key, count in profile.items():
        out.setdefault(key[0], set()).add(key[col])
    return out


def check_homometry(refs, spec, stat, out):
    got, problem = _parsed(out)
    if problem:
        return problem
    code, doc = got
    if code != 0 or doc["tree"] != spec or doc["stat"] != f"1*{stat}":
        return "homometry echoes the wrong input"
    ref = refs.tree(spec)
    by_size = _sums_by_size(refs.profile(spec), stat)
    homometric = all(len(v) == 1 for v in by_size.values())
    if doc["homometric"] is not homometric:
        return f"homometric is {doc['homometric']}, reference {homometric}"
    if homometric:
        want = {str(size): next(iter(v)) for size, v in sorted(by_size.items())}
        return None if doc["table"] == want else "homometry table is wrong"
    worst = min(size for size, v in by_size.items() if len(v) > 1)
    orbits = [[oracle.mask_of(a) for a in rec["members"]] for rec in doc["witness"]["orbits"]]
    for orbit in orbits:
        problem = ref.orbit_problem(orbit)
        if problem:
            return f"witness: {problem}"
        if len(orbit) != worst:
            return "witness orbits are not of the smallest offending size"
    sums = [ref.orbit_sums(o)[0 if stat == "chi" else 1] for o in orbits]
    if doc["witness"]["sums"] != sums or sums[0] == sums[1]:
        return "witness sums are wrong"
    if spec == oracle.family_tree("cbt:3") and stat == "hatchi" and set(sums) != {26, 35}:
        return f"cbt:3 hatchi witness sums {sums}, not {{26, 35}}"
    return None


def check_orbits(refs, spec, out):
    got, problem = _parsed(out)
    if problem:
        return problem
    code, doc = got
    ref = refs.tree(spec)
    total = ref.count_antichains()
    if code != 0 or doc["antichains"] != total:
        return f"antichains {doc.get('antichains')}, reference {total}"
    seen = set()
    for i, rec in enumerate(doc["orbits"], start=1):
        orbit = [oracle.mask_of(a) for a in rec["members"]]
        problem = ref.orbit_problem(orbit)
        if problem:
            return f"orbit {i}: {problem}"
        if rec["id"] != i or rec["size"] != len(orbit) or rec["delta"] != int(0 in orbit):
            return f"orbit {i}: wrong id, size or delta"
        if min(rec["members"]) != rec["members"][0]:
            return f"orbit {i} does not start at its least member"
        seen.update(orbit)
    if len(seen) != total or sum(r["size"] for r in doc["orbits"]) != total:
        return "orbits do not partition the antichains"
    return None


def check_stats(refs, spec, out):
    got, problem = _parsed(out)
    if problem:
        return problem
    code, doc = got
    rows = {}
    for rec in doc["orbits"]:
        if rec["average"] != str(Fraction(rec["sum"], rec["size"])):
            return "an orbit average is not sum/size"
        key = (rec["size"], rec["delta"], rec["sum"])
        rows[key] = rows.get(key, 0) + 1
    want = {}
    for (size, delta, _, hatchi), k in refs.profile(spec).items():
        want[(size, delta, hatchi)] = want.get((size, delta, hatchi), 0) + k
    return None if code == 0 and rows == want else "orbit hatchi sums differ from the reference"


def check_homomesy(refs, spec, out):
    got, problem = _parsed(out)
    if problem:
        return problem
    code, doc = got
    ref = refs.tree(spec)
    averages = {Fraction(chi, size) for size, _, chi, _ in refs.profile(spec)}
    if code != 0 or doc["homomesic"] is not (len(averages) == 1):
        return "homomesy verdict differs from the reference"
    if len(averages) == 1:
        return None if doc["constant"] == str(averages.pop()) else "wrong constant"
    orbits = [[oracle.mask_of(a) for a in rec["members"]] for rec in doc["witness"]["orbits"]]
    got_avgs = []
    for orbit in orbits:
        problem = ref.orbit_problem(orbit)
        if problem:
            return f"witness: {problem}"
        got_avgs.append(str(Fraction(ref.orbit_sums(orbit)[0], len(orbit))))
    if doc["witness"]["averages"] != got_avgs or got_avgs[0] == got_avgs[1]:
        return "witness averages are wrong"
    return None


def check_refused(out):
    problem = raised(out)
    if problem:
        return problem
    code, _ = out
    return None if code == USAGE_ERROR else f"accepted (exit {code}), must exit {USAGE_ERROR}"


def inputs(seed):
    """(name, argv, check, known fault) of each operation, in a seeded order."""
    rng = random.Random(seed)
    refs = References()
    verbs = []
    for desc in SWEEP:
        desc = permuted(desc, rng)
        spec = oracle.reembed(oracle.family_tree(desc), rng)
        verbs.append((
            f"verify {desc}", ["verify", "--family", desc],
            lambda o, d=desc: check_verify(refs, d, o), None,
        ))
        for stat in ("chi", "hatchi"):
            verbs.append((
                f"homometry {desc} {stat}", ["homometry", "--tree", spec, "--stat", stat],
                lambda o, s=spec, st=stat: check_homometry(refs, s, st, o), None,
            ))
    zipper = oracle.reembed(oracle.family_tree(HEAVY_ZIPPER), rng)
    legs = list(HEAVY_STAR)
    rng.shuffle(legs)
    star = "star:" + ",".join(map(str, legs))
    verbs += [
        (f"verify {HEAVY_ZIPPER}", ["verify", "--family", HEAVY_ZIPPER],
         lambda o: check_verify(refs, HEAVY_ZIPPER, o), None),
        (f"orbits {HEAVY_ZIPPER}", ["orbits", "--tree", zipper],
         lambda o: check_orbits(refs, zipper, o), None),
        (f"stats {HEAVY_ZIPPER} hatchi", ["stats", "--tree", zipper, "--stat", "hatchi"],
         lambda o: check_stats(refs, zipper, o), None),
        (f"homomesy {star} chi", ["homomesy", "--family", star, "--stat", "chi"],
         lambda o: check_homomesy(refs, oracle.family_tree(star), o), None),
    ]
    for desc in MALFORMED:
        verbs.append((
            f"verify {desc}", ["verify", "--family", desc], check_refused,
            "parse_family ignores the extra parameters and runs a smaller tree",
        ))
    rng.shuffle(verbs)
    return verbs


def ops(verbs):
    return [
        Op(name, lambda a=argv: cli(a), check, known_fault, bytes_out)
        for name, argv, check, known_fault in verbs
    ]
