#!/usr/bin/env python3
"""Sweep the named tree families and diff closed-form orbit tables
against enumeration.

The observed table of each tree comes from one orbit build
(`verify_family`): the hatchi sums are carried through the build and chi
is counted off the members' masks.

Prints one line per family descriptor and a per-class table for any
mismatch.  Exit status 1 if anything disagrees, so the script doubles
as a slow-running sanity check:

    python3 scripts/survey_families.py
    python3 scripts/survey_families.py --only star,estar --budget 200000
"""

import argparse
import sys
from functools import partial
from itertools import product

from treerow import BudgetExceededError, parse_family, verify_family
from treerow.cli import _decimal

DEFAULT_SWEEP = {
    "star": [
        f"star:{','.join(map(str, t))}"
        for n in (1, 2, 3)
        for t in product((2, 3, 4), repeat=n)
    ],
    "estar": [
        f"estar:b={b};{','.join(map(str, t))}"
        for b in (1, 2, 3)
        for t in product((2, 3), repeat=2)
    ],
    "threeleaf": ["threeleaf:1,2,3,2,1", "threeleaf:2,2,2,1,1", "threeleaf:1,3,3,2,2"],
    "tk": [f"tk:{k}" for k in (2, 3, 4)],
    "comb": [f"comb:{n}" for n in range(1, 13)],
    "ecomb": [f"ecomb:n={n},k={k}" for n in (1, 2, 3, 4) for k in (2, 3)]
    + [f"ecomb:n={n},k={k}" for n in (2, 3, 4, 5) for k in (4, 5, 6)],
    "zipper": [f"zipper:{n}" for n in range(1, 7)],
    "cbt": ["cbt:2", "cbt:3", "cbt:4"],
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--only",
        help="comma-separated family names to sweep (default: all)",
    )
    ap.add_argument(
        "--budget",
        type=partial(_decimal, low=1),
        default=10**6,
        help="antichain enumeration budget per tree (default 1e6)",
    )
    args = ap.parse_args(argv)

    names = list(DEFAULT_SWEEP)
    if args.only:
        names = [s.strip() for s in args.only.split(",")]
        unknown = [s for s in names if s not in DEFAULT_SWEEP]
        if unknown:
            ap.error(f"unknown families: {', '.join(unknown)}")

    failures = 0
    for name in names:
        for spec in DEFAULT_SWEEP[name]:
            try:
                report = verify_family(parse_family(spec), budget=args.budget)
            except BudgetExceededError as exc:
                print(f"{spec:28s} SKIP  ({exc})")
                continue
            status = "ok" if report.ok else "MISMATCH"
            line = (
                f"{spec:28s} {status:8s} "
                f"antichains={report.observed_total}"
            )
            if report.note:
                line += f"  [{report.note}]"
            print(line)
            if not report.ok:
                failures += 1
                for d in report.diffs:
                    if not d.ok:
                        print(
                            f"    class (size={d.size}, delta={d.delta}, "
                            f"chi={d.chi}, hatchi={d.hatchi}): "
                            f"predicted {d.predicted_count}, "
                            f"observed {d.observed_count}"
                        )
    if failures:
        print(f"\n{failures} descriptor(s) disagreed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
