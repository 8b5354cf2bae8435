"""Command-line front end.

All structured output is JSON (dicts in fixed insertion order, two-space
indent) or CSV with plain "\n" line ends, so identical invocations are
byte-identical; wall-clock timing is only emitted under --timing.  Exit
codes: 0 success, 1 verification mismatch, 2 usage error, 3 budget or
arithmetic failure, 4 internal error (any other exception; the traceback
goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
import traceback
from fractions import Fraction
from typing import Optional

from .continuous import (
    DEFAULT_MAX_ITER,
    order_search,
    random_birational_point,
    random_pl_point,
)
from .errors import (
    BudgetExceededError,
    RetriesExhaustedError,
    SpecParseError,
    ZeroInFieldError,
)
from .families import descriptor_string, make_family, parse_family, verify_family
from .poset import Poset, RootedTree, _bits, chain_product, parse_tree
from .rowmotion import DEFAULT_ANTICHAIN_BUDGET, Orbit, all_orbits
from .stats import (
    _term_sums,
    check_homomesy,
    check_homometry,
    orbit_sum,
    parse_statistic,
)
from .tiling import render_tiling, tile_counts, tiling_of_orbit

__all__ = ["main"]

USAGE_ERROR = 2
RESOURCE_ERROR = 3
INTERNAL_ERROR = 4


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for anything we can type on a command line."""
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treerow", description="rowmotion orbits, tilings, and statistics"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser, grid: bool = False) -> None:
        p.add_argument("--tree", help="tree in nested-parenthesis notation")
        p.add_argument("--family", help="family descriptor, e.g. star:3,3,2")
        if grid:
            p.add_argument("--grid", help="grid poset PxQ, e.g. 2x3")
        p.add_argument(
            "--format",
            default=None,
            choices=["json", "csv", "ascii", "svg"],
            help="output format",
        )
        p.add_argument("--budget", type=int, default=DEFAULT_ANTICHAIN_BUDGET)

    for verb in ("orbits", "tiling", "render", "verify"):
        add_common(sub.add_parser(verb))
    for verb in ("stats", "homomesy", "homometry"):
        p = sub.add_parser(verb)
        add_common(p)
        p.add_argument("--stat", required=True, help="e.g. chi or 3*chi_x:4+1*chi_x:0")
    for verb in ("birational", "pl"):
        p = sub.add_parser(verb)
        add_common(p, grid=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
        p.add_argument(
            "--mode", default="rational", help="rational or modp:P (P prime)"
        )
        p.add_argument("--timing", action="store_true", help="emit wall time")
    return parser


def _input_poset(args) -> tuple[Poset, str]:
    """Resolve the one input source to (poset, printable descriptor)."""
    sources = [
        s
        for s in ("tree", "family", "grid")
        if getattr(args, s, None) is not None
    ]
    if len(sources) != 1:
        raise SpecParseError("exactly one of --tree/--family/--grid is required")
    if sources[0] == "tree":
        return parse_tree(args.tree), args.tree
    if sources[0] == "family":
        desc = parse_family(args.family)
        return make_family(desc), descriptor_string(desc)
    p, sep, q = args.grid.partition("x")
    if not sep or not p.isdigit() or not q.isdigit():
        raise SpecParseError(f"grid wants PxQ, got {args.grid!r}")
    return chain_product(int(p), int(q)), f"grid:{int(p)}x{int(q)}"


def _input_tree(args) -> tuple[RootedTree, str]:
    poset, name = _input_poset(args)
    if not isinstance(poset, RootedTree):
        raise SpecParseError("this command needs a rooted tree")
    return poset, name


def _orbit_record(orbit: Orbit, oid: int) -> dict:
    members = orbit.as_id_lists()
    return {"id": oid, "size": orbit.size, "delta": orbit.delta, "members": members}


def _emit_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _format(args, default: str, allowed: tuple[str, ...]) -> str:
    fmt = args.format or default
    if fmt not in allowed:
        raise SpecParseError(
            f"format {fmt!r} not supported here (choose from {', '.join(allowed)})"
        )
    return fmt


def _run_orbits(args) -> tuple[str, int]:
    tree, name = _input_tree(args)
    orbits = all_orbits(tree, budget=args.budget)
    fmt = _format(args, "json", ("json", "csv"))
    if fmt == "csv":
        rows = [
            (i, o.size, o.delta, " ".join(map(str, _bits(o.masks[0]))))
            for i, o in enumerate(orbits, start=1)
        ]
        return _emit_csv(("orbit", "size", "delta", "representative"), rows), 0
    doc = {
        "tree": name,
        "antichains": tree.count_antichains(),
        "orbits": [_orbit_record(o, i) for i, o in enumerate(orbits, start=1)],
    }
    return _emit_json(doc), 0


def _tiling_record(tree: RootedTree, orbit: Orbit, oid: int) -> dict:
    tiling = tiling_of_orbit(tree, orbit)
    counts = tile_counts(tiling)
    return {
        "orbit": oid,
        "columns": tiling.columns,
        "rows": tiling.rows,
        "tiles": [
            {
                "color": t.color,
                "interval": list(t.interval),
                "start": t.start,
                "width": t.width,
            }
            for t in tiling.tiles
        ],
        "tile_counts": {
            f"{lo}-{hi}": list(mc) for (lo, hi), mc in sorted(counts.items())
        },
    }


def _run_tiling(args) -> tuple[str, int]:
    tree, name = _input_tree(args)
    orbits = all_orbits(tree, budget=args.budget)
    _format(args, "json", ("json",))
    doc = {
        "tree": name,
        "tilings": [
            _tiling_record(tree, o, i) for i, o in enumerate(orbits, start=1)
        ],
    }
    return _emit_json(doc), 0


def _run_render(args) -> tuple[str, int]:
    tree, name = _input_tree(args)
    orbits = all_orbits(tree, budget=args.budget)
    fmt = _format(args, "ascii", ("ascii", "svg"))
    parts = []
    for i, orbit in enumerate(orbits, start=1):
        tiling = tiling_of_orbit(tree, orbit)
        if fmt == "ascii":
            parts.append(f"# orbit {i}: size {orbit.size}, delta {orbit.delta}")
        parts.append(render_tiling(tiling, fmt).rstrip("\n"))
    return "\n".join(parts) + "\n", 0


def _run_stats(args) -> tuple[str, int]:
    tree, name = _input_tree(args)
    stat = parse_statistic(args.stat)
    orbits = all_orbits(tree, budget=args.budget)
    rows = []
    for i, o in enumerate(orbits, start=1):
        total = sum(_term_sums(tree, stat, o.masks))
        rows.append((i, o.size, o.delta, total, Fraction(total, o.size)))
    fmt = _format(args, "json", ("json", "csv"))
    if fmt == "csv":
        return (
            _emit_csv(
                ("orbit", "size", "delta", "sum", "average"),
                [(i, s, d, t, str(a)) for i, s, d, t, a in rows],
            ),
            0,
        )
    doc = {
        "tree": name,
        "stat": stat.spec(),
        "orbits": [
            {
                "id": i,
                "size": s,
                "delta": d,
                "sum": t,
                "average": str(a),
            }
            for i, s, d, t, a in rows
        ],
    }
    return _emit_json(doc), 0


def _run_homomesy(args) -> tuple[str, int]:
    tree, name = _input_tree(args)
    stat = parse_statistic(args.stat)
    verdict = check_homomesy(tree, stat, budget=args.budget)
    _format(args, "json", ("json",))
    doc = {"tree": name, "stat": stat.spec(), "homomesic": verdict.is_homomesic}
    if verdict.is_homomesic:
        doc["constant"] = str(verdict.constant)
    else:
        a, b = verdict.witness
        doc["witness"] = {
            "orbits": [_orbit_record(a, 1), _orbit_record(b, 2)],
            "averages": [
                str(Fraction(orbit_sum(tree, stat, o), o.size))
                for o in (a, b)
            ],
        }
    return _emit_json(doc), 0


def _run_homometry(args) -> tuple[str, int]:
    tree, name = _input_tree(args)
    stat = parse_statistic(args.stat)
    verdict = check_homometry(tree, stat, budget=args.budget)
    _format(args, "json", ("json",))
    doc = {"tree": name, "stat": stat.spec(), "homometric": verdict.is_homometric}
    if verdict.is_homometric:
        doc["table"] = {str(k): v for k, v in verdict.class_table.items()}
    else:
        a, b = verdict.witness
        doc["witness"] = {
            "orbits": [_orbit_record(a, 1), _orbit_record(b, 2)],
            "sums": [orbit_sum(tree, stat, o) for o in (a, b)],
        }
    return _emit_json(doc), 0


def _run_verify(args) -> tuple[str, int]:
    if args.family is None or args.tree is not None:
        raise SpecParseError("verify works on --family descriptors")
    desc = parse_family(args.family)
    report = verify_family(desc, budget=args.budget)
    _format(args, "json", ("json",))
    doc = {
        "family": report.descriptor,
        "ok": report.ok,
        "classes": [
            {
                "size": d.size,
                "delta": d.delta,
                "chi": d.chi,
                "hatchi": d.hatchi,
                "predicted": d.predicted_count,
                "observed": d.observed_count,
                "ok": d.ok,
            }
            for d in report.diffs
        ],
        "antichains": {
            "predicted": report.predicted_total,
            "observed": report.observed_total,
        },
    }
    if report.note is not None:
        doc["note"] = report.note
    return _emit_json(doc), 0 if report.ok else 1


def _run_continuous(args, kind: str) -> tuple[str, int]:
    poset, name = _input_poset(args)
    if args.mode == "rational":
        p = None
    elif args.mode.startswith("modp:"):
        p = int(args.mode[5:])
        if not _is_prime(p):
            raise SpecParseError(f"{p} is not prime")
        if kind == "pl":
            raise SpecParseError("pl runs over the rationals only")
    else:
        raise SpecParseError(f"unknown mode {args.mode!r}")
    if args.max_iter < 1:
        raise SpecParseError("--max-iter must be positive")
    rng = random.Random(args.seed)
    start = (
        random_pl_point(poset, rng)
        if kind == "pl"
        else random_birational_point(poset, rng, p)
    )
    t0 = time.perf_counter()
    result = order_search(
        poset, start, max_iter=args.max_iter, kind=kind, p=p, rng=rng
    )
    elapsed = time.perf_counter() - t0
    doc = {
        "poset": name,
        "kind": result.kind,
        "mode": result.mode,
        "seed": args.seed,
        "max_iter": args.max_iter,
        "outcome": result.outcome,
        "order": result.order,
        "iterations_used": result.iterations_used,
        "restarts": result.restarts,
        "max_bits": result.max_bits,
    }
    if args.timing:
        doc["wall_time_ms"] = round(elapsed * 1000)
    return _emit_json(doc), 0


_DISPATCH = {
    "orbits": _run_orbits,
    "tiling": _run_tiling,
    "render": _run_render,
    "stats": _run_stats,
    "homomesy": _run_homomesy,
    "homometry": _run_homometry,
    "verify": _run_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb in ("birational", "pl"):
            out, code = _run_continuous(args, args.verb)
        else:
            out, code = _DISPATCH[args.verb](args)
    except (SpecParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (BudgetExceededError, ZeroInFieldError, RetriesExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return INTERNAL_ERROR
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
