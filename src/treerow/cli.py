"""Command-line front end.

All structured output is JSON (dicts in fixed insertion order, two-space
indent) or CSV with plain "\n" line ends, so identical invocations are
byte-identical; wall-clock timing is only emitted under --timing.  Exit
codes: 0 success, 1 verification mismatch, 2 usage error, 3 budget or
arithmetic failure, 4 internal error (any other exception; the traceback
goes to stderr).

JSON is written by a small writer of its own, byte for byte what
``json.dumps(obj, indent=2)`` writes (the tests hold it to that).  With
``indent`` set, ``json.dumps`` always runs the pure-Python encoder, one
call per value: on ``orbits`` for a tree with tens of thousands of
antichains that took about half of the verb's time.  The writer joins
every piece once at the end.  Orbit records hold the ``Orbit`` itself,
whose members are written straight from their masks, with no id lists:
each mask is read a byte at a time, and the ids of a byte value at a byte
position are joined into text on first use and kept for the rest of the
document, one table per line indent (``_ByteTexts``).  A member is then
at most ceil(n/8) lookups and one join.  The tables live for one
document only, so a shell run gains what an in-process call gains.

A clean verb call builds no parser: ``_read_args`` reads the argument
list straight from the verb's row of the option table, exact option
names with their values, types, choices and defaults, into the
namespace argparse would give.  Building the full parser, nine
subparsers and their options, took about 1.5 ms of a small verb's
1.7-2.6 ms, one verb's parser about 0.15 ms, and the reader takes 2-5
us (2-core Xeon VM, Python 3.11).  Anything the reader is not sure of
(an abbreviation, ``--opt=value``, ``--``, ``-h``, a value starting with
``-``, a stray token, a value its type refuses, a missing required
option) goes to the full parser, built from the same table, so help,
usage errors and exit codes are argparse's own, word for word.  Each
call does the same work and keeps nothing, so a shell run saves as much
as an in-process call.

``_VERBS`` is the one verb table: each verb's row names its handler, its
options and the formats it writes, the default first.  Usage is settled
before any enumeration: ``main`` sets or refuses ``--format`` from the
row before the handler runs, ``poset._decimal`` reads every integer
(argparse refuses a bad option value), ``--stat`` and ``--mode`` are
read before the tree is built, and a statistic's node ids and the budget
are checked before the first antichain is counted.  So a usage error
exits 2 even on a tree far too large to enumerate.

A shell run is mostly start-up: loading the package took longer than
any small verb.  This module imports ``errors``, ``poset`` and
``rowmotion``, which every verb uses, and each handler imports the other
layers it needs when it runs: ``tiling`` for ``tiling`` and ``render``,
``stats`` for ``stats``, ``homomesy`` and ``homometry``, ``families``
for ``verify`` and any ``--family`` input, ``continuous`` for
``birational`` and ``pl``.  The default of
``--max-iter`` is filled in by the lifts' handler, so no other verb's
parser loads ``continuous``; ``traceback`` loads only on exit 4, and CSV
is a plain join.  ``python3 -m treerow.cli homometry --tree
"((())(())())" --stat chi``, medians of 21 interleaved shell runs with
``PYTHONDONTWRITEBYTECODE=1`` (each run compiles what it loads), went
from 128 to 93 ms while ``python3 -c pass`` took 42 ms, and from 169 to
126 ms in a slower phase of the machine (``pass``: 64 ms); with the
bytecode cached, from 116 to 92 ms (2-core VM, Python 3.11.7).
"""

from __future__ import annotations

import argparse
import sys
import time
from math import gcd
from operator import getitem
from typing import TYPE_CHECKING, Optional

try:
    # the C encoder alone: importing json.encoder loads the decoder too
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii

from .errors import (
    BudgetExceededError,
    RetriesExhaustedError,
    SpecParseError,
    ZeroInFieldError,
)
from . import poset
from .poset import Poset, _bits, chain_product, parse_tree
from .rowmotion import DEFAULT_ANTICHAIN_BUDGET, Orbit, all_orbits

if TYPE_CHECKING:
    from .tiling import Tiling

__all__ = ["main"]

USAGE_ERROR = 2
RESOURCE_ERROR = 3
INTERNAL_ERROR = 4


def _decimal(text: str, low: int = 0) -> int:
    """An integer option: `poset._decimal`, its refusal an argparse one."""
    try:
        return poset._decimal(text, low)
    except SpecParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# The options of each verb, in the order its help lists them.
_OPTIONS = {
    "--tree": {"help": "tree in nested-parenthesis notation"},
    "--family": {"help": "family descriptor, e.g. star:3,3,2"},
    "--grid": {"help": "grid poset PxQ, e.g. 2x3"},
    "--format": {
        "default": None,
        "choices": ["json", "csv", "ascii", "svg"],
        "help": "output format",
    },
    "--budget": {"type": _decimal, "default": DEFAULT_ANTICHAIN_BUDGET},
    "--stat": {"required": True, "help": "e.g. chi or 3*chi_x:4+1*chi_x:0"},
    "--seed": {"type": _decimal, "default": 0},
    # None stands for continuous.DEFAULT_MAX_ITER, read by the lifts' handler
    "--max-iter": {"type": _decimal, "default": None},
    "--mode": {"default": "rational", "help": "rational or modp:P (P prime)"},
    "--timing": {"action": "store_true", "help": "emit wall time"},
}
_TREE_VERB = ("--tree", "--family", "--format", "--budget")
_STAT_VERB = _TREE_VERB + ("--stat",)
# the lifts never enumerate antichains, so they take no --budget
_LIFT_VERB = (
    "--tree",
    "--family",
    "--grid",
    "--format",
    "--seed",
    "--max-iter",
    "--mode",
    "--timing",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treerow", description="rowmotion orbits, tilings, and statistics"
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, options, _) in _VERBS.items():
        verb_parser = sub.add_parser(verb)
        for name in options:
            verb_parser.add_argument(name, **_OPTIONS[name])
    return parser


def _read_args(verb: str, tokens: list[str]) -> Optional[argparse.Namespace]:
    """``tokens`` read against ``verb``'s options as ``_build_parser()``
    reads them, or None when that parser must decide.

    Each token is an exact option name of the verb; ``--timing`` takes no
    value and every other option the next token, which must not start
    with ``-``.  Values go through the option's ``type`` and ``choices``,
    and a required option must be given.  Anything else (an abbreviation,
    ``--opt=value``, ``--``, ``-h``, a value such as ``-1``, a stray token,
    a value the type refuses, a missing ``--stat``) returns None.
    """
    _, names, _ = _VERBS[verb]
    given = {}
    tokens = iter(tokens)
    for name in tokens:
        if name not in names:
            return None
        spec = _OPTIONS[name]
        if "action" in spec:  # store_true
            given[name] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except argparse.ArgumentTypeError:
                return None
        choices = spec.get("choices")
        if choices is not None and value not in choices:
            return None
        given[name] = value
    args = argparse.Namespace(verb=verb)
    for name in names:
        spec = _OPTIONS[name]
        if name in given:
            value = given[name]
        elif spec.get("required"):
            return None
        else:
            value = spec.get("default", False if "action" in spec else None)
        setattr(args, name[2:].replace("-", "_"), value)
    return args


def _parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    """Parse ``argv`` (``sys.argv[1:]`` if None) as ``_build_parser()``
    does.  A clean verb call is read straight from the option table; the
    parser is built only for what ``_read_args`` leaves to it, so help,
    usage errors and their exit codes are argparse's own."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _VERBS:
        args = _read_args(argv[0], argv[1:])
        if args is not None:
            return args
    return _build_parser().parse_args(argv)


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
        from .families import descriptor_string, make_family, parse_family

        desc = parse_family(args.family)
        return make_family(desc), descriptor_string(desc)
    p, sep, q = args.grid.partition("x")
    if not sep:
        raise SpecParseError(f"grid wants PxQ, got {args.grid!r}")
    p, q = poset._decimal(p), poset._decimal(q)
    return chain_product(p, q), f"grid:{p}x{q}"


def _orbit_record(orbit: Orbit, oid: int) -> dict:
    return {"id": oid, "size": orbit.size, "delta": orbit.delta, "members": orbit}


def _emit_json(obj) -> str:
    parts: list[str] = []
    _write_json(obj, "\n", parts, {})
    parts.append("\n")
    return "".join(parts)


def _write_json(obj, nl: str, out: list[str], texts: dict) -> None:
    """Append ``obj`` to ``out`` as ``json.dumps(obj, indent=2)`` writes it,
    ``nl`` being the line break and indent of the line it starts on.

    Only the types the CLI emits are written: dict with str keys, list,
    str, int, bool, None, and an ``Orbit`` as the list of its members'
    id lists; any other raises ``TypeError``.  ``texts`` holds the orbit
    writer's byte texts for the one document being written.
    """
    kind = type(obj)
    if obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is int:
        out.append(repr(obj))
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is Orbit:
        _write_orbit(obj.masks, nl, out, texts)
    elif not obj and (kind is list or kind is dict):
        out.append("[]" if kind is list else "{}")
    elif kind is dict:
        if set(map(type, obj)) != {str}:
            raise TypeError("JSON object keys must be str")
        inner = nl + "  "
        out.append("{")
        sep = inner
        for key, value in obj.items():
            out += (sep, encode_basestring_ascii(key), ": ")
            _write_json(value, inner, out, texts)
            sep = "," + inner
        out += (nl, "}")
    elif kind is list:
        inner = nl + "  "
        out.append("[")
        sep = inner
        for value in obj:
            out.append(sep)
            _write_json(value, inner, out, texts)
            sep = "," + inner
        out += (nl, "]")
    else:
        raise TypeError(f"{kind.__name__} is not written as JSON")


class _ByteTexts(dict):
    """The ids of byte ``base // 8`` of a mask, as text, by the byte's
    value: the ids ``base + i`` of its set bits ``i``, joined with ``sep``.
    A value is joined on its first lookup; 0 is the empty text."""

    __slots__ = ("base", "sep")

    def __init__(self, base: int, sep: str):
        super().__init__({0: ""})
        self.base = base
        self.sep = sep

    def __missing__(self, byte: int) -> str:
        ids = [str(self.base + i) for i in range(8) if byte >> i & 1]
        text = self[byte] = self.sep.join(ids)
        return text


def _write_orbit(masks: tuple[int, ...], nl: str, out: list[str], texts: dict) -> None:
    """Append the orbit of ``masks`` as ``_write_json`` writes the list of
    its members' id lists, from the masks' bytes.  ``texts`` maps the
    ids' line start to one ``_ByteTexts`` per byte position."""
    inner = nl + "  "  # a member's line
    deeper = inner + "  "  # an id's line
    sep = "," + deeper
    rows = texts.setdefault(deeper, [])
    width = (max(masks).bit_length() + 7) // 8
    while len(rows) < width:
        rows.append(_ByteTexts(8 * len(rows), sep))
    head, tail = "[" + deeper, inner + "]"
    members = [
        head
        + sep.join(filter(None, map(getitem, rows, m.to_bytes(width, "little"))))
        + tail
        if m
        else "[]"
        for m in masks
    ]
    out += ("[", inner, ("," + inner).join(members), nl, "]")


def _emit_csv(header, rows) -> str:
    """The rows as ``csv.writer`` writes them: no field here needs quoting."""
    return "".join([",".join(map(str, row)) + "\n" for row in (header, *rows)])


def _run_orbits(args) -> tuple[str, int]:
    tree, name = _input_poset(args)
    orbits = all_orbits(tree, budget=args.budget)
    if args.format == "csv":
        rows = [
            (i, o.size, o.delta, " ".join(map(str, _bits(o.masks[0]))))
            for i, o in enumerate(orbits, start=1)
        ]
        return _emit_csv(("orbit", "size", "delta", "representative"), rows), 0
    doc = {
        "tree": name,
        "antichains": sum(o.size for o in orbits),
        "orbits": [_orbit_record(o, i) for i, o in enumerate(orbits, start=1)],
    }
    return _emit_json(doc), 0


def _tiling_record(tiling: Tiling, counts: dict, oid: int) -> dict:
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
    from .tiling import tile_counts, tiling_of_orbit

    tree, name = _input_poset(args)
    orbits = all_orbits(tree, budget=args.budget)
    tilings = (tiling_of_orbit(tree, o) for o in orbits)
    doc = {
        "tree": name,
        "tilings": [
            _tiling_record(t, tile_counts(t), i)
            for i, t in enumerate(tilings, start=1)
        ],
    }
    return _emit_json(doc), 0


def _run_render(args) -> tuple[str, int]:
    from .tiling import render_tiling, tiling_of_orbit

    tree, name = _input_poset(args)
    orbits = all_orbits(tree, budget=args.budget)
    parts = []
    for i, orbit in enumerate(orbits, start=1):
        tiling = tiling_of_orbit(tree, orbit)
        if args.format == "ascii":
            parts.append(f"# orbit {i}: size {orbit.size}, delta {orbit.delta}")
        parts.append(render_tiling(tiling, args.format).rstrip("\n"))
    return "\n".join(parts) + "\n", 0


def _average(total: int, size: int) -> str:
    """``str(Fraction(total, size))`` for ``size > 0``, without building the
    Fraction: lowest terms, the sign on the numerator, no denominator 1."""
    g = gcd(total, size)
    if g == size:
        return str(total // g)
    return f"{total // g}/{size // g}"


def _run_stats(args) -> tuple[str, int]:
    from .stats import _orbit_sums, parse_statistic

    stat = parse_statistic(args.stat)
    tree, name = _input_poset(args)
    orbits, sums = _orbit_sums(tree, stat, args.budget)
    rows = [
        (i, o.size, o.delta, total, _average(total, o.size))
        for i, (o, total) in enumerate(zip(orbits, sums), start=1)
    ]
    if args.format == "csv":
        return _emit_csv(("orbit", "size", "delta", "sum", "average"), rows), 0
    doc = {
        "tree": name,
        "stat": stat.spec(),
        "orbits": [
            {"id": i, "size": s, "delta": d, "sum": t, "average": a}
            for i, s, d, t, a in rows
        ],
    }
    return _emit_json(doc), 0


def _run_homomesy(args) -> tuple[str, int]:
    from .stats import check_homomesy, orbit_sum, parse_statistic

    stat = parse_statistic(args.stat)
    tree, name = _input_poset(args)
    verdict = check_homomesy(tree, stat, budget=args.budget)
    doc = {"tree": name, "stat": stat.spec(), "homomesic": verdict.is_homomesic}
    if verdict.is_homomesic:
        doc["constant"] = str(verdict.constant)
    else:
        a, b = verdict.witness
        doc["witness"] = {
            "orbits": [_orbit_record(a, 1), _orbit_record(b, 2)],
            "averages": [_average(orbit_sum(tree, stat, o), o.size) for o in (a, b)],
        }
    return _emit_json(doc), 0


def _run_homometry(args) -> tuple[str, int]:
    from .stats import check_homometry, orbit_sum, parse_statistic

    stat = parse_statistic(args.stat)
    tree, name = _input_poset(args)
    verdict = check_homometry(tree, stat, budget=args.budget)
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
    from .families import parse_family, verify_family

    if args.family is None or args.tree is not None:
        raise SpecParseError("verify works on --family descriptors")
    desc = parse_family(args.family)
    report = verify_family(desc, budget=args.budget)
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


def _run_continuous(args) -> tuple[str, int]:
    import random

    from .continuous import DEFAULT_MAX_ITER, _check_modulus, order_search

    kind = args.verb
    if args.mode == "rational":
        p = None
    elif args.mode.startswith("modp:"):
        p = poset._decimal(args.mode[5:])
        _check_modulus(kind, p)  # as order_search does, but before the poset is built
    else:
        raise SpecParseError(f"mode wants rational or modp:P, got {args.mode!r}")
    lifted, name = _input_poset(args)
    if args.max_iter is None:
        args.max_iter = DEFAULT_MAX_ITER
    t0 = time.perf_counter()
    result = order_search(
        lifted, max_iter=args.max_iter, kind=kind, p=p, rng=random.Random(args.seed)
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


# verb: (handler, options in help order, formats with the default first)
_VERBS = {
    "orbits": (_run_orbits, _TREE_VERB, ("json", "csv")),
    "tiling": (_run_tiling, _TREE_VERB, ("json",)),
    "render": (_run_render, _TREE_VERB, ("ascii", "svg")),
    "verify": (_run_verify, _TREE_VERB, ("json",)),
    "stats": (_run_stats, _STAT_VERB, ("json", "csv")),
    "homomesy": (_run_homomesy, _STAT_VERB, ("json",)),
    "homometry": (_run_homometry, _STAT_VERB, ("json",)),
    "birational": (_run_continuous, _LIFT_VERB, ("json",)),
    "pl": (_run_continuous, _LIFT_VERB, ("json",)),
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse_args(argv)
    run, _, formats = _VERBS[args.verb]
    try:
        if args.format is None:
            args.format = formats[0]
        elif args.format not in formats:
            raise SpecParseError(
                f"format {args.format!r} not supported here"
                f" (choose from {', '.join(formats)})"
            )
        out, code = run(args)
    except (SpecParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (BudgetExceededError, ZeroInFieldError, RetriesExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except Exception as exc:
        import traceback

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return INTERNAL_ERROR
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
