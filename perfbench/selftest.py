#!/usr/bin/env python3
"""Show that the benchmark's checks catch wrong output.

    python3 perfbench/selftest.py

For each workload this takes real outputs of a few operations, damages
each in one way (two orbit members swapped, a tile shifted one column, an
order off by one, ...) and runs them through the worker's round loop.
Every damaged output must be counted as failed and every intact one as
passed.  Exits 1 if any check lets a wrong output through.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import worker

treerow = worker.import_program()

from workloads import build  # noqa: E402  (needs treerow on the path)
from workloads.cli_wide import HEAVY_ZIPPER  # noqa: E402


def swap_members(orbit):
    a = list(orbit.antichains)
    a[1], a[2] = a[2], a[1]
    return treerow.Orbit(tuple(a))


def shift_tile(tiling):
    tiles = list(tiling.tiles)
    i = next(k for k, t in enumerate(tiles) if t.color == "black")
    tiles[i] = dataclasses.replace(tiles[i], start=(tiles[i].start + 1) % tiling.columns)
    return dataclasses.replace(tiling, tiles=tuple(tiles))


def longest(records):
    """Index of the record holding the longest orbit (at least 3 members)."""
    k = max(range(len(records)), key=lambda i: records[i][0].size)
    assert records[k][0].size >= 3
    return k


def edit(records, k, pos, value):
    records = list(records)
    rec = list(records[k])
    rec[pos] = value
    records[k] = tuple(rec)
    return records


def tiling_sweep_damage(out):
    k = longest(out)
    orbit, tiling, report, inverse, sums, art = out[k]
    return {
        "orbit members swapped": edit(out, k, 0, swap_members(orbit)),
        "tile shifted a column": edit(out, k, 1, shift_tile(tiling)),
        "validation failed": edit(out, k, 2, treerow.TilingReport(False, "x")),
        "inverse rotated": edit(out, k, 3, treerow.Orbit(inverse.antichains[1:] + inverse.antichains[:1])),
        "chi sum off by one": edit(out, k, 4, dataclasses.replace(sums, chi=sums.chi + 1)),
        "render cell flipped": edit(out, k, 5, art.replace(".", "#", 1) if "." in art else art.replace("#", ".", 1)),
        "one orbit missing": out[:k] + out[k + 1:],
    }


def deep_orbits_damage(out):
    records, through = out
    k = longest(records)
    orbit, tiling, report, hatchi = records[k]
    return {
        "orbit members swapped": (edit(records, k, 0, swap_members(orbit)), through),
        "tile shifted a column": (edit(records, k, 1, shift_tile(tiling)), through),
        "hatchi sum off by one": (edit(records, k, 3, hatchi + 1), through),
        "orbit_of rotated": (records, [treerow.Orbit(o.antichains[1:] + o.antichains[:1]) for o in through]),
    }


def json_edit(out, fn):
    code, text = out
    doc = json.loads(text)
    fn(doc)
    return code, json.dumps(doc)


def cli_damage(name, out):
    if name.startswith("verify"):
        def total(doc):
            doc["antichains"]["observed"] += 1
            doc["antichains"]["predicted"] += 1

        def count(doc):
            doc["classes"][0]["observed"] += 1
            doc["classes"][0]["predicted"] += 1
        damage = {"antichain total off by one": json_edit(out, total),
                  "exit code 1": (1, out[1])}
        if json.loads(out[1])["classes"]:
            damage["verify class count off by one"] = json_edit(out, count)
        return damage
    if name.startswith("orbits"):
        def swap(doc):
            m = max(doc["orbits"], key=lambda o: o["size"])["members"]
            m[1], m[2] = m[2], m[1]
        return {"orbit members swapped": json_edit(out, swap)}
    if name.startswith("stats"):
        return {"orbit sum off by one": json_edit(out, lambda d: d["orbits"][0].update(sum=d["orbits"][0]["sum"] + 1))}
    if name.startswith("homometry") and "cbt:3 hatchi" in name:
        return {"witness sums changed": json_edit(out, lambda d: d["witness"].update(sums=[26, 36]))}
    if name.startswith("homometry"):
        return {"homometry verdict flipped": json_edit(out, lambda d: d.update(homometric=not d["homometric"]))}
    if name.startswith("homomesy"):
        return {"constant changed": json_edit(out, lambda d: d.update(constant=d["constant"] + "1"))}
    return {}


def lifts_damage(name, out):
    if name.startswith("modp-search"):
        return {"second run disagrees": [out[0], dataclasses.replace(out[1], restarts=1)]}
    if name.startswith("modp-trajectory"):
        bad = list(out)
        bad[5] = tuple((v + 1) % (2**61 - 1) for v in bad[5])
        return {"one iterate off": bad}
    if name.startswith("exact"):
        return {"max_bits off by one": dataclasses.replace(out, max_bits=out.max_bits + 1)}
    if " grid " in name and not name.startswith("pl-rowmotion"):
        return {"order off by one": dataclasses.replace(out, order=out.order + 1)}
    if name.startswith("pl-indicators") and len(out) > 1:
        return {"two images swapped": [out[1], out[0]] + out[2:]}
    return {}


def cases(workload, ops):
    """(label, op) pairs: each intact op and its damaged copies."""
    picked = {}
    for op in ops:
        if workload == "tiling-sweep":
            kind = f"tree {len(picked)}" if op.name.count("(") >= 7 else None
        elif workload == "cli-wide":
            # the verb, with the heavy zipper verify and the cbt:3 hatchi
            # witness as kinds of their own
            kind = next((k for k in (f"verify {HEAVY_ZIPPER}", "cbt:3 hatchi") if k in op.name),
                        op.name.split()[0])
        else:
            kind = op.name.split()[0]
        if op.known_fault is None and kind and kind not in picked and len(picked) < 30:
            picked[kind] = op
    for op in picked.values():
        out = op.run()
        if workload == "tiling-sweep":
            damage = tiling_sweep_damage(out)
        elif workload == "deep-orbits":
            damage = deep_orbits_damage(out)
        elif workload == "cli-wide":
            damage = cli_damage(op.name, out)
        else:
            damage = lifts_damage(op.name, out)
        yield True, op.name, dataclasses.replace(op, run=lambda o=out: o)
        for label, bad in damage.items():
            yield False, f"{op.name}: {label}", dataclasses.replace(op, run=lambda b=bad: b)


def main():
    bad_passed = good_failed = damaged = 0
    for workload in ("cli-wide", "tiling-sweep", "deep-orbits", "lifts"):
        for intact, label, op in cases(workload, build(workload, 1)):
            done = worker.run_rounds([op], 0)
            if intact and done.failed:
                good_failed += 1
                print(f"{workload}: intact output failed: {label}: {done.failures}")
            elif not intact:
                damaged += 1
                if not done.failed:
                    bad_passed += 1
                    print(f"{workload}: NOT CAUGHT: {label}")
    print(f"{damaged} damaged outputs, {bad_passed} not caught; {good_failed} intact outputs failed")
    return 1 if bad_passed or good_failed or not damaged else 0


if __name__ == "__main__":
    sys.exit(main())
