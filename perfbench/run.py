#!/usr/bin/env python3
"""treerow benchmark: run workloads, check every output, print metrics.

    python3 perfbench/run.py                          # all four workloads
    python3 perfbench/run.py --workload lifts --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload lifts --seed 3 --trace 1  # per-layer

Each workload runs in its own single-threaded worker process
(`worker.py`), one operation after another, in whole rounds of its fixed
operation list until ``--seconds`` have passed (by default the
``run_seconds`` of BENCHMARK.json).  Set-up time is sampled from several
fresh processes.  Times are scaled to the reference machine speed that
`worker.py` calibrates against.  With ``--trace 0`` the end-to-end metrics
are printed; ``--trace 1`` instead wraps treerow's public functions in
spans and prints the per-layer metrics.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SPEC_FILE = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("cli-wide", "tiling-sweep", "deep-orbits", "lifts")
SETUP_PROBES = 6  # extra set-up-only processes; the measured run adds one more
WORKER_TIMEOUT = 150


class WorkerFailed(RuntimeError):
    pass


def worker(args):
    """Start a worker; return (report, monotonic time at spawn)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr.strip() or f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def setup_s(report, spawned):
    """Spawn to ready, less the benchmark's own input generation, scaled."""
    return (report["ready"] - spawned - report["inputs_s"]) * report["setup_scale"]


def measure(workload, seed, seconds, trace, layer_units):
    """Run one workload once; return its result object and report lines.
    ``layer_units`` maps each per-layer metric to its unit."""
    common = ["--workload", workload, "--seed", str(seed)]
    report, spawned = worker(common + ["--seconds", str(seconds), "--trace", str(trace)])
    known = sum(1 for _, fault in report["failures"].values() if fault)
    unexpected = {k: v[0] for k, v in report["failures"].items() if not v[1]}
    result = {
        "correct": not unexpected,
        "attempted": report["attempted"],
        "failed": report["failed"],
    }
    if trace:
        if set(report["layers"]) != set(layer_units):
            raise WorkerFailed("traced metrics differ from the per_layer list of BENCHMARK.json")
        metrics = {k: (v, layer_units[k]) for k, v in report["layers"].items()}
    else:
        setup = [setup_s(report, spawned)]
        for _ in range(SETUP_PROBES):
            setup.append(setup_s(*worker(common + ["--setup-only"])))
        ms = [t * 1000 for t in report["op_s"]]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(report["op_s"]), "s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
            "peak_rss_mb": (report["peak_rss_kb"] / 1024, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    notes = [
        f"{workload}: seed {seed}, {len(report['rounds'])} rounds of "
        f"{report['ops_per_round']} operations, {known} known-fault operation(s) failed"
    ]
    for name, (problem, fault) in report["failures"].items():
        notes.append(f"  FAILED {name}: {problem}" + (f" [known: {fault}]" if fault else ""))
    if trace:
        notes.append(f"  spans: {report['spans_file']}")
    return result, notes


def main(argv=None):
    spec = json.loads(SPEC_FILE.read_text())
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, notes = measure(name, args.seed, args.seconds, args.trace, layer_units)
            results[name] = result
            print("\n".join(notes))
            for metric, m in result["metrics"].items():
                print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
            print(f"  attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
