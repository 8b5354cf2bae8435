"""Run one workload in this process and report its measurements as JSON.

    python3 perfbench/worker.py --workload tiling-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/worker.py --workload tiling-sweep --seed 1 --setup-only

`run.py` starts this once per measured run, and a few more times with
``--setup-only`` to sample set-up time.  The last line of stdout is one
JSON object of measurements for `run.py`.  ``ready`` is the
`time.monotonic` reading when set-up ended (treerow imported, inputs
built), which the parent compares with its own reading at spawn;
``inputs_s`` is the part of that spent in the benchmark's own input
generation, and ``setup_scale`` the machine-speed factor measured just
after.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Raised, module

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program():
    src = ROOT / "src"
    if not (src / "treerow" / "__init__.py").is_file():
        raise SystemExit(f"no treerow sources under {src}")
    sys.path.insert(0, str(src))
    import treerow

    if Path(treerow.__file__).resolve().parent != src / "treerow":
        raise SystemExit(f"imported treerow from {treerow.__file__}, not from {src}")
    return treerow


def calibration_loop():
    """A fixed piece of pure-Python work (integer arithmetic and dict
    stores, nothing the garbage collector tracks) whose time follows the
    speed the machine currently gives this process."""
    d = {}
    s = 0
    for i in range(20_000):
        s = (s + i * i) % 1_000_003
        d[i & 511] = s
    return s


# the calibration loop's time on the reference machine (see README.md)
CALIBRATION_S = 0.0024
# operation time between two calibrations
CHUNK_S = 0.05


def calibrate():
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def speed_scale(samples=5):
    """CALIBRATION_S over the median of a few calibrations taken now."""
    return CALIBRATION_S / statistics.median(calibrate() for _ in range(samples))


def layer_metrics(spans, counts, scale):
    """Per-layer metrics of one round, from span self times (multiplied
    by the round's machine-speed ``scale``) and counts."""

    def fn(*names):
        return scale * sum(spans.get(n, (0, 0.0))[1] for n in names)

    def calls(*names):
        return sum(spans.get(n, (0, 0.0))[0] for n in names)

    def layer(prefix):
        recs = [v for k, v in spans.items() if k.startswith(prefix + ".")]
        return sum(r[0] for r in recs), scale * sum(r[1] for r in recs)

    def per(num, den):
        return num / den if den else 0.0

    out = {}
    out["poset.calls"], out["poset.self_s"] = layer("poset")
    _, out["rowmotion.self_s"] = layer("rowmotion")
    out["rowmotion.antichains"] = counts.get("rowmotion.antichains", 0)
    out["rowmotion.orbits"] = counts.get("rowmotion.orbits", 0)
    out["rowmotion.antichains_per_s"] = per(out["rowmotion.antichains"], out["rowmotion.self_s"])
    out["tiling.build_s"] = fn("tiling.tiling_of_orbit")
    out["tiling.validate_s"] = fn("tiling.validate_tiling")
    out["tiling.invert_s"] = fn("tiling.orbit_of_tiling")
    out["tiling.counts_s"] = fn("tiling.tile_counts")
    out["tiling.render_s"] = fn("tiling.render_tiling")
    out["tiling.cells"] = counts.get("tiling.cells", 0)
    out["tiling.validations_per_tiling"] = per(
        calls("tiling.validate_tiling"), calls("tiling.tiling_of_orbit")
    )
    out["stats.orbit_sum_s"] = fn("stats.orbit_sum")
    out["stats.tiling_sums_s"] = fn("stats.orbit_sums_from_tiling")
    out["stats.check_s"] = fn("stats.check_homomesy", "stats.check_homometry")
    out["stats.orbit_sums"] = calls("stats.orbit_sum")
    _, out["families.self_s"] = layer("families")
    out["families.profiles"] = calls(
        "families.predicted_profile",
        "families.observed_profile",
        "families.combine_profiles",
        "families.extend_root_transfer",
    )
    out["continuous.birational_s"] = fn(
        "continuous.birational_rowmotion", "continuous.birational_toggle"
    )
    out["continuous.birational_steps"] = calls("continuous.birational_rowmotion")
    out["continuous.birational_steps_per_s"] = per(
        out["continuous.birational_steps"], out["continuous.birational_s"]
    )
    out["continuous.pl_s"] = fn("continuous.pl_rowmotion", "continuous.pl_toggle")
    out["continuous.pl_steps"] = calls("continuous.pl_rowmotion")
    out["continuous.restarts"] = counts.get("continuous.restarts", 0)
    out["continuous.max_bits"] = counts.get("continuous.max_bits", 0)
    _, out["cli.self_s"] = layer("cli")
    out["cli.bytes_out"] = counts.get("cli.bytes_out", 0)
    return out


def median_of_rounds(times, per_round):
    """Each operation's median time over the run's rounds."""
    return [statistics.median(times[i::per_round]) for i in range(per_round)]


@dataclass
class Rounds:
    """What a run of whole rounds measured and found."""

    op_times: list = field(default_factory=list)  # scaled seconds, round after round
    rounds: list = field(default_factory=list)  # seconds of treerow time per round
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)  # op name -> [problem, known fault]
    layers: list = field(default_factory=list)  # per-layer metrics of each round
    first_spans: object = None  # the first round's spans (traced runs)


def run_rounds(ops, seconds, tracer=None):
    """Whole rounds of ``ops`` until ``seconds`` have passed (at least one).

    Every CHUNK_S of operation time the calibration loop runs once, and
    the operations timed in between are scaled by CALIBRATION_S over the
    mean of the calibrations on either side.  The shared machine's speed
    drifts by up to 1.7 times in phases of seconds to minutes; the scaled
    times follow the program, not the phase.
    """
    done = Rounds()
    start = time.perf_counter()
    before, pending, raw = calibrate(), [], 0.0

    def scale_pending():
        nonlocal before, pending, raw
        after = calibrate()
        factor = CALIBRATION_S / ((before + after) / 2)
        for i in pending:
            done.op_times[i] *= factor
        before, pending, raw = after, [], 0.0

    while True:
        total = 0.0
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = tracer.span("bench.op", op.run) if tracer else op.run()
            except Exception as exc:  # the check decides whether it was expected
                out = Raised(exc)
            dt = time.perf_counter() - t0
            total += dt
            raw += dt
            pending.append(len(done.op_times))
            done.op_times.append(dt)
            try:
                problem = op.check(out)
            except Exception:
                problem = "check raised: " + traceback.format_exc(limit=3)
            done.attempted += 1
            if problem:
                done.failed += 1
                done.failures.setdefault(op.name, [problem, op.known_fault])
            if tracer and op.counts:
                for key, value in op.counts(out).items():
                    tracer.count(key, value)
            del out  # so the next operation's peak memory is its own
            if raw >= CHUNK_S:
                scale_pending()
        if pending:
            scale_pending()
        done.rounds.append(total)
        if tracer:
            scale = sum(done.op_times[-len(ops):]) / total
            done.layers.append(layer_metrics(tracer.self_times(), tracer.counts, scale))
            if done.first_spans is None:
                done.first_spans = tracer.snapshot()
            tracer.clear()
        if time.perf_counter() - start >= seconds:
            return done


def main(argv=None):
    ap = argparse.ArgumentParser(description="run one workload (used by run.py)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not args.setup_only and args.seconds is None:
        ap.error("--seconds is required unless --setup-only")

    treerow = import_program()
    workload = module(args.workload)
    t0 = time.perf_counter()
    inputs = workload.inputs(args.seed)
    inputs_s = time.perf_counter() - t0
    ops = workload.ops(inputs)
    ready = time.monotonic()
    # the benchmark's own input generation is left out of set-up time
    setup = {"ready": ready, "inputs_s": inputs_s, "setup_scale": speed_scale()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(treerow)
    done = run_rounds(ops, args.seconds, tracer)
    op_s = median_of_rounds(done.op_times, len(ops))
    report = {
        **setup,
        "ops_per_round": len(ops),
        "rounds": done.rounds,
        "op_s": op_s,
        "attempted": done.attempted,
        "failed": done.failed,
        "failures": done.failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.uninstall()
        report["layers"] = {
            k: statistics.median(r[k] for r in done.layers) for k in done.layers[0]
        }
        # the same estimator as the untraced wall_s, so the two compare
        report["layers"]["traced.wall_s"] = sum(op_s)
        out_dir = ROOT / ".bench_spans"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}.json"
        done.first_spans.dump(path)
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
