"""fusionsim benchmark: simulation speed, event latency, memory and
tracking quality on four workloads.

    python3 perfbench/run.py --workload urban-covi --seed 42 --seconds 20 --trace 0

Run from the root of a checkout.  The engine's event loop is driven as a
closed loop by one caller, as fast as it goes, with no extra threads.
Each run is a fresh process (``child.py``), so its peak RSS is its own;
runs repeat with identical inputs until ``--seconds`` is spent (at least
two).  Diagnostic lines come first; the last line of standard output is
the result object.

``--trace 0`` reports the end-to-end metrics, each the median over the
runs, or over pairs of runs for the loop's speed and latency (see
``lesser_events``).  Host times
are in reference time (``child.HostSpeed``): the host's speed, read from
calibration slices taken between events, drifts by up to 2x within
minutes, and raw times spread accordingly; the raw ones are printed on the
diagnostic lines.

``--trace 1`` alternates untraced and traced runs.  It reports the
per-layer metrics of the traced runs (medians), the median event latency
of the untraced ones, and the tracing overhead: untraced minus traced
simulated over host seconds of whole loops, each the median over its runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hooks
from workloads import ROOT, SRC, URBAN, WORKLOADS

CHILD = Path(__file__).resolve().parent / "child.py"
MIN_RUNS = 2          # identical-output checks need two runs of one input
DEADLINE_S = 165.0    # no run starts that could end after this

END_TO_END = {
    "setup_s": "s",
    "sim_s_per_wall_s": "sim_s/wall_s",
    "event_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "mota": "ratio",
}

PER_LAYER = {
    **{f"{name}.ms": "ms" for name in hooks.SPAN_MS},
    **{f"{name}.calls": "count" for name in hooks.SPAN_CALLS},
    **{f"{layer}.self_ms": "ms" for layer in hooks.LAYERS},
    **{name: ("B" if name.endswith("bytes") else "count") for name in hooks.COUNTS},
    # Seeds alone spread these two past any end-to-end bound: OSPA by a third
    # on urban-covi, and the median event by a fifth on crowd-60, where it
    # falls among the road-side unit's tracker steps, whose cost grows with
    # the square of the tracks that unit holds.
    "metrics.ospa_mean": "m",
    "engine.event_ms_p50": "ms",
    "trace.overhead_sim_s_per_wall_s": "sim_s/wall_s",
    "trace.overhead_pct": "%",
    "trace.hooks_absent": "count",
}


class ProgramMissing(Exception):
    pass


def child(args: list[str], timeout: float) -> tuple[dict | None, str, float]:
    """Run child.py; returns (result or None, error text, wall seconds)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD)] + args, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"run exceeded {timeout:.0f} s", time.perf_counter() - t0
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        if "ModuleNotFoundError: No module named 'fusionsim'" in proc.stderr:
            raise ProgramMissing(tail[0])
        return None, f"exit {proc.returncode}: {tail[0]}", wall
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), "", wall
    except (json.JSONDecodeError, IndexError):
        return None, "run printed no result", wall


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, round(q / 100.0 * len(sorted_values) + 0.5) - 1))
    return sorted_values[k]


def ratio(r: dict) -> float:
    return r["duration_s"] / r["loop_s"]


def pairs(runs: list[dict]) -> list[tuple[dict, dict]]:
    """Consecutive pairs of runs; a lone run is paired with itself."""
    return list(zip(runs[0::2], runs[1::2])) or [(runs[0], runs[0])]


def lesser_events(a: dict, b: dict) -> list[float]:
    """Each event's lesser time in two runs of one input.

    The runs handle the same events, so this drops most of what a burst on
    the host adds to single events.  Always taking the lesser of two,
    however many runs fit in the time, keeps the estimate the same on slow
    and fast hosts.
    """
    return list(map(min, a["event_ms"], b["event_ms"]))


def sim_s_per_wall_s(runs: list[dict]) -> float:
    """Median over pairs of runs of simulated over host seconds, the host
    time being each event's lesser time plus the lesser time outside them."""
    return statistics.median(
        a["duration_s"] / (sum(lesser_events(a, b)) / 1e3 + min(a["other_s"], b["other_s"]))
        for a, b in pairs(runs))


def event_ms(runs: list[dict], q: float) -> float:
    """Median over pairs of runs of the q-th percentile event latency."""
    return statistics.median(percentile(sorted(lesser_events(a, b)), q)
                             for a, b in pairs(runs))


def end_to_end(runs: list[dict]) -> dict:
    """Metrics of runs with identical outputs; medians over runs or pairs."""
    def median(f):
        return statistics.median(f(r) for r in runs)
    return {
        "setup_s": median(lambda r: r["setup_s"]),
        "sim_s_per_wall_s": sim_s_per_wall_s(runs),
        "event_ms_p95": event_ms(runs, 95),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "mota": runs[0]["mota"],
    }


def per_layer(untraced: list[dict], traced: list[dict], absent: set[str]) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in PER_LAYER if name in traced[0]["layers"]}
    base = statistics.median(ratio(r) for r in untraced)
    overhead = base - statistics.median(ratio(r) for r in traced)
    out["engine.event_ms_p50"] = event_ms(untraced, 50)
    out["trace.overhead_sim_s_per_wall_s"] = overhead
    out["trace.overhead_pct"] = 100.0 * overhead / base
    out["trace.hooks_absent"] = len(absent)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "fusionsim").is_dir() or not URBAN.is_file():
        print(f"no fusionsim source tree at {ROOT}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    base = ["--workload", w.name, "--seed", str(args.seed)]
    runs: list[tuple[bool, dict | None, str]] = []   # (traced, result, error)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        try:
            if w.replay:
                replay_file = str(Path(tmp) / "replay.jsonl")
                rec, err, _ = child(base + ["--record", replay_file], DEADLINE_S)
                if rec is None:
                    print(f"recording the live run failed: {err}", file=sys.stderr)
                    return 1
                base += ["--replay", replay_file, "--live-sha", rec["track_sha"]]
            measure_start = time.perf_counter()
            while True:
                traced = args.trace == 1 and len(runs) % 2 == 1
                remaining = DEADLINE_S - (time.perf_counter() - start)
                result, err, wall = child(base + (["--trace"] if traced else []),
                                          max(remaining, 1.0))
                runs.append((traced, result, err))
                elapsed = time.perf_counter() - measure_start
                if len(runs) >= MIN_RUNS and elapsed + wall > args.seconds:
                    break
                if time.perf_counter() - start + wall > DEADLINE_S:
                    break
        except ProgramMissing as e:
            print(f"fusionsim cannot be imported: {e}", file=sys.stderr)
            return 2

    reference = next((r["digest"] for _, r, _ in runs if r is not None), None)
    ok: list[tuple[bool, dict]] = []
    failed = 0
    absent: set[str] = set()
    for i, (traced, r, err) in enumerate(runs, start=1):
        errors = [err] if r is None else list(r["errors"])
        if r is not None:
            absent.update(r["absent_hooks"])
            if r["digest"] != reference:
                errors.append("outputs differ from the first run's")
        print(json.dumps({"run": i, "traced": traced, "errors": errors, **({} if r is None else {
            "setup_s_raw": r["setup_s_raw"],
            "sim_s_per_wall_s_raw": r["duration_s"] / r["loop_s_raw"],
            "sim_s_per_wall_s": ratio(r), "slices": r["slices"],
            "slice_us_hmean": r["slice_us_hmean"], "slice_us_min": r["slice_us_min"]})}))
        if errors:
            failed += 1
        else:
            ok.append((traced, r))
    if absent:
        print(json.dumps({"absent_hooks": sorted(absent)}))

    untraced = [r for traced, r in ok if not traced]
    traced = [r for traced, r in ok if traced]
    if not untraced or (args.trace and not traced):
        print("no run passed its checks; nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        values, units = per_layer(untraced, traced, absent), PER_LAYER
    else:
        values, units = end_to_end(untraced), END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
