"""One run of a workload, in a process of its own.

``run.py`` starts this script once per run, so that ``ru_maxrss`` is the
peak memory of that run alone, and reads the one JSON line it prints.

    python3 perfbench/child.py --workload urban-dist --seed 42 [--trace]
    python3 perfbench/child.py --workload replay-urban --seed 42 --record FILE
    python3 perfbench/child.py --workload replay-urban --seed 42 --replay FILE --live-sha SHA

``--record`` makes the live run a replay workload is driven from and
writes its ``replay_jsonl`` to FILE.  Imports and input generation are
outside every timed region.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hooks
import workloads
from workloads import WORKLOADS

sys.path.insert(0, str(workloads.SRC))

_ns = time.perf_counter_ns

SETUPS = 5                  # set-ups per run; their median is the run's setup_s
SLICE_EVERY_NS = 20_000_000  # host time between calibration slices in a run
SLICE_WINDOW = 2             # slices on each side that time one event
BRACKET = 10                 # slices before and after a traced run
REF_SLICE_NS = 1_000_000     # one slice is 1 ms of reference-host time

_SLICE_MATRIX = np.eye(6) + 0.1


def calibration_slice() -> int:
    """Host time (ns) of a fixed loop shaped like the program's work:
    small dense linear algebra between dict and list bookkeeping."""
    a = _SLICE_MATRIX
    acc = 0.0
    t0 = _ns()
    for i in range(60):
        b = a @ a.T
        acc += float(np.linalg.solve(b[:3, :3], b[:3, 0])[0])
        table = {j: j * i for j in range(24)}
        acc += sum(sorted(table.values())[:8])
    if acc != acc:  # keep the result live
        raise RuntimeError("calibration produced NaN")
    return _ns() - t0


class HostSpeed:
    """Calibration slices taken between events, every ``SLICE_EVERY_NS``.

    The host's speed drifts by up to 2x within minutes as other tenants
    come and go, far more than any change worth measuring.  A slice's time
    is the host's speed at that moment, so a host time divided by the
    slices around it, times ``REF_SLICE_NS``, is the time the same work
    takes on a reference host on which a slice takes exactly 1 ms.
    """

    def __init__(self):
        self.at: list[int] = []     # events handled before each slice
        self.ns: list[int] = []
        self._last = 0

    def take(self, at: int) -> None:
        self.at.append(at)
        self.ns.append(calibration_slice())
        self._last = _ns()

    def maybe(self, at: int) -> None:
        if _ns() - self._last >= SLICE_EVERY_NS:
            self.take(at)

    def scale(self, lo: int = 0, hi: int | None = None) -> float:
        """Reference ns per host ns over slices ``lo:hi``.  The harmonic
        mean weights each slice by its speed, as a stretch of fixed host
        time does, and damps a slice hit by an interrupt."""
        return REF_SLICE_NS / statistics.harmonic_mean(self.ns[lo:hi])

    def event_times(self, event_ns: list[int]) -> list[float]:
        """Each event's time in reference ns, scaled by the slices nearest it."""
        out = []
        j = 0
        for e, ns in enumerate(event_ns):
            while j < len(self.at) and self.at[j] <= e:
                j += 1
            lo = max(0, min(j, len(self.ns) - SLICE_WINDOW) - SLICE_WINDOW)
            out.append(ns * self.scale(lo, lo + 2 * SLICE_WINDOW))
        return out


def run_loop(engine):
    """``Engine.run`` then serialisation of the three outputs."""
    t0 = _ns()
    report = engine.run()
    t1 = _ns()
    outs = workloads.outputs(report)
    return report, outs, t1 - t0, _ns() - t1


def layer_metrics(tracer: hooks.Tracer, report, outs) -> dict:
    """Per-layer values of one traced run, named as in BENCHMARK.json."""
    ns, calls, counts = tracer.ns, tracer.calls, tracer.counts
    out = {f"{name}.ms": ns[name] / 1e6 for name in hooks.SPAN_MS}
    out.update({f"{name}.calls": calls[name] for name in hooks.SPAN_CALLS})
    out.update({f"{layer}.self_ms": tracer.self_ns[layer] / 1e6 for layer in hooks.LAYERS})
    counters = report.report.get("counters", {})
    collab = counters.get("collab", {}).values()
    offload = counters.get("offload", {})
    bus = counters.get("bus", {})
    out.update({
        "sensing.detections": counts["sensing.detections"],
        "fusion.detections3d": counts["fusion.detections3d"],
        "tracker.pairs": counts["tracker.pairs"],
        "tracker.replayed_steps": counts["tracker.rollback_steps"] - calls["tracker.rollback"],
        "collab.remote_tracks": counts["collab.remote_tracks"],
        "collab.fused": sum(c.get("fused", 0) for c in collab),
        "collab.stale": sum(c.get("stale", 0) for c in collab),
        "offload.submitted": offload.get("submitted", 0),
        "offload.ok_integrated": offload.get("ok_integrated", 0),
        "offload.dropped": sum(offload.get(k, 0) for k in
                               ("stale_dropped", "timeout_dropped", "queue_dropped")),
        "bus.frames": bus.get("sent", 0),
        "bus.bytes": counts["bus.bytes"],
        "bus.dropped": bus.get("dropped", 0),
        "engine.events": report.report.get("events_processed", 0),
        "engine.output_bytes": sum(len(part) for part in outs),
        "metrics.ospa_mean": report.report["metrics"]["ospa_mean"],
    })
    return out


def record(w: workloads.Workload, seed: int, duration: float | None = None):
    """Live run of a replay workload's scenario: (replay_jsonl, track sha)."""
    text = workloads.scenario_text(w, seed, duration)
    report = workloads.setup(dataclasses.replace(w, replay=False), text, seed).run()
    return report.replay_jsonl(), workloads.sha(report.track_jsonl())


def measure(w: workloads.Workload, seed: int, trace: bool,
            replay_text: str | None = None, live_sha: str | None = None,
            duration: float | None = None) -> dict:
    """Set up ``SETUPS`` times, then run once and check the outputs.

    Host times are returned raw and in reference ns (see ``HostSpeed``).
    An untraced run times every event and takes slices between events; a
    traced run takes slices only before and after the loop, so that the
    loop span holds nothing but the program.
    """
    text = workloads.scenario_text(w, seed, duration)
    setup_ns, setup_ref = [], []
    for _ in range(SETUPS):
        before = calibration_slice()
        t0 = _ns()
        engine = workloads.setup(w, text, seed, replay_text)
        ns = _ns() - t0
        after = calibration_slice()
        setup_ns.append(ns)
        setup_ref.append(ns * REF_SLICE_NS / statistics.harmonic_mean((before, after)))

    tracer = hooks.Tracer() if trace else None
    loop = HostSpeed()
    event_ns: list[int] = []
    patches = []
    try:
        if tracer is not None:
            patches.append(hooks.install_spans(tracer))
            engine = workloads.setup(w, text, seed, replay_text,
                                     call=lambda name, fn, *a: tracer.call(name, fn, a, {}))
            for _ in range(BRACKET):
                loop.take(0)
            report, outs, run_ns, ser_ns = tracer.run_loop(lambda: run_loop(engine))
            for _ in range(BRACKET):
                loop.take(0)
            loop_ns = run_ns + ser_ns
        else:
            patches.append(hooks.install_event_timer(
                event_ns, after=lambda: loop.maybe(len(event_ns))))
            loop.take(0)
            report, outs, run_ns, ser_ns = run_loop(engine)
            loop.take(len(event_ns))
            # slices taken between events are not the program's time
            loop_ns = run_ns + ser_ns - sum(loop.ns[1:-1])
    finally:
        for p in reversed(patches):
            p.undo()

    metrics = report.report["metrics"]
    result = {
        "errors": workloads.check(w, engine, outs, live_sha),
        "digest": workloads.digest(outs),
        "duration_s": engine.sc.duration,
        "setup_s": statistics.median(setup_ref) / 1e9,
        "setup_s_raw": statistics.median(setup_ns) / 1e9,
        "loop_s": loop_ns * loop.scale() / 1e9,
        "loop_s_raw": loop_ns / 1e9,
        "event_ms": [ns / 1e6 for ns in loop.event_times(event_ns)],
        # the loop's time outside the timed handlers, serialisation included
        "other_s": (loop_ns - sum(event_ns)) * loop.scale() / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mota": metrics["mota"],
        "slices": len(loop.ns),
        "slice_us_hmean": statistics.harmonic_mean(loop.ns) / 1e3,
        "slice_us_min": min(loop.ns) / 1e3,
        "absent_hooks": [a for p in patches for a in p.absent],
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, report, outs)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true", help="time per-layer spans")
    ap.add_argument("--record", help="write the live run's replay_jsonl here")
    ap.add_argument("--replay", help="replay_jsonl to drive a replay workload")
    ap.add_argument("--live-sha", help="track_jsonl sha256 of the recorded live run")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    if args.record:
        replay, track_sha = record(w, args.seed)
        Path(args.record).write_bytes(replay)
        print(json.dumps({"track_sha": track_sha}))
        return 0
    replay_text = Path(args.replay).read_text() if w.replay else None
    print(json.dumps(measure(w, args.seed, args.trace, replay_text, args.live_sha)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
