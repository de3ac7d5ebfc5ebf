"""Workload inputs, set-up and output checks.

The program only ever sees generated text: the scenario document (and,
on ``replay-urban``, a replay JSONL recorded by a live run).  Both are
pure functions of the workload and the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
URBAN = ROOT / "scenarios" / "urban.json"

# Events later than the duration are popped but never handled.
TIME_EPS = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    replay: bool = False       # drive from a recorded live run of the same seed
    crowd: int = 0             # generated objects replacing urban's own
    duration: float | None = None


WORKLOADS = {w.name: w for w in (
    Workload("urban-covi", "cr-covi"),
    Workload("urban-dist", "cr-dist"),
    Workload("crowd-60", "cr", crowd=60, duration=3.0),
    Workload("replay-urban", "cr", replay=True),
)}

# Box sizes (l, w, h) of the generated crowd: car, cyclist, van, bus.
_EXTENTS = ((4.5, 1.9, 1.6), (2.0, 0.8, 1.8), (4.2, 1.8, 1.5), (8.5, 2.5, 3.2))
# The crowd fills range x bearing cells in front of the ego, one object
# near the middle of each cell, so that every seed puts about as many
# objects in each sensor's view and in each other's way: the work per
# event, and so its latency, then depends little on the seed.  The seed
# places each object within the middle quarter of its cell and sets its
# velocity, slow enough that few objects cross a field-of-view edge.
_RANGES = (10.0, 70.0)
_BEARING = 0.75            # |y| / x at the edge of the wedge
_BEARING_CELLS = 6
_JITTER = 0.25             # share of a cell an object may start in
_SPEED = (1.5, 0.5)        # max |vx|, |vy| in m/s


def crowd_objects(seed: int, n: int) -> list[dict]:
    """``n`` constant-velocity objects in front of urban's ego."""
    rng = random.Random(seed)
    range_cells = -(-n // _BEARING_CELLS)
    depth = (_RANGES[1] - _RANGES[0]) / range_cells
    objects = []
    for k in range(n):
        row, col = divmod(k, _BEARING_CELLS)
        x = _RANGES[0] + depth * (row + 0.5 + _JITTER * (rng.random() - 0.5))
        y = _BEARING * x * (2.0 * (col + 0.5 + _JITTER * (rng.random() - 0.5))
                            / _BEARING_CELLS - 1.0)
        extent = _EXTENTS[k % len(_EXTENTS)]
        objects.append({
            "id": k + 1,
            "extent": list(extent),
            "motion": {"kind": "cv",
                       "p0": [round(x, 3), round(y, 3), extent[2] / 2.0],
                       "v": [round(rng.uniform(-_SPEED[0], _SPEED[0]), 3),
                             round(rng.uniform(-_SPEED[1], _SPEED[1]), 3), 0.0]},
        })
    return objects


def scenario_text(w: Workload, seed: int, duration: float | None = None) -> str:
    """Scenario document for a workload; ``duration`` shortens it (tests)."""
    doc = json.loads(URBAN.read_text())
    if w.crowd:
        doc["objects"] = crowd_objects(seed, w.crowd)
    duration = duration or w.duration
    if duration:
        doc["duration"] = duration
    return json.dumps(doc, indent=1)


def _plain(name, fn, *args):
    return fn(*args)


def setup(w: Workload, text: str, seed: int, replay_text: str | None = None,
          call=_plain):
    """The program's set-up: parse, override mode and seed, load the replay,
    build the engine.  ``call(span, fn, *args)`` lets a tracer time the
    steps the benchmark calls directly."""
    from fusionsim.scenario import apply_overrides, load_replay, load_scenario
    from fusionsim.scenario.engine import Engine

    scenario = call("model.load_scenario",
                    lambda: apply_overrides(load_scenario(text), mode=w.mode, seed=seed))
    replay = call("replay.load_replay", load_replay, replay_text) if w.replay else None
    return Engine(scenario, replay=replay)


def outputs(report) -> tuple[bytes, bytes, bytes]:
    """The three serialized outputs; serialisation is part of the loop."""
    return report.report_bytes(), report.track_jsonl(), report.replay_jsonl()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(outs: tuple[bytes, ...]) -> str:
    h = hashlib.sha256()
    for part in outs:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def check(w: Workload, engine, outs: tuple[bytes, bytes, bytes],
          live_track_sha: str | None = None) -> list[str]:
    """Invariants of one finished run; an empty list means it passed."""
    errors = []
    duration = engine.sc.duration
    bus = engine.bus_counts
    in_flight = sum(1 for f in engine.frames_log
                    if f["delivered_at"] is not None
                    and f["delivered_at"] > duration + TIME_EPS)
    if bus["sent"] != bus["delivered"] + bus["dropped"] + in_flight:
        errors.append(f"bus: sent {bus['sent']} != delivered {bus['delivered']}"
                      f" + dropped {bus['dropped']} + in flight {in_flight}")
    if w.mode == "cr-dist" and not engine.broker.conserved():
        errors.append(f"broker does not conserve tasks: {engine.broker.counters}")
    if w.replay and sha(outs[1]) != live_track_sha:
        errors.append("replayed track_jsonl differs from the live run's")
    return errors
