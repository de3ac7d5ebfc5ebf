"""Replay-file support: drive the pipelines from recorded detections.

The format is JSONL, one event per line.  Detection lines:

    {"t": 0.1, "agent": "ego", "sensor": 0, "type": "camera",
     "detections": [{"bbox": [...], "score": 1.0}, ...]}
    {"t": 0.1, "agent": "ego", "sensor": 1, "type": "radar",
     "detections": [{"position": [...], "radial_speed": -2.0, "snr": 20.0}, ...]}

Ground-truth lines:

    {"t": 0.1, "truth": [{"id": 1, "position": [...], "velocity": [...],
                          "extent": [...]}, ...]}

Every live run records its own sensor stream in this format, so a run can
be replayed bit-for-bit; dataset converters (out of scope here) only need
to emit these lines to drive the same pipelines.  A live run holds each
line as a compact record (its ints and strings, plus one float64 array)
and writes the lines from those records when its ``replay_jsonl`` is
asked for; the format, and every byte of it, is the one shown here.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass

import numpy as np

from ..sensing import Detection2D, GroundTruthObject, RadarPoint
from .model import (
    AgentSpec,
    MetricsConfig,
    Motion,
    PipelineConfig,
    Scenario,
    ValidationError,
    _parse_sensor,
    _validate_mode,
)
from ..bus import NetworkModel
from ..tracker import TrackerConfig


class ReplayError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass
class ReplayData:
    detections: dict[tuple[float, str, int], list]
    sensor_types: dict[tuple[str, int], str]
    truth_times: list[float]
    truth: dict[float, list[GroundTruthObject]]
    max_t: float

    def agents_seen(self) -> list[str]:
        return sorted({aid for _, aid, _ in self.detections})

    def detections_at(self, t: float, agent: str, sidx: int) -> list:
        return self.detections.get((t, agent, sidx), [])

    def truth_at(self, t: float) -> list[GroundTruthObject]:
        if t in self.truth:
            return self.truth[t]
        if not self.truth_times:
            return []
        objs = {}
        for oid in self._ids():
            pos = self.truth_position(oid, t)
            if pos is None:
                continue
            ref = self._find(oid, self._nearest_time(t))
            objs[oid] = GroundTruthObject(oid, pos, ref.velocity, ref.extent)
        return [objs[k] for k in sorted(objs)]

    def truth_position(self, obj_id: int, t: float):
        times = self.truth_times
        if not times:
            return None
        i = bisect.bisect_left(times, t)
        if i < len(times) and times[i] == t:
            obj = self._find(obj_id, times[i])
            return None if obj is None else obj.position
        lo = max(i - 1, 0)
        hi = min(i, len(times) - 1)
        a, b = self._find(obj_id, times[lo]), self._find(obj_id, times[hi])
        if a is None or b is None:
            return None
        if times[hi] == times[lo]:
            return a.position
        alpha = (t - times[lo]) / (times[hi] - times[lo])
        alpha = min(max(alpha, 0.0), 1.0)
        return a.position + alpha * (b.position - a.position)

    def _ids(self):
        out = set()
        for objs in self.truth.values():
            out.update(o.id for o in objs)
        return sorted(out)

    def _nearest_time(self, t: float) -> float:
        i = bisect.bisect_left(self.truth_times, t)
        i = min(max(i, 0), len(self.truth_times) - 1)
        return self.truth_times[i]

    def _find(self, obj_id: int, t: float):
        for o in self.truth.get(t, []):
            if o.id == obj_id:
                return o
        return None


def load_replay(text: str) -> ReplayData:
    """Parse and validate a replay JSONL document."""
    detections: dict[tuple[float, str, int], list] = {}
    sensor_types: dict[tuple[str, int], str] = {}
    truth: dict[float, list[GroundTruthObject]] = {}
    max_t = 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ReplayError(f"malformed JSON: {e.msg}", lineno)
        if not isinstance(obj, dict) or "t" not in obj:
            raise ReplayError("every line needs a 't' field", lineno)
        t = float(obj["t"])
        max_t = max(max_t, t)
        if "truth" in obj:
            try:
                truth[t] = [GroundTruthObject(int(o["id"]), np.array(o["position"]),
                                              np.array(o["velocity"]), np.array(o["extent"]))
                            for o in obj["truth"]]
            except (KeyError, TypeError, ValueError) as e:
                raise ReplayError(f"bad truth entry: {e}", lineno)
            continue
        for key in ("agent", "sensor", "type", "detections"):
            if key not in obj:
                raise ReplayError(f"detection line missing {key!r}", lineno)
        aid, sidx, stype = str(obj["agent"]), int(obj["sensor"]), obj["type"]
        if stype not in ("camera", "radar"):
            raise ReplayError(f"unknown sensor type {stype!r}", lineno)
        prev = sensor_types.setdefault((aid, sidx), stype)
        if prev != stype:
            raise ReplayError(f"sensor ({aid}, {sidx}) changes type", lineno)
        try:
            if stype == "camera":
                dets = [Detection2D(tuple(d["bbox"]), float(d["score"]))
                        for d in obj["detections"]]
            else:
                dets = [RadarPoint(np.array(d["position"]), float(d["radial_speed"]),
                                   float(d.get("snr", 0.0)))
                        for d in obj["detections"]]
        except (KeyError, TypeError, ValueError) as e:
            raise ReplayError(f"bad detection entry: {e}", lineno)
        key = (t, aid, sidx)
        if key in detections:
            raise ReplayError(f"duplicate detection line for {key}", lineno)
        detections[key] = dets
    return ReplayData(detections, sensor_types, sorted(truth), truth, max_t)


def infer_scenario(replay: ReplayData, mode: str = "cr", seed: int = 0) -> Scenario:
    """Minimal scenario for a replay file without an accompanying scenario.

    Agents get identity trajectories and default sensor presets; supply
    the original scenario file when mounts and noise configs matter.  An
    empty replay yields a sensor-less ego so the run still produces an
    (empty) report.
    """
    agent_ids = replay.agents_seen()
    ego = "ego" if "ego" in agent_ids else (agent_ids[0] if agent_ids else "ego")
    agents = []
    for aid in agent_ids:
        indexed = sorted((sidx, stype) for (a, sidx), stype in replay.sensor_types.items()
                         if a == aid)
        if [i for i, _ in indexed] != list(range(len(indexed))):
            raise ValidationError(
                f"replay sensor indices for agent {aid!r} must be contiguous from 0")
        sensors = tuple(_parse_sensor({"type": stype}, f"$.agents[{aid}]")
                        for _, stype in indexed)
        agents.append(AgentSpec(aid, "ego" if aid == ego else "vehicle",
                                Motion("static", p0=np.zeros(3), rpy_deg=(0, 0, 0)),
                                sensors))
    if not agents:
        agents = [AgentSpec("ego", "ego",
                            Motion("static", p0=np.zeros(3), rpy_deg=(0, 0, 0)), ())]
    duration = max(replay.max_t, 1e-3)
    sc = Scenario(duration=duration, seed=seed, pipeline=PipelineConfig(mode=mode),
                  tracker=TrackerConfig(), metrics=MetricsConfig(),
                  network=NetworkModel(), agents=tuple(agents), objects=())
    _validate_mode(sc)
    return sc
