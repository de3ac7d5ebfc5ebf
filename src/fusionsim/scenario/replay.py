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
to emit these lines to drive the same pipelines.

A detection line holds one sensor tick's sensing array (see ``sensing``
for the camera and radar row layouts), one entry per row, and this
module owns the line in both directions: ``detection_line`` writes it
from a live run's array, and ``load_replay`` reads it back into one
``(n, 5)`` array.  The loader holds each row to what the sensor models
guarantee: a camera box with ``umin < umax`` and ``vmin < vmax`` and a
score in [0, 1], a finite radar position with range > 0, a bbox of
exactly 4 numbers and a position of exactly 3.  A bad line raises
``ReplayError`` with its line number.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass

import numpy as np

from ..geometry import norms
from ..sensing import GroundTruthObject, measurement_rows


class ReplayError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass
class ReplayData:
    detections: dict[tuple[float, str, int], np.ndarray]
    sensor_types: dict[tuple[str, int], str]
    truth_times: list[float]
    truth: dict[float, list[GroundTruthObject]]

    def detections_at(self, t: float, agent: str, sidx: int) -> np.ndarray:
        """The rows of a recorded tick."""
        return self.detections[(t, agent, sidx)]

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


# The sensor types a detection line may name, and what each of its entries
# holds, in row order.
_ROW_FIELDS = {"camera": "a bbox of 4 numbers and a score",
               "radar": "a position of 3 numbers, a radial speed and an SNR"}


def detection_line(t: float, agent: str, sidx: int, stype: str, rows: np.ndarray) -> dict:
    """The replay line of one sensor tick's measurement rows."""
    if stype == "camera":
        dets = [{"bbox": row[:4], "score": row[4]} for row in rows.tolist()]
    else:
        dets = [{"position": row[:3], "radial_speed": row[3], "snr": row[4]}
                for row in rows.tolist()]
    return {"t": t, "agent": agent, "sensor": sidx, "type": stype, "detections": dets}


def _detection_rows(stype: str, dets, lineno: int) -> np.ndarray:
    """A detection line's entries as one checked ``(n, 5)`` array."""
    try:
        if stype == "camera":
            rows = measurement_rows([[*d["bbox"], d["score"]] for d in dets])
        else:
            rows = measurement_rows([[*d["position"], d["radial_speed"], d.get("snr", 0.0)]
                                     for d in dets])
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ReplayError(f"bad detection entry: {e}", lineno)
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise ReplayError(f"every {stype} detection needs {_ROW_FIELDS[stype]}", lineno)
    if stype == "camera":
        bad = ~((rows[:, 0] < rows[:, 2]) & (rows[:, 1] < rows[:, 3]))
        if bad.any():
            raise ReplayError(f"degenerate bbox {rows[bad][0, :4].tolist()}", lineno)
        bad = ~((0.0 <= rows[:, 4]) & (rows[:, 4] <= 1.0))
        if bad.any():
            raise ReplayError(f"score {rows[bad][0, 4]} outside [0, 1]", lineno)
    else:
        positions = rows[:, :3]
        if not (np.isfinite(positions).all() and (norms(positions) > 0.0).all()):
            raise ReplayError("radar point needs a finite position with range > 0", lineno)
    return rows


def load_replay(text: str) -> ReplayData:
    """Parse and validate a replay JSONL document."""
    detections: dict[tuple[float, str, int], np.ndarray] = {}
    sensor_types: dict[tuple[str, int], str] = {}
    truth: dict[float, list[GroundTruthObject]] = {}
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
        if stype not in _ROW_FIELDS:
            raise ReplayError(f"unknown sensor type {stype!r}", lineno)
        prev = sensor_types.setdefault((aid, sidx), stype)
        if prev != stype:
            raise ReplayError(f"sensor ({aid}, {sidx}) changes type", lineno)
        key = (t, aid, sidx)
        if key in detections:
            raise ReplayError(f"duplicate detection line for {key}", lineno)
        detections[key] = _detection_rows(stype, obj["detections"], lineno)
    return ReplayData(detections, sensor_types, sorted(truth), truth)
