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
be replayed bit-for-bit: a loaded file is a ``ReplayData``, the engine's
input source beside ``engine.LiveSource``.  Dataset converters (out of
scope here) only need to emit these lines to drive the same pipelines.

A detection line holds one sensor tick's sensing array (see ``sensing``
for the camera and radar row layouts), one entry per row, and a truth
line one ``sensing.Truth`` batch, one entry per row.  This module owns
both lines in both directions: ``detection_line`` and ``truth_line``
write them from a live run's arrays, and ``load_replay`` reads each back
into one ``(n, 5)`` array or one ``Truth``.  It also owns the line of
the tracks output, ``{"agent", "cov_diag", "id", "mean", "status",
"t"}``, one per track, which ``track_lines`` writes from a run's track
record.

The writers give the bytes ``bus.canonical_dumps`` gives the line's dict,
newline included, without building the dict: the constant key text in
sorted-key order, each number from one ``.tolist()`` of the record's
array as ``float.__repr__`` writes it (the text ``json`` writes for a
float, also for a numpy ``float64``), an int as its decimal text, and
``json.dumps`` only for the agent and type strings.  Like
``canonical_dumps(allow_nan=False)``, a writer refuses a non-finite
number with ``ValueError``: one ``np.isfinite`` test per array of the
record and one of ``t``.

The loader reads every line by the bus's rule (see ``bus``) and holds
it to what a live run guarantees; a bad line raises ``ReplayError``
with its line number, and nothing else:

* exactly its keys: a detection line ``{t, agent, sensor, type,
  detections}`` and a truth line ``{t, truth}``; a camera entry
  ``{bbox, score}``, a radar entry ``{position, radial_speed}`` and an
  optional ``snr``, which reads as 0.0 when absent, and a truth entry
  ``{id, position, velocity, extent}``;
* every line: a finite number ``t``; a detection line an integer
  ``sensor``, strings ``agent`` and ``type`` (``camera`` or ``radar``)
  and a list ``detections``, and a truth line a list ``truth``;
* a detection row: a finite camera box with ``umin < umax`` and
  ``vmin < vmax`` and a score in [0, 1], or a finite radar position with
  range > 0 and a finite radial speed and SNR; a bbox of exactly 4
  numbers and a position of exactly 3;
* a truth line: at most one per ``t``, with unique integer ids; a
  position, velocity and extent of exactly 3 finite numbers each, and
  extent components > 0.

Numbers are typed as on the bus, never converted (a bool, a numeric
string, a null or a fractional id is refused), and a row or vector of
the wrong length is refused, never reshaped.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from ..bus import canonical_loads, is_i64, payload_array, payload_field, payload_keys
from ..sensing import Truth
from ..tracker import CONFIRMED, TENTATIVE


class ReplayError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass
class ReplayData:
    detections: dict[tuple[float, str, int], np.ndarray]
    sensor_types: dict[tuple[str, int], str]
    truth_times: list[float]
    truth: dict[float, Truth]
    records = ()  # a replay run records no replay lines

    def ticks(self, sensors: dict) -> dict:
        """Each of ``sensors``' recorded tick times, sorted, also past a
        run's end; ReplayError if one's rows were recorded as another
        type's."""
        for key, stype in sorted(self.sensor_types.items()):
            if key in sensors and sensors[key].type != stype:
                raise ReplayError(f"replay sensor ({key[0]}, {key[1]}) is a {stype}, "
                                  f"the scenario's a {sensors[key].type}")
        times = {key: [] for key in sensors}
        for t, aid, sidx in self.detections:  # a sensor the run lacks ticks nowhere
            times.get((aid, sidx), []).append(t)
        for sensor_times in times.values():
            sensor_times.sort()
        return times

    def detections_at(self, t: float, agent: str, sidx: int, sensor_pose=None) -> np.ndarray:
        """The rows of a recorded tick, wherever the sensor is."""
        return self.detections[(t, agent, sidx)]

    def truth_at(self, t: float) -> Truth:
        """Ground truth at ``t``.  At a recorded time it is that line's
        batch.  Otherwise it holds, in id order, the objects of both lines
        around ``t`` (before the first line or after the last, that line
        alone), at positions interpolated linearly between the two lines,
        with the later line's velocities and extents."""
        if t in self.truth:
            return self.truth[t]
        before, after, alpha = self._around(t)
        ids = sorted(set(before.ids) & set(after.ids))
        a, b = [before.ids.index(oid) for oid in ids], [after.ids.index(oid) for oid in ids]
        return Truth(tuple(ids), _between(before.positions[a], after.positions[b], alpha),
                     after.velocities[b], after.extents[b])

    def positions(self, gids, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M, K, 3) positions of the objects ``gids`` at their (M, K)
        ``times``, row m's at ``times[m]``, each as ``truth_at`` gives it,
        and the (M,) mask of the objects found.  At a recorded time, or
        before the first line or after the last, a position is that line's
        own row, not ``a + 0 * (b - a)``.  An object missing from either
        line around any of its times is not found; its row is zero from
        that time on."""
        out = np.zeros(times.shape + (3,))
        found = np.ones(len(gids), dtype=bool)
        for m, (gid, row_times) in enumerate(zip(gids, times.tolist())):
            for k, tk in enumerate(row_times):
                before, after, alpha = self._around(tk)
                if gid not in before.ids or gid not in after.ids:
                    found[m] = False
                    break
                out[m, k] = _between(before.positions[before.ids.index(gid)],
                                     after.positions[after.ids.index(gid)], alpha)
        return out, found

    def _around(self, t: float) -> tuple[Truth, Truth, float | None]:
        """The lines before and after ``t`` and the later one's weight; at
        a recorded time or outside the lines, the one nearest line twice
        and no weight."""
        times = self.truth_times
        if not times:
            empty = Truth((), np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)))
            return empty, empty, None
        i = bisect.bisect_left(times, t)
        if 0 < i < len(times) and times[i] != t:
            t0, t1 = times[i - 1], times[i]
            return self.truth[t0], self.truth[t1], (t - t0) / (t1 - t0)
        nearest = self.truth[times[min(i, len(times) - 1)]]
        return nearest, nearest, None


def _between(a: np.ndarray, b: np.ndarray, alpha: float | None) -> np.ndarray:
    return a if alpha is None else a + alpha * (b - a)


_float = float.__repr__


def _finite(*arrays: np.ndarray) -> None:
    for array in arrays:
        if not np.isfinite(array).all():
            raise ValueError("Out of range float values are not JSON compliant")


def _time(t: float) -> str:
    """``t``'s text, as ``json`` writes a float; ValueError if not finite."""
    if not math.isfinite(t):
        raise ValueError(f"Out of range float values are not JSON compliant: {t!r}")
    return _float(t)


def truth_line(t: float, truth: Truth) -> bytes:
    """The replay line of the ground truth at one time."""
    _finite(truth.positions, truth.velocities, truth.extents)
    objects = ",".join([
        f'{{"extent":[{",".join(map(_float, extent))}],"id":{oid},'
        f'"position":[{",".join(map(_float, position))}],'
        f'"velocity":[{",".join(map(_float, velocity))}]}}'
        for oid, position, velocity, extent in zip(
            truth.ids, truth.positions.tolist(), truth.velocities.tolist(),
            truth.extents.tolist())])
    return f'{{"t":{_time(t)},"truth":[{objects}]}}\n'.encode()


def _truth(entries: list) -> Truth:
    """A truth line's entries as one checked batch."""
    # an object of 4 keys that holds another key lacks one read here:
    # ``get`` reads it as None, which no check passes
    ids = tuple([e.get("id") for e in entries if type(e) is dict and len(e) == 4])
    if len(ids) != len(entries) or not all([type(i) is int for i in ids]):
        raise ValueError("every truth entry is exactly an integer id, a position, a "
                         "velocity and an extent")
    if not all(map(is_i64, ids)):
        raise ValueError("truth ids must fit in 64 bits")
    stacked = payload_array([[e.get("position"), e.get("velocity"), e.get("extent")]
                             for e in entries], (len(ids), 3, 3))
    if not np.isfinite(stacked).all():
        raise ValueError("truth positions, velocities and extents must be finite")
    # one C-contiguous (n, 3) array per field
    positions, velocities, extents = stacked.transpose(1, 0, 2).copy()
    if not (extents > 0.0).all():
        raise ValueError("truth extent components must be > 0")
    if len(set(ids)) != len(ids):
        raise ValueError("truth ids must be unique within a line")
    return Truth(ids, positions, velocities, extents)


# Each sensor type's entry, in row order, and each kind of line's keys.
_ROW_FIELDS = {"camera": "exactly a bbox of 4 numbers and a score",
               "radar": "exactly a position of 3 numbers, a radial speed and an optional SNR"}
_TRUTH_KEYS = frozenset({"t", "truth"})
_DETECTION_KEYS = frozenset({"t", "agent", "sensor", "type", "detections"})


def detection_line(t: float, agent: str, sidx: int, stype: str, rows: np.ndarray) -> bytes:
    """The replay line of one sensor tick's measurement rows."""
    _finite(rows)
    if stype == "camera":
        dets = ",".join([f'{{"bbox":[{_float(umin)},{_float(vmin)},{_float(umax)},'
                         f'{_float(vmax)}],"score":{_float(score)}}}'
                         for umin, vmin, umax, vmax, score in rows.tolist()])
    else:
        dets = ",".join([f'{{"position":[{_float(x)},{_float(y)},{_float(z)}],'
                         f'"radial_speed":{_float(speed)},"snr":{_float(snr)}}}'
                         for x, y, z, speed, snr in rows.tolist()])
    return (f'{{"agent":{json.dumps(agent)},"detections":[{dets}],"sensor":{sidx},'
            f'"t":{_time(t)},"type":{json.dumps(stype)}}}\n').encode()


def track_lines(t: float, agent: str, ids: tuple[int, ...], confirmed: tuple[bool, ...],
                nums: np.ndarray) -> bytes:
    """The tracks-output lines of one flush's tracks: ids, confirmed
    flags, and the ``(n, 2, 6)`` means and covariance diagonals."""
    _finite(nums)
    head = f'{{"agent":{json.dumps(agent)},"cov_diag":['
    tail = f'"t":{_time(t)}}}\n'
    return "".join([
        f'{head}{",".join(map(_float, cov_diag))}],"id":{tid},'
        f'"mean":[{",".join(map(_float, mean))}],'
        f'"status":"{CONFIRMED if conf else TENTATIVE}",{tail}'
        for tid, conf, (mean, cov_diag) in zip(ids, confirmed, nums.tolist())]).encode()


def _detection_rows(stype: str, dets: list) -> np.ndarray:
    """A detection line's entries as one checked ``(n, 5)`` array."""
    # an entry with another key reads a None, as in ``_truth``
    if stype == "camera":
        rows = [[*d["bbox"], d.get("score")] for d in dets
                if type(d) is dict and len(d) == 2 and type(d.get("bbox")) is list]
    else:
        rows = [[*d["position"], d.get("radial_speed"), d.get("snr", 0.0)] for d in dets
                if type(d) is dict and len(d) == 2 + ("snr" in d)
                and type(d.get("position")) is list]
    if len(rows) != len(dets):
        raise ValueError(f"every {stype} detection is {_ROW_FIELDS[stype]}")
    array = payload_array(rows, (len(rows), 5))
    # A line holds a few rows, and comparing Python floats costs less than
    # array operations.
    if stype == "camera":
        for umin, vmin, umax, vmax, score in array.tolist():
            if not (-math.inf < umin < umax < math.inf and -math.inf < vmin < vmax < math.inf):
                raise ValueError(f"degenerate or infinite bbox {[umin, vmin, umax, vmax]}")
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score {score} outside [0, 1]")
    else:
        for x, y, z, speed, snr in array.tolist():
            # a sum of squares, in any order, is 0 exactly when every square
            # is 0 or underflows: the range > 0 test of ``geometry.norms``
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
                    and x * x + y * y + z * z > 0.0):
                raise ValueError("radar point needs a finite position with range > 0")
            if not (math.isfinite(speed) and math.isfinite(snr)):
                raise ValueError("radar radial speed and SNR must be finite")
    return array


def load_replay(text: str) -> ReplayData:
    """Parse and validate a replay JSONL document."""
    detections: dict[tuple[float, str, int], np.ndarray] = {}
    sensor_types: dict[tuple[str, int], str] = {}
    truth: dict[float, Truth] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:  # a line's reader raises only ValueError (malformed JSON too)
            line = canonical_loads(raw)
            is_truth = type(line) is dict and "truth" in line
            keys = _TRUTH_KEYS if is_truth else _DETECTION_KEYS
            # every key of a line is read below, so a line of as many keys
            # holds no other: the set test runs only for another length
            if type(line) is not dict or len(line) != len(keys):
                payload_keys(line, keys, "the line")
            t = payload_field(line, "t", float)
            if is_truth:
                if t in truth:
                    raise ValueError(f"duplicate truth line for t={t}")
                truth[t] = _truth(payload_field(line, "truth", list))
                continue
            sidx = payload_field(line, "sensor", int)
            aid, stype = payload_field(line, "agent", str), payload_field(line, "type", str)
            if stype not in _ROW_FIELDS:
                raise ValueError(f"unknown sensor type {stype!r}")
            if sensor_types.setdefault((aid, sidx), stype) != stype:
                raise ValueError(f"sensor ({aid}, {sidx}) changes type")
            key = (t, aid, sidx)
            if key in detections:
                raise ValueError(f"duplicate detection line for {key}")
            detections[key] = _detection_rows(stype, payload_field(line, "detections", list))
        except ValueError as e:
            raise ReplayError(str(e), lineno) from None
    return ReplayData(detections, sensor_types, sorted(truth), truth)
