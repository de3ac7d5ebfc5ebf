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

The loader holds every line to what a live run guarantees, and a bad
line raises ``ReplayError`` with its line number:

* every line: a finite number ``t``; a detection line an integer
  ``sensor``;
* a detection row: a finite camera box with ``umin < umax`` and
  ``vmin < vmax`` and a score in [0, 1], or a finite radar position with
  range > 0 and a finite radial speed and SNR; a bbox of exactly 4
  numbers and a position of exactly 3;
* a truth line: at most one per ``t``, with unique integer ids; a
  position, velocity and extent of exactly 3 finite numbers each, and
  extent components > 0.

Numbers are typed as on the bus, never converted: ``t``, ``sensor`` and
a truth id pass ``bus.payload_field``'s rule (a bool, a numeric string
or a fractional id is refused), and a line's rows or vectors, stacked,
``bus.payload_array``'s, which types each number once (a bool, a
string or a null is refused).  A row or vector of the wrong length is
refused, never reshaped.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from ..bus import payload_array, payload_field
from ..sensing import Truth
from ..tracker import CONFIRMED, TENTATIVE

# What reading a line's field as a number can raise.
_FIELD_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


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

    def detections_at(self, t: float, agent: str, sidx: int) -> np.ndarray:
        """The rows of a recorded tick."""
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


def _truth(entries, lineno: int) -> Truth:
    """A truth line's entries as one checked batch."""
    if not isinstance(entries, list):
        raise ReplayError("'truth' must be a list", lineno)
    try:
        ids = tuple([payload_field(entry, "id", int) for entry in entries])
        vectors = [[entry["position"], entry["velocity"], entry["extent"]] for entry in entries]
    except _FIELD_ERRORS as e:
        raise ReplayError(f"bad truth entry: {e}", lineno)
    try:
        stacked = payload_array(vectors, (len(ids), 3, 3))
    except ValueError:
        raise ReplayError("every truth object needs a position, a velocity and an "
                          "extent of 3 numbers each", lineno)
    if not np.isfinite(stacked).all():
        raise ReplayError("truth positions, velocities and extents must be finite", lineno)
    # one C-contiguous (n, 3) array per field
    positions, velocities, extents = stacked.transpose(1, 0, 2).copy()
    if not (extents > 0.0).all():
        raise ReplayError("truth extent components must be > 0", lineno)
    if len(set(ids)) != len(ids):
        raise ReplayError("truth ids must be unique within a line", lineno)
    return Truth(ids, positions, velocities, extents)


# The sensor types a detection line may name, and what each of its entries
# holds, in row order.
_ROW_FIELDS = {"camera": "a bbox of 4 numbers and a score",
               "radar": "a position of 3 numbers, a radial speed and an SNR"}


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


def _detection_rows(stype: str, dets, lineno: int) -> np.ndarray:
    """A detection line's entries as one checked ``(n, 5)`` array."""
    try:
        if stype == "camera":
            rows = [[*d["bbox"], d["score"]] for d in dets]
        else:
            rows = [[*d["position"], d["radial_speed"], d.get("snr", 0.0)] for d in dets]
    except _FIELD_ERRORS as e:
        raise ReplayError(f"bad detection entry: {e}", lineno)
    try:
        array = payload_array(rows, (len(rows), 5))
    except ValueError:
        raise ReplayError(f"every {stype} detection needs {_ROW_FIELDS[stype]}", lineno)
    # A line holds a few rows, and comparing Python floats costs less than
    # array operations.
    if stype == "camera":
        for umin, vmin, umax, vmax, score in array.tolist():
            if not (-math.inf < umin < umax < math.inf and -math.inf < vmin < vmax < math.inf):
                raise ReplayError(f"degenerate or infinite bbox {[umin, vmin, umax, vmax]}", lineno)
            if not 0.0 <= score <= 1.0:
                raise ReplayError(f"score {score} outside [0, 1]", lineno)
    else:
        for x, y, z, speed, snr in array.tolist():
            # a sum of squares, in any order, is 0 exactly when every square
            # is 0 or underflows: the range > 0 test of ``geometry.norms``
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
                    and x * x + y * y + z * z > 0.0):
                raise ReplayError("radar point needs a finite position with range > 0", lineno)
            if not (math.isfinite(speed) and math.isfinite(snr)):
                raise ReplayError("radar radial speed and SNR must be finite", lineno)
    return array


def load_replay(text: str) -> ReplayData:
    """Parse and validate a replay JSONL document."""
    detections: dict[tuple[float, str, int], np.ndarray] = {}
    sensor_types: dict[tuple[str, int], str] = {}
    truth: dict[float, Truth] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ReplayError(f"malformed JSON: {e.msg}", lineno)
        if not isinstance(obj, dict) or "t" not in obj:
            raise ReplayError("every line needs a 't' field", lineno)
        try:
            t = float(payload_field(obj, "t", float))
        except _FIELD_ERRORS as e:
            raise ReplayError(f"bad 't': {e}", lineno)
        if "truth" in obj:
            if t in truth:
                raise ReplayError(f"duplicate truth line for t={t}", lineno)
            truth[t] = _truth(obj["truth"], lineno)
            continue
        for key in ("agent", "sensor", "type", "detections"):
            if key not in obj:
                raise ReplayError(f"detection line missing {key!r}", lineno)
        try:
            sidx = payload_field(obj, "sensor", int)
        except _FIELD_ERRORS as e:
            raise ReplayError(f"bad 'sensor': {e}", lineno)
        aid, stype = str(obj["agent"]), obj["type"]
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
