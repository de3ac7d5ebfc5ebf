"""Output lines held as compact records until they are serialised.

The engine records the track lines of a flush as the ids and confirmed
flags of the tracker's batch plus one float64 array of their numbers,
each detection line as the tick's sensing array, and each ground-truth
line as the truth batch, and ``RunReport`` rebuilds the lines only when
asked for bytes.  These tests pin that:

* the line writers give the bytes the lines themselves give
  (``canonical_dumps`` of each line's dict, as built from the track
  batches, measurement rows and truth rows), for any finite numbers, any
  agent string, ids of any size and a ``t`` that is a numpy float64;
* a track record copies its means and covariance diagonals, so later
  writes to the batch's estimate arrays do not reach the output;
* a detection record is the tick's sensing array itself, and a truth
  record the batch ``world_at`` returned, which nothing writes to after
  they are returned;
* a non-finite number in any array of a record, or a non-finite ``t``,
  makes the writer raise ``ValueError``, as it makes ``canonical_dumps``;
* memory grows with a run's length by no more than its output bytes do.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fusionsim.bus import canonical_dumps
from fusionsim.scenario import engine as engine_module
from fusionsim.scenario import apply_overrides, load_scenario
from fusionsim.scenario.engine import Engine, RunReport, _track_record
from fusionsim.sensing import Truth
from fusionsim.tracker import CONFIRMED, TENTATIVE, TrackerConfig, Tracks, spawn

REPO = Path(__file__).resolve().parent.parent

# Any finite float, with the ones whose text is easiest to get wrong drawn
# more often: signed zero, subnormals, integral floats, the powers of ten
# where repr turns to exponent form, and magnitudes near the top.
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 20.0,
                     1e16, -1e16, 1e22, 2.0**53]),
    st.integers(-2**60, 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
# A time as a float or a numpy float64, which json writes as the same text.
TIMES = st.floats(0.0, 1e4, allow_nan=False).flatmap(
    lambda t: st.sampled_from([t, np.float64(t)]))
# Any string: non-ASCII text, quotes, backslashes and JSON punctuation.
AGENTS = st.one_of(st.sampled_from(["ego", "rsu1", '", "', "\\", "%s{}"]), st.text())
# Ids up to and beyond the int64 and uint64 limits.
IDS = st.one_of(st.integers(0, 10**6), st.sampled_from([2**63 - 1, 2**63, 2**64]),
                st.integers(0, 2**70))


def vector(n):
    return st.lists(FLOATS, min_size=n, max_size=n).map(np.array)


@st.composite
def tracks(draw):
    """A track batch of up to four tracks, zero included."""
    n = draw(st.integers(0, 4))
    batch = spawn(0, draw(vector(6 * n)).reshape(n, 6), draw(vector(36 * n)).reshape(n, 6, 6),
                  TrackerConfig())
    # an id beyond int64 needs an object array, whose tolist gives it back
    ids = draw(st.lists(IDS, min_size=n, max_size=n))
    ids = np.array(ids, dtype=int if all(i < 2**63 for i in ids) else object)
    confirmed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return Tracks(ids, batch.means, batch.covs, confirmed, batch.misses, batch.window)


@st.composite
def boxes(draw):
    """A camera row, as Python floats."""
    umin, umax = sorted(draw(st.lists(FLOATS, min_size=2, max_size=2, unique=True)))
    vmin, vmax = sorted(draw(st.lists(FLOATS, min_size=2, max_size=2, unique=True)))
    score = draw(st.one_of(st.sampled_from([-0.0, 5e-324, 1.0]), st.floats(0.0, 1.0)))
    return (umin, vmin, umax, vmax, score)


# A radar row, as Python floats: position, radial speed and SNR.
POINTS = st.tuples(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS)


@st.composite
def truths(draw):
    """A truth batch of up to four objects, zero included."""
    n = draw(st.integers(0, 4))
    ids = draw(st.lists(IDS, min_size=n, max_size=n))
    return Truth(tuple(ids), *(draw(vector(3 * n)).reshape(n, 3) for _ in range(3)))


def flushes():
    return st.lists(st.tuples(TIMES, AGENTS, tracks()), max_size=4)


def replay_events():
    camera = st.tuples(st.just("camera"), TIMES, AGENTS, st.integers(0, 3),
                       st.lists(boxes(), max_size=4))
    radar = st.tuples(st.just("radar"), TIMES, AGENTS, st.integers(0, 3),
                      st.lists(POINTS, max_size=4))
    truth = st.tuples(st.just("truth"), TIMES, truths())
    return st.lists(st.one_of(camera, radar, truth), max_size=6)


def jsonl(lines):
    return b"".join(canonical_dumps(line) + b"\n" for line in lines)


def track_lines(flushed):
    """Each track's line as a dict built from its row of the batch."""
    return [{"t": t, "agent": agent, "id": int(trs.ids[i]),
             "status": CONFIRMED if trs.confirmed[i] else TENTATIVE,
             "mean": trs.means[i].tolist(), "cov_diag": trs.covs[i].diagonal().tolist()}
            for t, agent, trs in flushed for i in range(len(trs))]


def detection_dict(kind, row):
    if kind == "camera":
        return {"bbox": list(row[:4]), "score": row[4]}
    return {"position": list(row[:3]), "radial_speed": row[3], "snr": row[4]}


def replay_lines(events):
    """Each replay line as a dict built from the detections or truth rows."""
    lines = []
    for kind, t, *rest in events:
        if kind == "truth":
            truth = rest[0]
            lines.append({"t": t, "truth": [
                {"id": oid, "position": position.tolist(), "velocity": velocity.tolist(),
                 "extent": extent.tolist()}
                for oid, position, velocity, extent in zip(
                    truth.ids, truth.positions, truth.velocities, truth.extents)]})
        else:
            agent, sidx, dets = rest
            lines.append({"t": t, "agent": agent, "sensor": sidx, "type": kind,
                          "detections": [detection_dict(kind, row) for row in dets]})
    return lines


def records(flushed, events):
    """A report holding the records the engine makes of the same lines; a
    detection record holds the array sensing returns for its rows, and a
    truth record the batch."""
    track_records = [_track_record(t, agent, trs) for t, agent, trs in flushed if len(trs)]
    replay_records = []
    for kind, t, *rest in events:
        if kind == "truth":
            replay_records.append((t, rest[0]))
        else:
            agent, sidx, dets = rest
            rows = np.array(dets, dtype=float).reshape(-1, 5)
            replay_records.append((t, agent, sidx, kind, rows))
    return RunReport({}, track_records, replay_records)


@settings(max_examples=30, deadline=None)
@given(flushed=flushes(), events=replay_events())
@example(flushed=[], events=[("truth", 0.0, Truth((), np.empty((0, 3)), np.empty((0, 3)),
                                                   np.empty((0, 3)))),
                             ("camera", 0.1, "ego", 0, []),
                             ("radar", 0.1, "ego", 1, [])])
def test_records_write_the_bytes_of_the_lines(flushed, events):
    report = records(flushed, events)
    assert report.track_jsonl() == jsonl(track_lines(flushed))
    assert report.replay_jsonl() == jsonl(replay_lines(events))


def test_track_records_copy_their_numbers():
    track = spawn(7, np.arange(6.0)[None], np.diag(np.arange(1.0, 7.0))[None],
                  TrackerConfig())
    report = records([(0.1, "ego", track)], [])
    before = report.track_jsonl()
    for array in (track.means, track.covs):
        array[...] = -1.0
    assert report.track_jsonl() == before


def test_detection_records_are_the_sensing_arrays_and_nothing_writes_them(
        scenario_dir, monkeypatch):
    # every array camera_observe and radar_observe return in a 1 s urban
    # cr-covi run is recorded as it is, and still holds its numbers at the end
    returned = []

    def kept(observe):
        def wrapper(*args, **kwargs):
            rows = observe(*args, **kwargs)
            returned.append((rows, rows.copy()))
            return rows
        return wrapper

    for name in ("camera_observe", "radar_observe"):
        monkeypatch.setattr(engine_module, name, kept(getattr(engine_module, name)))
    report = run_urban_covi(scenario_dir)
    recorded = [record[-1] for record in report.replay_records if len(record) == 5]
    assert len(recorded) == len(returned) > 0
    for rows, (array, copy) in zip(recorded, returned):
        assert rows is array
        assert np.array_equal(rows, copy) and rows.dtype == np.float64


def test_truth_records_are_the_world_at_batches_and_nothing_writes_them(
        scenario_dir, monkeypatch):
    # every truth record of a 1 s urban cr-covi run is a batch world_at
    # returned, and every batch it returned still holds its numbers at the end
    returned = []
    world_at = engine_module.world_at

    def kept(*args):
        truth = world_at(*args)
        returned.append((truth, [array.copy() for array in truth[1:]]))
        return truth

    monkeypatch.setattr(engine_module, "world_at", kept)
    report = run_urban_covi(scenario_dir)
    recorded = [record[1] for record in report.replay_records if len(record) == 2]
    assert len(recorded) > 0
    assert all(any(truth is batch for batch, _ in returned) for truth in recorded)
    for batch, copies in returned:
        for array, copy in zip(batch[1:], copies):
            assert np.array_equal(array, copy) and array.dtype == np.float64
            assert array.flags.c_contiguous


def run_urban_covi(scenario_dir):
    """The report of a 1 s urban cr-covi run."""
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 1.0
    return Engine(apply_overrides(load_scenario(json.dumps(doc)), mode="cr-covi")).run()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_track_mean_raises(bad):
    mean = np.zeros(6)
    mean[2] = bad
    track = spawn(1, mean[None], np.eye(6)[None], TrackerConfig())
    with pytest.raises(ValueError):
        RunReport({}, [_track_record(0.5, "ego", track)], []).track_jsonl()


def track_with(t=0.5, mean=0.0, cov_diag=1.0):
    """A flush of one track whose mean and covariance diagonal hold the
    numbers given."""
    track = spawn(1, np.full((1, 6), mean), np.diag(np.full(6, cov_diag))[None],
                  TrackerConfig())
    return [(t, "ego", track)], []


def truth_with(t=0.5, **fields):
    """A truth line of two objects whose named vector fields hold the
    numbers given."""
    vectors = {name: np.ones((2, 3)) for name in ("positions", "velocities", "extents")}
    for name, value in fields.items():
        vectors[name][1, 2] = value
    return [], [("truth", t, Truth((1, 2), **vectors))]


# Where a non-finite number sits, as the (flushed, events) that hold it.
NON_FINITE_AT = {
    "track cov_diag": lambda bad: track_with(cov_diag=bad),
    "track t": lambda bad: track_with(t=bad),
    "camera row": lambda bad: ([], [("camera", 0.5, "ego", 0, [(1.0, 2.0, bad, 4.0, 1.0)])]),
    "radar row": lambda bad: ([], [("radar", 0.5, "ego", 1, [(1.0, 2.0, 3.0, -2.0, bad)])]),
    "detection t": lambda bad: ([], [("radar", bad, "ego", 1, [])]),
    "truth position": lambda bad: truth_with(positions=bad),
    "truth velocity": lambda bad: truth_with(velocities=bad),
    "truth extent": lambda bad: truth_with(extents=bad),
    "truth t": lambda bad: truth_with(t=bad),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", NON_FINITE_AT)
def test_a_non_finite_number_is_refused_as_canonical_dumps_refuses_it(where, bad):
    flushed, events = NON_FINITE_AT[where](bad)
    with pytest.raises(ValueError):
        jsonl(track_lines(flushed) + replay_lines(events))
    report = records(flushed, events)
    with pytest.raises(ValueError):
        report.track_jsonl()
        report.replay_jsonl()


# One run in a fresh process: its peak resident memory after ``Engine.run``
# and the size of its three outputs, both in bytes.  The peak is the
# process's VmHWM, not ``ru_maxrss``: at exec, Linux folds the spawning
# process's high-water mark into ``ru_maxrss``, so a child of a large test
# process would report the test process's peak instead of its own.
RUN_CROWD = """
import json, re, sys
sys.path.insert(0, sys.argv[1])
from workloads import URBAN, crowd_objects, outputs
from fusionsim.scenario import apply_overrides, load_scenario
from fusionsim.scenario.engine import Engine

doc = json.loads(URBAN.read_text())
doc["objects"] = crowd_objects(42, 12)
doc["duration"] = float(sys.argv[2])
report = Engine(apply_overrides(load_scenario(json.dumps(doc)), mode="cr-dist", seed=42)).run()
with open("/proc/self/status") as status:
    peak = 1024 * int(re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1))
print(json.dumps([peak, sum(len(part) for part in outputs(report))]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_memory_grows_no_faster_than_the_outputs():
    # A generated 12-object cr-dist run at 5 s and at 20 s: what the run
    # keeps for its outputs may not cost more memory than the outputs'
    # bytes.  Held as dicts of lists, it cost several times that.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    runs = [subprocess.Popen([sys.executable, "-c", RUN_CROWD, str(REPO / "perfbench"), seconds],
                             env=env, stdout=subprocess.PIPE, text=True)
            for seconds in ("5", "20")]
    (peak_short, out_short), (peak_long, out_long) = (
        json.loads(run.communicate(timeout=120)[0].splitlines()[-1]) for run in runs)
    assert all(run.returncode == 0 for run in runs)
    assert out_long > out_short
    assert peak_long - peak_short <= out_long - out_short
