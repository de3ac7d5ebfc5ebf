"""System-level contracts of the event loop, per scenario and mode.

* determinism: two runs of one input give byte-identical outputs;
* replay: driving a scenario from its own ``replay.jsonl`` gives the same
  tracks without calling sensing or ``world_at``, and a replay whose
  sensor types differ from the scenario's is refused when the engine is
  built;
* bus accounting: every frame sent is delivered, dropped, or due after
  the end of the run;
* offload: the broker conserves tasks, also when a result names a task
  that was never submitted, and a result that names a pending task but
  not its frame time changes nothing; with one flaky, slow edge worker, urban
  ``cr-dist`` fills its queue, retries, fails and times out tasks, and
  is a full case, so it meets every contract here;
* singular pairs: with noiseless radar and edge workers, the tracker
  gate counts each pair with a singular summed covariance and skips its
  measurement, and the run goes on; so does the collaboration gate when
  a peer's tracks arrive with zero covariance; noiseless urban
  ``cr-dist`` is a full case, so it meets every contract here;
* bounded caches: the live source keeps ground truth, and the engine
  poses, for one event time only;
* collaboration: urban ``cr-covi`` fuses remote tracks, through the
  collab functions the benchmark hooks by name, and in urban and
  occlusion ``cr-covi`` every batch a tracker receives is keyed after its
  newest key, so no tracker rolls back over a remote fusion;
* malformed frames: a delivery that is not exactly one frame, a frame
  that does not parse (a task result's status is ``ok`` or ``failed``,
  and a task request's frame time lies inside the scenario),
  one whose topic names no worker the run has, TRACKS whose topic names
  no sensor agent the run has, or
  TRACKS that no flush reads (outside ``cr-covi``, or to an agent without
  sensors), is counted and skipped, and the run goes on;
* golden outputs: each case's outputs hash to the recorded digests, and
  a crowd run long enough to score predictions gives pinned ADE and FDE;
* missing truth: a replay whose truth lines leave out a matched object
  leaves that object's predictions unscored (``ReplayData.positions``
  does not find it), and the run goes on;
* relations between runs, each on 2 s urban and on 2 s urban with
  ``crowd_grid(12)`` for its objects, at two seeds, sharing their
  unedited runs through one cache:
  - R1, translation: in every mode, shifting every agent and object by
    (1000, -500, 0) m keeps each track line's time, agent, id and status,
    moves its position by the shift within 1e-9 m, keeps every metric but
    MOTP and OSPA exactly, and those within 1e-12 relative;
  - R3, ``cr-dist`` reduced to ``cr``: ``cr-dist`` with workers that fail
    every task, or with every bus frame dropped, gives ``cr``'s track
    bytes;
  - R4, ``cr-covi`` reduced to ``cr``: ``cr-covi`` with every bus frame
    dropped gives ``cr``'s track bytes;
  - R5, stream independence: in every mode, a sensor agent added 7 km
    away, its id sorting first or last, leaves the ego's track lines and
    every other replay line byte-identical.
* a sensor-less ego: every mode runs, and ``cr-dist`` submits no task;
* periodic events: each sensor, the metric sampler and each ``cr-dist``
  worker's heartbeat keep one event in the heap, yet a run handles the
  events, in the order, of a reference schedule that pushes every
  periodic event up front, and gives its bytes, on drawn scenes of 0-3
  sensor agents at coinciding and non-coinciding rates, live or from an
  edited replay; a delivery at a tick time, injected or over a link
  without latency, runs after every tick, metric sample and heartbeat
  send at that time; a worker sends a heartbeat every
  ``heartbeat_interval`` from 0; every run logs its frames in send order;
  and building an hour-long run sends no frame, holds one event per
  source and allocates no more than building 30 s.
"""

import functools
import gc
import hashlib
import heapq
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fusionsim import bus, collab
from fusionsim.geometry import Pose
from fusionsim.offload import STATUS_OK
from fusionsim.scenario import apply_overrides, load_replay, load_scenario
from fusionsim.scenario import engine as engine_module
from fusionsim.scenario.engine import (_DELIVERY, KIND_DELIVER, KIND_HEARTBEAT, KIND_METRIC,
                                       KIND_TASK, KIND_TICK, Engine)
from fusionsim.scenario.model import MODES
from fusionsim.scenario.replay import ReplayError
from fusionsim.tracker import Tracker

# (scenario, mode, shortened duration, crowd, variant).  cr-dist runs
# 8 s: by then an edge task has been sent while an object was out of the
# camera's view, so the replay check covers how edge tasks pick the
# objects they see.  A crowd case replaces the scenario's objects by
# ``crowd_grid(crowd)``.  A variant edits the scenario document: a
# noiseless case zeroes the radar and edge worker noise (``noiseless``),
# so edge results meet singular pairs; a flaky case leaves one edge worker
# that fails some tasks and may take longer than the timeout (``flaky``),
# so the broker queues, retries and times tasks out.
CASES = [
    ("urban.json", "cr", 3.0, 0, ""),
    ("urban.json", "cr-covi", 3.0, 0, ""),
    ("occlusion.json", "cr", 3.0, 0, ""),
    ("occlusion.json", "cr-covi", 3.0, 0, ""),
    ("urban.json", "cr-dist", 8.0, 0, ""),
    ("urban.json", "cr", 1.5, 40, ""),
    ("urban.json", "cr-dist", 8.0, 0, "noiseless"),
    ("urban.json", "cr-dist", 8.0, 0, "flaky"),
]

# Box sizes (l, w, h) the crowd cycles through: car, cyclist, van, bus.
CROWD_EXTENTS = ((4.5, 1.9, 1.6), (2.0, 0.8, 1.8), (4.2, 1.8, 1.5), (8.5, 2.5, 3.2))


def crowd_grid(n):
    """``n`` constant-velocity objects on a grid in front of urban's ego:
    rows 8 m apart from 12 m out, columns 3.5 m apart, so near boxes cover
    far ones in the cameras and radar sees many returns per tick."""
    objects = []
    for k in range(n):
        row, col = divmod(k, 8)
        extent = CROWD_EXTENTS[k % len(CROWD_EXTENTS)]
        objects.append({
            "id": k + 1,
            "extent": list(extent),
            "motion": {"kind": "cv",
                       "p0": [12.0 + 8.0 * row, 3.5 * (col - 3.5), extent[2] / 2.0],
                       "v": [0.5 * (k % 3 - 1), 0.25 * (k % 5 - 2), 0.0]},
        })
    return objects


def noiseless(doc):
    """Zero range and azimuth noise on every radar and the edge workers:
    their detections then have zero covariance."""
    zero = {"range_sigma": 0.0, "azimuth_sigma": 0.0}
    for agent in doc["agents"]:
        for sensor in agent.get("sensors", []):
            if sensor["type"] == "radar":
                sensor["noise"] = dict(zero)
    doc["pipeline"]["worker"]["profile"] = dict(zero)
    return doc


def flaky(doc):
    """One edge worker whose latency often passes a 0.1 s timeout, up to
    fifteenfold, and which fails a tenth of its tasks: with a task per
    camera frame it is often busy, so tasks queue, time out and are
    retried.  A retry is dropped when it finds the queue full, or when it
    times out again before its first attempt's result arrives, which
    takes a latency well past the timeout, since a task's timeout runs
    only while it is on the worker."""
    for agent in doc["agents"]:
        if agent["kind"] == "edge-server":
            agent["workers"] = 1
    doc["pipeline"]["timeout"] = 0.1
    doc["pipeline"]["worker"].update(lat_min=0.02, lat_max=1.5, p_fail=0.1)
    return doc


VARIANTS = {"noiseless": noiseless, "flaky": flaky}


def case_id(name, mode, duration, crowd, variant):
    return f"{'crowd' if crowd else name[:-5]}-{mode}" + (f"-{variant}" if variant else "")


def scenario(scenario_dir, name, mode, duration, crowd, variant):
    doc = json.loads((scenario_dir / name).read_text())
    doc["duration"] = duration
    if crowd:
        doc["objects"] = crowd_grid(crowd)
    if variant:
        VARIANTS[variant](doc)
    return apply_overrides(load_scenario(json.dumps(doc)), mode=mode)


def outputs(report):
    return report.report_bytes(), report.track_jsonl(), report.replay_jsonl()


@pytest.fixture(scope="module", params=CASES, ids=[case_id(*c) for c in CASES])
def case(request, scenario_dir):
    sc = scenario(scenario_dir, *request.param)
    engine = Engine(sc)
    return sc, engine, engine.run()


def test_two_runs_byte_identical(case):
    sc, _, report = case
    assert outputs(Engine(sc).run()) == outputs(report)


def test_outputs_match_golden_digests(case, request, golden_dir):
    # sha256 of each case's three outputs.  Regenerate the file only together
    # with a CHANGES.md entry that lists the metric deltas the new bytes carry.
    golden = json.loads((golden_dir / "output_digests.json").read_text())
    _, _, report = case
    names = ("report_bytes", "track_jsonl", "replay_jsonl")
    digests = {n: hashlib.sha256(b).hexdigest() for n, b in zip(names, outputs(report))}
    assert digests == golden[case_id(*request.node.callspec.params["case"])]


def test_replay_reproduces_tracks(case, monkeypatch):
    sc, _, report = case
    replay = load_replay(report.replay_jsonl().decode())

    def live_only(*args, **kwargs):
        raise AssertionError("a replay run reads live input")

    for name in ("camera_observe", "radar_observe", "world_at"):
        monkeypatch.setattr(engine_module, name, live_only)
    replayed = Engine(sc, replay=replay).run()
    assert replayed.track_jsonl() == report.track_jsonl()


def test_crowd_prediction_scores_are_pinned(scenario_dir):
    # the golden crowd case ends before the first prediction horizon does,
    # so no digest covers prediction scoring at crowd size: a 3 s run scores
    # the matches of its first 11 metric samples, 379 in all
    sc = apply_overrides(scenario(scenario_dir, "urban.json", "cr", 3.0, 40, ""), seed=42)
    engine = Engine(sc)
    metrics = engine.run().report["metrics"]
    assert len(engine.agg.ade_samples) == 379
    assert (metrics["ade"], metrics["fde"]) == (3.737685739563377, 5.741376257820088)


def test_a_replay_with_another_sensor_type_is_refused_at_set_up(scenario_dir):
    # the ego's camera index carries the ego radar's lines: the rows would
    # read as boxes, so the engine refuses the replay before it runs
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 1.0
    sc = load_scenario(json.dumps(doc))
    lines = [json.loads(line) for line in Engine(sc).run().replay_jsonl().splitlines()]
    swapped = [dict(line, sensor=0) for line in lines
               if line.get("agent") == "ego" and line["type"] == "radar"]
    assert any(line["detections"] for line in swapped)
    replay = load_replay("\n".join(json.dumps(line) for line in swapped))
    with pytest.raises(ReplayError, match=r"\(ego, 0\) is a radar"):
        Engine(sc, replay=replay)


def run_keeping_matches(engine):
    """Run ``engine``; the (t, matches) of each metric sample, in order."""
    sample, frames = engine.agg.sample, []

    def keep(t, *arrays):
        matches = sample(t, *arrays)
        frames.append((t, matches))
        return matches

    engine.agg.sample = keep
    engine.run()
    return frames


def test_a_replay_that_loses_a_matched_object_goes_on_without_scoring_it(scenario_dir):
    # from t = 1.5 on, the truth lines of a 3 s urban replay leave out an
    # object the ego's tracks matched: its predicted waypoints past 1.5
    # have no truth, so each of its matches goes unscored, and the rest are
    # scored as in the whole replay
    sc = scenario(scenario_dir, "urban.json", "cr", 3.0, 0, "")
    lines = [json.loads(line) for line in Engine(sc).run().replay_jsonl().splitlines()]
    whole = Engine(sc, replay=load_replay("\n".join(json.dumps(line) for line in lines)))
    whole_frames = run_keeping_matches(whole)
    horizon = sc.metrics.prediction_horizon
    scored = [gid for t, matches in whole_frames if t + horizon <= sc.duration + 1e-9
              for gid, _, _ in matches]
    gone = min(scored)
    for line in lines:
        if "truth" in line and line["t"] > 1.5:
            line["truth"] = [entry for entry in line["truth"] if entry["id"] != gone]
    cut = Engine(sc, replay=load_replay("\n".join(json.dumps(line) for line in lines)))
    cut_frames = run_keeping_matches(cut)
    assert [f for f in cut_frames if f[0] <= 1.5] == [f for f in whole_frames if f[0] <= 1.5]
    assert len(whole.agg.ade_samples) == len(scored) and gone in scored
    assert cut.agg.ade_samples == [ade for ade, gid in zip(whole.agg.ade_samples, scored)
                                   if gid != gone]


def test_frames_and_tasks_accounted_for(case):
    sc, engine, _ = case
    counts = engine.bus_counts
    late = sum(1 for f in engine.frames_log
               if f["delivered_at"] is not None and f["delivered_at"] > sc.duration + 1e-9)
    assert counts["sent"] == counts["delivered"] + counts["dropped"] + late
    if sc.pipeline.mode != "cr":
        assert counts["delivered"] > 0
    if sc.pipeline.mode == "cr-dist":
        assert engine.broker.counters["submitted"] > 0
        assert engine.broker.conserved()


def test_caches_hold_one_event_time(case):
    _, engine, _ = case
    assert len(engine.source.truth_cache) <= 1
    assert len(engine._pose_cache) <= 1


@pytest.mark.parametrize("case", [CASES[1]], ids=["urban-cr-covi"], indirect=True)
def test_collaboration_fuses_remote_tracks(case):
    _, _, report = case
    collab = report.report["counters"]["collab"]
    assert sum(c["fused"] for c in collab.values()) > 0
    assert all("singular" not in c for c in collab.values())  # reported only when non-zero


def test_collaboration_runs_through_its_hooked_names(scenario_dir, monkeypatch):
    # the benchmark times align, association and CI by wrapping these
    # module globals; a step that stopped calling one would zero its span
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("align", "t2t_associate", "ci_omega", "ci_fuse")
    for name in names:
        monkeypatch.setattr(collab, name, counted(name, getattr(collab, name)))
    report = Engine(scenario(scenario_dir, "urban.json", "cr-covi", 1.0, 0, "")).run()
    assert sum(c["fused"] for c in report.report["counters"]["collab"].values()) > 0
    assert all(calls.get(name, 0) > 0 for name in names), calls


@pytest.mark.parametrize("spec", [CASES[1], CASES[3]],
                         ids=["urban-cr-covi", "occlusion-cr-covi"])
def test_cr_covi_trackers_never_roll_back(scenario_dir, monkeypatch, spec):
    # remote fusion replaces a tracker's tracks outside its batch history
    # (see Tracker), which is sound only while no batch is keyed at or
    # before the newest key of the tracker it goes to
    keys = {}
    process_batch = Tracker.process_batch

    def checked(self, key, detections):
        keys.setdefault(id(self), []).append((key, self.newest_key))
        return process_batch(self, key, detections)

    monkeypatch.setattr(Tracker, "process_batch", checked)
    engine = Engine(scenario(scenario_dir, *spec))
    engine.run()
    assert set(keys) == {id(rt.tracker) for rt in engine.agents.values()}
    for calls in keys.values():
        assert calls[0][1] is None
        assert all(key > newest for key, newest in calls[1:])


@pytest.mark.parametrize("case", [CASES[7]], ids=["urban-cr-dist-flaky"], indirect=True)
def test_flaky_worker_queues_retries_and_times_out(case):
    _, engine, report = case
    counters = report.report["counters"]["offload"]
    assert counters["retries"] > 0
    assert counters["timeout_dropped"] > 0
    assert counters["failed"] > 0
    assert counters["ok_integrated"] > 0
    assert counters["queue_dropped"] > 0  # tasks waited until the queue was full
    assert engine.broker.conserved()


def test_singular_edge_results_are_counted_and_skipped(scenario_dir):
    # noiseless radar and worker detections have zero covariance, so edge
    # results meet tracks whose innovation covariance is singular: the
    # tracker skips those detections and counts the pairs, and integrates
    # the rest of each result
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 1.0
    engine = Engine(apply_overrides(load_scenario(json.dumps(noiseless(doc))), mode="cr-dist"))
    counters = engine.run().report["counters"]
    offload = counters["offload"]
    assert "singular_dropped" not in offload
    assert offload["ok_integrated"] > offload["submitted"] / 2
    assert counters["tracker"]["ego"]["singular"] > 0
    assert engine.broker.conserved()


@pytest.mark.parametrize("case", [CASES[0], CASES[4]], ids=["urban-cr", "urban-cr-dist"],
                         indirect=True)
def test_tracker_singular_reported_only_when_non_zero(case):
    _, _, report = case
    assert "tracker" not in report.report["counters"]


@pytest.mark.parametrize("mode", MODES)
def test_a_sensor_less_ego_runs_in_every_mode(scenario_dir, mode):
    # the ego then has no agent state: it scores and submits nothing, yet
    # a cr-dist broker holds a tracker and the workers' heartbeats flow
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 2.0
    doc["agents"][0]["sensors"] = []
    engine = Engine(apply_overrides(load_scenario(json.dumps(doc)), mode=mode))
    report = engine.run().report
    assert "ego" not in engine.agents and report["confirmed_tracks_final"]["rsu1"]
    if mode == "cr-dist":
        assert engine.broker.counters["submitted"] == 0 and engine.broker.conserved()
        assert report["counters"]["bus"]["by_type"]["HEARTBEAT"] == 2 * 5


def test_singular_collab_pairs_are_counted_and_skipped(scenario_dir):
    # noiseless radar detections have zero covariance, so updated tracks
    # have (near) zero position covariance; a TRACKS frame that carries
    # the ego's own tracks with zero covariance, delivered at 0.5 s and
    # timestamped at the ego's next flush, so it is not predicted, makes
    # a singular S with each of them
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 1.0
    sc = apply_overrides(load_scenario(json.dumps(noiseless(doc))), mode="cr-covi")
    healthy = Engine(sc).run()
    t, _, ids, _, stack = next(r for r in healthy.track_records if r[1] == "ego" and r[0] > 0.5)
    frame = _tracks(500_000_000, timestamp=t, ids=list(ids), means=stack[:, 0].tolist(),
                    covs=np.zeros((len(ids), 6, 6)).tolist())
    engine = Engine(sc)
    engine._push(0.5, KIND_DELIVER, ("ego", frame))
    ego = engine.run().report["counters"]["collab"]["ego"]
    assert ego["singular"] > 0
    assert ego["fused"] > 0


# A pose whose rotation is a flat list, and one whose translation is
# numeric strings: ``Pose.from_payload`` refuses both.
FLAT_ROTATION = {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [1.0, 2.0, 3.0]}
STRING_TRANSLATION = {"rotation": np.eye(3).tolist(), "translation": ["1", "2", "3"]}


def _frame(now_ns, msg_type, topic, payload: dict | bytes = b"") -> bytes:
    if isinstance(payload, dict):
        payload = bus.canonical_dumps(payload)
    return bus.encode(bus.BusFrame(msg_type, now_ns, topic, payload))


def _tracks(now_ns, **fields):
    """A TRACKS frame with two remote tracks, ``fields`` replaced."""
    payload = {"sender_pose": Pose.identity().to_payload(), "timestamp": 0.4, "ids": [1, 2],
               "means": [[30.0, 0, 0, 0, 0, 0]] * 2, "covs": [np.eye(6).tolist()] * 2}
    return _frame(now_ns, bus.MSG_TRACKS, "tracks/rsu1", {**payload, **fields})


def _task_req(now_ns, topic, **fields):
    """A TASK_REQ frame on ``topic``, ``fields`` replaced."""
    payload = {"task_id": 500, "frame_time": 0.5, "visible_ids": [1],
               "rig_pose": Pose.identity().to_payload()}
    return _frame(now_ns, bus.MSG_TASK_REQ, topic, {**payload, **fields})


def _task_resp(now_ns, topic, **fields):
    """A TASK_RESP frame with one detection on ``topic``, ``fields`` replaced."""
    payload = {"task_id": 1, "status": STATUS_OK, "frame_time": 0.5, "positions": [[10.0, 0, 0]],
               "covs": [np.eye(3).tolist()]}
    return _frame(now_ns, bus.MSG_TASK_RESP, topic, {**payload, **fields})


def _accepted_frames(now_ns):
    """One frame of each message type that a ``cr-dist`` engine parses."""
    return [_tracks(now_ns), _task_req(now_ns, "tasks/edge1/w0"),
            _task_resp(now_ns, "results/ego/edge1/w0"),
            _frame(now_ns, bus.MSG_HEARTBEAT, "hb/edge1/w0")]


def _malformed_frames(now_ns):
    """Malformed frames of each message type a handler takes: truncated,
    garbage JSON, JSON that lacks every field (for a heartbeat, both are a
    payload where none belongs), and an accepted frame with bytes after
    it, and of each type with a payload, its accepted payload with one key
    more and inside a JSON list; a payload nested past the interpreter's
    recursion limit; then well-formed frames whose topic names no worker of the run (a
    task request, two heartbeats and a task result) or no sensor agent of
    it (three remote track messages, one from an agent without sensors);
    then one frame per refused field: a task request whose ``frame_time`` is a string or
    lies outside the 2 s scenario (1e6, -3.0 and 2.5 s; the worker reads
    the truth at it) or whose ``visible_ids`` holds a float, a remote
    track message whose id count differs from its row count or whose ids
    hold a bool or 2.5, a task result whose positions and covariances
    differ in row count, a
    task result whose status is neither ``ok`` nor ``failed``, and a
    remote track message and a task request whose pose has a flat
    rotation or a translation of strings, and a remote track message
    whose pose holds one key more."""
    frames = []
    for good in _accepted_frames(now_ns):
        frame = bus.decode(good)
        frames.append(good[:-5])
        frames.append(_frame(now_ns, frame.msg_type, frame.topic, b'{"ids": [1,'))
        frames.append(_frame(now_ns, frame.msg_type, frame.topic, b"{}"))
        frames.append(good + good[:3])
        if frame.payload:
            frames.append(_frame(now_ns, frame.msg_type, frame.topic,
                                 {**json.loads(frame.payload), "bogus": 1}))
            frames.append(_frame(now_ns, frame.msg_type, frame.topic,
                                 b"[" + frame.payload + b"]"))
    frames.append(_frame(now_ns, bus.MSG_TRACKS, "tracks/rsu1",
                         b"[" * 100_000 + b"]" * 100_000))
    frames.append(_task_req(now_ns, "tasks/edge1/w9"))
    frames.append(_frame(now_ns, bus.MSG_HEARTBEAT, "hb/edge1/w9"))
    frames.append(_frame(now_ns, bus.MSG_HEARTBEAT, "heartbeat/edge1/w0"))
    frames.append(_task_resp(now_ns, "results/ego/edge1/w9"))
    for topic in ("tracks/edge1", "tracks/nobody", "track/rsu1"):
        frames.append(_frame(now_ns, bus.MSG_TRACKS, topic, bus.decode(_tracks(now_ns)).payload))
    frames.append(_task_req(now_ns, "tasks/edge1/w0", frame_time="0.5"))
    for frame_time in (1e6, -3.0, 2.5):
        frames.append(_task_req(now_ns, "tasks/edge1/w0", frame_time=frame_time))
    frames.append(_task_req(now_ns, "tasks/edge1/w0", visible_ids=[1, 2.0]))
    frames.append(_tracks(now_ns, ids=[1]))
    frames.append(_tracks(now_ns, ids=[1, True]))
    frames.append(_tracks(now_ns, ids=[1, 2.5]))
    frames.append(_task_resp(now_ns, "results/ego/edge1/w0",
                             positions=[[10.0, 0, 0], [12.0, 0, 0]]))
    frames.append(_task_resp(now_ns, "results/ego/edge1/w0", status="banana"))
    for pose in (FLAT_ROTATION, STRING_TRANSLATION):
        frames.append(_tracks(now_ns, sender_pose=pose))
        frames.append(_task_req(now_ns, "tasks/edge1/w0", rig_pose=pose))
    frames.append(_tracks(now_ns, sender_pose={**Pose.identity().to_payload(), "bogus": 1}))
    return frames


def test_the_malformed_frames_edit_accepted_ones(scenario_dir):
    # each refused field is refused by its own check: the frame it edits parses
    doc = json.loads((scenario_dir / "urban.json").read_text())
    engine = Engine(apply_overrides(load_scenario(json.dumps(doc)), mode="cr-dist"))
    for data in _accepted_frames(500_000_000):
        frame = bus.decode(data)
        parse, _ = _DELIVERY[frame.msg_type]
        parse(engine, frame)


@pytest.mark.parametrize("mode", ["cr-covi", "cr-dist"])
def test_malformed_frames_are_counted_and_skipped(scenario_dir, mode):
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 2.0
    sc = apply_overrides(load_scenario(json.dumps(doc)), mode=mode)
    healthy = Engine(sc).run().report["counters"]["bus"]
    assert "malformed" not in healthy  # reported only when non-zero

    engine = Engine(sc)
    frames = _malformed_frames(500_000_000)
    dst = sorted(engine.agents)[0]
    for k, data in enumerate(frames):  # all inside the 2 s run
        engine._push(0.5 + 0.03 * k, KIND_DELIVER, (dst, data))
    counts = engine.run().report["counters"]["bus"]
    assert counts["malformed"] == len(frames)
    assert counts["delivered"] == healthy["delivered"] + len(frames)
    if mode == "cr-dist":
        assert engine.broker.counters["submitted"] > 0
        assert engine.broker.conserved()


@pytest.mark.parametrize("mode, dst", [("cr-dist", "ego"), ("cr-covi", "edge1")])
def test_tracks_no_flush_reads_are_malformed_and_never_queued(scenario_dir, mode, dst):
    # only a cr-covi flush drains an agent's remote-track queue, and only
    # a sensor agent flushes: urban's edge1 has no sensors
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 2.0
    engine = Engine(apply_overrides(load_scenario(json.dumps(doc)), mode=mode))
    assert (dst in engine.agents) == (mode == "cr-dist")
    for k in range(30):
        engine._push(0.5 + 0.05 * k, KIND_DELIVER, (dst, _tracks(500_000_000)))
    counts = engine.run().report["counters"]["bus"]
    assert counts["malformed"] == 30
    if mode == "cr-dist":  # a cr-covi queue may hold a real message at the end
        assert not any(rt.msg_queue for rt in engine.agents.values())


def test_result_for_a_task_never_submitted_is_ignored(scenario_dir):
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 1.0
    sc = apply_overrides(load_scenario(json.dumps(doc)), mode="cr-dist")
    healthy = Engine(sc)
    expected = healthy.run().report["counters"]["offload"]

    engine = Engine(sc)
    frame = _task_resp(500_000_000, "results/ego/edge1/w0", task_id=999)
    engine._push(0.5, KIND_DELIVER, (engine.ego_id, frame))
    report = engine.run().report
    assert "malformed" not in report["counters"]["bus"]
    assert report["counters"]["offload"]["ok_integrated"] == expected["ok_integrated"]
    assert report["counters"]["offload"]["submitted"] == expected["submitted"]
    assert engine.broker.conserved()


def test_result_with_another_frame_time_is_not_its_tasks(scenario_dir):
    # task 1 is pending at 0.025 s; a result naming it with frame time 1.5
    # would step the ego tracker to 1.5 s and make every later batch stale
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 2.0
    sc = apply_overrides(load_scenario(json.dumps(doc)), mode="cr-dist", seed=42)
    healthy = Engine(sc).run()

    engine = Engine(sc)
    frame = _task_resp(25_000_000, "results/ego/edge1/w0", task_id=1, frame_time=1.5)
    engine._push(0.025, KIND_DELIVER, (engine.ego_id, frame))
    report = engine.run()
    assert "malformed" not in report.report["counters"]["bus"]
    assert report.track_jsonl() == healthy.track_jsonl()
    assert report.report["counters"]["offload"] == healthy.report["counters"]["offload"]
    assert engine.broker.conserved()


# -- relations: runs that differ in a way that must not matter ------------------

RELATION_SEEDS = (42, 1009)
# urban as shipped, and urban with ``crowd_grid(12)`` for its objects
SCENES = ("urban", "crowd")
SHIFT = (1000.0, -500.0, 0.0)


def relation_run(scenario_dir, scene, mode, seed, edit=None):
    """A 2 s run of ``scene`` in ``mode`` at ``seed``, its document changed
    by ``edit`` first."""
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 2.0
    if scene == "crowd":
        doc["objects"] = crowd_grid(12)
    if edit:
        edit(doc)
    return Engine(apply_overrides(load_scenario(json.dumps(doc)), mode=mode, seed=seed)).run()


@functools.cache
def base_run(scenario_dir, scene, mode, seed):
    """The unedited ``relation_run``, run once for all relations."""
    return relation_run(scenario_dir, scene, mode, seed)


def translated(doc):
    """Shift every agent trajectory and object motion by ``SHIFT``."""
    def shift(p):
        return [x + d for x, d in zip(p, SHIFT)]
    for motion in [a["trajectory"] for a in doc["agents"]] + [o["motion"] for o in doc["objects"]]:
        if motion["kind"] == "waypoints":
            motion["points"] = [[t, shift(p)] for t, p in motion["points"]]
        else:
            key = "position" if motion["kind"] == "static" else "p0"
            motion[key] = shift(motion[key])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("seed", RELATION_SEEDS)
def test_r1_a_translated_world_gives_translated_tracks_and_equal_metrics(
        scenario_dir, seed, scene, mode):
    # sensors measure from their agent, so shifting the whole world moves
    # the tracks by the shift and changes no score beyond rounding
    base = base_run(scenario_dir, scene, mode, seed)
    moved = relation_run(scenario_dir, scene, mode, seed, translated)
    lines = [json.loads(line) for line in base.track_jsonl().splitlines()]
    moved_lines = [json.loads(line) for line in moved.track_jsonl().splitlines()]
    assert lines

    def labels(line):
        return line["t"], line["agent"], line["id"], line["status"]

    assert [labels(line) for line in moved_lines] == [labels(line) for line in lines]
    positions = np.array([line["mean"][:3] for line in lines])
    moved_positions = np.array([line["mean"][:3] for line in moved_lines])
    assert np.abs(moved_positions - positions - SHIFT).max() <= 1e-9
    metrics, moved_metrics = base.report["metrics"], moved.report["metrics"]
    rounded = ("motp", "ospa_mean")
    for name in rounded:
        assert moved_metrics.pop(name) == pytest.approx(metrics[name], rel=1e-12, abs=0.0)
    assert moved_metrics == {k: v for k, v in metrics.items() if k not in rounded}


def failing_workers(doc):
    doc["pipeline"]["worker"]["p_fail"] = 1.0


def dropping_links(doc):
    network = doc["network"]
    for link in (network["default"], *network.get("links", {}).values()):
        link["drop_prob"] = 1.0


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("seed", RELATION_SEEDS)
def test_r3_cr_dist_without_edge_results_gives_the_tracks_of_cr(scenario_dir, seed, scene):
    # edge results change the tracks when they arrive; a worker that fails
    # every task, or a bus that drops every frame, leaves only local fusion
    cr = base_run(scenario_dir, scene, "cr", seed).track_jsonl()
    assert base_run(scenario_dir, scene, "cr-dist", seed).track_jsonl() != cr
    failing = relation_run(scenario_dir, scene, "cr-dist", seed, failing_workers)
    assert failing.report["counters"]["offload"]["failed"] > 0
    assert failing.track_jsonl() == cr
    dropped = relation_run(scenario_dir, scene, "cr-dist", seed, dropping_links)
    bus_counts = dropped.report["counters"]["bus"]
    assert bus_counts["sent"] == bus_counts["dropped"] > 0
    assert dropped.track_jsonl() == cr


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("seed", RELATION_SEEDS)
def test_r4_cr_covi_without_remote_tracks_gives_the_tracks_of_cr(scenario_dir, seed, scene):
    # remote tracks change the tracks when they arrive; a bus that drops
    # every frame leaves only local fusion, and a flush with no message
    # leaves the tracks alone
    cr = base_run(scenario_dir, scene, "cr", seed).track_jsonl()
    assert base_run(scenario_dir, scene, "cr-covi", seed).track_jsonl() != cr
    dropped = relation_run(scenario_dir, scene, "cr-covi", seed, dropping_links)
    bus_counts = dropped.report["counters"]["bus"]
    assert bus_counts["sent"] == bus_counts["dropped"] > 0
    assert dropped.track_jsonl() == cr


def far_sensor_agent(agent_id):
    """An edit that adds a static camera and radar agent about 7 km from
    the scene, where it sees nothing."""
    def edit(doc):
        doc["agents"].append({
            "id": agent_id, "kind": "infrastructure",
            "trajectory": {"kind": "static", "position": [7000.0, 0.0, 4.0]},
            "sensors": [{"type": "camera", "preset": "blackfly-s"},
                        {"type": "radar", "preset": "iwr1443"}]})
    return edit


def lines_of(jsonl, keep):
    """The lines of ``jsonl`` whose agent (None for a truth line) ``keep`` keeps."""
    return [line for line in jsonl.splitlines() if keep(json.loads(line).get("agent"))]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("seed", RELATION_SEEDS)
def test_r5_a_far_sensor_agent_leaves_every_other_stream_alone(scenario_dir, seed, scene, mode):
    # every random stream is keyed by its own name, so adding an agent
    # shifts no other agent's noise; the new agent sorts first, then last
    base = base_run(scenario_dir, scene, mode, seed)
    ego_tracks = lines_of(base.track_jsonl(), lambda agent: agent == "ego")
    assert ego_tracks
    for far in ("a-far", "z-far"):
        run = relation_run(scenario_dir, scene, mode, seed, far_sensor_agent(far))
        assert lines_of(run.track_jsonl(), lambda agent: agent == "ego") == ego_tracks
        assert lines_of(run.replay_jsonl(), lambda agent: agent != far) == \
            base.replay_jsonl().splitlines()
        assert lines_of(run.replay_jsonl(), lambda agent: agent == far)


# -- periodic events: generated as the run reaches them -----------------------

HANDLERS = {KIND_TICK: "on_tick", KIND_DELIVER: "on_deliver", KIND_TASK: "on_task_complete",
            KIND_METRIC: "on_metric", KIND_HEARTBEAT: "_send_heartbeat"}


def eager_events(engine) -> list[tuple]:
    """The reference schedule: every periodic event of ``engine``'s run
    as (t, kind, data), built up front.  Sensor ticks, metric samples and
    heartbeat sends are sorted by time, then agent id, then sensor index,
    with the metric sample after the ticks and each edge worker's
    heartbeat send after it, in worker id order; each agent's last tick
    at a time flushes, and nothing past the end runs."""
    sc = engine.sc
    ticks: dict[float, list] = {}
    sensors = {(a.id, i): sensor for a in sorted(sc.agents, key=lambda a: a.id)
               for i, sensor in enumerate(a.sensors)}
    for key, times in engine.source.ticks(sensors).items():
        for t in times:
            ticks.setdefault(t, []).append(key)
    metric_n = int(np.floor(sc.duration * sc.metrics.rate + 1e-9))
    metric_times = {k / sc.metrics.rate for k in range(metric_n + 1)}
    workers = sorted(engine.workers)
    beat_rate = 1.0 / sc.pipeline.heartbeat_interval
    beat_n = int(np.floor(sc.duration * beat_rate + 1e-9)) if workers else -1
    beat_times = {k / beat_rate for k in range(beat_n + 1)}
    events = []
    for t in sorted(t for t in ticks.keys() | metric_times | beat_times
                    if t <= sc.duration + 1e-9):
        entries = sorted(ticks.get(t, []))
        last_per_agent = {aid: i for aid, i in entries}
        events += [(t, KIND_TICK, (aid, i, last_per_agent[aid] == i)) for aid, i in entries]
        if t in metric_times:
            events.append((t, KIND_METRIC, ()))
        if t in beat_times:
            events += [(t, KIND_HEARTBEAT, (wid,)) for wid in workers]
    return events


def recording(engine) -> list[tuple]:
    """Make ``engine`` record each event it handles as (t, kind, data)
    before handling it, a task's result as its payload's bytes; the list
    it records into."""
    handled = []
    for kind, name in HANDLERS.items():
        def record(t, *data, kind=kind, handle=getattr(engine, name)):
            if kind == KIND_TASK:
                wid, result = data
                handled.append((t, kind, (wid, bus.canonical_dumps(result.to_payload()))))
            else:
                handled.append((t, kind, data))
            handle(t, *data)
        setattr(engine, name, record)
    return handled


def run_eagerly(engine):
    """Run a fresh ``engine`` on the reference schedule: every periodic
    event is in the heap before the first one runs, ahead of every
    delivery and task completion at its time, which are all pushed
    later."""
    engine.heap = [(t, 0, n, kind, data)
                   for n, (t, kind, data) in enumerate(eager_events(engine))]
    heapq.heapify(engine.heap)
    while engine.heap:
        t, _, _, kind, data = heapq.heappop(engine.heap)
        if t <= engine.sc.duration + 1e-9:
            engine.events_processed += 1
            getattr(engine, HANDLERS[kind])(t, *data)
    return engine._build_report()


# Each agent's sensors, and the rates they draw: some that coincide with
# each other and the metric samples (10, 20 and 30 Hz), and two that
# rarely do (7 and 13 Hz).
SENSOR_LISTS = ((), ("camera",), ("radar",), ("camera", "radar"), ("radar", "camera"))
RATES = (10.0, 20.0, 30.0, 7.0, 13.0)
PRESETS = {"camera": "blackfly-s", "radar": "iwr1443"}
# urban's edge server, and the sensor agents the property equips
EDGE = {"id": "edge1", "kind": "edge-server", "workers": 2,
        "trajectory": {"kind": "static", "position": [50.0, 20.0, 8.0]}}
SENSOR_AGENTS = (
    {"id": "ego", "kind": "ego",
     "trajectory": {"kind": "cv", "p0": [0.0, 0.0, 0.0], "v": [1.5, 0.0, 0.0]}},
    {"id": "rsu1", "kind": "infrastructure",
     "trajectory": {"kind": "static", "position": [60.0, 12.0, 4.0],
                    "rpy_deg": [0.0, 0.0, -110.0]}},
    {"id": "car2", "kind": "vehicle",
     "trajectory": {"kind": "cv", "p0": [70.0, -4.0, 0.0], "v": [-2.0, 0.0, 0.0],
                    "rpy_deg": [0.0, 0.0, 180.0]}},
)


def edited_replay(text: str, duration: float, rnd) -> str:
    """A live run's replay text in ``rnd``'s order, with copies of a
    detection line just inside the end (5e-10 past it), past it, and for
    two sensors no scenario has."""
    lines = [json.loads(line) for line in text.splitlines()]
    detection = next((line for line in lines if "truth" not in line), None)
    if detection is not None:
        lines += [dict(detection, t=duration + dt) for dt in (5e-10, 2e-9, 1.0)]
        lines += [dict(detection, agent="ghost"), dict(detection, agent="ego", sensor=5)]
    rnd.shuffle(lines)
    return "\n".join(json.dumps(line) for line in lines)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(sensor_lists=st.lists(st.sampled_from(SENSOR_LISTS), min_size=3, max_size=3),
       rates=st.lists(st.sampled_from(RATES), min_size=6, max_size=6),
       metric_rate=st.sampled_from((10.0, 7.0)),
       duration=st.one_of(st.integers(1, 30).map(lambda k: k / 10), st.floats(0.1, 3.0)),
       mode=st.sampled_from(MODES), replay=st.booleans(), rnd=st.randoms())
def test_periodic_events_run_in_the_reference_schedules_order(
        scenario_dir, sensor_lists, rates, metric_rate, duration, mode, replay, rnd):
    # each periodic source keeps one pending event in the heap; the run
    # handles the very events, in the very order, of a schedule that
    # pushed them all up front, and gives the same bytes
    assume(mode != "cr-covi" or any(sensor_lists[1:]))
    doc = json.loads((scenario_dir / "urban.json").read_text())
    rate = iter(rates)
    doc["agents"] = [dict(agent, sensors=[{"type": s, "preset": PRESETS[s], "rate": next(rate)}
                                          for s in sensors])
                     for agent, sensors in zip(SENSOR_AGENTS, sensor_lists)] + [EDGE]
    doc.update(duration=duration, metrics={"rate": metric_rate})
    sc = apply_overrides(load_scenario(json.dumps(doc)), mode=mode)
    text = edited_replay(Engine(sc).run().replay_jsonl().decode(), duration, rnd) \
        if replay else None

    def engine():
        return Engine(sc, replay=None if text is None else load_replay(text))

    lazy, eager = engine(), engine()
    handled, expected = recording(lazy), recording(eager)
    # one event per sensor, the metric sampler and each cr-dist worker
    assert len(lazy.heap) <= sum(map(len, sensor_lists)) + 1 + len(lazy.workers)
    report, reference = lazy.run(), run_eagerly(eager)
    assert handled == expected
    assert outputs(report) == outputs(reference)


def handled_run(sc, pushes=()):
    """The events a run of ``sc`` handles, (t, kind, data) in order,
    after ``pushes`` of (t, kind, data) are injected with ``_push``."""
    engine = Engine(sc)
    handled = recording(engine)
    for push in pushes:
        engine._push(*push)
    engine.run()
    return handled


def test_an_injected_delivery_at_a_tick_time_follows_every_periodic_event(scenario_dir):
    # urban's cameras tick at 10 Hz, its radars at 20 Hz and the metric
    # samples at 10 Hz: at 0.5 s all of them run, in agent and sensor
    # order with the metric sample last, and then the delivery
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 1.0
    sc = apply_overrides(load_scenario(json.dumps(doc)), mode="cr-covi")
    delivery = (KIND_DELIVER, ("ego", _tracks(500_000_000)))
    at_half = [e for e in handled_run(sc, [(0.5, *delivery)]) if e[0] == 0.5]
    assert at_half == [
        (0.5, KIND_TICK, ("ego", 0, False)), (0.5, KIND_TICK, ("ego", 1, True)),
        (0.5, KIND_TICK, ("rsu1", 0, False)), (0.5, KIND_TICK, ("rsu1", 1, True)),
        (0.5, KIND_METRIC, ()), (0.5, *delivery)]


def test_heartbeat_sends_follow_the_metric_sample_in_worker_order(scenario_dir):
    # in cr-dist, each edge worker's heartbeat is a periodic source ranked
    # after the metric sampler: at 0.5 s the ticks, the metric sample, the
    # w0 and w1 heartbeat sends, then a delivery injected at that time
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 1.0
    sc = apply_overrides(load_scenario(json.dumps(doc)), mode="cr-dist")
    delivery = (KIND_DELIVER, ("ego", _frame(500_000_000, bus.MSG_HEARTBEAT, "hb/edge1/w0")))
    at_half = [e for e in handled_run(sc, [(0.5, *delivery)]) if e[0] == 0.5]
    assert at_half == [
        (0.5, KIND_TICK, ("ego", 0, False)), (0.5, KIND_TICK, ("ego", 1, True)),
        (0.5, KIND_TICK, ("rsu1", 0, False)), (0.5, KIND_TICK, ("rsu1", 1, True)),
        (0.5, KIND_METRIC, ()), (0.5, KIND_HEARTBEAT, ("edge1/w0",)),
        (0.5, KIND_HEARTBEAT, ("edge1/w1",)), (0.5, *delivery)]


@pytest.mark.parametrize("mode", ["cr-covi", "cr-dist"])
def test_a_delivery_over_a_link_without_latency_follows_every_periodic_event(
        scenario_dir, mode):
    # with no latency or jitter a frame arrives when it is sent, at a tick
    # time: cr-covi's track broadcasts, and cr-dist's task requests and
    # heartbeats (sent every 0.5 s); each runs after every tick, metric
    # sample and heartbeat send at its time
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 2.0
    doc["network"] = {"default": {"base_latency": 0.0, "jitter": 0.0}}
    handled = handled_run(apply_overrides(load_scenario(json.dumps(doc)), mode=mode))
    periodic = {KIND_TICK, KIND_METRIC, KIND_HEARTBEAT}
    last_periodic = {t: n for n, (t, kind, _) in enumerate(handled) if kind in periodic}
    late = [(n, t) for n, (t, kind, _) in enumerate(handled) if kind == KIND_DELIVER]
    assert sum(t in last_periodic for _, t in late) >= 10
    assert all(n > last_periodic.get(t, -1) for n, t in late)


# the slack on Engine()'s peak allocation
SET_UP_SLACK = 64 * 1024


def set_up_peak(sc) -> tuple:
    """An engine for ``sc`` and the peak of what building it allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        return Engine(sc), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", MODES)
def test_engine_set_up_does_not_grow_with_the_run(scenario_dir, mode):
    # an hour of urban with a generated crowd: set-up sends no frame and
    # holds one event per periodic source (4 sensors, the metric sampler
    # and, in cr-dist, the heartbeats of 2 workers), not the 252,005 of
    # the whole run, and allocates no more than for 30 s
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["objects"] = crowd_grid(12)

    def scene(duration):
        return apply_overrides(load_scenario(json.dumps(dict(doc, duration=duration))),
                               mode=mode)

    short, long = scene(30.0), scene(3600.0)
    set_up_peak(short)  # warm-up: first-use caches are not the run's
    _, short_peak = set_up_peak(short)
    engine, long_peak = set_up_peak(long)
    assert len(engine.workers) == (2 if mode == "cr-dist" else 0)
    assert engine.bus_counts["sent"] == 0
    assert len(engine.heap) <= 5 + len(engine.workers)
    assert long_peak <= short_peak + SET_UP_SLACK


def test_each_worker_sends_a_heartbeat_every_interval(scenario_dir):
    # at 0.3 s intervals over 2 s: at 0, 0.3, ..., 1.8 s, 7 per worker
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 2.0
    doc["pipeline"]["heartbeat_interval"] = 0.3
    report = Engine(apply_overrides(load_scenario(json.dumps(doc)), mode="cr-dist")).run()
    heartbeat = bus.MSG_TYPES[bus.MSG_HEARTBEAT]
    for wid in ("edge1/w0", "edge1/w1"):
        sent = [f["t_send"] for f in report.report["frames"]
                if f["type"] == heartbeat and f["topic"] == f"hb/{wid}"]
        assert sent == pytest.approx([0.3 * k for k in range(7)], abs=1e-12)


def test_frames_are_logged_in_send_order(case):
    sc, _, report = case
    sent = [f["t_send"] for f in report.report["frames"]]
    assert sent == sorted(sent)
    assert bool(sent) == (sc.pipeline.mode != "cr")
