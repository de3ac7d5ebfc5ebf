"""System-level contracts of the event loop, per scenario and mode.

* determinism: two runs of one input give byte-identical outputs;
* replay: driving a scenario from its own ``replay.jsonl`` gives the same
  tracks without calling sensing or ``world_at``, and a replay whose
  sensor types differ from the scenario's is refused when the engine is
  built;
* bus accounting: every frame sent is delivered, dropped, or due after
  the end of the run;
* offload: the broker conserves tasks, also when a result names a task
  that was never submitted; with one flaky, slow edge worker, urban
  ``cr-dist`` fills its queue, retries, fails and times out tasks, and
  is a full case, so it meets every contract here;
* singular pairs: with noiseless radar and edge workers, the tracker and
  collaboration gates count each pair with a singular summed covariance
  and skip its measurement, and the run goes on; noiseless urban
  ``cr-dist`` is a full case, so it meets every contract here;
* bounded caches: the live source keeps ground truth, and the engine
  poses, for one event time only;
* collaboration: urban ``cr-covi`` fuses remote tracks, through the
  collab functions the benchmark hooks by name;
* malformed frames: a delivery that is not exactly one frame, a frame
  that does not parse (a task result's status is ``ok`` or ``failed``,
  and a task request's frame time lies inside the scenario),
  one whose topic names no worker the run has, or
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
  - R5, stream independence: in every mode, a sensor agent added 7 km
    away, its id sorting first or last, leaves the ego's track lines and
    every other replay line byte-identical.
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from fusionsim import bus, collab
from fusionsim.geometry import Pose
from fusionsim.offload import STATUS_OK
from fusionsim.scenario import apply_overrides, load_replay, load_scenario
from fusionsim.scenario import engine as engine_module
from fusionsim.scenario.engine import _DELIVERY, KIND_DELIVER, Engine
from fusionsim.scenario.model import MODES
from fusionsim.scenario.replay import ReplayError

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
    # the matches of its first 11 metric samples, 380 in all
    sc = apply_overrides(scenario(scenario_dir, "urban.json", "cr", 3.0, 40, ""), seed=42)
    engine = Engine(sc)
    metrics = engine.run().report["metrics"]
    assert len(engine.agg.ade_samples) == 380
    assert (metrics["ade"], metrics["fde"]) == (4.003822328448829, 6.176053553276757)


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
    assert all("merged" in c for c in collab.values())
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


def test_singular_collab_pairs_are_counted_and_skipped(scenario_dir):
    # noiseless radar detections have zero covariance, so updated tracks
    # have (near) zero position covariance and pairs of them a singular S
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 1.0
    report = Engine(apply_overrides(load_scenario(json.dumps(noiseless(doc))),
                                    mode="cr-covi")).run()
    collab = report.report["counters"]["collab"]
    assert sum(c.get("singular", 0) for c in collab.values()) > 0
    assert sum(c["fused"] for c in collab.values()) > 0


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
    it; then well-formed frames whose topic names no worker of the run (a
    task request, two heartbeats and a task result); then one frame per
    refused field: a task request whose ``frame_time`` is a string or
    lies outside the 2 s scenario (1e6, -3.0 and 2.5 s; the worker reads
    the truth at it) or whose ``visible_ids`` holds a float, a remote
    track message whose id count differs from its row count or whose ids
    hold a bool or 2.5, a task result whose positions and covariances
    differ in row count, a
    task result whose status is neither ``ok`` nor ``failed``, and a
    remote track message and a task request whose pose has a flat
    rotation or a translation of strings."""
    frames = []
    for good in _accepted_frames(now_ns):
        frame = bus.decode(good)
        frames.append(good[:-5])
        frames.append(_frame(now_ns, frame.msg_type, frame.topic, b'{"ids": [1,'))
        frames.append(_frame(now_ns, frame.msg_type, frame.topic, b"{}"))
        frames.append(good + good[:3])
    frames.append(_task_req(now_ns, "tasks/edge1/w9"))
    frames.append(_frame(now_ns, bus.MSG_HEARTBEAT, "hb/edge1/w9"))
    frames.append(_frame(now_ns, bus.MSG_HEARTBEAT, "heartbeat/edge1/w0"))
    frames.append(_task_resp(now_ns, "results/ego/edge1/w9"))
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
        engine._push(0.5 + 0.04 * k, KIND_DELIVER, (dst, data))
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
