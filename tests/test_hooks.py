"""Every name the benchmark's hooks wrap still exists, and the values
its wrappers read still mean what they count.

``perfbench/hooks.py`` patches program functions and methods by name and
reports a missing one as absent instead of failing, so a rename would
only show as a silently missing span.  This installs every hook, checks
that none is absent and undoes them; it runs no engine.  A wrapper also
reads program values (``len(tracker.tracks)``, ``newest_key``,
``len(msg.tracks)``), so a change of their meaning would only show as a
wrong counter.  A short ``cr-dist`` run checks that the offload spans
see the broker at work, and a short ``cr`` run and its replay that the
sensing spans see every live tick and no replayed one.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

HOOKS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "hooks.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS_PY)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    return hooks


def test_every_hook_target_exists():
    hooks = load_hooks()
    spans = hooks.install_spans(hooks.Tracer())
    try:
        events = hooks.install_event_timer([], lambda: None)
        try:
            assert events.absent == []
        finally:
            events.undo()
        assert spans.absent == []
    finally:
        spans.undo()


def test_the_values_the_wrappers_read_keep_their_meaning(scenario_dir, monkeypatch):
    # the step wrapper counts ``len(tracker.tracks) * len(detections)``
    # pairs, the batch wrapper tells a rollback by ``newest_key``, and the
    # covi wrapper counts ``len(msg.tracks)`` remote tracks per message: a
    # batch whose len were not its number of tracks (a NamedTuple's is its
    # field count) would miscount without failing
    from fusionsim.fusion import Detections
    from fusionsim.scenario import apply_overrides, engine, load_scenario
    from fusionsim.tracker import LANE_EDGE, LANE_LOCAL, Tracker

    remote_ids = []
    covi_step = engine.covi_step

    def recording(tracker, msgs, *args, **kwargs):
        remote_ids.extend(len(msg.tracks.ids) for msg in msgs)
        return covi_step(tracker, msgs, *args, **kwargs)

    monkeypatch.setattr(engine, "covi_step", recording)
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 1.0
    sc = apply_overrides(load_scenario(json.dumps(doc)), mode="cr-covi")
    hooks = load_hooks()
    tracer = hooks.Tracer()
    spans = hooks.install_spans(tracer)
    try:
        def detections(*xs):
            return Detections(np.array([[x, 0.0, 0.0] for x in xs]).reshape(-1, 3),
                              np.tile(np.eye(3), (len(xs), 1, 1)))

        tk = Tracker()
        tk.process_batch((0.0, LANE_LOCAL, 0), detections(0.0, 20.0, 40.0))
        assert len(tk.tracks) == len(tk.tracks.ids) == 3
        tk.process_batch((0.1, LANE_LOCAL, 0), detections(0.0, 20.0))
        assert tracer.counts["tracker.pairs"] == 0 * 3 + 3 * 2
        assert tk.newest_key == (0.1, LANE_LOCAL, 0)
        # a late batch replays the later one: two steps under one rollback
        tk.process_batch((0.05, LANE_EDGE, 1), detections(40.0))
        assert tracer.calls["tracker.rollback"] == 1
        assert tracer.counts["tracker.rollback_steps"] == 2
        assert len(tk.tracks) == len(tk.tracks.ids) == 3

        engine.Engine(sc).run()
        assert sum(remote_ids) > 0
        assert tracer.counts["collab.remote_tracks"] == sum(remote_ids)
    finally:
        spans.undo()


def test_the_offload_spans_see_the_broker(scenario_dir):
    # edge work is timed by wrapping ``emulate_worker`` in the engine's
    # globals and ``Broker.on_result`` on its class: a broker that settled
    # results by another path would leave the offload spans at zero
    from fusionsim.scenario import apply_overrides, engine, load_scenario

    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 1.0
    run = engine.Engine(apply_overrides(load_scenario(json.dumps(doc)), mode="cr-dist"))
    hooks = load_hooks()
    tracer = hooks.Tracer()
    spans = hooks.install_spans(tracer)
    try:
        run.run()
    finally:
        spans.undo()
    assert tracer.calls["offload.emulate_worker"] > 0
    assert tracer.calls["offload.on_result"] >= run.broker.counters["ok_integrated"] > 0


def test_the_sensing_spans_see_every_live_tick_and_no_replayed_one(scenario_dir):
    # sensing is timed by wrapping ``camera_observe`` and ``radar_observe``
    # in the engine's globals: a live source that sensed by another path
    # would leave the sensing spans short of the run's detection records,
    # and a replay source that sensed at all would show here
    from fusionsim.scenario import engine, load_replay, load_scenario

    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 1.0
    sc = load_scenario(json.dumps(doc))
    assert sc.pipeline.mode == "cr"
    hooks = load_hooks()
    live, replayed = hooks.Tracer(), hooks.Tracer()
    spans = hooks.install_spans(live)
    try:
        report = engine.Engine(sc).run()
    finally:
        spans.undo()
    ticks = sum(1 for record in report.replay_records if len(record) == 5)
    assert live.calls["sensing.camera_observe"] + live.calls["sensing.radar_observe"] == ticks > 0
    run = engine.Engine(sc, replay=load_replay(report.replay_jsonl().decode()))
    spans = hooks.install_spans(replayed)
    try:
        run.run()
    finally:
        spans.undo()
    assert replayed.calls["sensing.camera_observe"] + replayed.calls["sensing.radar_observe"] == 0
    assert replayed.calls["replay.truth_at"] > 0
