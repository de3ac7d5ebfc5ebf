"""System-level contracts of the event loop, per scenario and mode.

* determinism: two runs of one input give byte-identical outputs;
* replay: driving a scenario from its own ``replay.jsonl`` gives the same
  tracks;
* bus accounting: every frame sent is delivered, dropped, or due after
  the end of the run;
* offload: the broker conserves tasks;
* bounded caches: the engine keeps ground truth and poses for one event
  time only;
* collaboration: urban ``cr-covi`` fuses remote tracks.
"""

import json

import pytest

from fusionsim.scenario import apply_overrides, load_replay, load_scenario
from fusionsim.scenario.engine import Engine

# (scenario, mode, shortened duration).  cr-dist runs 8 s: by then an edge
# task has been sent while an object was out of the camera's view, so the
# replay check covers how edge tasks pick the objects they see.
CASES = [
    ("urban.json", "cr", 3.0),
    ("urban.json", "cr-covi", 3.0),
    ("occlusion.json", "cr", 3.0),
    ("occlusion.json", "cr-covi", 3.0),
    ("urban.json", "cr-dist", 8.0),
]


def scenario(scenario_dir, name, mode, duration):
    doc = json.loads((scenario_dir / name).read_text())
    doc["duration"] = duration
    return apply_overrides(load_scenario(json.dumps(doc)), mode=mode)


def outputs(report):
    return report.report_bytes(), report.track_jsonl(), report.replay_jsonl()


@pytest.fixture(scope="module", params=CASES, ids=[f"{n[:-5]}-{m}" for n, m, _ in CASES])
def case(request, scenario_dir):
    sc = scenario(scenario_dir, *request.param)
    engine = Engine(sc)
    return sc, engine, engine.run()


def test_two_runs_byte_identical(case):
    sc, _, report = case
    assert outputs(Engine(sc).run()) == outputs(report)


def test_replay_reproduces_tracks(case):
    sc, _, report = case
    replay = load_replay(report.replay_jsonl().decode())
    replayed = Engine(sc, replay=replay).run()
    assert replayed.track_jsonl() == report.track_jsonl()


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
    assert len(engine.truth_cache) <= 1
    assert len(engine._pose_cache) <= 1


@pytest.mark.parametrize("case", [CASES[1]], ids=["urban-cr-covi"], indirect=True)
def test_collaboration_fuses_remote_tracks(case):
    _, _, report = case
    collab = report.report["counters"]["collab"]
    assert sum(c["fused"] for c in collab.values()) > 0
    assert all("merged" in c for c in collab.values())
