"""Self-tests of the benchmark: hook coverage, checks and the result contract.

    python -m pytest perfbench

Workloads run here on shortened scenarios so that the whole file takes
seconds; the benchmark itself always runs them at full length.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import hooks
import run
import workloads
from workloads import WORKLOADS

SEED = 42
SHORT = {"urban-covi": 4.0, "urban-dist": 6.0, "crowd-60": 1.0, "replay-urban": 4.0}
# urban's network neither drops nor delays past the staleness bound, so
# these count nothing on any workload.
NONE_AT_SEED = {"collab.stale", "offload.dropped", "bus.dropped"}
# Spans that contain tracker.gate on its call path.
GATE_ANCESTORS = {"tracker.process_batch", "tracker.step", "tracker.rollback",
                  "offload.on_result", hooks.LOOP_SPAN}


def _run(name: str, trace: bool) -> dict:
    w = WORKLOADS[name]
    replay_text = live_sha = None
    if w.replay:
        replay, live_sha = child.record(w, SEED, SHORT[name])
        replay_text = replay.decode()
    return child.measure(w, SEED, trace, replay_text, live_sha, duration=SHORT[name])


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {name: _run(name, trace=True) for name in SHORT}


def layers(traced, name) -> dict:
    return traced[name]["layers"]


def test_all_checks_pass_and_every_hook_is_present(traced):
    for name, result in traced.items():
        assert result["errors"] == [], name
        assert result["absent_hooks"] == [], name


def test_traced_outputs_equal_untraced(traced):
    for name in SHORT:
        assert _run(name, trace=False)["digest"] == traced[name]["digest"], name


def test_layer_self_times_sum_to_loop_time(traced):
    for name in SHORT:
        m = layers(traced, name)
        total = sum(m[f"{layer}.self_ms"] for layer in hooks.LAYERS)
        assert total == pytest.approx(m["engine.loop.ms"], rel=1e-9), name
        assert all(m[f"{layer}.self_ms"] >= 0 for layer in hooks.LAYERS), name


def test_every_span_fires_somewhere(traced):
    for span in hooks.SPAN_MS:
        assert any(layers(traced, name)[f"{span}.ms"] > 0 for name in SHORT), span
    for count in set(hooks.COUNTS) - NONE_AT_SEED:
        assert any(layers(traced, name)[count] > 0 for name in SHORT), count


def test_gate_is_the_largest_span_on_crowd(traced):
    m = layers(traced, "crowd-60")
    others = [m[f"{s}.ms"] for s in hooks.SPAN_MS if s not in GATE_ANCESTORS | {"tracker.gate"}]
    assert m["tracker.gate.ms"] > max(others)


def test_collab_only_on_urban_covi_and_largest_there(traced):
    m = layers(traced, "urban-covi")
    assert m["collab.self_ms"] == max(m[f"{layer}.self_ms"] for layer in hooks.LAYERS)
    assert m["collab.ci_omega.calls"] > 0 and m["collab.fused"] > 0
    for name in set(SHORT) - {"urban-covi"}:
        m = layers(traced, name)
        assert m["collab.self_ms"] == 0 and m["collab.covi_step.calls"] == 0, name


def test_rollback_and_offload_only_on_urban_dist(traced):
    m = layers(traced, "urban-dist")
    assert m["tracker.rollback.calls"] > 0 and m["tracker.replayed_steps"] > 0
    assert m["offload.on_result.calls"] > 0 and m["offload.submitted"] > 0
    for name in set(SHORT) - {"urban-dist"}:
        m = layers(traced, name)
        assert m["tracker.rollback.calls"] == 0, name
        assert m["offload.self_ms"] == 0 and m["offload.submitted"] == 0, name


def test_replay_bypasses_sensing(traced):
    m = layers(traced, "replay-urban")
    assert m["replay.truth_at.calls"] > 0 and m["replay.load_replay.ms"] > 0
    assert m["sensing.self_ms"] == 0 and m["sensing.detections"] == 0
    for name in set(SHORT) - {"replay-urban"}:
        m = layers(traced, name)
        assert m["replay.self_ms"] == 0 and m["replay.load_replay.ms"] == 0, name
        assert m["sensing.camera_observe.calls"] > 0, name


def test_bus_only_on_collaborative_and_distributed(traced):
    for name in SHORT:
        frames = layers(traced, name)["bus.frames"]
        assert (frames > 0) == (name in ("urban-covi", "urban-dist")), name


def test_missing_hook_target_is_reported_not_fatal(monkeypatch):
    gone = (("tracker.gone", hooks.TRACKER, None, "no_such_function", hooks._span()),
            ("tracker.gone_method", hooks.TRACKER, "Tracker", "no_such_method", hooks._span()),
            ("nothing.here", "fusionsim.no_such_module", None, "f", hooks._span()))
    monkeypatch.setattr(hooks, "HOOKS", hooks.HOOKS + gone)
    result = child.measure(WORKLOADS["crowd-60"], SEED, True, duration=0.5)
    assert result["errors"] == []
    assert len(result["absent_hooks"]) == len(gone)


def test_patches_are_undone():
    import fusionsim.tracker
    from fusionsim.scenario.engine import Engine

    gate, on_tick = fusionsim.tracker.gate, Engine.__dict__["on_tick"]
    child.measure(WORKLOADS["crowd-60"], SEED, True, duration=0.5)
    assert fusionsim.tracker.gate is gate and Engine.__dict__["on_tick"] is on_tick


def test_inputs_are_a_function_of_the_seed():
    crowd = WORKLOADS["crowd-60"]
    assert workloads.scenario_text(crowd, 1) == workloads.scenario_text(crowd, 1)
    assert workloads.scenario_text(crowd, 1) != workloads.scenario_text(crowd, 2)
    # the urban seed is overridden in set-up, not in the text
    urban = WORKLOADS["urban-dist"]
    assert workloads.setup(urban, workloads.scenario_text(urban, 7), 7).sc.seed == 7


def test_loop_estimates_do_not_depend_on_the_number_of_runs():
    fast = {"event_ms": [1.0, 2.0, 3.0, 40.0], "other_s": 0.004, "duration_s": 1.0}
    slow = {"event_ms": [2.0, 1.0, 6.0, 80.0], "other_s": 0.006, "duration_s": 1.0}
    assert run.event_ms([fast, slow], 95) == 40.0
    assert run.event_ms([fast, slow] * 3, 95) == 40.0
    assert run.event_ms([slow], 95) == 80.0
    # host time: lesser time of each event (1 + 1 + 3 + 40 ms) + lesser rest
    assert run.sim_s_per_wall_s([fast, slow]) == pytest.approx(1.0 / 0.049)
    assert run.sim_s_per_wall_s([slow, fast] * 3) == pytest.approx(1.0 / 0.049)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "urban-dist",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
