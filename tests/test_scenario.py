import copy
import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MUTATIONS, mutate
from fusionsim.bus import LinkParams, canonical_dumps
from fusionsim.offload import WorkerConfig
from fusionsim.scenario import (MetricsConfig, ParseError, PipelineConfig, ValidationError,
                                apply_overrides, load_scenario)
from fusionsim.scenario.model import MAX_WORK, ScenarioError
from fusionsim.sensing import CAMERA_PRESETS, SensorNoiseConfig
from fusionsim.tracker import TrackerConfig

VALID_MODES = {"urban.json": ("cr", "cr-covi", "cr-dist"),
               "occlusion.json": ("cr", "cr-covi")}


def load_doc(scenario_dir, name="urban.json") -> dict:
    return json.loads((scenario_dir / name).read_text())


def load(doc: dict):
    return load_scenario(json.dumps(doc))


@pytest.mark.parametrize("name,mode", [(n, m) for n, modes in VALID_MODES.items()
                                        for m in modes])
def test_to_dict_round_trips(scenario_dir, name, mode):
    sc = apply_overrides(load_scenario((scenario_dir / name).read_text()), mode=mode)
    first = canonical_dumps(sc.to_dict())
    again = load_scenario(first.decode())
    assert canonical_dumps(again.to_dict()) == first


def _set(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        if isinstance(node, dict):
            node = node.setdefault(key, {})
        else:
            node = node[key]
    node[path[-1]] = value
    return doc


UNKNOWN_KEY_PATHS = {
    "tracker": ("tracker", "bogus"),
    "metrics": ("metrics", "bogus"),
    "network.default": ("network", "default", "bogus"),
    "network.links": ("network", "links", "ego->rsu1", "bogus"),
    "sensor.noise": ("agents", 0, "sensors", 1, "noise", "bogus"),
    "sensor.intrinsics": ("agents", 0, "sensors", 0, "intrinsics", "bogus"),
    "pipeline.task_kind": ("pipeline", "task_kind"),
    "pipeline.worker": ("pipeline", "worker", "bogus"),
    "pipeline.worker.profile": ("pipeline", "worker", "profile", "bogus"),
    "profile.fov_azimuth": ("pipeline", "worker", "profile", "fov_azimuth"),
}


@pytest.mark.parametrize("where", sorted(UNKNOWN_KEY_PATHS))
def test_unknown_key_rejected(scenario_dir, where):
    doc = _set(load_doc(scenario_dir), UNKNOWN_KEY_PATHS[where], 1.0)
    with pytest.raises(ValidationError):
        load(doc)


def test_known_nested_keys_accepted(scenario_dir):
    doc = load_doc(scenario_dir)
    doc = _set(doc, ("network", "links", "ego->rsu1", "jitter"), 0.001)
    doc = _set(doc, ("pipeline", "worker", "profile", "max_range"), 90.0)
    doc = _set(doc, ("agents", 0, "sensors", 0, "intrinsics", "cx"), 900.0)
    sc = load(doc)
    assert sc.network.links["ego->rsu1"].jitter == 0.001
    assert sc.network.default.jitter == 0.005
    assert sc.pipeline.worker.profile.max_range == 90.0
    assert sc.agents[0].sensors[0].intrinsics.cx == 900.0


def test_integer_fields_take_exact_ints(scenario_dir):
    # numbers are typed as on the bus: 2.0 is a float, never cast to 2
    for path in (("tracker", "confirm_m"), ("agents", 0, "sensors", 0, "intrinsics", "width")):
        with pytest.raises(ValidationError, match="is not a int"):
            load(_set(load_doc(scenario_dir), path, 2.0))
    sc = load(_set(load_doc(scenario_dir), ("tracker", "confirm_m"), 2))
    out = sc.to_dict()
    assert out["tracker"]["confirm_m"] == 2 and type(out["tracker"]["confirm_m"]) is int
    assert type(out["agents"][0]["sensors"][0]["intrinsics"]["width"]) is int


INVALID_VALUES = {
    "q-zero": (("tracker", "q"), 0),
    "cx-outside-image": (("agents", 0, "sensors", 0, "intrinsics", "cx"), 5000.0),
    "jitter-above-base-latency": (("network", "default", "jitter"), 0.5),
    "prediction-horizon-zero": (("metrics", "prediction_horizon"), 0.0),
    "prediction-dt-negative": (("metrics", "prediction_dt"), -0.5),
    "prediction-dt-past-horizon": (("metrics", "prediction_dt"), 2.5),
    # each of these aborted or changed a run before it was refused here
    "gate-prob-no-quantile": (("tracker", "gate_prob"), 0.5),
    "ospa-cutoff-negative": (("metrics", "ospa_cutoff"), -1.0),
    "ospa-cutoff-zero": (("metrics", "ospa_cutoff"), 0.0),
    "heartbeat-interval-zero": (("pipeline", "heartbeat_interval"), 0.0),
    "heartbeat-interval-negative": (("pipeline", "heartbeat_interval"), -0.5),
    "timeout-negative": (("pipeline", "timeout"), -1.0),
    "queue-bound-negative": (("pipeline", "queue_bound"), -1),
    "workers-negative": (("agents", 2, "workers"), -1),
    # numbers are typed as on the bus and never cast
    "confirm-m-fraction": (("tracker", "confirm_m"), 2.7),
    "workers-fraction": (("agents", 2, "workers"), 1.9),
    "seed-string": (("seed",), "42"),
    "version-bool": (("version",), True),
    "p0-bool": (("objects", 0, "motion", "p0"), [True, 2.0, 0.8]),
    "agent-id-int": (("agents", 1, "id"), 7),
    "object-id-string": (("objects", 0, "id"), "1"),
    "rate-inf": (("agents", 0, "sensors", 0, "rate"), math.inf),
    "rate-nan": (("metrics", "rate"), math.nan),
    "q-nan": (("tracker", "q"), math.nan),
    "fov-azimuth-nan": (("agents", 0, "sensors", 1, "noise", "fov_azimuth"), math.nan),
    # a range or field of view that is not positive: the sensor sees nothing
    "max-range-negative": (("agents", 0, "sensors", 1, "noise", "max_range"), -5.0),
    "fov-azimuth-negative": (("agents", 0, "sensors", 1, "noise", "fov_azimuth"), -1.0),
    "worker-max-range-negative": (("pipeline", "worker", "profile", "max_range"), -3.0),
    # a negative bound turns its mode's feature off: every message stale,
    # every edge result dropped
    "staleness-negative": (("pipeline", "staleness"), -1.0),
    "snapshot-horizon-negative": (("tracker", "snapshot_horizon"), -1.0),
    # a link key names two distinct agents, or its impairments apply to no link
    "link-to-no-agent": (("network", "links", "ego->rsu_typo"), {}),
    "link-not-a-pair": (("network", "links", "nonsense"), {}),
    "link-to-itself": (("network", "links", "ego->ego"), {}),
    "radius-nan": (("metrics", "radius"), math.nan),
    "rate-huge-int": (("metrics", "rate"), 10**400),
    "waypoint-time-string": (("objects", 2, "motion", "points", 1, 0), "15"),
    # more work over the duration than MAX_WORK items (loaded, never run)
    "camera-rate-huge": (("agents", 0, "sensors", 0, "rate"), 1e12),
    "clutter-rate-huge": (("agents", 0, "sensors", 1, "noise", "clutter_rate"), 1e12),
    "confirm-n-huge": (("tracker", "confirm_n"), 10**12),
    "workers-huge": (("agents", 2, "workers"), 10**12),
    "workers-past-float": (("agents", 2, "workers"), 10**400),
    "heartbeat-interval-tiny": (("pipeline", "heartbeat_interval"), 1e-12),
    "metrics-rate-huge": (("metrics", "rate"), 1e12),
    "prediction-dt-tiny": (("metrics", "prediction_dt"), 1e-12),
    # a container of the wrong type
    "pipeline-number": (("pipeline",), 5),
    "tracker-list": (("tracker",), []),
    "links-list": (("network", "links"), []),
    "preset-list": (("agents", 0, "sensors", 0, "preset"), []),
    "agent-number": (("agents", 1), 3),
}


@pytest.mark.parametrize("where", sorted(INVALID_VALUES))
def test_invalid_values_rejected(scenario_dir, where):
    path, value = INVALID_VALUES[where]
    with pytest.raises(ValidationError):
        load(_set(load_doc(scenario_dir), path, value))


# One refused value per config the loader builds: (a config of that type,
# the document path of the config, its field, the value).
CONFIG_CHECKS = {
    "pipeline": (PipelineConfig(), ("pipeline",), "mode", "x"),
    "tracker": (TrackerConfig(), ("tracker",), "q", -1.0),
    "metrics": (MetricsConfig(), ("metrics",), "rate", 0),
    "link": (LinkParams(), ("network", "default"), "drop_prob", 1.5),
    "noise": (SensorNoiseConfig(), ("agents", 0, "sensors", 1, "noise"), "p_detect", 1.5),
    "intrinsics": (CAMERA_PRESETS["blackfly-s"]["intrinsics"],
                   ("agents", 0, "sensors", 0, "intrinsics"), "fx", -1.0),
    "worker": (WorkerConfig(), ("pipeline", "worker"), "p_fail", 2.0),
}


@pytest.mark.parametrize("where", sorted(CONFIG_CHECKS))
def test_a_config_refuses_a_value_and_the_loader_names_its_path(scenario_dir, where):
    config, path, name, value = CONFIG_CHECKS[where]
    with pytest.raises(ValueError) as refused:
        replace(config, **{name: value})
    json_path = "$" + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{json_path}: {refused.value}')}$"):
        load(_set(load_doc(scenario_dir), (*path, name), value))


def test_an_override_mode_is_checked_by_the_config(scenario_dir):
    sc = load(load_doc(scenario_dir))
    with pytest.raises(ValidationError, match=r"^\$\.pipeline: mode must be one of"):
        apply_overrides(sc, mode="x")


@pytest.mark.parametrize("share", [0.5, 2.0])
def test_a_sensor_may_ask_for_up_to_max_work_items(scenario_dir, share):
    """Loading only: a camera of share * MAX_WORK ticks over the duration
    (no clutter, a window of one) loads at half the bound, not at twice."""
    doc = load_doc(scenario_dir)
    doc = _set(doc, ("agents", 0, "sensors", 0, "rate"), share * MAX_WORK / doc["duration"])
    doc = _set(doc, ("agents", 0, "sensors", 0, "noise", "clutter_rate"), 0.0)
    doc = _set(_set(doc, ("tracker", "confirm_m"), 1), ("tracker", "confirm_n"), 1)
    if share < 1:
        assert load(doc).agents[0].sensors[0].rate == share * MAX_WORK / 30.0
    else:
        with pytest.raises(ValidationError, match="sensors"):
            load(doc)


@pytest.mark.parametrize("text", ['{"version": 1,', "[" * 100_000 + "]" * 100_000],
                         ids=["truncated", "nested-past-the-recursion-limit"])
def test_malformed_json_is_a_parse_error(text):
    with pytest.raises(ParseError):
        load_scenario(text)


def test_radar_with_intrinsics_rejected(scenario_dir):
    doc = _set(load_doc(scenario_dir), ("agents", 0, "sensors", 1, "intrinsics"), {})
    with pytest.raises(ValidationError):
        load(doc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spec=MUTATIONS)
def test_a_mutated_document_is_refused_or_round_trips(scenario_dir, spec):
    # each result raises ScenarioError, or loads to a scenario whose
    # to_dict reloads to identical canonical bytes
    doc = mutate(load_doc(scenario_dir), **spec)
    try:
        sc = load(doc)
    except ScenarioError:
        return
    first = canonical_dumps(sc.to_dict())
    assert canonical_dumps(load_scenario(first.decode()).to_dict()) == first
