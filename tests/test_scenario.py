import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from fusionsim.bus import canonical_dumps
from fusionsim.scenario import ValidationError, apply_overrides, load_scenario
from fusionsim.scenario.model import MAX_WORK, ScenarioError

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


def test_radar_with_intrinsics_rejected(scenario_dir):
    doc = _set(load_doc(scenario_dir), ("agents", 0, "sensors", 1, "intrinsics"), {})
    with pytest.raises(ValidationError):
        load(doc)


def _paths(node, path=()):
    """The path of every value inside a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# A field's value swapped for another JSON type: int, float, numeric
# string, bool, null, list and object, an int past the float range among them.
SWAPS = (0, 3, -1, 10**400, 2.0, 0.5, -7.5, "2", "0.5", True, False, None,
         [], [1.0, 2.0, 3.0], {}, {"kind": "cv"})
NONFINITE = (math.nan, math.inf, -math.inf)


@st.composite
def mutated_urban(draw, doc):
    """urban.json with one field swapped to another type or to a
    non-finite number, one key or entry dropped, or one 3-vector given the
    wrong length or a bool."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    vectors = [p for p in paths if isinstance(_node(doc, p), list) and len(_node(doc, p)) == 3
               and all(type(x) in (int, float) for x in _node(doc, p))]
    how = draw(st.sampled_from(("swap", "nonfinite", "drop", "vector")))
    path = draw(st.sampled_from(vectors if how == "vector" else paths))
    parent, key = _node(doc, path[:-1]), path[-1]
    if how == "swap":
        parent[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    elif how == "nonfinite":
        parent[key] = draw(st.sampled_from(NONFINITE))
    elif how == "drop":
        del parent[key]
    else:
        vec = parent[key]
        edit = draw(st.sampled_from(("short", "long", "bool")))
        if edit == "short":
            vec.pop()
        elif edit == "long":
            vec.append(1.0)
        else:
            vec[draw(st.integers(0, 2))] = draw(st.booleans())
    return doc


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_document_is_refused_or_round_trips(scenario_dir, data):
    # each result raises ScenarioError, or loads to a scenario whose
    # to_dict reloads to identical canonical bytes
    doc = data.draw(mutated_urban(load_doc(scenario_dir)))
    try:
        sc = load(doc)
    except ScenarioError:
        return
    first = canonical_dumps(sc.to_dict())
    assert canonical_dumps(load_scenario(first.decode()).to_dict()) == first
