import copy
import json

import pytest

from fusionsim.bus import canonical_dumps
from fusionsim.scenario import ValidationError, apply_overrides, load_scenario

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


def test_integer_fields_cast_to_int(scenario_dir):
    doc = _set(load_doc(scenario_dir), ("tracker", "confirm_m"), 2.0)
    doc = _set(doc, ("agents", 0, "sensors", 0, "intrinsics", "width"), 1920.0)
    sc = load(doc)
    assert sc.tracker.confirm_m == 2 and type(sc.tracker.confirm_m) is int
    width = sc.agents[0].sensors[0].intrinsics.width
    assert width == 1920 and type(width) is int
    out = sc.to_dict()
    assert type(out["tracker"]["confirm_m"]) is int
    assert type(out["agents"][0]["sensors"][0]["intrinsics"]["width"]) is int


@pytest.mark.parametrize("path,value", [
    (("tracker", "q"), 0),
    (("agents", 0, "sensors", 0, "intrinsics", "cx"), 5000.0),
    (("network", "default", "jitter"), 0.5),
    (("metrics", "prediction_horizon"), 0.0),
    (("metrics", "prediction_dt"), -0.5),
    (("metrics", "prediction_dt"), 2.5),
], ids=["q-zero", "cx-outside-image", "jitter-above-base-latency", "prediction-horizon-zero",
        "prediction-dt-negative", "prediction-dt-past-horizon"])
def test_invalid_values_rejected(scenario_dir, path, value):
    with pytest.raises(ValidationError):
        load(_set(load_doc(scenario_dir), path, value))


def test_radar_with_intrinsics_rejected(scenario_dir):
    doc = _set(load_doc(scenario_dir), ("agents", 0, "sensors", 1, "intrinsics"), {})
    with pytest.raises(ValidationError):
        load(doc)
