"""The replay loader: each detection line becomes one (n, 5) array.

A camera row is ``[umin, vmin, umax, vmax, score]`` and a radar row
``[x, y, z, radial_speed, snr]``.  The loader holds every row to what the
sensor models guarantee, and a bad line raises ``ReplayError`` naming its
line number.  A row of the wrong length is refused, never reshaped.
"""

import json

import numpy as np
import pytest

from fusionsim.bus import canonical_dumps
from fusionsim.scenario import load_replay
from fusionsim.scenario.replay import ReplayError, detection_line

BOX = {"bbox": [10.0, 20.0, 110.0, 90.0], "score": 1.0}
POINT = {"position": [12.0, -1.5, 0.25], "radial_speed": -2.0, "snr": 20.0}
TRUTH = {"t": 0.0, "truth": [{"id": 1, "position": [12.0, -1.5, 0.5],
                              "velocity": [1.0, 0.0, 0.0], "extent": [4.5, 1.9, 1.6]}]}


def camera(dets, t=0.1, agent="ego", sensor=0):
    return {"t": t, "agent": agent, "sensor": sensor, "type": "camera", "detections": dets}


def radar(dets, t=0.1, agent="ego", sensor=1):
    return {"t": t, "agent": agent, "sensor": sensor, "type": "radar", "detections": dets}


def text(*lines):
    """A replay document: dicts are dumped as JSON lines, strings kept as
    they are."""
    return "\n".join(line if isinstance(line, str) else json.dumps(line) for line in lines)


def refused_at(document):
    """The line number ``load_replay`` refuses ``document`` at."""
    with pytest.raises(ReplayError) as err:
        load_replay(document)
    return err.value.line


def test_lines_load_as_row_arrays():
    replay = load_replay(text(TRUTH, camera([BOX, BOX]), "", radar([POINT]),
                              camera([], t=0.2)))
    boxes = replay.detections_at(0.1, "ego", 0)
    assert boxes.dtype == np.float64
    assert boxes.tolist() == [BOX["bbox"] + [1.0]] * 2
    assert replay.detections_at(0.1, "ego", 1).tolist() == [[12.0, -1.5, 0.25, -2.0, 20.0]]
    assert replay.detections_at(0.2, "ego", 0).shape == (0, 5)
    assert replay.sensor_types == {("ego", 0): "camera", ("ego", 1): "radar"}
    assert replay.truth_times == [0.0]


def test_a_radar_row_without_snr_reads_zero():
    point = {"position": [1.0, 2.0, 3.0], "radial_speed": 0.5}
    assert load_replay(text(radar([point]))).detections_at(0.1, "ego", 1).tolist() == \
        [[1.0, 2.0, 3.0, 0.5, 0.0]]


def test_detection_lines_round_trip_bit_for_bit():
    rng = np.random.default_rng(3)
    boxes = np.sort(rng.normal(0.0, 500.0, (4, 2, 2)), axis=2).transpose(0, 2, 1).reshape(4, 4)
    cam = np.column_stack([boxes, rng.uniform(0.0, 1.0, 4)])
    rad = np.column_stack([rng.normal(0.0, 50.0, (3, 3)), rng.normal(size=(3, 2))])
    document = b"".join(canonical_dumps(detection_line(0.1, "ego", i, kind, rows)) + b"\n"
                        for i, (kind, rows) in enumerate([("camera", cam), ("radar", rad)]))
    replay = load_replay(document.decode())
    assert np.array_equal(replay.detections_at(0.1, "ego", 0), cam)
    assert np.array_equal(replay.detections_at(0.1, "ego", 1), rad)


def test_malformed_json():
    assert refused_at(text(TRUTH, '{"t": 0.1, "agent":')) == 2


def test_a_line_without_t():
    line = camera([BOX])
    del line["t"]
    assert refused_at(text(TRUTH, camera([BOX]), line)) == 3
    assert refused_at(text("[1, 2]")) == 1


def test_an_unknown_sensor_type():
    line = camera([BOX])
    line["type"] = "lidar"
    assert refused_at(text(camera([BOX]), line)) == 2


def test_a_sensor_that_changes_type():
    assert refused_at(text(camera([BOX]), radar([POINT], t=0.2, sensor=0))) == 2


def test_a_duplicate_detection_line():
    assert refused_at(text(camera([BOX]), radar([POINT]), camera([]))) == 3


@pytest.mark.parametrize("bbox", [[10.0, 20.0, 10.0, 90.0], [10.0, 90.0, 110.0, 20.0],
                                  [110.0, 20.0, 10.0, 90.0], [float("nan"), 20.0, 110.0, 90.0]])
def test_a_degenerate_bbox(bbox):
    assert refused_at(text(TRUTH, camera([BOX, {"bbox": bbox, "score": 1.0}]))) == 2


@pytest.mark.parametrize("score", [-0.1, 1.5, float("nan")])
def test_a_score_outside_the_unit_interval(score):
    assert refused_at(text(camera([{"bbox": BOX["bbox"], "score": score}]))) == 1


@pytest.mark.parametrize("position", [[0.0, 0.0, 0.0], [float("nan"), 1.0, 2.0],
                                      [float("inf"), 1.0, 2.0], [1.0, -float("inf"), 2.0]])
def test_a_non_finite_or_zero_range_radar_position(position):
    point = dict(POINT, position=position)
    assert refused_at(text(camera([BOX]), radar([POINT], t=0.2), radar([point], t=0.3))) == 3


@pytest.mark.parametrize("entry", [
    {"bbox": [10.0, 20.0, 110.0], "score": 1.0},
    {"bbox": [10.0, 20.0, 110.0, 90.0, 5.0], "score": 1.0},
    {"bbox": 10.0, "score": 1.0},
    {"bbox": [[10.0], [20.0], [110.0], [90.0]], "score": [1.0]},
])
def test_a_camera_row_of_the_wrong_length(entry):
    assert refused_at(text(TRUTH, camera([entry, entry]))) == 2
    assert refused_at(text(TRUTH, camera([BOX, entry]))) == 2


@pytest.mark.parametrize("position", [[12.0, -1.5], [12.0, -1.5, 0.25, 1.0], []])
def test_a_radar_row_of_the_wrong_length(position):
    assert refused_at(text(radar([dict(POINT, position=position)]))) == 1


def test_five_four_number_rows_are_not_reshaped_into_four_rows_of_five():
    # the twenty numbers of five entries with a 3-number bbox, read in
    # order, are four valid camera rows; the loader keeps the entries apart
    # and refuses them
    numbers = [10.0, 20.0, 110.0, 90.0, 0.5] * 4
    short = [{"bbox": numbers[4 * k:4 * k + 3], "score": numbers[4 * k + 3]} for k in range(5)]
    assert refused_at(text(camera([BOX]), camera(short, t=0.2))) == 2
