"""The replay loader: each detection line becomes one (n, 5) array and
each truth line one ``Truth`` batch.

A camera row is ``[umin, vmin, umax, vmax, score]`` and a radar row
``[x, y, z, radial_speed, snr]``.  The loader holds every row and truth
object to what a live run guarantees, and a bad line raises
``ReplayError`` naming its line number.  A row or vector of the wrong
length is refused, never reshaped.  Between and beyond the truth lines,
``truth_at`` and ``positions`` interpolate as pinned below, and
``positions`` gives the position ``truth_at`` gives at every waypoint,
or marks the object not found where a line around it leaves it out.  The
line writers and the loader agree both ways: arrays written and loaded
are the same arrays, and a live run's file loaded and written is the
same lines.
"""

import json
from collections import Counter

import numpy as np
import pytest

from fusionsim.scenario import apply_overrides, load_replay, load_scenario
from fusionsim.scenario.engine import Engine, RunReport
from fusionsim.scenario.replay import ReplayError, detection_line, truth_line
from fusionsim.sensing import Truth

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
    document = b"".join(detection_line(0.1, "ego", i, kind, rows)
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
                                      [float("inf"), 1.0, 2.0], [1.0, -float("inf"), 2.0],
                                      pytest.param([1e-170, -1e-170, 0.0], id="range-underflows")])
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


# -- ground truth between and beyond the recorded lines -----------------------


def truth_dict(t, *objects):
    """A truth line of ``(id, position, velocity, extent)`` objects."""
    return {"t": t, "truth": [{"id": oid, "position": p, "velocity": v, "extent": e}
                              for oid, p, v, e in objects]}


def objects_of(truth):
    """A ``truth_at`` result as ``(id, position, velocity, extent)`` lists,
    in its order."""
    return list(zip(truth.ids, truth.positions.tolist(), truth.velocities.tolist(),
                    truth.extents.tolist()))


def position(replay, obj_id, t):
    """``obj_id``'s position at ``t`` by ``positions``; None if not found."""
    out, found = replay.positions((obj_id,), np.array([[t]]))
    return out[0, 0] if found[0] else None


CAR = (7, [0.0, 10.0, 0.5], [1.0, 0.0, 0.0], [4.5, 1.9, 1.6])
VAN = (3, [5.0, -2.0, 0.75], [0.0, 2.0, 0.0], [4.2, 1.8, 1.5])
LATER = [(7, [2.0, 10.0, 0.5], [3.0, 0.0, 0.0], [4.5, 2.0, 1.6]),
         (3, [5.0, 2.0, 0.75], [0.0, 4.0, 0.0], [4.2, 1.8, 1.5]),
         (9, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])]
RECORDED = text(truth_dict(1.0, CAR, VAN), camera([BOX]), truth_dict(2.0, *LATER))


def test_truth_at_a_recorded_time_is_its_line():
    replay = load_replay(RECORDED)
    assert objects_of(replay.truth_at(1.0)) == [CAR, VAN]
    assert objects_of(replay.truth_at(2.0)) == LATER
    assert position(replay, 3, 1.0).tolist() == VAN[1]
    assert position(replay, 9, 2.0).tolist() == LATER[2][1]


def test_truth_between_lines_interpolates_positions_and_takes_the_later_line():
    replay = load_replay(RECORDED)
    # id order; velocity and extent from the line at 2.0
    assert objects_of(replay.truth_at(1.5)) == [
        (3, [5.0, 0.0, 0.75], [0.0, 4.0, 0.0], [4.2, 1.8, 1.5]),
        (7, [1.0, 10.0, 0.5], [3.0, 0.0, 0.0], [4.5, 2.0, 1.6])]
    alpha = (1.3 - 1.0) / (2.0 - 1.0)
    expected = np.array(CAR[1]) + alpha * (np.array(LATER[0][1]) - np.array(CAR[1]))
    assert np.array_equal(position(replay, 7, 1.3), expected)
    assert objects_of(replay.truth_at(1.3))[1][1] == expected.tolist()


def test_truth_outside_the_lines_is_the_nearest_line():
    replay = load_replay(RECORDED)
    assert objects_of(replay.truth_at(0.25)) == [VAN, CAR]
    assert objects_of(replay.truth_at(9.0)) == sorted(LATER)
    assert position(replay, 7, 0.0).tolist() == CAR[1]
    assert position(replay, 9, 9.0).tolist() == LATER[2][1]


def test_an_object_missing_from_a_neighbouring_line_is_left_out():
    replay = load_replay(RECORDED)
    assert [oid for oid, *_ in objects_of(replay.truth_at(1.5))] == [3, 7]
    assert position(replay, 9, 1.5) is None
    assert position(replay, 9, 0.5) is None
    assert position(replay, 9, 1.0) is None
    assert position(replay, 4, 2.0) is None


def test_positions_are_truth_at_at_every_waypoint():
    replay = load_replay(RECORDED)
    times = np.array([[0.5, 1.0, 1.3, 2.0, 9.0], [1.0, 1.25, 1.5, 1.75, 2.0]])
    out, found = replay.positions((7, 3), times)
    assert found.tolist() == [True, True]
    for m, oid in enumerate((7, 3)):
        for k, t in enumerate(times[m].tolist()):
            truth = replay.truth_at(t)
            assert out[m, k].tolist() == truth.positions[truth.ids.index(oid)].tolist()


def test_a_position_at_or_beyond_a_line_is_its_own_row():
    # a + 0 * (b - a) would turn the line's -0.0 into 0.0
    replay = load_replay(text(truth_dict(1.0, (7, [-0.0, 10.0, 0.5], *CAR[2:])),
                              truth_dict(2.0, CAR)))
    out, _ = replay.positions((7,), np.array([[0.0, 1.0]]))
    assert np.signbit(out[0, :, 0]).tolist() == [True, True]


def test_an_object_missing_at_any_waypoint_is_not_found():
    replay = load_replay(RECORDED)
    _, found = replay.positions((9, 3, 9, 4), np.array([[2.0, 1.5], [1.0, 2.0],
                                                        [2.0, 9.0], [2.0, 2.0]]))
    assert found.tolist() == [False, True, True, False]


def test_without_truth_lines_there_is_no_truth():
    replay = load_replay(text(camera([BOX])))
    assert replay.truth_times == []
    assert objects_of(replay.truth_at(0.1)) == []
    assert position(replay, 1, 0.1) is None


# -- truth line checks ----------------------------------------------------------


def truth_entry(**fields):
    return dict(TRUTH["truth"][0], **fields)


@pytest.mark.parametrize("extent", [[4.5, -1.9, 1.6], [0.0, 1.9, 1.6], [4.5, 1.9, -0.0]])
def test_a_truth_extent_that_is_not_positive(extent):
    assert refused_at(text(TRUTH, camera([BOX]), {"t": 0.2, "truth": [
        truth_entry(), truth_entry(id=2, extent=extent)]})) == 3


@pytest.mark.parametrize("field", ["position", "velocity", "extent"])
@pytest.mark.parametrize("value", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [], 1.0,
                                   [[1.0], [2.0], [3.0]], None])
def test_a_truth_vector_that_is_not_three_numbers(field, value):
    bad = truth_entry(id=2, **{field: value})
    assert refused_at(text(TRUTH, {"t": 0.2, "truth": [bad]})) == 2
    assert refused_at(text(TRUTH, {"t": 0.2, "truth": [bad, dict(bad, id=3)]})) == 2
    assert refused_at(text(TRUTH, {"t": 0.2, "truth": [truth_entry(), bad]})) == 2


@pytest.mark.parametrize("field", ["position", "velocity", "extent"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_truth_vector(field, bad):
    vector = list(truth_entry()[field])
    vector[1] = bad
    assert refused_at(text(TRUTH, {"t": 0.2, "truth": [truth_entry(**{field: vector})]})) == 2


def test_a_duplicate_id_within_a_truth_line():
    assert refused_at(text(TRUTH, {"t": 0.2, "truth": [
        truth_entry(), truth_entry(id=2), truth_entry(position=[0.0, 1.0, 2.0])]})) == 2


def test_a_second_truth_line_for_the_same_time():
    assert refused_at(text(TRUTH, camera([BOX], t=0.0), TRUTH)) == 3


@pytest.mark.parametrize("entries", [None, {}, {"id": 1}, "", "abc", [1, 2], [{"id": 1}]])
def test_a_malformed_truth_list(entries):
    assert refused_at(text(TRUTH, {"t": 0.2, "truth": entries})) == 2


@pytest.mark.parametrize("t", [None, "x", [0.1], float("nan"), float("inf"), -float("inf"),
                               pytest.param(10**400, id="beyond-float")])
def test_a_bad_time(t):
    assert refused_at(text(TRUTH, {"t": t, "truth": []})) == 2
    assert refused_at(text(TRUTH, camera([BOX], t=t))) == 2


@pytest.mark.parametrize("field", ["radial_speed", "snr"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_radial_speed_or_snr(field, value):
    assert refused_at(text(camera([BOX]), radar([dict(POINT, **{field: value})]))) == 2


def test_a_detection_number_beyond_float_range():
    assert refused_at(text(camera([BOX]), radar([dict(POINT, radial_speed=10**400)]))) == 2


@pytest.mark.parametrize("sensor", [None, "x", [0], float("nan"), float("inf")])
def test_a_bad_sensor_index(sensor):
    assert refused_at(text(TRUTH, camera([BOX], sensor=sensor))) == 2


@pytest.mark.parametrize("line", [
    pytest.param(camera([BOX], t="0.5"), id="t-string"),
    pytest.param(camera([BOX], t=True), id="t-bool"),
    pytest.param(camera([BOX], sensor=1.7), id="sensor-fraction"),
    pytest.param(camera([BOX], sensor=1.0), id="sensor-float"),
    pytest.param(camera([BOX], sensor=True), id="sensor-bool"),
    pytest.param(camera([BOX], sensor="0"), id="sensor-string"),
    pytest.param(camera([dict(BOX, score="1")]), id="score-string"),
    pytest.param(camera([dict(BOX, score=True)]), id="score-bool"),
    pytest.param(camera([dict(BOX, bbox=["10", "20", "110", "90"])]), id="bbox-strings"),
    pytest.param(radar([dict(POINT, position=["1", "2", "3"])]), id="position-strings"),
    pytest.param(radar([dict(POINT, position=[1.0, "2", 3.0])]), id="position-one-string"),
    pytest.param(radar([dict(POINT, radial_speed="-2")]), id="radial-speed-string"),
    pytest.param(radar([dict(POINT, snr=True)]), id="snr-bool"),
    pytest.param(radar([dict(POINT, snr=None)]), id="snr-null"),
    pytest.param(radar([dict(POINT, position=[12.0, True, 0.25])]), id="position-one-bool"),
    pytest.param(camera([dict(BOX, bbox=[10.0, 20.0, 110.0, True])]), id="bbox-one-bool"),
    pytest.param({"t": 0.2, "truth": [truth_entry(extent=[4.5, True, 1.6])]},
                 id="truth-extent-one-bool"),
    pytest.param({"t": 0.2, "truth": [truth_entry(id=2.9)]}, id="id-fraction"),
    pytest.param({"t": 0.2, "truth": [truth_entry(id=2.0)]}, id="id-float"),
    pytest.param({"t": 0.2, "truth": [truth_entry(id=True)]}, id="id-bool"),
    pytest.param({"t": 0.2, "truth": [truth_entry(id="2")]}, id="id-string"),
    pytest.param({"t": 0.2, "truth": [truth_entry(position=["1", "2", "3"])]},
                 id="truth-position-strings"),
    pytest.param({"t": 0.2, "truth": [truth_entry(velocity=["1", "0", "0"])]},
                 id="truth-velocity-strings"),
    pytest.param({"t": 0.2, "truth": [truth_entry(id=None)]}, id="id-null"),
])
def test_a_number_of_another_type_is_refused_not_converted(line):
    assert refused_at(text(TRUTH, line)) == 2


def test_ints_load_as_the_numbers_they_are():
    # an int is a number of the line's own type: it loads as its float
    replay = load_replay(text({"t": 0, "truth": [truth_entry(position=[12, -1, 0])]},
                              radar([dict(POINT, position=[12, -1, 1], snr=20)], t=1)))
    assert replay.truth_times == [0.0] and type(replay.truth_times[0]) is float
    assert replay.truth[0.0].positions.tolist() == [[12.0, -1.0, 0.0]]
    assert replay.detections_at(1.0, "ego", 1).tolist() == [[12.0, -1.0, 1.0, -2.0, 20.0]]


def test_truth_lines_round_trip_bit_for_bit():
    # the report's truth records, read back, are the batches they hold,
    # with signed zeros, subnormals and the largest magnitudes among the numbers
    rng = np.random.default_rng(11)
    edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 20.0])

    def batch(n):
        ids = tuple(rng.permutation(100)[:n].tolist())
        positions, velocities = (np.where(rng.uniform(size=(n, 3)) < 0.3,
                                          rng.choice(edge, (n, 3)),
                                          rng.normal(0.0, 1e3, (n, 3))) for _ in range(2))
        extents = np.where(rng.uniform(size=(n, 3)) < 0.3, rng.choice(edge[4:], (n, 3)),
                           rng.uniform(0.1, 10.0, (n, 3)))
        return Truth(ids, positions, velocities, np.abs(extents))

    records = [(0.05 * k, batch(n)) for k, n in enumerate([3, 0, 7, 1])]
    records.insert(2, (0.05, "ego", 0, "camera", np.array([[1.0, 2.0, 3.0, 4.0, 1.0]])))
    replay = load_replay(RunReport({}, [], records).replay_jsonl().decode())
    truth_records = [record for record in records if len(record) == 2]
    assert replay.truth_times == [t for t, _ in truth_records]
    for t, truth in truth_records:
        loaded = replay.truth[t]
        assert loaded.ids == truth.ids
        for got, want in zip(loaded[1:], truth[1:]):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_the_writers_write_a_live_file_back_line_for_line(scenario_dir):
    # bytes -> arrays -> bytes: every line of a 2 s urban cr-dist run's
    # replay, loaded and written again by its line's writer, is itself
    doc = json.loads((scenario_dir / "urban.json").read_text())
    doc["duration"] = 2.0
    sc = apply_overrides(load_scenario(json.dumps(doc)), mode="cr-dist")
    document = Engine(sc).run().replay_jsonl()
    replay = load_replay(document.decode())
    written = [detection_line(t, agent, sidx, replay.sensor_types[agent, sidx], rows)
               for (t, agent, sidx), rows in replay.detections.items()]
    written += [truth_line(t, truth) for t, truth in replay.truth.items()]
    assert Counter(written) == Counter(document.splitlines(keepends=True))
