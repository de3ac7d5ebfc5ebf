"""Every bus message type round-trips through its canonical wire form bit
for bit: ``from_payload(canonical_loads(canonical_dumps(to_payload())))``
gives back each field with its type, and each float and array with its
bits (-0.0, subnormals and integral floats included).  A heartbeat has no
payload; its worker travels in its topic, as a remote track message's
sender does.  A payload that is not exactly one a sender writes is
refused with what the engine counts as malformed, and nothing else."""

import json
import struct
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import MUTATIONS, mutate

from fusionsim import bus
from fusionsim.bus import canonical_dumps, canonical_loads
from fusionsim.collab import RemoteTrackMsg, RemoteTracks
from fusionsim.fusion import Detections
from fusionsim.geometry import Pose, rotation_from_rpy_deg
from fusionsim.offload import STATUS_FAILED, STATUS_OK, TaskRequest, TaskResult
from fusionsim.scenario import apply_overrides, load_scenario
from fusionsim.scenario.engine import _DELIVERY, Engine

numbers = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 3.0, -7.0]) | st.floats(
    allow_nan=False, allow_infinity=False)
ids = st.integers(-2**63, 2**63)
rows = st.integers(0, 4)
statuses = st.sampled_from([STATUS_OK, STATUS_FAILED])
angles = st.floats(-180.0, 180.0)


def stack(k, *shape):
    return arrays(np.float64, (k, *shape), elements=numbers)


poses = st.builds(lambda r, p, y, t: Pose(rotation_from_rpy_deg(r, p, y), t),
                  angles, angles, angles, stack(3))


def bits(x):
    """``x`` as nested tuples that are equal exactly when the values are
    equal bit for bit, types, dtypes and shapes included."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if is_dataclass(x):
        return type(x).__name__, tuple(bits(getattr(x, f.name)) for f in fields(x))
    if isinstance(x, tuple):
        return tuple(bits(v) for v in x)
    if isinstance(x, float):
        return "float", struct.pack("<d", x)
    return type(x).__name__, x


def read(message, payload):
    """``payload`` read as a message of ``message``'s type; a remote track
    message takes its sender from its frame's topic, here ``message``'s."""
    if isinstance(message, RemoteTrackMsg):
        return RemoteTrackMsg.from_payload(payload, message.sender)
    return type(message).from_payload(payload)


def round_trip(message):
    return read(message, canonical_loads(canonical_dumps(message.to_payload())))


@st.composite
def remote_track_msgs(draw):
    k = draw(rows)
    tracks = RemoteTracks(tuple(draw(st.lists(ids, min_size=k, max_size=k))),
                          draw(stack(k, 6)), draw(stack(k, 6, 6)))
    return RemoteTrackMsg(draw(st.sampled_from(["ego", "rsu1"])), draw(poses), draw(numbers),
                          tracks)


@st.composite
def task_results(draw):
    k = draw(rows)
    return TaskResult(draw(ids), draw(statuses), draw(numbers),
                      Detections(draw(stack(k, 3)), draw(stack(k, 3, 3))))


task_requests = st.builds(TaskRequest, ids, numbers, st.lists(ids, max_size=4).map(tuple), poses)


@pytest.mark.parametrize("messages", [remote_track_msgs(), task_requests, task_results()],
                         ids=["TRACKS", "TASK_REQ", "TASK_RESP"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_the_payload_round_trips_bit_for_bit(messages, data):
    message = data.draw(messages)
    back = round_trip(message)
    assert bits(back) == bits(message)
    if isinstance(back, RemoteTrackMsg):
        assert len(back.tracks) == len(back.tracks.ids) == len(back.tracks.means)


def test_a_heartbeat_names_its_worker_in_its_topic(scenario_dir):
    doc = json.loads((scenario_dir / "urban.json").read_text())
    engine = Engine(apply_overrides(load_scenario(json.dumps(doc)), mode="cr-dist"))
    parse, _ = _DELIVERY[bus.MSG_HEARTBEAT]
    assert engine.workers
    for wid in engine.workers:
        frame = bus.decode(bus.encode(bus.BusFrame(bus.MSG_HEARTBEAT, 0, f"hb/{wid}")))
        assert frame.payload == b"" and parse(engine, frame) == (wid,)


def test_a_remote_track_message_names_its_sender_in_its_topic(scenario_dir):
    doc = json.loads((scenario_dir / "urban.json").read_text())
    engine = Engine(apply_overrides(load_scenario(json.dumps(doc)), mode="cr-covi"))
    parse, _ = _DELIVERY[bus.MSG_TRACKS]
    message = MESSAGES[0]
    payload = canonical_dumps(message.to_payload())
    assert "sender" not in json.loads(payload)
    for sender in sorted(engine.agents):
        frame = bus.BusFrame(bus.MSG_TRACKS, 0, f"tracks/{sender}", payload)
        (back,) = parse(engine, frame)
        assert back.sender == sender and bits(back.tracks) == bits(message.tracks)


# One message of each type, as a sender writes it.
MESSAGES = [RemoteTrackMsg("rsu1", Pose.identity(), 0.4, RemoteTracks(
                (1, 2), np.full((2, 6), 3.0), np.stack([np.eye(6)] * 2))),
            TaskRequest(500, 0.5, (1, 7), Pose.identity()),
            TaskResult(1, STATUS_OK, 0.5, Detections(np.full((2, 3), 10.0),
                                                     np.stack([np.eye(3)] * 2)))]


@pytest.mark.parametrize("message", MESSAGES, ids=["TRACKS", "TASK_REQ", "TASK_RESP"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(spec=MUTATIONS)
def test_a_mutated_payload_is_refused_or_read_as_written(message, spec):
    # a parser raises what the engine counts as malformed, or reads a
    # message whose payload is the mutated one (an int number read as its
    # float); a remote track's non-finite number is read as written, for
    # ``align`` to refuse, so both sides name such numbers to compare them
    payload = mutate(json.loads(canonical_dumps(message.to_payload())), **spec)
    try:
        back = read(message, payload)
    except ValueError:
        return
    assert named_non_finite(back.to_payload()) == named_non_finite(payload)


def named_non_finite(payload):
    """``payload`` with each non-finite number replaced by its JSON name."""
    return json.loads(json.dumps(payload), parse_constant=str)
