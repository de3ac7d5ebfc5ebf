"""Every bus message type round-trips through its binary payload bit for
bit: ``from_payload(to_payload())`` gives back each field with its type,
and each float and array with its bits (-0.0, subnormals and integral
floats included), the arrays new, writable and native.  A golden frame of
each type pins its layout byte for byte.  A heartbeat has no payload; its
worker travels in its topic, as a remote track message's sender does.  A
payload that is not exactly one a sender writes is refused with what the
engine counts as malformed, and nothing else: each cut or extended
payload is refused, and each payload with a byte changed is refused or
read as a message that writes exactly those bytes."""

import dataclasses
import itertools
import json
import struct
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fusionsim import bus
from fusionsim.collab import RemoteTrackMsg, RemoteTracks
from fusionsim.fusion import Detections
from fusionsim.geometry import OPTICAL_FROM_BODY, Pose, rotation_from_rpy_deg
from fusionsim.offload import STATUS_FAILED, STATUS_OK, TaskRequest, TaskResult
from fusionsim.scenario import apply_overrides, load_scenario
from fusionsim.scenario.engine import _DELIVERY, Engine

# every number a reader accepts: finite and at most bus.MAX_MAGNITUDE in size
numbers = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 3.0, -7.0,
                           bus.MAX_MAGNITUDE, -bus.MAX_MAGNITUDE]) | st.floats(
    -bus.MAX_MAGNITUDE, bus.MAX_MAGNITUDE)
# an id travels as an i64, and the loaders refuse one outside it
ids = st.integers(-2**63, 2**63 - 1)
rows = st.integers(0, 4)
statuses = st.sampled_from([STATUS_OK, STATUS_FAILED])
angles = st.floats(-180.0, 180.0)


def stack(k, *shape):
    return arrays(np.float64, (k, *shape), elements=numbers)


def symmetric(covs):
    """Each matrix of a stack with its upper triangle replaced by its lower
    one's mirror: symmetric exactly, as a TRACKS reader requires."""
    lower = np.tril(covs)
    return lower + np.tril(covs, -1).swapaxes(-1, -2)


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


def payload_size(message):
    """The bytes of ``message``'s payload, as the ``bus`` docstring states
    them per type."""
    if isinstance(message, RemoteTrackMsg):
        return 108 + 344 * len(message.tracks)
    if isinstance(message, TaskRequest):
        return 116 + 8 * len(message.visible_ids)
    return 21 + 96 * len(message.detections)


def arrays_of(x):
    """Every array of a message, through its dataclasses."""
    if isinstance(x, np.ndarray):
        return [x]
    if is_dataclass(x):
        return [a for f in fields(x) for a in arrays_of(getattr(x, f.name))]
    return []


@st.composite
def remote_track_msgs(draw):
    k = draw(rows)
    tracks = RemoteTracks(tuple(draw(st.lists(ids, min_size=k, max_size=k))),
                          draw(stack(k, 6)), symmetric(draw(stack(k, 6, 6))))
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
    payload = message.to_payload()
    assert len(payload) == payload_size(message)
    back = read(message, payload)
    assert bits(back) == bits(message)
    # new, writable, native arrays, none of them sharing memory
    read_arrays = arrays_of(back)
    for a in read_arrays:
        assert a.flags.writeable and a.dtype.isnative
    for a, b in itertools.combinations([np.frombuffer(payload, np.uint8), *read_arrays], 2):
        assert not np.shares_memory(a, b)
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
    payload = message.to_payload()
    assert dataclasses.replace(message, sender="ego").to_payload() == payload
    for sender in sorted(engine.agents):
        frame = bus.BusFrame(bus.MSG_TRACKS, 0, f"tracks/{sender}", payload)
        (back,) = parse(engine, frame)
        assert back.sender == sender and bits(back.tracks) == bits(message.tracks)


# One message of each type, as a sender writes it.  Their poses' rotations
# are not symmetric and their rows differ, so the golden frames pin the
# order of every array.
MESSAGES = [RemoteTrackMsg("rsu1", Pose(OPTICAL_FROM_BODY, [1.5, -2.0, 0.25]), 0.4,
                           RemoteTracks((1, 2), np.arange(12.0).reshape(2, 6),
                                        np.stack([np.eye(6), 2.0 * np.eye(6)]))),
            TaskRequest(500, 0.5, (1, 7), Pose(OPTICAL_FROM_BODY.T, [0.0, 0.0, 1.5])),
            TaskResult(1, STATUS_OK, 0.5, Detections(
                np.array([[10.0, 0.5, -1.0], [12.0, 2.5, 0.0]]),
                np.stack([np.eye(3), 0.25 * np.eye(3)])))]


NAMES = ["TRACKS", "TASK_REQ", "TASK_RESP"]
# Each message of MESSAGES in its golden frame: the file of its hex, one
# field or array row a line, and its frame's type, timestamp and topic.
GOLDEN_FRAMES = [("tracks_frame.hex", bus.MSG_TRACKS, 400_000_000, "tracks/rsu1"),
                 ("task_req_frame.hex", bus.MSG_TASK_REQ, 500_000_000, "tasks/edge1/w0"),
                 ("task_resp_frame.hex", bus.MSG_TASK_RESP, 700_000_000,
                  "results/ego/edge1/w0")]


def golden_hex(golden_dir, name):
    return "".join((golden_dir / name).read_text().split())


@pytest.mark.parametrize("message, golden", zip(MESSAGES, GOLDEN_FRAMES), ids=NAMES)
def test_golden_frame_encodes_exactly(message, golden, golden_dir):
    name, msg_type, timestamp_ns, topic = golden
    frame = bus.BusFrame(msg_type, timestamp_ns, topic, message.to_payload())
    assert bus.encode(frame).hex() == golden_hex(golden_dir, name)


@pytest.mark.parametrize("message, golden", zip(MESSAGES, GOLDEN_FRAMES), ids=NAMES)
def test_golden_frame_decodes_exactly(message, golden, golden_dir):
    name, msg_type, timestamp_ns, topic = golden
    frame = bus.decode(bytes.fromhex(golden_hex(golden_dir, name)))
    assert (frame.msg_type, frame.timestamp_ns, frame.topic) == (msg_type, timestamp_ns, topic)
    assert bits(read(message, frame.payload)) == bits(message)


def refused_or_read_as_written(message, payload):
    """``payload``, read as ``message``'s type, raises what the engine
    counts as malformed or reads a message that writes exactly it."""
    try:
        back = read(message, payload)
    except ValueError:
        return
    assert back.to_payload() == payload


def changed(payload, at, value):
    out = bytearray(payload)
    out[at] = value
    return bytes(out)


@pytest.mark.parametrize("message", MESSAGES, ids=NAMES)
def test_a_cut_or_extended_payload_is_refused(message):
    payload = message.to_payload()
    for cut in range(len(payload)):
        with pytest.raises(ValueError):
            read(message, payload[:cut])
    for byte in range(256):
        with pytest.raises(ValueError):
            read(message, payload + bytes([byte]))


@pytest.mark.parametrize("message", MESSAGES, ids=NAMES)
def test_each_byte_flipped_is_refused_or_read_as_written(message):
    # the lowest and highest bit and the whole byte, at every place: the
    # least and most significant bytes of every number
    payload = message.to_payload()
    for at in range(len(payload)):
        for flip in (0x01, 0x80, 0xFF):
            refused_or_read_as_written(message, changed(payload, at, payload[at] ^ flip))


@pytest.mark.slow
@pytest.mark.parametrize("message", MESSAGES, ids=NAMES)
def test_every_single_byte_change_is_refused_or_read_as_written(message):
    payload = message.to_payload()
    for at in range(len(payload)):
        for value in range(256):
            if value != payload[at]:
                refused_or_read_as_written(message, changed(payload, at, value))


@pytest.mark.parametrize("message", MESSAGES, ids=NAMES)
@settings(derandomize=True, max_examples=200, deadline=None)
@given(how=st.sampled_from(["cut", "append", "change"]), at=st.integers(0, 2**16),
       value=st.integers(0, 255))
def test_a_mutated_payload_is_refused_or_read_as_written(message, how, at, value):
    payload = message.to_payload()
    at %= len(payload)
    mutated = {"cut": payload[:at], "append": payload + bytes([value]),
               "change": changed(payload, at, value)}[how]
    refused_or_read_as_written(message, mutated)
