"""Framed pub/sub transport: wire format, payload fields, link impairments.

Wire layout (normative, little-endian):

    magic   4 bytes  0x46 0x42 0x55 0x53 ("FBUS")
    version u8       always 1
    msg_type u8      see MSG_* constants
    timestamp_ns u64
    topic_len u16    then topic bytes (UTF-8)
    payload_len u32  then payload bytes

A delivery is exactly one frame: bytes after it are an error.

Message types (normative).  A payload holds exactly the keys its parser
reads, and a field of k rows is one stack (``[]`` when k is 0):

    TRACKS     tracks/{sender}         sender_pose, timestamp, ids (k ints),
                                       means (k, 6), covs (k, 6, 6)
    TASK_REQ   tasks/{worker}          task_id, frame_time, visible_ids
                                       (ints), rig_pose
    TASK_RESP  results/{ego}/{worker}  task_id, status ("ok" or
                                       "failed"), frame_time,
                                       positions (k, 3), covs (k, 3, 3)
    HEARTBEAT  hb/{worker}             nothing: the payload is empty

A pose is {rotation (3, 3), translation (3,)}.  Payloads are canonical
JSON: UTF-8, keys sorted, no insignificant whitespace, floats in shortest
round-trip form.  Canonical bytes are what the determinism contract
hashes and diffs.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"FBUS"
VERSION = 1

MSG_TRACKS = 2
MSG_TASK_REQ = 3
MSG_TASK_RESP = 4
MSG_HEARTBEAT = 5

MSG_TYPES = {
    MSG_TRACKS: "TRACKS",
    MSG_TASK_REQ: "TASK_REQ",
    MSG_TASK_RESP: "TASK_RESP",
    MSG_HEARTBEAT: "HEARTBEAT",
}

MAX_TOPIC = 0xFFFF
MAX_PAYLOAD = 0xFFFFFFFF

_HEADER = struct.Struct("<4sBBQ")  # magic, version, msg_type, timestamp_ns


class BusError(Exception):
    pass


@dataclass(frozen=True)
class BusFrame:
    msg_type: int
    timestamp_ns: int
    topic: str
    payload: bytes = b""

    def __post_init__(self):
        if self.msg_type not in MSG_TYPES:
            raise BusError(f"msg_type {self.msg_type} not in {sorted(MSG_TYPES)}")
        if not 0 <= self.timestamp_ns < 2**64:
            raise BusError("timestamp_ns must fit in u64")


def canonical_dumps(obj) -> bytes:
    """Canonical JSON bytes: sorted keys, compact, shortest-repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def canonical_loads(data: bytes):
    return json.loads(data.decode("utf-8"))


def payload_field(d: dict, key: str, kind: type):
    """Field ``key`` of a decoded payload, checked: for ``float`` a finite
    int or float, returned as a float, for any other kind a value of
    exactly that type (so a bool is not an int).  Anything else raises
    ValueError."""
    x = d[key]
    try:
        ok = type(x) in (int, float) and math.isfinite(x) if kind is float else type(x) is kind
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        raise ValueError(f"payload field {key!r}: {x!r} is not a "
                         f"{'finite number' if kind is float else kind.__name__}")
    return float(x) if kind is float else x


def payload_ints(d: dict, key: str) -> list[int]:
    """Field ``key``, a list of exact ints (not a bool or 2.5), or ValueError."""
    ints = payload_field(d, key, list)
    if not all(type(i) is int for i in ints):
        raise ValueError(f"payload field {key!r}: {ints!r} is not a list of ints")
    return ints


def payload_array(x, shape: tuple[int, ...]) -> np.ndarray:
    """A decoded payload's nested lists of numbers as a float array of
    exactly ``shape``; anything else raises ValueError.  A number is an
    int or a float, as in ``payload_field``: numpy would read a bool among
    numbers as 0 or 1, so each number's own type is checked.  A stack of
    zero rows (``shape[0] == 0``) is ``[]``.  Non-finite values pass:
    each caller decides what they mean."""
    a = np.array(x)
    if shape[0] == 0 and a.shape == (0,):
        return np.empty(shape)
    if a.shape != shape or a.dtype.kind not in "iuf":
        raise ValueError(f"payload array is not numbers of shape {shape}")
    numbers = x
    for _ in shape[1:]:
        numbers = itertools.chain.from_iterable(numbers)
    if bool in map(type, numbers):
        raise ValueError(f"payload array of shape {shape} holds a bool")
    return a.astype(float, copy=False)


def encode(frame: BusFrame) -> bytes:
    topic = frame.topic.encode("utf-8")
    if len(topic) > MAX_TOPIC:
        raise BusError(f"topic is {len(topic)} bytes, limit {MAX_TOPIC}")
    if len(frame.payload) > MAX_PAYLOAD:
        raise BusError(f"payload is {len(frame.payload)} bytes, limit {MAX_PAYLOAD}")
    parts = [
        _HEADER.pack(MAGIC, VERSION, frame.msg_type, frame.timestamp_ns),
        struct.pack("<H", len(topic)),
        topic,
        struct.pack("<I", len(frame.payload)),
        frame.payload,
    ]
    return b"".join(parts)


def decode(data: bytes) -> BusFrame:
    """Decode ``data``, which must be exactly one frame."""
    if len(data) < 4:
        raise BusError("magic: fewer than 4 bytes available")
    if data[:4] != MAGIC:
        raise BusError(f"magic bytes {data[:4]!r} != {MAGIC!r}")
    if len(data) < _HEADER.size:
        raise BusError("header: buffer ends before timestamp_ns")
    _, version, msg_type, timestamp_ns = _HEADER.unpack_from(data)
    if version != VERSION:
        raise BusError(f"version {version} unsupported (expect {VERSION})")
    off = _HEADER.size
    if len(data) < off + 2:
        raise BusError("topic_len: buffer ends inside field")
    (topic_len,) = struct.unpack_from("<H", data, off)
    off += 2
    if len(data) < off + topic_len:
        raise BusError("topic: buffer ends inside topic bytes")
    try:
        topic = data[off:off + topic_len].decode("utf-8")
    except UnicodeDecodeError as e:
        raise BusError(f"topic is not valid UTF-8: {e}") from e
    off += topic_len
    if len(data) < off + 4:
        raise BusError("payload_len: buffer ends inside field")
    (payload_len,) = struct.unpack_from("<I", data, off)
    off += 4
    end = off + payload_len
    if len(data) < end:
        raise BusError("payload: buffer ends inside payload bytes")
    if len(data) > end:
        raise BusError(f"{len(data) - end} bytes after the frame")
    return BusFrame(msg_type, timestamp_ns, topic, bytes(data[off:end]))


@dataclass(frozen=True)
class LinkParams:
    base_latency: float = 0.02
    jitter: float = 0.0
    drop_prob: float = 0.0

    def __post_init__(self):
        if not (self.base_latency >= self.jitter >= 0.0):
            raise BusError("require base_latency >= jitter >= 0")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise BusError("drop_prob must be in [0, 1]")


@dataclass
class NetworkModel:
    """Per-link stochastic impairments; unknown links fall back to default."""

    default: LinkParams = field(default_factory=LinkParams)
    links: dict[str, LinkParams] = field(default_factory=dict)


def link_key(src: str, dst: str) -> str:
    return f"{src}->{dst}"


def deliver(net: NetworkModel, link: str, send_time: float,
            rng: np.random.Generator) -> float | None:
    """Delivery time for a frame sent on a link, or None when dropped.

    Draw order is fixed, as in ``sensing``: one ``rng.random()`` for the
    drop decision, then one for jitter when the frame survives and jitter
    > 0.  Reordering emerges when jitter windows of consecutive sends overlap.
    """
    p = net.links.get(link, net.default)
    if rng.random() < p.drop_prob:
        return None
    delay = p.base_latency
    if p.jitter > 0.0:
        delay += -p.jitter + (p.jitter + p.jitter) * rng.random()
    return send_time + delay
