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

JSON from outside the program (payloads, replay lines, scenario
documents) is read by one rule: decoded by ``canonical_loads``, an object
holds no unknown key (``payload_keys``), and a field is present and of
its kind, numbers typed and never cast (``payload_field``).

Every check that refuses a value raises plain ValueError: these readers,
the frame codec, the configs', poses' and intrinsics' own checks,
``check_symmetric`` and ``align``.  Each boundary converts it once:
``load_scenario`` and ``apply_overrides`` raise ValidationError naming
the JSON path (ParseError if the document does not decode),
``load_replay`` raises ReplayError with the line, ``Engine.on_deliver``
counts the frame malformed, and ``covi_step`` counts the message
rejected.
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
# ``json.loads`` without its per-call argument checks, 0.4 of the 9 µs a
# replay line takes to decode
_decode = json.JSONDecoder().decode


@dataclass(frozen=True)
class BusFrame:
    msg_type: int
    timestamp_ns: int
    topic: str
    payload: bytes = b""

    def __post_init__(self):
        if self.msg_type not in MSG_TYPES:
            raise ValueError(f"msg_type {self.msg_type} not in {sorted(MSG_TYPES)}")
        if not 0 <= self.timestamp_ns < 2**64:
            raise ValueError("timestamp_ns must fit in u64")


def canonical_dumps(obj) -> bytes:
    """Canonical JSON bytes: sorted keys, compact, shortest-repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def canonical_loads(data: bytes | str):
    """JSON from outside the program (bytes as UTF-8), decoded; malformed,
    nesting past the interpreter's limit included, raises only ValueError."""
    try:
        return _decode(data.decode("utf-8") if type(data) is bytes else data)
    except RecursionError:  # what ``json`` raises for nesting that deep
        raise json.JSONDecodeError("nested too deep", "", 0) from None


def payload_keys(d, allowed, where: str = "payload") -> None:
    """ValueError unless ``d`` is an object whose keys are all in the set
    ``allowed``; ``where`` names it in the message."""
    if type(d) is not dict:
        raise ValueError(f"{where} must be an object")
    if not d.keys() <= allowed:
        raise ValueError(f"{where} has unknown fields {sorted(d.keys() - allowed)}")


def payload_field(d: dict, key: str, kind):
    """Field ``key`` of a decoded payload object, checked: for ``float`` a
    finite int or float, as a float, for a shape (a tuple) ``payload_array``'s
    array, else a value of exactly type ``kind`` (a bool is no int).  A
    missing field or anything else raises ValueError."""
    try:
        x = d[key]
    except KeyError:
        raise ValueError(f"payload field {key!r} is missing") from None
    if type(kind) is tuple:
        return payload_array(x, kind)
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
        raise ValueError(f"topic is {len(topic)} bytes, limit {MAX_TOPIC}")
    if len(frame.payload) > MAX_PAYLOAD:
        raise ValueError(f"payload is {len(frame.payload)} bytes, limit {MAX_PAYLOAD}")
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
        raise ValueError("magic: fewer than 4 bytes available")
    if data[:4] != MAGIC:
        raise ValueError(f"magic bytes {data[:4]!r} != {MAGIC!r}")
    if len(data) < _HEADER.size:
        raise ValueError("header: buffer ends before timestamp_ns")
    _, version, msg_type, timestamp_ns = _HEADER.unpack_from(data)
    if version != VERSION:
        raise ValueError(f"version {version} unsupported (expect {VERSION})")
    off = _HEADER.size
    if len(data) < off + 2:
        raise ValueError("topic_len: buffer ends inside field")
    (topic_len,) = struct.unpack_from("<H", data, off)
    off += 2
    if len(data) < off + topic_len:
        raise ValueError("topic: buffer ends inside topic bytes")
    try:
        topic = data[off:off + topic_len].decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"topic is not valid UTF-8: {e}") from e
    off += topic_len
    if len(data) < off + 4:
        raise ValueError("payload_len: buffer ends inside field")
    (payload_len,) = struct.unpack_from("<I", data, off)
    off += 4
    end = off + payload_len
    if len(data) < end:
        raise ValueError("payload: buffer ends inside payload bytes")
    if len(data) > end:
        raise ValueError(f"{len(data) - end} bytes after the frame")
    return BusFrame(msg_type, timestamp_ns, topic, bytes(data[off:end]))


@dataclass(frozen=True)
class LinkParams:
    base_latency: float = 0.02
    jitter: float = 0.0
    drop_prob: float = 0.0

    def __post_init__(self):
        if not (self.base_latency >= self.jitter >= 0.0):
            raise ValueError("require base_latency >= jitter >= 0")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must be in [0, 1]")


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
