"""Framed pub/sub transport: wire format, payload layouts, JSON fields, link impairments.

Wire layout (normative, little-endian):

    magic   4 bytes  0x46 0x42 0x55 0x53 ("FBUS")
    version u8       always 1
    msg_type u8      see MSG_* constants
    timestamp_ns u64
    topic_len u16    then topic bytes (UTF-8)
    payload_len u32  then payload bytes

A delivery is exactly one frame: bytes after it are an error.

Message types (normative).  A heartbeat's payload is empty.  Every other
payload is one fixed little-endian layout without padding: a head of
``struct`` fields whose last, n, counts the message's rows, then the
message's arrays, each in C order.  f64 is an IEEE 754 binary64, i64 a
two's-complement integer, u32 and u8 unsigned integers:

    TRACKS     tracks/{sender}         head  timestamp f64, n u32
                                       then  sender pose, ids (n,) i64,
                                             means (n, 6) f64,
                                             covs (n, 6, 6) f64
    TASK_REQ   tasks/{worker}          head  task_id i64, frame_time f64,
                                             n u32
                                       then  rig pose, visible ids (n,) i64
    TASK_RESP  results/{ego}/{worker}  head  task_id i64, frame_time f64,
                                             status u8 (1 ok, 0 failed),
                                             n u32
                                       then  positions (n, 3) f64,
                                             covs (n, 3, 3) f64
    HEARTBEAT  hb/{worker}             nothing: the payload is empty

A pose is its rotation (3, 3) f64 then its translation (3,) f64.  A
TRACKS payload of n tracks is 108 + 344 n bytes, a TASK_REQ one 116 + 8 n
and a TASK_RESP one 21 + 96 n.

Each type's parser reads its payload through its ``Layout`` and refuses,
with ValueError:

* a payload shorter or longer than its head and count say (``Layout``);
* any f64, of the head or of an array, that is not finite or whose
  magnitude passes ``MAX_MAGNITUDE`` (``Layout``);
* a pose that ``Pose`` refuses: a rotation not orthonormal or not
  proper (TRACKS, TASK_REQ);
* a remote track covariance asymmetric by more than
  ``geometry.SYMMETRY_TOL`` (TRACKS, ``check_symmetric``);
* a status byte other than 0 or 1 (TASK_RESP).

Every other value is read as written, so a payload a parser accepts is
exactly the bytes its message's ``to_payload`` writes, and every number
round-trips bit for bit.  The sha256 of the payload bytes is what a run
reports per frame.

``MAX_MAGNITUDE`` is 1e100, far past any position (m), velocity (m/s),
covariance or time (s) a run means, and it keeps the arithmetic on
accepted numbers finite: a product of two of them, as a Mahalanobis
distance or a covariance prediction forms, stays near 1e200, and the
square of a remote covariance's ratio to a local one, which the CI
weight search forms, stays finite while the local covariance's
eigenvalues are above 1e-54.  A remote covariance of 1e200 overflowed
that square.

The engine refuses a frame once, on delivery (``Engine.on_deliver``):
one that is not exactly one frame or whose payload its parser refuses,
one whose topic names nothing the run holds, a TRACKS frame whose
``timestamp`` is later than its delivery or that no flush reads, and a
TASK_REQ frame whose ``frame_time`` lies outside the scenario.  A
refused frame counts as ``malformed``, and a frame that passes delivery
is never refused later: ``align`` and ``covi_step`` have no refusal
path.

JSON from outside the program (replay lines, scenario documents) is read
by one rule: decoded by ``canonical_loads``, an object holds no unknown
key (``payload_keys``), and a field is present and of its kind, numbers
typed and never cast (``payload_field``).  Canonical JSON (UTF-8, keys
sorted, no insignificant whitespace, floats in shortest round-trip form,
``canonical_dumps``) is the format of scenarios, replay lines and the
report.

An id travels as an i64, so ``load_scenario`` refuses an object id and
``load_replay`` a truth id outside [-2^63, 2^63) (``is_i64``); the
program numbers tracks and tasks from 0 and 1.

Every check that refuses a value raises plain ValueError: these readers,
the frame codec, the payload layouts, the configs', poses' and
intrinsics' own checks and ``check_symmetric``.  Each boundary converts
it once: ``load_scenario`` and ``apply_overrides`` raise ValidationError
naming the JSON path (ParseError if the document does not decode),
``load_replay`` raises ReplayError with the line, and
``Engine.on_deliver`` counts the frame malformed.
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
# the largest magnitude of a payload's f64 (see the module docstring)
MAX_MAGNITUDE = 1e100

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


def is_i64(n: int) -> bool:
    """Whether the int ``n`` fits an i64 of the wire."""
    return -2**63 <= n < 2**63


_F64 = np.dtype("<f8")
_I64 = np.dtype("<i8")


class Layout:
    """One message type's payload layout (see the module docstring): a
    ``struct`` head whose last field is the row count n, then ``fixed``
    arrays, then ``rows`` arrays of n rows each, every array given as its
    wire dtype and its shape (a row's, for ``rows``)."""

    def __init__(self, head: str, fixed: tuple, rows: tuple):
        self.head = struct.Struct(head)
        self.fixed, self.rows = fixed, rows
        # the head's f64 fields
        self._floats = [i for i, code in enumerate(head.lstrip("<")) if code == "d"]
        self._size = self.head.size + sum(dtype.itemsize * math.prod(shape)
                                          for dtype, shape in fixed)
        self._row_size = sum(dtype.itemsize * math.prod(shape) for dtype, shape in rows)

    def write(self, head: tuple, arrays) -> bytes:
        """The payload of the ``head`` fields and ``arrays``, in the
        layout's order; the writer trusts its caller's shapes."""
        blocks = self.fixed + self.rows
        return b"".join([self.head.pack(*head),
                         *[np.asarray(a, dtype).tobytes() for (dtype, _), a in zip(blocks, arrays)]])

    def read(self, data: bytes) -> tuple[tuple, list[np.ndarray]]:
        """The head fields of ``data`` and its arrays, each a new, writable
        array of its shape in native byte order.  A payload of another
        length than its head and count say, or an f64 anywhere in it that
        is not finite or past ``MAX_MAGNITUDE`` in size, raises
        ValueError."""
        if len(data) < self.head.size:
            raise ValueError(f"payload of {len(data)} bytes ends inside its "
                             f"{self.head.size}-byte head")
        head = self.head.unpack_from(data)
        n = head[-1]
        size = self._size + n * self._row_size
        if len(data) != size:
            raise ValueError(f"payload is {len(data)} bytes, its head of {n} rows says {size}")
        arrays, offset = [], self.head.size
        for dtype, shape in (*self.fixed, *[(dtype, (n, *row)) for dtype, row in self.rows]):
            count = math.prod(shape)
            arrays.append(np.frombuffer(data, dtype, count, offset).reshape(shape)
                          .astype(dtype.type))
            offset += count * dtype.itemsize
        numbers = np.concatenate([[head[i] for i in self._floats],
                                  *[a.ravel() for a in arrays if a.dtype.kind == "f"]])
        if not (np.abs(numbers) <= MAX_MAGNITUDE).all():  # NaN compares false
            raise ValueError(f"payload holds a number not finite or past {MAX_MAGNITUDE:.0e}")
        return head, arrays


# A pose is its rotation, then its translation.
_POSE = ((_F64, (3, 3)), (_F64, (3,)))
TRACKS_PAYLOAD = Layout("<dI", _POSE, ((_I64, ()), (_F64, (6,)), (_F64, (6, 6))))
TASK_REQ_PAYLOAD = Layout("<qdI", _POSE, ((_I64, ()),))
TASK_RESP_PAYLOAD = Layout("<qdBI", (), ((_F64, (3,)), (_F64, (3, 3))))


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
