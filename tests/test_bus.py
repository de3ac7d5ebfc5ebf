import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusionsim import bus
from fusionsim.bus import (
    BusError,
    BusFrame,
    LinkParams,
    NetworkModel,
    canonical_dumps,
    decode,
    deliver,
    encode,
    link_key,
)

GOLDEN_HEARTBEAT_HEX = (
    "46425553"        # magic "FBUS"
    "01"              # version
    "05"              # HEARTBEAT
    "0000000000000000"  # timestamp_ns
    "0200"            # topic_len = 2
    "6862"            # "hb"
    "00000000"        # payload_len = 0
)


class TestWireFormat:
    def test_golden_heartbeat_encodes_exactly(self):
        frame = BusFrame(bus.MSG_HEARTBEAT, 0, "hb")
        data = encode(frame)
        assert data.hex() == GOLDEN_HEARTBEAT_HEX
        assert len(data) == 22

    def test_golden_heartbeat_decodes_exactly(self):
        assert decode(bytes.fromhex(GOLDEN_HEARTBEAT_HEX)) == BusFrame(bus.MSG_HEARTBEAT, 0, "hb")

    def test_golden_vector_file(self, golden_dir):
        data = (golden_dir / "heartbeat_frame.hex").read_text().strip()
        assert data == GOLDEN_HEARTBEAT_HEX

    def test_empty_topic_empty_payload_length(self):
        frame = BusFrame(bus.MSG_TRACKS, 0, "")
        assert len(encode(frame)) == 20

    def test_topic_too_long(self):
        with pytest.raises(BusError, match="^topic is 65536 bytes, limit 65535$"):
            encode(BusFrame(bus.MSG_HEARTBEAT, 0, "x" * 65536))

    def test_topic_at_limit_ok(self):
        frame = BusFrame(bus.MSG_HEARTBEAT, 0, "x" * 65535)
        assert decode(encode(frame)) == frame

    def test_payload_too_long(self):
        class FakeBytes(bytes):
            def __len__(self):
                return 2**32

        with pytest.raises(BusError, match=r"^payload is 4294967296 bytes, limit 4294967295$"):
            encode(BusFrame(bus.MSG_HEARTBEAT, 0, "t", FakeBytes()))

    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            msg_type = int(rng.choice(sorted(bus.MSG_TYPES)))
            ts = int(rng.integers(0, 2**63))
            topic_len = int(rng.integers(0, 40))
            topic = "".join(chr(int(c)) for c in rng.integers(32, 0x2FFF, size=topic_len))
            payload = rng.bytes(int(rng.integers(0, 200)))
            frame = BusFrame(msg_type, ts, topic, payload)
            assert decode(encode(frame)) == frame

    @given(msg_type=st.sampled_from(sorted(bus.MSG_TYPES)),
           timestamp_ns=st.integers(0, 2**64 - 1),
           topic=st.text(max_size=64), payload=st.binary(max_size=512),
           tail=st.binary(max_size=32))
    def test_round_trip_property(self, msg_type, timestamp_ns, topic, payload, tail):
        frame = BusFrame(msg_type, timestamp_ns, topic, payload)
        data = encode(frame)
        assert decode(data) == frame
        # a delivery is one frame: bytes after it are refused, not left over
        if tail:
            with pytest.raises(BusError, match="after the frame"):
                decode(data + tail)

    def test_bad_magic(self):
        data = bytearray(bytes.fromhex(GOLDEN_HEARTBEAT_HEX))
        data[0] ^= 0xFF
        with pytest.raises(BusError, match="^magic bytes .* != b'FBUS'$"):
            decode(bytes(data))

    def test_bad_version(self):
        data = bytearray(bytes.fromhex(GOLDEN_HEARTBEAT_HEX))
        data[4] = 9
        with pytest.raises(BusError, match=r"^version 9 unsupported \(expect 1\)$"):
            decode(bytes(data))

    def test_unknown_type(self):
        data = bytearray(bytes.fromhex(GOLDEN_HEARTBEAT_HEX))
        data[5] = 99
        with pytest.raises(BusError, match=r"^msg_type 99 not in \[2, 3, 4, 5\]$"):
            decode(bytes(data))

    def test_truncations_name_the_field(self):
        frame = BusFrame(bus.MSG_TRACKS, 123456789, "tracks/ego", b"payload!")
        data = encode(frame)
        cases = {
            3: "magic",
            10: "header",
            15: "topic_len",
            18: "topic",
            26: "payload_len",
            len(data) - 1: "payload",
        }
        for cut, name in cases.items():
            with pytest.raises(BusError, match=f"^{name}: "):
                decode(data[:cut])


class TestNetworkModel:
    def test_always_drop(self):
        net = NetworkModel(default=LinkParams(drop_prob=1.0))
        rng = np.random.default_rng(0)
        assert deliver(net, "a->b", 0.0, rng) is None

    def test_fixed_latency(self):
        net = NetworkModel(default=LinkParams(base_latency=0.05, jitter=0.0, drop_prob=0.0))
        rng = np.random.default_rng(0)
        assert deliver(net, "a->b", 1.0, rng) == 1.05

    def test_empirical_drop_rate(self):
        net = NetworkModel(default=LinkParams(base_latency=0.05, drop_prob=0.1))
        rng = np.random.default_rng(42)
        drops = sum(deliver(net, "a->b", 0.0, rng) is None for _ in range(10_000))
        assert abs(drops / 10_000 - 0.1) <= 0.01

    def test_jitter_bounds_delay(self):
        net = NetworkModel(default=LinkParams(base_latency=0.05, jitter=0.02))
        rng = np.random.default_rng(1)
        for _ in range(1000):
            at = deliver(net, "a->b", 0.0, rng)
            assert 0.03 <= at <= 0.07

    def test_deterministic_given_seed(self):
        net = NetworkModel(default=LinkParams(base_latency=0.05, jitter=0.02, drop_prob=0.3))
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            outs.append([deliver(net, "a->b", 0.0, rng) for _ in range(500)])
        assert outs[0] == outs[1]

    def test_per_link_override(self):
        net = NetworkModel(default=LinkParams(base_latency=0.05),
                           links={link_key("ego", "rsu1"): LinkParams(base_latency=0.2)})
        rng = np.random.default_rng(0)
        assert deliver(net, "ego->rsu1", 0.0, rng) == 0.2
        assert deliver(net, "ego->other", 0.0, rng) == 0.05

    def test_invalid_params(self):
        with pytest.raises(bus.BusError):
            LinkParams(base_latency=0.01, jitter=0.02)
        with pytest.raises(bus.BusError):
            LinkParams(drop_prob=1.5)


def test_canonical_json_is_sorted_and_compact():
    data = canonical_dumps({"b": 1.5, "a": [1, 2], "c": None})
    assert data == b'{"a":[1,2],"b":1.5,"c":null}'


def test_canonical_json_shortest_float():
    assert canonical_dumps({"x": 0.1}) == b'{"x":0.1}'
    assert canonical_dumps({"x": 1e-9}) == b'{"x":1e-09}'


class TestPayloadFields:
    def test_an_empty_list_is_a_stack_of_zero_rows(self):
        for shape in ((0,), (0, 5), (0, 6, 6)):
            a = bus.payload_array([], shape)
            assert a.shape == shape and a.dtype == np.float64
        for shape in ((1, 5), (3,)):
            with pytest.raises(ValueError):
                bus.payload_array([], shape)
        with pytest.raises(ValueError):
            bus.payload_array([[]], (0, 5))

    def test_a_bool_among_numbers_is_not_a_number(self):
        # numpy alone reads [1.0, True, 2.0] as [1., 1., 2.]
        for x, shape in (([1.0, True, 2.0], (3,)), ([False, 0.0], (2,)),
                         ([[1, 2], [3, True]], (2, 2)),
                         ([[[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0], [6.0, False]]], (2, 2, 2)),
                         ([True, False], (2,))):
            with pytest.raises(ValueError):
                bus.payload_array(x, shape)

    def test_ints_and_floats_load_as_floats(self):
        a = bus.payload_array([[1, 2.5], [0, -0.0]], (2, 2))
        assert a.dtype == np.float64 and a.tolist() == [[1.0, 2.5], [0.0, -0.0]]
        assert np.signbit(a[1, 1])

    def test_anything_but_numbers_of_the_shape_is_refused(self):
        for x, shape in (([1.0, "2"], (2,)), ([1.0, None], (2,)), ([[1.0], [2.0, 3.0]], (2, 2)),
                         ([1.0, 2.0], (2, 1)), ([[1.0, 2.0]], (2,)), ([{}, {}], (2,)),
                         ([10**400, 1.0], (2,))):
            with pytest.raises(ValueError):
                bus.payload_array(x, shape)

    def test_a_number_field_is_a_finite_int_or_float_read_as_a_float(self):
        for x in (2, -0.0, 1.5, 10**300):
            got = bus.payload_field({"t": x}, "t", float)
            assert type(got) is float and got == float(x)
        for bad in (True, "1.5", None, [1.0], float("nan"), float("inf"), 10**400):
            with pytest.raises(ValueError, match="is not a finite number"):
                bus.payload_field({"t": bad}, "t", float)

    def test_ints_are_exactly_ints(self):
        assert bus.payload_ints({"ids": [3, -1, 0]}, "ids") == [3, -1, 0]
        assert bus.payload_ints({"ids": []}, "ids") == []
        for bad in ([1, True], [2.5], [2.0], ["2"], [None], {}, 3):
            with pytest.raises(ValueError):
                bus.payload_ints({"ids": bad}, "ids")
