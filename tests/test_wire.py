import copy
import math
import pickle
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import as_f32, decode_packet_reference, seq_order_reference, serial_lt

from nbpk.wire import (
    HEADER_SIZE,
    MAX_IMAGE_BYTES,
    REQUEST_SIZE,
    RESTART_WINDOW,
    START_META_SIZE,
    UDP_MAX_DATAGRAM,
    WIRE_VERSION,
    BadMagicError,
    BadVersionError,
    Image,
    ImageStartMeta,
    InvariantError,
    MotionMode,
    MotionReading,
    MotionRequest,
    Packet,
    PacketHeader,
    PacketKind,
    SeqOrder,
    StreamId,
    TooShortError,
    WireError,
    decode_header,
    decode_motion,
    decode_request,
    decode_start_meta,
    encode_header,
    encode_motion,
    encode_request,
    encode_start_meta,
)

finite_f32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
velocity_f32 = st.floats(min_value=-1.0, max_value=1.0, width=32).map(as_f32)


def header_strategy():
    def build(stream, kind, seq, fi, fc, plen, ts):
        if kind == PacketKind.SINGLE:
            fi, fc = 0, 0
        elif kind == PacketKind.START:
            fi, fc = 0, max(1, fc)
        else:
            fc = max(1, fc)
            fi = fi % fc
        return PacketHeader(stream_id=stream, kind=kind, seq=seq, frag_index=fi,
                            frag_count=fc, payload_len=plen, timestamp_us=ts)

    return st.builds(
        build,
        st.sampled_from(list(StreamId)),
        st.sampled_from(list(PacketKind)),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**16 - 1),
        st.integers(0, 2**16 - 1),
        st.integers(0, 2**16 - 1),
        st.integers(0, 2**64 - 1),
    )


class TestHeader:
    def test_size_constant(self):
        assert HEADER_SIZE == 26
        assert len(encode_header(PacketHeader(StreamId.IMAGE, PacketKind.SINGLE, seq=0))) == 26

    def test_known_layout(self):
        # locked byte layout: magic, version, stream, kind, flags,
        # then seq u32 / frag u16s / len u16 / timestamp u64, little-endian
        h = PacketHeader(stream_id=StreamId.MOTION, kind=PacketKind.SINGLE,
                         seq=1, payload_len=146)
        expected = (b"NBPK" + bytes([1, 2, 0, 0])
                    + struct.pack("<I", 1) + struct.pack("<H", 0)
                    + struct.pack("<H", 0) + struct.pack("<H", 146)
                    + struct.pack("<Q", 0))
        assert encode_header(h) == expected
        assert decode_header(expected) == h

    def test_known_layout_hex(self):
        h = PacketHeader(stream_id=StreamId.MOTION, kind=PacketKind.SINGLE,
                         seq=1, payload_len=146)
        assert encode_header(h).hex() == (
            "4e42504b" "01" "02" "00" "00" "01000000" "0000" "0000" "9200"
            "0000000000000000"
        )

    @given(header_strategy())
    def test_roundtrip(self, h):
        assert decode_header(encode_header(h)) == h

    def test_decode_ignores_trailing_payload(self):
        h = PacketHeader(StreamId.IMAGE, PacketKind.SINGLE, seq=9, payload_len=3)
        assert decode_header(encode_header(h) + b"abc") == h

    def test_too_short(self):
        with pytest.raises(TooShortError):
            decode_header(b"NBPK")

    def test_bad_magic(self):
        b = bytearray(encode_header(PacketHeader(StreamId.IMAGE, PacketKind.SINGLE, seq=0)))
        b[0] = 0x4D
        with pytest.raises(BadMagicError):
            decode_header(bytes(b))

    def test_bad_version(self):
        b = bytearray(encode_header(PacketHeader(StreamId.IMAGE, PacketKind.SINGLE, seq=0)))
        b[4] = WIRE_VERSION + 1
        with pytest.raises(BadVersionError):
            decode_header(bytes(b))

    def test_unknown_stream_and_kind(self):
        b = bytearray(encode_header(PacketHeader(StreamId.IMAGE, PacketKind.SINGLE, seq=0)))
        b[5] = 99
        with pytest.raises(InvariantError):
            decode_header(bytes(b))
        b[5] = int(StreamId.IMAGE)
        b[6] = 99
        with pytest.raises(InvariantError):
            decode_header(bytes(b))

    def test_nonzero_flags_rejected(self):
        b = bytearray(encode_header(PacketHeader(StreamId.IMAGE, PacketKind.SINGLE, seq=0)))
        b[7] = 1
        with pytest.raises(InvariantError):
            decode_header(bytes(b))

    def test_single_with_frag_fields_rejected(self):
        with pytest.raises(InvariantError):
            encode_header(PacketHeader(StreamId.IMAGE, PacketKind.SINGLE, seq=0, frag_count=2))

    def test_fragment_index_range(self):
        with pytest.raises(InvariantError):
            encode_header(PacketHeader(StreamId.IMAGE, PacketKind.FRAGMENT,
                                       seq=0, frag_index=3, frag_count=3))

    def test_start_needs_fragments(self):
        with pytest.raises(InvariantError):
            encode_header(PacketHeader(StreamId.IMAGE, PacketKind.START, seq=0, frag_count=0))

    def test_seq_range(self):
        with pytest.raises(InvariantError):
            encode_header(PacketHeader(StreamId.IMAGE, PacketKind.SINGLE, seq=2**32))


#: Each way to copy a packet: ``copy``, ``deepcopy``, and pickle at every protocol.
PACKET_COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy, **{
    f"pickle{proto}": lambda p, proto=proto: pickle.loads(pickle.dumps(p, proto))
    for proto in range(pickle.HIGHEST_PROTOCOL + 1)}}


class TestPacket:
    """``Packet`` is one flat tuple whose first seven fields are a header's."""

    SINGLE = PacketHeader(StreamId.MOTION, PacketKind.SINGLE, seq=5, payload_len=3, timestamp_us=7)
    START = PacketHeader(StreamId.IMAGE, PacketKind.START, seq=9, frag_count=4, payload_len=2)
    FRAGMENT = PacketHeader(StreamId.IMAGE, PacketKind.FRAGMENT, seq=9, frag_index=2,
                            frag_count=4, payload_len=2, timestamp_us=1)

    @pytest.mark.parametrize("header", [SINGLE, START, FRAGMENT], ids=["single", "start", "fragment"])
    @pytest.mark.parametrize("copier", list(PACKET_COPIES.values()), ids=list(PACKET_COPIES))
    def test_copy_deepcopy_and_pickle_round_trip(self, header, copier):
        pkt = Packet(header, b"\x01" * header.payload_len)
        twin = copier(pkt)
        assert type(twin) is Packet and twin == pkt and twin.header == header
        assert type(twin.stream_id) is StreamId and type(twin.kind) is PacketKind

    @pytest.mark.parametrize("field, value", [
        ("stream_id", 9), ("kind", 3), ("seq", 2**32), ("frag_index", 4), ("frag_count", 2),
        ("payload_len", 3), ("timestamp_us", -1), ("payload", b"\x01"),
    ])
    def test_replace_of_any_field_runs_the_validator(self, field, value):
        pkt = Packet(self.FRAGMENT, b"ab")
        with pytest.raises(InvariantError):
            pkt._replace(**{field: value})

    def test_replace_returns_a_checked_packet(self):
        pkt = Packet(self.FRAGMENT, b"ab")._replace(stream_id=2, kind=1, frag_index=0)
        assert pkt.stream_id is StreamId.MOTION and pkt.kind is PacketKind.START
        assert Packet._make(pkt) == pkt
        with pytest.raises(InvariantError):
            Packet._make((*pkt[:7], b"abc"))  # payload_len 2 does not hold

    @settings(max_examples=300)
    @given(header_strategy(),
           st.one_of(st.binary(max_size=64),
                     st.integers(0, UDP_MAX_DATAGRAM - HEADER_SIZE).map(lambda n: b"\xa5" * n)))
    def test_bytes_round_trip_field_by_field(self, h, payload):
        pkt = Packet(h._replace(payload_len=len(payload)), payload)
        datagram = pkt.to_bytes()
        parsed = Packet.from_bytes(datagram)
        for field in Packet._fields:
            assert getattr(parsed, field) == getattr(pkt, field), field
        assert type(parsed.stream_id) is StreamId and type(parsed.kind) is PacketKind
        assert pkt.header == PacketHeader(*pkt[:7]) and type(pkt.header) is PacketHeader
        assert decode_packet_reference(datagram) == (pkt.header, payload)
        assert pkt.size == len(datagram) == HEADER_SIZE + len(payload)


class TestStartMeta:
    def test_size(self):
        assert START_META_SIZE == 12
        m = ImageStartMeta(total_len=320 * 240 * 2, width=320, height=240)
        assert len(encode_start_meta(m)) == 12

    def test_frag_count_is_ceiling(self):
        qvga = ImageStartMeta(total_len=320 * 240 * 2, width=320, height=240)
        assert replace(qvga, frag_payload=1400).frag_count == 110
        assert replace(qvga, frag_payload=1536).frag_count == 100
        assert ImageStartMeta(total_len=1400 * 3, width=30, height=70,
                              frag_payload=1400).frag_count == 3

    def test_roundtrip(self):
        m = ImageStartMeta(total_len=640 * 480 * 2, width=640, height=480, frag_payload=999)
        assert decode_start_meta(encode_start_meta(m)) == m

    def test_inconsistent_total_len(self):
        with pytest.raises(InvariantError):
            encode_start_meta(ImageStartMeta(total_len=100, width=320, height=240))

    def test_image_size_bound(self):
        # one START may not announce more than the largest camera mode, so a
        # single datagram cannot make a receiver allocate gigabytes
        assert MAX_IMAGE_BYTES == 1280 * 960 * 2
        m = ImageStartMeta(total_len=1280 * 960 * 2, width=1280, height=960)
        assert decode_start_meta(encode_start_meta(m)) == m
        with pytest.raises(InvariantError):
            encode_start_meta(ImageStartMeta(total_len=1280 * 962 * 2, width=1280, height=962))

    def test_reserved_byte_enforced(self):
        b = bytearray(encode_start_meta(ImageStartMeta(total_len=32 * 24 * 2, width=32, height=24)))
        b[9] = 7
        with pytest.raises(InvariantError):
            decode_start_meta(bytes(b))

    def test_too_short(self):
        with pytest.raises(TooShortError):
            decode_start_meta(b"\x00" * 11)


class TestMotionReading:
    def test_payload_size(self):
        assert MotionReading.payload_size(25) == 146
        assert MotionReading.payload_size(0) == 46
        r = MotionReading.zero()
        assert len(encode_motion(r)) == 146

    @given(
        st.integers(0, 40).flatmap(
            lambda jc: st.tuples(
                st.tuples(*([finite_f32.map(as_f32)] * jc)),
                st.tuples(finite_f32.map(as_f32), finite_f32.map(as_f32), finite_f32.map(as_f32)),
                st.tuples(finite_f32.map(as_f32), finite_f32.map(as_f32), finite_f32.map(as_f32)),
                st.tuples(finite_f32.map(as_f32), finite_f32.map(as_f32)),
                st.tuples(finite_f32.map(as_f32), finite_f32.map(as_f32), finite_f32.map(as_f32)),
            )
        )
    )
    def test_roundtrip(self, parts):
        positions, gyro, accel, torso, vel = parts
        r = MotionReading(positions=positions, gyro=gyro, accel=accel,
                          torso_angle=torso, velocity=vel)
        assert decode_motion(encode_motion(r)) == r

    def test_header_fields_passed_through(self):
        r = decode_motion(encode_motion(MotionReading.zero()), seq=77, timestamp_us=123456)
        assert (r.seq, r.timestamp_us) == (77, 123456)

    def test_joint_count_is_the_number_of_positions(self):
        r = MotionReading(positions=(0.0,) * 3)
        assert r.joint_count == 3
        assert encode_motion(r)[0] == 3
        assert decode_motion(encode_motion(r)) == r

    def test_more_than_255_joints_rejected(self):
        with pytest.raises(InvariantError):
            encode_motion(MotionReading(positions=(0.0,) * 256))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(InvariantError):
            decode_motion(encode_motion(MotionReading.zero()) + b"\x00")

    def test_truncated_rejected(self):
        with pytest.raises(TooShortError):
            decode_motion(encode_motion(MotionReading.zero())[:-1])

    def test_reserved_byte(self):
        b = bytearray(encode_motion(MotionReading.zero()))
        b[1] = 1
        with pytest.raises(InvariantError):
            decode_motion(bytes(b))


class TestMotionRequest:
    def test_size(self):
        assert REQUEST_SIZE == 14
        assert len(encode_request(MotionRequest.stand())) == 14

    @given(st.sampled_from(list(MotionMode)), st.integers(0, 255),
           velocity_f32, velocity_f32, velocity_f32)
    def test_roundtrip(self, mode, action, vx, vy, om):
        r = MotionRequest(mode=mode, action_id=action, vx=vx, vy=vy, omega=om)
        assert decode_request(encode_request(r)) == r

    def test_stand_forces_zero_velocity(self):
        r = MotionRequest(mode=MotionMode.STAND, vx=0.5, vy=-0.5, omega=1.0)
        assert (r.vx, r.vy, r.omega) == (0.0, 0.0, 0.0)

    def test_stand_with_velocity_on_wire_rejected(self):
        b = bytearray(encode_request(MotionRequest.walk(0.5)))
        b[0] = int(MotionMode.STAND)
        with pytest.raises(InvariantError):
            decode_request(bytes(b))

    def test_nan_rejected(self):
        with pytest.raises(InvariantError):
            encode_request(MotionRequest(mode=MotionMode.WALK, vx=math.nan))
        b = struct.pack("<BBfff", int(MotionMode.WALK), 0, math.nan, 0.0, 0.0)
        with pytest.raises(InvariantError):
            decode_request(b)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvariantError):
            encode_request(MotionRequest(mode=MotionMode.WALK, vx=1.5))
        b = struct.pack("<BBfff", int(MotionMode.WALK), 0, 1.5, 0.0, 0.0)
        with pytest.raises(InvariantError):
            decode_request(b)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(InvariantError):
            decode_request(encode_request(MotionRequest.stand()) + b"\x00")


class TestImage:
    def test_pixel_length_enforced(self):
        with pytest.raises(InvariantError):
            Image(width=4, height=4, pixels=b"\x00" * 31)
        Image(width=4, height=4, pixels=b"\x00" * 32)


U32 = 2**32
W = RESTART_WINDOW


class TestSeqOrder:
    def test_oracle_follows_rfc1982(self):
        assert serial_lt(U32 - 1, 0) and not serial_lt(0, U32 - 1)
        assert serial_lt(0, 2**31 - 1) and not serial_lt(0, 2**31 + 1)
        assert not serial_lt(0, 2**31) and not serial_lt(2**31, 0)  # undefined pair

    # behind = (newest - seq) mod 2**32, at each edge of the rule
    @pytest.mark.parametrize("behind, new, restart", [
        (0, False, False),          # a repeat
        (W - 1, False, False),      # the latest a late message can be
        (W, True, True),            # the nearest restart
        (2**31, True, True),        # undefined in RFC 1982: a restart
        (2**31 + 1, True, False),   # the farthest newer seq
        (U32 - 1, True, False),     # the next seq
    ])
    @pytest.mark.parametrize("newest", [0, 5, 2**31, U32 - 1])
    def test_window_edges(self, newest, behind, new, restart):
        order = SeqOrder()
        assert order.advance(newest)
        seq = (newest - behind) % U32
        assert order.advance(seq) is new
        assert (order.stale, order.restarts) == (int(not new), int(restart))
        assert order.newest == (seq if new else newest)
        assert seq_order_reference([newest, seq], W) == ([True, new], int(restart))

    @settings(max_examples=400)
    @given(start=st.tuples(st.sampled_from([0, 2**31, U32 - 1]), st.integers(-3 * W, 3 * W)),
           steps=st.lists(st.one_of(st.integers(-2 * W, 2 * W),
                                    st.integers(0, U32 - 1),
                                    st.sampled_from([2**31, 2**31 + 1, 2**31 - 1, W, -W])),
                          max_size=60))
    def test_matches_rfc1982_reference(self, start, steps):
        seq = sum(start) % U32
        seqs = [seq]
        for step in steps:
            seq = (seq + step) % U32
            seqs.append(seq)
        order = SeqOrder()
        got = [order.advance(s) for s in seqs]
        want, restarts = seq_order_reference(seqs, W)
        assert got == want
        assert order.restarts == restarts
        assert order.stale == want.count(False)


@settings(max_examples=500)
@given(st.binary(max_size=64))
def test_decoders_only_raise_wire_errors(blob):
    for decoder in (decode_header, decode_start_meta, decode_motion, decode_request):
        try:
            decoder(blob)
        except WireError:
            pass
