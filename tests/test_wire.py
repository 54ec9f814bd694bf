import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbpk.wire import (
    HEADER_SIZE,
    MAGIC,
    REQUEST_SIZE,
    START_META_SIZE,
    WIRE_VERSION,
    BadMagicError,
    BadVersionError,
    Encoding,
    Image,
    ImageStartMeta,
    InvariantError,
    MotionMode,
    MotionReading,
    MotionRequest,
    PacketHeader,
    PacketKind,
    StreamId,
    TooShortError,
    WireError,
    as_f32,
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

    def test_non_int_version_and_flags_rejected(self):
        # equal to the valid value but not an int: a WireError, not struct.error
        h = PacketHeader(StreamId.IMAGE, PacketKind.SINGLE, seq=0)
        with pytest.raises(BadVersionError):
            encode_header(h._replace(version=1.0))
        with pytest.raises(InvariantError):
            encode_header(h._replace(flags=0.0))
        assert encode_header(h._replace(version=True, flags=False)) == encode_header(h)


class TestStartMeta:
    def test_size(self):
        assert START_META_SIZE == 12
        m = ImageStartMeta.for_image(320, 240)
        assert len(encode_start_meta(m)) == 12

    def test_frag_count_is_ceiling(self):
        assert ImageStartMeta.for_image(320, 240, 1400).frag_count == 110
        assert ImageStartMeta.for_image(320, 240, 1536).frag_count == 100
        assert ImageStartMeta(total_len=1400 * 3, width=30, height=70,
                              frag_payload=1400).frag_count == 3

    def test_roundtrip(self):
        m = ImageStartMeta.for_image(640, 480, frag_payload=999)
        assert decode_start_meta(encode_start_meta(m)) == m

    def test_inconsistent_total_len(self):
        with pytest.raises(InvariantError):
            encode_start_meta(ImageStartMeta(total_len=100, width=320, height=240))

    def test_reserved_byte_enforced(self):
        b = bytearray(encode_start_meta(ImageStartMeta.for_image(32, 24)))
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
                          torso_angle=torso, velocity=vel, joint_count=len(positions))
        assert decode_motion(encode_motion(r)) == r

    def test_header_fields_passed_through(self):
        r = decode_motion(encode_motion(MotionReading.zero()), seq=77, timestamp_us=123456)
        assert (r.seq, r.timestamp_us) == (77, 123456)

    def test_joint_count_mismatch(self):
        with pytest.raises(InvariantError):
            encode_motion(MotionReading(positions=(0.0,) * 3, joint_count=4))

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


@settings(max_examples=500)
@given(st.binary(max_size=64))
def test_decoders_only_raise_wire_errors(blob):
    for decoder in (decode_header, decode_start_meta, decode_motion, decode_request):
        try:
            decoder(blob)
        except WireError:
            pass
