"""Binary wire format for the streaming bridge.

Every datagram starts with a fixed 26-byte header (see ``PacketHeader``)
followed by an opaque payload. All multi-byte integers are little-endian;
floats are IEEE-754 binary32. The full layout, with a worked example, is
documented in FORMAT.md at the repository root.

Encoding functions reject invalid values with a diagnostic; decoding
functions accept arbitrary bytes and either return a valid value or raise
a classified :class:`WireError` subclass. They never raise anything else.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

MAGIC = b"NBPK"
WIRE_VERSION = 1

HEADER_SIZE = 26
START_META_SIZE = 12
REQUEST_SIZE = 14

#: Largest UDP payload over IPv4 (65535 - 8 UDP - 20 IP).
UDP_MAX_DATAGRAM = 65507

DEFAULT_FRAG_PAYLOAD = 1400
DEFAULT_JOINT_COUNT = 25

#: Largest image a START may announce: the NAO camera's 1280x960 YUV422
#: mode. It bounds what one datagram can make a receiver allocate.
MAX_IMAGE_BYTES = 1280 * 960 * 2

_HEADER = struct.Struct("<4sBBBBIHHHQ")
_START_META = struct.Struct("<IHHBBH")
_REQUEST = struct.Struct("<BBfff")
_F32 = struct.Struct("<f")

assert _HEADER.size == HEADER_SIZE
assert _START_META.size == START_META_SIZE
assert _REQUEST.size == REQUEST_SIZE


class StreamId(IntEnum):
    IMAGE = 1
    MOTION = 2
    COMMAND = 3


class PacketKind(IntEnum):
    SINGLE = 0
    START = 1
    FRAGMENT = 2


class Encoding(IntEnum):
    YUV422 = 1


class MotionMode(IntEnum):
    STAND = 0
    WALK = 1
    SPECIAL = 2


class WireError(ValueError):
    """Base class for every wire encode/decode failure."""


class TooShortError(WireError):
    """Buffer ends before the value it should contain."""


class BadMagicError(WireError):
    """First header bytes are not the NBPK magic."""


class BadVersionError(WireError):
    """Header carries an unsupported format version."""


class InvariantError(WireError):
    """Structurally well-formed bytes that violate a field invariant."""


def as_f32(x: float) -> float:
    """Quantize a Python float to the nearest binary32 value."""
    return _F32.unpack(_F32.pack(x))[0]


def _check_uint(name: str, value: int, bits: int) -> None:
    if not isinstance(value, int) or not 0 <= value < (1 << bits):
        raise InvariantError(f"{name} must be an unsigned {bits}-bit integer, got {value!r}")


class PacketHeader(NamedTuple):
    """Fixed 26-byte prefix of every datagram.

    ``seq`` counts messages per stream; all packets belonging to one
    message share the same ``seq`` and ``timestamp_us``. Constructing a
    header checks nothing; :func:`encode_header`, :func:`decode_header`
    and ``Packet`` do, through one validator.
    """

    stream_id: StreamId
    kind: PacketKind
    seq: int
    frag_index: int = 0
    frag_count: int = 0
    payload_len: int = 0
    timestamp_us: int = 0
    flags: int = 0
    version: int = WIRE_VERSION


_STREAM_IDS = {s.value: s for s in StreamId}
_KINDS = {k.value: k for k in PacketKind}
_SINGLE, _START = PacketKind.SINGLE.value, PacketKind.START.value
_U16, _U32, _U64 = 0xFFFF, 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
_tuple_new = tuple.__new__  # _tuple_new(PacketHeader, fields) skips the checks


def checked_header(stream_id, kind, seq, frag_index, frag_count, payload_len,
                   timestamp_us, flags, version) -> PacketHeader:
    """The one header validator, shared by encode and decode.

    Returns the header with ``stream_id`` and ``kind`` as enum members, or
    raises ``BadVersionError`` for a foreign version and ``InvariantError``
    for any other broken field rule (FORMAT.md, "Kind invariants").
    """
    if version != WIRE_VERSION:
        raise BadVersionError(f"unsupported version {version}")
    try:
        stream = _STREAM_IDS[stream_id]
    except (KeyError, TypeError):
        raise InvariantError(f"unknown stream id {stream_id!r}") from None
    try:
        kind_ = _KINDS[kind]
    except (KeyError, TypeError):
        raise InvariantError(f"unknown packet kind {kind!r}") from None
    if flags != 0:
        raise InvariantError(f"reserved flags must be 0, got {flags!r}")
    if not (type(seq) is int and type(frag_index) is int and type(frag_count) is int
            and type(payload_len) is int and type(timestamp_us) is int
            and type(flags) is int and type(version) is int
            and 0 <= seq <= _U32 and 0 <= frag_index <= _U16 and 0 <= frag_count <= _U16
            and 0 <= payload_len <= _U16 and 0 <= timestamp_us <= _U64):
        # not all plain ints in range: in-range int subclasses (bool, IntEnum)
        # still pass, anything else is named in the error
        _check_uint("seq", seq, 32)
        _check_uint("frag_index", frag_index, 16)
        _check_uint("frag_count", frag_count, 16)
        _check_uint("payload_len", payload_len, 16)
        _check_uint("timestamp_us", timestamp_us, 64)
        if not (isinstance(version, int) and isinstance(flags, int)):
            # equal to the valid value (1.0, 0.0) but not packable: any other
            # broken rule is reported first, then the non-int field
            checked_header(stream_id, kind, seq, frag_index, frag_count, payload_len,
                           timestamp_us, 0, WIRE_VERSION)
            if not isinstance(version, int):
                raise BadVersionError(f"version must be an int, got {version!r}")
            raise InvariantError(f"reserved flags must be the int 0, got {flags!r}")
    if kind == _SINGLE:
        if frag_index != 0 or frag_count != 0:
            raise InvariantError("SINGLE packets must carry frag_index=0 and frag_count=0")
    elif kind == _START:
        if frag_index != 0:
            raise InvariantError("START packets must carry frag_index=0")
        if frag_count < 1:
            raise InvariantError("START packets must announce frag_count >= 1")
    elif frag_index >= frag_count:
        raise InvariantError(f"fragment index {frag_index} out of range for frag_count {frag_count}")
    return _tuple_new(PacketHeader, (stream, kind_, seq, frag_index, frag_count, payload_len,
                                     timestamp_us, flags, version))


def pack_header(h: PacketHeader) -> bytes:
    """Wire form of a header that already passed :func:`checked_header`."""
    stream_id, kind, seq, frag_index, frag_count, payload_len, timestamp_us, flags, version = h
    return _HEADER.pack(MAGIC, version, stream_id, kind, flags, seq, frag_index,
                        frag_count, payload_len, timestamp_us)


def encode_header(h: PacketHeader) -> bytes:
    """Serialize a header to its 26-byte wire form. Raises on invalid fields."""
    return pack_header(checked_header(*h))


def decode_header(b: bytes) -> PacketHeader:
    """Parse the first 26 bytes of ``b`` into a validated header."""
    if len(b) < HEADER_SIZE:
        raise TooShortError(f"header needs {HEADER_SIZE} bytes, got {len(b)}")
    magic, version, stream_id, kind, flags, seq, frag_index, frag_count, payload_len, ts = (
        _HEADER.unpack_from(b)
    )
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    return checked_header(stream_id, kind, seq, frag_index, frag_count, payload_len, ts,
                          flags, version)


@dataclass(frozen=True)
class ImageStartMeta:
    """Announcement carried by a START packet: what the fragments assemble into."""

    total_len: int
    width: int
    height: int
    encoding: Encoding = Encoding.YUV422
    frag_payload: int = DEFAULT_FRAG_PAYLOAD

    @classmethod
    def for_image(cls, width: int, height: int, frag_payload: int = DEFAULT_FRAG_PAYLOAD) -> "ImageStartMeta":
        return cls(total_len=width * height * 2, width=width, height=height, frag_payload=frag_payload)

    @property
    def frag_count(self) -> int:
        return -(-self.total_len // self.frag_payload)

    def validate(self) -> None:
        _check_uint("total_len", self.total_len, 32)
        _check_uint("width", self.width, 16)
        _check_uint("height", self.height, 16)
        _check_uint("frag_payload", self.frag_payload, 16)
        if self.total_len > MAX_IMAGE_BYTES:
            raise InvariantError(f"total_len {self.total_len} exceeds the {MAX_IMAGE_BYTES}-byte image limit")
        if self.encoding not in Encoding.__members__.values():
            raise InvariantError(f"unknown encoding {self.encoding!r}")
        if self.frag_payload == 0:
            raise InvariantError("frag_payload must be nonzero")
        if self.encoding == Encoding.YUV422 and self.total_len != self.width * self.height * 2:
            raise InvariantError(
                f"total_len {self.total_len} inconsistent with "
                f"{self.width}x{self.height} YUV422 ({self.width * self.height * 2} bytes)"
            )


def encode_start_meta(m: ImageStartMeta) -> bytes:
    m.validate()
    return _START_META.pack(m.total_len, m.width, m.height, int(m.encoding), 0, m.frag_payload)


def decode_start_meta(b: bytes) -> ImageStartMeta:
    if len(b) < START_META_SIZE:
        raise TooShortError(f"start meta needs {START_META_SIZE} bytes, got {len(b)}")
    total_len, width, height, enc_raw, reserved, frag_payload = _START_META.unpack_from(b)
    try:
        encoding = Encoding(enc_raw)
    except ValueError:
        raise InvariantError(f"unknown encoding {enc_raw}") from None
    if reserved != 0:
        raise InvariantError(f"reserved byte must be 0, got {reserved:#x}")
    m = ImageStartMeta(total_len=total_len, width=width, height=height,
                       encoding=encoding, frag_payload=frag_payload)
    m.validate()
    return m


@dataclass(frozen=True)
class Image:
    """One camera frame: packed pixel bytes plus stream metadata."""

    width: int
    height: int
    pixels: bytes
    encoding: Encoding = Encoding.YUV422
    seq: int = 0
    timestamp_us: int = 0

    def __post_init__(self) -> None:
        expected = self.width * self.height * 2
        if self.encoding == Encoding.YUV422 and len(self.pixels) != expected:
            raise InvariantError(
                f"YUV422 {self.width}x{self.height} needs {expected} pixel bytes, got {len(self.pixels)}"
            )


@dataclass(frozen=True)
class MotionReading:
    """Joint, IMU and locomotion state sampled by the robot's motion loop.

    ``seq`` and ``timestamp_us`` travel in the packet header, not in the
    payload; ``decode_motion`` takes them as arguments.
    """

    positions: tuple[float, ...]
    gyro: tuple[float, float, float] = (0.0, 0.0, 0.0)
    accel: tuple[float, float, float] = (0.0, 0.0, 0.0)
    torso_angle: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    joint_count: int = DEFAULT_JOINT_COUNT
    seq: int = 0
    timestamp_us: int = 0

    @classmethod
    def zero(cls, joint_count: int = DEFAULT_JOINT_COUNT) -> "MotionReading":
        return cls(positions=(0.0,) * joint_count, joint_count=joint_count)

    @staticmethod
    def payload_size(joint_count: int) -> int:
        return 2 + 4 * joint_count + 12 + 12 + 8 + 12


def encode_motion(m: MotionReading) -> bytes:
    """Serialize a reading; payload length is ``2 + 4*joints + 44`` bytes."""
    _check_uint("joint_count", m.joint_count, 8)
    if len(m.positions) != m.joint_count:
        raise InvariantError(
            f"joint_count={m.joint_count} but {len(m.positions)} positions given"
        )
    if len(m.gyro) != 3 or len(m.accel) != 3 or len(m.torso_angle) != 2 or len(m.velocity) != 3:
        raise InvariantError("gyro/accel must be 3-vectors, torso_angle 2, velocity 3")
    values = (*m.positions, *m.gyro, *m.accel, *m.torso_angle, *m.velocity)
    try:
        body = struct.pack(f"<BB{len(values)}f", m.joint_count, 0, *values)
    except (struct.error, OverflowError) as exc:
        raise InvariantError(f"unpackable motion value: {exc}") from None
    return body


def decode_motion(b: bytes, *, seq: int = 0, timestamp_us: int = 0) -> MotionReading:
    """Parse a motion payload; ``seq``/``timestamp_us`` come from the header."""
    if len(b) < 2:
        raise TooShortError(f"motion payload needs at least 2 bytes, got {len(b)}")
    joint_count = b[0]
    reserved = b[1]
    if reserved != 0:
        raise InvariantError(f"reserved byte must be 0, got {reserved:#x}")
    expected = MotionReading.payload_size(joint_count)
    if len(b) < expected:
        raise TooShortError(f"motion payload for {joint_count} joints needs {expected} bytes, got {len(b)}")
    if len(b) != expected:
        raise InvariantError(f"motion payload has {len(b) - expected} trailing bytes")
    n = joint_count + 11
    values = struct.unpack_from(f"<{n}f", b, 2)
    j = joint_count
    return MotionReading(
        positions=values[:j],
        gyro=values[j:j + 3],
        accel=values[j + 3:j + 6],
        torso_angle=values[j + 6:j + 8],
        velocity=values[j + 8:j + 11],
        joint_count=joint_count,
        seq=seq,
        timestamp_us=timestamp_us,
    )


@dataclass(frozen=True)
class MotionRequest:
    """Gait order sent back to the robot.

    Velocities are fractions of the robot's maximum speed in [-1, 1].
    STAND always carries zero velocities; nonzero values passed to the
    constructor are forced to zero.
    """

    mode: MotionMode
    action_id: int = 0
    vx: float = 0.0
    vy: float = 0.0
    omega: float = 0.0

    def __post_init__(self) -> None:
        if self.mode == MotionMode.STAND:
            object.__setattr__(self, "vx", 0.0)
            object.__setattr__(self, "vy", 0.0)
            object.__setattr__(self, "omega", 0.0)

    @classmethod
    def stand(cls) -> "MotionRequest":
        return cls(mode=MotionMode.STAND)

    @classmethod
    def walk(cls, vx: float, vy: float = 0.0, omega: float = 0.0) -> "MotionRequest":
        return cls(mode=MotionMode.WALK, vx=vx, vy=vy, omega=omega)


def _check_velocity(name: str, v: float) -> None:
    if not math.isfinite(v):
        raise InvariantError(f"{name} must be finite, got {v!r}")
    if not -1.0 <= v <= 1.0:
        raise InvariantError(f"{name} must lie in [-1, 1], got {v!r}")


def encode_request(r: MotionRequest) -> bytes:
    if r.mode not in MotionMode.__members__.values():
        raise InvariantError(f"unknown motion mode {r.mode!r}")
    _check_uint("action_id", r.action_id, 8)
    for name, v in (("vx", r.vx), ("vy", r.vy), ("omega", r.omega)):
        _check_velocity(name, v)
    return _REQUEST.pack(int(r.mode), r.action_id, r.vx, r.vy, r.omega)


def decode_request(b: bytes) -> MotionRequest:
    if len(b) < REQUEST_SIZE:
        raise TooShortError(f"motion request needs {REQUEST_SIZE} bytes, got {len(b)}")
    if len(b) != REQUEST_SIZE:
        raise InvariantError(f"motion request has {len(b) - REQUEST_SIZE} trailing bytes")
    mode_raw, action_id, vx, vy, omega = _REQUEST.unpack(b)
    try:
        mode = MotionMode(mode_raw)
    except ValueError:
        raise InvariantError(f"unknown motion mode {mode_raw}") from None
    for name, v in (("vx", vx), ("vy", vy), ("omega", omega)):
        _check_velocity(name, v)
    if mode == MotionMode.STAND and (vx != 0.0 or vy != 0.0 or omega != 0.0):
        raise InvariantError("STAND request must carry zero velocities")
    return MotionRequest(mode=mode, action_id=action_id, vx=vx, vy=vy, omega=omega)
