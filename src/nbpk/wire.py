"""Binary wire format for the streaming bridge.

Every datagram (``Packet``) starts with a fixed 26-byte header (see
``PacketHeader``) followed by an opaque payload. All multi-byte integers
are little-endian; floats are IEEE-754 binary32. The full layout, with a
worked example, is documented in FORMAT.md at the repository root.

Magic, ``version``, ``flags``, ``encoding`` and every reserved byte are
constants of format version 1: the encoders write them, the decoders
reject any other value, and no message type carries them.

Encoding functions reject invalid values with a diagnostic; decoding
functions accept arbitrary bytes and either return a valid value or raise
a classified :class:`WireError` subclass. They never raise anything else.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Optional

MAGIC = b"NBPK"
WIRE_VERSION = 1

HEADER_SIZE = 26
START_META_SIZE = 12
REQUEST_SIZE = 14

#: Largest UDP payload over IPv4 (65535 - 8 UDP - 20 IP).
UDP_MAX_DATAGRAM = 65507

DEFAULT_FRAG_PAYLOAD = 1400
DEFAULT_JOINT_COUNT = 25

#: A seq this far or further behind the newest is a sender restart, not a late message.
RESTART_WINDOW = 16

#: Largest image a START may announce: the NAO camera's 1280x960 YUV422
#: mode. It bounds what one datagram can make a receiver allocate.
MAX_IMAGE_BYTES = 1280 * 960 * 2

_HEADER = struct.Struct("<4sBBBBIHHHQ")
_START_META = struct.Struct("<IHHBBH")
_REQUEST = struct.Struct("<BBfff")

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


def _check_uint(name: str, value: int, bits: int) -> None:
    if not isinstance(value, int) or not 0 <= value < (1 << bits):
        raise InvariantError(f"{name} must be an unsigned {bits}-bit integer, got {value!r}")


class PacketHeader(NamedTuple):
    """The varying fields of the fixed 26-byte prefix of every datagram.

    ``seq`` counts messages per stream, modulo 2**32; all packets of one
    message share the same ``seq`` and ``timestamp_us``. Constructing a
    header checks nothing; :func:`encode_header`, :func:`decode_header`
    and :class:`Packet` do, through one validator, ``_checked_header``.
    """

    stream_id: StreamId
    kind: PacketKind
    seq: int
    frag_index: int = 0
    frag_count: int = 0
    payload_len: int = 0
    timestamp_us: int = 0


_STREAM_IDS = {s.value: s for s in StreamId}
_KINDS = {k.value: k for k in PacketKind}
_SINGLE, _START, _FRAGMENT = (k.value for k in PacketKind)
_U32 = 0xFFFFFFFF
_NO_HEADER = (None,) * 10  # what a datagram shorter than a header unpacks to
_tuple_new = tuple.__new__  # builds a Packet or header with no checks


def _checked_header(stream_id, kind, seq, frag_index, frag_count, payload_len,
                    timestamp_us) -> PacketHeader:
    """The one header validator, shared by encode and decode. Returns the header
    with ``stream_id`` and ``kind`` as enum members; raises ``InvariantError``
    for a broken field rule (FORMAT.md, "Kind invariants")."""
    try:
        stream = _STREAM_IDS[stream_id]
    except (KeyError, TypeError):
        raise InvariantError(f"unknown stream id {stream_id!r}") from None
    try:
        kind_ = _KINDS[kind]
    except (KeyError, TypeError):
        raise InvariantError(f"unknown packet kind {kind!r}") from None
    _check_uint("seq", seq, 32)
    _check_uint("frag_index", frag_index, 16)
    _check_uint("frag_count", frag_count, 16)
    _check_uint("payload_len", payload_len, 16)
    _check_uint("timestamp_us", timestamp_us, 64)
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
                                     timestamp_us))


def _pack(fields: tuple) -> bytes:
    """Wire form of seven header fields that passed ``_checked_header``, then a payload."""
    stream_id, kind, seq, frag_index, frag_count, payload_len, timestamp_us, payload = fields
    return _HEADER.pack(MAGIC, WIRE_VERSION, stream_id, kind, 0, seq, frag_index,
                        frag_count, payload_len, timestamp_us) + payload


def encode_header(h: PacketHeader) -> bytes:
    """Serialize a header to its 26-byte wire form. Raises on invalid fields."""
    return _pack((*_checked_header(*h), b""))


def decode_header(b: bytes) -> PacketHeader:
    """Parse the first 26 bytes of ``b`` into a validated header."""
    if len(b) < HEADER_SIZE:
        raise TooShortError(f"header needs {HEADER_SIZE} bytes, got {len(b)}")
    magic, version, stream_id, kind, flags, seq, frag_index, frag_count, payload_len, ts = (
        _HEADER.unpack_from(b)
    )
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if flags != 0:
        raise InvariantError(f"reserved flags must be 0, got {flags:#x}")
    return _checked_header(stream_id, kind, seq, frag_index, frag_count, payload_len, ts)


def _check_size(payload_len: int, datagram_len: int) -> None:
    if datagram_len != HEADER_SIZE + payload_len:
        raise InvariantError(
            f"header announces {payload_len} payload bytes, got {datagram_len - HEADER_SIZE}"
        )
    if datagram_len > UDP_MAX_DATAGRAM:
        raise InvariantError(
            f"datagram of {datagram_len} bytes exceeds UDP maximum {UDP_MAX_DATAGRAM}"
        )


class Packet(namedtuple("Packet", (*PacketHeader._fields, "payload"))):
    """One datagram as one flat tuple: ``stream_id, kind, seq, frag_index, frag_count,
    payload_len, timestamp_us, payload``, the first seven where a ``PacketHeader``'s sit;
    :attr:`header` builds that header on demand. Every way to get a Packet checks it once:
    the constructor (which ``_make``, ``_replace``, copy and pickle go through) and
    :meth:`from_bytes` run the header validator and the size rule, and ``fragment.packetize_image``
    checks a frame's START and derives its fragments from it. So :meth:`to_bytes` only packs.
    A fragment's or a parsed datagram's payload is a read-only view over immutable ``bytes``.
    """

    __slots__ = ()

    def __new__(cls, header: PacketHeader, payload: bytes = b"") -> "Packet":
        header = _checked_header(*header)
        _check_size(header.payload_len, HEADER_SIZE + len(payload))
        return _tuple_new(cls, (*header, payload))

    @classmethod
    def _make(cls, fields) -> "Packet":  # so _replace checks too
        *header, payload = fields
        return cls(header, payload)

    def __getnewargs__(self) -> tuple:  # so copy and pickle rebuild through __new__
        return self[:7], self[7]

    @property
    def header(self) -> PacketHeader:
        return _tuple_new(PacketHeader, self[:7])

    @property
    def size(self) -> int:
        return HEADER_SIZE + len(self[7])

    to_bytes = _pack

    @classmethod
    def from_bytes(cls, b: bytes) -> "Packet":
        """Parse one datagram: one ``unpack_from`` and one test of every rule
        that ``decode_header`` and the size checks apply. A datagram that
        fails it goes through them, which raise the classified ``WireError``."""
        n = len(b)
        magic, version, stream, kind, flags, seq, index, count, size, ts = (
            _HEADER.unpack_from(b) if n >= HEADER_SIZE else _NO_HEADER)
        stream_, kind_ = _STREAM_IDS.get(stream), _KINDS.get(kind)
        if not (magic == MAGIC and version == WIRE_VERSION and flags == 0 and stream_ is not None
                and kind_ is not None and size == n - HEADER_SIZE and n <= UDP_MAX_DATAGRAM
                and (index < count if kind == _FRAGMENT else index == 0 and (count > 0) == (kind == _START))):
            _check_size(decode_header(b).payload_len, n)
        return _tuple_new(cls, (stream_, kind_, seq, index, count, size, ts, memoryview(bytes(b))[HEADER_SIZE:]))


class SeqOrder:
    """One stream's seq order, the rule of FORMAT.md "Sequence numbers"."""

    def __init__(self):
        self.newest: Optional[int] = None
        self.stale = self.restarts = 0

    def advance(self, seq: int) -> bool:
        """Whether ``seq`` is a new message, which becomes the newest; counts
        a repeat or a late one in ``stale`` and a sender restart in ``restarts``."""
        if self.newest is not None:
            behind = (self.newest - seq) & _U32
            if behind < RESTART_WINDOW:
                self.stale += 1
                return False
            if behind <= 1 << 31:  # not newer in serial order: the sender restarted
                self.restarts += 1
        self.newest = seq
        return True


@dataclass(frozen=True)
class ImageStartMeta:
    """What a START packet announces: the YUV422 image its fragments assemble into."""

    total_len: int
    width: int
    height: int
    frag_payload: int = DEFAULT_FRAG_PAYLOAD

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
        if self.frag_payload == 0:
            raise InvariantError("frag_payload must be nonzero")
        if self.total_len != self.width * self.height * 2:
            raise InvariantError(
                f"total_len {self.total_len} inconsistent with "
                f"{self.width}x{self.height} YUV422 ({self.width * self.height * 2} bytes)"
            )


def encode_start_meta(m: ImageStartMeta) -> bytes:
    m.validate()
    return _START_META.pack(m.total_len, m.width, m.height, Encoding.YUV422, 0, m.frag_payload)


def decode_start_meta(b: bytes) -> ImageStartMeta:
    if len(b) < START_META_SIZE:
        raise TooShortError(f"start meta needs {START_META_SIZE} bytes, got {len(b)}")
    total_len, width, height, encoding, reserved, frag_payload = _START_META.unpack_from(b)
    if encoding != Encoding.YUV422:
        raise InvariantError(f"unknown encoding {encoding}")
    if reserved != 0:
        raise InvariantError(f"reserved byte must be 0, got {reserved:#x}")
    m = ImageStartMeta(total_len, width, height, frag_payload)
    m.validate()
    return m


@dataclass(frozen=True)
class Image:
    """One camera frame: packed YUV422 (YUYV) pixel bytes plus stream metadata."""

    width: int
    height: int
    pixels: bytes
    seq: int = 0
    timestamp_us: int = 0

    def __post_init__(self) -> None:
        expected = self.width * self.height * 2
        if len(self.pixels) != expected:
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
    seq: int = 0
    timestamp_us: int = 0

    @property
    def joint_count(self) -> int:
        return len(self.positions)

    @classmethod
    def zero(cls) -> "MotionReading":
        return cls(positions=(0.0,) * DEFAULT_JOINT_COUNT)

    @staticmethod
    def payload_size(joint_count: int) -> int:
        return 2 + 4 * joint_count + 12 + 12 + 8 + 12


def encode_motion(m: MotionReading) -> bytes:
    """Serialize a reading; payload length is ``2 + 4*joints + 44`` bytes."""
    _check_uint("joint_count", len(m.positions), 8)
    if len(m.gyro) != 3 or len(m.accel) != 3 or len(m.torso_angle) != 2 or len(m.velocity) != 3:
        raise InvariantError("gyro/accel must be 3-vectors, torso_angle 2, velocity 3")
    values = (*m.positions, *m.gyro, *m.accel, *m.torso_angle, *m.velocity)
    try:
        body = struct.pack(f"<BB{len(values)}f", len(m.positions), 0, *values)
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
