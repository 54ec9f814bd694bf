"""Independent reference implementations used as test oracles.

Everything here is written from the documented contracts, deliberately
taking different computational routes than the library (brute force,
scalar math, direct summation) so agreement is meaningful.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from nbpk.wire import (
    MAGIC,
    WIRE_VERSION,
    BadMagicError,
    BadVersionError,
    InvariantError,
    PacketHeader,
    PacketKind,
    StreamId,
    TooShortError,
)

MASK64 = (1 << 64) - 1


def as_f32(x: float) -> float:
    """Quantize a Python float to the nearest binary32 value."""
    return struct.unpack("<f", struct.pack("<f", x))[0]


def splitmix64_sequence(seed: int, n: int) -> list[int]:
    """Reference splitmix64: n outputs for a seed, straight from the
    published algorithm (Steele, Lea & Flood)."""
    out = []
    x = seed & MASK64
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append((z ^ (z >> 31)) & MASK64)
    return out


# First outputs for seed 0, straight from the reference implementation's
# published test vector.
SPLITMIX64_SEED0_FIRST = 0xE220A8397B1DCDAF


def splitmix64_seed_for(output: int, k: int) -> int:
    """The seed whose draw ``k >= 1`` is ``output``, by running splitmix64's
    output function backwards: a xor-shift is undone by applying it until the
    value is stable, a multiply by the mixer's inverse mod 2**64."""
    def unshift(y: int, shift: int) -> int:
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unshift(output, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64
    return (unshift(z, 30) - k * 0x9E3779B97F4A7C15) & MASK64


def impair_reference(cfg, seed: int, items: list) -> list:
    """The channel simulator as one sort over the whole stream (the library's
    original ``impair``): three draws per item from ``seed``, a survivor lands in
    slot ``i`` or ``i + reorder_depth``, and emission order is (slot, i, copy)."""
    draws = [(u >> 11) * 2.0**-53 for u in splitmix64_sequence(seed, 3 * len(items))]
    emitted = []
    for i, item in enumerate(items):
        u_loss, u_dup, u_reorder = draws[3 * i:3 * i + 3]
        if u_loss < cfg.loss_p:
            continue
        slot = i + (cfg.reorder_depth if u_reorder < cfg.reorder_p else 0)
        copies = 2 if u_dup < cfg.dup_p else 1
        for c in range(copies):
            emitted.append((slot, i, c, item))
    emitted.sort(key=lambda e: e[:3])
    return [item for _, _, _, item in emitted]


# --- datagram header: the original one-object-per-check codec ------------

_HEADER_LAYOUT = struct.Struct("<4sBBBBIHHHQ")


def _check_uint_reference(name: str, value, bits: int) -> None:
    if not isinstance(value, int) or not 0 <= value < (1 << bits):
        raise InvariantError(f"{name} must be an unsigned {bits}-bit integer, got {value!r}")


def validate_header_reference(h: PacketHeader) -> None:
    """Every rule of FORMAT.md for a header's varying fields, checked one
    field at a time through enum membership scans (the library's original
    ``PacketHeader.validate``)."""
    if h.stream_id not in StreamId.__members__.values():
        raise InvariantError(f"unknown stream id {h.stream_id!r}")
    if h.kind not in PacketKind.__members__.values():
        raise InvariantError(f"unknown packet kind {h.kind!r}")
    _check_uint_reference("seq", h.seq, 32)
    _check_uint_reference("frag_index", h.frag_index, 16)
    _check_uint_reference("frag_count", h.frag_count, 16)
    _check_uint_reference("payload_len", h.payload_len, 16)
    _check_uint_reference("timestamp_us", h.timestamp_us, 64)
    if h.kind == PacketKind.SINGLE:
        if h.frag_index != 0 or h.frag_count != 0:
            raise InvariantError("SINGLE packets must carry frag_index=0 and frag_count=0")
    elif h.kind == PacketKind.START:
        if h.frag_index != 0:
            raise InvariantError("START packets must carry frag_index=0")
        if h.frag_count < 1:
            raise InvariantError("START packets must announce frag_count >= 1")
    elif h.kind == PacketKind.FRAGMENT:
        if h.frag_index >= h.frag_count:
            raise InvariantError(
                f"fragment index {h.frag_index} out of range for frag_count {h.frag_count}"
            )


def encode_header_reference(h: PacketHeader) -> bytes:
    validate_header_reference(h)
    return _HEADER_LAYOUT.pack(MAGIC, WIRE_VERSION, int(h.stream_id), int(h.kind), 0, h.seq,
                               h.frag_index, h.frag_count, h.payload_len, h.timestamp_us)


def decode_header_reference(b: bytes) -> PacketHeader:
    if len(b) < _HEADER_LAYOUT.size:
        raise TooShortError(f"header needs {_HEADER_LAYOUT.size} bytes, got {len(b)}")
    magic, version, stream_raw, kind_raw, flags, seq, frag_index, frag_count, payload_len, ts = (
        _HEADER_LAYOUT.unpack_from(b)
    )
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise BadVersionError(f"unsupported version {version}")
    try:
        stream_id = StreamId(stream_raw)
    except ValueError:
        raise InvariantError(f"unknown stream id {stream_raw}") from None
    try:
        kind = PacketKind(kind_raw)
    except ValueError:
        raise InvariantError(f"unknown packet kind {kind_raw}") from None
    if flags != 0:
        raise InvariantError(f"reserved flags must be 0, got {flags:#x}")
    h = PacketHeader(stream_id=stream_id, kind=kind, seq=seq, frag_index=frag_index,
                     frag_count=frag_count, payload_len=payload_len, timestamp_us=ts)
    validate_header_reference(h)
    return h


def decode_packet_reference(b: bytes) -> tuple[PacketHeader, bytes]:
    """A whole datagram: the reference header, then FORMAT.md's size rule
    (exactly ``payload_len`` bytes follow, and the datagram fits IPv4 UDP)."""
    h = decode_header_reference(b)
    if len(b) != _HEADER_LAYOUT.size + h.payload_len:
        raise InvariantError(f"header announces {h.payload_len} payload bytes, got {len(b) - _HEADER_LAYOUT.size}")
    if len(b) > 65507:
        raise InvariantError(f"datagram of {len(b)} bytes exceeds the IPv4 UDP maximum")
    return h, bytes(b[_HEADER_LAYOUT.size:])


def packetize_reference(img, frag_payload: int) -> list[bytes]:
    """One frame's datagrams, each built field by field from FORMAT.md: a
    START whose payload is the 12-byte metadata, then one FRAGMENT per
    ``frag_payload`` pixel bytes, the last taking what is left."""
    pixels = bytes(img.pixels)
    count = -(-len(pixels) // frag_payload)

    def header(kind: int, index: int, payload_len: int) -> bytes:
        # magic, version 1, stream IMAGE = 1, kind, flags 0, seq u32,
        # frag_index u16, frag_count u16, payload_len u16, timestamp_us u64
        return struct.pack("<4sBBBBIHHHQ", b"NBPK", 1, 1, kind, 0, img.seq, index, count,
                           payload_len, img.timestamp_us)

    # total_len u32, width u16, height u16, encoding YUV422 = 1, reserved 0, frag_payload u16
    meta = struct.pack("<IHHBBH", len(pixels), img.width, img.height, 1, 0, frag_payload)
    datagrams = [header(1, 0, len(meta)) + meta]
    offset = 0
    while offset < len(pixels):
        chunk = pixels[offset:offset + frag_payload]
        datagrams.append(header(2, len(datagrams) - 1, len(chunk)) + chunk)
        offset += len(chunk)
    return datagrams


def frame_outcomes(frame_packet_counts: list[int], survived: list[bool]) -> list[bool]:
    """Which frames complete, for an in-order lossy stream.

    ``survived`` is one flag per packet over the concatenated stream
    (START then fragments, frame by frame). With a single-slot receiver
    and no reordering, a frame completes exactly when every one of its
    packets survived: a lost START means its fragments have nowhere to
    land, and a lost fragment leaves the frame incomplete until the next
    START (or end of stream) discards it.
    """
    outcomes = []
    i = 0
    for n in frame_packet_counts:
        outcomes.append(all(survived[i:i + n]))
        i += n
    assert i == len(survived)
    return outcomes


SERIAL_BITS = 32


def serial_lt(s1: int, s2: int) -> bool:
    """RFC 1982 section 3.2, "s1 is less than s2", for SERIAL_BITS = 32.

    Pairs exactly 2^31 apart are undefined there and compare false both ways.
    """
    half = 2 ** (SERIAL_BITS - 1)
    return (s1 < s2 and s2 - s1 < half) or (s1 > s2 and s1 - s2 > half)


def seq_order_reference(seqs: list[int], window: int) -> tuple[list[bool], int]:
    """Which seqs one stream accepts, and how many sender restarts it counts.

    Straight from FORMAT.md "Sequence numbers": the first seq is accepted; a
    seq after it is new when the newest accepted one is less than it in RFC
    1982 order; a seq equal to the newest, or less than it by fewer than
    ``window`` counting back without wrap, is stale; any other seq (far
    behind, or 2^31 away) is a restart and is accepted.
    """
    newest = None
    accepted, restarts = [], 0
    for s in seqs:
        if newest is None or serial_lt(newest, s):
            ok = True
        else:
            distance_back = newest - s if s <= newest else newest + 2 ** SERIAL_BITS - s
            ok = distance_back >= window
            restarts += ok
        accepted.append(ok)
        if ok:
            newest = s
    return accepted, restarts


def pattern_reference(seq: int, width: int, height: int) -> bytes:
    """The camera test pattern's pixels, built elementwise with numpy.

    Bytes [0, 4) hold ``seq`` little-endian, interior byte ``i`` is
    ``(i + seq) mod 256``, and the last 4 bytes are the CRC-32 of the rest,
    little-endian.
    """
    n = width * height * 2
    body = ((np.arange(n - 4, dtype=np.uint32) + seq) & 0xFF).astype(np.uint8)
    buf = bytearray(body.tobytes())
    buf[0:4] = struct.pack("<I", seq)
    return bytes(buf) + struct.pack("<I", zlib.crc32(buf))


def yuv_to_rgb_scalar(y: int, u: int, v: int) -> tuple[int, int, int]:
    """One pixel of BT.601 full-range YUV -> RGB, scalar arithmetic."""
    r = y + 1.402 * (v - 128)
    g = y - 0.344136 * (u - 128) - 0.714136 * (v - 128)
    b = y + 1.772 * (u - 128)

    def finish(x: float) -> int:
        x = min(255.0, max(0.0, x))
        return int(math.floor(x + 0.5))  # nearest, ties away from zero

    return finish(r), finish(g), finish(b)


def yuv422_to_rgb_reference(img) -> np.ndarray:
    """The library's original full-resolution ``yuv422_to_rgb``: the whole
    buffer cast to float64, U and V repeated to full width, three
    full-frame planes stacked, then clamped and floored."""
    w, h = img.width, img.height
    data = np.frombuffer(img.pixels, dtype=np.uint8).astype(np.float64)
    y = data[0::2].reshape(h, w)
    u = np.repeat(data[1::4].reshape(h, w // 2), 2, axis=1) - 128.0
    v = np.repeat(data[3::4].reshape(h, w // 2), 2, axis=1) - 128.0
    rgb = np.stack([
        y + 1.402 * v,
        y - 0.344136 * u - 0.714136 * v,
        y + 1.772 * u,
    ], axis=-1)
    np.clip(rgb, 0.0, 255.0, out=rgb)
    return np.floor(rgb + 0.5).astype(np.uint8)


def log_file_bytes(records, epoch_us: int = 0) -> bytes:
    """A ``.nbl`` file laid out byte by byte from FORMAT.md "Log files":
    the 16-byte file header ("NBLG", version 1, 3 reserved zero bytes,
    epoch_us u64 LE), then each ``(stream_id, flags, timestamp_us, payload)``
    as a record (stream_id u8, flags u8, payload_len u32 LE, timestamp_us
    u64 LE, payload). Nothing is checked, so a reader test can hold what the
    writer never writes: any stream byte, any flags, any payload."""
    out = bytearray(b"NBLG\x01\x00\x00\x00" + epoch_us.to_bytes(8, "little"))
    for stream_id, flags, timestamp_us, payload in records:
        out += bytes([stream_id, flags]) + len(payload).to_bytes(4, "little")
        out += timestamp_us.to_bytes(8, "little") + payload
    return bytes(out)


# --- rigid-body point-cloud integrator -------------------------------------

def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish proper rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def cuboid_cloud(extents, center, rotation=None, density: float = 1.0,
                 n: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Sample a solid cuboid as an n^3 midpoint grid of point masses.

    Returns (points (N,3), masses (N,)). ``extents`` are the full edge
    lengths along the cuboid's own axes before rotation.
    """
    extents = np.asarray(extents, dtype=float)
    center = np.asarray(center, dtype=float)
    axes = [(np.arange(n) + 0.5) / n - 0.5 for _ in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = grid * extents
    if rotation is not None:
        pts = pts @ np.asarray(rotation, dtype=float).T
    pts = pts + center
    cell_volume = float(np.prod(extents)) / n ** 3
    masses = np.full(len(pts), density * cell_volume)
    return pts, masses


def cloud_mass_properties(points: np.ndarray, masses: np.ndarray):
    """Brute-force (mass, com, inertia about com) of a point cloud."""
    m = float(masses.sum())
    com = (masses[:, None] * points).sum(axis=0) / m
    r = points - com
    r2 = (r * r).sum(axis=1)
    inertia = np.zeros((3, 3))
    inertia += np.eye(3) * float((masses * r2).sum())
    inertia -= (masses[:, None, None] * r[:, :, None] * r[:, None, :]).sum(axis=0)
    return m, com, inertia


def cloud_inertia_about(points: np.ndarray, masses: np.ndarray, point) -> np.ndarray:
    """Brute-force inertia of a cloud about an arbitrary point (no
    parallel-axis shortcut)."""
    r = points - np.asarray(point, dtype=float)
    r2 = (r * r).sum(axis=1)
    inertia = np.eye(3) * float((masses * r2).sum())
    inertia -= (masses[:, None, None] * r[:, :, None] * r[:, None, :]).sum(axis=0)
    return inertia


def analytic_cuboid_inertia(mass: float, extents, rotation=None) -> np.ndarray:
    """Closed-form solid cuboid inertia about its CoM (for checking the
    cloud integrator itself)."""
    a, b, c = np.asarray(extents, dtype=float)
    local = np.diag([
        mass / 12.0 * (b * b + c * c),
        mass / 12.0 * (a * a + c * c),
        mass / 12.0 * (a * a + b * b),
    ])
    if rotation is None:
        return local
    rot = np.asarray(rotation, dtype=float)
    return rot @ local @ rot.T


def rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = max(float(np.abs(expected).max()), 1e-30)
    return float(np.abs(np.asarray(actual) - np.asarray(expected)).max()) / scale
