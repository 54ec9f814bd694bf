"""Robot-side emulator: an image sender, and a motion sender that reads the commands.

Stands in for the robot's cognition and motion loops at desk scale. Images
carry a deterministic test pattern with a CRC-32 trailer so the receiving
side can machine-check reassembly; motion readings follow a fixed sinusoid
plus a first-order walk model that ramps toward the commanded velocity and
auto-stands when commands stop arriving.
"""

from __future__ import annotations

import math
import struct
import time
import zlib
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator

from .channel import (
    DEFAULT_COMMAND_PORT,
    DEFAULT_IMAGE_PORT,
    DEFAULT_MOTION_PORT,
    EndpointConfig,
    Service,
    check_bind_port,
    check_dest_port,
    check_positive,
)
from .fragment import Receiver, check_frag_payload, packetize_image, packetize_single
from .wire import (
    DEFAULT_FRAG_PAYLOAD,
    DEFAULT_JOINT_COUNT,
    Image,
    ImageStartMeta,
    MotionMode,
    MotionReading,
    MotionRequest,
    Packet,
    StreamId,
    encode_motion,
)

#: Fraction-to-physical scale factors for the walk model. The emulated
#: robot's "full speed" in each axis; odometry and the gyro use these.
NOMINAL_MAX_VX_MPS = 0.20
NOMINAL_MAX_VY_MPS = 0.15
NOMINAL_MAX_YAW_RPS = 1.0

GRAVITY_MPS2 = 9.81
JOINT_SWING_RAD = 0.3
JOINT_PHASE_STEP_RAD = 0.1
SWING_HZ = 0.5
TORSO_PITCH_RAD = 0.02

DEFAULT_RAMP_RATE = 2.0  # fraction of full speed per second
DEFAULT_IDLE_TIMEOUT_S = 0.5  # auto-stand after this much command silence

#: Command datagrams read per motion tick, so a flood cannot stall the tick; the rest wait in the socket.
_COMMANDS_PER_TICK = 64

_MIN_PATTERN_BYTES = 16
_RAMP = bytes(range(256))


@dataclass(frozen=True)
class RobotConfig:
    """Rates, geometry and addressing for one emulated robot."""

    peer_host: str = "127.0.0.1"
    image_port: int = DEFAULT_IMAGE_PORT
    motion_port: int = DEFAULT_MOTION_PORT
    command_port: int = DEFAULT_COMMAND_PORT
    command_bind_host: str = "0.0.0.0"
    fps: float = 30.0
    motion_rate: float = 100.0
    width: int = 320
    height: int = 240
    frag_payload: int = DEFAULT_FRAG_PAYLOAD

    def __post_init__(self) -> None:
        check_dest_port("image_port", self.image_port)
        check_dest_port("motion_port", self.motion_port)
        check_bind_port("command_port", self.command_port)
        if not 0.0 < self.fps <= 60.0:
            raise ValueError(f"fps must lie in (0, 60], got {self.fps}")
        check_positive("motion_rate", self.motion_rate)
        n = self.width * self.height * 2
        if n < _MIN_PATTERN_BYTES:
            raise ValueError(f"a {self.width}x{self.height} YUV422 image is too small for the "
                             f"test pattern (min {_MIN_PATTERN_BYTES} bytes)")
        check_frag_payload(self.frag_payload)
        ImageStartMeta(n, self.width, self.height, self.frag_payload).validate()  # the START's rule


# --- test image pattern ----------------------------------------------------

@lru_cache(maxsize=4)
def _size_terms(n: int) -> tuple[bytes, tuple[tuple[int, ...], ...]]:
    """For ``n``-byte patterns: the ramp every body is sliced from, and the
    linear map by which a body's CRC-32 moves with its start value ``c``
    (``crc32(body, c) ^ crc32(body)``, alike for every body of ``n - 8``
    bytes) as four 256-entry tables, table ``j`` indexed by byte ``j`` of ``c``."""
    zeros = bytes(n - 8)
    base = zlib.crc32(zeros)
    tables = []
    for j in range(4):
        table = [0]
        for k in range(8 * j, 8 * j + 8):  # entries with bit k set add column k
            column = zlib.crc32(zeros, 1 << k) ^ base
            table += [t ^ column for t in table]
        tables.append(tuple(table))
    return _RAMP * ((n + 4 + 255) // 256 + 1), tuple(tables)  # room for the largest start, 4 + 255


@lru_cache(maxsize=4 * 256)  # each size's 256 body starts
def _body_crc(n: int, start: int) -> int:
    return zlib.crc32(memoryview(_size_terms(n)[0])[start:start + n - 8])


def gen_test_image(seq: int, width: int = 320, height: int = 240, timestamp_us: int = 0) -> Image:
    """Build a YUV422-sized deterministic pattern for frame ``seq``, stamped ``timestamp_us``.

    Layout: bytes [0, 4) hold ``seq`` little-endian; every interior byte
    ``i`` is ``(i + seq) mod 256``; the last 4 bytes are the CRC-32 (IEEE)
    of everything before them, little-endian. Any corruption — including
    fragments spliced in from another frame — breaks the CRC.
    """
    if width < 0 or height < 0:
        raise ValueError(f"image size {width}x{height} must not be negative")
    n = width * height * 2
    if n < _MIN_PATTERN_BYTES:
        raise ValueError(f"image of {n} bytes is too small for the test pattern (min {_MIN_PATTERN_BYTES})")
    if not 0 <= seq < (1 << 32):
        raise ValueError(f"seq must be an unsigned 32-bit integer, got {seq}")
    start = 4 + (seq & 0xFF)  # byte j of the repeated ramp is j mod 256
    ramp, (t0, t1, t2, t3) = _size_terms(n)
    prefix = struct.pack("<I", seq)
    # crc32(body, c) == crc32(body) ^ A(c), and A is linear: one table lookup per byte of c
    c = zlib.crc32(prefix)
    crc = _body_crc(n, start) ^ t0[c & 0xFF] ^ t1[c >> 8 & 0xFF] ^ t2[c >> 16 & 0xFF] ^ t3[c >> 24]
    pixels = b"".join((prefix, memoryview(ramp)[start:start + n - 8], struct.pack("<I", crc)))
    return Image(width=width, height=height, pixels=pixels, seq=seq, timestamp_us=timestamp_us)


def image_ok(img: Image) -> bool:
    """Whether a received frame keeps the generator's pattern contract: its
    CRC-32 holds and its embedded seq equals ``img.seq``."""
    n = len(img.pixels)
    if n < _MIN_PATTERN_BYTES:
        raise ValueError(f"image of {n} bytes is too small to carry the test pattern")
    stored = struct.unpack_from("<I", img.pixels, n - 4)[0]
    return (stored == zlib.crc32(memoryview(img.pixels)[:n - 4])
            and struct.unpack_from("<I", img.pixels, 0)[0] == img.seq)


# --- walk model ------------------------------------------------------------

@dataclass(frozen=True)
class WalkState:
    """Commanded target, ramped current velocity, and integrated odometry.

    Velocities are normalized fractions in [-1, 1]; the pose is meters and
    radians in the world frame. Times are seconds on the caller's clock.
    """

    target: tuple[float, float, float] = (0.0, 0.0, 0.0)
    current: tuple[float, float, float] = (0.0, 0.0, 0.0)
    pose: tuple[float, float, float] = (0.0, 0.0, 0.0)
    last_command_time: float = -math.inf


def apply_command(walk: WalkState, req: MotionRequest, now: float) -> WalkState:
    """Register a command: WALK sets the target, anything else zeroes it."""
    if req.mode == MotionMode.WALK:
        target = (req.vx, req.vy, req.omega)
    else:
        target = (0.0, 0.0, 0.0)
    return replace(walk, target=target, last_command_time=now)


def step(walk: WalkState, dt: float, now: float) -> WalkState:
    """Advance the walk model by ``dt`` seconds.

    The current velocity moves toward the target at most
    ``DEFAULT_RAMP_RATE`` per second per component. If no command arrived
    within ``DEFAULT_IDLE_TIMEOUT_S``, the target is forced to zero first
    (deadman rule), and the returned state keeps that zeroed target.
    """
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    target = walk.target
    if now - walk.last_command_time > DEFAULT_IDLE_TIMEOUT_S:
        target = (0.0, 0.0, 0.0)
    max_step = DEFAULT_RAMP_RATE * dt
    current = tuple(
        c + min(max_step, max(-max_step, t - c))
        for c, t in zip(walk.current, target)
    )
    x, y, theta = walk.pose
    vx = current[0] * NOMINAL_MAX_VX_MPS
    vy = current[1] * NOMINAL_MAX_VY_MPS
    omega = current[2] * NOMINAL_MAX_YAW_RPS
    x += (vx * math.cos(theta) - vy * math.sin(theta)) * dt
    y += (vx * math.sin(theta) + vy * math.cos(theta)) * dt
    theta += omega * dt
    return replace(walk, target=target, current=current, pose=(x, y, theta))


def gen_motion(seq: int, t: float, walk: WalkState) -> MotionReading:
    """Deterministic motion reading at time ``t`` seconds.

    Joints swing on a shared 0.5 Hz sinusoid with a per-joint phase step;
    the gyro z axis reflects the current yaw rate, the accelerometer sees
    gravity only (body acceleration is not modeled), and the velocity
    field mirrors ``walk.current`` exactly.
    """
    phase = 2.0 * math.pi * SWING_HZ * t
    positions = tuple(
        JOINT_SWING_RAD * math.sin(phase + j * JOINT_PHASE_STEP_RAD)
        for j in range(DEFAULT_JOINT_COUNT)
    )
    return MotionReading(
        positions=positions,
        gyro=(0.0, 0.0, walk.current[2] * NOMINAL_MAX_YAW_RPS),
        accel=(0.0, 0.0, GRAVITY_MPS2),
        torso_angle=(0.0, TORSO_PITCH_RAD * math.sin(phase)),
        velocity=walk.current,
        seq=seq,
        timestamp_us=max(0, round(t * 1e6)),
    )


# --- the emulator ----------------------------------------------------------

class RobotSim(Service):
    """Threaded emulator: an image loop and a motion loop; nothing passes between them.

    The motion loop owns the walk and the command socket. Each tick applies the
    commands already queued (at most ``_COMMANDS_PER_TICK``) at the tick's own
    time, then steps the walk. Sending is fire-and-forget: stop flushes nothing.
    """

    def __init__(self, cfg: RobotConfig):
        self.cfg = cfg
        self._image_addr = (cfg.peer_host, cfg.image_port)
        self._motion_addr = (cfg.peer_host, cfg.motion_port)
        super().__init__({"nbpk-robot-image": self._image_loop,
                          "nbpk-robot-motion": self._motion_loop},
                         (EndpointConfig(),
                          EndpointConfig(bind_host=cfg.command_bind_host, bind_port=cfg.command_port)))
        self._out, self._command_in = self._endpoints
        self._walk = WalkState()
        # single-writer counters; readers only observe
        self.images_sent = 0
        self.motions_sent = 0
        self.commands_received = 0
        self.send_errors = 0
        self.command_rx = Receiver(StreamId.COMMAND)

    @property
    def command_port(self) -> int:
        return self._command_in.local_port

    def walk_snapshot(self) -> WalkState:
        return self._walk

    def _send(self, addr: tuple[str, int], pkt: Packet) -> None:
        try:
            self._out.send_to(pkt.to_bytes(), addr)
        except OSError:
            self.send_errors += 1  # unreachable peers are not fatal over UDP

    def _ticks(self, rate: float) -> Iterator[tuple[int, float]]:
        """The seq and time of each tick at ``rate`` Hz, sleeping between them, until stopped."""
        period = 1.0 / rate
        next_t = time.monotonic()
        seq = 0
        while not self._stop.wait(max(0.0, next_t - time.monotonic())):
            now = time.monotonic()
            yield seq, now
            seq = (seq + 1) % (1 << 32)  # seq is a u32 and wraps
            next_t += period
            if now - next_t > 1.0:  # clock jumped; don't burst to catch up
                next_t = now + period

    def _image_loop(self) -> None:
        cfg = self.cfg
        for seq, now in self._ticks(cfg.fps):
            img = gen_test_image(seq, cfg.width, cfg.height, int(now * 1e6))
            for pkt in packetize_image(img, cfg.frag_payload):
                self._send(self._image_addr, pkt)
            self.images_sent += 1

    def _motion_loop(self) -> None:
        t0 = last = time.monotonic()
        walk = WalkState()
        for seq, now in self._ticks(self.cfg.motion_rate):
            for _ in range(_COMMANDS_PER_TICK):
                if (datagram := self._command_in.recv(0)) is None:
                    break
                if (req := self.command_rx.feed(datagram)) is not None:
                    walk = apply_command(walk, req, now)
                    self.commands_received += 1
            walk = step(walk, now - last, now)
            last = now
            self._walk = walk
            reading = gen_motion(seq, now - t0, walk)
            pkt = packetize_single(encode_motion(reading), StreamId.MOTION,
                                   seq=seq, timestamp_us=int(now * 1e6))
            self._send(self._motion_addr, pkt)
            self.motions_sent += 1
