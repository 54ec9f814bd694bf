"""Robot-side emulator: periodic image/motion senders and a command listener.

Stands in for the robot's cognition and motion loops at desk scale. Images
carry a deterministic test pattern with a CRC-32 trailer so the receiving
side can machine-check reassembly; motion readings follow a fixed sinusoid
plus a first-order walk model that ramps toward the commanded velocity and
auto-stands when commands stop arriving.
"""

from __future__ import annotations

import math
import queue
import struct
import time
import zlib
from dataclasses import dataclass, replace
from typing import Iterator, Union

import numpy as np

from .channel import (
    DEFAULT_COMMAND_PORT,
    DEFAULT_IMAGE_PORT,
    DEFAULT_MOTION_PORT,
    EndpointConfig,
    Service,
    UdpEndpoint,
)
from .fragment import Packet, packetize_image, packetize_single
from .wire import (
    DEFAULT_FRAG_PAYLOAD,
    DEFAULT_JOINT_COUNT,
    MAX_IMAGE_BYTES,
    Image,
    MotionMode,
    MotionReading,
    MotionRequest,
    PacketKind,
    StreamId,
    WireError,
    decode_request,
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

_MIN_PATTERN_BYTES = 16


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
        if not 0.0 < self.fps <= 60.0:
            raise ValueError(f"fps must lie in (0, 60], got {self.fps}")
        if self.motion_rate <= 0.0:
            raise ValueError(f"motion_rate must be positive, got {self.motion_rate}")
        if self.width * self.height * 2 > MAX_IMAGE_BYTES:
            raise ValueError(f"a {self.width}x{self.height} YUV422 image exceeds the "
                             f"{MAX_IMAGE_BYTES}-byte wire limit")


# --- test image pattern ----------------------------------------------------

def gen_test_image(seq: int, width: int = 320, height: int = 240) -> Image:
    """Build a YUV422-sized deterministic pattern for frame ``seq``.

    Layout: bytes [0, 4) hold ``seq`` little-endian; every interior byte
    ``i`` is ``(i + seq) mod 256``; the last 4 bytes are the CRC-32 (IEEE)
    of everything before them, little-endian. Any corruption — including
    fragments spliced in from another frame — breaks the CRC.
    """
    n = width * height * 2
    if n < _MIN_PATTERN_BYTES:
        raise ValueError(f"image of {n} bytes is too small for the test pattern (min {_MIN_PATTERN_BYTES})")
    if not 0 <= seq < (1 << 32):
        raise ValueError(f"seq must be an unsigned 32-bit integer, got {seq}")
    body = ((np.arange(n - 4, dtype=np.uint32) + seq) & 0xFF).astype(np.uint8)
    buf = bytearray(body.tobytes())
    buf[0:4] = struct.pack("<I", seq)
    crc = zlib.crc32(bytes(buf))
    pixels = bytes(buf) + struct.pack("<I", crc)
    return Image(width=width, height=height, pixels=pixels, seq=seq)


@dataclass(frozen=True)
class VerifyOk:
    seq: int


@dataclass(frozen=True)
class CorruptCrc:
    stored: int
    computed: int


@dataclass(frozen=True)
class SeqMismatch:
    header_seq: int
    embedded_seq: int


VerifyResult = Union[VerifyOk, CorruptCrc, SeqMismatch]


def verify_test_image(img: Image) -> VerifyResult:
    """Check a received frame against the generator's pattern contract.

    CRC failure wins over sequence mismatch: a frame with a bad checksum
    says nothing trustworthy about its embedded sequence number.
    """
    n = len(img.pixels)
    if n < _MIN_PATTERN_BYTES:
        raise ValueError(f"image of {n} bytes is too small to carry the test pattern")
    stored = struct.unpack_from("<I", img.pixels, n - 4)[0]
    computed = zlib.crc32(img.pixels[:n - 4])
    if stored != computed:
        return CorruptCrc(stored=stored, computed=computed)
    embedded = struct.unpack_from("<I", img.pixels, 0)[0]
    if embedded != img.seq:
        return SeqMismatch(header_seq=img.seq, embedded_seq=embedded)
    return VerifyOk(seq=embedded)


def image_ok(img: Image) -> bool:
    return isinstance(verify_test_image(img), VerifyOk)


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


def step(walk: WalkState, dt: float, now: float, *,
         ramp_rate: float = DEFAULT_RAMP_RATE,
         idle_timeout: float = DEFAULT_IDLE_TIMEOUT_S) -> WalkState:
    """Advance the walk model by ``dt`` seconds.

    The current velocity moves toward the target at most ``ramp_rate``
    per second per component. If no command arrived within
    ``idle_timeout``, the target is forced to zero first (deadman rule),
    and the returned state keeps that zeroed target.
    """
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    target = walk.target
    if now - walk.last_command_time > idle_timeout:
        target = (0.0, 0.0, 0.0)
    max_step = ramp_rate * dt
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


def gen_motion(seq: int, t: float, walk: WalkState,
               joint_count: int = DEFAULT_JOINT_COUNT) -> MotionReading:
    """Deterministic motion reading at time ``t`` seconds.

    Joints swing on a shared 0.5 Hz sinusoid with a per-joint phase step;
    the gyro z axis reflects the current yaw rate, the accelerometer sees
    gravity only (body acceleration is not modeled), and the velocity
    field mirrors ``walk.current`` exactly.
    """
    phase = 2.0 * math.pi * SWING_HZ * t
    positions = tuple(
        JOINT_SWING_RAD * math.sin(phase + j * JOINT_PHASE_STEP_RAD)
        for j in range(joint_count)
    )
    return MotionReading(
        positions=positions,
        gyro=(0.0, 0.0, walk.current[2] * NOMINAL_MAX_YAW_RPS),
        accel=(0.0, 0.0, GRAVITY_MPS2),
        torso_angle=(0.0, TORSO_PITCH_RAD * math.sin(phase)),
        velocity=walk.current,
        joint_count=joint_count,
        seq=seq,
        timestamp_us=max(0, round(t * 1e6)),
    )


# --- the emulator ----------------------------------------------------------

class RobotSim(Service):
    """Threaded emulator: image loop, motion loop, command listener.

    The walk state is owned by the motion loop; the command listener only
    enqueues decoded requests. Sending is fire-and-forget — stopping the
    emulator flushes nothing.
    """

    def __init__(self, cfg: RobotConfig):
        self.cfg = cfg
        self._out = UdpEndpoint(EndpointConfig())
        self._image_addr = (cfg.peer_host, cfg.image_port)
        self._motion_addr = (cfg.peer_host, cfg.motion_port)
        self._command_in = UdpEndpoint(EndpointConfig(
            bind_host=cfg.command_bind_host, bind_port=cfg.command_port))
        super().__init__({"nbpk-robot-image": self._image_loop,
                          "nbpk-robot-motion": self._motion_loop,
                          "nbpk-robot-command": self._command_loop},
                         (self._out, self._command_in))
        self._commands: queue.SimpleQueue[tuple[MotionRequest, float]] = queue.SimpleQueue()
        self._walk = WalkState()
        # single-writer counters; readers only observe
        self.images_sent = 0
        self.motions_sent = 0
        self.commands_received = 0
        self.send_errors = 0

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

    def _ticks(self, rate: float) -> Iterator[float]:
        """The time of each tick at ``rate`` Hz, sleeping between them, until stopped."""
        period = 1.0 / rate
        next_t = time.monotonic()
        while not self._stop.wait(max(0.0, next_t - time.monotonic())):
            now = time.monotonic()
            yield now
            next_t += period
            if now - next_t > 1.0:  # clock jumped; don't burst to catch up
                next_t = now + period

    def _image_loop(self) -> None:
        cfg = self.cfg
        for seq, now in enumerate(self._ticks(cfg.fps)):
            img = replace(gen_test_image(seq, cfg.width, cfg.height), timestamp_us=int(now * 1e6))
            for pkt in packetize_image(img, cfg.frag_payload):
                self._send(self._image_addr, pkt)
            self.images_sent += 1

    def _motion_loop(self) -> None:
        t0 = last = time.monotonic()
        walk = WalkState()
        for seq, now in enumerate(self._ticks(self.cfg.motion_rate)):
            while True:
                try:
                    req, t_cmd = self._commands.get_nowait()
                except queue.Empty:
                    break
                walk = apply_command(walk, req, t_cmd)
            walk = step(walk, now - last, now)
            last = now
            self._walk = walk
            reading = gen_motion(seq, now - t0, walk)
            pkt = packetize_single(encode_motion(reading), StreamId.MOTION,
                                   seq=seq, timestamp_us=int(now * 1e6))
            self._send(self._motion_addr, pkt)
            self.motions_sent += 1

    def _command_loop(self) -> None:
        for pkt in self._packets(self._command_in, StreamId.COMMAND, PacketKind.SINGLE):
            if pkt is None:
                continue
            try:
                req = decode_request(pkt.payload)
            except WireError:
                self.malformed_packets += 1
                continue
            self._commands.put((req, time.monotonic()))
            self.commands_received += 1
