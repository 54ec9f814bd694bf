"""UDP endpoints, the receive-loop skeleton (``Service``), and a deterministic lossy-channel simulator.

The simulator's randomness is pinned to splitmix64 with the standard published constants,
so a given seed produces the same loss/duplication/reorder trace on any platform. The
state moves forward three draws per input packet, always (loss, duplication, reorder).
Draw ``k`` depends on ``seed + k * gamma`` alone, so 128 packets' draws are mixed in one
block (a probability of 0 or 1 mixes none, and gives the same trace). A run fed in one
call is released as its packets fed one at a time would be. In a block with few outcomes
only a packet with an outcome or a release due takes a step of its own, the rest go as
slices; a denser block goes one packet at a time.
"""

from __future__ import annotations

import contextlib
import math
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, ClassVar, Iterable, Iterator, Optional, Sequence, TypeVar

from .wire import UDP_MAX_DATAGRAM

#: Default ports: one per stream so the receiver can tell sources apart.
DEFAULT_IMAGE_PORT = 10021
DEFAULT_MOTION_PORT = 10022
DEFAULT_COMMAND_PORT = 10023

_MASK64 = (1 << 64) - 1
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# A block is an int of 128 lanes of 128 bits: a 64-bit lane times a 64-bit mixer stays in its lane.
_LANES = 128
_LANE_U64 = struct.Struct("<" + "Q8x" * _LANES)  # the low 64 bits of every lane
_LANE_ONES = int.from_bytes(_LANE_U64.pack(*[1] * _LANES), "little")
_LANE_LOW = _LANE_ONES * _MASK64
_LANE_STEPS = int.from_bytes(_LANE_U64.pack(*range(_LANES)), "little") * 3 * SPLITMIX64_GAMMA & _LANE_LOW
_SPARSE = 8  # lanes with an outcome past which a block goes one at a time: slices stop paying at 5-10 %
_MARK_ANY, _MARK_ALL = bytes([0] + [1] * 255), b"\1" * 256  # byte tables: a lane's outcome bits to its mark
_LOST, _REORDERED, _DUPLICATED = 4, 2, 1  # a lane's outcome bits, so that fate < _REORDERED goes out now

T = TypeVar("T")


def _mixed_block(state: int, addend: int = 0) -> int:
    """splitmix64's outputs for the Weyl states ``state + 3 * k * SPLITMIX64_GAMMA`` (mod 2**64), every
    third draw from the one at ``state``: draw k = 0 .. 127 in the low 64 bits of lane k, plus ``addend``."""
    z = ((state & _MASK64) * _LANE_ONES + _LANE_STEPS) & _LANE_LOW
    z = ((z ^ (z >> 30)) & _LANE_LOW) * _MIX1 & _LANE_LOW
    z = ((z ^ (z >> 27)) & _LANE_LOW) * _MIX2 & _LANE_LOW
    return ((z ^ (z >> 31)) & _LANE_LOW) + addend


def check_positive(name: str, v: float) -> float:
    """``v``, if it is a usable rate, period or duration: ``0 < v < inf``, so NaN fails too."""
    if not 0.0 < v < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {v}")
    return v


def check_bind_port(name: str, port: int) -> None:
    # 0 asks the OS for an ephemeral port; otherwise stay out of the
    # privileged range.
    if port != 0 and not 1024 <= port <= 65535:
        raise ValueError(f"{name} must be 0 (ephemeral) or in [1024, 65535], got {port}")


def check_dest_port(name: str, port: int) -> None:
    if not 1 <= port <= 65535:
        raise ValueError(f"{name} must lie in [1, 65535] as a destination, got {port}")


@dataclass
class EndpointConfig:
    """Where a UDP endpoint binds and how much it buffers."""

    bind_host: str = "0.0.0.0"
    bind_port: int = 0
    kernel_buffer: ClassVar[int] = 1 << 22

    def __post_init__(self) -> None:
        check_bind_port("bind_port", self.bind_port)


class UdpEndpoint:
    """A bound UDP socket with whole-datagram send/recv semantics."""

    def __init__(self, cfg: EndpointConfig):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        with contextlib.suppress(OSError):  # the OS clamps oversized requests; best effort
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, cfg.kernel_buffer)
        try:
            self._sock.bind((cfg.bind_host, cfg.bind_port))
        except OSError:
            self._sock.close()
            raise
        self._readable = select.poll()
        self._readable.register(self._sock, select.POLLIN)

    @property
    def local_port(self) -> int:
        return self._sock.getsockname()[1]

    def send_to(self, data: bytes, addr: tuple[str, int]) -> None:
        if len(data) > UDP_MAX_DATAGRAM:
            raise ValueError(f"datagram of {len(data)} bytes exceeds UDP maximum {UDP_MAX_DATAGRAM}")
        self._sock.sendto(data, addr)

    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """One whole datagram, or None if none arrives within ``timeout`` seconds.

        A queued datagram costs one non-blocking read; only an empty socket is
        waited on, and sends still block. No IPv4 UDP payload is cut.
        """
        try:
            return self._sock.recv(UDP_MAX_DATAGRAM, socket.MSG_DONTWAIT)
        except BlockingIOError:  # empty: wait until readable, then read without waiting
            ready = self._readable.poll(None if timeout is None else timeout * 1000)
        return self.recv(0) if ready else None

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "UdpEndpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Service:
    """Named threads over owned endpoints: the robot's and the bridge's skeleton.

    Opens one endpoint per config, all or none. ``start`` runs each of
    ``loops`` on a daemon thread named by its key, once; ``stop`` joins
    them, then closes every endpoint. A receive loop hands each datagram to
    its stream's socket-free ``fragment.Receiver``. A loop that raises is logged
    and sets the stop, which ends :meth:`wait`; ``stop`` re-raises the first after closing.
    """

    def __init__(self, loops: dict[str, Callable[[], None]], endpoints: Iterable[EndpointConfig]):
        self._loops = loops
        with contextlib.ExitStack() as opened:
            self._endpoints = tuple(opened.enter_context(UdpEndpoint(cfg)) for cfg in endpoints)
            opened.pop_all()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._errors: list[Exception] = []
        self._started_at = time.monotonic()

    def start(self) -> None:
        if self._threads:
            raise RuntimeError(f"{type(self).__name__} already started")
        self._started_at = time.monotonic()
        for name, fn in self._loops.items():
            t = threading.Thread(target=self._run, args=(fn,), name=name, daemon=True)
            t.start()
            self._threads.append(t)

    def stop(self) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout=5.0)
        for ep in self._endpoints:
            ep.close()
        if self._errors:
            raise self._errors[0]

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Whether the service stopped (a failed loop stops it) within ``timeout`` s (None or inf: no limit)."""
        if timeout is not None and math.isnan(timeout):
            raise ValueError("timeout must be a number of seconds or None, got nan")
        return self._stop.wait(None if timeout is None or timeout >= threading.TIMEOUT_MAX else timeout)

    def _run(self, loop: Callable[[], None]) -> None:
        try:
            loop()
        except Exception as exc:
            import logging  # only a failing loop needs it; at import it adds ~0.4 MB to every process

            logging.getLogger("nbpk").exception("%s failed; stopping", threading.current_thread().name)
            self._errors.append(exc)
            self._stop.set()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _messages(self, endpoint: UdpEndpoint, rx) -> Iterator:
        """What ``rx.feed`` makes of each datagram from ``endpoint``, until the stop (seen within 0.1 s)."""
        while not self._stop.is_set():
            try:
                datagram = endpoint.recv(timeout=0.1)
            except OSError:
                if self._stop.is_set():
                    return
                raise
            if datagram is not None and (message := rx.feed(datagram)) is not None:
                yield message


@dataclass(frozen=True)
class ImpairmentConfig:
    """Per-packet impairment probabilities and the reorder depth; ``StreamImpairer`` takes the seed."""

    loss_p: float = 0.0
    dup_p: float = 0.0
    reorder_p: float = 0.0
    reorder_depth: int = 1

    def __post_init__(self) -> None:
        for name in ("loss_p", "dup_p", "reorder_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.reorder_depth < 1:
            raise ValueError(f"reorder_depth must be >= 1, got {self.reorder_depth}")


class StreamImpairer:
    """Apply loss, duplication and reordering to a packet stream, a run of items at a time.

    ``push_all`` feeds a run and ``push`` one item; a run releases exactly
    what pushing its items one by one would. A pure function of (cfg, seed,
    items pushed), however they are split; the seed, taken modulo 2**64,
    fixes every draw. Items are never altered, only kept, repeated, or
    moved; a reordered item is released ``reorder_depth`` slots late, with
    ties broken by original send index, and duplicates release back to
    back. Output order is (release slot, send index, copy): an entry with
    release slot ``s`` is emitted once item ``s`` has been pushed, because
    every later item lands in a slot past its own index.
    """

    def __init__(self, cfg: ImpairmentConfig, seed: int):
        self.cfg, self.seed = cfg, seed
        # A draw's u < p is draw < limit = ceil(p * 2**53) << 11, exactly; a lane's draws
        # are tested by adding 2**64 - limit. At p = 0 or 1 the outcome is fixed, and stands in.
        self._addends = tuple(p == 1.0 if p in (0.0, 1.0) else
                              _LANE_ONES * ((1 << 64) - (math.ceil(p * (1 << 53)) << 11))
                              for p in (cfg.loss_p, cfg.dup_p, cfg.reorder_p))
        self._fates = b"", b""  # this block's marked lanes, then each lane's outcome bits
        self._fixed_fates = None if any(a.__class__ is int for a in self._addends) else self._draw_block(0)
        self._pending: list[tuple[int, int, int, T]] = []  # a heap of reordered entries
        self._index = 0

    def push(self, item: T) -> list[T]:
        """Feed one item; returns whatever the channel releases now."""
        return self.push_all((item,))

    def _draw_block(self, i: int) -> tuple[bytes, bytes]:
        """The marks and outcome bits of items ``i .. i + 127``, whose draws are 3i + 1, 3i + 2, ..."""
        x = self.seed + 3 * i * SPLITMIX64_GAMMA
        fates = 0  # lane k has draw j's bit if item i + k's draw j fell below its limit (bit 64 stayed clear)
        for j, (addend, bit) in enumerate(zip(self._addends, (_LOST, _DUPLICATED, _REORDERED)), 1):
            fates |= ((_LANE_ONES if addend else 0) if addend.__class__ is bool else
                      ~_mixed_block(x + j * SPLITMIX64_GAMMA, addend) >> 64 & _LANE_ONES) * bit
        fates = fates.to_bytes(16 * _LANES, "little")[::16]
        # a lane with an outcome is marked, or every lane of a dense block; a 1 then a 0 end the block, for find
        return fates.translate(_MARK_ANY if fates.count(0) >= _LANES - _SPARSE else _MARK_ALL) + b"\1\0", fates

    def push_all(self, items: Sequence[T]) -> list[T]:
        """Feed items in turn; returns what pushing each one would, concatenated. Items up to the next
        marked lane or pending release go out as one slice; a run of marked lanes goes one at a time."""
        i = first = self._index
        end = i + len(items)
        pending, depth, out = self._pending, self.cfg.reorder_depth, []
        marks, fates = self._fates
        while i < end:
            k = i % _LANES
            if not k:
                self._fates = marks, fates = self._fixed_fates or self._draw_block(i)
            stop = min(end, i - k + marks.find(1, k), pending[0][0] if pending else end)
            if stop > i:
                out += items[i - first:stop - first]
                i = stop
                continue
            # item i is marked or has a release due; it goes one at a time with the marked lanes after it
            for item in items[i - first:min(end, i - k + min(marks.find(0, k + 1), _LANES)) - first]:
                while pending and pending[0][0] <= i:
                    out.append(heappop(pending)[3])
                fate = fates[k]
                if fate < _REORDERED:  # released in slot i, after every pending entry due by then
                    out.append(item)
                    if fate:
                        out.append(item)
                elif fate < _LOST:
                    heappush(pending, (i + depth, i, 0, item))
                    if fate & _DUPLICATED:
                        heappush(pending, (i + depth, i, 1, item))
                i, k = i + 1, k + 1
        self._index = i
        return out

    def flush(self) -> list[T]:
        """Release everything still in flight, in order."""
        pending = self._pending
        return [heappop(pending)[3] for _ in range(len(pending))]
