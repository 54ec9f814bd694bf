"""UDP endpoints, the receive-loop skeleton (``Service``), and a deterministic lossy-channel simulator.

The simulator's randomness is pinned to splitmix64 with the standard
published constants, so a given seed produces the same loss/duplication/
reorder trace on any platform. The state moves forward three draws per
input packet, always (loss, duplication, reorder). Draw ``k`` depends on
``seed + k * gamma`` alone, so a draw whose outcome is fixed (probability
0 or 1, or the packet already lost) is skipped, not mixed.
"""

from __future__ import annotations

import contextlib
import math
import select
import socket
import threading
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, ClassVar, Iterable, Iterator, Optional, TypeVar

from .wire import UDP_MAX_DATAGRAM

#: Default ports: one per stream so the receiver can tell sources apart.
DEFAULT_IMAGE_PORT = 10021
DEFAULT_MOTION_PORT = 10022
DEFAULT_COMMAND_PORT = 10023

_MASK64 = (1 << 64) - 1
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_GAMMA2, _GAMMA3 = 2 * SPLITMIX64_GAMMA, 3 * SPLITMIX64_GAMMA
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

T = TypeVar("T")


def splitmix64(state: int) -> int:
    """splitmix64's output for the Weyl state ``seed + k * SPLITMIX64_GAMMA``
    (mod 2**64) of draw ``k >= 1``; ``state`` is a u64."""
    z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


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
        """Whether the service stopped (a failed loop stops it) within ``timeout`` s (None: no limit)."""
        return self._stop.wait(timeout)

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
    """Per-packet impairment probabilities and the seed that fixes them."""

    loss_p: float = 0.0
    dup_p: float = 0.0
    reorder_p: float = 0.0
    reorder_depth: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("loss_p", "dup_p", "reorder_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.reorder_depth < 1:
            raise ValueError(f"reorder_depth must be >= 1, got {self.reorder_depth}")


class StreamImpairer:
    """Apply loss, duplication and reordering to a packet stream, one item at a time.

    A pure function of (cfg, items pushed): the same seed yields the same
    output every time. Items are never altered, only kept, repeated, or
    moved; a reordered item is released ``reorder_depth`` slots late, with
    ties broken by original send index, and duplicates release back to
    back. Output order is (release slot, send index, copy): an entry with
    release slot ``s`` is emitted once item ``s`` has been pushed, because
    every later item lands in a slot past its own index.
    """

    def __init__(self, cfg: ImpairmentConfig):
        self.cfg = cfg
        self._state = cfg.seed & _MASK64
        # A draw's u < p is k < ceil(p * 2**53) for its top 53 bits k, exactly. At p = 0
        # or 1 the outcome is fixed, and the limit is that outcome instead.
        self._limits = tuple(p == 1.0 if p in (0.0, 1.0) else math.ceil(p * (1 << 53))
                             for p in (cfg.loss_p, cfg.dup_p, cfg.reorder_p))
        self._pending: list[tuple[int, int, int, T]] = []  # a heap of reordered entries
        self._index = 0

    def push(self, item: T) -> list[T]:
        """Feed one item; returns whatever the channel releases now."""
        i = self._index
        self._index = i + 1
        x = self._state  # draws 1, 2, 3 of this item are x + gamma, x + 2 gamma, x + 3 gamma
        self._state = (x + _GAMMA3) & _MASK64
        pending = self._pending
        out = []
        while pending and pending[0][0] <= i:
            out.append(heappop(pending)[3])
        loss, dup, reorder = self._limits
        lost = loss if loss.__class__ is bool else splitmix64((x + SPLITMIX64_GAMMA) & _MASK64) >> 11 < loss
        if lost:
            return out
        twice = dup if dup.__class__ is bool else splitmix64((x + _GAMMA2) & _MASK64) >> 11 < dup
        late = reorder if reorder.__class__ is bool else splitmix64(self._state) >> 11 < reorder
        if late:
            slot = i + self.cfg.reorder_depth
            heappush(pending, (slot, i, 0, item))
            if twice:
                heappush(pending, (slot, i, 1, item))
        else:  # released in slot i, after every pending entry due by then
            out.append(item)
            if twice:
                out.append(item)
        return out

    def flush(self) -> list[T]:
        """Release everything still in flight, in order."""
        pending = self._pending
        return [heappop(pending)[3] for _ in range(len(pending))]
