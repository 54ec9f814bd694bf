"""Datagram transport, the service skeleton, and a deterministic lossy-channel simulator.

The simulator's randomness is pinned to splitmix64 with the standard
published constants, so a given seed produces the same loss/duplication/
reorder trace on any platform. Exactly three draws are consumed per input
packet, in the order loss, duplication, reorder, whether or not the
earlier draws already decided the packet's fate.
"""

from __future__ import annotations

import heapq
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .fragment import Packet
from .wire import UDP_MAX_DATAGRAM, PacketKind, StreamId, WireError

#: Default ports: one per stream so the receiver can tell sources apart.
DEFAULT_IMAGE_PORT = 10021
DEFAULT_MOTION_PORT = 10022
DEFAULT_COMMAND_PORT = 10023

_MASK64 = (1 << 64) - 1
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

T = TypeVar("T")


class SplitMix64:
    """The splitmix64 generator (Steele, Lea & Flood constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + SPLITMIX64_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def next_float(self) -> float:
        """Uniform double in [0, 1): top 53 bits of the next output."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


class TruncatedDatagramError(OSError):
    """A datagram arrived larger than the receive buffer and was cut short."""


def _check_port(name: str, port: int) -> None:
    # 0 asks the OS for an ephemeral port; otherwise stay out of the
    # privileged range.
    if port != 0 and not 1024 <= port <= 65535:
        raise ValueError(f"{name} must be 0 (ephemeral) or in [1024, 65535], got {port}")


@dataclass
class EndpointConfig:
    """Where a UDP endpoint binds and how much it buffers."""

    bind_host: str = "0.0.0.0"
    bind_port: int = 0
    recv_buffer: int = UDP_MAX_DATAGRAM
    kernel_buffer: int = 1 << 22

    def __post_init__(self) -> None:
        _check_port("bind_port", self.bind_port)
        if self.recv_buffer < 1:
            raise ValueError("recv_buffer must be positive")


class UdpEndpoint:
    """A bound UDP socket with whole-datagram send/recv semantics."""

    def __init__(self, cfg: EndpointConfig):
        self.cfg = cfg
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, cfg.kernel_buffer)
        except OSError:
            pass  # the OS clamps oversized requests; best effort
        self._sock.bind((cfg.bind_host, cfg.bind_port))
        self._timeout = self._sock.gettimeout()

    @property
    def local_port(self) -> int:
        return self._sock.getsockname()[1]

    def send_to(self, data: bytes, addr: tuple[str, int]) -> None:
        if len(data) > UDP_MAX_DATAGRAM:
            raise ValueError(f"datagram of {len(data)} bytes exceeds UDP maximum {UDP_MAX_DATAGRAM}")
        self._sock.sendto(data, addr)

    def recv(self, timeout: Optional[float] = None) -> Optional[tuple[bytes, tuple[str, int]]]:
        """Receive one whole datagram; returns None on timeout.

        Raises :class:`TruncatedDatagramError` if the datagram was larger
        than the configured receive buffer (silent truncation would
        corrupt the stream).
        """
        if timeout != self._timeout:
            self._sock.settimeout(timeout)
            self._timeout = timeout
        try:
            data, ancdata, msg_flags, address = self._sock.recvmsg(self.cfg.recv_buffer)
        except socket.timeout:
            return None
        if msg_flags & socket.MSG_TRUNC:
            raise TruncatedDatagramError(
                f"datagram from {address} exceeded the {self.cfg.recv_buffer}-byte receive buffer"
            )
        return data, address[:2]

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "UdpEndpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Service:
    """Named threads over owned endpoints: the robot's and the bridge's skeleton.

    ``start`` runs each of ``loops`` on a daemon thread named by its key,
    once; ``stop`` joins them, then closes every endpoint. A datagram that
    breaks the wire contract is counted in ``malformed_packets`` and never
    stops a loop.
    """

    def __init__(self, loops: dict[str, Callable[[], None]], endpoints: Iterable[UdpEndpoint]):
        self._loops = loops
        self._endpoints = tuple(endpoints)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started_at = time.monotonic()
        self.malformed_packets = 0

    def start(self) -> None:
        if self._threads:
            raise RuntimeError(f"{type(self).__name__} already started")
        self._started_at = time.monotonic()
        for name, fn in self._loops.items():
            t = threading.Thread(target=fn, name=name, daemon=True)
            t.start()
            self._threads.append(t)

    def stop(self) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout=5.0)
        for ep in self._endpoints:
            ep.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _packets(self, endpoint: UdpEndpoint, stream: StreamId,
                 kind: Optional[PacketKind] = None) -> Iterator[Optional[Packet]]:
        """Each valid packet of ``stream`` (and ``kind``, if given) from ``endpoint``.

        Yields None after 0.1 s of silence or a rejected datagram, so the
        caller can do periodic work, and ends once the service stops.
        """
        while not self._stop.is_set():
            pkt = None
            try:
                got = endpoint.recv(timeout=0.1)
                if got is not None:
                    pkt = Packet.from_bytes(got[0])
            except (TruncatedDatagramError, WireError):
                self.malformed_packets += 1
            except OSError:
                if self._stop.is_set():
                    return
                raise
            if pkt is not None and (pkt.header.stream_id != stream
                                    or kind is not None and pkt.header.kind != kind):
                self.malformed_packets += 1
                pkt = None
            yield pkt


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
    back. An entry with release slot ``s`` is emitted once item ``s`` has
    been pushed, because every later item lands in a slot past its own
    index.
    """

    def __init__(self, cfg: ImpairmentConfig):
        self.cfg = cfg
        self._rng = SplitMix64(cfg.seed)
        self._pending: list[tuple[int, int, int, T]] = []
        self._index = 0

    def push(self, item: T) -> list[T]:
        """Feed one item; returns whatever the channel releases now."""
        cfg = self.cfg
        i = self._index
        self._index += 1
        u_loss = self._rng.next_float()
        u_dup = self._rng.next_float()
        u_reorder = self._rng.next_float()
        if u_loss >= cfg.loss_p:
            slot = i + (cfg.reorder_depth if u_reorder < cfg.reorder_p else 0)
            copies = 2 if u_dup < cfg.dup_p else 1
            for c in range(copies):
                heapq.heappush(self._pending, (slot, i, c, item))
        out = []
        while self._pending and self._pending[0][0] <= i:
            out.append(heapq.heappop(self._pending)[3])
        return out

    def flush(self) -> list[T]:
        """Release everything still in flight, in order."""
        out = []
        while self._pending:
            out.append(heapq.heappop(self._pending)[3])
        return out


def impair(cfg: ImpairmentConfig, items: Iterable[T]) -> list[T]:
    """Batch form of :class:`StreamImpairer`: push every item, then flush."""
    imp = StreamImpairer(cfg)
    out = [released for item in items for released in imp.push(item)]
    return out + imp.flush()
