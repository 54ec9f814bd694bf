"""Backpack-side driver: receive loops, reassembly, topic bus, command path.

The bus is a small in-process publish/subscribe fabric: named topics,
typed payloads, and per-subscriber queues. Publishing never blocks — each
subscriber's ``BoundedFifo`` keeps its newest N messages and counts what
it sheds (``BoundedFifo(1)`` keeps only the newest).

The bridge runs one receive loop per stream, which feeds each datagram to the
stream's ``fragment.Receiver`` and publishes what it returns: images on
``camera/image_raw``, readings on ``motion/state``. It emits a stats snapshot on
``bridge/stats`` once per period, and forwards anything published on
``motion/request`` to the robot as a command packet: the one way to send
a command.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Optional

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
from .fragment import Reassembler, Receiver, StreamStats, packetize_single
from .wire import (
    Image,
    MotionReading,
    MotionRequest,
    StreamId,
    WireError,
    encode_request,
)

TOPIC_IMAGE = "camera/image_raw"
TOPIC_MOTION = "motion/state"
TOPIC_STATS = "bridge/stats"
TOPIC_COMMAND = "motion/request"


# --- topic bus -------------------------------------------------------------

@dataclass(frozen=True)
class BoundedFifo:
    """Keep the newest ``depth`` messages; overflow sheds the oldest."""

    depth: int = 64

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {self.depth}")


class Subscription:
    """One subscriber's view of a topic. Created via :meth:`TopicBus.subscribe`."""

    def __init__(self, bus: "TopicBus", topic: str, policy: BoundedFifo):
        self._bus = bus
        self.topic = topic
        self.policy = policy
        self._dq: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.drops = 0

    def _offer(self, message: Any) -> None:
        with self._cond:
            if self._closed:
                return
            if len(self._dq) >= self.policy.depth:
                self._dq.popleft()
                self.drops += 1
            self._dq.append(message)
            self._cond.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Pop the next message, waiting up to ``timeout`` (0: no wait; None: until a
        message comes or the subscription closes); None if none came."""
        with self._cond:
            self._cond.wait_for(lambda: self._dq or self._closed, timeout)
            if self._dq:
                return self._dq.popleft()
            return None

    def drain(self) -> list:
        """Pop everything currently queued."""
        with self._cond:
            out = list(self._dq)
            self._dq.clear()
            return out

    def close(self) -> None:
        self._bus._unsubscribe(self)
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class _Topic:
    __slots__ = ("payload_type", "subscribers")

    def __init__(self):
        self.payload_type: Optional[type] = None
        self.subscribers: list[Subscription] = []


class TopicBus:
    """Named topics with typed payloads and non-blocking fan-out."""

    def __init__(self):
        self._lock = threading.Lock()
        self._topics: dict[str, _Topic] = {}

    def _topic(self, name: str) -> _Topic:
        if not name:
            raise ValueError("topic name must be non-empty")
        t = self._topics.get(name)
        if t is None:
            t = self._topics[name] = _Topic()
        return t

    def register(self, topic: str, payload_type: type) -> None:
        """Pin a topic's payload type ahead of the first publish."""
        with self._lock:
            t = self._topic(topic)
            if t.payload_type is not None and t.payload_type is not payload_type:
                raise TypeError(
                    f"topic {topic!r} already carries {t.payload_type.__name__}, "
                    f"cannot re-register as {payload_type.__name__}"
                )
            t.payload_type = payload_type

    def publish(self, topic: str, message: Any) -> None:
        """Hand a message to every current subscriber of ``topic``.

        Never blocks: each subscriber's queue policy decides what is kept.
        Subscribers observe one topic's messages in publish order.
        """
        if message is None:
            raise TypeError("cannot publish None")
        with self._lock:
            t = self._topic(topic)
            if t.payload_type is None:
                t.payload_type = type(message)
            elif not isinstance(message, t.payload_type):
                raise TypeError(
                    f"topic {topic!r} carries {t.payload_type.__name__}, "
                    f"got {type(message).__name__}"
                )
            subs = list(t.subscribers)
        for sub in subs:
            sub._offer(message)

    def subscribe(self, topic: str, policy: BoundedFifo) -> Subscription:
        sub = Subscription(self, topic, policy)
        with self._lock:
            self._topic(topic).subscribers.append(sub)
        return sub

    def _unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            t = self._topics.get(sub.topic)
            if t is not None and sub in t.subscribers:
                t.subscribers.remove(sub)


# --- bridge ----------------------------------------------------------------

@dataclass(frozen=True)
class CameraFrame:
    """A completed image plus the local receive time.

    ``image.timestamp_us`` is the sender's clock at capture;
    ``recv_timestamp_us`` is this process's clock at reassembly.
    """

    image: Image
    recv_timestamp_us: int


@dataclass(frozen=True)
class BridgeStats:
    """One stats-tick snapshot, published on ``bridge/stats``. Each counter has one
    writing thread: the image loop (``image``), the motion loop (``motion``,
    ``motions_published``) or the command loop (``commands_*``); the rest are sums."""

    image: StreamStats
    motion: StreamStats  # no reassembly: bytes, seq and malformed counts only
    motions_published: int
    commands_forwarded: int  # motion/request messages the command loop sent to the robot
    commands_failed: int  # requests it could not encode or send
    frames_stale: int  # image.frames_stale + motion.frames_stale; kept while perfbench prints it
    malformed_packets: int  # image.malformed_packets + motion.malformed_packets
    uptime_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True)
class BridgeConfig:
    """Listen ports, robot address, and publication cadence."""

    image_port: int = DEFAULT_IMAGE_PORT
    motion_port: int = DEFAULT_MOTION_PORT
    bind_host: str = "0.0.0.0"
    robot_host: str = "127.0.0.1"
    robot_command_port: int = DEFAULT_COMMAND_PORT
    stats_period_s: float = 1.0

    def __post_init__(self) -> None:
        check_bind_port("image_port", self.image_port)
        check_bind_port("motion_port", self.motion_port)
        check_dest_port("robot_command_port", self.robot_command_port)
        if self.image_port == self.motion_port and self.image_port != 0:
            raise ValueError("image and motion ports must be distinct")
        check_positive("stats_period_s", self.stats_period_s)


def _now_us() -> int:
    return int(time.monotonic() * 1e6)


class Bridge(Service):
    """Threaded receive/publish/forward engine. Use as a context manager.

    It talks only through ``bus``: ``motion/request`` is the one way to send
    a command. Frames that fail reassembly never reach the bus. Subscribers
    see each stream's messages in seq order: each stream's receiver orders
    them (``wire.SeqOrder``), the reassembler at a frame's START.
    """

    def __init__(self, cfg: BridgeConfig, bus: Optional[TopicBus] = None):
        self.cfg = cfg
        self.bus = bus if bus is not None else TopicBus()
        # a bus whose topic carries another type fails here, before any socket opens
        self.bus.register(TOPIC_IMAGE, CameraFrame)
        self.bus.register(TOPIC_MOTION, MotionReading)
        self.bus.register(TOPIC_STATS, BridgeStats)
        self.bus.register(TOPIC_COMMAND, MotionRequest)
        super().__init__({"nbpk-bridge-image": self._image_loop,
                          "nbpk-bridge-motion": self._motion_loop,
                          "nbpk-bridge-stats": self._stats_loop,
                          "nbpk-bridge-command": self._command_loop},
                         (EndpointConfig(bind_host=cfg.bind_host, bind_port=cfg.image_port),
                          EndpointConfig(bind_host=cfg.bind_host, bind_port=cfg.motion_port),
                          EndpointConfig()))
        self._image_in, self._motion_in, self._command_out = self._endpoints
        self._robot_addr = (cfg.robot_host, cfg.robot_command_port)
        self._image_rx = Reassembler()
        self._image_latency_us = 0
        self._motion_rx = Receiver(StreamId.MOTION)
        self._cmd_sub = self.bus.subscribe(TOPIC_COMMAND, BoundedFifo(64))
        self._cmd_seq = 0  # the next command's seq; only the command loop writes it
        self.motions_published = self.commands_forwarded = self.commands_failed = 0

    @property
    def image_port(self) -> int:
        return self._image_in.local_port

    @property
    def motion_port(self) -> int:
        return self._motion_in.local_port

    def set_robot_address(self, host: str, port: int) -> None:
        """Repoint the command back-channel (e.g. after the robot's port is known)."""
        check_dest_port("port", port)
        self._robot_addr = (host, port)

    def stats(self) -> BridgeStats:
        image, motion = self._image_rx.stats(), self._motion_rx.stats()
        image.latency_accumulator_us = self._image_latency_us
        return BridgeStats(
            image=image,
            motion=motion,
            motions_published=self.motions_published,
            commands_forwarded=self.commands_forwarded,
            commands_failed=self.commands_failed,
            frames_stale=image.frames_stale + motion.frames_stale,
            malformed_packets=image.malformed_packets + motion.malformed_packets,
            uptime_s=time.monotonic() - self._started_at,
        )

    def stop(self) -> None:
        """Leave ``motion/request``, which ends the command loop, then stop the
        other loops and close the sockets."""
        self._cmd_sub.close()
        super().stop()

    def _image_loop(self) -> None:
        for image in self._messages(self._image_in, self._image_rx):
            now = _now_us()
            self._image_latency_us += max(0, now - image.timestamp_us)
            self.bus.publish(TOPIC_IMAGE, CameraFrame(image=image, recv_timestamp_us=now))

    def _motion_loop(self) -> None:
        for reading in self._messages(self._motion_in, self._motion_rx):
            self.bus.publish(TOPIC_MOTION, reading)
            self.motions_published += 1

    def _stats_loop(self) -> None:
        while not self._stop.wait(self.cfg.stats_period_s):
            self.bus.publish(TOPIC_STATS, self.stats())

    def _command_loop(self) -> None:
        """The one sender: a request that fails to encode or to send is counted failed."""
        while (req := self._cmd_sub.get()) is not None:
            try:
                pkt = packetize_single(encode_request(req), StreamId.COMMAND, seq=self._cmd_seq,
                                       timestamp_us=_now_us())
                self._cmd_seq = (self._cmd_seq + 1) % (1 << 32)  # a u32 that wraps
                self._command_out.send_to(pkt.to_bytes(), self._robot_addr)
                self.commands_forwarded += 1
            except (WireError, OSError):
                self.commands_failed += 1
