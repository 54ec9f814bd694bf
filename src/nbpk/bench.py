"""Benchmark harness: measured delivery vs the analytic loss model.

Two modes. The default composes the sender, the impaired channel, and the
reassembler in-process on a virtual clock, so runs are deterministic given
a seed and can be far faster than real time. The loopback mode runs a real
emulator and bridge over UDP sockets and reports receive-side rates
(impairment settings do not apply there — the sockets are real).

Under independent per-packet loss ``p``, a frame of ``n`` packets survives
only if all of them do, so the expected delivery ratio is ``(1-p)**n``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

from .bridge import (
    TOPIC_IMAGE,
    BoundedFifo,
    Bridge,
    BridgeConfig,
    CameraFrame,
    TopicBus,
)
from .channel import ImpairmentConfig, StreamImpairer
from .fragment import ImageComplete, Reassembler, packetize_image
from .robotsim import RobotConfig, RobotSim, gen_test_image, image_ok
from .wire import DEFAULT_FRAG_PAYLOAD


def packets_per_frame(width: int, height: int, frag_payload: int = DEFAULT_FRAG_PAYLOAD) -> int:
    """START packet plus one fragment per ``frag_payload`` slice of pixels."""
    total = width * height * 2
    return 1 + (-(-total // frag_payload))


def analytic_delivery(loss_p: float, packets_per_frame: int) -> float:
    """Probability a frame survives independent per-packet loss: (1-p)^n."""
    if not 0.0 <= loss_p <= 1.0:
        raise ValueError(f"loss_p must lie in [0, 1], got {loss_p}")
    if packets_per_frame < 1:
        raise ValueError(f"packets_per_frame must be >= 1, got {packets_per_frame}")
    return (1.0 - loss_p) ** packets_per_frame


@dataclass(frozen=True)
class Scenario:
    """One benchmark configuration. ``seed``, when set, overrides the
    impairment config's own seed."""

    duration_s: float = 10.0
    fps: float = 30.0
    width: int = 320
    height: int = 240
    frag_payload: int = DEFAULT_FRAG_PAYLOAD
    impairment: ImpairmentConfig = ImpairmentConfig()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")

    def effective_impairment(self) -> ImpairmentConfig:
        if self.seed is None:
            return self.impairment
        return replace(self.impairment, seed=self.seed)

    @property
    def packets_per_frame(self) -> int:
        return packets_per_frame(self.width, self.height, self.frag_payload)


@dataclass(frozen=True)
class Report:
    """What one run measured, next to what the model predicts."""

    frames_sent: int
    frames_delivered: int
    delivery_ratio: float
    expected_ratio: float
    mean_latency_us: float
    p95_latency_us: float
    orphan_fragments: int
    duplicate_fragments: int
    bytes_on_wire: int
    achieved_fps: float
    verify_failures: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delivery_ratio <= 1.0:
            raise ValueError(f"delivery_ratio out of range: {self.delivery_ratio}")
        if self.frames_delivered > self.frames_sent:
            raise ValueError(
                f"{self.frames_delivered} frames delivered out of {self.frames_sent} sent"
            )


def _latency_stats(latencies_us: list[int]) -> tuple[float, float]:
    if not latencies_us:
        return 0.0, 0.0
    ordered = sorted(latencies_us)
    mean = sum(ordered) / len(ordered)
    rank = max(0, math.ceil(0.95 * len(ordered)) - 1)  # nearest-rank 95th percentile
    return mean, float(ordered[rank])


def run_scenario(s: Scenario, trace_out: Optional[list[int]] = None) -> Report:
    """Simulate a run on a virtual clock; deterministic given the seed.

    A packet arrives at the virtual time of the push that releases it, so
    latency comes only from reordering. If ``trace_out`` is given, the seq
    of every delivered frame is appended to it in completion order.
    """
    cfg = s.effective_impairment()
    imp = StreamImpairer(cfg)
    rx = Reassembler()
    frames_sent = max(1, round(s.duration_s * s.fps))
    latencies: list[int] = []
    delivered = 0
    verify_failures = 0

    def feed(released, t_us):
        nonlocal delivered, verify_failures
        for pkt in released:
            event = rx.step(pkt, now_us=t_us)
            if isinstance(event, ImageComplete):
                delivered += 1
                latencies.append(t_us - event.image.timestamp_us)
                if trace_out is not None:
                    trace_out.append(event.image.seq)
                if not image_ok(event.image):
                    verify_failures += 1

    t_us = 0
    for i in range(frames_sent):
        t_us = round(i * 1e6 / s.fps)
        img = replace(gen_test_image(i, s.width, s.height), timestamp_us=t_us)
        for pkt in packetize_image(img, s.frag_payload):
            feed(imp.push(pkt), t_us)
    feed(imp.flush(), t_us)

    mean_lat, p95_lat = _latency_stats(latencies)
    stats = rx.stats()
    return Report(
        frames_sent=frames_sent,
        frames_delivered=delivered,
        delivery_ratio=delivered / frames_sent,
        expected_ratio=analytic_delivery(cfg.loss_p, s.packets_per_frame),
        mean_latency_us=mean_lat,
        p95_latency_us=p95_lat,
        orphan_fragments=stats.orphan_fragments,
        duplicate_fragments=stats.duplicate_fragments,
        bytes_on_wire=stats.bytes_received,
        achieved_fps=delivered / s.duration_s,
        verify_failures=verify_failures,
    )


def loopback_pair(s: Scenario, bus: Optional[TopicBus] = None) -> tuple[RobotSim, Bridge]:
    """An emulator and bridge wired to each other on ephemeral loopback ports."""
    bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"), bus=bus)
    sim = RobotSim(RobotConfig(
        peer_host="127.0.0.1",
        image_port=bridge.image_port,
        motion_port=bridge.motion_port,
        command_port=0,
        command_bind_host="127.0.0.1",
        fps=s.fps,
        width=s.width,
        height=s.height,
        frag_payload=s.frag_payload,
    ))
    bridge.set_robot_address("127.0.0.1", sim.command_port)
    return sim, bridge


def run_loopback(s: Scenario, settle_s: float = 0.5) -> Report:
    """Run emulator→bridge over real UDP loopback for ``s.duration_s``.

    Wall-clock, receive-side measurement; ``s.impairment`` is ignored.
    After the sender stops, ``settle_s`` of drain time lets in-flight
    frames complete before the books close.
    """
    bus = TopicBus()
    sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(256))
    sim, bridge = loopback_pair(s, bus)
    delivered = 0
    verify_failures = 0
    latencies: list[int] = []

    def drain(block_s: float) -> None:
        nonlocal delivered, verify_failures
        while True:
            frame = sub.get(timeout=block_s)
            if frame is None:
                return
            delivered += 1
            latencies.append(frame.recv_timestamp_us - frame.image.timestamp_us)
            if not image_ok(frame.image):
                verify_failures += 1
            block_s = 0.0  # only the first wait blocks

    bridge.start()
    sim.start()
    try:
        t0 = time.monotonic()
        deadline = t0 + s.duration_s
        while time.monotonic() < deadline:
            drain(min(0.05, max(0.0, deadline - time.monotonic())))
    finally:
        sim.stop()
    settle_deadline = time.monotonic() + settle_s
    while time.monotonic() < settle_deadline:
        drain(0.05)
    bridge.stop()
    drain(0.0)

    frames_sent = sim.images_sent
    elapsed = time.monotonic() - t0 - settle_s
    stats = bridge.stats()
    mean_lat, p95_lat = _latency_stats(latencies)
    return Report(
        frames_sent=frames_sent,
        frames_delivered=delivered,
        delivery_ratio=delivered / frames_sent if frames_sent else 0.0,
        expected_ratio=1.0,
        mean_latency_us=mean_lat,
        p95_latency_us=p95_lat,
        orphan_fragments=stats.image.orphan_fragments,
        duplicate_fragments=stats.image.duplicate_fragments,
        bytes_on_wire=stats.image.bytes_received,
        achieved_fps=delivered / elapsed if elapsed > 0 else 0.0,
        verify_failures=verify_failures,
    )


def write_report(report: Report, path) -> None:
    """Serialize a report as JSON with sorted, stable keys."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(asdict(report), f, sort_keys=True, indent=2)
        f.write("\n")


def read_report(path) -> Report:
    with open(path, "r", encoding="utf-8") as f:
        return Report(**json.load(f))
