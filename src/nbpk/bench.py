"""Benchmark harness: measured delivery vs the analytic loss model.

Two modes. The default composes the sender, the impaired channel, and the
reassembler in-process on a virtual clock, a frame's packets crossing both as
one run, so runs are deterministic given a seed and far faster than real time.
The loopback mode runs a real emulator and bridge over UDP sockets and reports
receive-side rates; it applies no impairment, so ``nbpk bench --loopback``
refuses the impairment flags and ``--seed``. Both modes keep their books in one ``Report``.

Under independent per-packet loss ``p``, a frame of ``n`` packets survives
only if all of them do, so the expected delivery ratio is ``(1-p)**n``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

from .bridge import (
    TOPIC_IMAGE,
    BoundedFifo,
    Bridge,
    BridgeConfig,
    TopicBus,
)
from .channel import ImpairmentConfig, StreamImpairer, check_positive
from .fragment import Reassembler, StreamStats, packetize_image
from .robotsim import RobotConfig, RobotSim, gen_test_image, image_ok
from .wire import DEFAULT_FRAG_PAYLOAD, ImageStartMeta

_SETTLE_S = 0.5  # seconds run_loopback drains the bus after the sender stops


def packets_per_frame(width: int, height: int, frag_payload: int = DEFAULT_FRAG_PAYLOAD) -> int:
    """The START packet plus the fragments it announces."""
    return 1 + ImageStartMeta(width * height * 2, width, height, frag_payload).frag_count


def analytic_delivery(loss_p: float, packets_per_frame: int) -> float:
    """Probability a frame survives independent per-packet loss: (1-p)^n."""
    if not 0.0 <= loss_p <= 1.0:
        raise ValueError(f"loss_p must lie in [0, 1], got {loss_p}")
    if packets_per_frame < 1:
        raise ValueError(f"packets_per_frame must be >= 1, got {packets_per_frame}")
    return (1.0 - loss_p) ** packets_per_frame


@dataclass(frozen=True)
class Scenario:
    """One benchmark configuration: what the simulated link does, and the seed that fixes its draws."""

    duration_s: float = 10.0
    fps: float = 30.0
    width: int = 320
    height: int = 240
    frag_payload: int = DEFAULT_FRAG_PAYLOAD
    impairment: ImpairmentConfig = ImpairmentConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("duration_s", self.duration_s)
        check_positive("fps", self.fps)

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


def _report(frames_sent: int, latencies_us: list[int], verify_failures: int,
            stats: StreamStats, expected_ratio: float, seconds: float) -> Report:
    """One run's books; ``latencies_us`` holds one entry per delivered frame."""
    delivered = len(latencies_us)
    ordered = sorted(latencies_us) or [0]  # no frame: both latencies read 0
    rank = max(0, math.ceil(0.95 * len(ordered)) - 1)  # nearest-rank 95th percentile
    return Report(
        frames_sent=frames_sent,
        frames_delivered=delivered,
        delivery_ratio=delivered / frames_sent if frames_sent else 0.0,
        expected_ratio=expected_ratio,
        mean_latency_us=sum(ordered) / len(ordered),
        p95_latency_us=float(ordered[rank]),
        orphan_fragments=stats.orphan_fragments,
        duplicate_fragments=stats.duplicate_fragments,
        bytes_on_wire=stats.bytes_received,
        achieved_fps=delivered / seconds if seconds > 0 else 0.0,
        verify_failures=verify_failures,
    )


def run_scenario(s: Scenario, trace_out: Optional[list[int]] = None) -> Report:
    """Simulate a run on a virtual clock; deterministic given the seed.

    Each frame's packets cross the channel (``push_all``) and the reassembler
    (``step_all``) as one run; a packet arrives at the virtual time of the frame
    whose run releases it, so latency comes only from reordering. ``trace_out``,
    if given, gets the seq of every delivered frame in completion order.
    """
    imp, rx = StreamImpairer(s.impairment, s.seed), Reassembler()
    frames_sent = max(1, round(s.duration_s * s.fps))
    latencies: list[int] = []
    verify_failures = 0

    def complete(images, t_us):
        nonlocal verify_failures
        for image in images:
            latencies.append(t_us - image.timestamp_us)
            if trace_out is not None:
                trace_out.append(image.seq)
            verify_failures += not image_ok(image)

    t_us = 0
    for i in range(frames_sent):
        t_us = round(i * 1e6 / s.fps)
        img = gen_test_image(i, s.width, s.height, t_us)
        complete(rx.step_all(imp.push_all(packetize_image(img, s.frag_payload))), t_us)
    complete(rx.step_all(imp.flush()), t_us)

    return _report(frames_sent, latencies, verify_failures, rx.stats(),
                   analytic_delivery(s.impairment.loss_p, s.packets_per_frame), s.duration_s)


def loopback_pair(s: Scenario, bus: Optional[TopicBus] = None) -> tuple[RobotSim, Bridge]:
    """An emulator and bridge wired to each other on ephemeral loopback ports.

    A scenario the emulator rejects raises ``ValueError`` before any socket opens.
    """
    cfg = RobotConfig(peer_host="127.0.0.1", command_port=0, command_bind_host="127.0.0.1",
                      fps=s.fps, width=s.width, height=s.height, frag_payload=s.frag_payload)
    bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"), bus=bus)
    sim = RobotSim(replace(cfg, image_port=bridge.image_port, motion_port=bridge.motion_port))
    bridge.set_robot_address("127.0.0.1", sim.command_port)
    return sim, bridge


def run_loopback(s: Scenario) -> Report:
    """Run emulator→bridge over real UDP loopback for ``s.duration_s``.

    Wall-clock, receive-side measurement; no impairment is applied, so the
    expected ratio is 1 and ``s.impairment`` and ``s.seed`` are ignored.
    After the sender stops, ``_SETTLE_S`` of drain time lets in-flight
    frames complete before the books close.
    """
    bus = TopicBus()
    sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(256))
    sim, bridge = loopback_pair(s, bus)
    verify_failures = 0
    latencies: list[int] = []

    def drain(block_s: float) -> None:
        nonlocal verify_failures
        while (frame := sub.get(timeout=block_s)) is not None:
            latencies.append(frame.recv_timestamp_us - frame.image.timestamp_us)
            if not image_ok(frame.image):
                verify_failures += 1
            block_s = 0.0  # only the first wait blocks

    with bridge:  # stops the bridge and closes its sockets whatever happens
        with sim:
            t0 = time.monotonic()
            deadline = t0 + s.duration_s
            while time.monotonic() < deadline:
                drain(min(0.05, max(0.0, deadline - time.monotonic())))
        settle_deadline = time.monotonic() + _SETTLE_S
        while time.monotonic() < settle_deadline:
            drain(0.05)
    drain(0.0)

    elapsed = time.monotonic() - t0 - _SETTLE_S
    return _report(sim.images_sent, latencies, verify_failures, bridge.stats().image, 1.0, elapsed)

