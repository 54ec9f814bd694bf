"""The benchmark's workloads. Each drives nbpk only through its public API.

A workload has ``setup()``, ``measure(seconds, trace)`` and ``close()``.
``measure`` returns an :class:`Outcome`. With ``trace`` on, the first half
of the run is measured untraced and the second half traced, so one run
gives both the per-layer numbers and the tracing overhead; the end-to-end
figures always come from the untraced part.
"""

from __future__ import annotations

import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from nbpk import bench, bridge, channel, recorder, robotsim, wire

import env
import tracing

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    """What one measured run found. ``e2e`` holds the end-to-end values;
    traced runs add ``summary`` (see :func:`tracing.summarize`) and
    ``layer``, the per-layer values that do not come from span times."""

    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)


def rank(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def seq_base(seed: int) -> int:
    """First seq of a run: seeds give different frames and stay far from u32 wrap."""
    return (seed * 7919) % (1 << 24)


def probe_line(cpu_ms: float, probes) -> str:
    probe = statistics.median(probes)
    return (f"frame_latency_probes   {cpu_ms / probe:10.4f} probes  (frame_cpu_p50_ms / "
            f"host probe median {probe:.4f} CPU ms, n={len(probes)})")


def pin_to_one_core() -> None:
    """Keep a single-threaded workload on one core, the same one every run."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def overhead_pct(untraced: float, traced: float) -> float:
    """Tracing overhead from probe-normalized latencies of the two halves."""
    return (traced - untraced) / untraced * 100.0 if untraced else 0.0


def span_stats(summary: dict, name: str) -> tuple[int, float, float]:
    """``(count, total ns, self ns)`` of a span name in a trace summary."""
    return tuple(summary["spans"].get(name, (0, 0.0, 0.0)))


def reassembly_layer(summary: dict, datagrams_per_frame: int) -> dict:
    """fragment.* counts from the result types ``Reassembler.step`` returned."""
    results = summary["results"]
    image_steps = span_stats(summary, "fragment.Reassembler.step")[0] - results.get("SingleDelivered", 0)
    complete = results.get("ImageComplete", 0)
    return {
        "fragment.orphans": results.get("Orphan", 0),
        "fragment.duplicates": results.get("Duplicate", 0),
        "fragment.frames_preempted": results.get("Dropped", 0),
        "fragment.useful_datagram_ratio": complete * datagrams_per_frame / image_steps if image_steps else 0.0,
    }


# --- live: real UDP loopback ---------------------------------------------------

class Live:
    """Open-loop load from a child process (``loadgen.py``) into a stock
    :class:`nbpk.bridge.Bridge`; one consumer thread per topic dequeues and
    timestamps every message."""

    MOTION_RATE = 100.0
    # The gated latency is this quantile over frames. Other tenants stall
    # the cores for milliseconds at a time, and a 5 ms frame path catches
    # enough of those stalls to move the median: with a process spinning
    # 3 ms in every 10 ms on the bridge's core, p50 in probes rose 52 % and
    # p10 14 %. The fastest tenth of frames still pays every serial step of
    # the path.
    GATED_QUANTILE = 0.10
    GRACE_S = 2.0  # how long the generator may run late before it gives up
    SETTLE_S = 0.3  # drain time for frames in flight when the generator ends

    def __init__(self, name: str, width: int, height: int, fps: float, seed: int):
        self.name, self.width, self.height, self.fps = name, width, height, fps
        self.seed = seed
        self.base = seq_base(seed)
        self.datagrams_per_frame = bench.packets_per_frame(width, height)
        self.input_gen_s = 0.0
        self.child = None
        self.bridge = None
        self.consumers: list[threading.Thread] = []
        self.stop = threading.Event()
        self.frames: list[tuple] = []   # (dequeue s, seq, due us, recv us, verified)
        self.motions: list[tuple] = []  # (dequeue s, seq, due us)
        self.probes: list[tuple] = []   # (monotonic s, ms) host probes on the bridge's core
        self.t0 = math.inf

    def describe(self) -> str:
        return (f"{self.width}x{self.height} YUV422 @ {self.fps:g} fps "
                f"({self.datagrams_per_frame} datagrams/frame) + {self.MOTION_RATE:g} Hz motion, "
                "real UDP loopback, open loop from one generator process")

    def setup(self) -> None:
        # Robot and bridge are separate machines in the real system: give the
        # generator one core and the bridge side (this thread and every
        # thread it starts) another, so the scheduler cannot put them on one.
        self.cpus = os.sched_getaffinity(0)
        cores = sorted(self.cpus)
        if len(cores) > 1:
            os.sched_setaffinity(0, {cores[-1]})
        self.bus = bridge.TopicBus()
        self.image_sub = self.bus.subscribe(bridge.TOPIC_IMAGE, bridge.BoundedFifo(256))
        self.motion_sub = self.bus.subscribe(bridge.TOPIC_MOTION, bridge.BoundedFifo(1024))
        self.bridge = bridge.Bridge(bridge.BridgeConfig(
            image_port=0, motion_port=0, bind_host="127.0.0.1"), bus=self.bus)
        self.bridge.start()
        self.consumers = [threading.Thread(target=self._consume_images, name="perfbench-images"),
                          threading.Thread(target=self._consume_motion, name="perfbench-motion")]
        for t in self.consumers:
            t.start()
        self.child = subprocess.Popen([sys.executable, str(HERE / "loadgen.py")], cwd=str(env.ROOT),
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if len(cores) > 1:
            os.sched_setaffinity(self.child.pid, {cores[0]})
        self.replies: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read_child, name="perfbench-loadgen-reader")
        self.reader.start()
        self._tell({"image_port": self.bridge.image_port, "motion_port": self.bridge.motion_port,
                    "width": self.width, "height": self.height, "fps": self.fps,
                    "motion_rate": self.MOTION_RATE, "seq_base": self.base, "grace_s": self.GRACE_S})
        self._hear(timeout=120)

    def _read_child(self) -> None:
        for line in self.child.stdout:
            self.replies.put(line)
        self.replies.put(None)

    def _tell(self, message: dict) -> None:
        self.child.stdin.write(json.dumps(message) + "\n")
        self.child.stdin.flush()

    def _hear(self, timeout: float) -> dict:
        try:
            line = self.replies.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"load generator sent nothing within {timeout:.0f} s") from None
        if line is None:
            raise RuntimeError(f"load generator exited early (code {self.child.wait()})")
        return json.loads(line)

    def _consume_images(self) -> None:
        sub, out = self.image_sub, self.frames
        while True:
            frame = sub.get(timeout=0.05)
            if frame is None:
                if self.stop.is_set():
                    return
                continue
            t = time.monotonic()
            img = frame.image
            out.append((t, img.seq, img.timestamp_us, frame.recv_timestamp_us, robotsim.image_ok(img)))

    def _consume_motion(self) -> None:
        sub, out = self.motion_sub, self.motions
        period = 1.0 / self.fps
        last_probe = 0.0
        while True:
            reading = sub.get(timeout=0.05)
            if reading is None:
                if self.stop.is_set():
                    return
                continue
            now = time.monotonic()
            out.append((now, reading.seq, reading.timestamp_us))
            # Probe the bridge's core between frames, right after a motion
            # reading: the next one is 10 ms away.
            since_frame = (now - self.t0) % period if now > self.t0 else 0.0
            if (env.PROBE_QUIET_S < since_frame < period - env.PROBE_SLACK_S
                    and now - last_probe > env.PROBE_EVERY_S):
                self.probes.append((now, env.host_probe()))
                last_probe = time.monotonic()

    def measure(self, seconds: float, trace: bool) -> Outcome:
        t0 = self.t0 = time.monotonic() + 0.05
        trace_at = t0 + seconds / 2 if trace else None
        child_spans = env.WORK / f"spans-{self.name}-loadgen.npz"
        self._tell({"t0": t0, "trace_at": trace_at, "seconds": seconds,
                    "spans": str(child_spans) if trace else None})
        tracer, restore = tracing.Tracer(), None
        try:
            if trace:
                time.sleep(max(0.0, trace_at - time.monotonic()))
                restore = tracing.install(tracer)
            sent = self._hear(timeout=seconds + self.GRACE_S + 60)
            t_end = time.monotonic()
            time.sleep(self.SETTLE_S)
        finally:
            stats = self.bridge.stats()
            self.close()
            if restore is not None:
                restore()
        if trace:
            tracing.dump(tracer, env.WORK / f"spans-{self.name}.npz")
        return self._outcome(t0, trace_at, t_end, sent, stats, tracer)

    def close(self) -> None:
        self.stop.set()
        for t in self.consumers:
            t.join(timeout=5)
        if self.child is not None:
            if self.child.poll() is None:
                try:
                    self.child.stdin.close()
                except OSError:
                    pass
                try:
                    self.child.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.child.kill()
                    self.child.wait()
            self.reader.join(timeout=5)
            self.child.stdout.close()
            self.child = None
        if self.bridge is not None:
            self.bridge.stop()
            self.bridge = None
            os.sched_setaffinity(0, self.cpus)

    def _due_us(self, index: int, t0: float, rate: float) -> int:
        # Same expression as the generator, so stamps compare exactly.
        return int((t0 + index * (1.0 / rate)) * 1e6)

    def _outcome(self, t0, trace_at, t_end, sent, stats, tracer) -> Outcome:
        problems = []
        n_frames, n_motion = sent["frames_due"], sent["motion_due"]
        split = trace_at if trace_at is not None else math.inf
        last = -1
        good_frames = []
        for t, seq, due_us, recv_us, ok in self.frames:
            i = seq - self.base
            if not ok:
                problems.append(f"frame seq {seq} failed verify_test_image")
            elif not 0 <= i < n_frames or due_us != self._due_us(i, t0, self.fps):
                problems.append(f"frame seq {seq} carries timestamp {due_us}, not its due time")
            elif seq <= last:
                problems.append(f"frame seq {seq} dequeued after seq {last}")
            else:
                good_frames.append((t, seq, due_us, recv_us))
            last = max(last, seq)
        last = -1
        good_motion = []
        for t, seq, due_us in self.motions:
            j = seq - self.base
            if seq <= last:
                problems.append(f"motion seq {seq} dequeued after seq {last}")
            elif not 0 <= j < n_motion or due_us != self._due_us(j, t0, self.MOTION_RATE):
                problems.append(f"motion seq {seq} carries timestamp {due_us}, not its due time")
            else:
                good_motion.append((t, seq, due_us))
            last = max(last, seq)
        del problems[20:]

        def part(traced: bool):
            due_frames = sum(1 for i in range(n_frames)
                             if (self._due_us(i, t0, self.fps) / 1e6 >= split) == traced)
            frames = [f for f in good_frames if (f[2] / 1e6 >= split) == traced]
            motion = [m for m in good_motion if (m[2] / 1e6 >= split) == traced]
            return {
                "frames_due": due_frames,
                "frames": len(frames),
                "latency": [(t - due / 1e6) * 1e3 for t, _, due, _ in frames],
                "transit": [(recv - due) / 1e3 for _, _, due, recv in frames],
                "wait": [t * 1e3 - recv / 1e3 for t, _, _, recv in frames],
                "motion": [(t - due / 1e6) * 1e3 for t, _, due in motion],
            }

        base = part(False)
        probes = (sent["probe_ms"][0], [ms for t, ms in self.probes if t < split])
        attempted = n_frames + n_motion
        failed = (n_frames - len(good_frames)) + (n_motion - len(good_motion))
        out = Outcome(attempted=attempted, failed=failed, problems=problems)
        if not base["latency"] or not all(probes):
            out.problems.append("no verified frame was dequeued" if all(probes) else "a host probe never ran")
            return out
        ratio = base["frames"] / base["frames_due"]
        # The path runs on both cores, so host speed is the mean of the two.
        latency = rank(base["latency"], self.GATED_QUANTILE)
        probe = (statistics.median(probes[0]) + statistics.median(probes[1])) / 2
        out.e2e = {"frame_latency_probes": latency / probe, "frame_delivery_ratio": ratio}
        received_bytes = stats.image.bytes_received + stats.motion.bytes_received
        drops = self.image_sub.drops + self.motion_sub.drops
        late = sent["late_ms"][0]
        out.lines += [
            f"frame_latency_p50_ms   {statistics.median(base['latency']):10.4f} ms  "
            f"(p10 {latency:.4f} ms, p95 {rank(base['latency'], 0.95):.4f} ms, n={len(base['latency'])})",
            f"frame_latency_probes   {latency / probe:10.4f} probes  (frame latency p10 / mean "
            f"of host probe medians {statistics.median(probes[0]):.4f} ms on the generator's core "
            f"(n={len(probes[0])}) and {statistics.median(probes[1]):.4f} ms on the bridge's (n={len(probes[1])}))",
            f"frame_delivery_ratio   {ratio:10.4f} ratio  "
            f"({base['frames']} verified frames dequeued of {base['frames_due']} due)",
            f"motion_latency_p50_ms  {statistics.median(base['motion']) if base['motion'] else 0.0:10.4f} ms  "
            f"(p99 {rank(base['motion'], 0.99):.4f} ms, n={len(base['motion'])})",
            f"accounting: frames due {n_frames}, sent {sent['frames_sent']}, due but unsent "
            f"{n_frames - sent['frames_sent']}, delivered+verified {len(good_frames)}; "
            f"motion due {n_motion}, sent {sent['motion_sent']}, delivered {len(good_motion)}",
            f"accounting: datagrams sent {sent['datagrams']} ({sent['bytes']} B, send errors "
            f"{sent['send_errors']}); bytes reassembled by the bridge {received_bytes}; "
            f"subscriber drops {drops}; malformed packets {stats.malformed_packets}; "
            f"stale {stats.frames_stale}",
            f"generator lateness p50 {late[0]:.4f} ms, p99 {late[1]:.4f} ms (n={late[2]})",
        ]
        if trace_at is None:
            return out
        traced = part(True)
        summary = tracing.merge(tracing.summarize(tracer), sent["trace"])
        t_lat = rank(traced["latency"], self.GATED_QUANTILE)
        t_probes = (sent["probe_ms"][1] or probes[0], [ms for t, ms in self.probes if t >= split] or probes[1])
        t_probe = (statistics.median(t_probes[0]) + statistics.median(t_probes[1])) / 2
        out.layer = {
            **reassembly_layer(summary, self.datagrams_per_frame),
            "channel.datagrams_sent": span_stats(summary, "channel.UdpEndpoint.send_to")[0],
            "channel.datagrams_received": span_stats(summary, "fragment.Packet.from_bytes")[0],
            "channel.generator_late_p50_ms": sent["late_ms"][1][0],
            "channel.generator_late_p99_ms": sent["late_ms"][1][1],
            "channel.frames_due_unsent": n_frames - sent["frames_sent"],
            "bridge.transit_ms": statistics.median(traced["transit"]) if traced["transit"] else 0.0,
            "bridge.queue_wait_ms": statistics.median(traced["wait"]) if traced["wait"] else 0.0,
            "bridge.image_busy_frac": summary["busy_ns"].get("nbpk-bridge-image", 0.0) / 1e9
                                      / max(1e-9, t_end - trace_at),
            "bridge.malformed_packets": stats.malformed_packets,
            "bridge.frames_stale": stats.frames_stale,
            "bridge.subscriber_drops": drops,
            "trace.overhead_pct": overhead_pct(latency / probe, t_lat / t_probe),
        }
        out.summary = summary
        out.lines.append(
            f"traced half: frame latency p10 {t_lat:.4f} ms (p95 {rank(traced['latency'], 0.95):.4f}, "
            f"n={len(traced['latency'])}), motion p50 "
            f"{statistics.median(traced['motion']) if traced['motion'] else 0.0:.4f} ms")
        return out


# --- sim-loss1: the virtual-clock delivery bench -------------------------------

class Sim:
    """``bench.run_scenario`` at 320x240 / 30 fps with 1 % independent loss,
    one simulated second (30 frames) per call, a fresh impairment seed per
    call derived from the workload seed. The gated time is the thread's CPU
    time per frame: this single thread never waits, so on an idle core it is
    the frame's latency, and it leaves out time other tenants held the core."""

    LOSS_P = 0.01
    FPS = 30.0
    Z = 5.0  # binomial gate: delivered frames within Z standard deviations

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.input_gen_s = 0.0

    def describe(self) -> str:
        return (f"bench.run_scenario, 320x240 @ {self.FPS:g} fps on the virtual clock, "
                f"{self.LOSS_P:.0%} independent loss, 1 s of stream per call")

    def setup(self) -> None:
        pin_to_one_core()
        self.impairment = channel.ImpairmentConfig(loss_p=self.LOSS_P)

    def scenario(self, k: int):
        return bench.Scenario(duration_s=1.0, fps=self.FPS, width=320, height=240,
                              impairment=self.impairment,
                              seed=((self.seed & 0xFFFFFFFF) << 32) | k)

    def close(self) -> None:
        pass

    def measure(self, seconds: float, trace: bool) -> Outcome:
        tracer, restore = tracing.Tracer(), None
        parts = [{"per_frame_ms": [], "per_frame_wall_ms": [], "frames": 0, "delivered": 0,
                  "wall": 0.0, "probes": []} for _ in range(2)]
        verify_failures = 0
        first_trace = None
        start = time.perf_counter()
        end, trace_at = start + seconds, start + seconds / 2
        k = 0
        try:
            while k == 0 or time.perf_counter() < end:
                if trace and restore is None and time.perf_counter() >= trace_at:
                    restore = tracing.install(tracer)
                delivered_seqs: list[int] = []
                scenario = self.scenario(k)
                t_a, c_a = time.perf_counter(), time.thread_time()
                report = bench.run_scenario(scenario, trace_out=delivered_seqs)
                t_b, c_b = time.perf_counter(), time.thread_time()
                part = parts[restore is not None]
                part["per_frame_ms"].append((c_b - c_a) * 1e3 / report.frames_sent)
                part["per_frame_wall_ms"].append((t_b - t_a) * 1e3 / report.frames_sent)
                part["frames"] += report.frames_sent
                part["delivered"] += report.frames_delivered
                part["wall"] += t_b - t_a
                part["probes"].append(env.host_probe(time.thread_time))
                verify_failures += report.verify_failures
                if k == 0:
                    first_trace = delivered_seqs
                k += 1
        finally:
            if restore is not None:
                restore()
        if trace:
            tracing.dump(tracer, env.WORK / f"spans-{self.name}.npz")

        problems = []
        if verify_failures:
            problems.append(f"{verify_failures} delivered frames failed verification")
        again: list[int] = []
        bench.run_scenario(self.scenario(0), trace_out=again)
        if again != first_trace:
            problems.append("repeating the first scenario's seed gave a different delivered-seq trace")
        n = parts[0]["frames"] + parts[1]["frames"]
        delivered = parts[0]["delivered"] + parts[1]["delivered"]
        q = bench.analytic_delivery(self.LOSS_P, self.scenario(0).packets_per_frame)
        sd = math.sqrt(n * q * (1 - q))
        if abs(delivered - n * q) > self.Z * sd:
            problems.append(f"{delivered} of {n} frames delivered, outside {n * q:.1f} +- {self.Z:g} sd ({sd:.1f})")

        base = parts[0]
        out = Outcome(attempted=n, failed=verify_failures, problems=problems)
        cpu_ms = statistics.median(base["per_frame_ms"])
        out.e2e = {"frame_latency_probes": cpu_ms / statistics.median(base["probes"]),
                   "frame_delivery_ratio": base["delivered"] / base["frames"]}
        out.lines += [
            f"frame_latency_p50_ms   {statistics.median(base['per_frame_wall_ms']):10.4f} ms  (wall time "
            f"per simulated frame, median of {len(base['per_frame_ms'])} calls of {self.FPS:g} frames)",
            f"frame_cpu_p50_ms       {cpu_ms:10.4f} ms  (CPU time per simulated frame, same calls)",
            probe_line(cpu_ms, base["probes"]),
            f"frame_delivery_ratio   {out.e2e['frame_delivery_ratio']:10.4f} ratio  "
            f"({base['delivered']} delivered of {base['frames']}; (1-p)^111 = {q:.4f})",
            f"sim_frames_per_s       {base['frames'] / base['wall']:10.2f} frames/s",
            f"accounting: frames simulated {n}, delivered {delivered} (gate: within {n * q:.1f} "
            f"+- {self.Z * sd:.1f}), verify failures {verify_failures}, seed repeat "
            f"{'identical' if again == first_trace else 'DIFFERENT'}",
        ]
        if not trace:
            return out
        summary = tracing.summarize(tracer)
        traced = parts[1]
        t_lat = statistics.median(traced["per_frame_ms"]) if traced["per_frame_ms"] else 0.0
        frames = max(1, traced["frames"])
        _, total, own = span_stats(summary, "bench.run_scenario")
        out.layer = {
            **reassembly_layer(summary, self.scenario(0).packets_per_frame),
            "channel.datagrams_sent": span_stats(summary, "channel.StreamImpairer.push")[0],
            "channel.datagrams_received": span_stats(summary, "fragment.Reassembler.step")[0],
            "bench.run_scenario_ms": total / frames / 1e6,
            "bench.run_scenario_self_ms": own / frames / 1e6,
            "trace.overhead_pct": overhead_pct(out.e2e["frame_latency_probes"],
                                               t_lat / statistics.median(traced["probes"] or base["probes"])),
        }
        out.summary = summary
        out.lines.append(f"traced half: frame_cpu_p50_ms {t_lat:.4f} over {len(traced['per_frame_ms'])} calls")
        return out


# --- log-roundtrip: record, replay, export --------------------------------------

class LogRoundTrip:
    """Sessions of one logged second: 30 frames of 320x240 interleaved with
    100 motion readings are written with ``LogWriter.write_message``,
    replayed at ``speed=inf`` onto a fresh ``TopicBus`` and drained, and
    every 10th replayed frame is exported with ``export_ppm``. As in
    :class:`Sim`, the gated time is the thread's CPU time per frame; the
    stage rates are wall-clock."""

    FPS, MOTION_RATE, EXPORT_EVERY = 30, 100, 10

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.input_gen_s = 0.0

    def describe(self) -> str:
        return (f"sessions of {self.FPS} frames 320x240 + {self.MOTION_RATE} motion readings: "
                f"LogWriter -> replay(speed=inf) onto a TopicBus -> export_ppm of every "
                f"{self.EXPORT_EVERY}th frame")

    def setup(self) -> None:
        pin_to_one_core()
        self.log_path = env.WORK / f"{self.name}.nbl"
        self.ppm_path = env.WORK / f"{self.name}.ppm"
        t = time.perf_counter()
        base = seq_base(self.seed)
        walk = robotsim.WalkState()
        frames = [replace(robotsim.gen_test_image(base + i), timestamp_us=round(i * 1e6 / self.FPS))
                  for i in range(self.FPS)]
        motion = [robotsim.gen_motion(base + j, j / self.MOTION_RATE, walk)
                  for j in range(self.MOTION_RATE)]
        self.messages = sorted(frames + motion, key=lambda m: (m.timestamp_us, isinstance(m, wire.MotionReading)))
        self.frames, self.motion = frames, motion
        self.input_gen_s = time.perf_counter() - t

    def close(self) -> None:
        pass

    def session(self, problems: list) -> dict:
        bus = bridge.TopicBus()
        image_sub = bus.subscribe(bridge.TOPIC_IMAGE, bridge.BoundedFifo(len(self.frames) + 1))
        motion_sub = bus.subscribe(bridge.TOPIC_MOTION, bridge.BoundedFifo(len(self.motion) + 1))
        c0, t0 = time.thread_time(), time.perf_counter()
        with recorder.LogWriter(self.log_path, epoch_us=0) as writer:
            for message in self.messages:
                writer.write_message(message)
        t1 = time.perf_counter()
        replayed = recorder.replay(self.log_path, bus, speed=math.inf)
        frames, motion = image_sub.drain(), motion_sub.drain()
        t2 = time.perf_counter()
        exported = frames[::self.EXPORT_EVERY]
        for frame in exported:
            recorder.export_ppm(frame.image, self.ppm_path)
        t3, c3 = time.perf_counter(), time.thread_time()

        written = len(self.messages)
        identical = sum(1 for got, sent in zip(frames, self.frames)
                        if got.image.pixels == sent.pixels and got.image.timestamp_us == sent.timestamp_us)
        motion_ok = sum(1 for got, sent in zip(motion, self.motion) if got.timestamp_us == sent.timestamp_us)
        if replayed != written:
            problems.append(f"replay published {replayed} records, {written} were written")
        if identical != len(self.frames) or len(frames) != len(self.frames):
            problems.append(f"{identical} of {len(self.frames)} replayed frames byte-identical "
                            f"({len(frames)} replayed)")
        if motion_ok != len(self.motion) or len(motion) != len(self.motion):
            problems.append(f"{motion_ok} of {len(self.motion)} motion records round-tripped")
        ppm_size = len(b"P6\n320 240\n255\n") + 320 * 240 * 3
        if self.ppm_path.stat().st_size != ppm_size:
            problems.append(f"exported PPM has {self.ppm_path.stat().st_size} bytes, expected {ppm_size}")
        nbytes = self.log_path.stat().st_size
        return {
            "frame_ms": (c3 - c0) * 1e3 / len(self.frames),
            "frame_wall_ms": (t3 - t0) * 1e3 / len(self.frames),
            "write_mb_s": nbytes / 1e6 / (t1 - t0),
            "replay_rec_s": replayed / (t2 - t1),
            "export_fps": len(exported) / (t3 - t2),
            "records": written,
            "lost": (written - min(replayed, written)) + (len(self.frames) - identical)
                    + (len(self.motion) - motion_ok),
            "exports": len(exported),
            "frames": len(self.frames),
            "identical": identical,
        }

    def measure(self, seconds: float, trace: bool) -> Outcome:
        tracer, restore = tracing.Tracer(), None
        sessions: list[list[dict]] = [[], []]
        problems: list[str] = []
        start = time.perf_counter()
        end, trace_at = start + seconds, start + seconds / 2
        try:
            while not sessions[0] or time.perf_counter() < end:
                if trace and restore is None and time.perf_counter() >= trace_at:
                    restore = tracing.install(tracer)
                result = self.session(problems)
                result["probe"] = env.host_probe(time.thread_time)
                sessions[restore is not None].append(result)
        finally:
            if restore is not None:
                restore()
        if trace:
            tracing.dump(tracer, env.WORK / f"spans-{self.name}.npz")
        everything = sessions[0] + sessions[1]
        records = sum(s["records"] for s in everything)
        exports = sum(s["exports"] for s in everything)
        out = Outcome(attempted=records + exports, failed=sum(s["lost"] for s in everything),
                      problems=problems[:20])
        base = sessions[0]
        med = lambda key, runs=base: statistics.median(s[key] for s in runs)  # noqa: E731
        out.e2e = {"frame_latency_probes": med("frame_ms") / med("probe"),
                   "frame_delivery_ratio": sum(s["identical"] for s in base) / sum(s["frames"] for s in base)}
        out.lines += [
            f"frame_latency_p50_ms   {med('frame_wall_ms'):10.4f} ms  (round-trip wall time per frame, "
            f"median of {len(base)} sessions)",
            f"frame_cpu_p50_ms       {med('frame_ms'):10.4f} ms  (round-trip CPU time per frame, same sessions)",
            probe_line(med("frame_ms"), [s["probe"] for s in base]),
            f"frame_delivery_ratio   {out.e2e['frame_delivery_ratio']:10.4f} ratio  "
            f"(replayed byte-identical frames / frames written)",
            f"log_write_mb_per_s     {med('write_mb_s'):10.2f} MB/s",
            f"replay_records_per_s   {med('replay_rec_s'):10.1f} records/s",
            f"export_frames_per_s    {med('export_fps'):10.2f} frames/s",
            f"accounting: records written {records}, exports {exports}, "
            f"records lost or changed {out.failed}",
        ]
        if not trace:
            return out
        summary = tracing.summarize(tracer)
        traced = sessions[1]
        t_lat = med("frame_ms", traced) if traced else 0.0
        count, _, own = span_stats(summary, "recorder.export_ppm")
        out.layer = {
            "recorder.export_self_ms": own / count / 1e6 if count else 0.0,
            "trace.overhead_pct": overhead_pct(out.e2e["frame_latency_probes"],
                                               t_lat / med("probe", traced or base)),
        }
        out.summary = summary
        out.lines.append(f"traced half: frame_cpu_p50_ms {t_lat:.4f} over {len(traced)} sessions")
        return out


def make(name: str, seed: int):
    if name == "live-qvga30":
        return Live(name, 320, 240, 30.0, seed)
    if name == "sim-loss1":
        return Sim(name, seed)
    if name == "log-roundtrip":
        return LogRoundTrip(name, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("live-qvga30", "sim-loss1", "log-roundtrip")
