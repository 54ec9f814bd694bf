"""Open-loop load generator for the live workloads: the robot side, in its own process.

One thread, one UDP socket. Frame ``i`` is due at ``t0 + i/fps`` and motion
reading ``j`` at ``t0 + j/motion_rate``; each message is built on the robot
side's public send path when it is due and stamped with its due time on
``time.monotonic`` (one clock for every process on Linux). A message sent
late still goes out late, so a stall shows as latency on every message
behind it, and messages still unsent at the hard stop are counted.

While the stream is idle (the bridge has long finished the last frame and
the next message is not due for a while) it runs ``env.host_probe`` about
ten times a second on its core; the parent does the same on the bridge's.

Protocol, one JSON object per line:
  stdin  <- config: image_port, motion_port, width, height, fps,
            motion_rate, seq_base, grace_s
  stdout -> {"ready": true} once the socket is open
  stdin  <- {"t0": float, "seconds": float, "trace_at": float | null,
             "spans": path | null}
  stdout -> the result (counts, lateness, host probes, span summary)
Closing stdin before the second line ends the process without sending.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from dataclasses import replace

import env

env.import_nbpk()

from nbpk import channel, fragment, robotsim, wire  # noqa: E402

import tracing  # noqa: E402


def percentiles_ms(late: array) -> list:
    """[p50, p99, samples] of lateness in ms (nearest rank)."""
    if not late:
        return [0.0, 0.0, 0]
    ordered = sorted(late)
    n = len(ordered)
    pick = lambda q: ordered[max(0, math.ceil(q * n) - 1)] * 1e3  # noqa: E731
    return [pick(0.50), pick(0.99), n]


def main() -> int:
    cfg = json.loads(sys.stdin.readline())
    ep = channel.UdpEndpoint(channel.EndpointConfig(bind_host="127.0.0.1", bind_port=0))
    image_addr = ("127.0.0.1", cfg["image_port"])
    motion_addr = ("127.0.0.1", cfg["motion_port"])
    width, height = cfg["width"], cfg["height"]
    seq_base = cfg["seq_base"]
    walk = robotsim.WalkState()
    sent = {"datagrams": 0, "bytes": 0, "send_errors": 0}

    def send(data: bytes, addr) -> None:
        try:
            ep.send_to(data, addr)
        except OSError:
            sent["send_errors"] += 1
            return
        sent["datagrams"] += 1
        sent["bytes"] += len(data)

    def send_frame(i: int, due_us: int) -> None:
        img = robotsim.gen_test_image(seq_base + i, width, height)
        img = replace(img, timestamp_us=due_us)
        for pkt in fragment.packetize_image(img, wire.DEFAULT_FRAG_PAYLOAD):
            send(pkt.to_bytes(), image_addr)

    def send_motion(j: int, due_us: int) -> None:
        reading = robotsim.gen_motion(seq_base + j, j / cfg["motion_rate"], walk)
        pkt = fragment.packetize_single(wire.encode_motion(reading), wire.StreamId.MOTION,
                                        seq=seq_base + j, timestamp_us=due_us)
        send(pkt.to_bytes(), motion_addr)

    print(json.dumps({"ready": True}), flush=True)
    line = sys.stdin.readline()
    if not line:
        ep.close()
        return 0
    go = json.loads(line)
    t0, trace_at = go["t0"], go["trace_at"]
    frame_period, motion_period = 1.0 / cfg["fps"], 1.0 / cfg["motion_rate"]
    n_frames = int(round(go["seconds"] * cfg["fps"]))
    n_motion = int(round(go["seconds"] * cfg["motion_rate"]))
    hard_stop = t0 + go["seconds"] + cfg["grace_s"]
    tracer = tracing.Tracer()
    restore = None
    late = (array("d"), array("d"))  # seconds late: before / after tracing starts
    probes = (array("d"), array("d"))  # host probe ms: before / after tracing starts
    last_frame_done = last_probe = 0.0
    i = j = 0
    while i < n_frames or j < n_motion:
        due_f = t0 + i * frame_period if i < n_frames else math.inf
        due_m = t0 + j * motion_period if j < n_motion else math.inf
        due = min(due_f, due_m)
        if restore is None and trace_at is not None and due >= trace_at:
            restore = tracing.install(tracer)
            send_frame = tracer.wrap("loadgen.send_frame", send_frame, lambda a, r: seq_base + a[0])
            send_motion = tracer.wrap("loadgen.send_motion", send_motion, lambda a, r: seq_base + a[0])
        now = time.monotonic()
        if now > hard_stop:
            break
        if (due - now > env.PROBE_SLACK_S and now - last_frame_done > env.PROBE_QUIET_S
                and now - last_probe > env.PROBE_EVERY_S):
            probes[restore is not None].append(env.host_probe())
            now = last_probe = time.monotonic()
        if due > now:
            time.sleep(due - now)
            now = time.monotonic()
        late[restore is not None].append(now - due)
        if due_f <= due_m:
            send_frame(i, int(due_f * 1e6))
            last_frame_done = time.monotonic()
            i += 1
        else:
            send_motion(j, int(due_m * 1e6))
            j += 1
    if restore is not None:
        restore()
    ep.close()
    result = {
        "frames_due": n_frames, "frames_sent": i,
        "motion_due": n_motion, "motion_sent": j,
        **sent,
        "late_ms": [percentiles_ms(late[0]), percentiles_ms(late[1])],
        "probe_ms": [list(probes[0]), list(probes[1])],
        "trace": tracing.summarize(tracer) if trace_at is not None else None,
    }
    if go.get("spans"):
        tracing.dump(tracer, go["spans"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
