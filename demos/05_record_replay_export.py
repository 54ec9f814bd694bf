#!/usr/bin/env python3
"""Datasets: log the bus to disk, play it back, turn frames into images.

The log format is append-only and self-delimiting, so a file cut off
mid-write (crash, full disk, yanked power) is still readable up to the
last complete record. Replay re-publishes onto any bus at original
speed, faster, or flat out.
"""

import math
import tempfile
import time
from pathlib import Path

from nbpk.bridge import TOPIC_IMAGE, BoundedFifo, CameraFrame, TopicBus
from nbpk.recorder import (
    Truncated,
    export_ppm,
    image_from_record_payload,
    read_log,
    record_messages,
    replay,
)
from nbpk.robotsim import gen_test_image

workdir = Path(tempfile.mkdtemp(prefix="nbpk-demo-"))
log_path = workdir / "session.nbl"

frames = []
for i in range(30):
    img = gen_test_image(i, width=64, height=48)
    frames.append(CameraFrame(image=type(img)(width=img.width, height=img.height,
                                              pixels=img.pixels, seq=i, timestamp_us=i * 66_666),
                              recv_timestamp_us=i * 66_666))

n = record_messages(frames, log_path)
size = log_path.stat().st_size
print(f"recorded {n} frames -> {log_path} ({size} bytes)")

print("\n== Replay at 4x ==")
bus = TopicBus()
sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(64))
t0 = time.monotonic()
replay(log_path, bus, speed=4.0)
wall = time.monotonic() - t0
span = (frames[-1].image.timestamp_us - frames[0].image.timestamp_us) / 1e6
print(f"{span:.2f} s of log replayed in {wall:.2f} s wall time")
print(f"first/last seq on the bus: "
      f"{sub.drain()[0].image.seq} ... {n - 1} (renumbered from zero)")

print("\n== Survive a torn write ==")
cut_path = workdir / "torn.nbl"
cut_path.write_bytes(log_path.read_bytes()[:-100])   # lose the tail mid-record
entries = list(read_log(cut_path))
complete = [e for e in entries if not isinstance(e, Truncated)]
print(f"cut file: {len(complete)} complete records, "
      f"then {entries[-1]} — nothing before it was lost")
bus2 = TopicBus()
bus2.subscribe(TOPIC_IMAGE, BoundedFifo(64))
print(f"replay of the cut file publishes {replay(cut_path, bus2, speed=math.inf)} frames")

print("\n== Export to PPM ==")
written = []
for i, entry in enumerate(read_log(log_path)):
    if i >= 3 or isinstance(entry, Truncated):
        break
    img = image_from_record_payload(entry.payload, seq=i, timestamp_us=entry.timestamp_us)
    out = workdir / f"frame_{i:03d}.ppm"
    export_ppm(img, out)
    written.append(out)
print(f"wrote {len(written)} files, e.g. {written[0].name} "
      f"({written[0].stat().st_size} bytes: 'P6' header + 64*48 RGB)")
print(f"\neverything under {workdir}")
