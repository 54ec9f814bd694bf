#!/usr/bin/env python3
"""How images ride UDP: START + fragments, and what happens under loss.

A camera frame does not fit in one datagram, so it is announced by a
START packet (geometry, encoding, fragment size) and followed by payload
fragments. The receiver keeps exactly one frame in flight per stream:
when the next frame's START arrives before the previous frame finished,
the old frame is dropped on the spot. Freshness beats completeness. A
late START, for a frame older than the newest one seen, is stale: it
drops nothing. A step returns the frame it completes, or None; every other
outcome shows only in the reassembler's counters, printed here as the
change one packet makes to them.
"""

from dataclasses import asdict

from nbpk.fragment import Reassembler, packetize_image
from nbpk.robotsim import gen_test_image


def step_counted(rx, pkt):
    """The image ``pkt`` completes, or None, and the counters it moved (all but bytes)."""
    before = asdict(rx.stats())
    image = rx.step(pkt)
    after = asdict(rx.stats())
    return image, {name: after[name] - n for name, n in before.items()
                   if after[name] != n and name != "bytes_received"}


frame0 = gen_test_image(0, width=32, height=24)
frame1 = gen_test_image(1, width=32, height=24)

packets0 = list(packetize_image(frame0, frag_payload=256))
packets1 = list(packetize_image(frame1, frag_payload=256))
print(f"32x24 YUV422 = {len(frame0.pixels)} bytes -> "
      f"{len(packets0)} packets (1 START + {len(packets0) - 1} fragments)")
for pkt in packets0[:3]:
    print(f"  kind={pkt.kind.name:<8} frag {pkt.frag_index}/{pkt.frag_count} "
          f"payload {pkt.payload_len} B")
print("  ...")

# The default 320x240 frame is the same story at scale:
big = list(packetize_image(gen_test_image(0), frag_payload=1400))
print(f"320x240 -> {len(big)} packets; losing any one of them loses the frame\n")

rx = Reassembler()

print("== Happy path ==")
for pkt in packets0:
    image = rx.step(pkt)
assert image == frame0
print(f"frame {image.seq} complete, {len(image.pixels)} bytes, "
      f"pixels identical: {image.pixels == frame0.pixels}\n")

print("== Preemptive drop ==")
for pkt in packets1[:-1]:          # frame 1 arrives... almost
    rx.step(pkt)
frame2 = gen_test_image(2, width=32, height=24)
packets2 = list(packetize_image(frame2, frag_payload=256))
image, moved = step_counted(rx, packets2[0])  # frame 2's START preempts it
print(f"START of frame 2 while frame 1 is incomplete -> {moved}")
assert image is None and moved == {"frames_dropped_preempted": 1}
for pkt in packets2[1:]:
    image = rx.step(pkt)
print(f"frame 2 then completes normally: {image == frame2}\n")
assert image == frame2

print("== A late START is stale ==")
frame3 = gen_test_image(3, width=32, height=24)
packets3 = list(packetize_image(frame3, frag_payload=256))
rx.step(packets3[0])               # frame 3 is in flight...
image, moved = step_counted(rx, packets1[0])  # ...when frame 1's START turns up late
print(f"START of frame 1 while frame 3 is in flight -> {moved}")
assert image is None and moved == {"frames_stale": 1}
for pkt in packets3[1:]:
    image = rx.step(pkt)
print(f"frame 3 still completes: {image == frame3}\n")
assert image == frame3

print("== Fragments with nowhere to go ==")
image, moved = step_counted(rx, packets1[3])
print(f"stray fragment of the dropped frame -> {moved}")
assert image is None and moved == {"orphan_fragments": 1}

stats = rx.stats()
print(f"\nbooks: {stats.frames_complete} complete, "
      f"{stats.frames_dropped_preempted} preempted, "
      f"{stats.frames_stale} stale, "
      f"{stats.orphan_fragments} orphans, "
      f"{stats.bytes_received} bytes seen")
