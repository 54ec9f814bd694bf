#!/usr/bin/env python3
"""How images ride UDP: START + fragments, and what happens under loss.

A camera frame does not fit in one datagram, so it is announced by a
START packet (geometry, encoding, fragment size) and followed by payload
fragments. The receiver keeps exactly one frame in flight per stream:
when the next frame's START arrives before the previous frame finished,
the old frame is dropped on the spot. Freshness beats completeness. A
late START, for a frame older than the newest one seen, is stale: it
drops nothing.
"""

from nbpk.fragment import (
    Dropped,
    ImageComplete,
    Orphan,
    Reassembler,
    packetize_image,
)
from nbpk.robotsim import gen_test_image

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
    event = rx.step(pkt)
assert isinstance(event, ImageComplete)
print(f"frame {event.image.seq} complete, {len(event.image.pixels)} bytes, "
      f"pixels identical: {event.image.pixels == frame0.pixels}\n")

print("== Preemptive drop ==")
for pkt in packets1[:-1]:          # frame 1 arrives... almost
    rx.step(pkt)
frame2 = gen_test_image(2, width=32, height=24)
packets2 = list(packetize_image(frame2, frag_payload=256))
event = rx.step(packets2[0])       # frame 2's START preempts it
print(f"START of frame 2 while frame 1 is incomplete -> {event}")
assert isinstance(event, Dropped) and event.seq == 1
for pkt in packets2[1:]:
    event = rx.step(pkt)
print(f"frame 2 then completes normally: {isinstance(event, ImageComplete)}\n")

print("== A late START is stale ==")
frame3 = gen_test_image(3, width=32, height=24)
packets3 = list(packetize_image(frame3, frag_payload=256))
rx.step(packets3[0])               # frame 3 is in flight...
event = rx.step(packets1[0])       # ...when frame 1's START turns up late
print(f"START of frame 1 while frame 3 is in flight -> {event}")
assert event == Orphan(seq=1)
for pkt in packets3[1:]:
    event = rx.step(pkt)
print(f"frame 3 still completes: {isinstance(event, ImageComplete)}\n")

print("== Fragments with nowhere to go ==")
late = packets1[3]
event = rx.step(late)
print(f"stray fragment of the dropped frame -> {event}")
assert isinstance(event, Orphan)

stats = rx.stats()
print(f"\nbooks: {stats.frames_complete} complete, "
      f"{stats.frames_dropped_preempted} preempted, "
      f"{stats.frames_stale} stale, "
      f"{stats.orphan_fragments} orphans, "
      f"{stats.bytes_received} bytes seen")
