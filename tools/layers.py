#!/usr/bin/env python3
"""Where a simulated frame's time goes, stage by stage.

A QVGA frame at 1 % independent loss crosses the stages ``bench.run_scenario``
runs: ``gen_test_image``, ``packetize_image``, ``StreamImpairer.push_all``,
``Reassembler.step_all``, and ``image_ok`` on each delivered frame. A frame's
buffers are dropped before the next frame starts, as ``run_scenario`` drops them.

After a round's frames, the per-datagram passes run over the packets the impairer
released. A twin impairer (same config and seed, pushed the same frames) rebuilds
them, so that no buffer of theirs is alive in the frame loop. The passes are the
header codec (``encode_header``, then ``decode_header``, on each one's header; no
workload runs it per datagram, as ``from_bytes`` has its own test), the datagram
codec (``Packet.to_bytes`` and ``Packet.from_bytes``), ``feed`` (each datagram in
turn to a second reassembler, the bridge's receive path) and ``step`` (each packet
in turn to a third reassembler, the path ``step_all`` leaves to it).

Every round runs every stage on the same frames, so a host that drifts moves
all stages alike. Each stage is reported as its median over the rounds, with
the interquartile range: ``frame`` is the five ``run_scenario`` stages' time
per frame sent, ``image_ok`` is per delivered frame, and ``header_codec``,
``to_bytes``, ``from_bytes``, ``feed`` and ``step`` are per datagram. ``minor_faults`` is
the process's minor page faults (``ru_minflt``) in the five ``run_scenario``
stages, per frame sent. The process prints the core count, then pins itself to one core. It
imports nbpk from the ``src`` tree of the checkout it sits in, so a copy
placed in another checkout measures that checkout's code.

    python3 tools/layers.py                        # 21 rounds of 200 frames
    python3 tools/layers.py --rounds 3 --frames 20 # a smoke run

The last line printed is one JSON object with the same figures. The exit code
is 1 if a delivered frame fails ``image_ok``, the header codec or ``from_bytes``
does not give back what it took, or ``feed``, ``step`` and ``step_all`` complete
different frames.
"""

from __future__ import annotations

import argparse
import json
import os
from resource import RUSAGE_SELF, getrusage
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nbpk.channel import ImpairmentConfig, StreamImpairer  # noqa: E402
from nbpk.fragment import Reassembler, packetize_image  # noqa: E402
from nbpk.robotsim import gen_test_image, image_ok  # noqa: E402
from nbpk.wire import Packet, decode_header, encode_header  # noqa: E402

WIDTH, HEIGHT, FRAG_PAYLOAD, LOSS_P = 320, 240, 1400, 0.01
# each stage and what its time is divided by
STAGES = {
    "gen_test_image": "frame",
    "packetize_image": "frame",
    "push_all": "frame",
    "step_all": "frame",
    "image_ok": "delivered frame",
    "frame": "frame",
    "header_codec": "datagram",
    "to_bytes": "datagram",
    "from_bytes": "datagram",
    "feed": "datagram",
    "step": "datagram",
}
PASSES = ("header_codec", "to_bytes", "from_bytes", "feed", "step")  # over a round's datagrams


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def run_round(frames: range, imp: StreamImpairer, twin: StreamImpairer, rx: Reassembler,
              fed: Reassembler, stepped: Reassembler) -> dict:
    """Microseconds per unit of each stage over ``frames``, and the minor page faults
    per frame of the five ``run_scenario`` stages; a stage with no unit is left out.
    ``twin`` has ``imp``'s config and seed, and has been pushed what ``imp`` has."""
    clock = time.perf_counter_ns
    ns = dict.fromkeys(STAGES, 0)
    counts = {"frame": len(frames), "delivered frame": 0}
    faults, delivered = 0, []
    for seq in frames:
        f0 = getrusage(RUSAGE_SELF).ru_minflt
        t0 = clock()
        img = gen_test_image(seq, WIDTH, HEIGHT)
        t1 = clock()
        packets = packetize_image(img, FRAG_PAYLOAD)
        t2 = clock()
        released = imp.push_all(packets)
        t3 = clock()
        images = rx.step_all(released)
        t4 = clock()
        ok = all(image_ok(image) for image in images)
        t5 = clock()
        faults += getrusage(RUSAGE_SELF).ru_minflt - f0
        if not ok:
            sys.exit(f"layers: frame {seq}: a delivered frame failed image_ok")
        for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t5 - t0)):
            ns[stage] += dt
        counts["delivered frame"] += len(images)
        delivered += [image.seq for image in images]
        del img, packets, released, images  # before the next frame's gen_test_image allocates its own

    # The per-datagram passes, over the packets the twin releases from the same frames. Kept
    # from the loop above, these would hold the round's pixels alive in it, as run_scenario does not.
    stored = [p for seq in frames
              for p in twin.push_all(packetize_image(gen_test_image(seq, WIDTH, HEIGHT), FRAG_PAYLOAD))]
    headers = [p.header for p in stored]
    t0 = clock()
    decoded = [decode_header(encode_header(h)) for h in headers]
    t1 = clock()
    datagrams = [p.to_bytes() for p in stored]
    t2 = clock()
    parsed = [Packet.from_bytes(d) for d in datagrams]
    t3 = clock()
    fed_images = [image for d in datagrams if (image := fed.feed(d)) is not None]
    t4 = clock()
    stepped_images = [image for p in stored if (image := stepped.step(p)) is not None]
    t5 = clock()
    if (decoded != headers or parsed != stored or fed_images != stepped_images
            or [image.seq for image in stepped_images] != delivered
            or not all(map(image_ok, stepped_images))):
        sys.exit(f"layers: frames {frames.start}-{frames.stop - 1}: the header codec or from_bytes "
                 "did not give back what it took, or feed, step and step_all complete different frames")
    for stage, dt in zip(PASSES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
        ns[stage] += dt
    counts["datagram"] = len(stored)
    us = {stage: ns[stage] / 1e3 / counts[per] for stage, per in STAGES.items() if counts[per]}
    us["minor_faults"] = faults / len(frames)
    return us


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=21, help="rounds to take medians over")
    parser.add_argument("--frames", type=int, default=200, help="frames per round")
    parser.add_argument("--seed", type=int, default=3, help="the impairer's seed")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.frames < 1:
        parser.error("--rounds and --frames must be at least 1")

    print(f"cores: {os.cpu_count()}")
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    print(f"pinned to core {core}; QVGA at {LOSS_P:.0%} loss, {args.rounds} rounds of {args.frames} frames")

    imp, twin = (StreamImpairer(ImpairmentConfig(loss_p=LOSS_P), args.seed) for _ in range(2))
    rx, fed, stepped = Reassembler(), Reassembler(), Reassembler()
    run_round(range(args.frames), imp, twin, rx, fed, stepped)  # warm-up: caches, allocator
    rounds = [run_round(range(args.frames * k, args.frames * (k + 1)), imp, twin, rx, fed, stepped)
              for k in range(1, args.rounds + 1)]

    rows = {}
    for stage, per in STAGES.items():
        values = [r[stage] for r in rounds if stage in r]
        if not values:
            sys.exit(f"layers: no round had a {per} for {stage}")
        rows[stage] = {"unit": f"us per {per}", **quartiles(values), "rounds": len(values)}
        print(f"{stage:16s} {rows[stage]['median']:9.2f} us  [{rows[stage]['q1']:.2f}, "
              f"{rows[stage]['q3']:.2f}]  per {per}")
    faults = {"unit": "minor page faults per frame", **quartiles([r["minor_faults"] for r in rounds])}
    print(f"{'minor_faults':16s} {faults['median']:9.2f}     [{faults['q1']:.2f}, {faults['q3']:.2f}]  per frame")
    print(json.dumps({"cores": os.cpu_count(), "pinned_to": core, "rounds": args.rounds,
                      "frames_per_round": args.frames, "seed": args.seed, "stages": rows,
                      "minor_faults": faults}))


if __name__ == "__main__":
    main()
