#!/usr/bin/env python3
"""Run the whole pipe for a few seconds: emulator -> UDP -> bridge -> bus.

The robot emulator streams camera frames and 100 Hz motion readings over
real UDP sockets; the bridge reassembles and publishes them on in-process
topics. Halfway through we publish a walk command and watch the echoed
velocity ramp up, then stop commanding and watch the deadman bring it
back to zero.
"""

import time

from nbpk.bench import Scenario, loopback_pair
from nbpk.bridge import TOPIC_COMMAND, TOPIC_IMAGE, TOPIC_MOTION, BoundedFifo, TopicBus
from nbpk.robotsim import image_ok
from nbpk.wire import MotionRequest

bus = TopicBus()
camera = bus.subscribe(TOPIC_IMAGE, BoundedFifo(64))
motion = bus.subscribe(TOPIC_MOTION, BoundedFifo(1))

sim, bridge = loopback_pair(Scenario(fps=15.0, width=160, height=120), bus)
print(f"bridge listening on image:{bridge.image_port} motion:{bridge.motion_port}; "
      f"robot commands on :{sim.command_port}")

bridge.start()
sim.start()
try:
    frames = 0
    bad = 0
    walk_sent = False
    t0 = time.monotonic()
    while time.monotonic() - t0 < 4.0:
        f = camera.get(timeout=0.2)
        if f is not None:
            frames += 1
            if not image_ok(f.image):
                bad += 1
            if frames % 15 == 0:
                age_ms = (f.recv_timestamp_us - f.image.timestamp_us) / 1000
                reading = motion.get(timeout=0)
                vel = reading.velocity if reading else ("-", "-", "-")
                print(f"  t={time.monotonic() - t0:4.1f}s frame #{f.image.seq:<3d} "
                      f"age {age_ms:5.1f} ms  robot velocity {vel}")
        if not walk_sent and time.monotonic() - t0 > 1.5:
            print("  -> commanding walk vx=0.6")
            bus.publish(TOPIC_COMMAND, MotionRequest.walk(0.6))
            walk_sent = True
        # one command, then silence: the 500 ms deadman takes over
finally:
    sim.stop()
    time.sleep(0.2)
    bridge.stop()

stats = bridge.stats()
print(f"\n{frames} frames on the bus ({bad} failed verification), "
      f"robot sent {sim.images_sent} images / {sim.motions_sent} readings")
print(f"bridge: {stats.frames_published} frames published, "
      f"{stats.commands_forwarded} commands forwarded, "
      f"{stats.malformed_packets} malformed packets")
final = sim.walk_snapshot()
print(f"robot gait after the command went quiet: current={final.current} "
      f"(deadman re-stood it)")
