"""End-to-end acceptance gate.

Each test exercises one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line to the real stdout (visible even under
pytest capture). Module tests elsewhere cover the fine grain; this file
is the go/no-go checklist.

Criterion 6 also checks the validator on the bundled backpack tensor, which
ships exactly as measured and fails one principal-moment triangle
inequality: the validator must reject it with that one violation, and must
accept the minimal repair that demo 6 makes.
"""

import math
import random
import re
import sys
import threading
import time

import numpy as np

from nbpk.bench import Scenario, analytic_delivery, run_loopback, run_scenario
from nbpk.bridge import (
    TOPIC_COMMAND,
    TOPIC_IMAGE,
    TOPIC_MOTION,
    BoundedFifo,
    CameraFrame,
    TopicBus,
)
from nbpk.channel import ImpairmentConfig
from nbpk.fragment import Reassembler, packetize_image
from nbpk.inertial import RigidBody, bundled_backpack_body, compose, parallel_axis
from nbpk.recorder import (
    LogRecord,
    Truncated,
    image_from_record_payload,
    read_log,
    read_log_epoch_us,
    record,
    record_messages,
    replay,
)
from nbpk.robotsim import gen_test_image
from nbpk.wire import (
    Image,
    ImageStartMeta,
    MotionMode,
    MotionReading,
    MotionRequest,
    PacketHeader,
    PacketKind,
    StreamId,
    WireError,
    decode_header,
    decode_motion,
    decode_request,
    decode_start_meta,
    encode_header,
    encode_motion,
    encode_request,
    encode_start_meta,
)

from conftest import record_verdict
from oracles import (
    analytic_cuboid_inertia,
    as_f32,
    cloud_inertia_about,
    cloud_mass_properties,
    cuboid_cloud,
    frame_outcomes,
    random_rotation,
    rel_err,
)


def verdict(number: int, ok: bool, desc: str, detail: str) -> str:
    line = f"[acceptance] {number}/8 {'PASS' if ok else 'FAIL'} — {desc}: {detail}"
    print(line, file=sys.__stdout__, flush=True)  # immediate under -s
    record_verdict(line)
    return line


def test_1_sustained_loopback_minute():
    s = Scenario(duration_s=60.0, fps=30.0, width=320, height=240)
    r = run_loopback(s)
    ratio = r.frames_delivered / r.frames_sent if r.frames_sent else 0.0
    ok = ratio >= 0.99 and r.verify_failures == 0 and r.achieved_fps >= 29.0
    line = verdict(
        1, ok, "60 s live loopback at 320x240 / 30 fps",
        f"{r.frames_delivered}/{r.frames_sent} frames ({100 * ratio:.2f}% >= 99%), "
        f"{r.achieved_fps:.1f} fps (>= 29.0), {r.verify_failures} verify failures (== 0), "
        f"mean latency {r.mean_latency_us / 1000:.1f} ms")
    assert ok, line


def test_2_lossy_delivery_matches_analytic_model():
    s = Scenario(duration_s=100.0, fps=30.0, width=320, height=240,
                 impairment=ImpairmentConfig(loss_p=0.01), seed=0xACC2)
    r = run_scenario(s)
    expected = analytic_delivery(0.01, s.packets_per_frame)
    gap = abs(r.delivery_ratio - expected)
    ok = r.frames_sent >= 2000 and gap <= 0.05 and r.verify_failures == 0
    line = verdict(
        2, ok, "1% packet loss vs (1-p)^n over 3000 frames",
        f"measured {r.delivery_ratio:.4f} vs model {expected:.4f} "
        f"(|gap| {gap:.4f} <= 0.05), {r.frames_sent} frames sent")
    assert ok, line


def test_3_drop_policy_exhaustive_vs_oracle():
    checked = 0
    mismatches = 0
    for frag_count in (1, 2, 3, 4):
        width, height = 16, 8 * frag_count  # pixels fill frag_count slices exactly
        frames = [
            Image(width=width, height=height,
                  pixels=bytes((seq * 7 + j) & 0xFF for j in range(width * height * 2)),
                  seq=seq, timestamp_us=seq * 1000)
            for seq in range(2)
        ]
        packets = [list(packetize_image(f, 256)) for f in frames]
        counts = [len(ps) for ps in packets]
        assert counts == [frag_count + 1] * 2
        flat = [p for ps in packets for p in ps]
        n = len(flat)
        for mask in range(1 << n):
            survived = [bool((mask >> i) & 1) for i in range(n)]
            rx = Reassembler()
            delivered = []
            for pkt, keep in zip(flat, survived):
                if keep:
                    image = rx.step(pkt)
                    if image is not None:
                        delivered.append(image.seq)
                        if image.pixels != frames[image.seq].pixels:
                            mismatches += 1
            want = [i for i, done in enumerate(frame_outcomes(counts, survived)) if done]
            if delivered != want or rx.stats().frames_complete != len(delivered):
                mismatches += 1
            checked += 1
    ok = mismatches == 0
    line = verdict(
        3, ok, "reassembly outcome equals brute-force oracle on every loss subset",
        f"{checked} subsets across 1-4 fragments per frame, {mismatches} mismatches")
    assert ok, line


def random_header(rng: random.Random) -> PacketHeader:
    kind = rng.choice(list(PacketKind))
    if kind == PacketKind.SINGLE:
        frag_index, frag_count = 0, 0
    elif kind == PacketKind.START:
        frag_index, frag_count = 0, rng.randint(1, 0xFFFF)
    else:
        frag_count = rng.randint(1, 0xFFFF)
        frag_index = rng.randint(0, frag_count - 1)
    return PacketHeader(
        stream_id=rng.choice(list(StreamId)),
        kind=kind,
        seq=rng.getrandbits(32),
        frag_index=frag_index,
        frag_count=frag_count,
        payload_len=rng.getrandbits(16),
        timestamp_us=rng.getrandbits(64),
    )


def random_meta(rng: random.Random) -> ImageStartMeta:
    width = rng.randint(2, 1000)
    height = rng.randint(1, 1000)
    return ImageStartMeta(total_len=width * height * 2, width=width, height=height,
                          frag_payload=rng.randint(1, 0xFFFF))


def random_motion(rng: random.Random) -> MotionReading:
    joints = rng.randint(0, 255)
    f = lambda: as_f32(rng.uniform(-4.0, 4.0))
    return MotionReading(
        positions=tuple(f() for _ in range(joints)),
        gyro=(f(), f(), f()),
        accel=(f(), f(), f()),
        torso_angle=(f(), f()),
        velocity=(f(), f(), f()),
        seq=rng.getrandbits(32),
        timestamp_us=rng.getrandbits(64),
    )


def random_request(rng: random.Random) -> MotionRequest:
    if rng.random() < 0.3:
        return MotionRequest(mode=MotionMode.STAND, action_id=rng.getrandbits(8))
    v = lambda: as_f32(rng.uniform(-1.0, 1.0))
    return MotionRequest(mode=MotionMode.WALK, action_id=rng.getrandbits(8),
                         vx=v(), vy=v(), omega=v())


def test_4_roundtrips_and_decoder_fuzz():
    rng = random.Random(0xACC4)
    per_type = 10_000
    bad = 0
    for _ in range(per_type):
        h = random_header(rng)
        if decode_header(encode_header(h)) != h:
            bad += 1
        m = random_meta(rng)
        if decode_start_meta(encode_start_meta(m)) != m:
            bad += 1
        r = random_request(rng)
        if decode_request(encode_request(r)) != r:
            bad += 1
    for _ in range(per_type):
        mo = random_motion(rng)
        if decode_motion(encode_motion(mo), seq=mo.seq, timestamp_us=mo.timestamp_us) != mo:
            bad += 1

    decoders = (decode_header, decode_start_meta, decode_motion, decode_request)
    seeds = [encode_header(random_header(rng)) for _ in range(8)]
    seeds += [encode_start_meta(random_meta(rng)) for _ in range(8)]
    seeds += [encode_request(random_request(rng)) for _ in range(8)]
    seeds.append(encode_motion(random_motion(rng)))
    fuzz_calls = 0
    crashes = 0
    target = 1_000_000
    while fuzz_calls < target:
        if rng.random() < 0.5:
            blob = rng.randbytes(rng.randint(0, 60))
        else:
            blob = bytearray(rng.choice(seeds))
            for _ in range(rng.randint(1, 4)):
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            blob = bytes(blob)
        for dec in decoders:
            try:
                dec(blob)
            except WireError:
                pass
            except Exception:
                crashes += 1
            fuzz_calls += 1
    ok = bad == 0 and crashes == 0
    line = verdict(
        4, ok, "codec round-trips and decoder fuzz",
        f"{per_type} round-trips per message type ({bad} mismatches), "
        f"{fuzz_calls} fuzzed decode calls ({crashes} uncontrolled exceptions)")
    assert ok, line


def test_5_record_replay_byte_identity_and_truncation(tmp_path):
    n_frames = 300
    frames = [
        CameraFrame(
            image=Image(width=64, height=48,
                        pixels=gen_test_image(i, 64, 48).pixels,
                        seq=i, timestamp_us=i * 33_333),
            recv_timestamp_us=i * 33_333 + 500,
        )
        for i in range(n_frames)
    ]
    original = tmp_path / "original.nbl"
    bus = TopicBus()

    def feed():
        time.sleep(0.05)
        for f in frames:
            bus.publish(TOPIC_IMAGE, f)

    th = threading.Thread(target=feed)
    th.start()
    wrote = record(bus, original, duration_s=0.8)
    th.join()

    recs = [r for r in read_log(original) if isinstance(r, LogRecord)]
    payload_ok = (
        len(recs) == n_frames
        and all(image_from_record_payload(r.payload, seq=f.image.seq, timestamp_us=r.timestamp_us)
                == f.image for r, f in zip(recs, frames))
    )

    bus2 = TopicBus()
    sub = bus2.subscribe(TOPIC_IMAGE, BoundedFifo(n_frames + 1))
    replayed_count = replay(original, bus2, speed=math.inf)
    replayed = sub.drain()
    rerecorded = tmp_path / "rerecorded.nbl"
    record_messages(replayed, rerecorded, epoch_us=read_log_epoch_us(original))
    identical = original.read_bytes() == rerecorded.read_bytes()

    raw = original.read_bytes()
    cut = tmp_path / "cut.nbl"
    cut.write_bytes(raw[:-7])  # mid-payload of the final record
    tail = list(read_log(cut))
    bus3 = TopicBus()
    bus3.subscribe(TOPIC_IMAGE, BoundedFifo(n_frames + 1))
    recovered = replay(cut, bus3, speed=math.inf)
    truncation_ok = (
        len(tail) == n_frames
        and isinstance(tail[-1], Truncated)
        and all(isinstance(r, LogRecord) for r in tail[:-1])
        and recovered == n_frames - 1
    )

    ok = wrote == n_frames and payload_ok and replayed_count == n_frames and identical and truncation_ok
    line = verdict(
        5, ok, "300-frame record/replay and truncated-log recovery",
        f"{wrote} records written, payloads byte-exact: {payload_ok}, "
        f"re-recorded file identical: {identical}, cut file yields "
        f"{recovered}/{n_frames - 1} frames then a clean truncation mark")
    assert ok, line


def test_6_mass_properties_oracle_and_bundled_tensor():
    rng = np.random.default_rng(0xACC6)
    worst = 0.0
    pairs = 20
    for _ in range(pairs):
        bodies = []
        clouds = []
        for _ in range(2):
            extents = rng.uniform(0.02, 0.3, size=3)
            center = rng.uniform(-0.5, 0.5, size=3)
            rot = random_rotation(rng)
            pts, masses = cuboid_cloud(extents, center, rot, density=rng.uniform(200, 2000))
            mass = float(masses.sum())
            bodies.append(RigidBody(mass=mass, com=center,
                                    inertia=analytic_cuboid_inertia(mass, extents, rot)))
            clouds.append((pts, masses))
        merged = compose(bodies)
        pts = np.vstack([c[0] for c in clouds])
        masses = np.concatenate([c[1] for c in clouds])
        want_m, want_com, want_inertia = cloud_mass_properties(pts, masses)
        point = rng.uniform(-0.5, 0.5, size=3)
        shift_err = rel_err(
            parallel_axis(merged.inertia, merged.mass, merged.com - point),
            cloud_inertia_about(pts, masses, point))
        worst = max(worst,
                    rel_err(merged.inertia, want_inertia),
                    rel_err(merged.com, want_com),
                    abs(merged.mass - want_m) / want_m,
                    shift_err)
    oracle_ok = worst <= 1e-3

    # The shipped tensor is physically impossible: the validator must name
    # exactly one triangle violation, with moments matching an independent
    # eigensolver, and those moments must indeed fail lam0 + lam1 >= lam2.
    body = bundled_backpack_body()
    violations = body.validate()
    found = "; ".join(violations)
    lam = np.linalg.eigvalsh(body.inertia)
    named = np.array([float(x) for x in re.findall(r"[-+]?\d\.\d+e[-+]\d+", found)])
    rejected = (
        len(violations) == 1
        and found.startswith("triangle inequality violated")
        and named.shape == (3,)
        and np.allclose(named, lam, rtol=1e-6, atol=0.0)
        and lam[0] + lam[1] < lam[2]
    )

    # Demo 6's minimal repair: same principal axes, smallest moment raised
    # just past the flat-plate limit. That tensor is realizable.
    vals, vecs = np.linalg.eigh(body.inertia)
    vals[0] = 1.05 * (vals[2] - vals[1])
    repaired = RigidBody(mass=body.mass, com=body.com, inertia=vecs @ np.diag(vals) @ vecs.T)
    repair_violations = repaired.validate()
    accepted = repair_violations == []

    ok = oracle_ok and rejected and accepted
    detail = (f"composition/shift vs point-cloud oracle on {pairs} body pairs: "
              f"max rel err {worst:.2e} (<= 1e-3); bundled backpack tensor "
              f"(m={body.mass} kg) rejected with one triangle violation: {rejected} "
              f"[{found}]; minimal repair validates clean: {accepted}")
    if repair_violations:
        detail += f" [{'; '.join(repair_violations)}]"
    line = verdict(6, ok, "rigid-body math vs oracle, validator rejects the measured "
                   "tensor and accepts its repair", detail)
    assert ok, line


def test_7_command_ramp_echo_and_deadman():
    from nbpk.bench import loopback_pair

    bus = TopicBus()
    sub = bus.subscribe(TOPIC_MOTION, BoundedFifo(512))
    s = Scenario(duration_s=1.0, fps=10.0, width=64, height=48)
    sim, bridge = loopback_pair(s, bus)
    bridge.start()
    sim.start()
    try:
        time.sleep(0.3)  # let both loops spin up
        sub.drain()
        t_cmd = time.monotonic()
        bus.publish(TOPIC_COMMAND, MotionRequest.walk(0.5, 0.0, 0.0))
        response_s = None
        while time.monotonic() - t_cmd < 1.0:
            reading = sub.get(timeout=0.05)
            if reading is not None and reading.velocity[0] > 0.0:
                response_s = time.monotonic() - t_cmd
                break
        # no further commands: idle timeout must zero the gait, then the
        # ramp brings the echoed velocity back to exactly zero
        time.sleep(max(0.0, t_cmd + 1.35 - time.monotonic()))
        sub.drain()
        settled = sub.get(timeout=0.5)
        walk = sim.walk_snapshot()
    finally:
        sim.stop()
        bridge.stop()

    echo_ok = response_s is not None and response_s <= 0.2
    stand_ok = (settled is not None and settled.velocity == (0.0, 0.0, 0.0)
                and walk.target == (0.0, 0.0, 0.0) and walk.current == (0.0, 0.0, 0.0))
    ok = echo_ok and stand_ok
    line = verdict(
        7, ok, "walk command echoes within 200 ms, 500 ms silence re-stands",
        f"first nonzero echo after {('%.0f ms' % (response_s * 1000)) if response_s else 'never'} "
        f"(<= 200 ms), post-silence velocity {settled.velocity if settled else None} and "
        f"gait target {walk.target} both zero: {stand_ok}")
    assert ok, line


def test_8_identical_seeds_identical_runs():
    s = Scenario(duration_s=20.0, fps=30.0, width=64, height=48,
                 impairment=ImpairmentConfig(loss_p=0.02, dup_p=0.01, reorder_p=0.01), seed=0xACC8)
    trace_a: list[int] = []
    trace_b: list[int] = []
    ra = run_scenario(s, trace_out=trace_a)
    rb = run_scenario(s, trace_out=trace_b)
    ok = ra == rb and trace_a == trace_b and len(trace_a) == ra.frames_delivered
    line = verdict(
        8, ok, "same seed reproduces the run exactly",
        f"two runs: reports equal {ra == rb}, delivery traces equal {trace_a == trace_b} "
        f"({ra.frames_delivered}/{ra.frames_sent} frames delivered)")
    assert ok, line
