import dataclasses
import gc
import math
import struct
import subprocess
import sys
import threading
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_allocation
from oracles import pattern_reference

from nbpk import robotsim
from nbpk.channel import EndpointConfig, UdpEndpoint
from nbpk.fragment import MAX_FRAG_PAYLOAD, MIN_FRAG_PAYLOAD, Reassembler
from nbpk.robotsim import (
    GRAVITY_MPS2,
    NOMINAL_MAX_YAW_RPS,
    RobotConfig,
    RobotSim,
    WalkState,
    apply_command,
    gen_motion,
    gen_test_image,
    image_ok,
    step,
)
from nbpk.wire import (
    REQUEST_SIZE,
    Image,
    MotionRequest,
    Packet,
    PacketHeader,
    PacketKind,
    StreamId,
    decode_motion,
    encode_request,
)
from nbpk.fragment import packetize_single


class TestTestImage:
    def test_verify_roundtrip(self):
        assert image_ok(gen_test_image(7, 320, 240))

    def test_layout(self):
        img = gen_test_image(5, 32, 24)
        n = 32 * 24 * 2
        assert struct.unpack_from("<I", img.pixels, 0)[0] == 5
        for i in (4, 100, n - 5):
            assert img.pixels[i] == (i + 5) & 0xFF
        crc = struct.unpack_from("<I", img.pixels, n - 4)[0]
        assert crc == zlib.crc32(img.pixels[:n - 4])

    def test_any_flipped_byte_breaks_crc(self):
        img = gen_test_image(3, 32, 24)
        for idx in (0, 4, 700, len(img.pixels) - 1):
            pixels = bytearray(img.pixels)
            pixels[idx] ^= 0x01
            corrupted = Image(width=32, height=24, pixels=bytes(pixels), seq=3)
            assert not image_ok(corrupted)

    def test_seq_values_differ_in_prefix(self):
        a = gen_test_image(1, 32, 24)
        b = gen_test_image(2, 32, 24)
        assert a.pixels[0:4] != b.pixels[0:4]

    def test_header_seq_mismatch_detected(self):
        img = gen_test_image(7, 32, 24)
        relabeled = Image(width=32, height=24, pixels=img.pixels, seq=8)
        assert image_ok(img) and not image_ok(relabeled)  # the CRC holds, the seq does not

    @pytest.mark.parametrize("seq", [0, 255, 2**32 - 1])
    def test_stamp_is_what_replace_gives(self, seq):
        stamped, unstamped = gen_test_image(seq, 32, 24, 10**12 + seq), gen_test_image(seq, 32, 24)
        assert unstamped.timestamp_us == 0
        expected = dataclasses.replace(unstamped, timestamp_us=10**12 + seq)
        for field in dataclasses.fields(Image):
            got, want = getattr(stamped, field.name), getattr(expected, field.name)
            assert type(got) is type(want) and got == want, field.name

    def test_spliced_frames_fail_crc(self):
        a = gen_test_image(1, 32, 24)
        b = gen_test_image(2, 32, 24)
        spliced = Image(width=32, height=24,
                        pixels=a.pixels[:512] + b.pixels[512:], seq=1)
        assert not image_ok(spliced)

    @pytest.mark.parametrize("width,height", [(4, 2), (3, 3), (17, 1), (32, 24),
                                              (320, 240), (640, 480), (1280, 960)])
    def test_matches_reference(self, width, height):
        seqs = [*range(6), *range(250, 261), *range(4095, 4098), *range(2**32 - 257, 2**32)]
        for seq in seqs:
            assert gen_test_image(seq, width, height).pixels == pattern_reference(seq, width, height), seq

    def test_golden_4x2(self):
        # the worked example in FORMAT.md, "Test pattern"
        img = gen_test_image(250, 4, 2)
        assert img.pixels == bytes.fromhex("fa000000 feff0001 02030405 bbe2912c")
        assert image_ok(img)

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_test_image(0, 2, 1)

    def test_seq_range(self):
        with pytest.raises(ValueError):
            gen_test_image(2**32, 32, 24)

    @pytest.mark.parametrize("width,height", [(-4, -4), (-16, 1), (1, -16)])
    def test_negative_size_rejected(self, width, height):
        with pytest.raises(ValueError, match="negative"):
            gen_test_image(0, width, height)

    def test_peak_allocation_within_1_1x_the_pixels(self):
        gen_test_image(6, 320, 240)  # first use of the size fills its cache
        n = 320 * 240 * 2
        assert peak_allocation(lambda: gen_test_image(7, 320, 240)) <= 1.1 * n

    def test_more_sizes_than_the_cache_holds(self):
        maxsize = robotsim._size_terms.cache_info().maxsize
        for width in range(8, 8 + 2 * maxsize + 1):
            for seq in (0, 255, 2**32 - 1):
                assert gen_test_image(seq, width, 3).pixels == pattern_reference(seq, width, 3), (width, seq)
        assert robotsim._size_terms.cache_info().currsize == maxsize

    def test_every_seq_low_byte_verifies_at_qvga(self):
        for low in range(256):  # each low byte starts the body at its own ramp offset
            seq = low + 256 * (low * 40503 % 2**24)
            assert image_ok(gen_test_image(seq, 320, 240)), seq

    @given(st.integers(0, 2**32 - 1))
    def test_verify_any_seq(self, seq):
        assert image_ok(gen_test_image(seq, 8, 2))


class TestGenMotion:
    def test_at_rest_t0(self):
        r = gen_motion(0, 0.0, WalkState())
        assert r.positions[0] == 0.0
        assert r.accel == (0.0, 0.0, GRAVITY_MPS2)
        assert r.gyro == (0.0, 0.0, 0.0)
        assert r.torso_angle == (0.0, 0.0)
        assert r.velocity == (0.0, 0.0, 0.0)

    def test_joint_formula(self):
        t = 0.5
        r = gen_motion(1, t, WalkState())
        assert r.positions[0] == pytest.approx(0.3 * math.sin(2 * math.pi * 0.5 * t))
        assert r.positions[3] == pytest.approx(0.3 * math.sin(2 * math.pi * 0.5 * t + 0.3))
        assert r.torso_angle[1] == pytest.approx(0.02 * math.sin(2 * math.pi * 0.5 * t))

    def test_velocity_mirrors_walk(self):
        walk = WalkState(current=(0.4, -0.2, 0.1))
        r = gen_motion(2, 1.0, walk)
        assert r.velocity == (0.4, -0.2, 0.1)
        assert r.gyro[2] == pytest.approx(0.1 * NOMINAL_MAX_YAW_RPS)

    def test_seq_and_timestamp(self):
        r = gen_motion(11, 2.5, WalkState())
        assert r.seq == 11
        assert r.timestamp_us == 2_500_000


class TestWalkModel:
    def test_stand_zeroes_target(self):
        walk = WalkState(target=(0.5, 0.5, 0.5))
        walk = apply_command(walk, MotionRequest.stand(), now=1.0)
        assert walk.target == (0.0, 0.0, 0.0)
        assert walk.last_command_time == 1.0

    def test_walk_sets_target(self):
        walk = apply_command(WalkState(), MotionRequest.walk(0.5, -0.25, 0.1), now=2.0)
        assert walk.target == (0.5, -0.25, 0.1)

    def test_ramp_saturates_within_one_second(self):
        walk = apply_command(WalkState(), MotionRequest.walk(0.5), now=0.0)
        walk = step(walk, dt=1.0, now=0.5)
        assert walk.current[0] == pytest.approx(min(0.5, 2.0 * 1.0))

    def test_ramp_limits_small_steps(self):
        walk = apply_command(WalkState(), MotionRequest.walk(1.0), now=0.0)
        walk = step(walk, dt=0.1, now=0.05)
        assert walk.current[0] == pytest.approx(0.2)

    def test_idle_timeout_forces_stand(self):
        walk = apply_command(WalkState(), MotionRequest.walk(1.0), now=0.0)
        walk = step(walk, dt=0.1, now=0.1)  # still fresh
        assert walk.target == (1.0, 0.0, 0.0)
        walk = step(walk, dt=0.1, now=0.7)  # >500 ms of silence
        assert walk.target == (0.0, 0.0, 0.0)

    def test_velocity_reaches_zero_within_ramp_time(self):
        walk = apply_command(WalkState(), MotionRequest.walk(1.0, -1.0, 1.0), now=0.0)
        walk = step(walk, dt=0.5, now=0.0)
        now = 0.0
        for _ in range(12):  # 0.6 s past the idle timeout at 500 ms
            now += 0.1
            walk = step(walk, dt=0.1, now=now)
        assert walk.current == (0.0, 0.0, 0.0)

    @settings(max_examples=200)
    @given(
        st.tuples(*([st.floats(-1, 1)] * 3)),
        st.tuples(*([st.floats(-1, 1)] * 3)),
        st.lists(st.floats(0.001, 0.3), min_size=1, max_size=20),
    )
    def test_distance_to_target_never_increases(self, current, target, dts):
        walk = WalkState(target=target, current=current, last_command_time=0.0)
        now = 0.0
        dist = max(abs(c - t) for c, t in zip(current, target))
        for dt in dts:
            now += dt
            if now > 0.4:  # stay inside the idle window so the target holds
                break
            walk = step(walk, dt=dt, now=now)
            new_dist = max(abs(c - t) for c, t in zip(walk.current, target))
            assert new_dist <= dist + 1e-12
            dist = new_dist

    def test_odometry_straight_line(self):
        walk = WalkState(current=(1.0, 0.0, 0.0), target=(1.0, 0.0, 0.0),
                         last_command_time=0.0)
        walk = step(walk, dt=2.0, now=0.1)
        x, y, theta = walk.pose
        assert x == pytest.approx(2.0 * 0.20)  # nominal full speed forward
        assert y == pytest.approx(0.0)
        assert theta == pytest.approx(0.0)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            step(WalkState(), dt=-0.1, now=0.0)


class TestRobotConfig:
    def test_fps_bounds(self):
        with pytest.raises(ValueError):
            RobotConfig(fps=0.0)
        with pytest.raises(ValueError):
            RobotConfig(fps=61.0)
        RobotConfig(fps=60.0)

    def test_positive_rates(self):
        for rate in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="motion_rate"):
                RobotConfig(motion_rate=rate)

    def test_image_size_bound(self):
        RobotConfig(width=1280, height=960)
        with pytest.raises(ValueError):
            RobotConfig(width=1280, height=962)

    @pytest.mark.parametrize("width,height,field", [(-320, -240, "width"), (70000, 1, "width"),
                                                    (1, 70000, "height")])
    def test_geometry_follows_the_start_rule(self, width, height, field):
        with pytest.raises(ValueError, match=field):
            RobotConfig(width=width, height=height)

    def test_image_fits_test_pattern(self):
        RobotConfig(width=4, height=2)  # 16 bytes, the smallest pattern
        gen_test_image(0, 4, 2)
        for width, height in ((2, 2), (0, 240), (-2, 240)):
            with pytest.raises(ValueError, match="test pattern"):
                RobotConfig(width=width, height=height)

    def test_frag_payload_bounds(self):
        RobotConfig(frag_payload=MIN_FRAG_PAYLOAD)
        RobotConfig(frag_payload=MAX_FRAG_PAYLOAD)
        for frag_payload in (MIN_FRAG_PAYLOAD - 1, MAX_FRAG_PAYLOAD + 1, 100):
            with pytest.raises(ValueError, match="frag_payload"):
                RobotConfig(frag_payload=frag_payload)


    @pytest.mark.parametrize("field, port", [
        ("image_port", 0), ("image_port", 65536), ("motion_port", 0), ("motion_port", 70000),
        ("command_port", 80), ("command_port", 99999), ("command_port", -1),
    ])
    def test_ports_rejected(self, field, port):
        with pytest.raises(ValueError, match=field):
            RobotConfig(**{field: port})

    def test_ports_accepted(self):
        RobotConfig(image_port=1, motion_port=65535, command_port=0)  # destinations, ephemeral bind
        RobotConfig(command_port=1024)


FLOOD = """
import socket, sys, time
addr, junk = ("127.0.0.1", int(sys.argv[1])), b"not a command"
end = time.monotonic() + float(sys.argv[2])
with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
    print("flooding", flush=True)
    while time.monotonic() < end:
        for _ in range(1000):
            sock.sendto(junk, addr)
"""


class TestRobotSimLive:
    @pytest.fixture
    def receivers(self):
        """The peer's image and motion endpoints, closed in teardown even when a test fails."""
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as image_in, \
                UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as motion_in:
            yield image_in, motion_in

    def test_streams_and_rates(self, receivers):
        image_in, motion_in = receivers
        cfg = RobotConfig(peer_host="127.0.0.1", image_port=image_in.local_port,
                          motion_port=motion_in.local_port, command_port=0,
                          command_bind_host="127.0.0.1",
                          fps=30.0, motion_rate=50.0, width=64, height=48)
        with RobotSim(cfg) as sim:
            time.sleep(2.0)
        assert 54 <= sim.images_sent <= 66  # 2 s at 30 fps, wide margin
        assert 85 <= sim.motions_sent <= 115

        rx = Reassembler()
        completed = []
        while True:
            got = image_in.recv(timeout=0.05)
            if got is None:
                break
            image = rx.step(Packet.from_bytes(got))
            if image is not None:
                completed.append(image.seq)
        assert completed, "no frames survived the loopback"
        assert completed == sorted(completed)

        seqs = []
        while True:
            got = motion_in.recv(timeout=0.05)
            if got is None:
                break
            pkt = Packet.from_bytes(got)
            assert pkt.header.stream_id == StreamId.MOTION
            assert pkt.header.kind == PacketKind.SINGLE
            reading = decode_motion(pkt.payload, seq=pkt.header.seq)
            assert reading.joint_count == 25
            seqs.append(pkt.header.seq)
        # sender-side seq has no gaps; UDP loopback rarely drops, but allow it
        assert seqs == sorted(seqs)
        assert len(seqs) >= 0.9 * sim.motions_sent

    def test_command_feeds_walk(self, receivers):
        image_in, motion_in = receivers
        cfg = RobotConfig(peer_host="127.0.0.1", image_port=image_in.local_port,
                          motion_port=motion_in.local_port, command_port=0,
                          command_bind_host="127.0.0.1",
                          fps=5.0, motion_rate=100.0, width=32, height=24)
        with RobotSim(cfg) as sim:
            with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
                pkt = packetize_single(encode_request(MotionRequest.walk(1.0)),
                                       StreamId.COMMAND, seq=0, timestamp_us=0)
                deadline = time.monotonic() + 2.0
                moving = False
                while time.monotonic() < deadline and not moving:
                    tx.send_to(pkt.to_bytes(), ("127.0.0.1", sim.command_port))
                    time.sleep(0.05)
                    moving = sim.walk_snapshot().current[0] > 0.1
            assert moving
            assert sim.commands_received > 0
            # silence: the deadman zeroes it again
            deadline = time.monotonic() + 3.0
            stopped = False
            while time.monotonic() < deadline and not stopped:
                time.sleep(0.05)
                stopped = sim.walk_snapshot().current == (0.0, 0.0, 0.0)
            assert stopped

    def test_a_lone_command_at_a_low_motion_rate_moves_the_robot(self, receivers):
        image_in, motion_in = receivers
        cfg = RobotConfig(peer_host="127.0.0.1", image_port=image_in.local_port,
                          motion_port=motion_in.local_port, command_port=0,
                          command_bind_host="127.0.0.1",
                          fps=5.0, motion_rate=1.0, width=32, height=24)
        walk = packetize_single(encode_request(MotionRequest.walk(1.0)),
                                StreamId.COMMAND, seq=0, timestamp_us=0)
        with RobotSim(cfg) as sim, UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
            time.sleep(0.05)
            tx.send_to(walk.to_bytes(), ("127.0.0.1", sim.command_port))
            time.sleep(1.0 / cfg.motion_rate + 0.2)
            current, received = sim.walk_snapshot().current, sim.commands_received
        # the tick that applies the command counts the deadman's silence from its own time
        assert received == 1
        assert current[0] > 0

    def test_a_command_flood_cannot_stall_the_tick(self, receivers):
        image_in, motion_in = receivers
        cfg = RobotConfig(peer_host="127.0.0.1", image_port=image_in.local_port,
                          motion_port=motion_in.local_port, command_port=0,
                          command_bind_host="127.0.0.1",
                          fps=5.0, motion_rate=100.0, width=32, height=24)
        with RobotSim(cfg) as sim:
            # another process, so the flood does not wait on this one's GIL
            with subprocess.Popen([sys.executable, "-I", "-c", FLOOD, str(sim.command_port), "1.5"],
                                  stdout=subprocess.PIPE, text=True) as flood:
                assert flood.stdout.readline() == "flooding\n"
                t0, sent0 = time.monotonic(), sim.motions_sent
                assert flood.wait(timeout=10.0) == 0
                elapsed, sent = time.monotonic() - t0, sim.motions_sent - sent0
        assert sent >= 0.9 * cfg.motion_rate * elapsed, (sent, elapsed)
        assert sim.command_rx.stats().malformed_packets > 0

    def test_late_command_is_not_applied(self, receivers):
        image_in, motion_in = receivers
        cfg = RobotConfig(peer_host="127.0.0.1", image_port=image_in.local_port,
                          motion_port=motion_in.local_port, command_port=0,
                          command_bind_host="127.0.0.1",
                          fps=5.0, motion_rate=100.0, width=32, height=24)
        walk = packetize_single(encode_request(MotionRequest.walk(1.0)),
                                StreamId.COMMAND, seq=5, timestamp_us=0)
        stand = packetize_single(encode_request(MotionRequest.stand()),
                                 StreamId.COMMAND, seq=4, timestamp_us=0)
        with RobotSim(cfg) as sim:
            with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
                tx.send_to(walk.to_bytes(), ("127.0.0.1", sim.command_port))
                tx.send_to(stand.to_bytes(), ("127.0.0.1", sim.command_port))
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline and (
                        sim.commands_received + sim.command_rx.stats().frames_stale < 2
                        or sim.walk_snapshot().target == (0.0, 0.0, 0.0)):
                    time.sleep(0.01)
                target = sim.walk_snapshot().target  # well inside the 0.5 s deadman
        assert (sim.commands_received, sim.command_rx.stats().frames_stale) == (1, 1)
        assert target == (1.0, 0.0, 0.0)

    def test_second_start_raises(self, receivers):
        image_in, motion_in = receivers
        cfg = RobotConfig(peer_host="127.0.0.1", image_port=image_in.local_port,
                          motion_port=motion_in.local_port, command_port=0,
                          command_bind_host="127.0.0.1", fps=5.0,
                          motion_rate=20.0, width=32, height=24)
        with RobotSim(cfg) as sim:
            with pytest.raises(RuntimeError):
                sim.start()
            # two loops; commands are read by the motion loop, not a thread of their own
            assert sorted(t.name for t in threading.enumerate() if t.name.startswith("nbpk-robot")) \
                == ["nbpk-robot-image", "nbpk-robot-motion"]

    def test_port_conflict_closes_the_endpoints_already_built(self):
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as taken:
            with pytest.raises(OSError):
                RobotSim(RobotConfig(peer_host="127.0.0.1", command_port=taken.local_port,
                                     command_bind_host="127.0.0.1"))
            gc.collect()  # a socket left open warns when it is collected

    def test_malformed_commands_counted(self, receivers):
        image_in, motion_in = receivers
        cfg = RobotConfig(peer_host="127.0.0.1", image_port=image_in.local_port,
                          motion_port=motion_in.local_port, command_port=0,
                          command_bind_host="127.0.0.1", fps=5.0,
                          motion_rate=20.0, width=32, height=24)
        with RobotSim(cfg) as sim:
            # a command travels as one SINGLE; a START is off-contract
            start = Packet(PacketHeader(StreamId.COMMAND, PacketKind.START, seq=0,
                                        frag_count=1, payload_len=REQUEST_SIZE),
                           encode_request(MotionRequest.stand()))
            with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
                tx.send_to(b"not a packet", ("127.0.0.1", sim.command_port))
                tx.send_to(start.to_bytes(), ("127.0.0.1", sim.command_port))
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline and sim.command_rx.stats().malformed_packets < 2:
                    time.sleep(0.02)
            assert sim.command_rx.stats().malformed_packets == 2
            assert sim.commands_received == 0
