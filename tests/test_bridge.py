import math
import time

import pytest

from nbpk.bench import Scenario, loopback_pair
from nbpk.bridge import (
    TOPIC_COMMAND,
    TOPIC_IMAGE,
    TOPIC_MOTION,
    TOPIC_STATS,
    BoundedFifo,
    Bridge,
    BridgeConfig,
    CameraFrame,
    TopicBus,
)
from nbpk.channel import EndpointConfig, UdpEndpoint
from nbpk.fragment import packetize_image, packetize_single
from nbpk.robotsim import gen_test_image, verify_test_image, VerifyOk
from nbpk.wire import (
    HEADER_SIZE,
    InvariantError,
    MotionMode,
    MotionReading,
    MotionRequest,
    PacketKind,
    StreamId,
    decode_request,
    encode_motion,
)


class TestTopicBus:
    def test_publish_without_subscribers(self):
        bus = TopicBus()
        bus.publish("anything", 42)  # silently discarded

    def test_latest_wins_keeps_newest(self):
        bus = TopicBus()
        sub = bus.subscribe("t", BoundedFifo(1))
        for i in range(1, 6):
            bus.publish("t", i)
        assert sub.get_nowait() == 5
        assert sub.get_nowait() is None

    def test_bounded_fifo_sheds_oldest(self):
        bus = TopicBus()
        sub = bus.subscribe("t", BoundedFifo(2))
        for i in (1, 2, 3):
            bus.publish("t", i)
        assert sub.drain() == [2, 3]
        assert sub.drops == 1

    def test_publish_order_preserved(self):
        bus = TopicBus()
        sub = bus.subscribe("t", BoundedFifo(100))
        for i in range(50):
            bus.publish("t", i)
        assert sub.drain() == list(range(50))

    def test_independent_subscribers(self):
        bus = TopicBus()
        a = bus.subscribe("t", BoundedFifo(10))
        b = bus.subscribe("t", BoundedFifo(1))
        for i in range(3):
            bus.publish("t", i)
        assert a.drain() == [0, 1, 2]
        assert b.drain() == [2]

    def test_type_locked_by_first_publish(self):
        bus = TopicBus()
        bus.publish("t", 1)
        with pytest.raises(TypeError):
            bus.publish("t", "a string")

    def test_registered_type_enforced(self):
        bus = TopicBus()
        bus.register("t", MotionRequest)
        with pytest.raises(TypeError):
            bus.publish("t", 3.14)
        bus.publish("t", MotionRequest.stand())

    def test_register_conflict(self):
        bus = TopicBus()
        bus.register("t", int)
        with pytest.raises(TypeError):
            bus.register("t", str)

    def test_none_forbidden(self):
        bus = TopicBus()
        with pytest.raises(TypeError):
            bus.publish("t", None)

    def test_empty_topic_name(self):
        bus = TopicBus()
        with pytest.raises(ValueError):
            bus.publish("", 1)

    def test_close_stops_delivery(self):
        bus = TopicBus()
        sub = bus.subscribe("t", BoundedFifo(10))
        sub.close()
        bus.publish("t", 1)
        assert sub.get(timeout=0) is None

    def test_blocking_get_wakes_on_publish(self):
        import threading

        bus = TopicBus()
        sub = bus.subscribe("t", BoundedFifo(1))
        got = []
        th = threading.Thread(target=lambda: got.append(sub.get(timeout=2.0)))
        th.start()
        time.sleep(0.1)
        bus.publish("t", "wake")
        th.join()
        assert got == ["wake"]

    def test_queue_depth_validation(self):
        with pytest.raises(ValueError):
            BoundedFifo(0)


class TestBridgeConfig:
    def test_ports_distinct(self):
        with pytest.raises(ValueError):
            BridgeConfig(image_port=9000, motion_port=9000)
        BridgeConfig(image_port=0, motion_port=0)  # ephemeral pair is fine

    def test_stats_period_positive(self):
        with pytest.raises(ValueError):
            BridgeConfig(stats_period_s=0)


def make_pair(**scenario_kwargs):
    bus = TopicBus()
    s = Scenario(duration_s=1.0, fps=20.0, width=64, height=48, **scenario_kwargs)
    sim, bridge = loopback_pair(s, bus)
    return bus, sim, bridge


class TestBridgeLive:
    def test_images_published_and_verified(self):
        bus, sim, bridge = make_pair()
        sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(256))
        bridge.start()
        sim.start()
        time.sleep(1.5)
        sim.stop()
        time.sleep(0.3)
        bridge.stop()
        frames = sub.drain()
        assert len(frames) >= 20  # ~30 expected at 20 fps over 1.5 s
        assert all(isinstance(f, CameraFrame) for f in frames)
        assert all(isinstance(verify_test_image(f.image), VerifyOk) for f in frames)
        seqs = [f.image.seq for f in frames]
        assert seqs == sorted(set(seqs)), "seq not strictly increasing"
        assert all(f.recv_timestamp_us >= f.image.timestamp_us for f in frames)

    def test_motion_published_in_order(self):
        bus, sim, bridge = make_pair()
        sub = bus.subscribe(TOPIC_MOTION, BoundedFifo(1024))
        bridge.start()
        sim.start()
        time.sleep(1.0)
        sim.stop()
        time.sleep(0.3)
        bridge.stop()
        readings = sub.drain()
        assert len(readings) >= 50  # 100 Hz motion rate
        seqs = [r.seq for r in readings]
        assert seqs == sorted(set(seqs))

    def test_stats_identity_after_quiesce(self):
        bus, sim, bridge = make_pair()
        bridge.start()
        sim.start()
        time.sleep(1.0)
        sim.stop()
        time.sleep(0.3)
        snap = bridge.stats()
        bridge.stop()
        assert snap.frames_published == snap.image.frames_complete
        assert snap.frames_stale == 0
        assert snap.motions_published > 0
        # singles are delivered directly, not assembled: no frame counter
        assert snap.motion.frames_complete == 0
        assert snap.motion.bytes_received > 0

    def test_stats_topic_ticks(self):
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_STATS, BoundedFifo(16))
        bridge = Bridge(BridgeConfig(image_port=0, motion_port=0,
                                     bind_host="127.0.0.1", stats_period_s=0.2), bus=bus)
        bridge.start()
        time.sleep(0.7)
        bridge.stop()
        snaps = sub.drain()
        assert 2 <= len(snaps) <= 4
        assert all(s.image.frames_complete == 0 for s in snaps)  # idle bridge
        assert snaps[-1].uptime_s > 0

    def test_idle_bridge_all_zero(self):
        bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"))
        bridge.start()
        time.sleep(0.3)
        snap = bridge.stats()
        bridge.stop()
        assert snap.frames_published == 0
        assert snap.image.bytes_received == 0
        assert snap.malformed_packets == 0

    def test_malformed_packets_counted_not_fatal(self):
        bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"))
        bridge.start()
        # motion travels one sample per SINGLE: a valid START/FRAGMENT pair
        # on the motion port is off-contract, as is a motion SINGLE sent to
        # the image port
        motion_frame = [p._replace(header=p.header._replace(stream_id=StreamId.MOTION))
                        for p in packetize_image(gen_test_image(0, 16, 8))]
        assert [p.header.kind for p in motion_frame] == [PacketKind.START, PacketKind.FRAGMENT]
        motion_single = packetize_single(encode_motion(MotionReading.zero()), StreamId.MOTION,
                                         seq=0, timestamp_us=0)
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
            tx.send_to(b"garbage", ("127.0.0.1", bridge.image_port))
            tx.send_to(b"\x00" * 40, ("127.0.0.1", bridge.motion_port))
            for pkt in motion_frame:
                tx.send_to(pkt.to_bytes(), ("127.0.0.1", bridge.motion_port))
            tx.send_to(motion_single.to_bytes(), ("127.0.0.1", bridge.image_port))
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and bridge.malformed_packets < 5:
            time.sleep(0.02)
        snap = bridge.stats()
        bridge.stop()
        assert snap.malformed_packets == 5
        assert snap.frames_published == 0
        assert snap.motion.frames_complete == 0
        assert snap.motions_published == 0

    def test_second_start_raises(self):
        bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"))
        with bridge:
            with pytest.raises(RuntimeError):
                bridge.start()

    def test_command_forward_wire_format(self):
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as robot_side:
            bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1",
                                         robot_host="127.0.0.1",
                                         robot_command_port=robot_side.local_port))
            pkt = bridge.command_forward(MotionRequest.stand())
            assert pkt.size == HEADER_SIZE + 14 == 40
            assert pkt.header.seq == 0
            pkt2 = bridge.command_forward(MotionRequest.walk(0.25))
            assert pkt2.header.seq == 1
            got = robot_side.recv(timeout=2.0)
            assert got is not None
            assert got[0] == pkt.to_bytes()
            req = decode_request(got[0][HEADER_SIZE:])
            assert req.mode == MotionMode.STAND
            bridge.stop()

    def test_command_forward_rejects_nan(self):
        bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"))
        before = bridge.commands_forwarded
        with pytest.raises(InvariantError):
            bridge.command_forward(MotionRequest(mode=MotionMode.WALK, vx=math.nan))
        assert bridge.commands_forwarded == before
        bridge.stop()

    def test_command_topic_reaches_robot(self):
        bus, sim, bridge = make_pair()
        bridge.start()
        sim.start()
        try:
            time.sleep(0.2)
            bus.publish(TOPIC_COMMAND, MotionRequest.walk(0.5, 0.0, 0.0))
            deadline = time.monotonic() + 2.0
            moving = False
            while time.monotonic() < deadline and not moving:
                time.sleep(0.02)
                moving = sim.walk_snapshot().current[0] > 0.05
            assert moving
            assert bridge.commands_forwarded >= 1
            assert sim.commands_received >= 1
        finally:
            sim.stop()
            bridge.stop()
