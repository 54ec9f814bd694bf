import gc
import math
import threading
import time
from dataclasses import replace

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
from nbpk.fragment import Reassembler, Receiver, StreamStats, packetize_image, packetize_single
from nbpk.robotsim import gen_test_image, image_ok
from nbpk.wire import (
    HEADER_SIZE,
    InvariantError,
    MotionMode,
    MotionReading,
    MotionRequest,
    Packet,
    PacketKind,
    StreamId,
    decode_request,
    encode_motion,
    encode_request,
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
        assert sub.get(timeout=0) == 5
        assert sub.get(timeout=0) is None

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

    @pytest.mark.parametrize("field, port", [
        ("image_port", 99999), ("image_port", 80), ("motion_port", -1), ("motion_port", 65536),
        ("robot_command_port", 0), ("robot_command_port", 99999),
    ])
    def test_ports_rejected(self, field, port):
        with pytest.raises(ValueError, match=field):
            BridgeConfig(**{field: port})

    def test_stats_period_positive(self):
        with pytest.raises(ValueError):
            BridgeConfig(stats_period_s=0)


def off_contract_datagrams() -> list[tuple[bytes, StreamId]]:
    """One datagram of each class that breaks the wire contract, six in all,
    each with the stream whose bridge port it goes to."""
    # motion travels one sample per SINGLE: a valid START/FRAGMENT pair
    # on the motion port is off-contract, as is a motion SINGLE sent to
    # the image port; images travel as START/FRAGMENT, so an image
    # SINGLE on the image port is off-contract too
    motion_frame = [p._replace(header=p.header._replace(stream_id=StreamId.MOTION))
                    for p in packetize_image(gen_test_image(0, 16, 8))]
    assert [p.header.kind for p in motion_frame] == [PacketKind.START, PacketKind.FRAGMENT]
    motion_single = packetize_single(encode_motion(MotionReading.zero()), StreamId.MOTION,
                                     seq=0, timestamp_us=0)
    image_single = packetize_single(b"\x00" * 16, StreamId.IMAGE, seq=0, timestamp_us=0)
    return [(b"garbage", StreamId.IMAGE), (b"\x00" * 40, StreamId.MOTION),
            *[(p.to_bytes(), StreamId.MOTION) for p in motion_frame],
            (motion_single.to_bytes(), StreamId.IMAGE),
            (image_single.to_bytes(), StreamId.IMAGE)]


def backlog() -> list[tuple[bytes, StreamId]]:
    """Frames 5, 6 and 7 with every off-contract class interleaved, some
    between a frame's START and its FRAGMENT."""
    frames = [[(p.to_bytes(), StreamId.IMAGE) for p in packetize_image(gen_test_image(seq, 16, 8))]
              for seq in (5, 6, 7)]
    bad = off_contract_datagrams()
    return [*frames[0][:1], *bad[:2], *frames[0][1:], *bad[2:4], *frames[1],
            *frames[2][:1], *bad[4:], *frames[2][1:]]


# two stale seqs (a repeat and a late one), then a sender restart: 38 back
STALE_AND_RESTART = (40, 41, 41, 39, 3, 4)


def singles(stream: StreamId, payload: bytes) -> list[tuple[bytes, StreamId]]:
    return [(packetize_single(payload, stream, seq=seq, timestamp_us=seq).to_bytes(), stream)
            for seq in STALE_AND_RESTART]


def motion_mix() -> list[tuple[bytes, StreamId]]:
    return singles(StreamId.MOTION, encode_motion(MotionReading.zero()))


def command_mix() -> list[tuple[bytes, StreamId]]:
    # garbage, and a reading (the right kind, the wrong stream) on the command port
    return [(b"not a packet", StreamId.COMMAND), (motion_mix()[0][0], StreamId.COMMAND),
            *singles(StreamId.COMMAND, encode_request(MotionRequest.stand()))]


def feed_fresh(datagrams: list[tuple[bytes, StreamId]]):
    """What fresh receivers, with no socket, make of ``datagrams``: each
    stream's messages and the stats of its receiver."""
    receivers = {StreamId.IMAGE: Reassembler(), StreamId.MOTION: Receiver(StreamId.MOTION),
                 StreamId.COMMAND: Receiver(StreamId.COMMAND)}
    messages = {stream: [] for stream in receivers}
    for datagram, stream in datagrams:
        message = receivers[stream].feed(datagram)
        if message is not None:
            messages[stream].append(message)
    return messages, {stream: rx.stats() for stream, rx in receivers.items()}


def port_of(bridge: Bridge, stream: StreamId) -> int:
    return bridge.image_port if stream == StreamId.IMAGE else bridge.motion_port


def make_pair(**scenario_kwargs):
    bus = TopicBus()
    s = Scenario(duration_s=1.0, fps=20.0, width=64, height=48, **scenario_kwargs)
    sim, bridge = loopback_pair(s, bus)
    return bus, sim, bridge


class TestReceivers:
    def test_fresh_receivers_take_the_backlog_without_a_socket(self):
        mix = [*backlog(), *motion_mix(), *command_mix()]
        messages, stats = feed_fresh(mix)
        assert messages[StreamId.IMAGE] == [gen_test_image(seq, 16, 8) for seq in (5, 6, 7)]
        assert [r.seq for r in messages[StreamId.MOTION]] == [40, 41, 3, 4]
        assert [r.timestamp_us for r in messages[StreamId.MOTION]] == [40, 41, 3, 4]
        assert messages[StreamId.COMMAND] == [MotionRequest.stand()] * 4
        image_bytes = sum(p.size for seq in (5, 6, 7) for p in packetize_image(gen_test_image(seq, 16, 8)))
        assert stats[StreamId.IMAGE] == StreamStats(frames_complete=3, bytes_received=image_bytes,
                                                    malformed_packets=3)
        single = len(mix[-1][0])  # a command datagram: header and request
        motion = HEADER_SIZE + len(encode_motion(MotionReading.zero()))
        assert stats[StreamId.MOTION] == StreamStats(frames_stale=2, sender_restarts=1,
                                                     bytes_received=4 * motion, malformed_packets=3)
        assert stats[StreamId.COMMAND] == StreamStats(frames_stale=2, sender_restarts=1,
                                                      bytes_received=4 * single, malformed_packets=2)
        # every datagram is a message, a START that opened its frame, a stale seq or malformed
        opened = 3
        assert len(mix) == sum(len(m) for m in messages.values()) + opened + sum(
            st.frames_stale + st.malformed_packets for st in stats.values())

    def test_a_receiver_counts_an_undecodable_single_as_malformed(self):
        rx = Receiver(StreamId.MOTION)
        short = packetize_single(b"\x00" * 8, StreamId.MOTION, seq=1, timestamp_us=0)
        assert rx.feed(short.to_bytes()) is None
        assert rx.stats() == StreamStats(bytes_received=short.size, malformed_packets=1)

    def test_a_live_robot_counts_commands_as_a_fresh_receiver_does(self):
        bus, sim, bridge = make_pair()
        mix = command_mix()
        messages, offline = feed_fresh(mix)
        expected = (offline[StreamId.COMMAND], len(messages[StreamId.COMMAND]))

        def counted():
            return sim.command_rx.stats(), sim.commands_received

        with sim, bridge, UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
            for datagram, _ in mix:
                tx.send_to(datagram, ("127.0.0.1", sim.command_port))
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and counted() != expected:
                time.sleep(0.02)
            time.sleep(0.1)  # long enough for a miscount past the total to show
            got = counted()
        assert got == expected == (StreamStats(frames_stale=2, sender_restarts=1,
                                               bytes_received=4 * len(mix[-1][0]),
                                               malformed_packets=2), 4)


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
        assert all(image_ok(f.image) for f in frames)
        seqs = [f.image.seq for f in frames]
        assert seqs == sorted(set(seqs)), "seq not strictly increasing"
        assert all(f.recv_timestamp_us >= f.image.timestamp_us for f in frames)

    def test_image_latency_sums_every_published_frame(self):
        bus, sim, bridge = make_pair()
        sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(256))  # deep enough to drop nothing
        with bridge:
            with sim:
                time.sleep(0.5)
            time.sleep(0.3)
        frames = sub.drain()
        assert frames and sub.drops == 0
        assert bridge.stats().image.latency_accumulator_us == sum(
            max(0, f.recv_timestamp_us - f.image.timestamp_us) for f in frames)

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
        sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(256))  # deep enough to drop nothing
        bridge.start()
        sim.start()
        time.sleep(1.0)
        sim.stop()
        time.sleep(0.3)
        snap = bridge.stats()
        bridge.stop()
        assert len(sub.drain()) == snap.image.frames_complete > 0  # every completed frame is published
        assert snap.frames_stale == 0
        assert snap.motions_published > 0
        # readings are decoded at the motion port, not reassembled: only bytes count
        assert snap.motion.frames_complete == 0
        assert snap.motion.bytes_received > 0

    # a sender restart (seq back to 0) and the u32 wrap, on each stream
    @pytest.mark.parametrize("seqs, restarts", [
        ([*range(100, 110), *range(10)], 1),
        ([2**32 - 2, 2**32 - 1, 0, 1], 0),
    ], ids=["restart", "wrap"])
    @pytest.mark.parametrize("stream", [StreamId.IMAGE, StreamId.MOTION], ids=["image", "motion"])
    def test_every_message_published_in_order(self, stream, seqs, restarts):
        image = stream == StreamId.IMAGE
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_IMAGE if image else TOPIC_MOTION, BoundedFifo(64))
        with Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"),
                    bus=bus) as bridge, UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
            port = bridge.image_port if image else bridge.motion_port
            for seq in seqs:
                pkts = (packetize_image(gen_test_image(seq, 16, 8)) if image else
                        [packetize_single(encode_motion(MotionReading.zero()), StreamId.MOTION,
                                          seq=seq, timestamp_us=0)])
                for pkt in pkts:
                    tx.send_to(pkt.to_bytes(), ("127.0.0.1", port))
            got = []
            deadline = time.monotonic() + 2.0
            while len(got) < len(seqs) and time.monotonic() < deadline:
                message = sub.get(timeout=0.05)
                if message is not None:
                    got.append(message.image.seq if image else message.seq)
            snap = bridge.stats()
        assert got == seqs
        counts = snap.image if image else snap.motion
        assert (counts.sender_restarts, counts.frames_stale, snap.frames_stale) == (restarts, 0, 0)
        assert (counts.frames_complete if image else snap.motions_published) == len(seqs)

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
        assert snap.image.frames_complete == 0
        assert snap.image.bytes_received == 0
        assert snap.malformed_packets == 0

    def test_malformed_packets_counted_not_fatal(self):
        bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"))
        bridge.start()
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
            for datagram, stream in off_contract_datagrams():
                tx.send_to(datagram, ("127.0.0.1", port_of(bridge, stream)))
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and bridge.stats().malformed_packets < 6:
            time.sleep(0.02)
        snap = bridge.stats()
        bridge.stop()
        assert snap.malformed_packets == 6
        assert (snap.image.malformed_packets, snap.motion.malformed_packets) == (3, 3)
        assert snap.image.frames_complete == 0
        assert snap.motion.frames_complete == 0
        assert snap.motions_published == 0

    def test_a_backlog_is_drained_in_order(self):
        # the first wake-up finds frames and every off-contract class queued,
        # interleaved, some between a frame's START and its FRAGMENT, and
        # stale and restarted motion seqs; the bridge counts what fresh
        # receivers fed the same datagrams count
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(8))
        bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"), bus=bus)
        queued = [*backlog(), *motion_mix()]
        messages, offline = feed_fresh(queued)
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
            for datagram, stream in queued:
                tx.send_to(datagram, ("127.0.0.1", port_of(bridge, stream)))

        def counted(snap):
            return (replace(snap.image, latency_accumulator_us=0), snap.motion, snap.motions_published)

        expected = (offline[StreamId.IMAGE], offline[StreamId.MOTION], len(messages[StreamId.MOTION]))
        with bridge:
            got = []
            deadline = time.monotonic() + 2.0
            while len(got) < 3 and time.monotonic() < deadline:
                frame = sub.get(timeout=0.05)
                if frame is not None:
                    got.append(frame)
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and counted(bridge.stats()) != expected:
                time.sleep(0.02)
            time.sleep(0.1)  # long enough for a miscount past the total to show
            snap = bridge.stats()
        assert [f.image.seq for f in got] == [5, 6, 7]
        assert all(image_ok(f.image) for f in got)
        assert [f.image for f in got] == messages[StreamId.IMAGE]
        assert counted(snap) == expected
        assert snap.malformed_packets == len(off_contract_datagrams()) == 6
        assert snap.frames_stale == offline[StreamId.MOTION].frames_stale == 2
        assert snap.image.frames_complete == 3

    def test_stop_is_seen_under_a_flood(self):
        bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"))
        datagrams = [p.to_bytes() for p in packetize_image(gen_test_image(1, 32, 24))]
        port = bridge.image_port
        flooding = threading.Event()
        done = threading.Event()

        def flood():
            with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
                while not done.is_set():
                    for d in datagrams:
                        tx.send_to(d, ("127.0.0.1", port))
                    flooding.set()

        flooder = threading.Thread(target=flood, daemon=True)
        bridge.start()
        flooder.start()
        try:
            assert flooding.wait(2.0)
            time.sleep(0.3)
            t0 = time.monotonic()
            bridge.stop()
            took = time.monotonic() - t0
        finally:
            done.set()
            flooder.join(timeout=5.0)
        assert bridge.stats().image.bytes_received > 10 * sum(map(len, datagrams))  # it was busy
        assert took < 0.5
        assert not any(t.is_alive() for t in bridge._threads)

    def test_receive_path_looks_up_its_calls_per_datagram(self, monkeypatch):
        # a tracer wraps Packet.from_bytes and Reassembler.step on their
        # classes while a bridge runs, and must then see every datagram
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(8))
        calls = {"from_bytes": 0, "step": 0}
        from_bytes, step = Packet.from_bytes, Reassembler.step

        def counting_from_bytes(cls, b):
            calls["from_bytes"] += 1
            return from_bytes(b)

        def counting_step(self, pkt):
            calls["step"] += 1
            return step(self, pkt)

        frames = [[p.to_bytes() for p in packetize_image(gen_test_image(seq, 32, 24), 256)]
                  for seq in (2, 3)]
        with Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"),
                    bus=bus) as bridge, UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
            for seq, datagrams in zip((2, 3), frames):
                for d in datagrams:
                    tx.send_to(d, ("127.0.0.1", bridge.image_port))
                frame = sub.get(timeout=2.0)
                assert frame is not None and frame.image.seq == seq
                if seq == 2:  # the image loop is running: wrap its calls now
                    monkeypatch.setattr(Packet, "from_bytes", classmethod(counting_from_bytes))
                    monkeypatch.setattr(Reassembler, "step", counting_step)
        assert len(frames[1]) == 7
        assert calls == {"from_bytes": 7, "step": 7}

    def test_idle_stop_ends_the_command_loop(self):
        # the command loop waits on its subscription alone, so stop() must close it
        bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"))
        bridge.start()
        time.sleep(0.3)
        t0 = time.monotonic()
        bridge.stop()
        assert time.monotonic() - t0 < 0.5
        assert [t.name for t in bridge._threads if t.is_alive()] == []
        assert "nbpk-bridge-command" in [t.name for t in bridge._threads]

    def test_stop_unsubscribes_from_commands(self):
        bus = TopicBus()
        with Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"), bus=bus):
            pass
        assert bus._topics[TOPIC_COMMAND].subscribers == []

    def test_second_start_raises(self):
        bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"))
        with bridge:
            with pytest.raises(RuntimeError):
                bridge.start()

    def test_port_conflict_closes_the_endpoints_already_built(self):
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as taken:
            with pytest.raises(OSError):
                Bridge(BridgeConfig(image_port=0, motion_port=taken.local_port,
                                    bind_host="127.0.0.1"))
            gc.collect()  # a socket left open warns when it is collected

    def test_bus_type_conflict_opens_no_endpoint(self):
        bus = TopicBus()
        bus.register(TOPIC_STATS, dict)
        with pytest.raises(TypeError):
            Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"), bus=bus)
        gc.collect()  # a socket left open warns when it is collected

    def test_set_robot_address_checks_the_port(self):
        bridge = Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"))
        try:
            for port in (0, 65536, 99999):
                with pytest.raises(ValueError, match="port"):
                    bridge.set_robot_address("127.0.0.1", port)
            bridge.set_robot_address("127.0.0.1", 1)
        finally:
            bridge.stop()

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
            assert got == pkt.to_bytes()
            req = decode_request(got[HEADER_SIZE:])
            assert req.mode == MotionMode.STAND
            bridge.stop()

    def test_command_seq_wraps_and_both_commands_apply(self):
        bus, sim, bridge = make_pair()
        with sim, bridge:
            bridge._cmd_seq = 2**32 - 1
            sent = [bridge.command_forward(MotionRequest.walk(0.5)),
                    bridge.command_forward(MotionRequest.walk(0.25))]
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and sim.walk_snapshot().target[0] != 0.25:
                time.sleep(0.01)
            target = sim.walk_snapshot().target
        assert [p.header.seq for p in sent] == [2**32 - 1, 0]
        assert sim.commands_received == 2 and sim.command_rx.stats().frames_stale == 0
        assert target == (0.25, 0.0, 0.0)

    def test_a_command_that_fails_to_forward_is_counted_failed_not_malformed(self):
        bus = TopicBus()
        with Bridge(BridgeConfig(image_port=0, motion_port=0, bind_host="127.0.0.1"),
                    bus=bus) as bridge:
            bus.publish(TOPIC_COMMAND, MotionRequest(mode=MotionMode.WALK, vx=math.nan))
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and bridge.stats().commands_failed < 1:
                time.sleep(0.02)
            time.sleep(0.1)
            snap = bridge.stats()
        assert (snap.commands_failed, snap.commands_forwarded, snap.malformed_packets) == (1, 0, 0)

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
