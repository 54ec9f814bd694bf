import itertools
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_allocation
from oracles import frame_outcomes

from nbpk.fragment import (
    Dropped,
    Duplicate,
    ImageComplete,
    Orphan,
    Reassembler,
    packetize_image,
    packetize_single,
)
from nbpk.robotsim import gen_test_image
from nbpk.wire import (
    HEADER_SIZE,
    Image,
    InvariantError,
    MotionReading,
    MotionRequest,
    Packet,
    PacketHeader,
    PacketKind,
    StreamId,
    encode_motion,
    encode_request,
)


def make_image(seq=0, width=32, height=24, fill=0xAB):
    return Image(width=width, height=height, pixels=bytes([fill]) * (width * height * 2), seq=seq)


def image_packets(seq=0, frag_payload=256, width=32, height=24):
    return packetize_image(make_image(seq, width, height), frag_payload)


class TestPacketize:
    def test_standard_frame_packet_count(self):
        img = make_image(width=320, height=240)
        pkts = packetize_image(img, 1400)
        assert len(pkts) == 111  # 1 START + ceil(153600/1400)
        assert pkts[0].header.kind == PacketKind.START
        assert all(p.header.kind == PacketKind.FRAGMENT for p in pkts[1:])
        assert len(pkts[-1].payload) == 1000  # 153600 - 109*1400

    def test_shared_seq_and_timestamp(self):
        img = Image(width=32, height=24, pixels=b"\x11" * (32 * 24 * 2),
                    seq=42, timestamp_us=999)
        pkts = packetize_image(img, 512)
        assert {p.header.seq for p in pkts} == {42}
        assert {p.header.timestamp_us for p in pkts} == {999}

    def test_fragments_cover_pixels_exactly(self):
        img = make_image()
        pkts = packetize_image(img, 300)
        joined = b"".join(p.payload for p in pkts[1:])
        assert joined == img.pixels

    def test_frag_payload_bounds(self):
        img = make_image()
        with pytest.raises(ValueError):
            packetize_image(img, 128)
        with pytest.raises(ValueError):
            packetize_image(img, 70000)

    def test_single_too_big(self):
        with pytest.raises(ValueError):
            packetize_single(b"\x00" * 65500, StreamId.MOTION, seq=0, timestamp_us=0)

    def test_packet_bytes_roundtrip(self):
        pkt = packetize_single(b"hello", StreamId.COMMAND, seq=3, timestamp_us=17)
        assert Packet.from_bytes(pkt.to_bytes()) == pkt
        assert pkt.size == HEADER_SIZE + 5

    def test_packet_length_mismatch(self):
        h = PacketHeader(StreamId.MOTION, PacketKind.SINGLE, seq=0, payload_len=4)
        with pytest.raises(InvariantError):
            Packet(header=h, payload=b"abc")

    def test_packet_checked_on_construction_and_replace(self):
        with pytest.raises(InvariantError):
            Packet(header=PacketHeader(StreamId.MOTION, PacketKind.SINGLE, seq=0, frag_count=1))
        pkt = packetize_single(b"abcd", StreamId.MOTION, seq=0, timestamp_us=0)
        with pytest.raises(InvariantError):
            pkt._replace(payload=b"abc")


class TestGoldenBytes:
    """The sender's bytes, built by hand from FORMAT.md's tables."""

    @staticmethod
    def header(kind, seq, frag_index, frag_count, payload_len, timestamp_us):
        # magic, version 1, stream IMAGE = 1, kind, flags 0, seq u32,
        # frag_index u16, frag_count u16, payload_len u16, timestamp_us u64
        return struct.pack("<4sBBBBIHHHQ", b"NBPK", 1, 1, kind, 0, seq, frag_index,
                           frag_count, payload_len, timestamp_us)

    def test_small_frame_datagrams(self):
        img = gen_test_image(7, 32, 24)
        sent = b"".join(p.to_bytes() for p in packetize_image(img, 512))
        # START payload: total_len u32, width u16, height u16, encoding u8
        # (YUV422 = 1), reserved u8, frag_payload u16
        meta = struct.pack("<IHHBBH", 1536, 32, 24, 1, 0, 512)
        expected = self.header(1, 7, 0, 3, 12, img.timestamp_us) + meta
        for i in range(3):
            expected += (self.header(2, 7, i, 3, 512, img.timestamp_us)
                         + img.pixels[i * 512:(i + 1) * 512])
        assert sent == expected
        assert meta.hex() == "00060000" "2000" "1800" "01" "00" "0002"

    def test_start_header_matches_worked_example(self):
        img = replace(gen_test_image(7, 32, 24), timestamp_us=123456789)
        start = packetize_image(img, 512)[0].to_bytes()
        assert start[:HEADER_SIZE].hex() == (
            "4e42504b" "01" "01" "01" "00" "07000000" "0000" "0300" "0c00" "15cd5b0700000000")
        assert start[:HEADER_SIZE] == self.header(1, 7, 0, 3, 12, 123456789)


    @staticmethod
    def single_header(stream, seq, payload_len, timestamp_us):
        # magic, version 1, stream, kind SINGLE = 0, flags 0, seq u32,
        # frag_index 0, frag_count 0, payload_len u16, timestamp_us u64
        return struct.pack("<4sBBBBIHHHQ", b"NBPK", 1, stream, 0, 0, seq, 0, 0,
                           payload_len, timestamp_us)

    def test_motion_single_datagram(self):
        reading = MotionReading(positions=(0.5, -1.0), gyro=(0.0, 0.0, 0.25),
                                accel=(0.0, 0.0, -2.0), torso_angle=(0.125, 0.0),
                                velocity=(1.0, 0.0, -0.5))
        sent = packetize_single(encode_motion(reading), StreamId.MOTION, seq=5,
                                timestamp_us=1000).to_bytes()
        # payload: joint_count u8, reserved u8, positions, gyro, accel,
        # torso_angle, velocity, each an f32
        payload = bytes([2, 0]) + struct.pack("<13f", 0.5, -1.0, 0.0, 0.0, 0.25, 0.0, 0.0, -2.0,
                                              0.125, 0.0, 1.0, 0.0, -0.5)
        assert len(payload) == 2 + 4 * 2 + 44
        assert sent == self.single_header(2, 5, 54, 1000) + payload
        assert sent[:HEADER_SIZE].hex() == (
            "4e42504b" "01" "02" "00" "00" "05000000" "0000" "0000" "3600" "e803000000000000")

    def test_walk_command_datagram(self):
        sent = packetize_single(encode_request(MotionRequest.walk(0.5, omega=-0.25)),
                                StreamId.COMMAND, seq=3, timestamp_us=17).to_bytes()
        # payload: mode WALK = 1, action_id 0, vx, vy, omega as f32 (FORMAT.md's example)
        payload = bytes.fromhex("01" "00" "0000003f" "00000000" "000080be")
        assert payload == struct.pack("<BBfff", 1, 0, 0.5, 0.0, -0.25)
        assert sent == self.single_header(3, 3, 14, 17) + payload



class TestReassembler:
    def test_in_order_completion(self):
        rx = Reassembler()
        pkts = image_packets(seq=5)
        events = [rx.step(p) for p in pkts]
        assert all(e is None for e in events[:-1])
        final = events[-1]
        assert isinstance(final, ImageComplete)
        assert final.image.seq == 5
        assert final.image.pixels == make_image(5).pixels
        assert rx.stats().frames_complete == 1
        assert rx.step(pkts[1]) == Orphan(seq=5, frag_index=0)  # the frame left its slot

    def test_fragments_in_any_order(self):
        rx = Reassembler()
        pkts = image_packets(seq=1)
        rx.step(pkts[0])
        frags = pkts[1:]
        for p in reversed(frags[1:]):
            assert rx.step(p) is None
        final = rx.step(frags[0])
        assert isinstance(final, ImageComplete)
        assert final.image.pixels == make_image(1).pixels

    def test_preemptive_drop(self):
        rx = Reassembler()
        first = image_packets(seq=1)
        second = image_packets(seq=2)
        rx.step(first[0])
        rx.step(first[1])  # incomplete
        ev = rx.step(second[0])
        assert ev == Dropped(seq=1)
        assert rx.stats().frames_dropped_preempted == 1
        for p in second[1:-1]:
            rx.step(p)
        final = rx.step(second[-1])
        assert isinstance(final, ImageComplete)
        assert final.image.seq == 2

    def test_late_fragment_after_preemption_is_orphan(self):
        rx = Reassembler()
        first = image_packets(seq=1)
        second = image_packets(seq=2)
        rx.step(first[0])
        rx.step(second[0])
        ev = rx.step(first[1])
        assert ev == Orphan(seq=1, frag_index=0)
        assert rx.stats().orphan_fragments == 1

    def test_late_start_is_stale_and_spares_the_newer_frame(self):
        rx = Reassembler()
        late, newer = image_packets(seq=4), image_packets(seq=5)
        rx.step(newer[0])
        rx.step(newer[1])
        assert rx.step(late[0]) == Orphan(seq=4)
        assert rx.stats().frames_stale == 1
        assert rx.step(late[2]) == Orphan(seq=4, frag_index=1)
        for p in newer[2:-1]:
            assert rx.step(p) is None
        final = rx.step(newer[-1])
        assert isinstance(final, ImageComplete) and final.image.seq == 5
        stats = rx.stats()
        assert (stats.frames_complete, stats.frames_dropped_preempted, stats.frames_stale) == (1, 0, 1)

    def test_frame_fed_twice_completes_once(self):
        rx = Reassembler()
        pkts = image_packets(seq=3)
        events = [rx.step(p) for p in pkts + pkts]
        assert [type(e) for e in events].count(ImageComplete) == 1
        assert events[len(pkts)] == Orphan(seq=3)
        stats = rx.stats()
        assert (stats.frames_complete, stats.frames_stale, stats.sender_restarts) == (1, 1, 0)
        assert all(isinstance(e, Orphan) for e in events[len(pkts):])  # no slot reopened

    def test_fragment_without_start_is_orphan(self):
        rx = Reassembler()
        pkts = image_packets(seq=9)
        assert rx.step(pkts[1]) == Orphan(seq=9, frag_index=0)

    def test_duplicate_start(self):
        rx = Reassembler()
        pkts = image_packets(seq=3)
        rx.step(pkts[0])
        assert rx.step(pkts[0]) == Duplicate(seq=3)
        assert rx.stats().duplicate_fragments == 1

    def test_duplicate_fragment(self):
        rx = Reassembler()
        pkts = image_packets(seq=3)
        rx.step(pkts[0])
        rx.step(pkts[1])
        assert rx.step(pkts[1]) == Duplicate(seq=3, frag_index=0)
        # the duplicate must not corrupt the frame
        for p in pkts[2:-1]:
            rx.step(p)
        final = rx.step(pkts[-1])
        assert isinstance(final, ImageComplete)
        assert final.image.pixels == make_image(3).pixels

    def test_wrong_length_fragment_is_orphan(self):
        rx = Reassembler()
        pkts = image_packets(seq=3, frag_payload=256)
        rx.step(pkts[0])
        bad_header = PacketHeader(
            stream_id=StreamId.IMAGE, kind=PacketKind.FRAGMENT, seq=3,
            frag_index=pkts[1].header.frag_index, frag_count=pkts[1].header.frag_count,
            payload_len=100, timestamp_us=0)
        ev = rx.step(Packet(header=bad_header, payload=b"\x00" * 100))
        assert isinstance(ev, Orphan)

    def test_out_of_range_fragment_index_is_orphan(self):
        rx = Reassembler()
        pkts = image_packets(seq=3)
        rx.step(pkts[0])
        fc = pkts[0].header.frag_count
        rogue = Packet(
            header=PacketHeader(stream_id=StreamId.IMAGE, kind=PacketKind.FRAGMENT,
                                seq=3, frag_index=fc + 5, frag_count=fc + 6,
                                payload_len=1, timestamp_us=0),
            payload=b"\x00")
        assert isinstance(rx.step(rogue), Orphan)

    def test_start_meta_mismatch_is_orphan(self):
        # START whose header frag_count disagrees with its own metadata
        rx = Reassembler()
        pkts = image_packets(seq=3)
        good = pkts[0]
        lying = Packet(
            header=PacketHeader(stream_id=StreamId.IMAGE, kind=PacketKind.START,
                                seq=3, frag_index=0,
                                frag_count=good.header.frag_count + 1,
                                payload_len=len(good.payload), timestamp_us=0),
            payload=good.payload)
        assert isinstance(rx.step(lying), Orphan)
        assert rx.step(pkts[1]) == Orphan(seq=3, frag_index=0)  # it opened no slot

    def test_oversized_start_is_orphan(self):
        def start(width, height):
            total = width * height * 2
            meta = struct.pack("<IHHBBH", total, width, height, 1, 0, 1400)
            return Packet(PacketHeader(StreamId.IMAGE, PacketKind.START, seq=3,
                                       frag_count=-(-total // 1400), payload_len=len(meta)),
                          meta)

        first = Packet(PacketHeader(StreamId.IMAGE, PacketKind.FRAGMENT, seq=3, frag_index=0,
                                    frag_count=-(-1280 * 960 * 2 // 1400), payload_len=1400),
                       bytes(1400))
        rx = Reassembler()
        assert rx.step(start(1280, 962)) == Orphan(seq=3)
        assert rx.step(first) == Orphan(seq=3, frag_index=0)  # no slot opened
        assert rx.step(start(1280, 960)) is None
        assert rx.step(first) is None  # the largest frame's slot takes it

    def test_single_packet_is_orphan(self):
        rx = Reassembler()
        pkt = packetize_single(b"reading", StreamId.MOTION, seq=8, timestamp_us=44)
        assert rx.step(pkt) == Orphan(seq=8)
        assert rx.stats().orphan_fragments == 1
        assert rx.step(image_packets(seq=8)[1]) == Orphan(seq=8, frag_index=0)  # no slot opened

    def test_single_mid_frame_does_not_interfere(self):
        rx = Reassembler()
        pkts = image_packets(seq=1)
        rx.step(pkts[0])
        # valid START metadata in a SINGLE still announces no fragments
        single = packetize_single(pkts[0].payload, StreamId.IMAGE, seq=2, timestamp_us=0)
        assert rx.step(single) == Orphan(seq=2)
        for p in pkts[1:-1]:
            rx.step(p)
        assert isinstance(rx.step(pkts[-1]), ImageComplete)

    def test_bytes_received_counts_everything(self):
        rx = Reassembler()
        pkts = image_packets(seq=1)
        for p in pkts:
            rx.step(p)
        assert rx.stats().bytes_received == sum(p.size for p in pkts)

    def test_stats_snapshot_is_detached(self):
        rx = Reassembler()
        snap = rx.stats()
        for p in image_packets(seq=1):
            rx.step(p)
        assert snap.frames_complete == 0


class TestCopyPolicy:
    """Each pixel byte is copied once per frame, where the frame becomes whole;
    no packet aliases a buffer that can change under it."""

    def test_packets_do_not_alias_mutable_pixels(self):
        pixels = bytearray(gen_test_image(4, 32, 24).pixels)
        pkts = packetize_image(Image(32, 24, pixels, seq=4), 256)
        sent = [p.to_bytes() for p in pkts]
        pixels[:] = bytes(len(pixels))
        assert [p.to_bytes() for p in pkts] == sent

    def test_parsed_packets_do_not_alias_mutable_datagrams(self):
        img = gen_test_image(4, 32, 24)
        datagrams = [bytearray(p.to_bytes()) for p in packetize_image(img, 256)]
        pkts = [Packet.from_bytes(d) for d in datagrams]
        parsed = [p.to_bytes() for p in pkts]
        for d in datagrams:
            d[HEADER_SIZE:] = bytes(len(d) - HEADER_SIZE)
        assert [p.to_bytes() for p in pkts] == parsed
        rx = Reassembler()
        assert [rx.step(p) for p in pkts][-1] == ImageComplete(img)

    @staticmethod
    def budget(packets):
        """Feed one frame's ``packets()`` to a reassembler under tracemalloc:
        the image and the peak allocation as a multiple of its pixel bytes."""
        rx = Reassembler()
        events = []
        peak = peak_allocation(lambda: events.extend(rx.step(p) for p in packets()))
        image = events[-1].image
        return image, peak / len(image.pixels)

    def test_packetize_then_reassemble_copies_the_pixels_once(self):
        img = gen_test_image(9)  # 320x240, 111 datagrams
        image, share = self.budget(lambda: packetize_image(img))
        assert image == img and type(image.pixels) is bytes
        assert share < 1.5

    def test_parse_then_reassemble_copies_the_pixels_once(self):
        img = gen_test_image(9)
        datagrams = [p.to_bytes() for p in packetize_image(img)]
        image, share = self.budget(lambda: map(Packet.from_bytes, datagrams))
        assert image == img and type(image.pixels) is bytes
        assert share < 1.5


class TestLossOutcomesAgainstOracle:
    def run_subset(self, frames, keep):
        all_packets = [p for f in frames for p in f]
        rx = Reassembler()
        completed = []
        for i, pkt in enumerate(all_packets):
            if not keep[i]:
                continue
            ev = rx.step(pkt)
            if isinstance(ev, ImageComplete):
                completed.append(ev.image.seq)
        return completed

    def test_exhaustive_two_frames_two_fragments(self):
        frames = [image_packets(seq=s, frag_payload=1024, width=32, height=32)
                  for s in (0, 1)]
        counts = [len(f) for f in frames]
        assert counts == [3, 3]
        total = sum(counts)
        for bits in itertools.product((True, False), repeat=total):
            expected = [s for s, ok in zip((0, 1), frame_outcomes(counts, list(bits))) if ok]
            assert self.run_subset(frames, bits) == expected, bits

    @settings(max_examples=300)
    @given(st.integers(1, 5), st.data())
    def test_random_subsets_match_oracle(self, n_frames, data):
        frames = [image_packets(seq=s, frag_payload=512, width=32, height=24)
                  for s in range(n_frames)]
        counts = [len(f) for f in frames]
        bits = [data.draw(st.booleans()) for _ in range(sum(counts))]
        expected = [s for s in range(n_frames) if frame_outcomes(counts, bits)[s]]
        assert self.run_subset(frames, bits) == expected
