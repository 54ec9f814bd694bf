import itertools
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frame_outcomes

from nbpk.fragment import (
    Dropped,
    Duplicate,
    ImageComplete,
    Orphan,
    Packet,
    Reassembler,
    SingleDelivered,
    packetize_image,
    packetize_single,
)
from nbpk.robotsim import gen_test_image
from nbpk.wire import (
    HEADER_SIZE,
    Image,
    InvariantError,
    PacketHeader,
    PacketKind,
    StreamId,
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
        assert not rx.collecting

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
        assert not rx.collecting

    def test_oversized_start_is_orphan(self):
        def start(width, height):
            total = width * height * 2
            meta = struct.pack("<IHHBBH", total, width, height, 1, 0, 1400)
            return Packet(PacketHeader(StreamId.IMAGE, PacketKind.START, seq=3,
                                       frag_count=-(-total // 1400), payload_len=len(meta)),
                          meta)

        rx = Reassembler()
        assert rx.step(start(1280, 962)) == Orphan(seq=3)
        assert not rx.collecting
        assert rx.step(start(1280, 960)) is None
        assert rx.collecting

    def test_single_packet_passthrough(self):
        rx = Reassembler()
        pkt = packetize_single(b"reading", StreamId.MOTION, seq=8, timestamp_us=44)
        ev = rx.step(pkt)
        assert ev == SingleDelivered(stream_id=StreamId.MOTION, payload=b"reading",
                                     seq=8, timestamp_us=44)

    def test_streams_do_not_interfere(self):
        rx = Reassembler()
        pkts = image_packets(seq=1)
        rx.step(pkts[0])
        rx.step(packetize_single(b"m", StreamId.MOTION, seq=100, timestamp_us=0))
        for p in pkts[1:-1]:
            rx.step(p)
        assert isinstance(rx.step(pkts[-1]), ImageComplete)

    def test_timeout_disabled_by_default(self):
        rx = Reassembler()
        pkts = image_packets(seq=1)
        rx.step(pkts[0], now_us=0)
        assert rx.poll(10**12) is None
        assert rx.collecting

    def test_timeout_eviction(self):
        rx = Reassembler(timeout_us=1000)
        pkts = image_packets(seq=1)
        rx.step(pkts[0], now_us=0)
        assert rx.poll(900) is None
        assert rx.poll(1001) == Dropped(seq=1)
        assert rx.stats().frames_dropped_timeout == 1
        assert not rx.collecting

    def test_timeout_counts_from_last_accepted_fragment(self):
        rx = Reassembler(timeout_us=1000)
        pkts = image_packets(seq=1)  # START + 6 fragments
        rx.step(pkts[0], now_us=0)
        rx.step(pkts[1], now_us=800)
        rx.step(pkts[2], now_us=1600)
        assert rx.poll(1700) is None
        assert rx.poll(2600) is None
        assert rx.poll(2601) == Dropped(seq=1)

    def test_rejected_packets_do_not_keep_a_slot_alive(self):
        rx = Reassembler(timeout_us=1000)
        pkts = image_packets(seq=1)
        rx.step(pkts[0], now_us=0)
        rx.step(pkts[1], now_us=100)
        assert rx.step(pkts[1], now_us=900) == Duplicate(seq=1, frag_index=0)
        assert rx.step(pkts[0], now_us=900) == Duplicate(seq=1)
        assert rx.poll(1101) == Dropped(seq=1)

    def test_latency_accumulates(self):
        rx = Reassembler()
        img = Image(width=32, height=24, pixels=b"\x00" * (32 * 24 * 2),
                    seq=0, timestamp_us=1000)
        for p in packetize_image(img, 512):
            rx.step(p, now_us=1500)
        assert rx.stats().latency_accumulator_us == 500

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
