import itertools
import random
import struct
from dataclasses import asdict, replace
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import peak_allocation
from oracles import frame_outcomes, packetize_reference

from nbpk import fragment
from nbpk.channel import ImpairmentConfig, StreamImpairer
from nbpk.fragment import (
    MAX_FRAG_PAYLOAD,
    MIN_FRAG_PAYLOAD,
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
    WireError,
    encode_motion,
    encode_request,
)


def make_image(seq=0, width=32, height=24, fill=0xAB):
    return Image(width=width, height=height, pixels=bytes([fill]) * (width * height * 2), seq=seq)


def image_packets(seq=0, frag_payload=256, width=32, height=24):
    return packetize_image(make_image(seq, width, height), frag_payload)


ENTRY_POINTS = ["feed", "step_all", "step"]


def step_each(rx: Reassembler, packets) -> list:
    """The images ``rx`` completes as each of ``packets`` is stepped in turn."""
    return [image for p in packets if (image := rx.step(p)) is not None]


ORPHAN, DUPLICATE = {"orphan_fragments": 1}, {"duplicate_fragments": 1}
COMPLETE, PREEMPTED, STALE = {"frames_complete": 1}, {"frames_dropped_preempted": 1}, {"frames_stale": 1}


def moved(rx: Reassembler, pkt: Packet) -> tuple:
    """What stepping ``pkt`` does: the image it completes (or None), and each counter of
    ``stats()`` it moves, with by how much; ``bytes_received``, which every packet moves, is left out."""
    before = asdict(rx.stats())
    image = rx.step(pkt)
    after = asdict(rx.stats())
    return image, {name: after[name] - n for name, n in before.items()
                   if after[name] != n and name != "bytes_received"}


def reassemble_through(entry: str, packets: list) -> tuple:
    """The images one fresh reassembler completes from ``packets`` through one
    entry point, and its ``stats()``."""
    rx = Reassembler()
    if entry == "feed":
        images = [img for p in packets if (img := rx.feed(p.to_bytes())) is not None]
    elif entry == "step_all":
        images = rx.step_all(packets)
    else:
        images = step_each(rx, packets)
    return images, rx.stats()


SLOT_RULE_CASES = ["wrong-length", "index-out-of-range", "no-start", "duplicate",
                   "last-at-full-length", "repeat-with-another-length", "other-frag-count",
                   "filled-by-bytes", "filled-by-bytearray"]


def slot_rule_case(case: str) -> tuple:
    """A case's packets, then the images, orphans and duplicates they give. The
    frame is 32x21 at frag_payload 256: a START and six fragments, the last of 64 bytes."""
    start, *frags = image_packets(seq=3, width=32, height=21)

    def fragment(index, size, count=6):
        return Packet(PacketHeader(StreamId.IMAGE, PacketKind.FRAGMENT, seq=3, frag_index=index,
                                   frag_count=count, payload_len=size), bytes(size))

    def refilled(payload_type):
        """Place 0 filled by a payload of ``payload_type`` (packetize_image's are views), then
        repeated: at its length, twice, and at another; a filled place never fits again."""
        first, *rest = (Packet(f.header, payload_type(f.payload)) for f in frags)
        return [start, first, first, fragment(0, 256), fragment(0, 100), *rest], 1, 2

    packets, orphans, duplicates = {
        "wrong-length": ([start, fragment(1, 100), *frags], 1, 0),
        "index-out-of-range": ([start, fragment(11, 256, count=12), *frags], 1, 0),
        "no-start": ([frags[1]], 1, 0),
        "duplicate": ([start, frags[0], frags[0], *frags[1:]], 0, 1),
        "last-at-full-length": ([start, fragment(5, 256), *frags], 1, 0),
        "repeat-with-another-length": (
            [start, frags[5], fragment(5, 256), frags[0], fragment(0, 100), *frags[1:5]], 2, 0),
        "other-frag-count": (
            [start, frags[2]._replace(frag_count=7),
             *frags[:2], *frags[3:]], 0, 0),
        "filled-by-bytes": refilled(bytes),
        "filled-by-bytearray": refilled(bytearray),
    }[case]
    return packets, [] if case == "no-start" else [make_image(3, 32, 21)], orphans, duplicates


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


def random_image(width, height, seq=0, timestamp_us=0):
    pixels = random.Random(seq).randbytes(width * height * 2)
    return Image(width=width, height=height, pixels=pixels, seq=seq, timestamp_us=timestamp_us)


class TestPacketizeAgainstOracle:
    """Every datagram of a frame, against ``packetize_reference``."""

    @staticmethod
    def check(img, frag_payload):
        pkts = packetize_image(img, frag_payload)
        assert [p.to_bytes() for p in pkts] == packetize_reference(img, frag_payload)
        for p in pkts:
            assert type(p) is Packet and type(p.header) is PacketHeader
            assert p.header.stream_id is StreamId.IMAGE
        assert pkts[0].header.kind is PacketKind.START
        for p in pkts[1:]:
            assert p.header.kind is PacketKind.FRAGMENT
            assert type(p.payload) is memoryview and p.payload.readonly

    @settings(max_examples=200)
    @given(st.one_of(st.tuples(st.integers(1, 16), st.integers(1, 16)), st.just((320, 240))),
           # exact divisors of QVGA's 153,600 bytes and of small frames, so some last fragments are full
           st.one_of(st.integers(256, 65000), st.sampled_from([256, 300, 320, 384, 480, 512, 1446, 65000])),
           st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))
    @example((320, 240), 256, 3, 99)
    def test_matches_the_reference(self, size, frag_payload, seq, timestamp_us):
        self.check(random_image(*size, seq, timestamp_us), frag_payload)

    @pytest.mark.parametrize("order", [1, -1])
    def test_same_byte_count_other_shape_gets_its_own_start(self, order):
        sizes = [(320, 240), (240, 320), (640, 120)][::order]
        for width, height in sizes:  # the reference's START carries each shape's own width and height
            self.check(random_image(width, height, seq=width), 1400)

    def test_more_geometries_than_the_cache_holds(self):
        maxsize = fragment._layout.cache_info().maxsize
        for _ in range(2):  # the second pass meets geometries the first evicted
            for width in range(8, 8 + 2 * maxsize + 1):
                self.check(random_image(width, 40, seq=width), 256)
        assert fragment._layout.cache_info().currsize == maxsize


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
        outcomes = [moved(rx, p) for p in pkts]
        assert outcomes == [(None, {})] * (len(pkts) - 1) + [(make_image(5), COMPLETE)]
        assert moved(rx, pkts[1]) == (None, ORPHAN)
        assert rx._slot is None  # the frame left its slot

    def test_fragments_in_any_order(self):
        rx = Reassembler()
        pkts = image_packets(seq=1)
        rx.step(pkts[0])
        frags = pkts[1:]
        for p in reversed(frags[1:]):
            assert moved(rx, p) == (None, {})
        assert moved(rx, frags[0]) == (make_image(1), COMPLETE)

    def test_preemptive_drop(self):
        rx = Reassembler()
        first = image_packets(seq=1)
        second = image_packets(seq=2)
        rx.step(first[0])
        rx.step(first[1])  # incomplete
        assert moved(rx, second[0]) == (None, PREEMPTED)
        assert rx._slot.seq == 2  # frame 1 left the slot, and its fragments have nowhere to go
        assert moved(rx, first[2]) == (None, ORPHAN)
        assert step_each(rx, second[1:]) == [make_image(2)]

    def test_late_fragment_after_preemption_is_orphan(self):
        rx = Reassembler()
        first = image_packets(seq=1)
        second = image_packets(seq=2)
        rx.step(first[0])
        rx.step(second[0])
        assert moved(rx, first[1]) == (None, ORPHAN)
        assert step_each(rx, second[1:]) == [make_image(2)]  # it did not disturb frame 2

    def test_late_start_is_stale_and_spares_the_newer_frame(self):
        rx = Reassembler()
        late, newer = image_packets(seq=4), image_packets(seq=5)
        rx.step(newer[0])
        rx.step(newer[1])
        assert moved(rx, late[0]) == (None, STALE)
        assert moved(rx, late[2]) == (None, ORPHAN)
        for p in newer[2:-1]:
            assert rx.step(p) is None
        assert rx.step(newer[-1]) == make_image(5)
        stats = rx.stats()
        assert (stats.frames_complete, stats.frames_dropped_preempted, stats.frames_stale) == (1, 0, 1)

    def test_frame_fed_twice_completes_once(self):
        rx = Reassembler()
        pkts = image_packets(seq=3)
        outcomes = [moved(rx, p) for p in pkts + pkts]
        assert outcomes[:len(pkts)] == [(None, {})] * (len(pkts) - 1) + [(make_image(3), COMPLETE)]
        assert outcomes[len(pkts)] == (None, STALE)
        assert outcomes[len(pkts) + 1:] == [(None, ORPHAN)] * (len(pkts) - 1)  # no slot reopened
        stats = rx.stats()
        assert (stats.frames_complete, stats.frames_stale, stats.sender_restarts) == (1, 1, 0)

    def test_fragment_without_start_is_orphan(self):
        rx = Reassembler()
        pkts = image_packets(seq=9)
        assert moved(rx, pkts[1]) == (None, ORPHAN)
        assert rx._slot is None

    def test_duplicate_start(self):
        rx = Reassembler()
        pkts = image_packets(seq=3)
        rx.step(pkts[0])
        assert moved(rx, pkts[0]) == (None, DUPLICATE)
        assert step_each(rx, pkts[1:]) == [make_image(3)]  # the open frame is kept

    def test_duplicate_fragment(self):
        rx = Reassembler()
        pkts = image_packets(seq=3)
        rx.step(pkts[0])
        rx.step(pkts[1])
        assert moved(rx, pkts[1]) == (None, DUPLICATE)
        assert rx._slot.remaining == len(pkts) - 2  # the repeat filled nothing
        # the duplicate must not corrupt the frame
        for p in pkts[2:-1]:
            rx.step(p)
        assert rx.step(pkts[-1]) == make_image(3)

    def test_wrong_length_fragment_is_orphan(self):
        rx = Reassembler()
        pkts = image_packets(seq=3, frag_payload=256)
        rx.step(pkts[0])
        bad_header = PacketHeader(
            stream_id=StreamId.IMAGE, kind=PacketKind.FRAGMENT, seq=3,
            frag_index=pkts[1].header.frag_index, frag_count=pkts[1].header.frag_count,
            payload_len=100, timestamp_us=0)
        assert moved(rx, Packet(header=bad_header, payload=b"\x00" * 100)) == (None, ORPHAN)
        assert step_each(rx, pkts[1:]) == [make_image(3)]  # its place still takes the right one

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
        assert moved(rx, rogue) == (None, ORPHAN)
        assert step_each(rx, pkts[1:]) == [make_image(3)]

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
        assert moved(rx, lying) == (None, ORPHAN)
        assert moved(rx, pkts[1]) == (None, ORPHAN)  # it opened no slot

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
        assert moved(rx, start(1280, 962)) == (None, ORPHAN)
        assert moved(rx, first) == (None, ORPHAN)  # no slot opened
        assert moved(rx, start(1280, 960)) == (None, {})
        assert moved(rx, first) == (None, {})  # the largest frame's slot takes it

    def test_single_packet_is_orphan(self):
        rx = Reassembler()
        pkt = packetize_single(b"reading", StreamId.MOTION, seq=8, timestamp_us=44)
        assert moved(rx, pkt) == (None, ORPHAN)
        assert moved(rx, image_packets(seq=8)[1]) == (None, ORPHAN)  # no slot opened

    def test_single_mid_frame_does_not_interfere(self):
        rx = Reassembler()
        pkts = image_packets(seq=1)
        rx.step(pkts[0])
        # valid START metadata in a SINGLE still announces no fragments
        single = packetize_single(pkts[0].payload, StreamId.IMAGE, seq=2, timestamp_us=0)
        assert moved(rx, single) == (None, ORPHAN)
        for p in pkts[1:-1]:
            rx.step(p)
        assert rx.step(pkts[-1]) == make_image(1)

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

    @pytest.mark.parametrize("meta", [
        struct.pack("<IHHBBH", 1536, 32, 24, 1, 0, 256)[:11],  # short
        struct.pack("<IHHBBH", 1536, 32, 24, 2, 0, 256),  # an unknown encoding
        struct.pack("<IHHBBH", 1536, 32, 24, 1, 1, 256),  # the reserved byte set
        struct.pack("<IHHBBH", 1536, 32, 24, 1, 0, 128),  # frag_payload below the range
    ], ids=["short", "bad-encoding", "reserved-set", "frag-payload-out-of-range"])
    def test_a_malformed_start_sent_twice_is_an_orphan_twice(self, meta):
        rx = Reassembler()
        start = Packet(PacketHeader(StreamId.IMAGE, PacketKind.START, seq=3, frag_count=12,
                                    payload_len=len(meta)), meta)
        assert [moved(rx, start), moved(rx, start)] == [(None, ORPHAN)] * 2
        assert moved(rx, image_packets(seq=3)[1]) == (None, ORPHAN)  # no slot opened
        assert rx.stats().orphan_fragments == 3

    def test_a_start_with_a_writable_payload_opens_its_frame(self):
        start, *frags = image_packets(seq=3)
        rx = Reassembler()
        assert rx.step(Packet(start.header, bytearray(start.payload))) is None
        assert step_each(rx, frags) == [make_image(3)]

    def test_a_parsed_start_and_a_built_one_open_equal_slots(self):
        start = image_packets(seq=3)[0]
        fed, stepped = Reassembler(), Reassembler()
        assert fed.feed(start.to_bytes()) is None and stepped.step(start) is None
        assert type(Packet.from_bytes(start.to_bytes()).payload) is memoryview
        assert type(start.payload) is bytes
        terms = attrgetter(*fragment._Slot.__slots__)
        assert terms(fed._slot) == terms(stepped._slot)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("case", SLOT_RULE_CASES)
    def test_slot_rule_through_every_entry_point(self, case, entry):
        packets, images, orphans, duplicates = slot_rule_case(case)
        got, stats = reassemble_through(entry, packets)
        assert got == images
        assert (stats.orphan_fragments, stats.duplicate_fragments) == (orphans, duplicates)
        assert stats == reassemble_through("step", packets)[1]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("frag_payload, fits", [
        (100, False), (MIN_FRAG_PAYLOAD - 1, False), (MIN_FRAG_PAYLOAD, True),
        (MAX_FRAG_PAYLOAD, True), (MAX_FRAG_PAYLOAD + 1, False)])
    def test_start_outside_the_frag_payload_range_is_orphan(self, frag_payload, fits, entry):
        img = make_image(3, width=320, height=240) if frag_payload > 1000 else make_image(3)
        packets = [Packet.from_bytes(d) for d in packetize_reference(img, frag_payload)]
        images, stats = reassemble_through(entry, packets)
        assert images == ([img] if fits else [])
        assert (stats.orphan_fragments, stats.malformed_packets) == (0 if fits else len(packets), 0)


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
        assert [rx.step(p) for p in pkts][-1] == img

    @staticmethod
    def budget(packets):
        """Feed one frame's ``packets()`` to a reassembler under tracemalloc:
        the image and the peak allocation as a multiple of its pixel bytes."""
        rx = Reassembler()
        images = []
        peak = peak_allocation(lambda: images.extend(rx.step(p) for p in packets()))
        image = images[-1]
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


def step_feed(rx: Reassembler, datagram: bytes):
    """``Receiver.feed``'s path alone: ``Packet.from_bytes``, then ``step``; a
    datagram that fails to parse or is not the image stream's is malformed."""
    try:
        pkt = Packet.from_bytes(datagram)
    except WireError:
        pkt = None
    if pkt is None or pkt.stream_id != StreamId.IMAGE or pkt.kind == PacketKind.SINGLE:
        rx._stats.malformed_packets += 1
        return None
    return rx.step(pkt)


@st.composite
def sent_frames(draw) -> list:
    """Each frame's packets: 1-4 frames of 2-6 fragments from a seq near 0 or
    2**32 - 1, maybe with a restart's jump back."""
    seq = draw(st.one_of(st.integers(0, 20), st.integers(2**32 - 6, 2**32 - 1)))
    n_frames = draw(st.integers(1, 4))
    restart = draw(st.integers(1, 4))  # the frame the sender restarts at, if there is one
    frames = []
    for i in range(n_frames):
        if i == restart:
            seq = (seq - draw(st.integers(16, 2**31))) % 2**32
        height = draw(st.integers(9, 48))  # 16 wide: 288-1536 bytes, 2-6 fragments of 256
        img = random_image(16, height, seq, timestamp_us=draw(st.integers(0, 2**64 - 1)))
        frames.append(packetize_image(img, 256))
        seq = (seq + 1) % 2**32
    return frames


@st.composite
def impaired_datagrams(draw) -> list:
    """``sent_frames``' datagrams, then drops, duplicates, adjacent swaps, byte
    flips (mostly in headers), a fragment index or count set to 0-7, truncations,
    and payloads cut short under a header that announces their new length."""
    datagrams = [p.to_bytes() for frame in draw(sent_frames()) for p in frame]
    ops = st.tuples(st.sampled_from(["drop", "dup", "swap", "flip", "flip-header", "index", "count",
                                     "cut", "shorten"]),
                    st.integers(0, 2**16), st.integers(0, 2**16))
    for op, at, arg in draw(st.lists(ops, max_size=8)):
        if not datagrams:
            break
        i = at % len(datagrams)
        d = datagrams[i]
        if op == "drop":
            del datagrams[i]
        elif op == "dup":
            datagrams.insert(arg % (len(datagrams) + 1), d)
        elif op == "swap" and i + 1 < len(datagrams):
            datagrams[i:i + 2] = datagrams[i + 1], d
        elif op.startswith("flip") and d:
            pos = arg % (min(len(d), HEADER_SIZE) if op == "flip-header" else len(d))
            datagrams[i] = d[:pos] + bytes([d[pos] ^ (1 + at % 255)]) + d[pos + 1:]
        elif op in ("index", "count") and len(d) >= HEADER_SIZE:
            off = 12 if op == "index" else 14  # FORMAT.md: frag_index, then frag_count
            datagrams[i] = d[:off] + struct.pack("<H", arg % 8) + d[off + 2:]
        elif op == "cut" and d:
            datagrams[i] = d[:arg % len(d)]
        elif op == "shorten" and len(d) > HEADER_SIZE:
            n = arg % (len(d) - HEADER_SIZE)  # payload_len sits at offset 16
            datagrams[i] = d[:16] + struct.pack("<H", n) + d[18:HEADER_SIZE + n]
    return datagrams


class TestFeedAgainstStep:
    """``Reassembler.feed`` stores an in-order fragment itself and leaves every
    other datagram to ``Packet.from_bytes`` and ``step``: the same frames and counts."""

    @settings(max_examples=400, deadline=None)
    @given(impaired_datagrams())
    def test_feed_gives_what_from_bytes_then_step_gives(self, datagrams):
        fed, stepped = Reassembler(), Reassembler()
        assert ([img for d in datagrams if (img := fed.feed(d)) is not None]
                == [img for d in datagrams if (img := step_feed(stepped, d)) is not None])
        assert fed.stats() == stepped.stats()

    def test_fed_fragments_do_not_alias_mutable_datagrams(self):
        img = gen_test_image(4, 32, 24)
        rx, images = Reassembler(), []
        for d in map(bytearray, (p.to_bytes() for p in packetize_image(img, 256))):
            images.append(rx.feed(d))
            d[:] = bytes(len(d))
        assert images[-1] == img and rx.stats().frames_complete == 1


PROBABILITIES = st.sampled_from([0.0, 0.05, 0.3, 1.0])


@st.composite
def impaired_packets(draw) -> list:
    """``sent_frames``' packets, some STARTs lost, through an impairer with loss,
    duplication and reordering at a depth of 1 up to the packet count."""
    # a START lost one time in five
    packets = [p for frame in draw(sent_frames()) for p in frame[draw(st.integers(0, 4)) == 0:]]
    cfg = ImpairmentConfig(loss_p=draw(PROBABILITIES), dup_p=draw(PROBABILITIES),
                           reorder_p=draw(PROBABILITIES), reorder_depth=draw(st.integers(1, len(packets))))
    imp = StreamImpairer(cfg, draw(st.integers(0, 2**64 - 1)))
    return imp.push_all(packets) + imp.flush()


def step_all_in_runs(rx: Reassembler, packets: list, cuts) -> list:
    """The images ``step_all`` gives over ``packets`` split at ``cuts``."""
    bounds = [0, *sorted(cuts), len(packets)]
    return [image for a, b in zip(bounds, bounds[1:]) for image in rx.step_all(packets[a:b])]


class TestStepAllAgainstStep:
    """``Reassembler.step_all`` stores an in-order fragment itself and leaves every
    other packet to ``step``: the same images in the same order, and the same counts."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_step_all_gives_what_stepping_each_packet_gives(self, data):
        packets = data.draw(impaired_packets())
        cuts = data.draw(st.lists(st.integers(0, len(packets)), max_size=6))  # mid-frame too
        stepped, run = Reassembler(), Reassembler()
        expected = step_each(stepped, packets)
        assert step_all_in_runs(run, packets, cuts) == expected
        assert run.stats() == stepped.stats()

    def test_a_frame_split_across_calls_completes_once(self):
        img = random_image(16, 48, seq=7)  # 6 fragments
        packets = packetize_image(img, 256)
        for cuts in ([1], [3], [3, 5], [6], list(range(1, 7))):
            rx = Reassembler()  # the frame sent twice: the second START is stale, its fragments orphans
            assert step_all_in_runs(rx, packets + packets, cuts) == [img], cuts
            stats = rx.stats()
            assert (stats.frames_complete, stats.frames_stale, stats.orphan_fragments) == (1, 1, 6), cuts

    def test_step_sees_every_packet_but_the_in_order_fragments(self, monkeypatch):
        seen = []
        step = Reassembler.step
        monkeypatch.setattr(Reassembler, "step", lambda self, pkt: seen.append(pkt) or step(self, pkt))
        packets = image_packets(seq=3)  # a START and 6 fragments
        out = Reassembler().step_all([packets[0], packets[2], packets[2], *packets[1:]])
        assert out == [make_image(3)]
        assert seen == [packets[0], packets[2], packets[2]]  # the START and the two duplicates


def spied(run, packets: list) -> tuple:
    """``run(rx, packets)`` on a fresh reassembler: its images, its final ``stats()``, and what
    it showed each time ``step`` or ``_complete`` started, as ``(position of the packet, method)``
    mapped to ``(stats(), the open slot's remaining count)``."""
    rx, seen, at = Reassembler(), {}, [0]

    def spy(name):
        method = getattr(rx, name)

        def spying(*args):
            seen[at[0], name] = rx.stats(), rx._slot and rx._slot.remaining
            return method(*args)
        setattr(rx, name, spying)

    spy("step")
    spy("_complete")

    def numbered():
        for at[0], pkt in enumerate(packets):
            yield pkt
    return run(rx, numbered()), rx.stats(), seen


class TestStepAllWriteBack:
    """Within one ``step_all`` call the open slot's remaining count and the bytes stored
    may live in locals, but they are whole before every ``step``, at each completion and
    at return: whoever reads them there sees what stepping each packet in turn gives."""

    def check(self, packets, run):
        images, stats, seen = spied(run, packets)
        ref_images, ref_stats, ref_seen = spied(step_each, packets)
        assert images == ref_images
        assert stats == ref_stats
        assert {key: ref_seen[key] for key in seen} == seen
        assert {key for key in seen if key[1] == "_complete"} == {
            key for key in ref_seen if key[1] == "_complete"}

    def test_a_frame_step_all_opens_and_step_finishes(self):
        packets = image_packets(seq=3)  # a START and 6 fragments
        self.check(packets, lambda rx, it: rx.step_all(itertools.islice(it, 4)) + step_each(rx, it))

    def test_a_frame_step_all_opens_and_feed_finishes(self):
        packets = image_packets(seq=3)
        self.check(packets, lambda rx, it: rx.step_all(itertools.islice(it, 4))
                   + [img for p in it if (img := rx.feed(p.to_bytes())) is not None])

    def test_a_run_that_ends_mid_frame_resumes_in_the_next_call(self):
        packets = image_packets(seq=3) + image_packets(seq=4)
        self.check(packets, lambda rx, it: rx.step_all(itertools.islice(it, 4)) + rx.step_all(it))

    def test_the_next_start_evicts_a_half_stored_frame(self):
        first, second = image_packets(seq=3), image_packets(seq=4)
        packets = [*first[:4], first[5], second[0], second[0], *second[1:]]  # and a duplicate START
        self.check(packets, lambda rx, it: rx.step_all(it))

    def test_a_run_that_raises_leaves_whole_counts(self):
        packets = image_packets(seq=3)

        def raising(rx, it):
            def broken():
                yield from itertools.islice(it, 4)
                raise OSError("the source failed")
            with pytest.raises(OSError):
                rx.step_all(broken())
            return step_each(rx, it)
        self.check(packets, raising)


class TestLossOutcomesAgainstOracle:
    def run_subset(self, frames, keep):
        all_packets = [p for f in frames for p in f]
        rx = Reassembler()
        completed = []
        for i, pkt in enumerate(all_packets):
            if not keep[i]:
                continue
            image = rx.step(pkt)
            if image is not None:
                completed.append(image.seq)
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
