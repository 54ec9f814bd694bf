import errno
import math
import struct
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbpk import recorder
from nbpk.bridge import (
    TOPIC_COMMAND,
    TOPIC_IMAGE,
    TOPIC_MOTION,
    BoundedFifo,
    CameraFrame,
    TopicBus,
)
from nbpk.recorder import (
    LOG_HEADER_SIZE,
    RECORD_HEADER_SIZE,
    LogRecord,
    LogWriter,
    Truncated,
    export_ppm,
    image_from_record_payload,
    read_log,
    read_log_epoch_us,
    record,
    record_messages,
    replay,
    yuv422_to_rgb,
)
from nbpk.robotsim import WalkState, gen_motion, gen_test_image
from nbpk.wire import (
    BadMagicError,
    BadVersionError,
    Image,
    MotionRequest,
    START_META_SIZE,
    StreamId,
    TooShortError,
    encode_motion,
    encode_request,
)

from conftest import peak_allocation
from oracles import log_file_bytes, yuv422_to_rgb_reference, yuv_to_rgb_scalar


def image_payload(img: Image) -> bytes:
    """An image record's payload as FORMAT.md lays it out: the 12-byte START
    metadata (encoding 1 = YUV422, reserved 0, frag_payload 1400), then the pixels."""
    return struct.pack("<IHHBBH", len(img.pixels), img.width, img.height, 1, 0, 1400) + img.pixels


def reading(seq: int, timestamp_us: int):
    """A motion reading with ``seq`` at ``timestamp_us``; every one encodes alike."""
    return replace(gen_motion(seq, 0.0, WalkState()), timestamp_us=timestamp_us)


def image_at(seq: int, timestamp_us: int) -> Image:
    return replace(gen_test_image(seq, 32, 24), timestamp_us=timestamp_us)


def restarted_images(before: int, after: int, width=32, height=24) -> list:
    """``before`` frames from seq 100, then ``after`` frames of a restarted
    sender: seq from 0 on a clock starting over."""
    run = [(100 + i, 5_000_000 + i * 33_333) for i in range(before)]
    run += [(i, 1_000 + i * 33_333) for i in range(after)]
    return [replace(gen_test_image(seq, width, height), timestamp_us=t) for seq, t in run]


def sample_messages(n_frames=5, width=32, height=24):
    out = []
    walk = WalkState()
    for i in range(n_frames):
        img = gen_test_image(i, width, height)
        out.append(Image(width=img.width, height=img.height, pixels=img.pixels,
                         seq=i, timestamp_us=i * 33_333))
        out.append(gen_motion(i, i * 0.01, walk))
    return out


class TestLogFile:
    def test_header_layout(self, tmp_path):
        p = tmp_path / "a.nbl"
        LogWriter(p, epoch_us=0x1122334455667788).close()
        raw = p.read_bytes()
        assert raw == b"NBLG\x01\x00\x00\x00" + bytes.fromhex("8877665544332211")
        assert len(raw) == LOG_HEADER_SIZE
        assert read_log_epoch_us(p) == 0x1122334455667788

    def test_record_layout(self, tmp_path):
        p = tmp_path / "a.nbl"
        m = reading(0, 7)
        with LogWriter(p, epoch_us=0) as w:
            w.write_message(m)
        raw = p.read_bytes()[LOG_HEADER_SIZE:]
        payload = encode_motion(m)
        assert raw == struct.pack("<BBIQ", 2, 0, len(payload), 7) + payload
        assert len(raw) == RECORD_HEADER_SIZE + len(payload)

    def test_image_record_golden_bytes(self, tmp_path):
        # built by hand from FORMAT.md: the record header, then the 12-byte
        # START metadata (encoding 1 = YUV422, reserved 0), then the pixels
        p = tmp_path / "a.nbl"
        img = replace(gen_test_image(7, 32, 24), timestamp_us=123456789)
        assert record_messages([img], p, epoch_us=0) == 1
        meta = struct.pack("<IHHBBH", 1536, 32, 24, 1, 0, 1400)
        assert meta.hex() == "00060000" "2000" "1800" "01" "00" "7805"
        assert p.read_bytes() == (b"NBLG\x01\x00\x00\x00" + bytes(8)
                                  + struct.pack("<BBIQ", 1, 0, 12 + 1536, 123456789)
                                  + meta + img.pixels)

    def test_restart_flag_is_bit_0_of_the_reserved_byte(self, tmp_path):
        # the sender restarted between the two readings: its seq and clock started over
        p = tmp_path / "a.nbl"
        before, after = reading(100, 9), reading(0, 7)
        assert record_messages([before, after], p, epoch_us=0) == 2
        payload = encode_motion(before)
        assert encode_motion(after) == payload
        assert p.read_bytes()[LOG_HEADER_SIZE:] == (struct.pack("<BBIQ", 2, 0, len(payload), 9) + payload
                                                    + struct.pack("<BBIQ", 2, 1, len(payload), 7) + payload)
        assert list(read_log(p)) == [LogRecord(StreamId.MOTION, 9, payload),
                                     LogRecord(StreamId.MOTION, 7, payload, restart=True)]

    def test_reader_takes_restart_from_bit_0_alone(self, tmp_path):
        # the other flag bits are written as 0 and ignored on read
        p = tmp_path / "a.nbl"
        p.write_bytes(log_file_bytes([(2, 0x01, 9, b"\xbb"), (2, 0xFE, 7, b"\xaa"), (3, 0xFF, 0, b"")]))
        assert list(read_log(p)) == [LogRecord(StreamId.MOTION, 9, b"\xbb", restart=True),
                                     LogRecord(StreamId.MOTION, 7, b"\xaa"),
                                     LogRecord(StreamId.COMMAND, 0, b"", restart=True)]

    @pytest.mark.parametrize("stream_id", [0, 4, 9, 255])
    def test_an_unknown_stream_byte_reads_as_a_tear(self, tmp_path, stream_id):
        # the writer has no way to write one: such a record would hide every later one
        p = tmp_path / "a.nbl"
        p.write_bytes(log_file_bytes([(2, 0, 1, b"a"), (stream_id, 0, 2, b"b"), (2, 0, 3, b"c")]))
        assert list(read_log(p)) == [LogRecord(StreamId.MOTION, 1, b"a"),
                                     Truncated(offset=LOG_HEADER_SIZE + RECORD_HEADER_SIZE + 1)]

    def test_write_message_never_flags_a_streams_first_record(self, tmp_path):
        # there is no earlier sender run for the flag to end, and replay could not keep it.
        # Motion's first seq, 50 behind the image's, starts motion's own order.
        p = tmp_path / "a.nbl"
        msgs = [image_at(100, 5), reading(50, 7), reading(51, 8), reading(0, 2)]
        assert record_messages(msgs, p) == 4
        assert [(r.stream_id, r.restart) for r in read_log(p)] == [
            (StreamId.IMAGE, False), (StreamId.MOTION, False), (StreamId.MOTION, False),
            (StreamId.MOTION, True)]

    def test_empty_log_is_valid(self, tmp_path):
        p = tmp_path / "a.nbl"
        assert record_messages([], p) == 0
        assert list(read_log(p)) == []

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "a.nbl"
        p.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(BadMagicError):
            list(read_log(p))

    def test_bad_version(self, tmp_path):
        p = tmp_path / "a.nbl"
        p.write_bytes(b"NBLG\x09" + b"\x00" * 11)
        with pytest.raises(BadVersionError):
            list(read_log(p))

    def test_short_header(self, tmp_path):
        p = tmp_path / "a.nbl"
        p.write_bytes(b"NBLG\x01")
        with pytest.raises(TooShortError):
            read_log_epoch_us(p)

    def test_short_header_stops_read_log_before_any_record(self, tmp_path):
        p = tmp_path / "a.nbl"
        p.write_bytes(b"NBLG\x01")
        with pytest.raises(TooShortError):
            next(read_log(p))

    def test_read_log_opens_the_file_once(self, tmp_path, monkeypatch):
        p = tmp_path / "a.nbl"
        record_messages(sample_messages(2), p)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(recorder, "open", counting_open, raising=False)
        assert len(list(read_log(p))) == 4
        assert opened == [p]

    def test_roundtrip_bytes_identical(self, tmp_path):
        p = tmp_path / "a.nbl"
        msgs = sample_messages()
        record_messages(msgs, p)
        assert list(read_log(p)) == [
            LogRecord(StreamId.IMAGE, m.timestamp_us, image_payload(m)) if isinstance(m, Image)
            else LogRecord(StreamId.MOTION, m.timestamp_us, encode_motion(m)) for m in msgs]

    def test_camera_frame_unwraps_to_image_record(self, tmp_path):
        p = tmp_path / "a.nbl"
        img = replace(gen_test_image(3, 32, 24), timestamp_us=77)
        record_messages([CameraFrame(image=img, recv_timestamp_us=999)], p)
        [rec] = read_log(p)
        assert rec == LogRecord(StreamId.IMAGE, 77, image_payload(img))
        back = image_from_record_payload(rec.payload, seq=img.seq,
                                         timestamp_us=img.timestamp_us)
        assert back == img

    def test_request_record(self, tmp_path):
        # a command carries no timestamp: it is logged at 0
        p = tmp_path / "a.nbl"
        request = MotionRequest.walk(0.25, -0.1, 0.5)
        record_messages([request], p)
        [rec] = read_log(p)
        assert rec == LogRecord(StreamId.COMMAND, 0, encode_request(request))
        assert len(rec.payload) == 14

    def test_unsupported_message_type(self, tmp_path):
        p = tmp_path / "a.nbl"
        with LogWriter(p, epoch_us=0) as w:
            with pytest.raises(TypeError):
                w.write_message("not a bus message")
            assert w.records_written == 0
        assert p.stat().st_size == LOG_HEADER_SIZE

    def test_image_payload_length_mismatch(self):
        img = gen_test_image(0, 32, 24)
        with pytest.raises(TooShortError):
            image_from_record_payload(image_payload(img)[:-1])

    def test_write_message_does_not_copy_the_pixels(self, tmp_path):
        # the record header and START metadata go out first, then the pixels as they are
        img = gen_test_image(3)  # 320x240: 153,600 pixel bytes
        with LogWriter(tmp_path / "a.nbl", epoch_us=0) as w:
            peak = peak_allocation(lambda: w.write_message(img))
        assert peak < 0.5 * len(img.pixels)

    def test_monotonic_timestamps_enforced_per_stream(self, tmp_path):
        p = tmp_path / "a.nbl"
        with LogWriter(p, epoch_us=0) as w:
            w.write_message(image_at(100, 100))
            w.write_message(reading(0, 50))  # other stream: independent clock
            w.write_message(image_at(101, 100))  # equal is fine
            with pytest.raises(ValueError):
                w.write_message(image_at(102, 99))
            w.write_message(image_at(0, 5))  # the sender restarted: a new run, a new floor
            with pytest.raises(ValueError):
                w.write_message(image_at(1, 4))
        # the rejected records left no partial bytes behind
        assert [(r.timestamp_us, r.restart) for r in read_log(p)] == [
            (100, False), (50, False), (100, False), (5, True)]

    def test_negative_timestamp_on_a_streams_first_record_rejected(self, tmp_path):
        p = tmp_path / "a.nbl"
        with LogWriter(p, epoch_us=0) as w:
            with pytest.raises(ValueError, match="non-decreasing"):
                w.write_message(reading(0, -1))
        assert list(read_log(p)) == []

    @pytest.mark.parametrize("timestamp_us, restart", [(2**64, False), (1.5, False),
                                                       (-1, True), ("5", False), (None, False)])
    def test_timestamp_outside_u64_rejected_and_nothing_written(self, tmp_path, timestamp_us,
                                                                restart):
        p = tmp_path / "a.nbl"
        with LogWriter(p, epoch_us=0) as w:
            w.write_message(reading(100, 1))
            with pytest.raises(ValueError):  # a seq 100 behind is a sender restart
                w.write_message(reading(0 if restart else 101, timestamp_us))
            assert w.records_written == 1
        assert list(read_log(p)) == [LogRecord(StreamId.MOTION, 1, encode_motion(reading(100, 1)))]

    @pytest.mark.parametrize("refusal", ["timestamp", "write"])
    def test_a_refused_record_leaves_its_streams_restart_to_the_retry(self, tmp_path, monkeypatch,
                                                                       refusal):
        # the restarted sender's first frame is refused, by its stamp or by a
        # failed write; its retry is still that restart and is written as one
        class FailingFile:
            def __init__(self, f):
                self._f = f

            def write(self, b):
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(self._f, name)

        p = tmp_path / "a.nbl"
        with LogWriter(p, epoch_us=0) as w:
            w.write_message(image_at(100, 5_000_000))
            if refusal == "timestamp":
                with pytest.raises(ValueError, match="timestamp_us"):
                    w.write_message(image_at(0, -1))
            else:
                with monkeypatch.context() as m, pytest.raises(OSError):
                    m.setattr(w, "_f", FailingFile(w._f))
                    w.write_message(image_at(0, 1_000))
            w.write_message(image_at(0, 1_000))
            assert w.records_written == 2
        assert [(r.timestamp_us, r.restart) for r in read_log(p)] == [(5_000_000, False),
                                                                      (1_000, True)]

    def test_payload_of_4_gib_rejected_and_nothing_written(self, tmp_path):
        class Huge(bytes):  # claims the length of a payload u32 cannot hold
            def __len__(self):
                return 2**32

        p = tmp_path / "a.nbl"
        first = image_at(0, 1)
        with LogWriter(p, epoch_us=0) as w:
            w.write_message(first)
            with pytest.raises(ValueError):
                w.write_message(Image(65536, 32768, Huge(b"x"), seq=1, timestamp_us=2))
        assert list(read_log(p)) == [LogRecord(StreamId.IMAGE, 1, image_payload(first))]

    def test_record_messages_flags_a_sender_restart(self, tmp_path):
        # seq 100-119, then the sender restarts: seq 0-9 on a clock starting over
        p = tmp_path / "a.nbl"
        assert record_messages(restarted_images(20, 10), p) == 30
        assert [r.restart for r in read_log(p)] == [False] * 20 + [True] + [False] * 9

    def test_write_message_keeps_one_seq_order_per_stream(self, tmp_path):
        p = tmp_path / "a.nbl"
        walk = WalkState()
        msgs = [*restarted_images(2, 2), gen_motion(0, 0.0, walk), gen_motion(1, 0.01, walk),
                MotionRequest.stand()]
        record_messages(msgs, p)
        assert [r.restart for r in read_log(p)] == [False, False, True, False, False, False, False]


class TestTruncation:
    def write_two(self, p):
        raw = log_file_bytes([(2, 0, 10, b"A" * 20), (2, 0, 20, b"B" * 20)])
        p.write_bytes(raw)
        return raw

    def test_cut_mid_payload(self, tmp_path):
        p = tmp_path / "a.nbl"
        raw = self.write_two(p)
        p.write_bytes(raw[:-5])
        recs = list(read_log(p))
        assert len(recs) == 2
        assert recs[0].payload == b"A" * 20
        second_start = LOG_HEADER_SIZE + RECORD_HEADER_SIZE + 20
        assert recs[1] == Truncated(offset=second_start)

    def test_cut_mid_record_header(self, tmp_path):
        p = tmp_path / "a.nbl"
        raw = self.write_two(p)
        cut = LOG_HEADER_SIZE + RECORD_HEADER_SIZE + 20 + 6
        p.write_bytes(raw[:cut])
        recs = list(read_log(p))
        assert recs[0].payload == b"A" * 20
        assert isinstance(recs[1], Truncated)

    def test_cut_on_record_boundary_is_clean(self, tmp_path):
        p = tmp_path / "a.nbl"
        raw = self.write_two(p)
        cut = LOG_HEADER_SIZE + RECORD_HEADER_SIZE + 20
        p.write_bytes(raw[:cut])
        recs = list(read_log(p))
        assert len(recs) == 1
        assert isinstance(recs[0], LogRecord)

    def test_unknown_stream_id_stops_reader(self, tmp_path):
        p = tmp_path / "a.nbl"
        p.write_bytes(log_file_bytes([(2, 0, 10, b"A" * 20), (200, 0, 20, b"B" * 20)]))
        recs = list(read_log(p))
        assert isinstance(recs[0], LogRecord)
        assert recs[1] == Truncated(offset=LOG_HEADER_SIZE + RECORD_HEADER_SIZE + 20)

    def test_every_prefix_of_valid_log_reads_cleanly(self, tmp_path):
        p = tmp_path / "a.nbl"
        raw = self.write_two(p)
        q = tmp_path / "cut.nbl"
        for cut in range(LOG_HEADER_SIZE, len(raw) + 1):
            q.write_bytes(raw[:cut])
            recs = list(read_log(q))  # must never raise past the header
            complete = [r for r in recs if isinstance(r, LogRecord)]
            assert len(complete) <= 2

    @settings(max_examples=50, deadline=None)
    @given(records=st.lists(st.tuples(st.sampled_from([1, 2, 3]), st.integers(0, 255),
                                      st.integers(0, 2**64 - 1), st.binary(max_size=40)),
                            max_size=4),
           cut=st.integers(0, 250))
    def test_any_records_read_back_up_to_any_cut(self, tmp_path_factory, records, cut):
        # read against the file laid out by hand: every whole record, then a
        # Truncated where the cut falls inside one
        raw = log_file_bytes(records)
        cut = min(LOG_HEADER_SIZE + cut, len(raw))
        p = tmp_path_factory.mktemp("cut") / "a.nbl"
        p.write_bytes(raw[:cut])
        want, end = [], LOG_HEADER_SIZE
        for stream_id, flags, timestamp_us, payload in records:
            if end + RECORD_HEADER_SIZE + len(payload) > cut:
                if end < cut:
                    want.append(Truncated(offset=end))
                break
            want.append(LogRecord(StreamId(stream_id), timestamp_us, payload, bool(flags & 1)))
            end += RECORD_HEADER_SIZE + len(payload)
        assert list(read_log(p)) == want

    def test_failed_write_leaves_no_hole(self, tmp_path, monkeypatch):
        """A write that fails part-way is cut back, and the next record lands
        where the cut one began: the reader sees every good record."""
        class FailingPayload:
            def __init__(self, f, bad):
                self._f, self._bad = f, bad

            def write(self, b):
                if bytes(b) == self._bad:
                    self._f.write(b[:3])
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self._f.write(b)

            def __getattr__(self, name):
                return getattr(self._f, name)

        img = image_at(1, 20)
        payload = encode_motion(reading(0, 0))
        failing_writes = {  # the bytes whose write fails, and the record they belong to
            struct.pack("<BBIQ", 2, 0, len(payload), 20) + payload: reading(1, 20),  # in one write
            img.pixels: img,  # after its header and metadata went out
        }
        for i, (bad, message) in enumerate(failing_writes.items()):
            p = tmp_path / f"{i}.nbl"
            with LogWriter(p, epoch_us=0) as w:
                w.write_message(reading(0, 10))
                monkeypatch.setattr(w, "_f", FailingPayload(w._f, bad))
                with pytest.raises(OSError):
                    w.write_message(message)
                w.write_message(reading(2, 30))
            assert list(read_log(p)) == [LogRecord(StreamId.MOTION, 10, payload),
                                         LogRecord(StreamId.MOTION, 30, payload)]
            assert p.stat().st_size == LOG_HEADER_SIZE + 2 * (RECORD_HEADER_SIZE + len(payload))


class TestReplay:
    def test_replay_restores_messages(self, tmp_path):
        p = tmp_path / "a.nbl"
        msgs = sample_messages()
        record_messages(msgs, p)
        bus = TopicBus()
        imgs = bus.subscribe(TOPIC_IMAGE, BoundedFifo(64))
        mots = bus.subscribe(TOPIC_MOTION, BoundedFifo(64))
        n = replay(p, bus, speed=math.inf)
        assert n == len(msgs)
        frames = imgs.drain()
        readings = mots.drain()
        assert [f.image for f in frames] == [m for m in msgs if isinstance(m, Image)]
        # float fields come back f32-quantized; the wire bytes are the fixed point
        originals = [m for m in msgs if not isinstance(m, Image)]
        assert [encode_motion(r) for r in readings] == [encode_motion(m) for m in originals]
        assert [r.timestamp_us for r in readings] == [m.timestamp_us for m in originals]

    def test_replay_reassigns_seq_from_zero(self, tmp_path):
        p = tmp_path / "a.nbl"
        imgs = [gen_test_image(seq, 32, 24) for seq in (100, 101, 102)]
        record_messages(imgs, p)
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(8))
        replay(p, bus, speed=math.inf)
        # the embedded pattern still names the original seq; the envelope doesn't
        out = sub.drain()
        assert [f.image.seq for f in out] == [0, 1, 2]
        assert [f.image.pixels for f in out] == [i.pixels for i in imgs]

    def test_replay_steps_the_seq_back_at_a_restart(self, tmp_path):
        # back by RESTART_WINDOW, the least jump SeqOrder reads as a restart; then
        # counting up wraps mod 2**32
        p = tmp_path / "a.nbl"
        record_messages(restarted_images(1, 20), p)
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(32))
        replay(p, bus, speed=math.inf)
        assert [f.image.seq for f in sub.drain()] == [0, *range(2**32 - 16, 2**32), *range(4)]

    @pytest.mark.parametrize("before", [1, 5, 20])
    def test_rerecording_a_restarted_log_is_byte_identical(self, tmp_path, before):
        original, rerecorded = tmp_path / "a.nbl", tmp_path / "b.nbl"
        record_messages(restarted_images(before, 20), original, epoch_us=7)
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(64))
        assert replay(original, bus, speed=math.inf) == before + 20
        assert record_messages(sub.drain(), rerecorded, epoch_us=7) == before + 20
        assert [r.restart for r in read_log(original)].index(True) == before
        assert rerecorded.read_bytes() == original.read_bytes()

    def test_replay_requests(self, tmp_path):
        p = tmp_path / "a.nbl"
        record_messages([MotionRequest.walk(0.1), MotionRequest.stand()], p)
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_COMMAND, BoundedFifo(8))
        assert replay(p, bus, speed=math.inf) == 2
        got = sub.drain()
        assert got[0].vx == pytest.approx(0.1, abs=1e-6)
        assert got[1] == MotionRequest.stand()

    def test_replay_paces_by_timestamp_delta(self, tmp_path):
        p = tmp_path / "a.nbl"
        p.write_bytes(log_file_bytes([(2, 0, 0, b"\x00" * 46),  # zero-joint reading
                                      (2, 0, 400_000, b"\x00" * 46)]))
        bus = TopicBus()
        bus.subscribe(TOPIC_MOTION, BoundedFifo(8))
        t0 = time.monotonic()
        replay(p, bus, speed=2.0)
        elapsed = time.monotonic() - t0
        assert 0.12 <= elapsed <= 0.45  # 0.4 s of log at double speed

    def test_replay_paces_a_command_between_images_by_the_image_gap(self, tmp_path, monkeypatch):
        # commands are logged with timestamp 0; the next image must not wait
        # out its whole timestamp again
        p = tmp_path / "a.nbl"
        first = replace(gen_test_image(0, 32, 24), timestamp_us=5_000_000)
        second = replace(gen_test_image(1, 32, 24), timestamp_us=5_033_000)
        record_messages([first, MotionRequest.stand(), second], p)
        sleeps = []
        monkeypatch.setattr(recorder.time, "sleep", sleeps.append)
        assert replay(p, TopicBus(), speed=1.0) == 3
        assert sum(sleeps) == pytest.approx(0.033)

    def test_replay_paces_the_records_after_a_sender_restart(self, tmp_path, monkeypatch):
        # the sender's clock started over at the third record: pacing starts over there
        p = tmp_path / "a.nbl"
        p.write_bytes(log_file_bytes([(2, flags, t, b"\x00" * 46) for t, flags in (
            (5_000_000, 0), (5_033_000, 0), (1_000, 1), (34_000, 0))]))
        sleeps = []
        monkeypatch.setattr(recorder.time, "sleep", sleeps.append)
        assert replay(p, TopicBus(), speed=1.0) == 4
        assert sleeps == pytest.approx([0.033, 0.033])

    def test_replay_speed_must_be_positive(self, tmp_path):
        p = tmp_path / "a.nbl"
        record_messages([], p)
        with pytest.raises(ValueError):
            replay(p, TopicBus(), speed=0.0)

    def test_replay_truncated_prefix(self, tmp_path):
        p = tmp_path / "a.nbl"
        msgs = sample_messages(n_frames=3)
        record_messages(msgs[:4], p)
        image_at = p.stat().st_size  # where the third image's record starts
        record_messages(msgs, p)
        raw = p.read_bytes()
        last_at = len(raw) - RECORD_HEADER_SIZE - len(encode_motion(msgs[5]))
        cuts = [  # (cut, where the valid prefix ends, records, images, readings replayed)
            (len(raw) - 3, last_at, 5, 3, 2),  # the sixth record lost its tail
            (image_at + RECORD_HEADER_SIZE + 5, image_at, 4, 2, 2),  # inside the image's metadata
            (image_at + RECORD_HEADER_SIZE + START_META_SIZE + 100, image_at, 4, 2, 2),  # its pixels
        ]
        for cut, torn_at, records, images, readings in cuts:
            p.write_bytes(raw[:cut])
            assert list(read_log(p))[-1] == Truncated(offset=torn_at), cut
            bus = TopicBus()
            imgs = bus.subscribe(TOPIC_IMAGE, BoundedFifo(8))
            mots = bus.subscribe(TOPIC_MOTION, BoundedFifo(8))
            assert replay(p, bus, speed=math.inf) == records, cut
            assert (len(imgs.drain()), len(mots.drain())) == (images, readings), cut
        # a whole record whose pixels fall one byte short of its metadata's total_len
        p.write_bytes(log_file_bytes([(1, 0, 0, image_payload(gen_test_image(0, 32, 24))[:-1])]))
        with pytest.raises(TooShortError):
            replay(p, TopicBus(), speed=math.inf)

    def test_replay_reads_each_pixel_byte_once(self, tmp_path):
        # the bytes read from the file are the frame's pixels: no slice in between
        p = tmp_path / "a.nbl"
        img = gen_test_image(3)  # 320x240: 153,600 pixel bytes
        record_messages([img], p)
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_IMAGE, BoundedFifo(2))
        peak = peak_allocation(lambda: replay(p, bus, speed=math.inf))
        [frame] = sub.drain()
        assert frame.image == replace(img, seq=0) and type(frame.image.pixels) is bytes
        assert peak < 1.5 * len(img.pixels)


class TestLiveRecord:
    def test_record_from_bus(self, tmp_path):
        import threading

        p = tmp_path / "a.nbl"
        bus = TopicBus()
        msgs = sample_messages(n_frames=10)

        def feed():
            time.sleep(0.05)
            for m in msgs:
                if isinstance(m, Image):
                    bus.publish(TOPIC_IMAGE, CameraFrame(image=m, recv_timestamp_us=0))
                else:
                    bus.publish(TOPIC_MOTION, m)
                time.sleep(0.002)

        th = threading.Thread(target=feed)
        th.start()
        n = record(bus, p, duration_s=0.5)
        th.join()
        assert n == len(msgs)
        recs = [r for r in read_log(p) if isinstance(r, LogRecord)]
        by_stream = {}
        for r in recs:
            by_stream.setdefault(r.stream_id, []).append(r)
        assert len(by_stream[StreamId.IMAGE]) == 10
        assert len(by_stream[StreamId.MOTION]) == 10
        for r, img in zip(by_stream[StreamId.IMAGE], (m for m in msgs if isinstance(m, Image))):
            assert r.payload == image_payload(img)

    def test_record_keeps_writing_across_a_sender_restart(self, tmp_path):
        # the image sender restarted: its seq and clock start over; motion runs on
        import threading

        p = tmp_path / "a.nbl"
        bus = TopicBus()
        frames = [CameraFrame(image=replace(gen_test_image(seq, 32, 24), timestamp_us=t),
                              recv_timestamp_us=0)
                  for seq, t in ((100, 5_000_000), (101, 5_033_000), (0, 1_000), (1, 34_000))]
        readings = [gen_motion(seq, seq * 0.01, WalkState()) for seq in range(4)]

        def feed():
            time.sleep(0.05)
            for frame, reading in zip(frames, readings):
                bus.publish(TOPIC_IMAGE, frame)
                bus.publish(TOPIC_MOTION, reading)
                time.sleep(0.002)

        th = threading.Thread(target=feed)
        th.start()
        n = record(bus, p, duration_s=0.3)
        th.join()
        assert n == 8
        recs = [r for r in read_log(p) if isinstance(r, LogRecord)]
        images = [r for r in recs if r.stream_id == StreamId.IMAGE]
        motions = [r for r in recs if r.stream_id == StreamId.MOTION]
        assert [(r.timestamp_us, r.restart) for r in images] == [
            (5_000_000, False), (5_033_000, False), (1_000, True), (34_000, False)]
        assert [r.restart for r in motions] == [False] * 4  # each stream keeps its own order

    def test_record_nothing_still_writes_header(self, tmp_path):
        p = tmp_path / "a.nbl"
        assert record(TopicBus(), p, duration_s=0.05) == 0
        assert read_log_epoch_us(p) > 0

    @pytest.mark.parametrize("duration_s", [0, -1, math.nan, math.inf])
    def test_record_refuses_a_duration_that_never_ends_or_never_starts(self, tmp_path, duration_s):
        p = tmp_path / "a.nbl"
        with pytest.raises(ValueError, match="duration_s"):
            record(TopicBus(), p, duration_s, stopped=lambda: True)  # ends at once if accepted
        assert not p.exists()


def make_yuyv(width, height, quads):
    """Tile (y0, u, y1, v) quads across a frame."""
    row = b"".join(bytes(q) for q in quads)
    assert len(row) == width * 2
    return Image(width=width, height=height, pixels=row * height, seq=0, timestamp_us=0)


class TestYuvConversion:
    def test_grey_maps_to_grey(self):
        img = make_yuyv(2, 2, [(128, 128, 128, 128)])
        assert np.array_equal(yuv422_to_rgb(img), np.full((2, 2, 3), 128, np.uint8))

    def test_extremes_clamp(self):
        img = make_yuyv(2, 1, [(255, 128, 0, 128)])
        rgb = yuv422_to_rgb(img)
        assert tuple(rgb[0, 0]) == (255, 255, 255)
        assert tuple(rgb[0, 1]) == (0, 0, 0)

    def test_saturated_red(self):
        img = make_yuyv(2, 1, [(81, 90, 81, 240)])
        rgb = yuv422_to_rgb(img)
        assert tuple(rgb[0, 0]) == (238, 14, 14)
        assert tuple(rgb[0, 1]) == (238, 14, 14)

    @given(st.tuples(st.integers(0, 255), st.integers(0, 255),
                     st.integers(0, 255), st.integers(0, 255)))
    def test_matches_scalar_reference(self, quad):
        y0, u, y1, v = quad
        img = make_yuyv(2, 1, [quad])
        rgb = yuv422_to_rgb(img)
        assert tuple(rgb[0, 0]) == yuv_to_rgb_scalar(y0, u, v)
        assert tuple(rgb[0, 1]) == yuv_to_rgb_scalar(y1, u, v)

    def test_odd_width_rejected(self):
        img = Image(width=3, height=1, pixels=b"\x80" * 6, seq=0, timestamp_us=0)
        with pytest.raises(ValueError):
            yuv422_to_rgb(img)

    def test_shape(self):
        img = gen_test_image(0, 32, 24)
        assert yuv422_to_rgb(img).shape == (24, 32, 3)

    def test_g_tie_pair_matches_the_scalar_formula_for_every_y(self):
        # At U=78, V=178 G's exact chroma term is -18.5, a tie, and float64
        # rounds it up for some Y and down for others.
        ys = list(range(256))
        img = make_yuyv(512, 1, [(y, 78, 255 - y, 178) for y in ys])
        rgb = yuv422_to_rgb(img)
        for y in ys:
            assert tuple(rgb[0, 2 * y]) == yuv_to_rgb_scalar(y, 78, 178)
            assert tuple(rgb[0, 2 * y + 1]) == yuv_to_rgb_scalar(255 - y, 78, 178)

    def test_peak_allocation_stays_within_5x_the_output(self):
        img = gen_test_image(3)  # 320x240: 230,400 bytes of RGB
        yuv422_to_rgb(img)  # the first call builds the chroma tables, once per process
        peak = peak_allocation(lambda: yuv422_to_rgb(img))
        assert peak <= 5 * 320 * 240 * 3


class TestYuvExactness:
    """The library against the original full-resolution float64 formula
    (``oracles.yuv422_to_rgb_reference``), bit for bit."""

    def test_every_yuv_triple(self):
        # Chunk u is a 512x256 frame whose row v, pair y is (y, u, 255-y, v):
        # both Y slots see every (Y, U, V) triple over the 256 chunks.
        ys = np.arange(256, dtype=np.uint8)
        quads = np.empty((256, 256, 4), dtype=np.uint8)
        quads[:, :, 0] = ys
        quads[:, :, 2] = 255 - ys
        quads[:, :, 3] = ys[:, None]
        for u in range(256):
            quads[:, :, 1] = u
            img = Image(width=512, height=256, pixels=quads.tobytes(), seq=0, timestamp_us=0)
            got, want = yuv422_to_rgb(img), yuv422_to_rgb_reference(img)
            assert np.array_equal(got, want), f"U={u}: {np.count_nonzero(got != want)} bytes differ"

    @pytest.mark.parametrize("width,height", [(2, 1), (2, 3), (320, 240), (1280, 960)])
    def test_random_frames(self, width, height):
        rng = np.random.default_rng(width * 1000 + height)
        pixels = rng.integers(0, 256, size=width * height * 2, dtype=np.uint8).tobytes()
        img = Image(width=width, height=height, pixels=pixels, seq=0, timestamp_us=0)
        got = yuv422_to_rgb(img)
        assert got.shape == (height, width, 3) and got.dtype == np.uint8
        assert np.array_equal(got, yuv422_to_rgb_reference(img))


class TestPpmExport:
    def test_golden_bytes(self, tmp_path):
        p = tmp_path / "a.ppm"
        export_ppm(make_yuyv(2, 1, [(128, 128, 128, 128)]), p)
        assert p.read_bytes() == b"P6\n2 1\n255\n" + b"\x80" * 6

    def test_full_frame_size(self, tmp_path):
        p = tmp_path / "a.ppm"
        export_ppm(gen_test_image(0, 32, 24), p)
        raw = p.read_bytes()
        assert raw.startswith(b"P6\n32 24\n255\n")
        assert len(raw) == len(b"P6\n32 24\n255\n") + 32 * 24 * 3

    @pytest.mark.parametrize("width,height", [(320, 240), (2, 3)])
    def test_random_frame_is_header_then_reference_rgb(self, tmp_path, width, height):
        rng = np.random.default_rng(width + height)
        pixels = rng.integers(0, 256, size=width * height * 2, dtype=np.uint8).tobytes()
        img = Image(width=width, height=height, pixels=pixels, seq=0, timestamp_us=0)
        p = tmp_path / "a.ppm"
        export_ppm(img, p)
        header = b"P6\n%d %d\n255\n" % (width, height)
        assert p.read_bytes() == header + yuv422_to_rgb_reference(img).tobytes()
