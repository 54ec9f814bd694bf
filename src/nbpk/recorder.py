"""Dataset logging, replay, and image export.

Log files (``.nbl``) are append-only and self-delimiting: a 16-byte file
header followed by length-prefixed records, so any prefix that ends on a
record boundary is itself a valid log. Records store payload bytes exactly
as they crossed the bus; sequence numbers are not stored and are assigned
afresh on replay.

File header:  magic "NBLG" | version u8 | 3 reserved bytes | epoch wall-clock µs u64
Record:       stream_id u8 | flags u8 | payload_len u32 | timestamp_us u64 | payload
Image record payload: 12-byte start metadata (geometry, YUV422) + pixel bytes.
Flag bit 0 (``RESTART``) marks a stream's first record after its sender
restarted: the sender's seq and clock started over there. The writer sets
it from the message's seq, and replay steps the seq back there so that a
re-recording sets it again.
"""

from __future__ import annotations

import functools
import math
import struct
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .bridge import (
    TOPIC_COMMAND,
    TOPIC_IMAGE,
    TOPIC_MOTION,
    BoundedFifo,
    CameraFrame,
    TopicBus,
)
from .wire import (
    BadMagicError,
    BadVersionError,
    Image,
    ImageStartMeta,
    MotionReading,
    MotionRequest,
    RESTART_WINDOW,
    START_META_SIZE,
    SeqOrder,
    StreamId,
    TooShortError,
    decode_motion,
    decode_request,
    decode_start_meta,
    encode_motion,
    encode_request,
    encode_start_meta,
)

LOG_MAGIC = b"NBLG"
LOG_VERSION = 1
LOG_HEADER_SIZE = 16
RECORD_HEADER_SIZE = 14
RESTART = 0x01  # record flag: the stream's sender restarted at this record
_STREAM_IDS = frozenset(StreamId)

_LOG_HEADER = struct.Struct("<4sB3sQ")
_RECORD_HEADER = struct.Struct("<BBIQ")

assert _LOG_HEADER.size == LOG_HEADER_SIZE
assert _RECORD_HEADER.size == RECORD_HEADER_SIZE


@dataclass(frozen=True)
class LogRecord:
    stream_id: StreamId
    timestamp_us: int
    payload: bytes
    restart: bool = False  # the first record of a new sender run on this stream


@dataclass(frozen=True)
class Truncated:
    """End-of-file fell inside a record; everything before ``offset`` is intact."""

    offset: int


def image_to_record_payload(img: Image) -> bytes:
    meta = ImageStartMeta(total_len=len(img.pixels), width=img.width, height=img.height)
    return encode_start_meta(meta) + img.pixels


def image_from_record_payload(payload: bytes, *, seq: int = 0,
                              timestamp_us: int = 0) -> Image:
    meta = decode_start_meta(payload)
    pixels = payload[START_META_SIZE:]
    if len(pixels) != meta.total_len:
        raise TooShortError(
            f"image record carries {len(pixels)} pixel bytes, metadata announces {meta.total_len}"
        )
    return Image(meta.width, meta.height, pixels, seq, timestamp_us)


def message_to_record(message) -> LogRecord:
    """Map a bus message to its log representation."""
    if isinstance(message, CameraFrame):
        message = message.image
    if isinstance(message, Image):
        return LogRecord(StreamId.IMAGE, message.timestamp_us,
                         image_to_record_payload(message))
    if isinstance(message, MotionReading):
        return LogRecord(StreamId.MOTION, message.timestamp_us, encode_motion(message))
    if isinstance(message, MotionRequest):
        return LogRecord(StreamId.COMMAND, 0, encode_request(message))
    raise TypeError(f"no log representation for {type(message).__name__}")


class LogWriter:
    """Sequential record writer. On write failure the file is cut back to
    the last complete record, so readers always get a clean prefix.

    Timestamps never decrease within one stream and one sender run; a
    record written with ``restart`` starts a new run and a new floor, so
    it cannot be a stream's first record. Each stream keeps one
    ``wire.SeqOrder`` for ``write_message``.
    """

    def __init__(self, path, epoch_us: Optional[int] = None):
        self.epoch_us = int(time.time() * 1e6) if epoch_us is None else epoch_us
        self._f = open(path, "wb")
        self._f.write(_LOG_HEADER.pack(LOG_MAGIC, LOG_VERSION, b"\x00\x00\x00", self.epoch_us))
        self._last_ts: dict[int, int] = {}
        self._orders = {StreamId.IMAGE: SeqOrder(), StreamId.MOTION: SeqOrder()}
        self.records_written = 0

    def write(self, stream_id: StreamId, timestamp_us: int, payload: bytes,
              restart: bool = False) -> None:
        if stream_id not in _STREAM_IDS:  # a reader would take the record for a tear
            raise ValueError(f"unknown stream id {stream_id!r}")
        if restart and stream_id not in self._last_ts:
            raise ValueError(f"restart on the first record of stream {stream_id!r}")
        floor = self._last_ts.get(stream_id, 0)
        if not restart and isinstance(timestamp_us, int) and timestamp_us < floor:
            raise ValueError(f"timestamps must be non-decreasing per stream: {timestamp_us} after {floor}")
        if not (isinstance(timestamp_us, int) and 0 <= timestamp_us < 1 << 64):
            raise ValueError(f"timestamp_us must be an int in [0, 2**64), got {timestamp_us!r}")
        if len(payload) >= 1 << 32:
            raise ValueError(f"a payload of {len(payload)} bytes overflows the u32 length field")
        start = self._f.tell()
        try:
            self._f.write(_RECORD_HEADER.pack(stream_id, RESTART if restart else 0,
                                              len(payload), timestamp_us))
            self._f.write(payload)
        except OSError:
            # disk full or similar: drop the partial record, keep the prefix valid
            try:
                self._f.truncate(start)
                self._f.seek(start)  # the next record starts where this one did
            except OSError:
                pass
            raise
        self._last_ts[stream_id] = timestamp_us
        self.records_written += 1

    def write_message(self, message) -> None:
        """Log a bus message. Its seq (a command has none) goes to its
        stream's order; where that order counts a sender restart, the
        record is written as ``restart``."""
        rec = message_to_record(message)
        restart = False
        if rec.stream_id != StreamId.COMMAND:
            order = self._orders[rec.stream_id]
            restarts = order.restarts
            order.advance((message.image if isinstance(message, CameraFrame) else message).seq)
            restart = order.restarts > restarts
        self.write(rec.stream_id, rec.timestamp_us, rec.payload, restart)

    def close(self) -> None:
        if not self._f.closed:
            self._f.flush()
            self._f.close()

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _check_header(f) -> int:
    """Read and check the 16-byte file header from ``f``; return its epoch."""
    head = f.read(LOG_HEADER_SIZE)
    if len(head) < LOG_HEADER_SIZE:
        raise TooShortError(f"log header needs {LOG_HEADER_SIZE} bytes, got {len(head)}")
    magic, version, _reserved, epoch_us = _LOG_HEADER.unpack(head)
    if magic != LOG_MAGIC:
        raise BadMagicError(f"bad log magic {magic!r}")
    if version != LOG_VERSION:
        raise BadVersionError(f"unsupported log version {version}")
    return epoch_us


def read_log_epoch_us(path) -> int:
    """Wall-clock epoch stamped into the file header at creation."""
    with open(path, "rb") as f:
        return _check_header(f)


def read_log(path) -> Iterator[Union[LogRecord, Truncated]]:
    """Yield records in file order; a final ``Truncated`` marks a cut file.

    The header is validated up front (bad magic or version raise); after
    that the reader never raises — a file cut mid-record yields every
    complete record followed by one ``Truncated``.
    """
    with open(path, "rb") as f:
        _check_header(f)
        while True:
            start = f.tell()
            head = f.read(RECORD_HEADER_SIZE)
            if not head:
                return
            if len(head) < RECORD_HEADER_SIZE:
                yield Truncated(offset=start)
                return
            stream_raw, flags, payload_len, timestamp_us = _RECORD_HEADER.unpack(head)
            payload = f.read(payload_len)
            if len(payload) < payload_len:
                yield Truncated(offset=start)
                return
            try:
                stream_id = StreamId(stream_raw)
            except ValueError:
                yield Truncated(offset=start)  # unknown stream: cannot trust the rest
                return
            yield LogRecord(stream_id, timestamp_us, payload, bool(flags & RESTART))


def record(bus: TopicBus, path, duration_s: float,
           topics: tuple[str, ...] = (TOPIC_IMAGE, TOPIC_MOTION),
           epoch_us: Optional[int] = None) -> int:
    """Subscribe to ``topics`` and log everything seen for ``duration_s``.

    Returns the number of records written. The file is valid even if the
    run observes nothing (header-only). Each message goes through
    ``LogWriter.write_message``, which marks a sender restart.
    """
    subs = [bus.subscribe(t, BoundedFifo(1024)) for t in topics]
    deadline = time.monotonic() + duration_s

    def write_queued(w: LogWriter) -> bool:
        wrote = False
        for sub in subs:
            for message in sub.drain():
                w.write_message(message)
                wrote = True
        return wrote

    try:
        with LogWriter(path, epoch_us=epoch_us) as w:
            while True:
                wrote = write_queued(w)
                if time.monotonic() >= deadline:
                    break
                if not wrote:
                    time.sleep(0.002)
            write_queued(w)  # final sweep so nothing queued is lost
            return w.records_written
    finally:
        for sub in subs:
            sub.close()


def record_messages(messages, path, epoch_us: Optional[int] = None) -> int:
    """Log an already-collected message sequence (no bus, no clock) through
    ``LogWriter.write_message``, as ``record`` does."""
    with LogWriter(path, epoch_us=epoch_us) as w:
        for message in messages:
            w.write_message(message)
        return w.records_written


def replay(path, bus: TopicBus, speed: float = 1.0) -> int:
    """Republish a log onto the bus; returns how many records went out.

    Each record waits for the amount its timestamp passes the largest
    timestamp seen so far, divided by ``speed``; an older timestamp (a
    command, logged at 0) goes out at once. A ``restart`` record goes out at
    once and re-bases that mark on its own timestamp, because its sender's
    clock started over. ``speed=math.inf`` (or anything
    non-finite) replays as fast as possible. A truncated file replays its
    valid prefix.

    Sequence numbers are assigned afresh per stream: from zero, up by one
    per record mod 2**32, and back by ``RESTART_WINDOW`` at a ``restart``
    record, the least jump every ``SeqOrder`` reads as a restart. So
    re-recording the replay writes the same log.
    """
    if not speed > 0:
        raise ValueError(f"speed must be positive, got {speed}")
    paced = math.isfinite(speed)
    latest_ts: Optional[int] = None
    newest = dict.fromkeys(StreamId, 0xFFFFFFFF)  # so each stream starts at 0
    published = 0
    for rec in read_log(path):
        if isinstance(rec, Truncated):
            break
        if rec.restart:
            latest_ts = rec.timestamp_us
        elif latest_ts is None or rec.timestamp_us > latest_ts:
            if paced and latest_ts is not None:
                time.sleep((rec.timestamp_us - latest_ts) / 1e6 / speed)
            latest_ts = rec.timestamp_us
        n = newest[rec.stream_id] = (
            newest[rec.stream_id] + (-RESTART_WINDOW if rec.restart else 1)) & 0xFFFFFFFF
        if rec.stream_id == StreamId.IMAGE:
            img = image_from_record_payload(rec.payload, seq=n,
                                            timestamp_us=rec.timestamp_us)
            bus.publish(TOPIC_IMAGE, CameraFrame(image=img, recv_timestamp_us=rec.timestamp_us))
        elif rec.stream_id == StreamId.MOTION:
            bus.publish(TOPIC_MOTION, decode_motion(rec.payload, seq=n,
                                                    timestamp_us=rec.timestamp_us))
        else:
            bus.publish(TOPIC_COMMAND, decode_request(rec.payload))
        published += 1
    return published


# --- image export ----------------------------------------------------------

def _bt601(y, u, v):
    """FORMAT.md's float64 formula before the clamp: (R, G, B) at Y, U-128, V-128."""
    return y + 1.402 * v, y - 0.344136 * u - 0.714136 * v, y + 1.772 * u


@functools.cache  # on first use: a process that never exports skips ~3 ms and ~2 MB
def _chroma_tables():
    """Each channel's rounded chroma offset, the formula at Y = 0: R's by V,
    G's by U*256 + V, B's by U. A G whose exact chroma term is a tie
    (344136 u + 714136 v ≡ 500000 mod 10⁶, exact on float64's integers) may
    round differently for different Y; each pair that does gets the
    formula's row of 256 G values."""
    c, y = np.arange(256) - 128.0, np.arange(256)
    r, g, b = (np.floor(x + 0.5).astype(np.int16).ravel() for x in _bt601(0.0, c[:, None], c))
    ties = np.flatnonzero((344136 * c[:, None] + 714136 * c) % 1e6 == 5e5)
    rows = ((t, np.floor(np.clip(_bt601(y, c[t >> 8], c[t & 255])[1], 0, 255) + 0.5)) for t in ties)
    return r, g, b, [(int(t), row.astype(np.uint8)) for t, row in rows
                     if (row != np.clip(y + g[t], 0, 255)).any()]


def yuv422_to_rgb(img: Image) -> np.ndarray:
    """Convert packed YUYV to an (h, w, 3) uint8 RGB array, bit for bit
    FORMAT.md's float64 BT.601 formula (``_bt601``, clamped and rounded).
    Each channel is clamp(Y + offset, 0, 255) in int16, the offset looked up
    by chroma (R's by V, B's by U, G's by the (U, V) pair), in 1-D passes
    over the pixel pairs; a G tie pair whose rounding depends on Y takes the
    formula's row."""
    if img.width % 2 != 0:
        raise ValueError(f"YUV422 requires even width, got {img.width}")
    r_offset, g_offset, b_offset, g_ties = _chroma_tables()
    pairs = np.frombuffer(img.pixels, dtype=np.uint8).reshape(-1, 4)  # Y0 U Y1 V
    u, v = pairs[:, 1], pairs[:, 3]
    uv = u.astype(np.uint16) << 8 | v
    offsets = r_offset.take(v), g_offset.take(uv), b_offset.take(u)
    rgb = np.empty((len(pairs), 2, 3), np.uint8)
    for ch, offset in enumerate(offsets):
        for slot in (0, 1):
            x = pairs[:, 2 * slot] + offset  # uint8 + int16 -> int16
            rgb[:, slot, ch] = np.clip(x, 0, 255, out=x)
    for t, row in g_ties:
        at = np.flatnonzero(uv == t)
        rgb[at, :, 1] = row[pairs[at][:, 0::2]]
    return rgb.reshape(img.height, img.width, 3)


def export_ppm(img: Image, path) -> None:
    """Write a frame as binary PPM (P6, maxval 255)."""
    rgb = yuv422_to_rgb(img)
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (img.width, img.height))
        f.write(rgb)
