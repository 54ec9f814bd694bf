"""Image fragmentation and single-slot reassembly.

Large frames travel as one START packet announcing the frame geometry
followed by FRAGMENT packets carrying pixel slices. A reassembler serves
one image stream and keeps at most one frame buffer. A START that advances
the stream's seq order (``wire.SeqOrder``) drops an incomplete older frame
on the spot; one that does not is a stale orphan. Packets that can't be
matched to the in-flight frame are orphans; repeats of an already-stored
fragment are duplicates. Readings and commands fit one SINGLE datagram
each and are ordered and decoded where they arrive, without a reassembler.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Optional, Union

from .wire import _HEADER, _KINDS, _STREAM_IDS, MAGIC, WIRE_VERSION  # the accept in from_bytes
from .wire import (
    HEADER_SIZE,
    UDP_MAX_DATAGRAM,
    DEFAULT_FRAG_PAYLOAD,
    Image,
    ImageStartMeta,
    InvariantError,
    PacketHeader,
    PacketKind,
    SeqOrder,
    StreamId,
    WireError,
    checked_header,
    decode_header,
    decode_start_meta,
    encode_start_meta,
    pack_header,
)

MIN_FRAG_PAYLOAD = 256
MAX_FRAG_PAYLOAD = 65000

_START, _FRAGMENT = PacketKind.START.value, PacketKind.FRAGMENT.value
_NO_HEADER = (None,) * 10  # what a datagram shorter than a header unpacks to
_tuple_new = tuple.__new__  # builds a Packet or header with no checks


def _check_size(payload_len: int, datagram_len: int) -> None:
    if datagram_len != HEADER_SIZE + payload_len:
        raise InvariantError(
            f"header announces {payload_len} payload bytes, got {datagram_len - HEADER_SIZE}"
        )
    if datagram_len > UDP_MAX_DATAGRAM:
        raise InvariantError(
            f"datagram of {datagram_len} bytes exceeds UDP maximum {UDP_MAX_DATAGRAM}"
        )


class Packet(namedtuple("Packet", "header payload")):
    """One datagram: validated header plus its payload.

    Every way to get a Packet checks it exactly once: the constructor and
    :meth:`from_bytes` run the header validator and the size checks, and
    ``packetize_image`` checks a frame's START and derives its fragments
    from it. So :meth:`to_bytes` only packs. The payload of a fragment or of
    a parsed datagram is a read-only view over immutable ``bytes``.
    """

    __slots__ = ()

    def __new__(cls, header: PacketHeader, payload: bytes = b"") -> "Packet":
        header = checked_header(*header)
        _check_size(header.payload_len, HEADER_SIZE + len(payload))
        return _tuple_new(cls, (header, payload))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def size(self) -> int:
        return HEADER_SIZE + len(self.payload)

    def to_bytes(self) -> bytes:
        return pack_header(self.header) + self.payload

    @classmethod
    def from_bytes(cls, b: bytes) -> "Packet":
        """Parse one datagram: one ``unpack_from`` and one test of every rule
        that ``decode_header`` and the size checks apply. A datagram that
        fails it goes through them, which raise the classified ``WireError``."""
        n = len(b)
        magic, version, stream, kind, flags, seq, index, count, size, ts = (
            _HEADER.unpack_from(b) if n >= HEADER_SIZE else _NO_HEADER)
        stream_, kind_ = _STREAM_IDS.get(stream), _KINDS.get(kind)
        if (magic == MAGIC and version == WIRE_VERSION and flags == 0 and stream_ is not None
                and kind_ is not None and size == n - HEADER_SIZE and n <= UDP_MAX_DATAGRAM
                and (index < count if kind == _FRAGMENT else index == 0 and (count > 0) == (kind == _START))):
            header = _tuple_new(PacketHeader, (stream_, kind_, seq, index, count, size, ts))
        else:
            header = decode_header(b)
            _check_size(header.payload_len, n)
        return _tuple_new(cls, (header, memoryview(bytes(b))[HEADER_SIZE:]))


# --- events returned by Reassembler.step (None means "nothing happened") ---

@dataclass(frozen=True)
class ImageComplete:
    image: Image


@dataclass(frozen=True)
class Dropped:
    """An incomplete frame was evicted: the next frame's START preempted it."""

    seq: int


@dataclass(frozen=True)
class Orphan:
    """Packet (a stale START too) could not be attached to any in-flight frame and was discarded."""

    seq: int
    frag_index: int = 0


@dataclass(frozen=True)
class Duplicate:
    seq: int
    frag_index: int = 0


Event = Union[ImageComplete, Dropped, Orphan, Duplicate]


@dataclass
class StreamStats:
    """Monotonic counters of one stream; ``SeqOrder`` counts the stale and restarts.

    ``latency_accumulator_us`` is summed by the bridge, which reads the clock;
    a reassembler keeps none and leaves it 0.
    """

    frames_complete: int = 0
    frames_dropped_preempted: int = 0
    orphan_fragments: int = 0
    duplicate_fragments: int = 0
    frames_stale: int = 0
    sender_restarts: int = 0
    bytes_received: int = 0
    latency_accumulator_us: int = 0


def check_frag_payload(frag_payload: int) -> None:
    if not MIN_FRAG_PAYLOAD <= frag_payload <= MAX_FRAG_PAYLOAD:
        raise ValueError(
            f"frag_payload must lie in [{MIN_FRAG_PAYLOAD}, {MAX_FRAG_PAYLOAD}], got {frag_payload}"
        )


def packetize_image(img: Image, frag_payload: int = DEFAULT_FRAG_PAYLOAD) -> list[Packet]:
    """Split an image into one START packet plus its fragments.

    Fragment ``i`` carries pixel bytes ``[i*frag_payload, (i+1)*frag_payload)``
    (the last one may be shorter) as a view of ``bytes(img.pixels)``, so no
    packet aliases a mutable buffer. All packets share the image's seq and timestamp.
    """
    check_frag_payload(frag_payload)
    data = memoryview(bytes(img.pixels))
    if len(data) == 0:
        raise ValueError("cannot packetize an empty image")
    meta = ImageStartMeta(len(data), img.width, img.height, frag_payload)
    frag_count = meta.frag_count
    meta_bytes = encode_start_meta(meta)
    start = Packet(PacketHeader(StreamId.IMAGE, PacketKind.START, img.seq, 0, frag_count,
                                len(meta_bytes), img.timestamp_us), meta_bytes)
    # The START passed every check its fragments need (seq, timestamp and
    # frag_count in range), and each fragment's index < frag_count and
    # length <= MAX_FRAG_PAYLOAD hold by construction: build them unchecked.
    stream, _, seq, _, _, _, timestamp_us = start.header
    kind = PacketKind.FRAGMENT
    packets = [start]
    for i in range(frag_count):
        chunk = data[i * frag_payload:(i + 1) * frag_payload]
        header = _tuple_new(PacketHeader, (stream, kind, seq, i, frag_count, len(chunk),
                                           timestamp_us))
        packets.append(_tuple_new(Packet, (header, chunk)))
    return packets


def packetize_single(payload: bytes, stream_id: StreamId, seq: int, timestamp_us: int) -> Packet:
    """Wrap a payload that fits one datagram into a SINGLE packet; ``Packet``
    rejects one that does not."""
    return Packet(PacketHeader(stream_id, PacketKind.SINGLE, seq, payload_len=len(payload),
                               timestamp_us=timestamp_us), bytes(payload))


class _Slot:
    """One in-flight frame; ``chunks`` holds each stored fragment payload, uncopied."""

    __slots__ = ("seq", "meta", "frag_payload", "frag_count", "last_len", "chunks",
                 "remaining", "timestamp_us")

    def __init__(self, seq: int, meta: ImageStartMeta, timestamp_us: int):
        self.seq = seq
        self.meta = meta
        self.frag_payload = meta.frag_payload
        self.frag_count = meta.frag_count
        # every fragment but the last carries frag_payload bytes
        self.last_len = meta.total_len - (meta.frag_count - 1) * meta.frag_payload
        self.chunks = [None] * meta.frag_count
        self.remaining = meta.frag_count
        self.timestamp_us = timestamp_us


class Reassembler:
    """Single-consumer reassembly state machine for one image stream.

    One instance per receive loop. The frame in flight is kept in one slot,
    opened only by a START that advances the seq order, so frames complete
    in seq order. The one eviction is preemption by the next frame's START;
    the reassembler keeps no clock, so its output is a pure function of the
    packets fed to it. Feed packets whose headers already passed validation
    (every ``Packet`` has).
    """

    def __init__(self):
        self._slot: Optional[_Slot] = None
        self._stats = StreamStats()
        self._order = SeqOrder()

    def stats(self) -> StreamStats:
        """Read-only snapshot of the counters."""
        return replace(self._stats, frames_stale=self._order.stale, sender_restarts=self._order.restarts)

    def step(self, pkt: Packet) -> Optional[Event]:
        """Consume one packet and report what it completed, dropped or was."""
        h, payload = pkt
        n = len(payload)
        stats = self._stats
        stats.bytes_received += HEADER_SIZE + n
        if h[1] != _FRAGMENT:
            # a SINGLE carries frag_count 0, which no START metadata announces
            return self._on_start(h, payload)
        seq, index = h[2], h[3]
        slot = self._slot
        if (slot is None or slot.seq != seq or index >= slot.frag_count
                or n != (slot.frag_payload if index < slot.frag_count - 1 else slot.last_len)):
            stats.orphan_fragments += 1
            return Orphan(seq=seq, frag_index=index)
        chunks = slot.chunks
        if chunks[index] is not None:
            stats.duplicate_fragments += 1
            return Duplicate(seq=seq, frag_index=index)
        chunks[index] = payload
        slot.remaining -= 1
        if slot.remaining:
            return None
        return self._complete(slot)

    def _on_start(self, h: PacketHeader, payload: bytes) -> Optional[Event]:
        try:
            meta = decode_start_meta(payload)
        except WireError:
            self._stats.orphan_fragments += 1
            return Orphan(seq=h.seq)
        if meta.total_len == 0 or meta.frag_count != h.frag_count:
            self._stats.orphan_fragments += 1
            return Orphan(seq=h.seq)

        slot = self._slot
        if slot is not None and slot.seq == h.seq:
            self._stats.duplicate_fragments += 1
            return Duplicate(seq=h.seq)
        if not self._order.advance(h.seq):
            return Orphan(seq=h.seq)

        evicted = None
        if slot is not None:
            evicted = Dropped(seq=slot.seq)
            self._stats.frames_dropped_preempted += 1
        self._slot = _Slot(h.seq, meta, h.timestamp_us)
        return evicted

    def _complete(self, slot: _Slot) -> ImageComplete:
        self._slot = None
        self._stats.frames_complete += 1
        meta = slot.meta
        return ImageComplete(image=Image(meta.width, meta.height, b"".join(slot.chunks), slot.seq,
                                         slot.timestamp_us))
