"""Image fragmentation, and the socket-free receive port of each stream.

Large frames travel as one START packet announcing the frame geometry
followed by FRAGMENT packets carrying pixel slices. A reassembler serves
one image stream and keeps at most one frame buffer. A START that advances
the stream's seq order (``wire.SeqOrder``) drops an incomplete older frame
on the spot; one that does not is a stale orphan. Packets that can't be
matched to the in-flight frame are orphans; repeats of an already-stored
fragment are duplicates. Readings and commands fit one SINGLE datagram
each, which a ``Receiver`` orders and decodes; a reassembler is the image's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Union

from .wire import (
    HEADER_SIZE,
    DEFAULT_FRAG_PAYLOAD,
    Image,
    ImageStartMeta,
    Packet,
    PacketHeader,
    PacketKind,
    SeqOrder,
    StreamId,
    WireError,
    decode_motion,
    decode_request,
    decode_start_meta,
    encode_start_meta,
)

MIN_FRAG_PAYLOAD = 256
MAX_FRAG_PAYLOAD = 65000

_FRAGMENT = PacketKind.FRAGMENT.value
_tuple_new = tuple.__new__  # builds a Packet or header with no checks


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
    malformed_packets: int = 0  # off-contract datagrams and undecodable payloads


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


class Receiver:
    """The socket-free receive port of one stream. For the motion or command stream it
    takes SINGLEs in seq order and decodes them. Its socket's loop alone feeds it."""

    def __init__(self, stream: StreamId):
        self.stream = stream  # which fixes its packet kinds (FORMAT.md) and its decoder
        self.kinds = ((PacketKind.START, PacketKind.FRAGMENT) if stream == StreamId.IMAGE
                      else (PacketKind.SINGLE,))
        self._stats, self._order = StreamStats(), SeqOrder()

    def stats(self) -> StreamStats:
        """Read-only snapshot of the counters."""
        return replace(self._stats, frames_stale=self._order.stale, sender_restarts=self._order.restarts)

    def feed(self, datagram: bytes) -> Any:
        """The message ``datagram`` completes, or None; one that breaks the contract is malformed."""
        try:
            pkt = Packet.from_bytes(datagram)  # looked up per call, as is step: a tracer wraps them
            if pkt.header[0] == self.stream and pkt.header[1] in self.kinds:
                return self._take(pkt)
        except WireError:
            pass
        self._stats.malformed_packets += 1
        return None

    def _take(self, pkt: Packet) -> Any:
        h = pkt.header
        if not self._order.advance(h.seq):
            return None
        self._stats.bytes_received += pkt.size
        if h.stream_id == StreamId.MOTION:  # decode_* looked up per call, for a tracer to wrap
            return decode_motion(pkt.payload, seq=h.seq, timestamp_us=h.timestamp_us)
        return decode_request(pkt.payload)


class Reassembler(Receiver):
    """Single-consumer reassembly state machine for one image stream: its receiver.

    One instance per receive loop. The frame in flight is kept in one slot,
    opened only by a START that advances the seq order, so frames complete
    in seq order. The one eviction is preemption by the next frame's START;
    the reassembler keeps no clock, so its output is a pure function of the
    packets fed to it. :meth:`step` takes packets whose headers already
    passed validation (every ``Packet`` has).
    """

    def __init__(self):
        super().__init__(StreamId.IMAGE)
        self._slot: Optional[_Slot] = None

    def _take(self, pkt: Packet) -> Optional[Image]:
        event = self.step(pkt)
        return event.image if event.__class__ is ImageComplete else None

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
