"""Image fragmentation, and the socket-free receive port of each stream.

Large frames travel as one START packet announcing the frame geometry followed
by FRAGMENT packets carrying pixel slices. A reassembler serves one image stream
and keeps at most one frame buffer. Its entry points return the images they
complete; every other outcome is only a count in ``StreamStats``. A START that
advances the stream's seq order (``wire.SeqOrder``) drops an incomplete older
frame on the spot (``frames_dropped_preempted``); one that does not is stale
(``frames_stale``) and drops nothing. The open frame's place table
(``_Slot.places``) is the slot rule's one home: an empty place holds the payload
length it wants, a filled one the payload. A fragment that fits an empty place is
stored in the loop over its datagram (``feed``) or its run of packets
(``step_all``), or by ``step``, which counts a repeat of a stored place in
``duplicate_fragments`` and anything else in ``orphan_fragments``. Readings and
commands fit one SINGLE datagram each, which a ``Receiver`` orders and decodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat
from operator import attrgetter
from typing import Any, Iterable, Optional

from .wire import (
    _HEADER,
    _checked_header,
    HEADER_SIZE,
    DEFAULT_FRAG_PAYLOAD,
    MAGIC,
    UDP_MAX_DATAGRAM,
    WIRE_VERSION,
    Image,
    ImageStartMeta,
    Packet,
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

_START, _FRAGMENT, _IMAGE = PacketKind.START.value, PacketKind.FRAGMENT.value, StreamId.IMAGE.value
_FRAGMENT_KIND = PacketKind.FRAGMENT  # every Packet's kind is a member: tested by identity
_tuple_new = tuple.__new__  # builds a Packet or header with no checks
_slot_terms = attrgetter("seq", "frag_count", "places", "remaining")
_NO_SLOT = (-1, 0, None, 0)  # the terms when no frame is open: no seq is -1, so nothing fits
# keyed on bytes, as a writable buffer has no hash; the result is frozen, and an error is not cached
_start_meta = lru_cache(maxsize=4)(decode_start_meta)


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


@lru_cache(maxsize=4)
def _layout(total_len: int, width: int, height: int, frag_payload: int) -> tuple:
    """One geometry's terms: the START's metadata bytes, the fragment count,
    and each fragment's payload length and pixel slice."""
    meta = ImageStartMeta(total_len, width, height, frag_payload)
    starts = range(0, total_len, frag_payload)
    return (encode_start_meta(meta), meta.frag_count,
            tuple(min(frag_payload, total_len - s) for s in starts),
            tuple(slice(s, s + frag_payload) for s in starts))


def packetize_image(img: Image, frag_payload: int = DEFAULT_FRAG_PAYLOAD) -> list[Packet]:
    """Split an image into one START packet plus its fragments.

    Fragment ``i`` carries pixel bytes ``[i*frag_payload, (i+1)*frag_payload)``
    (the last one may be shorter) as a view of ``bytes(img.pixels)``, so no
    packet aliases a mutable buffer. All packets share the image's seq and
    timestamp. The terms that depend only on the geometry (the START's
    metadata, each fragment's length and slice) are cached per geometry.
    """
    check_frag_payload(frag_payload)
    data = memoryview(bytes(img.pixels))
    if len(data) == 0:
        raise ValueError("cannot packetize an empty image")
    meta_bytes, frag_count, lengths, slices = _layout(len(data), img.width, img.height, frag_payload)
    stream, _, seq, _, _, _, timestamp_us = header = _checked_header(
        _IMAGE, _START, img.seq, 0, frag_count, len(meta_bytes), img.timestamp_us)
    # The START passed every check its fragments need (seq, timestamp and
    # frag_count in range), and each fragment's index < frag_count and
    # length <= MAX_FRAG_PAYLOAD hold by construction: build them unchecked.
    return [_tuple_new(Packet, (*header, meta_bytes)), *map(_tuple_new, repeat(Packet), zip(
        repeat(stream), repeat(PacketKind.FRAGMENT), repeat(seq), range(frag_count), repeat(frag_count),
        lengths, repeat(timestamp_us), map(data.__getitem__, slices)))]


def packetize_single(payload: bytes, stream_id: StreamId, seq: int, timestamp_us: int) -> Packet:
    """Wrap a payload that fits one datagram into a SINGLE packet; ``Packet``
    rejects one that does not."""
    return Packet((stream_id, PacketKind.SINGLE, seq, 0, 0, len(payload), timestamp_us), bytes(payload))


class _Slot:
    """One in-flight frame. ``places[i]`` is the payload length place ``i`` takes (an int) while
    it is empty, and the fragment's payload, uncopied, once it is filled: the slot rule's one
    table. No payload equals an int, so a filled place never fits again."""

    __slots__ = ("seq", "meta", "frag_count", "places", "remaining", "timestamp_us")

    def __init__(self, seq: int, meta: ImageStartMeta, timestamp_us: int):
        self.seq = seq
        self.meta = meta
        self.frag_count = self.remaining = count = meta.frag_count
        # every fragment but the last carries frag_payload bytes
        self.places = [meta.frag_payload] * count
        self.places[-1] = meta.total_len - (count - 1) * meta.frag_payload
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
            if pkt[0] == self.stream and pkt[1] in self.kinds:
                return self._take(pkt)
        except WireError:
            pass
        self._stats.malformed_packets += 1
        return None

    def _take(self, pkt: Packet) -> Any:
        if not self._order.advance(pkt.seq):
            return None
        self._stats.bytes_received += pkt.size
        if pkt.stream_id == StreamId.MOTION:  # decode_* looked up per call, for a tracer to wrap
            return decode_motion(pkt.payload, seq=pkt.seq, timestamp_us=pkt.timestamp_us)
        return decode_request(pkt.payload)


class Reassembler(Receiver):
    """Single-consumer reassembly state machine for one image stream: its receiver.

    One instance per receive loop. The frame in flight is kept in one slot,
    opened only by a START that advances the seq order, so frames complete
    in seq order. The one eviction is preemption by the next frame's START.
    Each entry point returns what it completes, and ``stats()`` is the only
    record of every other outcome. The reassembler keeps no clock, so both are
    a pure function of the packets fed to it. :meth:`step` takes validated
    packets (every ``Packet`` is); :meth:`feed` and :meth:`step_all` store a
    fitting fragment themselves.
    """

    def __init__(self):
        super().__init__(StreamId.IMAGE)
        self._slot: Optional[_Slot] = None

    def feed(self, datagram: bytes) -> Optional[Image]:
        """The image ``datagram`` completes, or None. A FRAGMENT that passes ``from_bytes``'s
        rule and fits an empty place of ``_Slot.places`` costs one ``unpack_from``; every other
        datagram (a START, orphan, duplicate, malformed one) goes through ``Receiver.feed`` to ``step``."""
        slot, n = self._slot, len(datagram)
        if slot is not None and HEADER_SIZE <= n <= UDP_MAX_DATAGRAM:
            magic, version, stream, kind, flags, seq, index, count, size, _ = _HEADER.unpack_from(datagram)
            if (seq == slot.seq and index < count and index < slot.frag_count and size == n - HEADER_SIZE
                    and slot.places[index] == size and kind == _FRAGMENT and stream == _IMAGE
                    and magic == MAGIC and version == WIRE_VERSION and flags == 0):
                slot.places[index] = memoryview(bytes(datagram))[HEADER_SIZE:]
                self._stats.bytes_received += n
                slot.remaining -= 1
                return None if slot.remaining else self._complete(slot)
        return super().feed(datagram)

    def step_all(self, packets: Iterable[Packet]) -> list[Image]:
        """What stepping each packet in turn completes, and counts; a fitting fragment is stored here.
        Within one call the open slot's remaining count and the bytes stored live in locals; they
        are whole before every ``step``, at each completion and at return (``try``/``finally``).
        A packet is unpacked once; its ``payload_len`` is its payload's length, as ``Packet`` checks."""
        images, stats, slot, step = [], self._stats, self._slot, self.step  # per call, for a tracer
        seq, count, places, left = _slot_terms(slot) if slot else _NO_SLOT
        stored, fragment = 0, _FRAGMENT_KIND
        try:
            for pkt in packets:
                _, kind, s, index, _, n, _, payload = pkt
                if s == seq and index < count and kind is fragment and places[index] == n:
                    places[index] = payload
                    stored += HEADER_SIZE + n
                    left -= 1
                    if not left:
                        stats.bytes_received += stored
                        slot.remaining = stored = 0
                        images.append(self._complete(slot))
                        slot, seq = None, -1
                    continue
                if slot is not None:
                    slot.remaining = left
                stats.bytes_received += stored
                stored = 0
                image = step(pkt)
                if image is not None:
                    images.append(image)
                if self._slot is not slot:  # step opened a slot; it stores nothing in an open one
                    slot = self._slot
                    seq, count, places, left = _slot_terms(slot) if slot else _NO_SLOT
        finally:
            if slot is not None:
                slot.remaining = left
            stats.bytes_received += stored
        return images

    def _take(self, pkt: Packet) -> Optional[Image]:
        return self.step(pkt)

    def step(self, pkt: Packet) -> Optional[Image]:
        """Consume one packet: the image it completes, or None. Every other outcome is a
        count in ``stats()``: an orphan or a duplicate, a preempted frame, a stale START."""
        _, kind, seq, index, _, n, _, payload = pkt
        stats = self._stats
        stats.bytes_received += HEADER_SIZE + n
        if kind is not _FRAGMENT_KIND:
            # a SINGLE carries frag_count 0, which no START metadata announces
            self._on_start(pkt)
            return None
        slot = self._slot
        if slot is not None and slot.seq == seq and index < slot.frag_count:
            places = slot.places
            place = places[index]
            if place == n:
                places[index] = payload
                slot.remaining -= 1
                return None if slot.remaining else self._complete(slot)
            if place.__class__ is not int and len(place) == n:  # a filled place: a repeat
                stats.duplicate_fragments += 1
                return None
        stats.orphan_fragments += 1
        return None

    def _on_start(self, pkt: Packet) -> None:
        stats, slot = self._stats, self._slot
        try:
            meta = _start_meta(bytes(pkt.payload))
        except WireError:
            meta = None
        if (meta is None or meta.total_len == 0 or meta.frag_count != pkt.frag_count
                or not MIN_FRAG_PAYLOAD <= meta.frag_payload <= MAX_FRAG_PAYLOAD):
            stats.orphan_fragments += 1
        elif slot is not None and slot.seq == pkt.seq:
            stats.duplicate_fragments += 1
        elif self._order.advance(pkt.seq):  # SeqOrder counts a stale one
            if slot is not None:
                stats.frames_dropped_preempted += 1
            self._slot = _Slot(pkt.seq, meta, pkt.timestamp_us)

    def _complete(self, slot: _Slot) -> Image:
        self._slot = None
        self._stats.frames_complete += 1
        meta = slot.meta
        return Image(meta.width, meta.height, b"".join(slot.places), slot.seq, slot.timestamp_us)
