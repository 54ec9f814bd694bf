"""Differential test of the datagram header codec and the datagram parser.

The library validates a header with integer compares and table lookups,
and ``Packet.from_bytes`` accepts a datagram with one compound test;
``oracles`` keeps the original field-by-field validator with enum
membership scans, plus FORMAT.md's size rule for a whole datagram. On
every input both must agree: the same enum-typed header (or the same
bytes, or the same header and payload), or a ``WireError`` of the same
subclass. About 130,000 cases.
"""

import random

import pytest
from oracles import decode_header_reference, decode_packet_reference, encode_header_reference

from nbpk.fragment import Packet
from nbpk.wire import (
    HEADER_SIZE,
    UDP_MAX_DATAGRAM,
    PacketHeader,
    PacketKind,
    StreamId,
    WireError,
    decode_header,
    encode_header,
)


def outcome(fn, arg):
    """(True, value) on success, (False, exception class) on a ``WireError``."""
    try:
        return True, fn(arg)
    except WireError as exc:
        return False, type(exc)


def assert_agree(lean, reference, arg):
    assert lean == reference, arg
    value = lean[1]
    if lean[0] and isinstance(value, tuple):
        header = value if isinstance(value, PacketHeader) else value[0]
        assert type(header.stream_id) is StreamId and type(header.kind) is PacketKind, arg


def parse_packet(b: bytes) -> tuple[PacketHeader, bytes]:
    pkt = Packet.from_bytes(b)
    return pkt.header, bytes(pkt.payload)


#: Each parser beside its reference: the header alone, and the whole datagram.
parsers = pytest.mark.parametrize("parse, reference", [
    (decode_header, decode_header_reference),
    (parse_packet, decode_packet_reference),
], ids=["decode_header", "from_bytes"])


def valid_header(rng: random.Random) -> PacketHeader:
    kind = rng.choice(list(PacketKind))
    frag_count = 0 if kind == PacketKind.SINGLE else rng.randint(1, 0xFFFF)
    frag_index = rng.randrange(frag_count) if kind == PacketKind.FRAGMENT else 0
    return PacketHeader(rng.choice(list(StreamId)), kind, rng.getrandbits(32), frag_index,
                        frag_count, rng.getrandbits(16), rng.getrandbits(64))


def field_value(rng: random.Random, bits: int):
    """A value for an unsigned field: mostly near or inside its range, sometimes
    of the wrong type (int subclasses must pass, floats and the rest must not)."""
    top = 1 << bits
    return rng.choice((
        lambda: rng.randrange(top),
        lambda: rng.choice((0, 1, 2, top - 1, top, top + 1, -1)),
        lambda: rng.choice((True, False, PacketKind.FRAGMENT)),
        lambda: rng.choice((1.0, 0.5, float(top), None, "1", b"\x01", (1,), [1])),
    ))()


def odd_header(rng: random.Random) -> PacketHeader:
    return PacketHeader(
        stream_id=rng.choice((*StreamId, 0, 4, 255, 1.0, True, None, "IMAGE", [1])),
        kind=rng.choice((*PacketKind, 3, -1, 2.0, False, None, [0])),
        seq=field_value(rng, 32),
        frag_index=field_value(rng, 16),
        frag_count=field_value(rng, 16),
        payload_len=field_value(rng, 16),
        timestamp_us=field_value(rng, 64),
    )


def test_encode_agrees_with_reference_on_valid_and_odd_headers():
    rng = random.Random(0x5EED)
    for make in [valid_header] * 4000 + [odd_header] * 12000:
        h = make(rng)
        assert_agree(outcome(encode_header, h), outcome(encode_header_reference, h), h)


@parsers
def test_decode_agrees_with_reference_on_random_bytes(parse, reference):
    rng = random.Random(0xB17E5)
    for _ in range(4000):
        blob = rng.randbytes(rng.randint(0, HEADER_SIZE + 8))
        assert_agree(outcome(parse, blob), outcome(reference, blob), blob)


@parsers
def test_decode_agrees_with_reference_on_every_single_byte_mutation(parse, reference):
    rng = random.Random(0xF11B)
    headers = [valid_header(rng)._replace(payload_len=rng.randrange(40)) for _ in range(4)]
    # plus one of each kind with small frag fields, so mutations hit the boundaries
    headers += [PacketHeader(StreamId.IMAGE, kind, 7, 0, fc, 12, 99)
                for kind, fc in ((PacketKind.SINGLE, 0), (PacketKind.START, 1),
                                 (PacketKind.FRAGMENT, 1))]
    # each header leads a datagram with exactly the payload it announces
    datagrams = [encode_header_reference(h) + rng.randbytes(h.payload_len) for h in headers]
    cases = 0
    for raw in datagrams:
        for pos in range(HEADER_SIZE):
            for value in range(256):
                if value == raw[pos]:
                    continue
                blob = raw[:pos] + bytes([value]) + raw[pos + 1:]
                assert_agree(outcome(parse, blob), outcome(reference, blob), blob)
                cases += 1
    assert cases == len(datagrams) * HEADER_SIZE * 255


@parsers
def test_decode_agrees_with_reference_on_payload_lengths(parse, reference):
    """Payloads one byte short of, equal to and one past the announced length,
    and datagrams at and one past the IPv4 UDP maximum of 65,507 bytes."""
    rng = random.Random(0x51CE)
    largest = UDP_MAX_DATAGRAM - HEADER_SIZE
    cases = [(valid_header(rng)._replace(payload_len=rng.randrange(3000)), delta)
             for _ in range(600) for delta in (-1, 0, 1)]
    cases += [(valid_header(rng)._replace(payload_len=n), delta)
              for n in (0, largest, largest + 1) for delta in (-1, 0, 1)]
    accepted = 0
    for h, delta in cases:
        if h.payload_len + delta < 0:
            continue
        blob = encode_header_reference(h) + rng.randbytes(h.payload_len + delta)
        lean = outcome(parse, blob)
        assert_agree(lean, outcome(reference, blob), blob[:HEADER_SIZE])
        accepted += lean[0]
    assert UDP_MAX_DATAGRAM == 65507
    assert accepted == (len(cases) - 1 if parse is decode_header else 600 + 2)
