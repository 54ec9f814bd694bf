"""Differential test of the datagram header codec.

The library validates a header with integer compares and table lookups;
``oracles`` keeps the original field-by-field validator with enum
membership scans. On every input both must agree: the same header (or the
same bytes), or a ``WireError`` of the same subclass. About 66,000 cases.
"""

import random

from oracles import decode_header_reference, encode_header_reference

from nbpk.wire import (
    HEADER_SIZE,
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
    if lean[0] and isinstance(lean[1], PacketHeader):
        assert type(lean[1].stream_id) is StreamId and type(lean[1].kind) is PacketKind, arg


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


def test_decode_agrees_with_reference_on_random_bytes():
    rng = random.Random(0xB17E5)
    for _ in range(4000):
        blob = rng.randbytes(rng.randint(0, HEADER_SIZE + 8))
        assert_agree(outcome(decode_header, blob), outcome(decode_header_reference, blob), blob)


def test_decode_agrees_with_reference_on_every_single_byte_mutation():
    rng = random.Random(0xF11B)
    encodings = [encode_header_reference(valid_header(rng)) for _ in range(4)]
    # plus one of each kind with small frag fields, so mutations hit the boundaries
    encodings += [encode_header_reference(PacketHeader(StreamId.IMAGE, kind, 7, 0, fc, 12, 99))
                  for kind, fc in ((PacketKind.SINGLE, 0), (PacketKind.START, 1),
                                   (PacketKind.FRAGMENT, 1))]
    cases = 0
    for raw in encodings:
        for pos in range(HEADER_SIZE):
            for value in range(256):
                if value == raw[pos]:
                    continue
                blob = raw[:pos] + bytes([value]) + raw[pos + 1:]
                assert_agree(outcome(decode_header, blob), outcome(decode_header_reference, blob),
                             blob)
                cases += 1
    assert cases == len(encodings) * HEADER_SIZE * 255
