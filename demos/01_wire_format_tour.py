#!/usr/bin/env python3
"""A guided tour of the datagram format.

Every datagram starts with the same 26-byte little-endian header; the
payload that follows depends on the stream and packet kind. This script
builds a few packets by hand and annotates the bytes that would go on
the wire.
"""

from nbpk.wire import (
    HEADER_SIZE,
    MotionReading,
    MotionRequest,
    PacketHeader,
    PacketKind,
    StreamId,
    WireError,
    decode_header,
    decode_motion,
    encode_header,
    encode_motion,
    encode_request,
)

FIELDS = [
    ("magic", 0, 4), ("version", 4, 5), ("stream_id", 5, 6), ("kind", 6, 7),
    ("flags", 7, 8), ("seq", 8, 12), ("frag_index", 12, 14),
    ("frag_count", 14, 16), ("payload_len", 16, 18), ("timestamp_us", 18, 26),
]


def dump_header(raw: bytes) -> None:
    for name, lo, hi in FIELDS:
        print(f"  {name:<12} bytes[{lo:2d}:{hi:2d}] = {raw[lo:hi].hex()}")


print("== A motion SINGLE header ==")
header = PacketHeader(stream_id=StreamId.MOTION, kind=PacketKind.SINGLE,
                      seq=1, payload_len=146)
raw = encode_header(header)
print(f"{HEADER_SIZE} bytes: {raw.hex()}")
dump_header(raw)
assert decode_header(raw) == header
print("decode(encode(h)) == h\n")

print("== The motion payload those 146 bytes announce ==")
reading = MotionReading.zero()  # 25 joints of zeros
body = encode_motion(reading)
print(f"joint_count: {body[0]}, reserved: {body[1]}, then "
      f"{reading.joint_count} positions + gyro(3) + accel(3) + torso(2) + "
      f"velocity(3) as float32 = {len(body)} bytes")
back = decode_motion(body, seq=header.seq)
print(f"round-trips with seq/timestamp taken from the header: seq={back.seq}\n")

print("== A walk command, 14 bytes ==")
req = MotionRequest.walk(0.5, 0.0, -0.25)
print(f"{encode_request(req).hex()}  (mode, action_id, vx, vy, omega)")
stand = MotionRequest(mode=req.mode.__class__.STAND, vx=0.9)
print(f"STAND zeroes whatever velocities it is given: vx={stand.vx}\n")

print("== Decoders refuse, they never guess ==")
for label, blob in [
    ("wrong magic", b"XBPK" + raw[4:]),
    ("truncated", raw[:10]),
    ("future version", raw[:4] + b"\x07" + raw[5:]),
    ("reserved flags set", raw[:7] + b"\x80" + raw[8:]),
]:
    try:
        decode_header(blob)
    except WireError as exc:
        print(f"  {label:<18} -> {type(exc).__name__}: {exc}")
