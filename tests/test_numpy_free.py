"""The robot and bridge sides, logging and replay, and their CLI commands run
without numpy; only inertial and recorder's export need it.

The checks run in a fresh interpreter whose import system refuses numpy, so
they hold whether numpy is installed or not. They pin five digests: the
delivered seqs of a lossy simulated run, the channel simulator's draws for two
mixes, the sender's wire bytes, which a receiver then reassembles, and a log's bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import nbpk

REFUSE_NUMPY = """
import importlib.abc, sys

class RefuseNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition('.')[0] == 'numpy':
            raise ModuleNotFoundError(f'No module named {name!r}', name=name)

sys.meta_path.insert(0, RefuseNumpy())
"""

CHECKS = """
import importlib, sys
for m in ('wire', 'fragment', 'channel', 'robotsim', 'bridge', 'bench', 'cli', 'recorder'):
    importlib.import_module('nbpk.' + m)
# nbpk bench runs end to end with no numpy loaded
from nbpk import cli
assert cli.main(['bench', '--duration', '1', '--loss', '0.01', '--seed', '1']) == 0
assert 'numpy' not in sys.modules
# nbpk bridge prints the snapshots it reads from bridge/stats, with no numpy loaded
import contextlib, io, json
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(['bridge', '--image-port', '0', '--motion-port', '0',
                     '--stats-period', '0.2', '--duration', '1'])
lines = out.getvalue().splitlines()
assert code == 0 and lines and all('uptime_s' in json.loads(line) for line in lines), lines
assert 'numpy' not in sys.modules
import hashlib
from nbpk.bench import Scenario, run_scenario
from nbpk.channel import ImpairmentConfig
seqs = []
r = run_scenario(Scenario(duration_s=1.0, impairment=ImpairmentConfig(loss_p=0.01), seed=1),
                 trace_out=seqs)
assert r.frames_sent == 30 and r.verify_failures == 0, r
# pinned delivered seqs: a changed draw fails here too, without numpy
digest = hashlib.sha256(','.join(map(str, seqs)).encode()).hexdigest()[:16]
assert r.frames_delivered == 15 and digest == 'a2c02fe93da12b7f', (r, seqs)
print(r)
# all three draw streams across eight 128-packet blocks, seed wrapping 2**64
# one item per push, then the same stream through push_all in runs straddling the blocks;
# the second mix duplicates every packet, so each lane has an outcome
import itertools
from nbpk.channel import StreamImpairer
for cfg, pinned in ((ImpairmentConfig(loss_p=0.3, dup_p=0.2, reorder_p=0.2, reorder_depth=3),
                     (843, '963fe316a45f17db')),
                    (ImpairmentConfig(loss_p=0.05, dup_p=1.0, reorder_p=0.3, reorder_depth=3),
                     (1916, '23f930d987ffc7c7'))):
    imp = StreamImpairer(cfg, 2**64 - 5)
    per_item = [x for i in range(1000) for x in imp.push(i)] + imp.flush()
    imp, chunked, start = StreamImpairer(cfg, 2**64 - 5), [], 0
    for size in itertools.cycle((1, 111, 127, 300)):
        if start >= 1000:
            break
        chunked += imp.push_all(range(start, min(1000, start + size)))
        start += size
    chunked += imp.flush()
    for out in (per_item, chunked):
        digest = hashlib.sha256(','.join(map(str, out)).encode()).hexdigest()[:16]
        assert (len(out), digest) == pinned, (cfg, len(out), digest)
# the camera's cached CRC terms, checked without the numpy oracle
from nbpk.robotsim import gen_test_image, image_ok
for low in range(256):
    assert image_ok(gen_test_image(low + 256 * (low * 40503 % 2**24), 320, 240)), low
assert gen_test_image(250, 4, 2).pixels == bytes.fromhex('fa000000 feff0001 02030405 bbe2912c')
# the receive path: one frame's datagrams through a fresh image receiver
from nbpk.fragment import Reassembler, packetize_image
rx = Reassembler()
got = [rx.feed(p.to_bytes()) for p in packetize_image(gen_test_image(9, 320, 240))]
assert got[:-1] == [None] * 110 and image_ok(got[-1]) and got[-1].seq == 9, rx.stats()
# the sender's wire bytes: three QVGA frames, a full last fragment among them
from dataclasses import replace
datagrams = [p.to_bytes() for seq, fp in ((0, 1400), (255, 1446), (2**32 - 1, 256))
             for p in packetize_image(replace(gen_test_image(seq, 320, 240), timestamp_us=seq * 33333), fp)]
wire = b''.join(datagrams)
digest = hashlib.sha256(wire).hexdigest()[:16]
assert len(wire) == 482156 and digest == '7167e6690da2b201', (len(wire), digest)
# fed back to one receiver, they are the three frames, the last one a sender restart
rx = Reassembler()
got = [image for d in datagrams if (image := rx.feed(d)) is not None]
st = rx.stats()
assert [img.seq for img in got] == [0, 255, 2**32 - 1] and all(map(image_ok, got)), st
assert (st.frames_complete, st.sender_restarts, st.orphan_fragments, st.duplicate_fragments,
        st.malformed_packets) == (3, 1, 0, 0, 0), st
# the log's bytes: frames and readings, a command, then a restarted camera; replayed in full
import math, os, tempfile
from nbpk.bridge import TopicBus
from nbpk.recorder import record_messages, replay
from nbpk.robotsim import WalkState, gen_motion
from nbpk.wire import MotionReading, MotionRequest
msgs = [*sorted([replace(gen_test_image(i), timestamp_us=i * 33333) for i in range(3)]
                + [gen_motion(j, j / 100, WalkState()) for j in range(10)],
                key=lambda m: (m.timestamp_us, isinstance(m, MotionReading))),
        MotionRequest.walk(0.25, -0.1, 0.5), replace(gen_test_image(2**32 - 100), timestamp_us=5)]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, 'ci.nbl')
    assert record_messages(msgs, path, epoch_us=0) == 15
    with open(path, 'rb') as f:
        raw = f.read()
    digest = hashlib.sha256(raw).hexdigest()[:16]
    assert len(raw) == 616148 and digest == '94343bbc96ca84a0', (len(raw), digest)
    assert replay(path, TopicBus(), speed=math.inf) == 15
assert 'numpy' not in sys.modules
"""


def run_refusing_numpy(script: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(nbpk.__file__).parent.parent)}
    return subprocess.run([sys.executable, "-c", REFUSE_NUMPY + script],
                          capture_output=True, text=True, env=env, timeout=120)


def test_numpy_is_refused():
    done = run_refusing_numpy("import numpy")
    assert done.returncode != 0 and "No module named 'numpy'" in done.stderr


def test_numpy_free_modules_commands_and_digests():
    done = run_refusing_numpy(CHECKS)
    assert done.returncode == 0, done.stderr
