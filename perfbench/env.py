"""Where the benchmark runs: the checkout, its nbpk source, and the machine.

The benchmark always imports nbpk from the ``src`` tree of the checkout it
sits in, never from an installed copy, so that it measures the code next
to it. Without that tree it stops with exit code 2 before measuring.
"""

from __future__ import annotations

import os
import platform
import socket
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch files (logs, PPMs, span dumps) go here; it is ignored by git.
WORK = ROOT / ".perfbench"


def import_nbpk():
    """Import nbpk from ``<checkout>/src``; exit with code 2 if it is not there."""
    init = SRC / "nbpk" / "__init__.py"
    if not init.is_file():
        sys.stderr.write(f"perfbench: no nbpk source at {init}; run it from a checkout of the repository\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nbpk

    if Path(nbpk.__file__).resolve() != init.resolve():
        sys.stderr.write(f"perfbench: imported nbpk from {nbpk.__file__}, expected {init}\n")
        sys.exit(2)
    return nbpk


@dataclass(frozen=True)
class _ProbeRecord:
    seq: int
    size: int
    payload: bytes

    def __post_init__(self) -> None:
        if self.size != len(self.payload):
            raise ValueError("size does not match payload")


_PROBE_BLOB = bytes(1400)

# When the live workloads may probe: at most every PROBE_EVERY_S, only once
# the last frame is done (PROBE_QUIET_S after it was due or sent) and while
# the next message is at least PROBE_SLACK_S away.
PROBE_EVERY_S = 0.1
PROBE_QUIET_S = 0.012
PROBE_SLACK_S = 0.005


def host_probe(clock=time.perf_counter) -> float:
    """Milliseconds two fixed loops take now on ``clock``; they run no nbpk code.

    The host's speed drifts by tens of percent over minutes (other tenants
    share its cores), far more than the run-to-run noise of the code
    itself. Workloads run this probe while nbpk is idle, interleaved with
    their work, and divide their latency by its median, so that a drift
    of the host cancels while a change in nbpk's speed does not. One loop
    is integer arithmetic; the other builds validated frozen dataclasses
    around byte slices, the kind of work nbpk's own Python does, which
    tracks the drift of the workloads more closely than arithmetic alone.
    Single-threaded workloads pass ``time.thread_time``, so that the probe,
    like their own timing, leaves out time the thread spent descheduled.
    """
    t = clock()
    total = 0
    for i in range(10000):
        total += i * i
    records = []
    for i in range(1000):
        size = i % 700
        records.append(_ProbeRecord(i, size, _PROBE_BLOB[:size]))
    return (clock() - t) * 1e3


def machine_facts(seed: int) -> dict:
    """Facts every result is printed with, so runs on different hosts are not mixed up."""
    import numpy
    from nbpk import channel

    requested = channel.EndpointConfig().kernel_buffer
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, requested)
        granted = s.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "transport": "host loopback (127.0.0.1), not a real link",
        # Linux reports twice the usable size (it counts its bookkeeping) and
        # caps the request at net.core.rmem_max.
        "so_rcvbuf_requested": requested,
        "so_rcvbuf_granted": granted,
    }
