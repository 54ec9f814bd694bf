"""In-memory spans around nbpk's public calls, installed from outside.

:func:`install` replaces public functions and methods of nbpk with
wrappers that record one span per call: span id, parent span id, name,
trace id, start and end (``perf_counter_ns``). The frame or record seq is
the trace id. Nothing under ``src/`` changes; a module-level function is
replaced in every nbpk module that imported it, so ``from .wire import
decode_header`` inside ``fragment`` is wrapped too.

Spans stay in per-thread arrays until :func:`summarize` folds them into
per-name counts, total time and self time (a span's duration minus the
durations of its direct children) and :func:`dump` writes them out.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from array import array

import numpy as np

_FIELDS = 6  # span id, parent id, name id, trace id, start ns, end ns


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: (thread name, flat span records, result-type counts) per thread
        self.threads: list[tuple[str, array, dict]] = []

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], array("q"), {})
            with self._lock:
                self.threads.append((threading.current_thread().name, state[1], state[2]))
            return state

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def wrap(self, name, fn, trace_of=None, count_results=False):
        """``fn`` with one span per call. ``trace_of(args, result)`` gives the
        trace id; without it the span inherits its parent's."""
        nid = self._name_id(name)
        ids, state, clock = self._ids, self._state, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack, rec, counts = state()
            sid = next(ids)
            parent, ptrace = stack[-1] if stack else (0, -1)
            stack.append((sid, ptrace))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                rec.extend((sid, parent, nid, ptrace, t0, clock()))
                raise
            t1 = clock()
            stack.pop()
            trace = ptrace if trace_of is None else trace_of(args, result)
            rec.extend((sid, parent, nid, trace, t0, t1))
            if count_results:
                kind = type(result).__name__
                counts[kind] = counts.get(kind, 0) + 1
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name, fn):
        """Generator function ``fn`` with one span per item it yields; the
        trace id is the item's index."""
        nid = self._name_id(name)
        ids, state, clock = self._ids, self._state, time.perf_counter_ns

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            for index in itertools.count():
                stack, rec, _ = state()
                sid = next(ids)
                parent = stack[-1][0] if stack else 0
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                rec.extend((sid, parent, nid, index, t0, clock()))
                yield item

        traced.__wrapped__ = fn
        return traced


def _seq(message) -> int:
    image = getattr(message, "image", message)
    return getattr(image, "seq", -1)


def install(tracer: Tracer):
    """Wrap nbpk's public calls with spans; returns a function that undoes it."""
    from nbpk import bench, bridge, channel, fragment, recorder, robotsim, wire

    undo: list[tuple[object, str, object]] = []

    def function(module, attr, trace_of=None, iterator=False):
        orig = getattr(module, attr)
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        wrapped = (tracer.wrap_iter(name, orig) if iterator
                   else tracer.wrap(name, orig, trace_of))
        for mod in list(sys.modules.values()):
            if mod is None or not (mod.__name__ == "nbpk" or mod.__name__.startswith("nbpk.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    def method(module, cls, attr, trace_of=None, count_results=False):
        raw = cls.__dict__[attr]
        name = f"{module.__name__.split('.')[-1]}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, trace_of))
        else:
            wrapped = tracer.wrap(name, raw, trace_of, count_results)
        setattr(cls, attr, wrapped)
        undo.append((cls, attr, raw))

    function(robotsim, "gen_test_image", lambda a, r: a[0])
    function(robotsim, "image_ok", lambda a, r: a[0].seq)
    function(fragment, "packetize_image", lambda a, r: a[0].seq)
    method(fragment, fragment.Packet, "to_bytes", lambda a, r: a[0].header.seq)
    method(fragment, fragment.Packet, "from_bytes", lambda a, r: r.header.seq)
    method(fragment, fragment.Reassembler, "step", lambda a, r: a[1].header.seq, count_results=True)
    function(wire, "decode_header", lambda a, r: r.seq)
    function(wire, "encode_motion", lambda a, r: a[0].seq)
    function(wire, "decode_motion", lambda a, r: r.seq)
    method(channel, channel.StreamImpairer, "push", lambda a, r: a[1].header.seq)
    method(channel, channel.UdpEndpoint, "send_to")
    method(bridge, bridge.TopicBus, "publish", lambda a, r: _seq(a[2]))
    method(recorder, recorder.LogWriter, "write_message", lambda a, r: _seq(a[1]))
    function(recorder, "read_log", iterator=True)
    function(recorder, "image_from_record_payload", lambda a, r: r.seq)
    function(recorder, "yuv422_to_rgb", lambda a, r: a[0].seq)
    function(recorder, "export_ppm", lambda a, r: a[0].seq)
    function(recorder, "replay")
    function(bench, "run_scenario")

    def restore() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def _records(tracer: Tracer) -> tuple[np.ndarray, np.ndarray]:
    parts, owner = [], []
    for index, (_, rec, _) in enumerate(tracer.threads):
        spans = np.frombuffer(rec.tobytes(), dtype=np.int64).reshape(-1, _FIELDS)
        parts.append(spans)
        owner.append(np.full(len(spans), index, dtype=np.int64))
    if not parts:
        return np.zeros((0, _FIELDS), np.int64), np.zeros(0, np.int64)
    return np.concatenate(parts), np.concatenate(owner)


def summarize(tracer: Tracer) -> dict:
    """Per span name ``[count, total_ns, self_ns]``; busy ns per thread name
    (top-level spans only); result-type counts of counted calls."""
    spans, owner = _records(tracer)
    out = {"spans": {}, "busy_ns": {}, "results": {}}
    if len(spans):
        sid, parent, nid = spans[:, 0], spans[:, 1], spans[:, 2]
        dur = (spans[:, 5] - spans[:, 4]).astype(np.float64)
        children = np.bincount(parent, weights=dur, minlength=int(sid.max()) + 1)
        own = dur - children[sid]
        n = len(tracer.names)
        count = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        self_ns = np.bincount(nid, weights=own, minlength=n)
        for i, name in enumerate(tracer.names):
            if count[i]:
                out["spans"][name] = [int(count[i]), float(total[i]), float(self_ns[i])]
        top = parent == 0
        for index, (thread, _, _) in enumerate(tracer.threads):
            busy = float(dur[top & (owner == index)].sum())
            out["busy_ns"][thread] = out["busy_ns"].get(thread, 0.0) + busy
    for _, _, counts in tracer.threads:
        for kind, c in counts.items():
            out["results"][kind] = out["results"].get(kind, 0) + c
    return out


def merge(a: dict, b: dict) -> dict:
    """Combine two :func:`summarize` results (e.g. from two processes)."""
    out = {"spans": {}, "busy_ns": dict(a["busy_ns"]), "results": dict(a["results"])}
    for name in set(a["spans"]) | set(b["spans"]):
        x = a["spans"].get(name, [0, 0.0, 0.0])
        y = b["spans"].get(name, [0, 0.0, 0.0])
        out["spans"][name] = [x[0] + y[0], x[1] + y[1], x[2] + y[2]]
    for k, v in b["busy_ns"].items():
        out["busy_ns"][k] = out["busy_ns"].get(k, 0.0) + v
    for k, v in b["results"].items():
        out["results"][k] = out["results"].get(k, 0) + v
    return out


def dump(tracer: Tracer, path) -> None:
    """Write every span: ``records`` rows are (id, parent, name index, trace,
    start ns, end ns); ``thread`` gives each row's index into ``threads``."""
    spans, owner = _records(tracer)
    np.savez(path, records=spans, thread=owner,
             names=np.array(tracer.names, dtype=str),
             threads=np.array([t for t, _, _ in tracer.threads], dtype=str))
