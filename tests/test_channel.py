import gc
import itertools
import logging
import math
import socket
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import SPLITMIX64_SEED0_FIRST, impair_reference, splitmix64_seed_for, splitmix64_sequence

from nbpk.channel import (
    SPLITMIX64_GAMMA,
    EndpointConfig,
    ImpairmentConfig,
    Service,
    StreamImpairer,
    UdpEndpoint,
    _mixed_block,
)

MASK64 = (1 << 64) - 1


def impair(cfg: ImpairmentConfig, seed: int, items, chunks=None) -> list:
    """Push the items through a fresh impairer, then flush it: one at a time
    through ``push``, or, given chunk sizes (cycled), in runs through ``push_all``."""
    imp, items = StreamImpairer(cfg, seed), list(items)
    if chunks is None:
        out = [released for item in items for released in imp.push(item)]
    else:
        out, start, sizes = [], 0, itertools.cycle(chunks)
        while start < len(items):
            size = next(sizes)
            out += imp.push_all(items[start:start + size])
            start += size
    return out + imp.flush()


LANES = 128  # draws per stream in one block
LANE_ONES = sum(1 << 128 * k for k in range(LANES))  # a 1 in every 128-bit lane of a mixed block
# seeds anywhere, and seeds near 2**64, whose Weyl states wrap inside the first block
SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 2**20, 2**64 + 2**20))
# runs of 0-300 items, so a run can start, end or lie anywhere in a block; None pushes one at a time
CHUNKS = st.lists(st.integers(0, 300), min_size=1, max_size=6).filter(any)
CHUNKING = st.one_of(st.none(), CHUNKS)


def lanes(block: int) -> list[int]:
    """The 128-bit lanes of a mixed block, lane 0 first."""
    return [block >> 128 * k & (1 << 128) - 1 for k in range(LANES)]


class TestSplitMix64:
    def test_known_vector_seed_zero(self):
        assert lanes(_mixed_block(SPLITMIX64_GAMMA))[0] == SPLITMIX64_SEED0_FIRST
        assert SPLITMIX64_SEED0_FIRST == 16294208416658607535

    @given(SEEDS)
    @example(2**64 - 1)
    @example(2**64 - 5)
    def test_matches_reference(self, seed):
        # every lane of the blocks that start at draws 1, 2 and 3: draws 1 .. 384 in all
        draws = splitmix64_sequence(seed, 3 * LANES)
        for j in (1, 2, 3):
            assert lanes(_mixed_block(seed + j * SPLITMIX64_GAMMA)) == draws[j - 1::3]

    @given(SEEDS)
    def test_floats_in_unit_interval(self, state):
        # u64 outputs, so their top 53 bits over 2**53 lie in [0, 1)
        for draw in lanes(_mixed_block(state)):
            assert 0 <= draw <= MASK64
            assert 0.0 <= (draw >> 11) * 2.0**-53 < 1.0

    # push_all adds 2**64 - limit to every lane: bit 64 is set where the draw is not below the limit
    @given(SEEDS, st.integers(0, LANES - 1), st.integers(-1, 1))
    @example(0, 0, -2**64)
    @example(0, 0, 2**64)
    def test_addend_carries_into_bit_64_unless_the_draw_is_below_the_limit(self, state, k, delta):
        draws = lanes(_mixed_block(state))
        limit = min(max(draws[k] + delta, 1), MASK64)
        carried = lanes(_mixed_block(state, LANE_ONES * (2**64 - limit)))
        assert [lane >> 64 for lane in carried] == [int(draw >= limit) for draw in draws]
        assert [lane & MASK64 for lane in carried] == [(draw - limit) & MASK64 for draw in draws]

    def test_float_uses_top_53_bits(self):
        # the first packet's loss draw u: loss_p == u keeps it, the next double up loses it
        seed = 12345
        u = (splitmix64_sequence(seed, 1)[0] >> 11) * 2.0**-53
        assert impair(ImpairmentConfig(loss_p=u), seed, ["a"]) == ["a"]
        assert impair(ImpairmentConfig(loss_p=math.nextafter(u, 1.0)), seed, ["a"]) == []


class TestImpairmentConfig:
    def test_probability_ranges(self):
        with pytest.raises(ValueError):
            ImpairmentConfig(loss_p=-0.1)
        with pytest.raises(ValueError):
            ImpairmentConfig(dup_p=1.5)
        with pytest.raises(ValueError):
            ImpairmentConfig(reorder_depth=0)

    def test_defaults_are_transparent(self):
        assert impair(ImpairmentConfig(), 0, list(range(10))) == list(range(10))


class TestImpair:
    def test_deterministic(self):
        cfg = ImpairmentConfig(loss_p=0.3, dup_p=0.2, reorder_p=0.2)
        items = list(range(500))
        assert impair(cfg, 99, items) == impair(cfg, 99, items)

    def test_different_seed_different_trace(self):
        items = list(range(200))
        a = impair(ImpairmentConfig(loss_p=0.5), 1, items)
        b = impair(ImpairmentConfig(loss_p=0.5), 2, items)
        assert a != b

    def test_total_loss(self):
        assert impair(ImpairmentConfig(loss_p=1.0), 0, list(range(50))) == []

    def test_loss_rate_statistics(self):
        n = 20000
        survivors = impair(ImpairmentConfig(loss_p=0.1), 7, range(n))
        rate = 1 - len(survivors) / n
        assert abs(rate - 0.1) < 0.01

    def test_duplicates_are_adjacent_copies(self):
        out = impair(ImpairmentConfig(dup_p=1.0), 3, ["a", "b", "c"])
        assert out == ["a", "a", "b", "b", "c", "c"]

    def test_reorder_moves_item_back(self):
        # force-reorder everything: each item lands `depth` slots late, and
        # with every slot shifted equally the order is ultimately unchanged;
        # reorder only permutes when it hits a subset
        cfg = ImpairmentConfig(reorder_p=1.0, reorder_depth=2)
        assert impair(cfg, 5, list(range(6))) == list(range(6))

    def test_reorder_partial_permutes(self):
        cfg = ImpairmentConfig(reorder_p=0.5, reorder_depth=3)
        items = list(range(100))
        out = impair(cfg, 11, items)
        assert sorted(out) == items  # nothing lost or duplicated
        assert out != items  # but genuinely reordered at this seed

    def test_loss_decisions_are_per_index(self):
        # the fate of packet i must not depend on how long the stream is
        cfg = ImpairmentConfig(loss_p=0.4)
        long = set(impair(cfg, 21, range(300)))
        short = set(impair(cfg, 21, range(100)))
        assert short == {i for i in long if i < 100}


class TestStreamImpairer:
    @settings(max_examples=200)
    @given(
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
        st.integers(1, 5), st.integers(0, 2**32), st.integers(0, 3 * LANES + 16), CHUNKING,
    )
    def test_equivalent_to_batch(self, loss, dup, reorder, depth, seed, n, chunks):
        cfg = ImpairmentConfig(loss_p=loss, dup_p=dup, reorder_p=reorder, reorder_depth=depth)
        items = list(range(n))
        assert impair(cfg, seed, items, chunks) == impair_reference(cfg, seed, items)

    # either side of each refill, with every stream drawing
    @settings(max_examples=20)
    @given(chunks=CHUNKING)
    @pytest.mark.parametrize("n", [LANES - 1, LANES, LANES + 1, 2 * LANES + 1, 8 * LANES])
    @pytest.mark.parametrize("seed", [0, 2**64 - 5])
    def test_equivalent_across_blocks(self, n, seed, chunks):
        cfg = ImpairmentConfig(loss_p=0.3, dup_p=0.2, reorder_p=0.2, reorder_depth=3)
        assert impair(cfg, seed, range(n), chunks) == impair_reference(cfg, seed, list(range(n)))

    # hypothesis's floats(0, 1) rarely draws the doubles next to 0 and 1
    @settings(max_examples=10)
    @given(chunks=CHUNKING)
    @pytest.mark.parametrize("p", [0.0, 5e-324, 0.01, 1 - 2**-53, 1.0])
    @pytest.mark.parametrize("name", ["loss_p", "dup_p", "reorder_p"])
    def test_edge_probabilities_match_reference(self, name, p, chunks):
        items = list(range(200))
        for other, seed in itertools.product((0.0, 0.2, 1.0), (0, 2**64 + 7)):  # seed mod 2**64
            cfg = ImpairmentConfig(**{"loss_p": other, "dup_p": other, "reorder_p": other, name: p},
                                   reorder_depth=3)
            assert impair(cfg, seed, items, chunks) == impair_reference(cfg, seed, items), (cfg, seed)

    # Item i, the first or last lane of a block, gets a chosen draw: u = 0 lies below 5e-324, and
    # u = 1 - 2**-53 does not lie below itself. The next draw in u decides the other way, and a
    # draw on the limit ceil(p * 2**53) << 11 is no outcome while the draw one below it is.
    @settings(max_examples=10)
    @given(chunks=CHUNKING)
    @pytest.mark.parametrize("p, draw, fires", [
        (5e-324, 0, True), (5e-324, 2**11 - 1, True), (5e-324, 2**11, False),
        (1 - 2**-53, MASK64, False), (1 - 2**-53, MASK64 - 2**11, True),
        *[(0.3, (math.ceil(0.3 * 2**53) << 11) + d, d < 0) for d in (-1, 0, 1)],
    ])
    @pytest.mark.parametrize("i", [0, LANES - 1, LANES, 200])
    @pytest.mark.parametrize("name", ["loss_p", "dup_p", "reorder_p"])
    def test_edge_probabilities_decide_by_the_top_53_bits(self, name, i, p, draw, fires, chunks):
        k = 3 * i + ("loss_p", "dup_p", "reorder_p").index(name) + 1
        cfg, seed = ImpairmentConfig(**{name: p}, reorder_depth=2), splitmix64_seed_for(draw, k)
        assert ((splitmix64_sequence(seed, k)[-1] >> 11) * 2.0**-53 < p) == fires
        items = list(range(i + 3))
        assert impair(cfg, seed, items, chunks) == impair_reference(cfg, seed, items)

    @settings(max_examples=100)
    @given(st.floats(0, 1), st.floats(0, 1), st.integers(1, 5), st.integers(0, 2**32),
           st.integers(0, 3 * LANES + 16), CHUNKS)
    def test_releases_do_not_wait_for_flush(self, loss, reorder, depth, seed, n, chunks):
        imp = StreamImpairer(ImpairmentConfig(), seed)
        assert imp.push("a") == ["a"]
        assert imp.push("b") == ["b"]
        assert imp.flush() == []
        # each run releases what pushing its items one at a time releases by the same point
        cfg = ImpairmentConfig(loss_p=loss, dup_p=0.2, reorder_p=reorder, reorder_depth=depth)
        runs, one_at_a_time = StreamImpairer(cfg, seed), StreamImpairer(cfg, seed)
        start, sizes = 0, itertools.cycle(chunks)
        while start < n:
            run = range(start, min(n, start + next(sizes)))
            assert runs.push_all(run) == [x for item in run for x in one_at_a_time.push(item)]
            start = run.stop
        assert runs.flush() == one_at_a_time.flush()

    # a run ends at an outcome, a pending release or a block edge: cut the stream at each;
    # at 0.06, blocks fall either side of the density past which every lane goes one at a time
    @settings(max_examples=300, deadline=None)
    @given(*[st.sampled_from([0.0, 1e-3, 0.06, 0.3, 1.0])] * 3, st.integers(1, 8), SEEDS,
           st.integers(0, 3 * LANES + 16), st.data())
    def test_runs_cut_at_block_edges_and_release_slots(self, loss, dup, reorder, depth, seed, n, data):
        cfg = ImpairmentConfig(loss_p=loss, dup_p=dup, reorder_p=reorder, reorder_depth=depth)
        one_at_a_time = StreamImpairer(cfg, seed)
        released = [one_at_a_time.push(i) for i in range(n)]
        # slot j released an earlier item: a pending release fell due as item j was pushed
        slots = {j for j, out in enumerate(released) if any(item < j for item in out)}
        edges = sorted({*range(0, n + 1, LANES), *slots, *(j + 1 for j in slots if j < n)})
        cuts = sorted(data.draw(st.lists(st.sampled_from(edges), max_size=8)))
        runs, items, bounds, out = StreamImpairer(cfg, seed), list(range(n)), [0, *cuts, n], []
        for a, b in zip(bounds, bounds[1:]):
            run = runs.push_all(items[a:b])
            assert run == [x for each in released[a:b] for x in each], (a, b)
            out += run
        tail = runs.flush()
        assert tail == one_at_a_time.flush()
        assert out + tail == impair_reference(cfg, seed, items)


class TestEndpointConfig:
    def test_port_validation(self):
        with pytest.raises(ValueError):
            EndpointConfig(bind_port=80)
        with pytest.raises(ValueError):
            EndpointConfig(bind_port=70000)
        EndpointConfig(bind_port=0)
        EndpointConfig(bind_port=20000)


class TestUdpEndpoint:
    def test_roundtrip_on_loopback(self):
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as rx:
            with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
                tx.send_to(b"ping", ("127.0.0.1", rx.local_port))
                assert rx.recv(timeout=2.0) == b"ping"

    def test_recv_timeout_returns_none(self):
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as rx:
            assert rx.recv(timeout=0.05) is None

    def test_recv_honours_a_changed_timeout(self):
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as rx:
            assert rx.recv(timeout=0.05) is None
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
                sender = threading.Timer(0.2, s.sendto, (b"late", ("127.0.0.1", rx.local_port)))
                sender.start()
                try:
                    got = rx.recv(timeout=2.0)
                finally:
                    sender.join(timeout=5.0)
            assert not sender.is_alive()
            assert got == b"late"

    def test_bind_on_a_taken_port_closes_the_socket(self):
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as taken:
            with pytest.raises(OSError):
                UdpEndpoint(EndpointConfig(bind_host="127.0.0.1", bind_port=taken.local_port))
            gc.collect()  # a socket left open warns when it is collected

    def test_ephemeral_port_assigned(self):
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as ep:
            assert 1024 <= ep.local_port <= 65535

    def test_oversized_send_rejected(self):
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as ep:
            with pytest.raises(ValueError):
                ep.send_to(b"\x00" * 65508, ("127.0.0.1", 9))

    def test_largest_datagram_arrives_whole(self):
        data = bytes(range(256)) * 255 + bytes(227)  # 65,507 bytes: the IPv4 UDP maximum
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as rx:
            with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as tx:
                tx.send_to(data, ("127.0.0.1", rx.local_port))
                got = rx.recv(timeout=2.0)
        assert got == data


class TestService:
    def test_a_loop_that_raises_stops_the_others_and_stop_raises_it(self, caplog):
        ended = threading.Event()

        def fail():
            raise RuntimeError("loop failed")

        def wait():
            svc._stop.wait()
            ended.set()

        svc = Service({"nbpk-test-fail": fail, "nbpk-test-wait": wait}, ())
        with caplog.at_level(logging.ERROR, logger="nbpk"):
            svc.start()
            ended_on_its_own = ended.wait(2.0)
            with pytest.raises(RuntimeError, match="loop failed"):
                svc.stop()
        assert ended_on_its_own
        assert not any(t.is_alive() for t in svc._threads)
        [rec] = caplog.records
        assert rec.name == "nbpk" and "nbpk-test-fail" in rec.getMessage() and rec.exc_info

    def test_wait_returns_when_a_loop_dies_or_the_time_is_up(self, caplog):
        failing = threading.Event()

        def fail():
            failing.wait()
            raise RuntimeError("loop failed")

        svc = Service({"nbpk-test-fail": fail}, ())
        with caplog.at_level(logging.ERROR, logger="nbpk"):
            svc.start()
            assert svc.wait(0.05) is False
            failing.set()
            t0 = time.monotonic()
            assert svc.wait(5.0) is True
            assert time.monotonic() - t0 < 1.0
            with pytest.raises(RuntimeError, match="loop failed"):
                svc.stop()

    @pytest.mark.parametrize("timeout", [None, math.inf])
    def test_wait_without_limit_returns_when_a_loop_dies(self, caplog, timeout):
        # inf waits as None does; threading.Event.wait alone raises OverflowError for it
        def fail():
            time.sleep(0.05)
            raise RuntimeError("loop failed")

        svc = Service({"nbpk-test-fail": fail}, ())
        with caplog.at_level(logging.ERROR, logger="nbpk"):
            svc.start()
            assert svc.wait(timeout) is True
            with pytest.raises(RuntimeError, match="loop failed"):
                svc.stop()

    def test_wait_refuses_nan(self):
        # NaN is no time at all; threading.Event.wait alone returns False at once
        svc = Service({"nbpk-test-wait": lambda: svc._stop.wait()}, ())
        with svc:
            with pytest.raises(ValueError, match="timeout"):
                svc.wait(math.nan)
            assert svc.wait(0) is False
