import gc
import itertools
import logging
import math
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SPLITMIX64_SEED0_FIRST, impair_reference, splitmix64_sequence

from nbpk.channel import (
    SPLITMIX64_GAMMA,
    EndpointConfig,
    ImpairmentConfig,
    Service,
    StreamImpairer,
    UdpEndpoint,
    splitmix64,
)

MASK64 = (1 << 64) - 1


def impair(cfg: ImpairmentConfig, items) -> list:
    """Push every item through a fresh impairer, then flush it."""
    imp = StreamImpairer(cfg)
    out = [released for item in items for released in imp.push(item)]
    return out + imp.flush()


class TestSplitMix64:
    def test_known_vector_seed_zero(self):
        assert splitmix64(SPLITMIX64_GAMMA) == SPLITMIX64_SEED0_FIRST
        assert SPLITMIX64_SEED0_FIRST == 16294208416658607535

    @given(st.integers(0, 2**64 - 1), st.integers(1, 64))
    def test_matches_reference(self, seed, n):
        draws = [splitmix64((seed + k * SPLITMIX64_GAMMA) & MASK64) for k in range(1, n + 1)]
        assert draws == splitmix64_sequence(seed, n)

    @given(st.integers(0, 2**64 - 1))
    def test_floats_in_unit_interval(self, state):
        # a u64 output, so its top 53 bits over 2**53 lie in [0, 1)
        assert 0 <= splitmix64(state) <= MASK64
        assert 0.0 <= (splitmix64(state) >> 11) * 2.0**-53 < 1.0

    def test_float_uses_top_53_bits(self):
        # the first packet's loss draw u: loss_p == u keeps it, the next double up loses it
        seed = 12345
        u = (splitmix64_sequence(seed, 1)[0] >> 11) * 2.0**-53
        assert impair(ImpairmentConfig(loss_p=u, seed=seed), ["a"]) == ["a"]
        assert impair(ImpairmentConfig(loss_p=math.nextafter(u, 1.0), seed=seed), ["a"]) == []


class TestImpairmentConfig:
    def test_probability_ranges(self):
        with pytest.raises(ValueError):
            ImpairmentConfig(loss_p=-0.1)
        with pytest.raises(ValueError):
            ImpairmentConfig(dup_p=1.5)
        with pytest.raises(ValueError):
            ImpairmentConfig(reorder_depth=0)

    def test_defaults_are_transparent(self):
        assert impair(ImpairmentConfig(), list(range(10))) == list(range(10))


class TestImpair:
    def test_deterministic(self):
        cfg = ImpairmentConfig(loss_p=0.3, dup_p=0.2, reorder_p=0.2, seed=99)
        items = list(range(500))
        assert impair(cfg, items) == impair(cfg, items)

    def test_different_seed_different_trace(self):
        items = list(range(200))
        a = impair(ImpairmentConfig(loss_p=0.5, seed=1), items)
        b = impair(ImpairmentConfig(loss_p=0.5, seed=2), items)
        assert a != b

    def test_total_loss(self):
        assert impair(ImpairmentConfig(loss_p=1.0, seed=0), list(range(50))) == []

    def test_loss_rate_statistics(self):
        cfg = ImpairmentConfig(loss_p=0.1, seed=7)
        n = 20000
        survivors = impair(cfg, range(n))
        rate = 1 - len(survivors) / n
        assert abs(rate - 0.1) < 0.01

    def test_duplicates_are_adjacent_copies(self):
        cfg = ImpairmentConfig(dup_p=1.0, seed=3)
        out = impair(cfg, ["a", "b", "c"])
        assert out == ["a", "a", "b", "b", "c", "c"]

    def test_reorder_moves_item_back(self):
        # force-reorder everything: each item lands `depth` slots late, and
        # with every slot shifted equally the order is ultimately unchanged;
        # reorder only permutes when it hits a subset
        cfg = ImpairmentConfig(reorder_p=1.0, reorder_depth=2, seed=5)
        assert impair(cfg, list(range(6))) == list(range(6))

    def test_reorder_partial_permutes(self):
        cfg = ImpairmentConfig(reorder_p=0.5, reorder_depth=3, seed=11)
        items = list(range(100))
        out = impair(cfg, items)
        assert sorted(out) == items  # nothing lost or duplicated
        assert out != items  # but genuinely reordered at this seed

    def test_loss_decisions_are_per_index(self):
        # the fate of packet i must not depend on how long the stream is
        cfg = ImpairmentConfig(loss_p=0.4, seed=21)
        long = set(impair(cfg, range(300)))
        short = set(impair(cfg, range(100)))
        assert short == {i for i in long if i < 100}


class TestStreamImpairer:
    @settings(max_examples=200)
    @given(
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
        st.integers(1, 5), st.integers(0, 2**32), st.integers(0, 120),
    )
    def test_equivalent_to_batch(self, loss, dup, reorder, depth, seed, n):
        cfg = ImpairmentConfig(loss_p=loss, dup_p=dup, reorder_p=reorder,
                               reorder_depth=depth, seed=seed)
        items = list(range(n))
        imp = StreamImpairer(cfg)
        streamed = []
        for item in items:
            streamed.extend(imp.push(item))
        streamed.extend(imp.flush())
        assert streamed == impair_reference(cfg, items)

    # hypothesis's floats(0, 1) rarely draws the doubles next to 0 and 1
    @pytest.mark.parametrize("p", [0.0, 5e-324, 0.01, 1 - 2**-53, 1.0])
    @pytest.mark.parametrize("name", ["loss_p", "dup_p", "reorder_p"])
    def test_edge_probabilities_match_reference(self, name, p):
        items = list(range(200))
        for other, seed in itertools.product((0.0, 0.2, 1.0), (0, 2**64 + 7)):  # seed mod 2**64
            cfg = ImpairmentConfig(**{"loss_p": other, "dup_p": other, "reorder_p": other, name: p},
                                   reorder_depth=3, seed=seed)
            assert impair(cfg, items) == impair_reference(cfg, items), cfg

    def test_releases_do_not_wait_for_flush(self):
        imp = StreamImpairer(ImpairmentConfig())
        assert imp.push("a") == ["a"]
        assert imp.push("b") == ["b"]
        assert imp.flush() == []


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
