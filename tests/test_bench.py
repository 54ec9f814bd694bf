import hashlib
import json
import math
from dataclasses import astuple

import pytest

from nbpk.bench import (
    Report,
    Scenario,
    analytic_delivery,
    packets_per_frame,
    run_loopback,
    run_scenario,
)
from nbpk.channel import ImpairmentConfig
from nbpk.cli import main
from nbpk.fragment import MAX_FRAG_PAYLOAD, MIN_FRAG_PAYLOAD, packetize_image
from nbpk.robotsim import gen_test_image


class TestAnalyticModel:
    def test_no_loss_is_certain(self):
        assert analytic_delivery(0.0, 111) == 1.0

    def test_single_packet_coin_flip(self):
        assert analytic_delivery(0.5, 1) == 0.5

    def test_total_loss(self):
        assert analytic_delivery(1.0, 3) == 0.0

    def test_default_frame_value(self):
        got = analytic_delivery(0.01, 111)
        assert got == pytest.approx(0.3277227574378037, abs=1e-15)
        # same number through an independent route
        assert got == pytest.approx(math.exp(111 * math.log(0.99)), rel=1e-12)

    def test_monotone_in_loss(self):
        vals = [analytic_delivery(p, 50) for p in (0.0, 0.01, 0.05, 0.2, 1.0)]
        assert vals == sorted(vals, reverse=True)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            analytic_delivery(-0.1, 10)
        with pytest.raises(ValueError):
            analytic_delivery(1.1, 10)
        with pytest.raises(ValueError):
            analytic_delivery(0.1, 0)

    def test_packets_per_frame(self):
        assert packets_per_frame(320, 240, 1400) == 111  # 153600 B: 109 full + 1000 B tail
        assert packets_per_frame(64, 48, 1400) == 6
        assert packets_per_frame(64, 48, 6144) == 2  # exactly one full fragment

    @pytest.mark.parametrize("width, height, frag_payload", [
        *((w, h, fp) for w, h in ((320, 240), (64, 48), (160, 120), (33, 7))
          for fp in (MIN_FRAG_PAYLOAD, 1400, MAX_FRAG_PAYLOAD)),
        (320, 240, 1536), (64, 48, 1024), (64, 48, 6144),  # exact divisors of the frame
    ])
    def test_packets_per_frame_is_what_the_packetizer_sends(self, width, height, frag_payload):
        sent = packetize_image(gen_test_image(0, width, height), frag_payload)
        assert packets_per_frame(width, height, frag_payload) == len(sent)


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(duration_s=0)
        with pytest.raises(ValueError):
            Scenario(fps=-1)

    def test_packets_per_frame_property(self):
        assert Scenario(width=320, height=240).packets_per_frame == 111


class TestReport:
    def test_validation(self):
        kw = dict(frames_sent=10, frames_delivered=5, delivery_ratio=0.5,
                  expected_ratio=0.5, mean_latency_us=1.0, p95_latency_us=2.0,
                  orphan_fragments=0, duplicate_fragments=0, bytes_on_wire=100,
                  achieved_fps=15.0)
        Report(**kw)
        with pytest.raises(ValueError):
            Report(**{**kw, "delivery_ratio": 1.5})
        with pytest.raises(ValueError):
            Report(**{**kw, "frames_delivered": 11})

    def test_json_roundtrip(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        assert main(["bench", "--duration", "1", "--fps", "10", "--loss", "0.05",
                     "--seed", "3", "--out", str(p)]) == 0
        r = run_scenario(Scenario(duration_s=1.0, fps=10.0,
                                  impairment=ImpairmentConfig(loss_p=0.05), seed=3))
        assert Report(**json.loads(p.read_text())) == r
        assert p.read_text() == capsys.readouterr().out  # the printed text, written once
        keys = list(json.loads(p.read_text()))
        assert keys == sorted(keys)


class TestRunScenario:
    def test_lossless_delivers_everything(self):
        s = Scenario(duration_s=1.0, fps=20.0, width=64, height=48, seed=1)
        r = run_scenario(s)
        assert r.frames_sent == 20
        assert r.frames_delivered == 20
        assert r.delivery_ratio == 1.0
        assert r.expected_ratio == 1.0
        assert r.verify_failures == 0
        assert r.orphan_fragments == 0
        # 20 frames x 6 packets, headers included
        assert r.bytes_on_wire == 20 * (6 * 26 + 12 + 64 * 48 * 2)

    def test_lossy_run_matches_model_loosely(self):
        s = Scenario(duration_s=25.0, fps=20.0, width=64, height=48,
                     impairment=ImpairmentConfig(loss_p=0.05), seed=3)
        r = run_scenario(s)
        assert r.expected_ratio == pytest.approx(0.95 ** 6, abs=1e-12)
        assert abs(r.delivery_ratio - r.expected_ratio) < 0.08
        assert r.verify_failures == 0  # losses drop frames, never corrupt them

    def test_deterministic_given_seed(self):
        s = Scenario(duration_s=5.0, fps=30.0, width=64, height=48,
                     impairment=ImpairmentConfig(loss_p=0.1, dup_p=0.05, reorder_p=0.05), seed=42)
        t1: list[int] = []
        t2: list[int] = []
        r1 = run_scenario(s, trace_out=t1)
        r2 = run_scenario(s, trace_out=t2)
        assert r1 == r2
        assert t1 == t2
        assert len(t1) == r1.frames_delivered

    def test_different_seeds_differ(self):
        base = dict(duration_s=5.0, fps=30.0, width=64, height=48)
        imp = ImpairmentConfig(loss_p=0.2)
        r1 = run_scenario(Scenario(**base, impairment=imp, seed=1))
        r2 = run_scenario(Scenario(**base, impairment=imp, seed=2))
        assert r1 != r2  # astronomically unlikely to tie across 150 frames

    def test_trace_is_sorted_without_reordering(self):
        s = Scenario(duration_s=5.0, fps=30.0, width=64, height=48,
                     impairment=ImpairmentConfig(loss_p=0.1), seed=5)
        trace: list[int] = []
        run_scenario(s, trace_out=trace)
        assert trace == sorted(trace)

    def test_latency_reflects_delay(self):
        base = dict(duration_s=2.0, fps=30.0, width=64, height=48)
        clean = run_scenario(Scenario(**base))
        assert clean.mean_latency_us == clean.p95_latency_us == 0.0
        # a packet arrives at the virtual time of the push that releases it,
        # so a frame whose last fragment is held back completes a frame late
        late = run_scenario(Scenario(**base, impairment=ImpairmentConfig(reorder_p=0.5), seed=8))
        assert late.frames_delivered > 0
        assert late.mean_latency_us > 0
        assert late.p95_latency_us >= 1e6 / 30 - 1

    def test_duplicates_counted(self):
        s = Scenario(duration_s=3.0, fps=30.0, width=64, height=48,
                     impairment=ImpairmentConfig(dup_p=0.5), seed=9)
        r = run_scenario(s)
        assert r.duplicate_fragments > 0
        assert r.frames_delivered == r.frames_sent  # duplication never loses data


# Each probability at 0, at the smallest double, in between, at the largest
# double below 1, and at 1: the inner edges take the drawn path, the outer
# ones the path whose outcome is fixed, and each pair must agree.
_EDGES = (5e-324, 0.01, 1 - 2**-53, 1.0)
_SMALL = dict(duration_s=3.0, fps=30.0, width=64, height=48)  # 90 frames of 6 packets

# (Report fields in order, first 16 hex digits of the sha256 of the
# comma-joined delivered seqs), recorded with an impairer that mixed all
# three draws of every packet.
_GOLDEN = {
    "clean": ((90, 90, 1.0, 1.0, 0.0, 0.0, 0, 0, 568080, 30.0, 0), "22b3dac340edb1e9"),
    "loss_p=5e-324": ((90, 90, 1.0, 1.0, 0.0, 0.0, 0, 0, 568080, 30.0, 0), "22b3dac340edb1e9"),
    "loss_p=0.01": ((90, 88, 0.9777777777777777, 0.941480149401, 0.0, 0.0, 0, 0, 565228,
                     29.333333333333332, 0), "a3fe721215629ecd"),
    "loss_p=0.9999999999999999": ((90, 0, 0.0, 1.8726705418768793e-96, 0.0, 0.0, 0, 0, 0, 0.0, 0),
                                  "e3b0c44298fc1c14"),
    "loss_p=1.0": ((90, 0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0.0, 0), "e3b0c44298fc1c14"),
    "dup_p=5e-324": ((90, 90, 1.0, 1.0, 0.0, 0.0, 0, 0, 568080, 30.0, 0), "22b3dac340edb1e9"),
    "dup_p=0.01": ((90, 90, 1.0, 1.0, 0.0, 0.0, 2, 3, 573498, 30.0, 0), "22b3dac340edb1e9"),
    "dup_p=0.9999999999999999": ((90, 90, 1.0, 1.0, 0.0, 0.0, 90, 450, 1136160, 30.0, 0),
                                 "22b3dac340edb1e9"),
    "dup_p=1.0": ((90, 90, 1.0, 1.0, 0.0, 0.0, 90, 450, 1136160, 30.0, 0), "22b3dac340edb1e9"),
    "reorder_p=5e-324": ((90, 90, 1.0, 1.0, 0.0, 0.0, 0, 0, 568080, 30.0, 0), "22b3dac340edb1e9"),
    "reorder_p=0.01": ((90, 90, 1.0, 1.0, 370.3777777777778, 0.0, 0, 0, 568080, 30.0, 0),
                       "22b3dac340edb1e9"),
    "reorder_p=0.9999999999999999": ((90, 90, 1.0, 1.0, 32962.96666666667, 33334.0, 0, 0, 568080,
                                      30.0, 0), "22b3dac340edb1e9"),
    "reorder_p=1.0": ((90, 90, 1.0, 1.0, 32962.96666666667, 33334.0, 0, 0, 568080, 30.0, 0),
                      "22b3dac340edb1e9"),
    "mixed": ((90, 43, 0.4777777777777778, 0.8858423808639999, 12403.116279069767, 33334.0, 84, 42,
               608632, 14.333333333333334, 0), "e3bcb82e3ef00125"),
    "mixed-depth2": ((90, 73, 0.8111111111111111, 0.941480149401, 2283.095890410959, 33333.0, 26, 21,
                      589506, 24.333333333333332, 0), "ad29b85e2ad7b6f5"),
    "qvga-loss1": ((30, 11, 0.36666666666666664, 0.3277227574378037, 0.0, 0.0, 110, 0, 4645792, 11.0, 0),
                   "3e436c67fe5e22e0"),
}


def _golden_scenarios():
    yield "clean", Scenario(**_SMALL, seed=1)
    for name in ("loss_p", "dup_p", "reorder_p"):
        for p in _EDGES:
            yield f"{name}={p!r}", Scenario(**_SMALL, impairment=ImpairmentConfig(
                **{name: p}, reorder_depth=2), seed=1)
    # seeds past 2**64 are reduced modulo 2**64
    yield "mixed", Scenario(**_SMALL, impairment=ImpairmentConfig(
        loss_p=0.02, dup_p=0.1, reorder_p=0.2, reorder_depth=3), seed=2**64 + 7)
    yield "mixed-depth2", Scenario(**_SMALL, impairment=ImpairmentConfig(
        loss_p=0.01, dup_p=0.05, reorder_p=0.05, reorder_depth=2), seed=2**40 + 7)
    # the sim-loss1 benchmark's shape: one second of 320x240 at 1 % loss
    yield "qvga-loss1", Scenario(duration_s=1.0, impairment=ImpairmentConfig(loss_p=0.01),
                                 seed=(11 << 32) | 3)


@pytest.mark.parametrize("label, scenario", [pytest.param(*c, id=c[0]) for c in _golden_scenarios()])
def test_run_scenario_golden(label, scenario):
    trace: list[int] = []
    report = run_scenario(scenario, trace_out=trace)
    digest = hashlib.sha256(",".join(map(str, trace)).encode()).hexdigest()[:16]
    assert (astuple(report), digest) == _GOLDEN[label]


class TestRunLoopback:
    def test_short_live_run(self):
        s = Scenario(duration_s=1.5, fps=20.0, width=64, height=48)
        r = run_loopback(s)
        assert r.frames_sent >= 25
        assert r.frames_delivered >= 0.9 * r.frames_sent
        assert r.verify_failures == 0
        assert r.achieved_fps > 15.0
        assert r.mean_latency_us > 0
        # the image stream's counters: a clean run, and every delivered
        # frame's 6 packets, headers included, came off the wire
        assert r.orphan_fragments == r.duplicate_fragments == 0
        assert r.bytes_on_wire >= r.frames_delivered * (6 * 26 + 12 + 64 * 48 * 2)
