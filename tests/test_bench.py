import json
import math

import pytest

from nbpk.bench import (
    Report,
    Scenario,
    analytic_delivery,
    packets_per_frame,
    read_report,
    run_loopback,
    run_scenario,
    write_report,
)
from nbpk.channel import ImpairmentConfig


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


class TestScenario:
    def test_seed_overrides_impairment_seed(self):
        s = Scenario(impairment=ImpairmentConfig(loss_p=0.1, seed=7), seed=99)
        eff = s.effective_impairment()
        assert eff.seed == 99
        assert eff.loss_p == 0.1

    def test_no_seed_keeps_config(self):
        imp = ImpairmentConfig(loss_p=0.1, seed=7)
        assert Scenario(impairment=imp).effective_impairment() is imp

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

    def test_json_roundtrip(self, tmp_path):
        r = Report(frames_sent=300, frames_delivered=99, delivery_ratio=0.33,
                   expected_ratio=0.3277, mean_latency_us=1234.5, p95_latency_us=2000.0,
                   orphan_fragments=17, duplicate_fragments=3, bytes_on_wire=4_567_890,
                   achieved_fps=9.9, verify_failures=0)
        p = tmp_path / "r.json"
        write_report(r, p)
        assert read_report(p) == r
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
                     impairment=ImpairmentConfig(loss_p=0.05, seed=3))
        r = run_scenario(s)
        assert r.expected_ratio == pytest.approx(0.95 ** 6, abs=1e-12)
        assert abs(r.delivery_ratio - r.expected_ratio) < 0.08
        assert r.verify_failures == 0  # losses drop frames, never corrupt them

    def test_deterministic_given_seed(self):
        s = Scenario(duration_s=5.0, fps=30.0, width=64, height=48,
                     impairment=ImpairmentConfig(loss_p=0.1, dup_p=0.05,
                                                 reorder_p=0.05, seed=42))
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
                     impairment=ImpairmentConfig(loss_p=0.1, seed=5))
        trace: list[int] = []
        run_scenario(s, trace_out=trace)
        assert trace == sorted(trace)

    def test_latency_reflects_delay(self):
        base = dict(duration_s=2.0, fps=30.0, width=64, height=48)
        clean = run_scenario(Scenario(**base))
        assert clean.mean_latency_us == clean.p95_latency_us == 0.0
        # a packet arrives at the virtual time of the push that releases it,
        # so a frame whose last fragment is held back completes a frame late
        late = run_scenario(Scenario(**base, impairment=ImpairmentConfig(reorder_p=0.5, seed=8)))
        assert late.frames_delivered > 0
        assert late.mean_latency_us > 0
        assert late.p95_latency_us >= 1e6 / 30 - 1

    def test_duplicates_counted(self):
        s = Scenario(duration_s=3.0, fps=30.0, width=64, height=48,
                     impairment=ImpairmentConfig(dup_p=0.5, seed=9))
        r = run_scenario(s)
        assert r.duplicate_fragments > 0
        assert r.frames_delivered == r.frames_sent  # duplication never loses data


class TestRunLoopback:
    def test_short_live_run(self):
        s = Scenario(duration_s=1.5, fps=20.0, width=64, height=48)
        r = run_loopback(s, settle_s=0.4)
        assert r.frames_sent >= 25
        assert r.frames_delivered >= 0.9 * r.frames_sent
        assert r.verify_failures == 0
        assert r.achieved_fps > 15.0
        assert r.mean_latency_us > 0
