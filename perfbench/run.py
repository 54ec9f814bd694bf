"""nbpk benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload live-qvga30 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25        # every workload in turn

Run it from anywhere; it imports nbpk from the ``src`` tree of the checkout
it sits in. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (see README.md beside this file). The exit
code is 0 when every correctness gate passed, 1 when one failed, and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up time counts from here: imports are part of it

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402

env.import_nbpk()

import workloads  # noqa: E402

#: (name, unit) of every end-to-end metric; mirrors BENCHMARK.json.
E2E = (
    ("frame_latency_probes", "probes"),
    ("frame_delivery_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics that are a span's mean duration: name -> span name.
#: The unit is the suffix of the name.
SPAN_MEANS = {
    "robotsim.gen_test_image_us": "robotsim.gen_test_image",
    "robotsim.image_ok_us": "robotsim.image_ok",
    "fragment.packetize_image_us": "fragment.packetize_image",
    "fragment.to_bytes_us": "fragment.Packet.to_bytes",
    "fragment.from_bytes_us": "fragment.Packet.from_bytes",
    "fragment.reassemble_step_us": "fragment.Reassembler.step",
    "wire.decode_header_us": "wire.decode_header",
    "wire.encode_motion_us": "wire.encode_motion",
    "wire.decode_motion_us": "wire.decode_motion",
    "channel.impair_push_us": "channel.StreamImpairer.push",
    "channel.sendto_us": "channel.UdpEndpoint.send_to",
    "bridge.publish_us": "bridge.TopicBus.publish",
    "recorder.write_message_us": "recorder.LogWriter.write_message",
    "recorder.read_log_us": "recorder.read_log",
    "recorder.image_from_record_us": "recorder.image_from_record_payload",
    "recorder.yuv422_to_rgb_ms": "recorder.yuv422_to_rgb",
}

#: (name, unit) of every per-layer metric, in report order; mirrors BENCHMARK.json.
PER_LAYER = (
    ("robotsim.gen_test_image_us", "us"),
    ("robotsim.image_ok_us", "us"),
    ("fragment.packetize_image_us", "us"),
    ("fragment.to_bytes_us", "us"),
    ("fragment.from_bytes_us", "us"),
    ("fragment.reassemble_step_us", "us"),
    ("fragment.orphans", "count"),
    ("fragment.duplicates", "count"),
    ("fragment.frames_preempted", "count"),
    ("fragment.useful_datagram_ratio", "ratio"),
    ("wire.decode_header_us", "us"),
    ("wire.encode_motion_us", "us"),
    ("wire.decode_motion_us", "us"),
    ("channel.impair_push_us", "us"),
    ("channel.sendto_us", "us"),
    ("channel.datagrams_sent", "count"),
    ("channel.datagrams_received", "count"),
    ("channel.generator_late_p50_ms", "ms"),
    ("channel.generator_late_p99_ms", "ms"),
    ("channel.frames_due_unsent", "count"),
    ("bridge.publish_us", "us"),
    ("bridge.transit_ms", "ms"),
    ("bridge.queue_wait_ms", "ms"),
    ("bridge.image_busy_frac", "ratio"),
    ("bridge.malformed_packets", "count"),
    ("bridge.frames_stale", "count"),
    ("bridge.subscriber_drops", "count"),
    ("recorder.write_message_us", "us"),
    ("recorder.read_log_us", "us"),
    ("recorder.image_from_record_us", "us"),
    ("recorder.yuv422_to_rgb_ms", "ms"),
    ("recorder.export_self_ms", "ms"),
    ("bench.run_scenario_ms", "ms"),
    ("bench.run_scenario_self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

SETUP_SAMPLES = 9  # set-ups per run: this run's own plus fresh processes


def per_layer(outcome) -> dict:
    """Every per-layer metric; 0 where this workload does not reach the layer."""
    values = {}
    for name, span in SPAN_MEANS.items():
        count, total, _ = workloads.span_stats(outcome.summary, span)
        scale = 1e3 if name.endswith("_us") else 1e6
        values[name] = total / count / scale if count else 0.0
    values.update(outcome.layer)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def setup_probe(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=str(env.ROOT), capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_one(args) -> int:
    env.WORK.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed)
    try:
        wl.setup()
        own_setup = time.perf_counter() - _T_START - wl.input_gen_s
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        outcome = wl.measure(args.seconds, bool(args.trace))
    finally:
        wl.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [own_setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    e2e = {name: 0.0 for name, _ in E2E}
    e2e.update(outcome.e2e, setup_s=statistics.median(setups), peak_rss_mb=peak_rss_mb)

    print(f"# workload {args.workload}: {wl.describe()}; {args.seconds:g} s, trace {args.trace}")
    print("# machine " + json.dumps(env.machine_facts(args.seed)))
    for line in outcome.lines:
        print(line)
    print(f"setup_s                {e2e['setup_s']:10.4f} s  (median of {len(setups)}: "
          + ", ".join(f"{s:.4f}" for s in setups) + ")")
    print(f"peak_rss_mb            {peak_rss_mb:10.2f} MB")
    print(f"accounting: attempted {outcome.attempted}, failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"GATE FAILED: {problem}")
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(outcome)
        for name, m in metrics.items():
            print(f"{name:32s} {m['value']:14.4f} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E}
    correct = not outcome.problems
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=str(env.ROOT), capture_output=True, text=True, timeout=args.seconds + 170)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = max(status, proc.returncode)
        print()
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, tear it down and print the set-up time")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # an error of the benchmark itself, not a failed gate
        import traceback

        traceback.print_exc()
        sys.exit(2)
