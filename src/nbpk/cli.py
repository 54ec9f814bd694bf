"""Command-line entry point.

Subcommands: robot, bridge, bench, record, replay, export, teleop,
inertia. Exit code 0 on success, 1 on usage errors, 2 on runtime errors.
Set NBPK_LOG={error|info|debug} for verbosity.

Each flag fills the config field it names (``dest``); one left out keeps the
config's default. Rates, periods, durations and steps must be finite and > 0.

Teleop drives the robot from the keyboard: w/s step vx, a/d step vy,
q/e step omega, space stands, x exits (after a final stand). Every
component stays clamped to [-1, 1]. A dead bridge loop ends teleop, like
robot, bridge and record, with exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import select
import sys
import time
from dataclasses import asdict, fields
from typing import Callable, Optional

from . import bench as bench_mod
from .bridge import (
    TOPIC_COMMAND,
    TOPIC_MOTION,
    TOPIC_STATS,
    BoundedFifo,
    Bridge,
    BridgeConfig,
    TopicBus,
)
from .channel import ImpairmentConfig, Service, check_positive
from .robotsim import RobotConfig, RobotSim
from .wire import MotionRequest, StreamId

log = logging.getLogger("nbpk")

DEFAULT_TELEOP_STEP = 0.1
DEFAULT_TELEOP_RATE_HZ = 10.0


class UsageError(Exception):
    pass


# --- teleop ----------------------------------------------------------------

_DELTAS = {"w": (1, 0, 0), "s": (-1, 0, 0), "a": (0, 1, 0), "d": (0, -1, 0),
           "q": (0, 0, 1), "e": (0, 0, -1)}


def map_key(velocity: tuple, key: str, step: float) -> Optional[tuple]:
    """The commanded ``(vx, vy, omega)`` after one keypress, or None for x.

    A bound key moves one component by ``step``, every component kept in
    [-1, 1]; space stands; an unbound key leaves the velocity unchanged."""
    if key == "x":
        return None
    if key == " ":
        return 0.0, 0.0, 0.0
    if key not in _DELTAS:
        return velocity
    return tuple(min(1.0, max(-1.0, v + d * step)) for v, d in zip(velocity, _DELTAS[key]))


def to_request(velocity: tuple) -> MotionRequest:
    return MotionRequest.walk(*velocity) if any(velocity) else MotionRequest.stand()


@contextlib.contextmanager
def _terminal_keys():
    """Raw single-key reads from the tty on stdin, as ``get_key(timeout)``; restored on exit."""
    import termios  # POSIX only; imported here so tests never need them
    import tty

    fd = sys.stdin.fileno()
    saved = termios.tcgetattr(fd)

    def get_key(timeout: float):
        if not select.select([fd], [], [], timeout)[0]:
            return None
        return os.read(fd, 1).decode("ascii", errors="replace")

    try:
        tty.setcbreak(fd)
        yield get_key
    finally:
        termios.tcsetattr(fd, termios.TCSADRAIN, saved)


def teleop_loop(bus: TopicBus, rate: float = DEFAULT_TELEOP_RATE_HZ, get_key=None, out=None,
                step: float = DEFAULT_TELEOP_STEP, stopped: Callable[[], bool] = lambda: False) -> None:
    """Publish the commanded velocity on ``motion/request`` at ``rate``, until x or ``stopped()``.

    ``get_key(timeout)`` supplies keypresses (defaults to the terminal);
    the latest echoed robot velocity from ``motion/state`` is printed
    beside the command once per second. The final publish before
    returning is always STAND, also when the terminal cannot be opened.
    """
    check_positive("rate", rate)
    out = sys.stdout if out is None else out
    sub = bus.subscribe(TOPIC_MOTION, BoundedFifo(1))
    velocity = (0.0, 0.0, 0.0)
    period = 1.0 / rate
    next_pub = time.monotonic()
    next_echo = next_pub + 1.0
    keys = contextlib.ExitStack()
    try:
        if get_key is None:
            get_key = keys.enter_context(_terminal_keys())
        while not stopped():
            key = get_key(max(0.0, min(next_pub, next_echo) - time.monotonic()))
            if key is not None:
                velocity = map_key(velocity, key, step)
                if velocity is None:
                    break
            now = time.monotonic()
            if now >= next_pub:
                bus.publish(TOPIC_COMMAND, to_request(velocity))
                next_pub += period
            if now >= next_echo:
                reading = sub.get(timeout=0)
                echo = "-" if reading is None else "(%.2f, %.2f, %.2f)" % reading.velocity
                print("cmd=(%.2f, %.2f, %.2f)  robot=%s" % (*velocity, echo), file=out, flush=True)
                next_echo += 1.0
    finally:
        keys.close()
        bus.publish(TOPIC_COMMAND, MotionRequest.stand())
        sub.close()


# --- argument plumbing -----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive(text: str) -> float:
    """argparse ``type`` of a rate, duration or step: checked as the configs check theirs."""
    try:
        return check_positive("value", float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_host_port(text: str, default_port: int) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        return text, default_port
    try:
        return host, int(port)
    except ValueError:
        raise UsageError(f"bad port in {text!r}") from None


def build_parser() -> _Parser:
    """A flag left out is absent from the namespace, so its config field keeps its default."""
    p = _Parser(prog="nbpk", description="Sensor-streaming bridge toolkit")
    sub = p.add_subparsers(dest="command")

    def command(name: str, summary: str, run: Callable[..., int]) -> argparse.ArgumentParser:
        parser = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        parser.set_defaults(run=run)  # main calls args.run(args)
        return parser

    robot = command("robot", "run the robot-side emulator", _cmd_robot)
    robot.add_argument("--fps", type=float)
    robot.add_argument("--width", type=int)
    robot.add_argument("--height", type=int)
    robot.add_argument("--motion-rate", type=float)
    robot.add_argument("--frag-size", dest="frag_payload", type=int)
    robot.add_argument("--image-port", type=int)
    robot.add_argument("--motion-port", type=int)
    robot.add_argument("--command-port", type=int)
    robot.add_argument("--peer", dest="peer_host", help="bridge host")
    robot.add_argument("--duration", type=_positive, default=None, help="stop after this many seconds")

    bridge = command("bridge", "run the backpack-side bridge", _cmd_bridge)
    _add_bridge_flags(bridge)
    bridge.add_argument("--duration", type=_positive, default=None)

    bench = command("bench", "benchmark against the loss model", _cmd_bench)
    bench.add_argument("--duration", dest="duration_s", type=float)
    bench.add_argument("--fps", type=float)
    bench.add_argument("--loss", dest="loss_p", type=float)
    bench.add_argument("--dup", dest="dup_p", type=float)
    bench.add_argument("--reorder", dest="reorder_p", type=float,
                       help="reorder probability; at the default depth of 1 it moves no packet")
    bench.add_argument("--seed", type=int)
    bench.add_argument("--out", default=None, help="write the JSON report here")
    bench.add_argument("--loopback", action="store_true", default=False,
                       help="real UDP loopback run (refuses --loss, --dup, --reorder and --seed)")

    rec = command("record", "receive streams and log them", _cmd_record)
    rec.add_argument("out", help="log file to write")
    rec.add_argument("--duration", type=_positive, default=10.0)
    _add_bridge_flags(rec)

    rep = command("replay", "republish a log", _cmd_replay)
    rep.add_argument("log")
    rep.add_argument("--speed", type=lambda text: math.inf if text == "max" else _positive(text),
                     help="time multiplier, or 'max' for no pacing")

    exp = command("export", "write logged images as PPM files", _cmd_export)
    exp.add_argument("log")
    exp.add_argument("outdir")
    exp.add_argument("--limit", type=int, default=None, help="stop after this many images")

    tel = command("teleop", "drive the robot from the keyboard", _cmd_teleop)
    _add_bridge_flags(tel)
    tel.add_argument("--rate", type=_positive)
    tel.add_argument("--step", type=_positive)

    ine = command("inertia", "compose and validate rigid bodies", _cmd_inertia)
    ine.add_argument("bodies", nargs="?", default=None,
                     help="JSON file of bodies (default: bundled backpack)")
    ine.add_argument("--base", default=None,
                     help="base body JSON; also reports the combined-CoM shift from it")

    return p


def _add_bridge_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--image-port", type=int)
    p.add_argument("--motion-port", type=int)
    p.add_argument("--robot", help="robot address as host[:command-port]")
    p.add_argument("--stats-period", dest="stats_period_s", type=float)


def _given(args, names) -> dict:
    """The flags among ``names`` that the command line set."""
    return {name: getattr(args, name) for name in names if name in args}


def _config(cls, args, **extra):
    """``cls`` from the flags named after its fields and ``extra``; what it rejects is a usage error."""
    try:
        return cls(**_given(args, (f.name for f in fields(cls))), **extra)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _bridge_config(args) -> BridgeConfig:
    if "robot" in args:
        args.robot_host, args.robot_command_port = _parse_host_port(
            args.robot, BridgeConfig.robot_command_port)
    return _config(BridgeConfig, args)


# --- subcommands -----------------------------------------------------------

def _serve(service: Service, run: Callable[[], object]) -> int:
    """Call ``run``, which ends when ``service.wait`` does, while ``service`` runs; 2 if a loop died."""
    died = False
    try:
        with service:
            run()
            died = service.wait(0)  # before stop(), only a loop that died has set it
    except KeyboardInterrupt:
        pass
    except Exception:  # stop() re-raises the failed loop's exception
        if not died:
            raise
        return 2
    return 0


def _cmd_robot(args) -> int:
    cfg = _config(RobotConfig, args)
    log.info("robot: %sx%s @ %s fps -> %s", cfg.width, cfg.height, cfg.fps, cfg.peer_host)
    sim = RobotSim(cfg)
    return _serve(sim, lambda: sim.wait(args.duration))


def _cmd_bridge(args) -> int:
    bridge = Bridge(_bridge_config(args))
    snapshots = bridge.bus.subscribe(TOPIC_STATS, BoundedFifo())

    def run():
        end = math.inf if args.duration is None else time.monotonic() + args.duration
        while not bridge.wait(0) and (left := end - time.monotonic()) > 0:
            if (snap := snapshots.get(timeout=min(left, 0.1))) is not None:
                print(snap.to_json(), flush=True)

    return _serve(bridge, run)


def _cmd_bench(args) -> int:
    imp = _config(ImpairmentConfig, args)
    if args.loopback and (imp.loss_p or imp.dup_p or imp.reorder_p or "seed" in args):
        raise UsageError("--loopback sends over real sockets and cannot apply --loss, --dup, --reorder or --seed")
    scenario = _config(bench_mod.Scenario, args, impairment=imp)
    if args.loopback:
        _config(RobotConfig, args)  # the emulator's bounds on --fps
    report = bench_mod.run_loopback(scenario) if args.loopback else bench_mod.run_scenario(scenario)
    text = json.dumps(asdict(report), sort_keys=True, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            print(text, file=f)
    return 0


def _cmd_record(args) -> int:
    from . import recorder  # it and inertial load numpy, so only the commands that use them import them

    bridge = Bridge(_bridge_config(args))

    def run():
        n = recorder.record(bridge.bus, args.out, args.duration, stopped=lambda: bridge.wait(0))
        print(json.dumps({"records": n, "path": args.out}))

    return _serve(bridge, run)


def _cmd_replay(args) -> int:
    from . import recorder

    t0 = time.monotonic()
    n = recorder.replay(args.log, TopicBus(), **_given(args, ("speed",)))
    print(json.dumps({"records": n, "wall_s": round(time.monotonic() - t0, 3)}))
    return 0


def _cmd_export(args) -> int:
    from . import recorder

    if args.limit is not None and args.limit < 0:
        raise UsageError(f"--limit must not be negative, got {args.limit}")
    os.makedirs(args.outdir, exist_ok=True)
    written = 0
    for rec in recorder.read_log(args.log):
        if args.limit is not None and written >= args.limit:
            break
        if isinstance(rec, recorder.Truncated):
            log.info("log truncated at offset %d", rec.offset)
            break
        if rec.stream_id != StreamId.IMAGE:
            continue
        img = recorder.image_from_record_payload(rec.payload, seq=written,
                                                 timestamp_us=rec.timestamp_us)
        path = os.path.join(args.outdir, f"frame_{written:06d}.ppm")
        recorder.export_ppm(img, path)
        written += 1
    print(json.dumps({"images": written, "outdir": args.outdir}))
    return 0


def _cmd_teleop(args) -> int:
    if not sys.stdin.isatty():
        raise UsageError("teleop reads single keys and needs an interactive terminal")
    bridge = Bridge(_bridge_config(args))
    return _serve(bridge, lambda: teleop_loop(bridge.bus, **_given(args, ("rate", "step")),
                                              stopped=lambda: bridge.wait(0)))


def _cmd_inertia(args) -> int:
    from . import inertial

    if args.bodies is None:
        bodies = [inertial.bundled_backpack_body()]
    else:
        bodies = inertial.load_bodies(args.bodies)
    composed = inertial.compose(bodies)
    violations = composed.validate()
    doc = {
        "bodies": len(bodies),
        "mass_kg": composed.mass,
        "com_m": composed.com.tolist(),
        "inertia_kgm2": composed.inertia.tolist(),
        "violations": violations,
        "valid": not violations,
    }
    if args.base is not None:
        base = inertial.compose(inertial.load_bodies(args.base))
        doc["com_shift_from_base_m"] = inertial.com_shift(base, composed).tolist()
    print(json.dumps(doc, indent=2))
    return 0


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("NBPK_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
