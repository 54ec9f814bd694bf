"""Command-line entry point.

Subcommands: robot, bridge, bench, record, replay, export, teleop,
inertia. Exit code 0 on success, 1 on usage errors, 2 on runtime errors.
Set NBPK_LOG={error|info|debug} for verbosity.

Teleop drives the robot from the keyboard: w/s step vx, a/d step vy,
q/e step omega, space stands, x exits (after a final stand). Every
component stays clamped to [-1, 1].
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import select
import sys
import time
from dataclasses import asdict, dataclass, replace

from . import bench as bench_mod
from . import inertial, recorder
from .bridge import (
    TOPIC_COMMAND,
    TOPIC_MOTION,
    BoundedFifo,
    Bridge,
    BridgeConfig,
    TopicBus,
)
from .channel import (
    DEFAULT_COMMAND_PORT,
    DEFAULT_IMAGE_PORT,
    DEFAULT_MOTION_PORT,
    ImpairmentConfig,
    Service,
)
from .robotsim import RobotConfig, RobotSim
from .wire import MotionRequest, StreamId

log = logging.getLogger("nbpk")

DEFAULT_TELEOP_STEP = 0.1
DEFAULT_TELEOP_RATE_HZ = 10.0


class UsageError(Exception):
    pass


# --- teleop ----------------------------------------------------------------

@dataclass(frozen=True)
class TeleopState:
    """Commanded velocity built up from keypresses."""

    vx: float = 0.0
    vy: float = 0.0
    omega: float = 0.0
    step: float = DEFAULT_TELEOP_STEP
    exit_requested: bool = False


def _clamp(v: float) -> float:
    return min(1.0, max(-1.0, v))


def map_key(state: TeleopState, key: str) -> TeleopState:
    """Apply one keypress; unbound keys leave the state unchanged."""
    s = state.step
    deltas = {"w": (s, 0.0, 0.0), "s": (-s, 0.0, 0.0),
              "a": (0.0, s, 0.0), "d": (0.0, -s, 0.0),
              "q": (0.0, 0.0, s), "e": (0.0, 0.0, -s)}
    if key in deltas:
        dvx, dvy, dom = deltas[key]
        return replace(state, vx=_clamp(state.vx + dvx),
                       vy=_clamp(state.vy + dvy),
                       omega=_clamp(state.omega + dom))
    if key == " ":
        return replace(state, vx=0.0, vy=0.0, omega=0.0)
    if key == "x":
        return replace(state, vx=0.0, vy=0.0, omega=0.0, exit_requested=True)
    return state


def to_request(state: TeleopState) -> MotionRequest:
    if state.vx == 0.0 and state.vy == 0.0 and state.omega == 0.0:
        return MotionRequest.stand()
    return MotionRequest.walk(state.vx, state.vy, state.omega)


class _TerminalKeys:
    """Raw single-key reads from a tty, restored on exit."""

    def __init__(self):
        import termios  # POSIX only; imported here so tests never need it

        self._termios = termios
        self._fd = sys.stdin.fileno()
        self._saved = None

    def __enter__(self) -> "_TerminalKeys":
        import tty

        self._saved = self._termios.tcgetattr(self._fd)
        tty.setcbreak(self._fd)
        return self

    def __exit__(self, *exc) -> None:
        if self._saved is not None:
            self._termios.tcsetattr(self._fd, self._termios.TCSADRAIN, self._saved)

    def __call__(self, timeout: float):
        r, _, _ = select.select([self._fd], [], [], timeout)
        if not r:
            return None
        return os.read(self._fd, 1).decode("ascii", errors="replace")


def teleop_loop(bus: TopicBus, rate: float = DEFAULT_TELEOP_RATE_HZ,
                get_key=None, out=None, step: float = DEFAULT_TELEOP_STEP,
                max_runtime: float | None = None) -> None:
    """Publish the commanded velocity on ``motion/request`` at ``rate``.

    ``get_key(timeout)`` supplies keypresses (defaults to the terminal);
    the latest echoed robot velocity from ``motion/state`` is printed
    beside the command once per second. The final publish before
    returning is always STAND.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    out = sys.stdout if out is None else out
    sub = bus.subscribe(TOPIC_MOTION, BoundedFifo(1))
    state = TeleopState(step=step)
    period = 1.0 / rate
    started = time.monotonic()
    next_pub = started
    next_echo = started + 1.0
    own_keys = None
    if get_key is None:
        own_keys = _TerminalKeys().__enter__()
        get_key = own_keys
    try:
        while not state.exit_requested:
            now = time.monotonic()
            if max_runtime is not None and now - started >= max_runtime:
                break
            key = get_key(max(0.0, min(next_pub, next_echo) - now))
            if key is not None:
                state = map_key(state, key)
                if state.exit_requested:
                    break
            now = time.monotonic()
            if now >= next_pub:
                bus.publish(TOPIC_COMMAND, to_request(state))
                next_pub += period
            if now >= next_echo:
                reading = sub.get(timeout=0)
                echo = "-" if reading is None else "(%.2f, %.2f, %.2f)" % reading.velocity
                print(f"cmd=({state.vx:.2f}, {state.vy:.2f}, {state.omega:.2f})"
                      f"  robot={echo}", file=out, flush=True)
                next_echo += 1.0
    finally:
        bus.publish(TOPIC_COMMAND, MotionRequest.stand())
        sub.close()
        if own_keys is not None:
            own_keys.__exit__()


# --- argument plumbing -----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _check_positive(name: str, v: float) -> float:
    if v <= 0:
        raise UsageError(f"{name} must be positive, got {v}")
    return v


def _parse_host_port(text: str, default_port: int) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        return text, default_port
    try:
        return host, int(port)
    except ValueError:
        raise UsageError(f"bad port in {text!r}") from None


def build_parser() -> _Parser:
    p = _Parser(prog="nbpk", description="Sensor-streaming bridge toolkit")
    sub = p.add_subparsers(dest="command")

    robot = sub.add_parser("robot", help="run the robot-side emulator")
    robot.add_argument("--fps", type=float, default=30.0)
    robot.add_argument("--width", type=int, default=320)
    robot.add_argument("--height", type=int, default=240)
    robot.add_argument("--motion-rate", type=float, default=100.0)
    robot.add_argument("--frag-size", type=int, default=1400)
    robot.add_argument("--image-port", type=int, default=DEFAULT_IMAGE_PORT)
    robot.add_argument("--motion-port", type=int, default=DEFAULT_MOTION_PORT)
    robot.add_argument("--command-port", type=int, default=DEFAULT_COMMAND_PORT)
    robot.add_argument("--peer", default="127.0.0.1", help="bridge host")
    robot.add_argument("--duration", type=float, default=None, help="stop after this many seconds")

    bridge = sub.add_parser("bridge", help="run the backpack-side bridge")
    _add_bridge_flags(bridge)
    bridge.add_argument("--duration", type=float, default=None)

    bench = sub.add_parser("bench", help="benchmark against the loss model")
    bench.add_argument("--duration", type=float, default=10.0)
    bench.add_argument("--fps", type=float, default=30.0)
    bench.add_argument("--loss", type=float, default=0.0)
    bench.add_argument("--dup", type=float, default=0.0)
    bench.add_argument("--reorder", type=float, default=0.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None, help="write the JSON report here")
    bench.add_argument("--loopback", action="store_true",
                       help="real UDP loopback run (refuses --loss, --dup and --reorder)")

    rec = sub.add_parser("record", help="receive streams and log them")
    rec.add_argument("out", help="log file to write")
    rec.add_argument("--duration", type=float, default=10.0)
    _add_bridge_flags(rec)

    rep = sub.add_parser("replay", help="republish a log")
    rep.add_argument("log")
    rep.add_argument("--speed", default="1.0",
                     help="time multiplier, or 'max' for no pacing")

    exp = sub.add_parser("export", help="write logged images as PPM files")
    exp.add_argument("log")
    exp.add_argument("outdir")
    exp.add_argument("--limit", type=int, default=None, help="stop after this many images")

    tel = sub.add_parser("teleop", help="drive the robot from the keyboard")
    _add_bridge_flags(tel)
    tel.add_argument("--rate", type=float, default=DEFAULT_TELEOP_RATE_HZ)
    tel.add_argument("--step", type=float, default=DEFAULT_TELEOP_STEP)

    ine = sub.add_parser("inertia", help="compose and validate rigid bodies")
    ine.add_argument("bodies", nargs="?", default=None,
                     help="JSON file of bodies (default: bundled backpack)")
    ine.add_argument("--base", default=None,
                     help="base body JSON; also reports the combined-CoM shift from it")

    return p


def _add_bridge_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--image-port", type=int, default=DEFAULT_IMAGE_PORT)
    p.add_argument("--motion-port", type=int, default=DEFAULT_MOTION_PORT)
    p.add_argument("--robot", default="127.0.0.1",
                   help="robot address as host[:command-port]")
    p.add_argument("--stats-period", type=float, default=1.0)


def _config(cls, **fields):
    """``cls(**fields)``; a value it rejects is a usage error, caught before any socket opens."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _bridge_config(args) -> BridgeConfig:
    host, port = _parse_host_port(args.robot, DEFAULT_COMMAND_PORT)
    return _config(
        BridgeConfig,
        image_port=args.image_port,
        motion_port=args.motion_port,
        robot_host=host,
        robot_command_port=port,
        stats_period_s=args.stats_period,
    )


# --- subcommands -----------------------------------------------------------

def _serve(service: Service, duration: float | None) -> int:
    """Run ``service`` for ``duration`` seconds (None: until Ctrl-C); 2 once a loop dies (it logs why)."""
    try:
        with service:
            service.wait(duration)
    except KeyboardInterrupt:
        pass
    except Exception:  # stop() re-raises the failed loop's exception
        return 2
    return 0


def _cmd_robot(args) -> int:
    if args.duration is not None:  # checked before any socket opens
        _check_positive("--duration", args.duration)
    cfg = _config(
        RobotConfig,
        peer_host=args.peer,
        image_port=args.image_port,
        motion_port=args.motion_port,
        command_port=args.command_port,
        fps=args.fps,
        motion_rate=args.motion_rate,
        width=args.width,
        height=args.height,
        frag_payload=args.frag_size,
    )
    log.info("robot: %sx%s @ %s fps -> %s", args.width, args.height, args.fps, args.peer)
    return _serve(RobotSim(cfg), args.duration)


def _cmd_bridge(args) -> int:
    if args.duration is not None:
        _check_positive("--duration", args.duration)
    return _serve(Bridge(_bridge_config(args), on_stats=lambda s: print(s.to_json(), flush=True)),
                  args.duration)


def _cmd_bench(args) -> int:
    if args.loopback and (args.loss or args.dup or args.reorder):
        raise UsageError("--loopback sends over real sockets and cannot apply --loss, --dup or --reorder")
    imp = _config(ImpairmentConfig, loss_p=args.loss, dup_p=args.dup, reorder_p=args.reorder,
                  seed=args.seed)
    scenario = _config(bench_mod.Scenario, duration_s=args.duration, fps=args.fps, impairment=imp)
    if args.loopback:
        _config(RobotConfig, fps=args.fps)  # the emulator's bounds
    report = bench_mod.run_loopback(scenario) if args.loopback else bench_mod.run_scenario(scenario)
    text = json.dumps(asdict(report), sort_keys=True, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            print(text, file=f)
    return 0


def _cmd_record(args) -> int:
    _check_positive("--duration", args.duration)
    with Bridge(_bridge_config(args)) as bridge:
        n = recorder.record(bridge.bus, args.out, args.duration)
    print(json.dumps({"records": n, "path": args.out}))
    return 0


def _cmd_replay(args) -> int:
    if args.speed == "max":
        speed = math.inf
    else:
        try:
            speed = float(args.speed)
        except ValueError:
            raise UsageError(f"--speed must be a number or 'max', got {args.speed!r}") from None
        _check_positive("--speed", speed)
    bus = TopicBus()
    t0 = time.monotonic()
    n = recorder.replay(args.log, bus, speed=speed)
    print(json.dumps({"records": n, "wall_s": round(time.monotonic() - t0, 3)}))
    return 0


def _cmd_export(args) -> int:
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
    _check_positive("--rate", args.rate)
    _check_positive("--step", args.step)
    if not sys.stdin.isatty():
        raise UsageError("teleop reads single keys and needs an interactive terminal")
    with Bridge(_bridge_config(args)) as bridge:
        try:
            teleop_loop(bridge.bus, rate=args.rate, step=args.step)
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_inertia(args) -> int:
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


_COMMANDS = {
    "robot": _cmd_robot,
    "bridge": _cmd_bridge,
    "bench": _cmd_bench,
    "record": _cmd_record,
    "replay": _cmd_replay,
    "export": _cmd_export,
    "teleop": _cmd_teleop,
    "inertia": _cmd_inertia,
}


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
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
