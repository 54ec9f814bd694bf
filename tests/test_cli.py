import gc
import io
import json
import logging
import time

import pytest

from nbpk.bridge import TOPIC_COMMAND, BoundedFifo, TopicBus
from nbpk.channel import EndpointConfig, UdpEndpoint
from nbpk.cli import (
    TeleopState,
    UsageError,
    _parse_host_port,
    build_parser,
    main,
    map_key,
    teleop_loop,
    to_request,
)
from nbpk.recorder import record_messages
from nbpk.robotsim import RobotSim, gen_test_image
from nbpk.wire import MotionMode


class TestKeymap:
    def test_forward_step(self):
        s = map_key(TeleopState(), "w")
        assert (s.vx, s.vy, s.omega) == (pytest.approx(0.1), 0.0, 0.0)

    def test_opposing_keys_cancel(self):
        s = map_key(map_key(TeleopState(), "w"), "s")
        assert s.vx == pytest.approx(0.0)

    def test_lateral_and_turn(self):
        s = TeleopState()
        for key in "aaqq":
            s = map_key(s, key)
        assert s.vy == pytest.approx(0.2)
        assert s.omega == pytest.approx(0.2)
        s = map_key(map_key(s, "d"), "e")
        assert s.vy == pytest.approx(0.1)
        assert s.omega == pytest.approx(0.1)

    def test_clamped_at_unit(self):
        s = TeleopState()
        for _ in range(15):
            s = map_key(s, "w")
        assert s.vx == 1.0

    def test_space_stops(self):
        s = map_key(map_key(TeleopState(), "w"), " ")
        assert (s.vx, s.vy, s.omega) == (0.0, 0.0, 0.0)
        assert not s.exit_requested

    def test_x_stops_and_exits(self):
        s = map_key(map_key(TeleopState(), "w"), "x")
        assert (s.vx, s.vy, s.omega) == (0.0, 0.0, 0.0)
        assert s.exit_requested

    def test_unbound_key_ignored(self):
        s = map_key(TeleopState(vx=0.3), "z")
        assert s == TeleopState(vx=0.3)

    def test_custom_step(self):
        s = map_key(TeleopState(step=0.25), "w")
        assert s.vx == pytest.approx(0.25)

    def test_to_request_modes(self):
        assert to_request(TeleopState()).mode == MotionMode.STAND
        req = to_request(TeleopState(vx=0.3, omega=-0.2))
        assert req.mode == MotionMode.WALK
        assert req.vx == pytest.approx(0.3)
        assert req.omega == pytest.approx(-0.2)


def idle_keys(timeout):
    time.sleep(timeout)
    return None


def scripted_keys(script):
    keys = list(script)

    def get_key(timeout):
        if keys:
            return keys.pop(0)
        time.sleep(timeout)
        return None

    return get_key


class TestTeleopLoop:
    def test_immediate_exit_sends_single_stand(self):
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_COMMAND, BoundedFifo(16))
        teleop_loop(bus, rate=10, get_key=scripted_keys("x"), out=io.StringIO())
        cmds = sub.drain()
        assert len(cmds) == 1
        assert cmds[0].mode == MotionMode.STAND

    def test_publishes_at_rate(self):
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_COMMAND, BoundedFifo(64))
        teleop_loop(bus, rate=10, get_key=idle_keys, out=io.StringIO(),
                    max_runtime=1.0)
        cmds = sub.drain()
        # ~10 periodic publishes plus the final stand
        assert 8 <= len(cmds) <= 13
        assert all(c.mode == MotionMode.STAND for c in cmds)

    def test_key_changes_published_command(self):
        bus = TopicBus()
        sub = bus.subscribe(TOPIC_COMMAND, BoundedFifo(64))
        teleop_loop(bus, rate=20, get_key=scripted_keys("ww"), out=io.StringIO(),
                    max_runtime=0.3)
        cmds = sub.drain()
        # first publish lands between the two keypresses
        assert cmds[0].mode == MotionMode.WALK
        assert cmds[0].vx == pytest.approx(0.1)
        assert any(c.vx == pytest.approx(0.2) for c in cmds[1:])
        assert cmds[-1].mode == MotionMode.STAND  # parting shot is always stand

    def test_echo_line_written(self):
        out = io.StringIO()
        teleop_loop(TopicBus(), rate=10, get_key=idle_keys, out=out, max_runtime=1.2)
        assert "cmd=(0.00, 0.00, 0.00)" in out.getvalue()
        assert "robot=-" in out.getvalue()  # nothing echoed back

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            teleop_loop(TopicBus(), rate=0, get_key=idle_keys)


class TestParsing:
    def test_host_with_port(self):
        assert _parse_host_port("10.0.0.5:9999", 1234) == ("10.0.0.5", 9999)

    def test_host_without_port(self):
        assert _parse_host_port("robot.local", 1234) == ("robot.local", 1234)

    def test_bad_port(self):
        with pytest.raises(UsageError):
            _parse_host_port("host:notaport", 1234)

    def test_all_subcommands_exist(self):
        parser = build_parser()
        positionals = {"record": ["out.nbl"], "replay": ["log.nbl"],
                       "export": ["log.nbl", "outdir"]}
        for cmd in ("robot", "bridge", "bench", "record", "replay",
                    "export", "teleop", "inertia"):
            args = parser.parse_args([cmd] + positionals.get(cmd, []))
            assert args.command == cmd

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(UsageError):
            build_parser().parse_args(["frobnicate"])


class TestMainExitCodes:
    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_loss_out_of_range(self, capsys):
        assert main(["bench", "--loss", "1.5", "--duration", "0.1"]) == 1
        assert "loss_p" in capsys.readouterr().err

    def test_nonpositive_duration(self, capsys):
        assert main(["bench", "--duration", "0"]) == 1

    def test_missing_file_is_runtime_error(self, capsys):
        assert main(["replay", "/nonexistent/path.nbl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_robot_image_over_wire_bound(self, capsys):
        assert main(["robot", "--width", "2000", "--height", "2000",
                     "--command-port", "0", "--duration", "0.1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("width, height", [("-320", "-240"), ("70000", "1")])
    def test_robot_geometry_off_the_wire_opens_no_socket(self, capsys, width, height):
        assert main(["robot", "--width", width, "--height", height,
                     "--command-port", "0", "--duration", "0.1"]) == 1
        assert "width" in capsys.readouterr().err
        gc.collect()  # a socket left open warns when it is collected

    def test_robot_image_below_test_pattern(self, capsys):
        assert main(["robot", "--width", "2", "--height", "2",
                     "--command-port", "0", "--duration", "0.1"]) == 1
        assert "test pattern" in capsys.readouterr().err

    def test_robot_frag_size_out_of_range(self, capsys):
        assert main(["robot", "--frag-size", "100",
                     "--command-port", "0", "--duration", "0.1"]) == 1
        assert "frag_payload" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--fps", "0"), ("--fps", "61"), ("--motion-rate", "0")])
    def test_robot_rate_out_of_range(self, capsys, flag, value):
        assert main(["robot", flag, value, "--command-port", "0", "--duration", "0.1"]) == 1
        assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["robot", "--command-port", "0"],
                                      ["bridge", "--image-port", "0", "--motion-port", "0"]])
    def test_negative_duration_opens_no_socket(self, capsys, argv):
        assert main([*argv, "--duration", "-1"]) == 1
        assert "--duration" in capsys.readouterr().err
        gc.collect()  # a socket left open warns when it is collected

    @pytest.mark.parametrize("argv, field", [
        (["robot", "--image-port", "99999", "--motion-port", "70000", "--command-port", "0"],
         "image_port"),
        (["robot", "--motion-port", "0", "--command-port", "0"], "motion_port"),
        (["robot", "--command-port", "99999"], "command_port"),
        (["robot", "--command-port", "80"], "command_port"),
        (["bridge", "--image-port", "99999", "--motion-port", "0"], "image_port"),
        (["bridge", "--image-port", "0", "--motion-port", "0", "--robot", "127.0.0.1:99999"],
         "robot_command_port"),
        (["bridge", "--image-port", "0", "--motion-port", "0", "--robot", "127.0.0.1:0"],
         "robot_command_port"),
    ])
    def test_bad_port_is_usage_error_and_opens_no_socket(self, capsys, argv, field):
        assert main([*argv, "--duration", "0.3"]) == 1
        assert field in capsys.readouterr().err
        gc.collect()  # a socket left open warns when it is collected

    def test_record_bad_port_is_usage_error_and_writes_no_log(self, capsys, tmp_path):
        p = tmp_path / "x.nbl"
        assert main(["record", str(p), "--image-port", "99999", "--motion-port", "0",
                     "--duration", "0.1"]) == 1
        assert "image_port" in capsys.readouterr().err
        assert not p.exists()
        gc.collect()  # a socket left open warns when it is collected

    def test_bench_loopback_fps_out_of_range_opens_no_socket(self, capsys):
        assert main(["bench", "--loopback", "--fps", "61", "--duration", "0.1"]) == 1
        assert "fps" in capsys.readouterr().err
        gc.collect()  # a socket left open warns when it is collected

    @pytest.mark.parametrize("flag", ["--loss", "--dup", "--reorder"])
    def test_bench_loopback_refuses_impairment_and_opens_no_socket(self, capsys, flag):
        assert main(["bench", "--loopback", flag, "0.5", "--duration", "0.1"]) == 1
        err = capsys.readouterr().err
        assert "--loopback" in err and flag in err
        gc.collect()  # a socket left open warns when it is collected

    def test_teleop_needs_tty(self, capsys):
        assert main(["teleop"]) == 1
        assert "terminal" in capsys.readouterr().err


class TestBenchCommand:
    def test_simulated_run_prints_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bench", "--duration", "1", "--fps", "10",
                     "--loss", "0.05", "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frames_sent"] == 10
        assert doc["expected_ratio"] == pytest.approx(0.95 ** 111)
        assert json.loads(out.read_text()) == doc


class TestLogCommands:
    def make_log(self, path, n=3):
        record_messages([gen_test_image(i, 32, 24) for i in range(n)], path)

    def test_replay_max_speed(self, capsys, tmp_path):
        p = tmp_path / "log.nbl"
        self.make_log(p)
        assert main(["replay", str(p), "--speed", "max"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"] == 3
        assert doc["wall_s"] < 1.0

    def test_replay_bad_speed(self, capsys, tmp_path):
        p = tmp_path / "log.nbl"
        self.make_log(p)
        assert main(["replay", str(p), "--speed", "fast"]) == 1

    def test_export_writes_ppm_files(self, capsys, tmp_path):
        p = tmp_path / "log.nbl"
        self.make_log(p, n=4)
        outdir = tmp_path / "frames"
        assert main(["export", str(p), str(outdir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["images"] == 4
        files = sorted(f.name for f in outdir.iterdir())
        assert files == [f"frame_{i:06d}.ppm" for i in range(4)]
        assert (outdir / "frame_000000.ppm").read_bytes().startswith(b"P6\n32 24\n255\n")

    def test_export_limit(self, capsys, tmp_path):
        p = tmp_path / "log.nbl"
        self.make_log(p, n=4)
        outdir = tmp_path / "frames"
        assert main(["export", str(p), str(outdir), "--limit", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["images"] == 2

    def test_export_limit_zero_writes_nothing(self, capsys, tmp_path):
        p = tmp_path / "log.nbl"
        self.make_log(p, n=4)
        outdir = tmp_path / "frames"
        assert main(["export", str(p), str(outdir), "--limit", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["images"] == 0
        assert list(outdir.iterdir()) == []

    def test_export_negative_limit_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "log.nbl"
        self.make_log(p, n=4)
        outdir = tmp_path / "frames"
        assert main(["export", str(p), str(outdir), "--limit", "-1"]) == 1
        assert "--limit" in capsys.readouterr().err
        assert not outdir.exists()

    def test_record_idle_writes_valid_header(self, capsys, tmp_path):
        p = tmp_path / "log.nbl"
        code = main(["record", str(p), "--duration", "0.2",
                     "--image-port", "0", "--motion-port", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["records"] == 0
        from nbpk.recorder import read_log
        assert list(read_log(p)) == []


class TestRunCommands:
    def test_bridge_prints_stats_lines(self, capsys):
        code = main(["bridge", "--image-port", "0", "--motion-port", "0",
                     "--stats-period", "0.1", "--duration", "0.4"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            doc = json.loads(line)
            assert doc["image"]["frames_complete"] == 0 and "uptime_s" in doc
            assert doc["commands_failed"] == 0 and "frames_published" not in doc

    def test_a_dead_loop_ends_the_command_with_exit_2(self, monkeypatch, caplog):
        def fail(self):
            raise RuntimeError("camera gone")

        monkeypatch.setattr(RobotSim, "_image_loop", fail)
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as image_in, \
                UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as motion_in:
            t0 = time.monotonic()
            with caplog.at_level(logging.ERROR, logger="nbpk"):
                code = main(["robot", "--command-port", "0", "--duration", "30",
                             "--image-port", str(image_in.local_port),
                             "--motion-port", str(motion_in.local_port)])
            took = time.monotonic() - t0
        assert code == 2 and took < 1.0
        [rec] = caplog.records  # the one line: the service logs the loop that died
        assert "nbpk-robot-image" in rec.getMessage() and "camera gone" in str(rec.exc_info[1])

    def test_robot_streams_for_duration(self):
        with UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as image_in, \
                UdpEndpoint(EndpointConfig(bind_host="127.0.0.1")) as motion_in:
            code = main(["robot", "--command-port", "0", "--duration", "0.3",
                         "--image-port", str(image_in.local_port),
                         "--motion-port", str(motion_in.local_port)])
            assert code == 0
            assert image_in.recv(timeout=1.0) is not None
            assert motion_in.recv(timeout=1.0) is not None


class TestInertiaCommand:
    def test_bundled_default_reports_violation(self, capsys):
        assert main(["inertia"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bodies"] == 1
        assert doc["mass_kg"] == pytest.approx(0.2074)
        assert doc["valid"] is False
        assert any("triangle" in v for v in doc["violations"])

    def test_valid_body_file(self, capsys, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({"mass": 1.0, "com": [0, 0, 0],
                                 "inertia": [2e-3, 0, 0, 0, 2e-3, 0, 0, 0, 3e-3]}))
        assert main(["inertia", str(p)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True
        assert doc["violations"] == []

    def test_base_reports_com_shift(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"mass": 4.0, "com": [0, 0, 0.2],
                                    "inertia": [0.1, 0, 0, 0, 0.1, 0, 0, 0, 0.1]}))
        addon = tmp_path / "addon.json"
        addon.write_text(json.dumps({"mass": 1.0, "com": [0.1, 0, 0.2],
                                     "inertia": [1e-3, 0, 0, 0, 1e-3, 0, 0, 0, 1e-3]}))
        assert main(["inertia", str(addon), "--base", str(base)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["com_shift_from_base_m"] == pytest.approx([0.02, 0.0, 0.0])

    def test_missing_file(self, capsys):
        assert main(["inertia", "/nonexistent/bodies.json"]) == 2
