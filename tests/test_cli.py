"""Tests for the ``python -m repro`` CLI."""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.metrics import MetricsRegistry, to_json


def _src_env() -> dict:
    """The environment with this checkout's ``src`` on PYTHONPATH, for
    tests that run the CLI in a child interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class TestParser:
    def test_artefact_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_artefact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_all_artefacts_registered(self):
        expected = {
            "claims", "table1", "table2", "fig1", "fig2", "fig3", "fig4",
            "fig5", "fig6", "fig7",
            "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9",
            "faults",
        }
        assert set(COMMANDS) == expected

    def test_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.seed == 7
        assert not args.quick
        assert args.plan == "montblanc"

    def test_help_loads_no_engine(self):
        """`--help` parses and exits before anything heavy is imported."""
        probe = (
            "import json, sys\n"
            "from repro.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=_src_env(), capture_output=True, text=True, check=True,
            timeout=60,
        )
        assert "usage:" in result.stdout
        loaded = set(json.loads(result.stderr))
        assert not loaded & {"repro.engine", "repro.faults", "repro.cluster"}


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "YALES2" in out and "BQCD" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "LINPACK" in out
        assert "38.7" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "exaflop" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Machine (12GB)" in out
        assert "Machine (796MB)" in out

    def test_fig5(self, capsys):
        assert main(["fig5", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "GB/s" in out
        assert "consecutive" in out

    def test_fig5_without_a_degraded_sample(self, capsys):
        # Seed 1's 16 KB samples all sit within scheduler jitter.
        assert main(["fig5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count(" GB/s x") == 1
        assert "0 degraded samples in 0 consecutive run(s)" in out

    def test_all_runs_every_artefact_after_a_failing_claim(
        self, monkeypatch, capsys
    ):
        ran = []
        monkeypatch.setattr("repro.cli.COMMANDS", {
            "claims": lambda args: ran.append("claims") or 1,
            "table1": lambda args: ran.append("table1"),
        })
        assert main(["all", "--no-cache"]) == 1
        assert ran == ["claims", "table1"]

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "sweet spot: [4, 5, 6, 7]" in out

    def test_x2(self, capsys):
        assert main(["x2"]) == 0
        out = capsys.readouterr().out
        assert "Mali-T604" in out

    def test_fig3_quick(self, capsys):
        assert main(["fig3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "LINPACK" in out and "BigDFT" in out

    def test_fig4(self, tmp_path, capsys):
        def fig4(*flags):
            assert main(["fig4", *flags]) == 0
            return capsys.readouterr()

        def deterministic_metrics(path):
            registry = MetricsRegistry()
            registry.merge(json.loads(path.read_text(encoding="utf-8")))
            return to_json(registry, deterministic=True)

        serial = fig4("--jobs", "1", "--no-cache",
                      "--metrics-out", str(tmp_path / "jobs1.json"))
        assert "commodity" in serial.out and "upgraded" in serial.out
        # One point per switch variant: the two jobs fan out and cache
        # like every other sweep, with byte-stable stdout and metrics.
        parallel = fig4("--jobs", "2", "--no-cache",
                        "--metrics-out", str(tmp_path / "jobs2.json"))
        assert parallel.out == serial.out
        assert deterministic_metrics(tmp_path / "jobs1.json") == (
            deterministic_metrics(tmp_path / "jobs2.json")
        )
        fig4()
        warm = fig4()
        assert warm.out == serial.out
        assert "[engine] fig4: 2 points | hits 2 | misses 0" in warm.err

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "128b" in out

    def test_x1(self, capsys):
        assert main(["x1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:] == [
            "  fragmentation 0.00: 0.950 0.950 0.950 0.950 0.950 0.950",
            "  fragmentation 0.85: 0.796 0.950 0.771 0.796 0.796 0.796",
        ]

    def test_x3(self, capsys):
        assert main(["x3"]) == 0
        out = capsys.readouterr().out
        assert "buffer" in out

    def test_x5(self, capsys):
        assert main(["x5"]) == 0
        out = capsys.readouterr().out
        assert "32 KB" in out

    def test_x6(self, capsys):
        assert main(["x6"]) == 0
        out = capsys.readouterr().out
        assert "Mali" in out

    def test_x7(self, capsys):
        assert main(["x7"]) == 0
        out = capsys.readouterr().out
        assert "BQCD" in out

    def test_x8(self, capsys):
        assert main(["x8"]) == 0
        out = capsys.readouterr().out
        assert "prototype" in out

    def test_x8_reads_figure_4s_commodity_run(self, capsys):
        """x8's Tibidabo row is the cached Figure 4 commodity job."""
        assert main(["fig4"]) == 0
        capsys.readouterr()
        assert main(["x8"]) == 0
        captured = capsys.readouterr()
        assert "  Tibidabo  : 42.6 s\n" in captured.out
        assert "[engine] x8/tibidabo: 1 points | hits 1 | misses 0" in (
            captured.err
        )

    def test_x9_reads_figure_3s_linpack_point(self, capsys):
        """x9's clean time is Figure 3's cached 32-core LINPACK job."""
        assert main(["fig3"]) == 0
        capsys.readouterr()
        assert main(["x9", "--quick"]) == 0
        assert "[engine] x9/clean: 1 points | hits 1 | misses 0" in (
            capsys.readouterr().err
        )

    @staticmethod
    def _mpi_jobs(path):
        counters = json.loads(path.read_text(encoding="utf-8"))["counters"]
        return counters["mpi.jobs"]["value"]

    def test_x9_quick(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(["x9", "--quick", "--no-cache",
                     "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "sweet spot" in out and "rework" in out
        # The clean job, then one faulty probe per checkpoint interval.
        assert self._mpi_jobs(metrics) == 4

    def test_faults_quick(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(["faults", "--quick", "--plan", "single-crash",
                     "--no-cache", "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "resilience summary" in out
        assert "MTTF" in out and "detection latency" in out
        assert "goodput lost to retries" in out and "rework" in out
        # Per core count: the clean job, then the faulty probe.
        assert self._mpi_jobs(metrics) == 4

    def test_faults_unknown_plan_fails_cleanly(self, capsys):
        assert main(["faults", "--quick", "--plan", "meteor"]) == 1
        assert "unknown fault plan" in capsys.readouterr().err


class TestFlagValidation:
    @pytest.mark.parametrize("flags, named", [
        (["--jobs", "0"], "--jobs must be >= 1, got 0"),
        (["--retries", "-1"], "--retries must be >= 0, got -1"),
        (["--point-timeout", "0"], "--point-timeout must be > 0, got 0.0"),
        (["--retries", "1", "--retry-delay", "-1"],
         "--retry-delay must be > 0, got -1.0"),
    ])
    def test_bad_engine_flags_exit_2_with_one_line(self, flags, named,
                                                   capsys):
        assert main(["fig7", "--no-cache", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {named}\n"

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(argv, flag, id=f"{argv[0]}{flag}")
        for argv, flag in [
            (["trace-report", "--summary-out", "s.json"], "--summary-out"),
            (["cache", "stats", "--run-dir", "rd"], "--run-dir"),
            (["trace-report", "--resume", "rd"], "--resume"),
            (["reproduce-all", "--metrics-out", "m.json"], "--metrics-out"),
            (["reproduce-all", "--metrics-format", "prom"],
             "--metrics-format"),
            (["fig1", "--chrome-out", "x.json", "--out", "xo", "--stream"],
             "--out"),
            (["reproduce-all", "--only", "table2", "--stream",
              "--frontier", "5", "--chrome-out", "y.json"], "--stream"),
            (["fig4", "--app", "specfem3d"], "--app"),
        ]
    ])
    def test_output_flags_the_command_never_honours_exit_2(
        self, argv, flag, tmp_path, monkeypatch, capsys,
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {flag} has no effect on {argv[0]}: "
        )
        assert len(captured.err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--breaker-threshold", "0"),
        ("--breaker-cooldown", "0"),
        ("--deadline", "0"),
    ])
    def test_serve_refuses_bad_settings_before_listening(self, tmp_path,
                                                         flag, value):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--run-dir", str(tmp_path / "run"),
             "--cache-dir", str(tmp_path / "cache"), flag, value],
            env=_src_env(), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error in serve: ")
        assert "listening" not in result.stderr

    @pytest.mark.parametrize("in_use", [True, False],
                             ids=["port-in-use", "port-out-of-range"])
    def test_serve_reports_a_port_it_cannot_listen_on(self, tmp_path,
                                                      in_use):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1] if in_use else 70000
            result = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--port", str(port),
                 "--run-dir", str(tmp_path / "run"),
                 "--cache-dir", str(tmp_path / "cache")],
                env=_src_env(), capture_output=True, text=True, timeout=60,
            )
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        if in_use:
            assert result.returncode == 1
            assert lines[0].startswith(
                f"error in serve: cannot listen on 127.0.0.1:{port}: "
            )
        else:
            assert result.returncode == 2
            assert lines[0] == "error: --port must be in [0, 65535], got 70000"
