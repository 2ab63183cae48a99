"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "511.povray", "phast", "--num-ops", "1234", "--core", "nehalem"]
        )
        assert args.workload == "511.povray"
        assert args.predictor == "phast"
        assert args.num_ops == 1234
        assert args.core == "nehalem"

    def test_rejects_unknown_predictor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "511.povray", "nonsense"])

    def test_rejects_unknown_core(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "511.povray", "phast", "--core", "pentium"]
            )


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "511.povray", "phast", "--num-ops", "2000"]) == 0
        output = capsys.readouterr().out
        assert "511.povray" in output and "IPC=" in output
        assert "violations=" in output

    def test_suite(self, capsys):
        assert main(
            ["suite", "--predictors", "phast", "--num-ops", "2000", "--subset", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "GEOMEAN" in output

    def test_suite_rejects_bad_predictor(self):
        with pytest.raises(SystemExit):
            main(["suite", "--predictors", "bogus", "--subset", "1"])

    @pytest.mark.parametrize(
        "command",
        [
            ["suite"],
            ["sweep", "--store", "{tmp}/store"],
            ["chaos", "--store", "{tmp}/soak"],
            ["export", "{tmp}/out.json"],
        ],
        ids=lambda command: command[0],
    )
    def test_rejects_unknown_predictor(self, command, tmp_path):
        argv = [arg.format(tmp=tmp_path) for arg in command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--predictors", "phast,bogus", "--subset", "1"])
        assert str(excinfo.value) == "unknown predictor 'bogus'"
        assert not any(tmp_path.iterdir())  # rejected before any work

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        assert "511.povray" in capsys.readouterr().out

    def test_predictors(self, capsys):
        assert main(["predictors"]) == 0
        output = capsys.readouterr().out
        assert "phast" in output and "store-sets" in output

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "phast" in output and "14.5" in output

    def test_run_seed_override(self, capsys):
        assert main(
            ["run", "511.povray", "phast", "--num-ops", "2000", "--seed", "7"]
        ) == 0
        assert "IPC=" in capsys.readouterr().out

    def test_num_ops_default_tracks_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_OPS", "4321")
        args = build_parser().parse_args(["run", "511.povray", "phast"])
        assert args.num_ops == 4321


class TestProbe:
    def test_prints_interval_table(self, capsys):
        assert main(
            [
                "probe",
                "511.povray",
                "phast",
                "--num-ops",
                "6000",
                "--interval-ops",
                "2000",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "viol_mpki" in output and "rob_occ" in output
        assert "0-1999" in output and "4000-5999" in output
        assert "IPC=" in output  # aggregate summary still printed

    def test_partial_window_marked(self, capsys):
        assert main(
            [
                "probe",
                "511.povray",
                "phast",
                "--num-ops",
                "5000",
                "--interval-ops",
                "2000",
            ]
        ) == 0
        assert "4000-4999*" in capsys.readouterr().out

    def test_json_export(self, tmp_path, capsys):
        import json

        path = tmp_path / "intervals.json"
        assert main(
            [
                "probe",
                "511.povray",
                "phast",
                "--num-ops",
                "6000",
                "--json",
                str(path),
            ]
        ) == 0
        records = json.loads(path.read_text())
        assert len(records) == 3
        assert records[0]["workload"] == "511.povray"
        assert "ipc" in records[0] and "violation_mpki" in records[0]

    def test_rejects_unknown_predictor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["probe", "511.povray", "nonsense"])


class TestSweep:
    def sweep(self, tmp_path, *extra):
        return main(
            [
                "sweep",
                "--predictors",
                "phast",
                "--subset",
                "1",
                "--num-ops",
                "2000",
                "--store",
                str(tmp_path / "store"),
                *extra,
            ]
        )

    def test_status_on_empty_store(self, tmp_path, capsys):
        assert self.sweep(tmp_path, "--status") == 0
        output = capsys.readouterr().out
        assert "1 cells: 0 completed, 0 failed, 1 pending" in output

    def test_run_then_resume_is_all_cached(self, tmp_path, capsys):
        assert self.sweep(tmp_path) == 0
        first = capsys.readouterr().out
        assert "ok=1 (cached=0, simulated=1) failed=0" in first
        assert "failure manifest:" in first

        assert self.sweep(tmp_path) == 0
        second = capsys.readouterr().out
        assert "ok=1 (cached=1, simulated=0) failed=0" in second

        assert self.sweep(tmp_path, "--status") == 0
        assert "1 completed, 0 failed, 0 pending" in capsys.readouterr().out

    def test_rejects_bad_predictor(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep",
                    "--predictors",
                    "bogus",
                    "--subset",
                    "1",
                    "--store",
                    str(tmp_path / "store"),
                ]
            )


class TestTrace:
    def compile(self, tmp_path, *extra):
        return main(
            [
                "trace",
                "compile",
                "--workloads",
                "511.povray",
                "--num-ops",
                "800",
                "--store",
                str(tmp_path / "traces"),
                *extra,
            ]
        )

    def test_compile_then_recompile_loads(self, tmp_path, capsys):
        assert self.compile(tmp_path) == 0
        assert "compiled 1, already stored 0" in capsys.readouterr().out
        assert self.compile(tmp_path) == 0
        assert "compiled 0, already stored 1" in capsys.readouterr().out

    def test_compile_rejects_unknown_workload(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "trace",
                    "compile",
                    "--workloads",
                    "999.bogus",
                    "--store",
                    str(tmp_path / "traces"),
                ]
            )

    def test_ls_lists_artifacts(self, tmp_path, capsys):
        self.compile(tmp_path)
        capsys.readouterr()
        assert main(["trace", "ls", "--store", str(tmp_path / "traces")]) == 0
        output = capsys.readouterr().out
        assert "511.povray" in output
        assert "1 artifacts" in output
        assert "0 rebuild markers" in output

    def test_verify_clean_store(self, tmp_path, capsys):
        self.compile(tmp_path)
        capsys.readouterr()
        assert main(["trace", "verify", "--store", str(tmp_path / "traces")]) == 0
        assert "0 problems" in capsys.readouterr().out

    def test_deep_verify_clean_store(self, tmp_path, capsys):
        self.compile(tmp_path)
        capsys.readouterr()
        assert (
            main(["trace", "verify", "--deep", "--store", str(tmp_path / "traces")])
            == 0
        )
        output = capsys.readouterr().out
        assert "(deep)" in output and "0 problems" in output

    def test_verify_reports_corruption(self, tmp_path, capsys):
        self.compile(tmp_path)
        capsys.readouterr()
        artifact = next((tmp_path / "traces").glob("*.rtb"))
        blob = bytearray(artifact.read_bytes())
        blob[-1] ^= 0x01
        artifact.write_bytes(bytes(blob))
        assert main(["trace", "verify", "--store", str(tmp_path / "traces")]) == 1
        output = capsys.readouterr().out
        assert "PROBLEM" in output and "1 problems" in output

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])
