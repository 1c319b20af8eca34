"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def trace_file(tmp_path):
    """A small sawtooth trace file generated through the CLI itself."""
    path = tmp_path / "saw.trace"
    assert main(["generate", "sawtooth", "--items", "16", "-o", str(path)]) == 0
    return path


def _set_manifest_schema(store, schema):
    """Rewrite a checkpoint store's manifest as if an older layout had written it."""
    manifest_path = store / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["schema"] = schema
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "does-not-exist"])

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "cyclic"])


class TestFlagsMatchJobFields:
    """Every defaulted job knob is a flag of its subcommand, with the job's default."""

    #: Job fields the subcommands take as inputs or parse from other flags, or leave at the job's default.
    NOT_FLAGS = {"name", "trace", "path", "tenants", "policies", "capacities"}

    @staticmethod
    def _job_cases():
        from repro.alloc.partition import PartitionJob
        from repro.online.replay import OnlineJob
        from repro.profiling.engine import ProfileJob
        from repro.sim.sweep import SweepJob

        return [
            (ProfileJob, ["profile", "t.trace"]),
            (OnlineJob, ["online", "--budget", "64", "--window", "200", "--epoch", "100"]),
            (PartitionJob, ["partition", "--tenants", "zipf", "--budget", "64"]),
            (SweepJob, ["sweep", "t.trace"]),
        ]

    def test_every_knob_flag_defaults_to_the_field_default(self):
        import dataclasses

        for job_type, argv in self._job_cases():
            args = build_parser().parse_args(argv)
            for field in dataclasses.fields(job_type):
                if field.default is dataclasses.MISSING or field.name in self.NOT_FLAGS:
                    continue
                assert hasattr(args, field.name), f"{job_type.__name__}.{field.name} has no flag"
                assert getattr(args, field.name) == field.default, f"{job_type.__name__}.{field.name}"

    def test_profile_mode_default_matches_the_job(self):
        import numpy as np

        from repro.profiling.engine import ProfileJob

        args = build_parser().parse_args(["profile", "t.trace"])
        assert args.mode == ProfileJob(trace=np.arange(4)).mode == "shards"

    def test_derived_flag_parses_with_the_field_type(self):
        args = build_parser().parse_args(["online", "--budget", "64", "--window", "200", "--epoch", "100",
                                          "--horizon-epochs", "3", "--move-cost", "0.5"])
        assert args.horizon_epochs == 3 and args.move_cost == 0.5
        args = build_parser().parse_args(["partition", "--tenants", "zipf", "--budget", "64", "--smax", "100"])
        assert args.smax == 100
        args = build_parser().parse_args(["profile", "t.trace", "--seeds", "3", "--max-size", "64"])
        assert args.n_seeds == 3 and args.max_cache_size == 64


class TestGenerate:
    @pytest.mark.parametrize("kind", ["cyclic", "sawtooth", "random-retraversal", "zipf", "stream"])
    def test_generate_all_kinds(self, tmp_path, kind, capsys):
        path = tmp_path / f"{kind}.trace"
        code = main(["generate", kind, "--items", "8", "--length", "64", "-o", str(path)])
        assert code == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "wrote" in out


class TestAnalyzeAndMrc:
    def test_analyze_prints_statistics(self, trace_file, capsys):
        assert main(["analyze", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "Trace statistics" in out
        assert "locality score" in out
        assert "1.0000" in out  # sawtooth has perfect locality score

    def test_analyze_summarizes_the_trace_once(self, tmp_path, capsys, monkeypatch):
        """One distance pass serves the statistics and the miss ratios."""
        from repro.analysis.reporting import format_table
        from repro.cache import stack_distance
        from repro.cache.mrc import mrc_from_trace
        from repro.core import Permutation
        from repro.trace import PeriodicTrace, stats
        from repro.trace.io import read_text, write_text

        path = tmp_path / "mixed.trace"
        write_text(PeriodicTrace(Permutation([3, 1, 0, 2, 4])).to_trace(), path)
        trace = read_text(path)
        table = format_table([stats.summarize(trace).__dict__], title=f"Trace statistics — {trace.name}")
        score = f"locality score (0 = cyclic, 1 = sawtooth): {stats.locality_score(trace):.4f}"
        calls = []
        for module, name in [
            (stats, "stack_distances_with_previous"),
            (stack_distance, "stack_distances_with_previous"),
            (stack_distance, "stack_distances_vectorized"),
        ]:
            monkeypatch.setattr(module, name, lambda t, _pass=getattr(module, name): calls.append(t) or _pass(t))
        assert main(["analyze", str(path)]) == 0
        assert len(calls) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[: len(table.splitlines()) + 1] == [*table.splitlines(), score]
        curve = mrc_from_trace(trace.accesses)
        sizes = sorted({max(1, trace.footprint // 8), max(1, trace.footprint // 2), trace.footprint})
        rows = [{"cache_size": c, "miss_ratio": curve[c]} for c in sizes]
        ratios = format_table(rows, title="LRU miss ratio at sampled cache sizes").splitlines()
        assert lines[-len(ratios) :] == ratios
        assert 0.0 < float(score.split()[-1]) < 1.0  # strictly between the cyclic and sawtooth anchors

    def test_mrc_prints_curve(self, trace_file, capsys):
        assert main(["mrc", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "Miss-ratio curve" in out
        assert "cache_size" in out

    def test_mrc_writes_csv(self, trace_file, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        assert main(["mrc", str(trace_file), "--csv", str(csv_path), "--max-size", "8"]) == 0
        content = csv_path.read_text().splitlines()
        assert content[0] == "cache_size,miss_ratio"
        assert len(content) == 9


#: A line ``read_text`` cannot use, and what its error says about it.
BAD_LINES = [("x3", "not an integer label"), ("99999999999999999999", "label 99999999999999999999 is outside")]


class TestMalformedTraceFiles:
    """A trace line the reader cannot use is an ``error: <file>:<line>: ...`` and exit 2, never a traceback."""

    @pytest.mark.parametrize("command", ["analyze", "mrc", "sweep", "profile"])
    @pytest.mark.parametrize(("line", "message"), BAD_LINES)
    def test_trace_commands(self, command, line, message, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(f"1\n{line}\n2\n")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"bad.txt:2: {message}" in err

    @pytest.mark.parametrize("flags", [["--compare-exact"], ["--workers", "2"]], ids=["compare-exact", "pooled"])
    @pytest.mark.parametrize(("line", "message"), BAD_LINES)
    def test_profile_reads_in_this_process_or_a_worker(self, flags, line, message, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("1\n2\n1\n")
        path = tmp_path / "bad.txt"
        path.write_text(f"1\n2\n{line}\n")
        assert main(["profile", str(good), str(path), "--mode", "exact", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"bad.txt:3: {message}" in err

    @pytest.mark.parametrize(("line", "message"), BAD_LINES)
    def test_partition_file_tenant(self, line, message, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(f"1\n{line}\n2\n")
        assert main(["partition", "--tenants", f"file:path={path},zipf", "--budget", "64"]) == 2
        assert f"bad.txt:2: {message}" in capsys.readouterr().err


class TestParseCapacities:
    def test_pow2_grid_covers_footprint(self):
        from repro.cli import parse_capacities

        assert parse_capacities("pow2", 100) == (1, 2, 4, 8, 16, 32, 64)
        assert parse_capacities("pow2", 1) == (1,)

    def test_ranges_lists_and_unions(self):
        from repro.cli import parse_capacities

        assert parse_capacities("4:12:4", 0) == (4, 8, 12)
        assert parse_capacities("1:3", 0) == (1, 2, 3)
        assert parse_capacities("7,3,7,1:2", 0) == (1, 2, 3, 7)

    def test_rejects_bad_specs(self):
        from repro.cli import parse_capacities

        with pytest.raises(ValueError):
            parse_capacities("1:2:3:4", 8)
        with pytest.raises(ValueError):
            parse_capacities("4:8:0", 8)
        with pytest.raises(ValueError):
            parse_capacities(",", 8)


class TestSweep:
    @pytest.fixture(scope="class")
    def zipf_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("sweep") / "zipf.trace"
        code = main(
            [
                "generate", "zipf", "--length", "5000", "--items", "256",
                "--exponent", "0.9", "--seed", "5", "-o", str(path),
            ]
        )
        assert code == 0
        return path

    def test_sweep_prints_policy_capacity_table(self, zipf_file, capsys):
        code = main(
            ["sweep", str(zipf_file), "--policies", "lru,fifo,random,set-associative",
             "--capacities", "4,8,16,32", "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy sweep" in out
        assert "set-associative" in out
        assert "kernel compute time per policy" in out

    def test_sweep_writes_csv(self, zipf_file, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main(["sweep", str(zipf_file), "--policies", "lru", "--capacities", "1:16", "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trace,policy,capacity,accesses,hits,misses,miss_ratio"
        assert len(lines) == 17
        ratios = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(ratios, ratios[1:]))

    def test_sweep_matches_mrc_curve(self, zipf_file, tmp_path):
        """The LRU sweep agrees with the mrc subcommand at every grid point."""
        mrc_csv = tmp_path / "mrc.csv"
        sweep_csv = tmp_path / "sweep.csv"
        assert main(["mrc", str(zipf_file), "--max-size", "32", "--csv", str(mrc_csv)]) == 0
        assert main(
            ["sweep", str(zipf_file), "--policies", "lru", "--capacities", "1:32", "--csv", str(sweep_csv)]
        ) == 0
        mrc_ratios = [float(line.split(",")[1]) for line in mrc_csv.read_text().splitlines()[1:]]
        sweep_ratios = [float(line.split(",")[-1]) for line in sweep_csv.read_text().splitlines()[1:]]
        assert len(mrc_ratios) == len(sweep_ratios) == 32
        for a, b in zip(mrc_ratios, sweep_ratios):
            assert abs(a - b) < 1e-9

    def test_sweep_rejects_bad_grid(self, zipf_file, capsys):
        assert main(["sweep", str(zipf_file), "--capacities", "0:4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_rejects_unknown_policy(self, zipf_file, capsys):
        assert main(["sweep", str(zipf_file), "--policies", "mru"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_rejects_bad_workers_and_unrealisable_ways(self, zipf_file, capsys):
        assert main(["sweep", str(zipf_file), "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err
        code = main(["sweep", str(zipf_file), "--policies", "set-associative", "--capacities", "1,2,3", "--ways", "4"])
        assert code == 2
        assert "multiple of ways" in capsys.readouterr().err

    def test_sweep_resume_of_an_unreadable_store_is_an_error(self, zipf_file, tmp_path, capsys):
        argv = ["sweep", str(zipf_file), "--policies", "lru", "--capacities", "1:8", "--checkpoint", str(tmp_path)]
        assert main(argv) == 0
        _set_manifest_schema(tmp_path, 1)
        capsys.readouterr()
        assert main([*argv, "--resume"]) == 2
        assert capsys.readouterr().err.startswith("error: checkpoint schema mismatch")


class TestPartition:
    ACCEPTANCE_TENANTS = "zipf:length=15000:items=2048,sawtooth:items=2000,stream:n=1000:repetitions=3"

    def _total_row(self, csv_path):
        lines = csv_path.read_text().splitlines()
        headers = lines[0].split(",")
        rows = [dict(zip(headers, line.split(","))) for line in lines[1:]]
        total = [row for row in rows if row["tenant"] == "TOTAL"]
        assert len(total) == 1
        return rows, total[0]

    def test_partition_prints_tables(self, capsys):
        code = main(
            ["partition", "--tenants", "zipf:length=4000:items=512,sawtooth:items=256",
             "--budget", "256", "--method", "greedy"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "partition --method greedy" in out
        assert "shared-cache miss ratios" in out
        assert "win_vs_proportional" in out

    def test_partition_acceptance_criteria(self, tmp_path, capsys):
        """The ISSUE acceptance bar: 3-tenant Zipf/sawtooth/STREAM composition,
        |predicted - simulated| <= 0.02, and hull/DP beat the proportional split."""
        for method in ("hull", "dp"):
            csv_path = tmp_path / f"{method}.csv"
            code = main(
                ["partition", "--tenants", self.ACCEPTANCE_TENANTS, "--budget", "1024",
                 "--method", method, "--workers", "2", "--csv", str(csv_path)]
            )
            assert code == 0
            rows, total = self._total_row(csv_path)
            assert len(rows) == 4  # 3 tenants + TOTAL
            assert abs(float(total["predicted"]) - float(total["simulated"])) <= 0.02
            assert float(total["win_vs_proportional"]) > 0.0

    def test_partition_shards_mode_stays_accurate(self, tmp_path):
        csv_path = tmp_path / "shards.csv"
        code = main(
            ["partition", "--tenants", self.ACCEPTANCE_TENANTS, "--budget", "1024",
             "--method", "hull", "--mode", "shards", "--rate", "0.1", "--csv", str(csv_path)]
        )
        assert code == 0
        _, total = self._total_row(csv_path)
        assert float(total["error"]) <= 0.02

    def test_partition_file_tenant_kind(self, trace_file, capsys):
        code = main(
            ["partition", "--tenants", f"file:path={trace_file}:name=disk,zipf:length=2000:items=256",
             "--budget", "64"]
        )
        assert code == 0
        assert "disk" in capsys.readouterr().out

    def test_partition_rejects_bad_specs(self, capsys):
        assert main(["partition", "--tenants", "nosuch", "--budget", "64"]) == 2
        assert "unknown tenant kind" in capsys.readouterr().err
        assert main(["partition", "--tenants", "zipf:bogus=1", "--budget", "64"]) == 2
        assert "unknown option" in capsys.readouterr().err
        assert main(["partition", "--tenants", "zipf:items", "--budget", "64"]) == 2
        assert "expected key=value" in capsys.readouterr().err
        assert main(["partition", "--tenants", "file", "--budget", "64"]) == 2
        assert "requires a path" in capsys.readouterr().err

    def test_partition_rejects_bad_budget_and_unit(self, capsys):
        assert main(["partition", "--tenants", "zipf", "--budget", "0"]) == 2
        assert "budget" in capsys.readouterr().err
        assert main(["partition", "--tenants", "zipf", "--budget", "64", "--unit", "128"]) == 2
        assert "unit" in capsys.readouterr().err


class TestOnline:
    ARGS = ["online", "--length", "2000", "--budget", "600", "--window", "2000",
            "--epoch", "1000", "--rate", "0.5"]

    def test_online_prints_epoch_series_and_scoreboard(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "online --method hull" in out
        assert "static vs adaptive vs oracle" in out
        assert "win_vs_static" in out

    def test_online_csv_has_epoch_rows_and_total(self, tmp_path):
        csv_path = tmp_path / "online.csv"
        assert main([*self.ARGS, "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        headers = lines[0].split(",")
        rows = [dict(zip(headers, line.split(","))) for line in lines[1:]]
        total = [row for row in rows if row["epoch"] == "TOTAL"]
        assert len(total) == 1 and rows[-1]["epoch"] == "TOTAL"
        # the TOTAL row carries the scoreboard: overall ratios and the win
        assert 0.0 <= float(total[0]["static"]) <= 1.0
        assert 0.0 <= float(total[0]["adaptive"]) <= 1.0
        expected_win = float(total[0]["static"]) - float(total[0]["adaptive"])
        assert float(total[0]["win_vs_static"]) == pytest.approx(expected_win)
        # epoch rows cover the whole trace
        epoch_rows = rows[:-1]
        assert int(epoch_rows[-1]["end"]) == int(total[0]["accesses"])

    def test_online_churn_workload(self, capsys):
        code = main(["online", "--workload", "churn", "--length", "1500", "--budget", "400",
                     "--window", "1500", "--epoch", "750", "--rate", "0.5"])
        assert code == 0
        assert "resident/visitor" in capsys.readouterr().out

    def test_online_rejects_bad_parameters(self, capsys):
        bad = ["online", "--length", "1000", "--budget", "100", "--window", "500", "--epoch", "250"]
        assert main([*bad, "--unit", "200"]) == 2
        assert "unit" in capsys.readouterr().err
        assert main([*bad, "--rate", "2.0"]) == 2
        assert "rate" in capsys.readouterr().err
        # the replay runs in one process: online takes no --workers or --engine
        for flag, value in (("--workers", "2"), ("--engine", "batch")):
            with pytest.raises(SystemExit) as exit_info:
                main([*bad, flag, value])
            assert exit_info.value.code == 2
            assert flag in capsys.readouterr().err

    def test_online_resume_of_an_unreadable_store_is_an_error(self, tmp_path, capsys):
        argv = [*self.ARGS, "--checkpoint", str(tmp_path)]
        assert main(argv) == 0
        _set_manifest_schema(tmp_path, 1)
        capsys.readouterr()
        assert main([*argv, "--resume"]) == 2
        assert capsys.readouterr().err.startswith("error: checkpoint schema mismatch")


class TestMainModuleEntryPoint:
    def test_python_dash_m_repro_runs(self, capsys, monkeypatch):
        """``python -m repro`` (the console-script path) executes __main__.py."""
        import runpy
        import sys

        monkeypatch.setattr(sys, "argv", ["repro", "chain", "4"])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_module("repro", run_name="__main__")
        assert excinfo.value.code == 0
        assert "ChainFind result" in capsys.readouterr().out


class TestChain:
    def test_chain_default_labeling(self, capsys):
        assert main(["chain", "5"]) == 0
        out = capsys.readouterr().out
        assert "ChainFind result" in out
        assert "True" in out  # reaches the sawtooth

    def test_chain_show_chain_weak_moves(self, capsys):
        assert main(["chain", "4", "--moves", "weak", "--show-chain", "--labeling", "transposition"]) == 0
        out = capsys.readouterr().out
        assert "Chain" in out
        assert "(4, 3, 2, 1)" in out  # the sawtooth in 1-indexed notation

    @pytest.mark.parametrize("labeling", ["miss-ratio", "ranked", "timescale", "data-movement"])
    def test_chain_all_labelings(self, labeling, capsys):
        assert main(["chain", "5", "--labeling", labeling]) == 0
        assert "chain_length" in capsys.readouterr().out


class TestProfile:
    @pytest.fixture(scope="class")
    def zipf_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("profile") / "zipf.trace"
        code = main(
            [
                "generate", "zipf", "--length", "20000", "--items", "1024",
                "--exponent", "0.8", "--seed", "7", "-o", str(path),
            ]
        )
        assert code == 0
        return path

    @pytest.mark.parametrize("mode", ["exact", "shards", "reuse"])
    def test_profile_all_modes(self, zipf_file, mode, capsys):
        assert main(["profile", str(zipf_file), "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert f"profile --mode {mode}" in out
        assert "seconds" in out

    def test_profile_writes_csv(self, zipf_file, tmp_path, capsys):
        csv_path = tmp_path / "approx.csv"
        code = main(
            ["profile", str(zipf_file), "--mode", "shards", "--rate", "0.1", "--max-size", "64", "--csv", str(csv_path)]
        )
        assert code == 0
        content = csv_path.read_text().splitlines()
        assert content[0] == "cache_size,miss_ratio"
        assert len(content) == 65
        ratios = [float(line.split(",")[1]) for line in content[1:]]
        assert all(0.0 <= r <= 1.0 for r in ratios)
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_profile_compare_exact_reports_error(self, zipf_file, capsys):
        code = main(["profile", str(zipf_file), "--mode", "shards", "--rate", "0.1", "--compare-exact"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mae" in out and "speedup" in out

    def test_profile_reuse_workers_shards_one_trace(self, zipf_file, capsys):
        assert main(["profile", str(zipf_file), "--mode", "reuse", "--workers", "2"]) == 0
        assert "reuse" in capsys.readouterr().out

    def test_profile_batch_of_traces(self, zipf_file, tmp_path, capsys):
        other = tmp_path / "saw.trace"
        assert main(["generate", "sawtooth", "--items", "32", "-o", str(other)]) == 0
        code = main(["profile", str(zipf_file), str(other), "--mode", "exact", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "zipf" in out and "saw" in out

    def test_profile_csv_rejects_multiple_traces(self, zipf_file, tmp_path, capsys):
        other = tmp_path / "saw2.trace"
        assert main(["generate", "sawtooth", "--items", "16", "-o", str(other)]) == 0
        code = main(["profile", str(zipf_file), str(other), "--csv", str(tmp_path / "x.csv")])
        assert code == 2


class TestEndToEndWorkflow:
    def test_generate_analyze_mrc_profile_flow(self, tmp_path, capsys):
        """The full CLI pipeline on one temp dir: every stage exits 0 and the
        exact and approximate CSV curves agree at every cache size."""
        trace_path = tmp_path / "workload.trace"
        exact_csv = tmp_path / "exact.csv"
        approx_csv = tmp_path / "approx.csv"

        assert main(
            ["generate", "zipf", "--length", "10000", "--items", "512", "--seed", "3", "-o", str(trace_path)]
        ) == 0
        assert trace_path.exists()

        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Trace statistics" in out and "locality score" in out

        assert main(["mrc", str(trace_path), "--max-size", "128", "--csv", str(exact_csv)]) == 0
        assert main(
            ["profile", str(trace_path), "--mode", "shards", "--rate", "0.5",
             "--max-size", "128", "--csv", str(approx_csv)]
        ) == 0

        exact_lines = exact_csv.read_text().splitlines()
        approx_lines = approx_csv.read_text().splitlines()
        assert exact_lines[0] == approx_lines[0] == "cache_size,miss_ratio"
        assert len(exact_lines) == len(approx_lines) == 129
        for exact_line, approx_line in zip(exact_lines[1:], approx_lines[1:]):
            exact_size, exact_ratio = exact_line.split(",")
            approx_size, approx_ratio = approx_line.split(",")
            assert exact_size == approx_size
            assert abs(float(exact_ratio) - float(approx_ratio)) < 0.25


class TestExperiment:
    @pytest.mark.parametrize("name", ["fig2", "sawtooth-cyclic", "matrix-reuse", "miss-integral"])
    def test_experiment_subcommands_run(self, name, capsys):
        assert main(["experiment", name]) == 0
        out = capsys.readouterr().out
        assert f"experiment: {name}" in out

    def test_experiment_fig1_prints_curve_table(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "ell=0" in out and "ell=10" in out

    def test_experiment_online_adaptation(self, capsys):
        assert main(["experiment", "online-adaptation"]) == 0
        out = capsys.readouterr().out
        assert "experiment: online-adaptation" in out
        assert "adaptive" in out and "oracle" in out
