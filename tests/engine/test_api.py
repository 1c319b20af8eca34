"""Tests of the :mod:`repro.api` facade and the common job/result protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.engine import ExperimentJob, ExperimentResult

TRACE = np.array([1, 2, 1, 3, 2, 1, 4, 1, 2, 3] * 20)


def _tenants():
    from repro.trace.tenancy import TenantSpec
    from repro.trace.trace import PeriodicTrace

    return (
        TenantSpec(PeriodicTrace.sawtooth(24).to_trace(), name="saw"),
        TenantSpec(PeriodicTrace.cyclic(16).to_trace(), name="cyc"),
    )


class TestProtocols:
    def test_jobs_conform(self):
        from repro.alloc.partition import PartitionJob
        from repro.online.replay import OnlineJob
        from repro.profiling.engine import ProfileJob
        from repro.sim.sweep import SweepJob

        jobs = [
            ProfileJob(trace=TRACE, mode="exact"),
            SweepJob(trace=TRACE, capacities=(2, 4)),
            PartitionJob(tenants=_tenants(), budget=16),
            OnlineJob(budget=16, window=64, epoch=32),
        ]
        for job in jobs:
            assert isinstance(job, ExperimentJob)

    def test_results_conform(self):
        result = api.sweep(TRACE, capacities=(2, 4))
        assert isinstance(result, ExperimentResult)
        profile = api.profile(TRACE, mode="exact")
        assert isinstance(profile, ExperimentResult)
        assert profile.rows()[0] == {"cache_size": 1, "miss_ratio": profile.curve.ratios.tolist()[0]}
        assert profile.summary()["mode"] == "exact"


class TestRunDispatch:
    def test_unknown_job_type(self):
        with pytest.raises(TypeError, match="unknown experiment job"):
            api.run(object())

    def test_online_requires_workload(self):
        from repro.online.replay import OnlineJob

        with pytest.raises(ValueError, match="workload"):
            api.run(OnlineJob(budget=16, window=64, epoch=32))

    def test_online_rejects_pool_knobs(self):
        from repro.online.replay import OnlineJob
        from repro.resilience import RetryPolicy
        from repro.trace.drift import three_phase_pair

        job, workload = OnlineJob(budget=16, window=64, epoch=32), three_phase_pair(100, seed=1)
        for knobs in ({"workers": 2}, {"policy": RetryPolicy()}):
            with pytest.raises(ValueError, match="do not apply to online jobs"):
                api.run(job, workload=workload, **knobs)

    def test_workload_rejected_for_offline_jobs(self):
        from repro.sim.sweep import SweepJob

        with pytest.raises(ValueError, match="only applies to online jobs"):
            api.run(SweepJob(trace=TRACE, capacities=(2,)), workload="three-phase")

    def test_run_profile_job(self):
        from repro.profiling.engine import ProfileJob

        result = api.run(ProfileJob(trace=TRACE, mode="exact"))
        assert result.accesses == TRACE.size


class TestProfileFacade:
    def test_single_input_single_result(self):
        result = api.profile(TRACE, mode="exact")
        assert result.accesses == TRACE.size

    def test_batch_input_list_result(self):
        results = api.profile([TRACE, TRACE], mode="exact", workers=2)
        assert len(results) == 2
        assert results[0].curve == results[1].curve

    def test_path_input(self, tmp_path):
        from repro.trace.io import write_text
        from repro.trace.trace import Trace

        path = write_text(Trace(TRACE, name="t"), tmp_path / "t.trace")
        result = api.profile(path, mode="exact")
        assert result.name == "t"
        assert result.accesses == TRACE.size

    def test_csv_requires_single_trace(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one trace"):
            api.profile([TRACE, TRACE], mode="exact", csv_path=tmp_path / "x.csv")


class TestOnlineFacade:
    def test_rejects_unknown_preset(self):
        with pytest.raises(ValueError, match="workload must be one of"):
            api.online("no-such-preset", 16, 64, 32)

    def test_unknown_knob_is_the_jobs_type_error_before_any_work(self, monkeypatch):
        import repro.trace.drift

        def no_work(*args, **kwargs):
            raise AssertionError("the workload was built before the knobs were checked")

        monkeypatch.setattr(repro.trace.drift, "three_phase_pair", no_work)
        with pytest.raises(TypeError, match=r"OnlineJob.__init__\(\) got an unexpected keyword argument 'bogus'"):
            api.online("three-phase", 16, 64, 32, bogus=1)

    def test_accepts_prebuilt_workload(self):
        from repro.trace.drift import three_phase_pair

        workload = three_phase_pair(200, seed=7)
        via_preset = api.online("three-phase", 64, 200, 100, length=200, seed=7)
        via_workload = api.online(workload, 64, 200, 100, name="three-phase")
        assert via_preset.rows() == via_workload.rows()
        assert via_preset.summary() == via_workload.summary()


class TestExports:
    def test_csv_matches_cli_bytes(self, tmp_path, monkeypatch):
        # The facade's CSV export and the CLI subcommand must produce
        # byte-identical files (the CLI is a thin wrapper over the facade).
        from repro.cli import main
        from repro.trace.io import write_text
        from repro.trace.trace import Trace

        trace_file = write_text(Trace(TRACE, name="t"), tmp_path / "t.trace")
        cli_csv, api_csv = tmp_path / "cli.csv", tmp_path / "api.csv"
        assert main(["sweep", str(trace_file), "--policies", "lru", "--capacities", "2,4", "--csv", str(cli_csv)]) == 0
        api.sweep(path=trace_file, name="t", policies=("lru",), capacities=(2, 4), csv_path=api_csv)
        assert api_csv.read_bytes() == cli_csv.read_bytes()

        cli_csv, api_csv = tmp_path / "cli_online.csv", tmp_path / "api_online.csv"
        argv = ["online", "--length", "200", "--budget", "64", "--window", "200", "--epoch", "100"]
        assert main([*argv, "--horizon-epochs", "2", "--csv", str(cli_csv)]) == 0
        api.online("three-phase", 64, 200, 100, length=200, horizon_epochs=2, csv_path=api_csv)
        assert api_csv.read_bytes() == cli_csv.read_bytes()

    def test_online_csv_has_total_row(self, tmp_path):
        csv_path = tmp_path / "online.csv"
        result = api.online("three-phase", 64, 200, 100, length=200, csv_path=csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == len(result.rows()) + 2  # header + rows + TOTAL
        assert lines[-1].startswith("TOTAL") or "TOTAL" in lines[-1]

    def test_partition_csv_has_total_row(self, tmp_path):
        csv_path = tmp_path / "partition.csv"
        result = api.partition(_tenants(), 16, csv_path=csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == len(result.rows()) + 2
        assert "TOTAL" in lines[-1]

    def test_metrics_path_writes_jsonl(self, tmp_path):
        import json

        metrics_path = tmp_path / "run.jsonl"
        api.sweep(TRACE, capacities=(2, 4), metrics_path=metrics_path)
        records = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        assert any(r.get("type") == "manifest" and r.get("command") == "sweep" for r in records)
        assert any(r.get("type") == "counter" for r in records)

    def test_metrics_recording_never_changes_results(self, tmp_path):
        plain = api.sweep(TRACE, capacities=(2, 4))
        recorded = api.sweep(TRACE, capacities=(2, 4), metrics_path=tmp_path / "m.jsonl")
        assert plain.rows() == recorded.rows()
