"""Tests for the feasibility-check CLI."""

from __future__ import annotations

import pytest

from repro.model.serialize import dump_problem
from repro.model.workloads import uniform_problem
from repro.tools.check import main


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    dump_problem(uniform_problem(z=4), str(path))
    return str(path)


@pytest.fixture
def infeasible_path(tmp_path):
    path = tmp_path / "bad.json"
    dump_problem(
        uniform_problem(
            z=8, length=500_000, deadline=1_000_000, a=4, w=1_000_000
        ),
        str(path),
    )
    return str(path)


class TestCheckCLI:
    def test_feasible_exit_zero(self, instance_path, capsys):
        assert main([instance_path]) == 0
        out = capsys.readouterr().out
        assert "FEASIBLE" in out
        assert "uniform-0" in out

    def test_infeasible_exit_two(self, infeasible_path, capsys):
        assert main([infeasible_path]) == 2
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_missing_file_exit_one(self, capsys):
        assert main(["/nonexistent/instance.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_medium_selection(self, instance_path, capsys):
        assert main([instance_path, "--medium", "classic-ethernet"]) in (0, 2)
        assert "classic-ethernet" in capsys.readouterr().out

    def test_tree_overrides(self, instance_path, capsys):
        assert main([instance_path, "--time-f", "256", "--time-m", "4"]) == 0
        assert "F=256" in capsys.readouterr().out

    def test_simulation_spot_check(self, instance_path, capsys):
        assert main([instance_path, "--simulate", "10"]) == 0
        out = capsys.readouterr().out
        assert "misses=0" in out

    def test_no_instance_without_ci_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestCIFastPath:
    """--ci resolves the suite through the runtime cache (stubbed here:
    executing every experiment for real is the benchmark suite's job)."""

    @pytest.fixture
    def warm_cache(self, tmp_path):
        from repro.experiments.base import ExperimentResult
        from repro.experiments.registry import EXPERIMENTS
        from repro.runtime import ResultCache, RunSpec

        cache = ResultCache(tmp_path / "ci-cache")
        for experiment_id in EXPERIMENTS:
            cache.put(
                RunSpec.make(experiment_id),
                ExperimentResult(
                    experiment_id=experiment_id,
                    title="stub",
                    headers=["x"],
                    rows=[[0]],
                    checks={"ok": True},
                ),
            )
        return cache

    def test_ci_ok_on_warm_cache(self, warm_cache, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        assert (
            main(
                [
                    "--ci",
                    "--cache-dir", str(warm_cache.directory),
                    "--history", str(history),
                ]
            )
            == 0
        )
        from repro.experiments.registry import EXPERIMENTS

        out = capsys.readouterr().out
        assert "all repro modules import cleanly" in out
        assert f"0 executed, {len(EXPERIMENTS)} from cache" in out
        assert "obs-smoke: telemetry round-trip ok" in out
        assert "perf-trend: not enough history" in out
        assert "sweep-smoke:" in out
        assert "serve-smoke:" in out
        assert "obs2-smoke: traced serve session ok" in out
        assert "0 resubmissions" in out
        assert "verdict: OK" in out
        assert history.exists()  # the run was recorded for next time

    def test_no_obs2_skips_the_smoke(self, warm_cache, capsys):
        assert (
            main(
                [
                    "--ci",
                    "--cache-dir", str(warm_cache.directory),
                    "--no-perf",
                    "--no-invariants",
                    "--no-obs",
                    "--no-sweep",
                    "--no-feas",
                    "--no-serve",
                    "--no-obs2",
                ]
            )
            == 0
        )
        assert "obs2-smoke" not in capsys.readouterr().out

    def test_ci_runs_invariants_smoke(self, warm_cache, capsys):
        assert (
            main(
                [
                    "--ci",
                    "--cache-dir",
                    str(warm_cache.directory),
                    "--no-perf",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "invariants-smoke: ddcr+burst-noise+crash" in out
        assert "invariants-smoke: csma-cd+burst-noise" in out
        assert "invariants-smoke: dcr+clock-drift" in out
        assert "invariants-smoke: tdma+crash" in out
        assert "invariants ok" in out

    def test_no_invariants_skips_the_smoke(self, warm_cache, capsys):
        assert (
            main(
                [
                    "--ci",
                    "--cache-dir",
                    str(warm_cache.directory),
                    "--no-perf",
                    "--no-invariants",
                ]
            )
            == 0
        )
        assert "invariants-smoke" not in capsys.readouterr().out

    def test_no_obs_skips_the_smoke(self, warm_cache, capsys):
        assert (
            main(
                [
                    "--ci",
                    "--cache-dir", str(warm_cache.directory),
                    "--no-perf",
                    "--no-invariants",
                    "--no-obs",
                ]
            )
            == 0
        )
        assert "obs-smoke" not in capsys.readouterr().out

    def test_no_sweep_skips_the_smoke(self, warm_cache, capsys):
        assert (
            main(
                [
                    "--ci",
                    "--cache-dir", str(warm_cache.directory),
                    "--no-perf",
                    "--no-invariants",
                    "--no-obs",
                    "--no-sweep",
                ]
            )
            == 0
        )
        assert "sweep-smoke" not in capsys.readouterr().out

    def test_ci_runs_feas_smoke(self, warm_cache, capsys):
        assert (
            main(
                [
                    "--ci",
                    "--cache-dir", str(warm_cache.directory),
                    "--no-perf",
                    "--no-invariants",
                    "--no-obs",
                    "--no-sweep",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "feas-smoke: scalar, vectorized (2 backends)" in out

    def test_no_feas_skips_the_smoke(self, warm_cache, capsys):
        assert (
            main(
                [
                    "--ci",
                    "--cache-dir", str(warm_cache.directory),
                    "--no-perf",
                    "--no-invariants",
                    "--no-obs",
                    "--no-sweep",
                    "--no-feas",
                ]
            )
            == 0
        )
        assert "feas-smoke" not in capsys.readouterr().out

    def test_feas_smoke_agrees_across_paths(self, capsys):
        from repro.tools.check import _run_feas_smoke

        assert _run_feas_smoke() == []
        out = capsys.readouterr().out
        assert "incremental paths agree" in out

    def test_no_cache_skips_the_sweep_smoke(self, capsys, monkeypatch):
        # The sweep smoke resumes against the result cache; without one
        # it reports the skip instead of failing.  Empty the suite so the
        # uncached run costs nothing.
        import repro.experiments.registry as registry

        monkeypatch.setattr(registry, "EXPERIMENTS", {})
        assert (
            main(
                [
                    "--ci",
                    "--no-cache",
                    "--no-perf",
                    "--no-invariants",
                    "--no-obs",
                ]
            )
            == 0
        )
        assert "sweep-smoke: skipped" in capsys.readouterr().out

    def test_obs_smoke_round_trips_on_warm_cache(self, warm_cache, capsys):
        from repro.tools.check import _run_obs_smoke

        assert _run_obs_smoke(str(warm_cache.directory)) == []
        out = capsys.readouterr().out
        assert "obs-smoke: telemetry round-trip ok" in out
        assert "source=cache" in out

    def test_ci_failing_experiment_exits_two(self, warm_cache, capsys):
        from repro.experiments.base import ExperimentResult
        from repro.runtime import RunSpec

        warm_cache.put(
            RunSpec.make("FIG1"),
            ExperimentResult(
                experiment_id="FIG1",
                title="stub",
                headers=["x"],
                rows=[[0]],
                checks={"ok": False},
            ),
        )
        assert (
            main(
                [
                    "--ci",
                    "--cache-dir", str(warm_cache.directory),
                    "--no-perf",
                    "--no-obs",
                ]
            )
            == 2
        )
        captured = capsys.readouterr()
        assert "FAILED checks: FIG1" in captured.err


class TestPerfTrendGate:
    """The gate medians the bench history; driven directly (running the
    full perf smoke per case would dominate the suite's runtime)."""

    #: The host calibration figure every case runs at unless it says
    #: otherwise: a measured one would make the cases timing-dependent.
    CALIB_S = 0.02

    @pytest.fixture(autouse=True)
    def _steady_host(self, monkeypatch):
        self._set_host(monkeypatch, self.CALIB_S)

    @staticmethod
    def _set_host(monkeypatch, calib_s: float):
        import repro.tools.bench as bench

        monkeypatch.setattr(bench, "calibrate", lambda: calib_s)

    @staticmethod
    def _result(ops: float):
        from repro.tools.bench import BenchResult

        return BenchResult(
            name="channel_slot_rate_16_des",
            engine="des",
            unit="rounds",
            ops=1000.0,
            seconds=1000.0 / ops,
            ops_per_sec=ops,
            repeats=1,
            median_seconds=1000.0 / ops,
            median_ops_per_sec=ops,
        )

    @staticmethod
    def _seed_history(path, ops: float, entries: int = 3):
        from repro.tools.bench import append_history, history_entry

        for _ in range(entries):
            append_history(
                path,
                history_entry([TestPerfTrendGate._result(ops)], smoke=True),
            )

    def test_steady_throughput_passes(self, tmp_path, capsys):
        from repro.tools.check import _run_perf_trend

        history = tmp_path / "hist.jsonl"
        self._seed_history(history, ops=10_000)
        failures = _run_perf_trend(
            [self._result(9_500)], history, window=5, threshold=30.0
        )
        assert failures == []
        assert "perf-trend: ok" in capsys.readouterr().out

    def test_regression_fails_the_gate(self, tmp_path, capsys):
        from repro.tools.check import _run_perf_trend

        history = tmp_path / "hist.jsonl"
        self._seed_history(history, ops=10_000)
        failures = _run_perf_trend(
            [self._result(5_000)], history, window=5, threshold=30.0
        )
        assert len(failures) == 1
        assert "below the history median" in failures[0]
        assert "perf-trend: FAILED" in capsys.readouterr().out

    def test_insufficient_history_skips_but_records(self, tmp_path, capsys):
        from repro.tools.bench import load_history
        from repro.tools.check import _run_perf_trend

        history = tmp_path / "hist.jsonl"
        failures = _run_perf_trend(
            [self._result(10_000)], history, window=5, threshold=30.0
        )
        assert failures == []
        assert "not enough history" in capsys.readouterr().out
        assert len(load_history(history)) == 1

    def test_run_is_recorded_after_comparison(self, tmp_path):
        """A regressed run must not median itself into the baseline."""
        from repro.tools.bench import load_history
        from repro.tools.check import _run_perf_trend

        history = tmp_path / "hist.jsonl"
        self._seed_history(history, ops=10_000)
        _run_perf_trend(
            [self._result(5_000)], history, window=5, threshold=30.0
        )
        entries = load_history(history)
        assert len(entries) == 4  # the bad run is recorded...
        # ...but the comparison above used only the three seeded entries
        bench = entries[-1]["benches"]["channel_slot_rate_16_des"]
        assert bench["ops_per_sec"] == 5_000

    def test_window_limits_the_baseline(self, tmp_path):
        """Only the last N entries vote: old fast entries age out."""
        from repro.tools.check import _run_perf_trend

        history = tmp_path / "hist.jsonl"
        self._seed_history(history, ops=50_000, entries=2)  # ancient, fast
        self._seed_history(history, ops=10_000, entries=3)  # recent
        failures = _run_perf_trend(
            [self._result(9_000)], history, window=3, threshold=30.0
        )
        assert failures == []

    def test_bench_without_history_is_skipped(self, tmp_path, capsys):
        """A bench new to the history — or moved to another engine, whose
        old samples no longer compare — is skipped, not failed."""
        import dataclasses

        from repro.tools.check import _run_perf_trend

        history = tmp_path / "hist.jsonl"
        self._seed_history(history, ops=10_000)
        moved = dataclasses.replace(self._result(1_000), engine="batch")
        fresh = dataclasses.replace(self._result(1_000), name="brand_new")
        failures = _run_perf_trend(
            [moved, fresh, self._result(9_500)], history, window=5,
            threshold=30.0,
        )
        assert failures == []
        out = capsys.readouterr().out
        assert "no history yet for 2 bench(es), skipped" in out
        assert "brand_new" in out
        assert "perf-trend: ok (1 bench(es) vs median of 3 run(s))" in out

    def test_non_smoke_entries_are_ignored(self, tmp_path, capsys):
        import json

        from repro.tools.check import _run_perf_trend

        history = tmp_path / "hist.jsonl"
        with open(history, "w") as handle:
            entry = {
                "smoke": False,
                "benches": {
                    "channel_slot_rate_16_des": {
                        "ops_per_sec": 99_999, "engine": "des",
                    }
                },
            }
            for _ in range(3):
                handle.write(json.dumps(entry) + "\n")
        failures = _run_perf_trend(
            [self._result(1_000)], history, window=5, threshold=30.0
        )
        assert failures == []
        assert "not enough history" in capsys.readouterr().out

    def test_uniformly_slower_host_passes(self, tmp_path, monkeypatch, capsys):
        """Every sample taken on a host half as fast: raw throughput halves
        and so does the calibrated host figure, so it is no regression."""
        from repro.tools.check import _run_perf_trend

        history = tmp_path / "hist.jsonl"
        self._seed_history(history, ops=10_000)
        self._set_host(monkeypatch, 2 * self.CALIB_S)
        failures = _run_perf_trend(
            [self._result(5_000)], history, window=5, threshold=30.0
        )
        assert failures == []
        assert "perf-trend: ok" in capsys.readouterr().out

    def test_real_drop_on_a_steady_host_fails(self, tmp_path, capsys):
        """Half the throughput at the same calibration is a regression."""
        from repro.tools.check import _run_perf_trend

        history = tmp_path / "hist.jsonl"
        self._seed_history(history, ops=10_000)
        failures = _run_perf_trend(
            [self._result(5_000)], history, window=5, threshold=30.0
        )
        assert len(failures) == 1
        assert "host-calibrated" in failures[0]
        assert "perf-trend: FAILED" in capsys.readouterr().out

    def test_uncalibrated_history_falls_back_to_raw(
        self, tmp_path, monkeypatch
    ):
        """History written before calibration was recorded carries no
        host figure: the gate compares raw medians, as it always did."""
        import json

        from repro.tools.check import _run_perf_trend

        history = tmp_path / "hist.jsonl"
        with open(history, "w") as handle:
            for _ in range(3):
                entry = self._entry(10_000)
                del entry["calib_s"]
                handle.write(json.dumps(entry) + "\n")
        self._set_host(monkeypatch, 2 * self.CALIB_S)
        failures = _run_perf_trend(
            [self._result(5_000)], history, window=5, threshold=30.0
        )
        assert len(failures) == 1
        assert "(raw," in failures[0]

    @staticmethod
    def _entry(ops: float) -> dict:
        from repro.tools.bench import history_entry

        return history_entry([TestPerfTrendGate._result(ops)], smoke=True)
