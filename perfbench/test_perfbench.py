"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench``).

* every workload runs end to end at smoke size and reports every metric;
* every correctness check fails on a corrupted output;
* traced spans nest under their op and have non-negative self times;
* simulated outputs repeat exactly under ``REPRO_ENGINE=batch``;
* ``BENCHMARK.json`` mirrors :mod:`spec`;
* without the program the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import run
import spans
import spec
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = str(ROOT / "src")


def _env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_ENGINE", None)
    env.update(extra)
    return env


def _run(*args: str, cwd: pathlib.Path = ROOT, **env: str):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=_env(**env), capture_output=True, text=True,
        timeout=170,
    )


def _worker(tmp_path, name, *args, **env) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name,
         "--seed", "5", "--seconds", "0.3", "--size", "smoke",
         "--tmp", str(tmp_path), *args],
        cwd=ROOT, env=_env(**env), capture_output=True, text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def summaries(tmp_path_factory) -> dict[str, dict]:
    """One warm-up iteration's summary per workload, built in-process."""
    tmp = tmp_path_factory.mktemp("summaries")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_XI_CACHE", "off")
        patch.syspath_prepend(SRC)
        out = {}
        for name in spec.WORKLOADS:
            workload = workloads.build(name, 5, "smoke", tmp)
            workload.iterate()
            out[name] = workload.summary()
    return out


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_smoke_run_reports_every_metric(name):
    done = _run("--workload", name, "--seed", "3", "--seconds", "0.5",
                "--trace", "0", "--size", "smoke")
    assert done.returncode == 0, done.stderr + done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m[0] for m in spec.END_TO_END]
    for (metric, unit, *_), entry in zip(spec.END_TO_END, metrics.values()):
        assert entry["unit"] == unit
        assert entry["value"] > 0, metric


def test_traced_run_reports_every_layer_metric():
    done = _run("--workload", "serve-city", "--seed", "3", "--seconds",
                "0.5", "--trace", "1", "--size", "smoke")
    assert done.returncode == 0, done.stderr + done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [m[0] for m in spec.PER_LAYER]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["core.report_calls"] > 0
    assert values["core.reports_per_decision"] >= 1
    assert values["protocols.mac_calls"] == 0
    assert values["trace.overhead"] > 0


def test_serve_pauses_split_an_iteration_without_changing_it(tmp_path):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_XI_CACHE", "off")
        patch.syspath_prepend(SRC)
        workload = workloads.build("serve-city", 5, "smoke", tmp_path)
        plain = workload.iterate()
        marks: list[int] = []
        paused = workload.iterate(pause=marks.append)
    per = workloads.SERVE_PAUSE_EVERY
    assert len(marks) == workloads.SERVE_TRACES // per
    assert marks == sorted(marks) and marks[-1] == len(paused.latencies)
    assert marks[0] == sum(len(t) for t in workload.traces[:per])
    assert paused.fingerprint == plain.fingerprint


# -- kill tests: a corrupted output must fail its check -----------------------


def _corrupt(summary: dict, **changes) -> dict:
    return {**summary, **changes}


def test_checks_pass_on_real_outputs(summaries):
    for name, summary in summaries.items():
        assert workloads.CHECKS[name](summary) == [], name


@pytest.mark.parametrize("changes", [
    {"fc_feasible": False},
    {"budget_max": 1.01},
    {"failed": 1},
    {"delivered": 0},
])
def test_bus_ddcr_check_kills(summaries, changes):
    corrupted = _corrupt(summaries["bus-ddcr"], **changes)
    assert workloads.check_bus_ddcr(corrupted)


def test_bus_faults_check_kills(summaries):
    corrupted = _corrupt(summaries["bus-faults"], invariants_ok=False)
    assert workloads.check_bus_faults(corrupted)


@pytest.mark.parametrize("changes", [
    {"invariants_ok": False},
    {"routes_feasible": False},
    {"journeys": []},
])
def test_fabric_check_kills(summaries, changes):
    corrupted = _corrupt(summaries["fabric-chain"], **changes)
    assert workloads.check_fabric_chain(corrupted)


def test_fabric_check_kills_a_journey_beyond_its_bound(summaries):
    journeys = [list(pair) for pair in summaries["fabric-chain"]["journeys"]]
    assert journeys
    journeys[-1][0] = journeys[-1][1] + 1
    corrupted = _corrupt(summaries["fabric-chain"], journeys=journeys)
    assert workloads.check_fabric_chain(corrupted)


def test_serve_check_kills_a_divergence(summaries):
    corrupted = _corrupt(
        summaries["serve-city"], divergences=["row 3 differs"]
    )
    assert workloads.check_serve_city(corrupted)


def test_a_differing_digest_fails_the_run(summaries):
    result = {"summary": summaries["serve-city"], "fingerprints": ["a"]}
    assert run._problems("serve-city", result, ["a", "a"]) == []
    assert run._problems("serve-city", result, ["a", "b"])


# -- traced spans ------------------------------------------------------------


@pytest.mark.parametrize("name", ["bus-faults", "fabric-chain", "serve-city"])
def test_spans_nest_under_their_op(tmp_path, name):
    span_file = tmp_path / "spans.bin"
    out = _worker(tmp_path, name, "--spans", str(span_file))
    recorded = spans.read(span_file)
    names = recorded["names"]
    parent, op, name_ids = (
        recorded["parent"], recorded["op"], recorded["name"]
    )
    assert len(parent) > out["iterations"]
    ops_seen = set()
    for index in range(len(parent)):
        root = index
        while parent[root] >= 0:
            assert op[parent[root]] == op[index]
            root = parent[root]
        assert names[name_ids[root]] == spans.OP
        assert op[index] >= 0
        ops_seen.add(op[index])
    assert len(ops_seen) == max(ops_seen) + 1
    own = spans.self_times(recorded)
    assert min(own) >= 0
    durations = [e - s for s, e in zip(recorded["start"], recorded["end"])]
    assert all(0 <= o <= d for o, d in zip(own, durations))


def test_self_time_subtracts_children():
    recorded = {
        "start": [0, 10, 40], "end": [100, 30, 50],
        "parent": [-1, 0, 0], "op": [0, 0, 0], "name": [0, 1, 1],
        "names": [spans.OP, "child"],
    }
    assert list(spans.self_times(recorded)) == [70, 20, 10]
    assert spans.totals(recorded)["child"] == (2, 30e-9)


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize("name", ["bus-ddcr", "fabric-chain"])
def test_simulated_outputs_repeat_under_batch_engine(tmp_path, name):
    default = _worker(tmp_path, name)
    batch = _worker(tmp_path, name, REPRO_ENGINE="batch")
    assert batch["engine"] == "batch"
    assert default["fingerprints"] == batch["fingerprints"]
    assert default["summary"] == batch["summary"]


# -- contract ---------------------------------------------------------------


def test_benchmark_json_mirrors_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(
        spec.WORKLOADS.items()
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    ] == list(spec.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == [entry[:3] for entry in spec.PER_LAYER]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "bus-ddcr", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


# -- the defect that shapes the bus-faults plan ------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "restarting a crashed station while a collision resolution is in "
    "progress can livelock the bus; bus-faults restarts in an idle gap "
    "until this passes"
))
def test_restart_during_resolution_keeps_invariants():
    import random

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_XI_CACHE", "off")
        patch.syspath_prepend(SRC)
        from repro.experiments.harness import ddcr_factory, default_ddcr_config
        from repro.faults.models import FaultPlan, StationCrash
        from repro.model.arrival import GreedyBurstArrivals
        from repro.model.workloads import uniform_problem
        from repro.net.network import NetworkSimulation
        from repro.net.phy import GIGABIT_ETHERNET
        from repro.net.scenario import Scenario

        problem = uniform_problem(z=64, scale=3.0)
        phases = random.Random(1)
        scenario = Scenario(
            problem=problem,
            medium=GIGABIT_ETHERNET,
            protocol_factory=ddcr_factory(
                default_ddcr_config(problem, GIGABIT_ETHERNET)
            ),
            arrivals={
                cls.name: GreedyBurstArrivals(
                    bound=cls.bound, phase=phases.randrange(100_000)
                )
                for cls in problem.all_classes()
            },
            faults=FaultPlan((
                StationCrash(station_id=54, at=2_395_424,
                             restart_at=3_916_000),
            )),
        )
        result = NetworkSimulation.from_scenario(scenario).run(6_000_000)
    assert result.invariants.ok, result.invariants.summary()
    assert len(result.backlog()) == 0
