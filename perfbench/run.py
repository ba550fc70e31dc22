"""The benchmark: run one workload (or all) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload bus-ddcr --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each measurement runs in a fresh single-threaded process
(``perfbench/worker.py``), so set-up time and peak memory are never
cumulative.  ``--trace 0`` reports the end-to-end metrics: the median
set-up time of several fresh processes, then one process's timed phase.
``--trace 1`` runs the workload once untraced and once with every layer
call recorded as a span, and reports the per-layer metrics derived from
the spans plus the tracing overhead.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits 1 when a correctness check fails and 2 when the program is
missing.  Journals and exports go to a scratch directory inside the
checkout (``.perfbench-tmp/``), removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import spec
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SCRATCH = ROOT / ".perfbench-tmp"

#: Fresh processes whose set-up time is measured in a ``--trace 0`` run
#: (the measured process adds one more sample); ``setup_s`` is the median.
SETUP_PROBES = 2

#: Every child process must finish inside this budget (seconds), so the
#: whole run ends well within three minutes.
BUDGET_S = 170.0

THREAD_LIMITS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """A worker failed: no result may be printed."""


class _Runner:
    """Starts workers against one scratch directory and one deadline."""

    def __init__(self, args: argparse.Namespace, tmp: pathlib.Path) -> None:
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        # One thread per workload: numpy's BLAS would otherwise start a
        # pool sized to the host's cores.
        for name in THREAD_LIMITS:
            self.env[name] = "1"

    def worker(self, workload: str, *extra: str) -> dict:
        command = [
            sys.executable, str(WORKER),
            "--workload", workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--size", self.args.size,
            "--tmp", str(self.tmp),
            *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted before a worker started")
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=self.env, capture_output=True,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} worker exceeded the time budget")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise BenchError(
                f"{workload} worker exited with {done.returncode}"
            )
        return json.loads(done.stdout.strip().splitlines()[-1])


def _problems(name: str, result: dict, warm_prints: list[str]) -> list[str]:
    """Correctness of one measured process plus cross-process identity."""
    problems = workloads.CHECKS[name](result["summary"])
    prints = set(result["fingerprints"]) | set(warm_prints)
    if len(prints) != 1:
        problems.append(
            f"outputs differ between iterations or processes of one seed "
            f"({len(prints)} distinct fingerprints)"
        )
    return problems


def end_to_end(
    runner: _Runner, name: str
) -> tuple[dict, list[str], list[str]]:
    setups = [
        runner.worker(name, "--setup-only") for _ in range(SETUP_PROBES)
    ]
    result = runner.worker(name)
    setup_samples = [p["setup_s"] for p in setups] + [result["setup_s"]]
    problems = _problems(
        name, result, [p["warm_fingerprint"] for p in setups + [result]]
    )
    summary = result["summary"]
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": result["ops_per_s"],
        "op_p50_us": result["op_p50_us"],
        "op_p99_us": result["op_p99_us"],
        "budget_max": summary["budget_max"],
        "ok_share": 1.0 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    info = [
        f"setup samples (s): "
        + ", ".join(f"{s:.3f}" for s in setup_samples)
        + "; raw CPU: "
        + ", ".join(f"{p['setup_cpu_s']:.3f}" for p in setups + [result]),
        f"timed phase: {result['cpu_s']:.2f} CPU s of iterations in "
        f"{result['wall_s']:.2f} wall s, "
        f"{result['iterations']} iteration(s), {result['ops']} ops, "
        f"{result['cpu_ops_per_s']:.1f} ops per raw CPU s; "
        f"op latency samples {result['latency_samples']}, "
        f"{result['p99_beyond']} beyond p99",
        f"engine: {result['engine']}; fallback notes: "
        f"{result['fallback_notes'] or 'none'} "
        f"({result['fallback_runs']}/{result['channel_runs']} channel runs)",
        f"host.calib_s: {result['calib_s']:.4f} "
        f"(reference {spec.REF_CALIB_S})",
        "summary: " + json.dumps(
            {k: v for k, v in summary.items() if k != "journeys"}
        ),
    ]
    return _payload(values, result, problems, spec.END_TO_END), info, problems


def per_layer(
    runner: _Runner, name: str
) -> tuple[dict, list[str], list[str]]:
    plain = runner.worker(name)
    span_file = runner.tmp / f"{name}.spans"
    traced = runner.worker(name, "--spans", str(span_file))
    problems = _problems(
        name, plain, [plain["warm_fingerprint"], traced["warm_fingerprint"]]
    )
    problems += _problems(name, traced, plain["fingerprints"])
    recorded = spans.read(span_file)
    values = layer_values(recorded, traced)
    values["host.calib_s"] = plain["calib_s"]
    values["host.cpu_share"] = plain["timed_s"] / plain["wall_s"]
    values["trace.overhead"] = traced["ops_per_s"] / plain["ops_per_s"]
    info = [
        f"spans: {len(recorded['start'])} over {traced['iterations']} "
        f"iteration(s); untraced {plain['ops_per_s']:.1f} ops/s, "
        f"traced {traced['ops_per_s']:.1f} ops/s",
        f"engine: {traced['engine']}; fallback notes: "
        f"{traced['fallback_notes'] or 'none'}",
    ]
    return _payload(values, traced, problems, spec.PER_LAYER), info, problems


def layer_values(recorded: dict, traced: dict) -> dict[str, float]:
    """Per-iteration layer metrics from the spans of a traced run."""
    per = traced["iterations"]
    sums = spans.totals(recorded)

    def calls(*names: str) -> float:
        return sum(sums.get(n, (0, 0.0))[0] for n in names) / per

    def seconds(*names: str) -> float:
        return sum(sums.get(n, (0, 0.0))[1] for n in names) / per

    summary = traced["summary"]
    simulated = "rounds" in summary
    rounds = summary.get("rounds", 0)
    decisions = summary.get("decisions", 0)
    channel_s = seconds("BroadcastChannel.run")
    mutations = tuple(
        f"FeasibilityEngine.{m}"
        for m in ("add_class", "remove_class", "rescale_class",
                  "rescale_density")
    )
    return {
        "model.load_arrivals_s": seconds("Station.load_arrivals"),
        "model.arrivals": traced["counters"]["arrivals"] / per,
        "net.channel_run_s": channel_s,
        "net.us_per_round": channel_s / rounds * 1e6 if rounds else 0.0,
        "net.rounds": rounds,
        "net.rounds_per_msg": (
            summary["non_success_rounds"] / summary["delivered"]
            if simulated else 0.0
        ),
        "net.channel_runs": calls("BroadcastChannel.run"),
        "net.fallback_runs": traced["fallback_runs"] / per,
        "protocols.mac_calls": calls(
            "DDCRProtocol.offer", "DDCRProtocol.observe"
        ),
        "protocols.mac_s": seconds(
            "DDCRProtocol.offer", "DDCRProtocol.observe"
        ),
        "sim.monitor_calls": calls(
            "MonitorSuite.on_slot", "MonitorSuite.finalize"
        ),
        "sim.monitor_s": seconds(
            "MonitorSuite.on_slot", "MonitorSuite.finalize"
        ),
        "faults.begin_round_s": seconds("FaultInjector.begin_round"),
        "fabric.handoff_s": seconds("Fabric.run"),
        "fabric.segment_runs": (
            spans.nested_calls(recorded, "NetworkSimulation.run", "Fabric.run")
            / per
        ),
        "core.report_calls": calls("FeasibilityEngine.report"),
        "core.reports_per_decision": (
            calls("FeasibilityEngine.report") / decisions if decisions
            else 0.0
        ),
        "core.report_s": seconds("FeasibilityEngine.report"),
        "core.mutate_s": seconds(*mutations),
        "core.oracle_s": seconds("check_feasibility"),
        "serve.handle_self_s": seconds("AdmissionService.handle"),
        "serve.reject_share": (
            summary["rejects"] / decisions if decisions else 0.0
        ),
        "serve.evictions": summary.get("evictions", 0),
        "obs.export_tick_s": seconds("StreamExporter.tick"),
        "obs.slo_tick_s": seconds("SloEngine.tick"),
    }


def _payload(values, result, problems, metrics) -> dict:
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, *_ in metrics
        },
    }


def run_one(runner: _Runner, name: str, trace: int) -> tuple[dict, list[str]]:
    runner.deadline = time.monotonic() + BUDGET_S
    measure = per_layer if trace else end_to_end
    payload, info, problems = measure(runner, name)
    lines = [f"== {name} seed={runner.args.seed} trace={trace}"]
    lines += [f"  {line}" for line in info]
    for metric, entry in payload["metrics"].items():
        lines.append(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    lines += [f"  CHECK FAILED: {p}" for p in problems]
    return payload, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark's workloads and print their metrics."
    )
    parser.add_argument("--workload", required=True,
                        choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full",
                        help="smoke shrinks every input (tests only)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(spec.WORKLOADS) if args.workload == "all" else [
        args.workload
    ]
    SCRATCH.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        runner = _Runner(args, tmp)
        # Byte-compile once, outside every timed region, so no process
        # pays (or skips) compilation inside its set-up time.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
            check=True, stdout=subprocess.DEVNULL,
            timeout=runner.deadline - time.monotonic(),
        )
        payloads = {}
        for name in names:
            payload, lines = run_one(runner, name, args.trace)
            print("\n".join(lines), flush=True)
            payloads[name] = payload
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    if len(names) == 1:
        final = payloads[names[0]]
    else:
        final = {
            "correct": all(p["correct"] for p in payloads.values()),
            "attempted": sum(p["attempted"] for p in payloads.values()),
            "failed": sum(p["failed"] for p in payloads.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, payload in payloads.items()
                for metric, entry in payload["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
