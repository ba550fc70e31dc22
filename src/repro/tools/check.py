"""CLI: check an HRTDM instance's feasibility conditions.

The operator workflow the paper envisions (section 2.2: "By computing the
FCs, it is possible to tell whether or not any quantified instantiation of
the HRTDM problem is feasible with our solution"):

    python -m repro.tools.check instance.json
    python -m repro.tools.check instance.json --medium classic-ethernet
    python -m repro.tools.check instance.json --time-f 256 --time-m 4
    python -m repro.tools.check instance.json --simulate 40

Exit status 0 when feasible, 2 when not (1 on usage errors), so the tool
composes with CI pipelines that gate configuration changes.

``--ci`` is the repo's fast-path health check instead of an instance::

    python -m repro.tools.check --ci --jobs 4

It imports every module under ``repro`` (catching syntax/import rot),
resolves the full experiment suite through the parallel runtime — cached
results replay from ``.repro-cache`` so a no-change run is near-instant —
then runs an invariants-smoke step (one faulted scenario per protocol
with online invariant monitors, :mod:`repro.sim.invariants`; any
violation fails CI; ``--no-invariants`` skips it — each scenario runs on
the reference DES and is re-run on the ``batch`` engine, whose results
must match exactly; ``--no-batch`` skips the batch re-runs), a feas-smoke
step (the FC frontier grid evaluated scalar vs vectorized vs
engine-incremental and digest-compared, :mod:`repro.core.feas_grid` /
:mod:`repro.core.feas_engine`; ``--no-feas`` skips it), an obs-smoke step
(one run with telemetry collection on, then a ``repro.tools.obs``
``summarize`` + ``diff`` round-trip over the manifest; ``--no-obs``
skips it), a sweep-smoke step (a 4-point campaign cold-run then resumed
on the warm cache, asserting zero resubmissions and a byte-identical
aggregate, :mod:`repro.sweep`; ``--no-sweep`` skips it), a serve-smoke
step (a short admission trace served with counter-checks, replayed
byte-identically, and re-checked with zero executor resubmissions,
:mod:`repro.serve`; ``--no-serve`` skips it), an obs2-smoke step (a
*traced* serve session: flight-recorder dump valid JSONL with connected
causal parents, Prometheus snapshot + JSONL delta stream consumable and
consistent, and a deliberately unmeetable SLO breaching as exactly one
structured ``slo-breach`` incident with a black-box trace attached,
:mod:`repro.obs`; ``--no-obs2`` skips it), a fabric-smoke step (a
3-segment bridged DDCR chain run through :class:`repro.net.fabric.
Fabric`: invariants — including the bridge-conservation monitors —
must stay clean and the composed end-to-end bound must dominate the
observed worst journey latency; ``--no-fabric`` skips it), and finishes
with a perf-smoke step: one quick pass of the micro benchmarks
(:mod:`repro.tools.bench` ``--smoke``), printing throughput so
regressions surface next to correctness (``--no-perf`` skips it).  The
perf step feeds a *perf-trend gate*: the current run is compared
against the median of the last N entries in ``BENCH_history.jsonl``
(``--history`` overrides the file, ``--no-perf-trend`` skips the gate),
and each run is appended to the history afterwards.  Exit 0 when
everything imports, every experiment's checks pass, every invariant
holds, the obs round-trip succeeds, the sweep resume is clean and no
bench fell below the trend threshold; 2 otherwise.  Absolute perf
numbers stay informational — only a *relative* drop against this
machine's own history fails CI.

The common execution flags (``--jobs``, ``--seed``, ``--engine``,
``--telemetry``) and cache flags (``--cache-dir``, ``--no-cache``,
``--force``) are shared parent parsers (:mod:`repro.cliopts`), spelled
identically across every repro CLI.
"""

from __future__ import annotations

import argparse
import importlib
import os
import pkgutil
import statistics
import sys
import tempfile

from repro.analysis.metrics import summarize
from repro.analysis.report import format_table
from repro.cliopts import cache_options, execution_options, validate_jobs
from repro.core.feas_grid import check_feasibility_batch
from repro.core.feasibility import TreeParameters
from repro.model.serialize import load_problem
from repro.net.engine import use_engine
from repro.net.phy import (
    ATM_BUS,
    CLASSIC_ETHERNET,
    GIGABIT_ETHERNET,
    MediumProfile,
)

MEDIA: dict[str, MediumProfile] = {
    profile.name: profile
    for profile in (GIGABIT_ETHERNET, CLASSIC_ETHERNET, ATM_BUS)
}

_MS = 1_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.check",
        description="Evaluate HRTDM feasibility conditions (B_DDCR <= d).",
        parents=[execution_options(), cache_options()],
    )
    parser.add_argument(
        "instance", nargs="?", default=None, help="JSON instance file"
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="repo health fast-path: import all modules, run the suite",
    )
    parser.add_argument(
        "--no-perf",
        action="store_true",
        help="skip the --ci perf-smoke micro-benchmark step",
    )
    parser.add_argument(
        "--no-sweep",
        action="store_true",
        help="skip the --ci sweep-smoke (campaign resume) step",
    )
    parser.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip the --ci invariants-smoke (faulted scenarios) step",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="skip the --ci obs-smoke (telemetry round-trip) step",
    )
    parser.add_argument(
        "--no-feas",
        action="store_true",
        help="skip the --ci feas-smoke (feasibility kernel parity) step",
    )
    parser.add_argument(
        "--no-serve",
        action="store_true",
        help="skip the --ci serve-smoke (admission service) step",
    )
    parser.add_argument(
        "--no-fabric",
        action="store_true",
        help="skip the --ci fabric-smoke (multi-segment bound) step",
    )
    parser.add_argument(
        "--no-obs2",
        action="store_true",
        help=(
            "skip the --ci obs2-smoke (flight recorder / export / SLO "
            "breach) step"
        ),
    )
    parser.add_argument(
        "--no-batch",
        action="store_true",
        help=(
            "skip the --ci batch-engine coverage (invariants-smoke "
            "re-runs and the *_batch perf benches)"
        ),
    )
    parser.add_argument(
        "--no-perf-trend",
        action="store_true",
        help="run the perf smoke but skip the history trend gate",
    )
    parser.add_argument(
        "--history",
        metavar="FILE",
        default=None,
        help=(
            "bench history file for the perf-trend gate (default: "
            "BENCH_history.jsonl at the repo root)"
        ),
    )
    parser.add_argument(
        "--trend-window",
        type=int,
        default=5,
        metavar="N",
        help="history entries the trend gate medians over (default: %(default)s)",
    )
    parser.add_argument(
        "--trend-threshold",
        type=float,
        default=30.0,
        metavar="PCT",
        help=(
            "fail when a bench drops more than PCT%% below its history "
            "median (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--medium",
        choices=sorted(MEDIA),
        default=GIGABIT_ETHERNET.name,
        help="broadcast medium profile",
    )
    parser.add_argument(
        "--time-f", type=int, default=64, help="time tree leaves F"
    )
    parser.add_argument(
        "--time-m", type=int, default=4, help="time tree branching degree"
    )
    parser.add_argument(
        "--simulate",
        type=float,
        default=0.0,
        metavar="MS",
        help="also run CSMA/DDCR under peak load for MS milliseconds",
    )
    return parser


def _import_all_modules() -> list[str]:
    """Import every module under ``repro``; returns the failures."""
    import repro

    failures: list[str] = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            importlib.import_module(info.name)
        except Exception as error:  # noqa: BLE001 - report, don't die
            failures.append(f"{info.name}: {error}")
    return failures


#: Invariants-smoke geometry: long enough for several full collision
#: resolutions and a crash/restart cycle, short enough to stay sub-second.
_SMOKE_HORIZON = 250_000


def _run_invariants_smoke(batch: bool = True) -> list[str]:
    """One faulted scenario per protocol with online invariant monitors.

    Every scenario stays inside the feasibility bounds (crashes heal well
    before deadlines, noise bursts are transient, drift only skews carrier
    sense), so the monitors must stay silent: any violation is a genuine
    protocol/fault-interaction regression and fails CI.  Returns failure
    lines (empty = all invariants held).

    Every scenario runs on the reference DES.  With ``batch`` (the
    default) it is re-run on the batch engine and its statistics,
    completions and invariant report must match the DES's exactly — the
    DDCR scenarios exercise the kernel itself (its fault path on the
    faulted one), the other protocols the structural fallback path.
    """
    from repro.experiments.harness import (
        csma_cd_factory,
        dcr_factory,
        ddcr_factory,
        default_ddcr_config,
        tdma_factory,
    )
    from repro.faults.models import (
        ClockDrift,
        FaultPlan,
        GilbertElliottNoise,
        StationCrash,
    )
    from repro.model.workloads import uniform_problem
    from repro.net.network import NetworkSimulation, Scenario
    from repro.net.phy import ideal_medium
    from repro.sim.invariants import (
        DeadlineMonitor,
        MonitorSuite,
        MutualExclusionMonitor,
    )

    problem = uniform_problem(
        z=5, length=1_000, deadline=400_000, a=1, w=200_000
    )
    medium = ideal_medium(slot_time=64)
    config = default_ddcr_config(problem, medium, time_f=16, time_m=2)
    burst_noise = GilbertElliottNoise(
        p_enter_bad=0.002, p_exit_bad=0.05, bad_rate=0.5
    )
    crash = StationCrash(0, at=40_000, restart_at=120_000)
    # BEB offers no deadline guarantee and TDMA idles by design in foreign
    # slots, so those scenarios check the invariants their protocols
    # actually promise; DDCR and DCR run the full auto-armed suite.
    scenarios = [
        (
            "ddcr+burst-noise+crash",
            ddcr_factory(config),
            FaultPlan((burst_noise, crash)),
            None,
        ),
        (
            "csma-cd+burst-noise",
            csma_cd_factory(),
            FaultPlan((burst_noise,)),
            lambda: MonitorSuite([MutualExclusionMonitor()]),
        ),
        (
            "dcr+clock-drift",
            dcr_factory(problem),
            FaultPlan((ClockDrift(0, skew_per_slot=4.0),)),
            None,
        ),
        (
            "tdma+crash",
            tdma_factory(problem),
            FaultPlan((crash,)),
            lambda: MonitorSuite(
                [MutualExclusionMonitor(), DeadlineMonitor()]
            ),
        ),
        # Fault-free but monitored: the batch re-run below covers the
        # kernel's clean path as well as its fault path.
        (
            "ddcr-clean+monitors",
            ddcr_factory(config),
            None,
            True,
        ),
    ]

    def execute(factory, plan, monitors, engine):
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem=problem,
                medium=medium,
                protocol_factory=factory,
                # Monitor suites are stateful, so scenarios supply them
                # as factories — each engine run gets its own fresh
                # suite.
                faults=plan,
                monitors=monitors() if callable(monitors) else monitors,
                engine=engine,
            )
        )
        return simulation.run(_SMOKE_HORIZON)

    def digest(result) -> bytes:
        import pickle

        return pickle.dumps(
            (
                result.stats,
                [
                    (r.message.seq, r.completion, r.started, r.dropped)
                    for r in result.completions
                ],
                result.invariants.summary(),
            )
        )

    failures: list[str] = []
    batch_matches = 0
    for name, factory, plan, monitors in scenarios:
        result = execute(factory, plan, monitors, engine="des")
        report = result.invariants
        assert report is not None  # every scenario arms monitors
        if report.ok:
            print(f"invariants-smoke: {name}: {report.summary()}")
        else:
            failures.append(f"{name}: {report.summary()}")
            print(
                f"invariants-smoke: {name}: FAILED\n{report.summary()}",
                file=sys.stderr,
            )
        if batch:
            batch_result = execute(factory, plan, monitors, engine="batch")
            if digest(batch_result) != digest(result):
                failures.append(
                    f"{name}: batch engine diverged from the DES"
                )
                print(
                    f"invariants-smoke: {name}: batch engine DIVERGED",
                    file=sys.stderr,
                )
            else:
                batch_matches += 1
    if batch and batch_matches == len(scenarios):
        print(
            f"invariants-smoke: batch engine matched the DES "
            f"on {batch_matches}/{len(scenarios)} scenario(s)"
        )
    return failures


def _run_feas_smoke() -> list[str]:
    """Feasibility-kernel parity: scalar vs vectorized vs incremental.

    Evaluates an FC-frontier-shaped grid (deadline x scale on the uniform
    workload) three ways — the scalar oracle, :func:`feasibility_grid` on
    the default *and* the pure-Python backend, and a
    :class:`FeasibilityEngine` driven incrementally through
    ``rescale_density`` — and digest-compares the full reports, mirroring
    the batch-engine invariants smoke.  A final mutation check removes a
    class through the engine's delta path and compares against a fresh
    scalar report on the reduced instance.  Returns failure lines.
    """
    import pickle

    from repro.core.feas_engine import FeasibilityEngine
    from repro.core.feas_grid import _PythonFeasOps, feasibility_grid
    from repro.core.feasibility import check_feasibility
    from repro.experiments.harness import default_ddcr_config
    from repro.model.problem import HRTDMProblem
    from repro.model.workloads import uniform_problem

    medium = GIGABIT_ETHERNET
    deadlines = tuple(ms * _MS for ms in (2, 8, 32))
    scales = (0.5, 2.0, 8.0, 32.0)

    def factory(deadline: int, scale: float) -> HRTDMProblem:
        return uniform_problem(
            z=8, length=8_000, deadline=deadline, a=1, w=4 * _MS, scale=scale
        )

    config = default_ddcr_config(factory(deadlines[0], 1.0), medium)
    trees = config.tree_parameters()

    def digest(reports) -> tuple[bytes, ...]:
        # Reports are pickled one by one: a whole-list pickle memoizes
        # string objects the engine *reuses* across its reports, so equal
        # values would digest differently from the scalar path's.
        return tuple(pickle.dumps(report) for report in reports)

    scalar = [
        check_feasibility(factory(d, s), medium, trees)
        for d in deadlines
        for s in scales
    ]
    reference = digest(scalar)
    failures: list[str] = []
    axes = {"deadline": deadlines, "scale": scales}
    for label, backend in (("default", None), ("python", _PythonFeasOps())):
        grid = feasibility_grid(factory, axes, medium, trees, backend=backend)
        if digest(grid.reports) != reference:
            failures.append(
                f"feasibility_grid[{label}] diverged from the scalar oracle"
            )
    engine_reports = []
    for deadline in deadlines:
        engine = FeasibilityEngine.from_problem(
            factory(deadline, 1.0), medium, trees
        )
        for scale in scales:
            engine.rescale_density(scale)
            engine_reports.append(engine.report())
    if digest(engine_reports) != reference:
        failures.append(
            "FeasibilityEngine (incremental rescale) diverged from the "
            "scalar oracle"
        )
    # Mutation parity: drop one class through the O(C) delta path (the
    # uniform sources are single-class, so its source goes with it) and
    # compare against a fresh scalar report on the reduced instance.
    base = factory(deadlines[0], 2.0)
    engine = FeasibilityEngine.from_problem(base, medium, trees)
    victim = base.sources[0]
    engine.remove_class(victim.source_id, victim.message_classes[0].name)
    reduced = HRTDMProblem(
        sources=base.sources[1:],
        static_q=base.static_q,
        static_m=base.static_m,
    )
    if digest([engine.report()]) != digest(
        [check_feasibility(reduced, medium, trees)]
    ):
        failures.append(
            "FeasibilityEngine remove_class diverged from the scalar oracle"
        )
    if not failures:
        points = len(deadlines) * len(scales)
        print(
            f"feas-smoke: scalar, vectorized (2 backends) and incremental "
            f"paths agree on {points} grid points + 1 mutation"
        )
    return failures


def _run_fabric_smoke() -> list[str]:
    """A 3-segment bridged chain: invariants clean, bound dominates.

    Builds the standard fabric chain topology (3 DDCR segments joined
    by store-and-forward bridges, bridge-conservation monitors armed),
    runs it, and requires: every monitor clean, no bridge losses,
    journeys traversing the whole chain, and the composed end-to-end
    bound (sum of per-hop B_DDCR plus forwarding latencies) at or above
    the worst observed journey latency.  Returns failure lines.
    """
    from repro.experiments.harness import build_chain_topology
    from repro.net.fabric import Fabric

    topology, trees = build_chain_topology(segments=3, z=4, monitors=True)
    fabric = Fabric(topology)
    (route_bound,) = fabric.route_bounds(trees)
    failures: list[str] = []
    if not route_bound.feasible:
        failures.append("fabric chain workload must be FC-feasible")
    result = fabric.run(40 * _MS)
    if not result.invariants_ok:
        broken = [
            f"{name}: {violation}"
            for name, seg in result.segments.items()
            if seg.invariants is not None and not seg.invariants.ok
            for violation in seg.invariants.violations[:2]
        ]
        failures.append("fabric invariants violated (" + "; ".join(broken) + ")")
    dropped = sum(report.dropped for report in result.bridges)
    if dropped:
        failures.append(f"bridges dropped {dropped} relayed frame(s)")
    delivered = result.delivered()
    if not delivered:
        failures.append("no journey traversed the chain before the horizon")
    worst = result.worst_latency(route_bound.route)
    if worst is not None and worst > route_bound.bound:
        failures.append(
            f"observed end-to-end latency {worst} exceeds the composed "
            f"bound {route_bound.bound:.0f}"
        )
    if not failures:
        print(
            f"fabric-smoke: 3-segment chain ok — {len(delivered)} "
            f"journey(s) delivered, worst {worst} <= composed bound "
            f"{route_bound.bound:,.0f}, invariants clean"
        )
    return failures


def _run_obs_smoke(cache_dir: str) -> list[str]:
    """One telemetry-collecting run plus a summarize/diff round-trip.

    Resolves FIG1 through the cache-aware executor with telemetry on
    (a warm cache yields the minimal cache-hit manifest — the round-trip
    exercises the same schema either way), writes the manifest JSONL,
    renders it with ``repro.tools.obs summarize`` and diffs it against
    itself (which must exit 0).  Returns failure lines.
    """
    from repro.obs.manifest import write_manifests
    from repro.runtime import ParallelExecutor, ResultCache, RunSpec
    from repro.tools import obs

    failures: list[str] = []
    executor = ParallelExecutor(
        cache=ResultCache(cache_dir), collect_telemetry=True
    )
    records = executor.run([RunSpec.make("FIG1")])
    manifests = [r.telemetry for r in records if r.telemetry is not None]
    if not manifests:
        return ["obs-smoke: executor produced no telemetry manifest"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obs-smoke.jsonl")
        write_manifests(path, manifests)
        if obs.main(["summarize", path]) != 0:
            failures.append("obs-smoke: summarize failed")
        if obs.main(["diff", path, path, "--fail-over", "50"]) != 0:
            failures.append("obs-smoke: self-diff did not exit 0")
    if not failures:
        print(
            f"obs-smoke: telemetry round-trip ok "
            f"({manifests[0].run_id}, source={manifests[0].source})"
        )
    return failures


def _run_sweep_smoke(cache_dir: str, jobs: int) -> list[str]:
    """A 4-point campaign cold-run, then resumed on the warm cache.

    Exercises the sweep contract end to end: grid expansion, sharded
    execution, journal checkpointing, and the resume guarantee — the
    resumed run must resubmit **zero** specs (everything replays from
    the journal + result cache) and rebuild a byte-identical aggregate
    document.  Returns failure lines (empty = contract held).
    """
    from repro.runtime import ResultCache
    from repro.sweep import Campaign, run_campaign

    # FIG1 needs t to be a power of m, so the shapes are a zipped axis.
    campaign = Campaign.make(
        "ci-sweep-smoke",
        experiment="FIG1",
        zipped={"m": (2, 2, 3, 3), "t": (8, 16, 9, 27)},
        batch_size=2,
        description="CI smoke: FIG1 search-cost tables across tree shapes",
    )
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "sweep-smoke.journal.jsonl")
        cold = run_campaign(
            campaign,
            jobs=jobs,
            cache=ResultCache(cache_dir),
            journal_path=journal,
        )
        if not cold.ok:
            failures.append("sweep-smoke: campaign checks failed")
        resumed = run_campaign(
            campaign,
            jobs=jobs,
            cache=ResultCache(cache_dir),
            journal_path=journal,
            resume=True,
        )
        if resumed.submissions != 0:
            failures.append(
                f"sweep-smoke: resume resubmitted "
                f"{resumed.submissions} spec(s)"
            )
        if resumed.replayed_shards != resumed.total_shards:
            failures.append(
                f"sweep-smoke: resume replayed only "
                f"{resumed.replayed_shards}/{resumed.total_shards} shard(s)"
            )
        if resumed.aggregate_json() != cold.aggregate_json():
            failures.append(
                "sweep-smoke: resumed aggregate differs from the cold run"
            )
    if not failures:
        print(
            f"sweep-smoke: {campaign.grid.size}-point campaign resumed "
            "byte-identically (0 resubmissions)"
        )
    return failures


def _run_serve_smoke(cache_dir: str, jobs: int, use_cache: bool = True) -> list[str]:
    """A short admission trace served, counter-checked and replayed.

    Exercises the serve contract end to end: a cold run with periodic
    counter-checks (scalar oracle + SERVE-CHECK simulation through the
    cache-aware executor) must raise **zero** incidents; a replay of the
    persisted event log must reproduce every decision byte for byte; and
    a re-counter-check through a fresh executor sharing the cache must
    resubmit **zero** specs.  Without the result cache the simulation leg
    is skipped (oracle + replay still run).  Returns failure lines.
    """
    from repro.runtime import ParallelExecutor, ResultCache
    from repro.serve import (
        AdmissionService,
        ServeConfig,
        TraceConfig,
        generate_trace,
        replay_event_log,
    )

    failures: list[str] = []
    trace = generate_trace(
        TraceConfig(events=48, stations=10, seed=11, template="city")
    )
    config = ServeConfig(static_q=64, check_every=16)
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = os.path.join(tmp, "serve-log")
        executor = (
            ParallelExecutor(jobs=jobs, cache=ResultCache(cache_dir))
            if use_cache
            else None
        )
        with AdmissionService(
            config, executor=executor, log_dir=log_dir
        ) as service:
            decisions = service.run_trace(trace)
            service.counter_check()
            if service.incidents:
                failures.append(
                    f"serve-smoke: cold run raised "
                    f"{len(service.incidents)} incident(s): "
                    f"{service.incidents[0].detail}"
                )
            admitted = service.class_count
        replayed = replay_event_log(log_dir)
        mismatches = [
            incident
            for incident in replayed.incidents
            if incident.kind == "replay-mismatch"
        ]
        if mismatches:
            failures.append(
                f"serve-smoke: replay diverged on "
                f"{len(mismatches)} decision(s): {mismatches[0].detail}"
            )
        if replayed.class_count != admitted:
            failures.append(
                f"serve-smoke: replay admitted {replayed.class_count} "
                f"class(es), cold run {admitted}"
            )
        if use_cache:
            recheck = ParallelExecutor(jobs=jobs, cache=ResultCache(cache_dir))
            replayed.executor = recheck
            replayed.counter_check()
            if recheck.submissions != 0:
                failures.append(
                    f"serve-smoke: replay counter-check resubmitted "
                    f"{recheck.submissions} spec(s)"
                )
            if replayed.incidents != mismatches:
                failures.append(
                    "serve-smoke: replay counter-check raised incident(s)"
                )
    if not failures:
        sim = "counter-checked" if use_cache else "oracle-checked (no cache)"
        print(
            f"serve-smoke: {len(trace)}-event trace served, {sim} and "
            f"replayed byte-identically ({admitted} class(es) admitted, "
            "0 incidents)"
        )
    return failures


def _run_obs2_smoke(cache_dir: str, use_cache: bool = True) -> list[str]:
    """A traced serve session exercising the v2 ops plane end to end.

    Serves a short trace with the flight recorder, streaming exporter
    and a deliberately unmeetable SLO armed, then asserts the three
    contracts: (1) the flight-recorder dump is valid JSONL whose causal
    parents all resolve inside the dumped window (or point below it,
    i.e. at ring-evicted ancestors); (2) the Prometheus snapshot and the
    JSONL delta stream are consumable and consistent with the request
    count; (3) the forced latency SLO (threshold 0 us — every sample is
    bad by construction) breaches exactly once (multi-window burn-rate
    breaches latch) and lands as a structured ``slo-breach`` incident
    with a black-box trace attached.  Returns failure lines.
    """
    from repro.obs.export import iter_jsonl_tail, parse_prometheus
    from repro.obs.instruments import Telemetry
    from repro.obs.slo import Objective, SloEngine
    from repro.obs.tracer import FlightRecorder, load_trace
    from repro.runtime import ParallelExecutor, ResultCache
    from repro.serve import (
        AdmissionService,
        ServeConfig,
        TraceConfig,
        generate_trace,
    )

    failures: list[str] = []
    trace = generate_trace(
        TraceConfig(events=48, stations=10, seed=11, template="city")
    )
    recorder = FlightRecorder(capacity=2048)
    telemetry = Telemetry()
    slos = SloEngine([
        Objective(
            name="forced-latency",
            kind="latency",
            instrument="serve/decision_latency_us",
            threshold=0.0,
            q=0.99,
            short_window=4,
            long_window=8,
        ),
    ])
    config = ServeConfig(static_q=64, check_every=16, sim_horizon=500_000)
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = os.path.join(tmp, "obs2-log")
        from repro.obs.export import StreamExporter

        exporter = StreamExporter(
            telemetry,
            os.path.join(tmp, "metrics.prom"),
            os.path.join(tmp, "metrics.jsonl"),
            every=4,
        )
        # force=True: a cache *replay* of the counter-check leg cannot
        # emit the channel/slot trace events this smoke asserts on, so
        # the leg must execute live on warm caches too (it still writes
        # through, keeping the cache interplay exercised).
        executor = (
            ParallelExecutor(cache=ResultCache(cache_dir), force=True)
            if use_cache
            else None
        )
        with AdmissionService(
            config,
            telemetry=telemetry,
            executor=executor,
            log_dir=log_dir,
            tracer=recorder,
            exporter=exporter,
            slos=slos,
        ) as service:
            service.run_trace(trace)
            service.counter_check()
            breaches = [
                i for i in service.incidents if i.kind == "slo-breach"
            ]
            others = [
                i for i in service.incidents if i.kind != "slo-breach"
            ]
            if len(breaches) != 1:
                failures.append(
                    f"obs2-smoke: forced SLO produced "
                    f"{len(breaches)} slo-breach incident(s), wanted "
                    f"exactly 1 (breaches latch)"
                )
            elif breaches[0].trace is None or not breaches[0].trace:
                failures.append(
                    "obs2-smoke: slo-breach incident carries no "
                    "black-box trace"
                )
            if others:
                failures.append(
                    f"obs2-smoke: unexpected incident(s): "
                    f"{[i.kind for i in others]}"
                )
        # (1) Flight-recorder dump: valid JSONL, connected parents.
        dump = os.path.join(tmp, "flightrec.jsonl")
        recorder.dump_jsonl(dump)
        events = load_trace(dump)
        if not events:
            failures.append("obs2-smoke: flight-recorder dump is empty")
        else:
            ids = {event.id for event in events}
            first = min(ids)
            dangling = [
                event.id
                for event in events
                if event.parent is not None
                and event.parent not in ids
                and event.parent >= first
            ]
            if dangling:
                failures.append(
                    f"obs2-smoke: {len(dangling)} event(s) have parents "
                    f"inside the dumped window that are missing from it"
                )
            kinds = {event.kind for event in events}
            wanted = {"serve/request", "serve/decision"}
            if use_cache:
                wanted.add("channel/slot")
            missing = wanted - kinds
            if missing:
                failures.append(
                    f"obs2-smoke: dump lacks {sorted(missing)} event(s)"
                )
        # (2) Export artifacts: snapshot + delta stream consistency.
        metrics = parse_prometheus(
            open(exporter.prom_path, encoding="utf-8").read()
        )
        requests = metrics.get("repro_serve_requests", {}).get("value")
        if requests != len(trace):
            failures.append(
                f"obs2-smoke: Prometheus snapshot reports "
                f"{requests} requests, served {len(trace)}"
            )
        records = list(iter_jsonl_tail(exporter.stream_path))
        if not records:
            failures.append("obs2-smoke: delta stream is empty")
        ticks = [record.get("tick") for record in records]
        if ticks != sorted(ticks):
            failures.append("obs2-smoke: delta-stream ticks not monotone")
    if not failures:
        print(
            f"obs2-smoke: traced serve session ok ({len(events)} trace "
            f"event(s) dumped, {len(records)} export record(s), "
            "1 latched slo-breach with black box)"
        )
    return failures


def _run_perf_smoke(batch: bool = True) -> "list | None":
    """One quick micro-benchmark pass; returns results (None = skipped)."""
    from repro.tools.bench import BENCHES, run_benches

    names = (
        None if batch
        else [name for name in BENCHES if not name.endswith("_batch")]
    )
    try:
        results = run_benches(names=names, smoke=True)
    except Exception as error:  # noqa: BLE001 - perf is advisory
        print(f"perf-smoke: skipped ({error})", file=sys.stderr)
        return None
    for result in results:
        print(f"perf-smoke: {result.describe()}")
    return results


def _run_perf_trend(
    results: list,
    history_path: "str | os.PathLike[str]",
    window: int,
    threshold: float,
) -> list[str]:
    """Gate current bench results against the history median.

    Compares each bench's median ops/sec against the median of the last
    ``window`` same-mode (smoke) history entries that measured it on the
    same engine; a drop of more than ``threshold`` percent is a
    regression.  Throughput is host-calibrated when it can be: each
    sample is scaled by the host figure (:func:`host_calibration
    <repro.tools.bench.host_calibration>`, wall-clock readings taken
    around the benches' timed samples) recorded with it, relative to the
    current run's, so a uniformly slower host phase is not a
    regression.  With fewer than two calibrated samples (history from
    before calibration was recorded) the gate compares raw medians.  A
    bench with fewer than two samples at all (new, or moved to another
    engine) has no baseline yet and is skipped, not failed.  The current
    run is appended to the history *after* the comparison, so a
    regressed run cannot vote itself into its own baseline.  Returns
    failure lines.
    """
    from repro.tools.bench import (
        append_history,
        history_entry,
        host_calibration,
        load_history,
    )

    calib_s = host_calibration(results)
    smoke_entries = [
        entry for entry in load_history(history_path) if entry.get("smoke")
    ][-window:]
    failures: list[str] = []
    if len(smoke_entries) < 2:
        print(
            f"perf-trend: not enough history "
            f"({len(smoke_entries)} smoke entr(y/ies) in {history_path}); "
            "gate skipped, current run recorded"
        )
    else:
        unbased: list[str] = []
        for result in results:
            measured = []  # (ops/s, host calibration or None)
            for entry in smoke_entries:
                bench = entry.get("benches", {}).get(result.name)
                if bench is not None and bench.get("engine") == result.engine:
                    measured.append(
                        (bench["ops_per_sec"], entry.get("calib_s"))
                    )
            # Each calibrated sample as ops/s at the current host speed.
            samples = [
                ops * calib / calib_s for ops, calib in measured if calib
            ]
            basis = "host-calibrated"
            if len(samples) < 2:
                samples = [ops for ops, _ in measured]
                basis = "raw"
            if len(samples) < 2:
                unbased.append(result.name)
                continue
            baseline = statistics.median(samples)
            current = result.median_ops_per_sec or result.ops_per_sec
            if baseline <= 0:
                continue
            drop = (1.0 - current / baseline) * 100.0
            if drop > threshold:
                failures.append(
                    f"{result.name}: {current:,.0f} ops/s is "
                    f"{drop:.1f}% below the history median "
                    f"{baseline:,.0f} ({basis}, limit {threshold:.0f}%, "
                    f"n={len(samples)})"
                )
        if unbased:
            print(
                f"perf-trend: no history yet for {len(unbased)} bench(es), "
                f"skipped: {', '.join(unbased)}"
            )
        verdict = "FAILED" if failures else "ok"
        print(
            f"perf-trend: {verdict} "
            f"({len(results) - len(unbased)} bench(es) vs median of "
            f"{len(smoke_entries)} run(s))"
        )
    append_history(
        history_path, history_entry(results, smoke=True, calib_s=calib_s)
    )
    return failures


def run_ci(
    jobs: int,
    cache_dir: str,
    perf: bool = True,
    invariants: bool = True,
    obs: bool = True,
    feas: bool = True,
    sweep: bool = True,
    serve: bool = True,
    obs2: bool = True,
    fabric: bool = True,
    batch: bool = True,
    perf_trend: bool = True,
    history: "str | None" = None,
    trend_window: int = 5,
    trend_threshold: float = 30.0,
    seed: "int | None" = None,
    force: bool = False,
    no_cache: bool = False,
    telemetry: "str | None" = None,
) -> int:
    """``--ci`` fast path: imports + suite + smokes + perf trend gate."""
    from repro.experiments.registry import EXPERIMENTS
    from repro.runtime import ParallelExecutor, ResultCache, RunSpec

    import_failures = _import_all_modules()
    if import_failures:
        for failure in import_failures:
            print(f"import error: {failure}", file=sys.stderr)
        return 2
    print("imports: all repro modules import cleanly")

    def progress(record, index, total):
        print(f"[{index + 1:>2}/{total}] {record.describe()}", flush=True)

    executor = ParallelExecutor(
        jobs=jobs,
        cache=None if no_cache else ResultCache(cache_dir),
        force=force,
        progress=progress,
        collect_telemetry=telemetry is not None,
    )
    records = executor.run(
        [
            RunSpec.make(
                experiment_id,
                root_seed=(
                    seed
                    if seed is not None
                    and EXPERIMENTS[experiment_id].seed_param is not None
                    else None
                ),
            )
            for experiment_id in EXPERIMENTS
        ]
    )
    failed = [
        record.spec.experiment_id
        for record in records
        if not record.result.all_checks_pass
    ]
    cached = sum(1 for record in records if record.cached)
    print(
        f"suite: {len(records)} experiment(s), "
        f"{len(records) - cached} executed, {cached} from cache"
    )
    if telemetry is not None:
        from repro.obs.manifest import write_manifests

        manifests = [
            record.telemetry
            for record in records
            if record.telemetry is not None
        ]
        written = write_manifests(telemetry, manifests)
        print(f"suite: wrote {written} telemetry manifest(s) to {telemetry}")
    violation_failures: list[str] = []
    if invariants:
        violation_failures = _run_invariants_smoke(batch=batch)
    feas_failures: list[str] = []
    if feas:
        feas_failures = _run_feas_smoke()
    obs_failures: list[str] = []
    if obs:
        obs_failures = _run_obs_smoke(cache_dir)
    sweep_failures: list[str] = []
    if sweep and no_cache:
        print("sweep-smoke: skipped (needs the result cache)")
    elif sweep:
        sweep_failures = _run_sweep_smoke(cache_dir, jobs)
    serve_failures: list[str] = []
    if serve:
        serve_failures = _run_serve_smoke(
            cache_dir, jobs, use_cache=not no_cache
        )
    obs2_failures: list[str] = []
    if obs2:
        obs2_failures = _run_obs2_smoke(cache_dir, use_cache=not no_cache)
    fabric_failures: list[str] = []
    if fabric:
        fabric_failures = _run_fabric_smoke()
    trend_failures: list[str] = []
    if perf:
        results = _run_perf_smoke(batch=batch)
        if results is not None and perf_trend:
            from repro.tools.bench import default_history_path

            history_path = (
                history if history is not None else default_history_path()
            )
            trend_failures = _run_perf_trend(
                results, history_path, trend_window, trend_threshold
            )
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
    if violation_failures:
        print(
            f"FAILED invariants: {', '.join(violation_failures)}",
            file=sys.stderr,
        )
    for failure in feas_failures:
        print(f"FAILED feas: {failure}", file=sys.stderr)
    for failure in obs_failures:
        print(f"FAILED obs: {failure}", file=sys.stderr)
    for failure in sweep_failures:
        print(f"FAILED sweep: {failure}", file=sys.stderr)
    for failure in serve_failures:
        print(f"FAILED serve: {failure}", file=sys.stderr)
    for failure in obs2_failures:
        print(f"FAILED obs2: {failure}", file=sys.stderr)
    for failure in fabric_failures:
        print(f"FAILED fabric: {failure}", file=sys.stderr)
    for failure in trend_failures:
        print(f"FAILED perf-trend: {failure}", file=sys.stderr)
    if (
        failed
        or violation_failures
        or feas_failures
        or obs_failures
        or sweep_failures
        or serve_failures
        or obs2_failures
        or fabric_failures
        or trend_failures
    ):
        return 2
    print("verdict: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_jobs(parser, args.jobs)
    if args.ci:
        with use_engine(args.engine):
            return run_ci(
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                perf=not args.no_perf,
                invariants=not args.no_invariants,
                obs=not args.no_obs,
                feas=not args.no_feas,
                sweep=not args.no_sweep,
                serve=not args.no_serve,
                obs2=not args.no_obs2,
                fabric=not args.no_fabric,
                batch=not args.no_batch,
                perf_trend=not args.no_perf_trend,
                history=args.history,
                trend_window=args.trend_window,
                trend_threshold=args.trend_threshold,
                seed=args.seed,
                force=args.force,
                no_cache=args.no_cache,
                telemetry=args.telemetry,
            )
    if args.instance is None:
        parser.error("an instance file is required unless --ci is given")
    medium = MEDIA[args.medium]
    try:
        problem = load_problem(args.instance)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    trees = TreeParameters(
        time_f=args.time_f,
        time_m=args.time_m,
        static_q=problem.static_q,
        static_m=problem.static_m,
    )
    # The vectorized path; value-identical to scalar check_feasibility
    # (the `check --ci` feas-smoke digest-compares them).
    (report,) = check_feasibility_batch([problem], medium, trees)
    print(problem.describe())
    print()
    print(
        format_table(
            ["source", "class", "d (ms)", "B_DDCR (ms)", "slack (ms)", "ok"],
            [
                [
                    fc.source_id,
                    fc.class_name,
                    round(fc.deadline / _MS, 3),
                    round(fc.bound / _MS, 3),
                    round(fc.slack / _MS, 3),
                    "yes" if fc.feasible else "NO",
                ]
                for fc in report.classes
            ],
            title=f"Feasibility on {medium.name} (F={args.time_f}, "
            f"m={args.time_m})",
        )
    )
    verdict = "FEASIBLE" if report.feasible else "INFEASIBLE"
    print(f"\nverdict: {verdict}")
    if args.simulate > 0:
        from repro.experiments.harness import (
            build_simulation,
            ddcr_factory,
            default_ddcr_config,
        )

        config = default_ddcr_config(
            problem, medium, time_f=args.time_f, time_m=args.time_m
        )
        with use_engine(args.engine):
            result = build_simulation(
                problem, medium, ddcr_factory(config)
            ).run(round(args.simulate * _MS))
        metrics = summarize(result)
        print(
            f"simulation ({args.simulate} ms peak load): "
            f"delivered={metrics.delivered} misses={metrics.misses} "
            f"utilization={metrics.utilization:.3f}"
        )
    return 0 if report.feasible else 2


if __name__ == "__main__":
    sys.exit(main())
