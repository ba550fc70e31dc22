"""The four benchmark workloads, each built from its seed alone.

A workload is set up once (inputs generated from the seed, the system
built) and then run in *iterations*: one simulation run for the three
simulation workloads, one pass over its admission traces, each through a
fresh service, for ``serve-city``.  Every iteration of one seed does identical
work, so its :attr:`Iteration.fingerprint` must repeat exactly — within a
process, across processes, and across engine tiers.

Each workload also condenses the program's outputs into a JSON-safe
*summary* and judges it with a pure ``check_*`` function, so the tests can
corrupt a summary and watch the check fail.  Program modules are imported
inside the constructors: a workload's set-up time covers importing exactly
the modules it drives.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import pathlib
import random
import shutil
import tempfile
import time
from collections.abc import Callable

_MS = 1_000_000  # bit-times per millisecond at 1 Gb/s

#: Bus shape: 64 single-class GbE stations.  Scale 3.4 (payload load
#: 0.348) is the highest 0.2 step the FC still admits; 3.6 is infeasible.
BUS_STATIONS = 64
BUS_SCALE = 3.4
#: Arrival phases fall inside this many bit-times (about 24 slots), so
#: every window opens with a near-synchronized burst: on the bus,
#: collision resolution is the work; on the fabric, where the burst
#: fills about a fifth of the window, each journey's latency stays close
#: to one burst's resolution whatever the seed.
PHASE_SPREAD = 100_000

#: Fabric shape: a 4x64 chain at light local load (0.128).  With
#: w = d the relay amplification ceil((w + d) / w) is 2 per hop, the
#: smallest the composition allows, which keeps every hop feasible.
FABRIC_SEGMENTS = 4
FABRIC_STATIONS = 64
FABRIC_WINDOW = 4 * _MS

#: Admission trace shape: enough stations that the admitted set reaches
#: tens of classes; journal, export and SLOs armed as in ``serve run``.
#: Counter-checks every 50 decisions make 2% of decisions oracle-heavy,
#: so the p99 falls inside that population instead of on whichever
#: light decision a host preemption stall happened to hit.
SERVE_TRACES = 64
#: Traces between two recalibrations of the benchmark's clock (about half
#: a second of work), so a change of host speed mid-iteration is caught.
SERVE_PAUSE_EVERY = 8
SERVE_STATIONS = 128
SERVE_CHECK_EVERY = 50
SERVE_EXPORT_EVERY = 50

#: Per-size knobs: (bus horizon, fabric horizon, events per trace).
SIZES: dict[str, tuple[int, int, int]] = {
    "full": (10 * _MS, 8 * _MS, 200),
    "smoke": (6 * _MS, 4 * _MS, 50),
}

#: Context manager factory the traced run uses to open one op span.
OpScope = Callable[[], contextlib.AbstractContextManager]
#: Called between chunks of an iteration with the number of latency
#: samples taken so far; the benchmark recalibrates its clock there.
Pause = Callable[[int], None]


@dataclasses.dataclass
class Iteration:
    """What one iteration did, as the benchmark accounts for it."""

    #: Units of work: delivered messages (bus), hop deliveries (fabric),
    #: decisions (serve).
    ops: int
    #: Messages arrived (simulations) or requests sent (serve).
    attempted: int
    #: Messages dropped or late, or requests that raised or drew an
    #: oracle-divergence incident.
    failed: int
    #: Digest of the program's outputs; identical for every iteration
    #: of one seed.
    fingerprint: str
    #: Host latency of each op in CPU seconds; ``None`` for simulations,
    #: whose ops all share the CPU time of the run that delivered them.
    latencies: list[float] | None = None


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench/{seed}/{purpose}")


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _run_digest(result) -> str:
    """Stats plus every completion of one single-bus run."""
    return _digest(
        dataclasses.astuple(result.stats),
        [
            (r.message.msg_class.name, r.completion, r.latency, r.dropped)
            for r in result.completions
        ],
        len(result.backlog()),
        result.invariants.summary() if result.invariants else None,
    )


def _message_accounting(results) -> tuple[int, int, int]:
    """(delivered, arrived, failed) summed over single-bus results."""
    delivered = arrived = failed = 0
    for result in results:
        delivered += result.delivered
        arrived += len(result.completions) + len(result.backlog())
        failed += sum(
            1 for r in result.completions if r.dropped or not r.on_time
        )
    return delivered, arrived, failed


def _round_counts(results) -> dict[str, int]:
    rounds = sum(r.stats.rounds for r in results)
    successes = sum(r.stats.successes for r in results)
    return {"rounds": rounds, "non_success_rounds": rounds - successes}


class _Workload:
    """Shared interface: ``iterate`` runs one iteration under ``op_scope``.

    A simulation iteration is one run and never pauses; serve-city calls
    ``pause`` between chunks of :data:`SERVE_PAUSE_EVERY` traces.
    """

    name = ""

    def iterate(
        self, op_scope: OpScope | None = None, pause: Pause | None = None
    ) -> Iteration:
        raise NotImplementedError

    def summary(self) -> dict:
        """Correctness-relevant outputs of the warm-up iteration."""
        raise NotImplementedError


# -- bus workloads -----------------------------------------------------------


class BusWorkload(_Workload):
    """``bus-ddcr`` (``faulted=False``) and ``bus-faults``."""

    def __init__(self, seed: int, size: str, faulted: bool) -> None:
        from repro.analysis.bounds import check_latency_bounds
        from repro.experiments.harness import ddcr_factory, default_ddcr_config
        from repro.model.arrival import GreedyBurstArrivals
        from repro.model.workloads import uniform_problem
        from repro.net.network import NetworkSimulation
        from repro.net.phy import GIGABIT_ETHERNET
        from repro.net.scenario import Scenario

        self.name = "bus-faults" if faulted else "bus-ddcr"
        self._check_latency_bounds = check_latency_bounds
        self._simulation = NetworkSimulation
        self.horizon = SIZES[size][0]
        self.problem = uniform_problem(z=BUS_STATIONS, scale=BUS_SCALE)
        self.medium = GIGABIT_ETHERNET
        config = default_ddcr_config(self.problem, self.medium)
        self.trees = config.tree_parameters()
        phases = _rng(seed, "phases")
        arrivals = {
            cls.name: GreedyBurstArrivals(
                bound=cls.bound, phase=phases.randrange(PHASE_SPREAD)
            )
            for cls in self.problem.all_classes()
        }
        self.plan = self._fault_plan(seed) if faulted else None
        self.scenario = Scenario(
            problem=self.problem,
            medium=self.medium,
            protocol_factory=ddcr_factory(config),
            arrivals=arrivals,
            root_seed=seed,
            faults=self.plan,
        )
        self._first = None

    def _fault_plan(self, seed: int):
        """Burst noise plus one crash and restart, timed from the seed.

        The station goes down in the idle gap after one window's burst
        and comes back in the idle gap after the next, missing exactly
        one burst whose message floods in on restart.  Both instants
        sit in idle gaps because restarting a station while a collision
        resolution is in progress can livelock the bus (reproduced by the
        strict-xfail ``test_restart_during_resolution_keeps_invariants``);
        the workload measures the fault path, not that defect.
        """
        from repro.faults.models import (
            FaultPlan,
            GilbertElliottNoise,
            StationCrash,
        )

        rng = _rng(seed, "faults")
        w = self.problem.all_classes()[0].bound.w
        windows = self.horizon // w
        down = rng.randrange(1, windows - 1)
        return FaultPlan(
            (
                GilbertElliottNoise(
                    p_enter_bad=0.002, p_exit_bad=0.05, bad_rate=0.5
                ),
                StationCrash(
                    station_id=rng.randrange(BUS_STATIONS),
                    at=down * w + rng.randrange(3 * w // 4, 19 * w // 20),
                    # A fixed restart offset: the flooded message's
                    # latency, which sets budget_max, then barely
                    # depends on the seed.
                    restart_at=(down + 1) * w + 17 * w // 20,
                ),
            )
        )

    def iterate(
        self, op_scope: OpScope | None = None, pause: Pause | None = None
    ) -> Iteration:
        with op_scope() if op_scope else contextlib.nullcontext():
            result = self._simulation.from_scenario(self.scenario).run(
                self.horizon
            )
        if self._first is None:
            self._first = result
        delivered, arrived, failed = _message_accounting([result])
        return Iteration(
            ops=delivered,
            attempted=arrived,
            failed=failed,
            fingerprint=_run_digest(result),
        )

    def summary(self) -> dict:
        result = self._first
        report, checks = self._check_latency_bounds(
            result, self.problem, self.medium, self.trees
        )
        delivered, arrived, failed = _message_accounting([result])
        invariants = result.invariants
        return {
            "fc_feasible": report.feasible,
            "budget_max": max(c.tightness for c in checks),
            "delivered": delivered,
            "arrived": arrived,
            "failed": failed,
            "invariants_ok": invariants.ok if invariants else None,
            "invariants": invariants.summary() if invariants else None,
            **_round_counts([result]),
        }


def check_bus_ddcr(summary: dict) -> list[str]:
    """The paper's guarantee: feasible FC, B_DDCR held, nothing lost."""
    problems = []
    if not summary["fc_feasible"]:
        problems.append("feasibility conditions do not hold")
    if not summary["budget_max"] <= 1.0:
        problems.append(f"budget_max {summary['budget_max']} exceeds 1")
    if summary["failed"]:
        problems.append(f"{summary['failed']} message(s) dropped or late")
    if summary["delivered"] < 1:
        problems.append("nothing delivered")
    return problems


def check_bus_faults(summary: dict) -> list[str]:
    """Faults may cost latency, never an invariant."""
    problems = []
    if summary["invariants_ok"] is not True:
        problems.append(f"invariant report not ok: {summary['invariants']}")
    if summary["delivered"] < 1:
        problems.append("nothing delivered")
    return problems


# -- fabric workload ---------------------------------------------------------


class FabricWorkload(_Workload):
    """``fabric-chain``: the standard bridged chain, seeded phases."""

    name = "fabric-chain"

    def __init__(self, seed: int, size: str) -> None:
        from repro.experiments.harness import build_chain_topology
        from repro.model.arrival import GreedyBurstArrivals
        from repro.net.fabric import Fabric

        self.horizon = SIZES[size][1]
        topology, trees = build_chain_topology(
            segments=FABRIC_SEGMENTS,
            z=FABRIC_STATIONS,
            a=1,
            w=FABRIC_WINDOW,
            deadline=FABRIC_WINDOW,
            root_seed=seed,
        )
        phases = _rng(seed, "phases")
        segments = []
        for segment in topology.segments:
            # Relay classes are fed by their bridge; only local classes
            # take seeded phases.
            arrivals = {
                cls.name: GreedyBurstArrivals(
                    bound=cls.bound, phase=phases.randrange(PHASE_SPREAD)
                )
                for cls in segment.problem.all_classes()
                if cls.name.startswith("local-")
            }
            segments.append(dataclasses.replace(segment, arrivals=arrivals))
        self.topology = dataclasses.replace(topology, segments=tuple(segments))
        self._fabric = Fabric
        self.route_bounds = Fabric(self.topology).route_bounds(trees)
        self._first = None

    def iterate(
        self, op_scope: OpScope | None = None, pause: Pause | None = None
    ) -> Iteration:
        with op_scope() if op_scope else contextlib.nullcontext():
            result = self._fabric(self.topology).run(self.horizon)
        if self._first is None:
            self._first = result
        segments = list(result.segments.values())
        delivered, arrived, failed = _message_accounting(segments)
        return Iteration(
            ops=delivered,
            attempted=arrived,
            failed=failed,
            fingerprint=_digest(
                [_run_digest(r) for r in segments],
                [
                    (j.origin_arrival, j.hops, j.dropped)
                    for j in result.journeys
                ],
                result.bridges,
            ),
        )

    def summary(self) -> dict:
        result = self._first
        bounds = {rb.route: rb for rb in self.route_bounds}
        journeys = [
            [j.latency, bounds[j.route].bound] for j in result.delivered()
        ]
        segments = list(result.segments.values())
        delivered, arrived, failed = _message_accounting(segments)
        return {
            "invariants_ok": result.invariants_ok,
            "routes_feasible": all(rb.feasible for rb in self.route_bounds),
            "journeys": journeys,
            "budget_max": max(
                (latency / bound for latency, bound in journeys), default=0.0
            ),
            "bridge_drops": sum(b.dropped for b in result.bridges),
            "delivered": delivered,
            "arrived": arrived,
            "failed": failed,
            **_round_counts(segments),
        }


def check_fabric_chain(summary: dict) -> list[str]:
    """Monitors clean, and every journey inside its composed bound."""
    problems = []
    if not summary["invariants_ok"]:
        problems.append("a segment's invariant monitors fired")
    if not summary["routes_feasible"]:
        problems.append("a hop fails its feasibility conditions")
    if not summary["journeys"]:
        problems.append("no journey traversed the chain")
    late = [pair for pair in summary["journeys"] if pair[0] > pair[1]]
    if late:
        problems.append(f"{len(late)} journey(s) exceed the route bound")
    return problems


# -- admission workload ------------------------------------------------------


class ServeWorkload(_Workload):
    """``serve-city``: one client, closed loop, one request at a time.

    An iteration serves :data:`SERVE_TRACES` traces, each through a fresh
    service.  A decision's cost follows the size of the admitted set, and
    once a trace reaches the feasibility edge that size wanders for
    hundreds of events, so a few long traces make one seed's work differ
    from another's by 10-20%.  Many short traces, each growing the set
    from empty to a few tens of classes, average that out.
    """

    name = "serve-city"

    def __init__(self, seed: int, size: str, tmp_dir: pathlib.Path) -> None:
        from repro.obs.export import StreamExporter
        from repro.obs.instruments import Telemetry
        from repro.obs.slo import SloEngine, default_serve_objectives
        from repro.serve.service import AdmissionService, ServeConfig
        from repro.serve.traces import TraceConfig, generate_trace

        self._service = AdmissionService
        self._telemetry = Telemetry
        self._exporter = StreamExporter
        self._slos = lambda: SloEngine(default_serve_objectives())
        self.config = ServeConfig(check_every=SERVE_CHECK_EVERY)
        seeds = _rng(seed, "traces")
        self.traces = [
            generate_trace(
                TraceConfig(
                    events=SIZES[size][2],
                    stations=SERVE_STATIONS,
                    seed=seeds.randrange(2**32),
                )
            )
            for _ in range(SERVE_TRACES)
        ]
        self.tmp_dir = tmp_dir
        self._first: dict | None = None

    def _serve(self, trace, op_scope: OpScope | None) -> dict:
        """One trace through a fresh service with its own log directory."""
        log_dir = pathlib.Path(tempfile.mkdtemp(dir=self.tmp_dir))
        try:
            telemetry = self._telemetry()
            exporter = self._exporter(
                telemetry,
                log_dir / "metrics.prom",
                log_dir / "metrics.jsonl",
                every=SERVE_EXPORT_EVERY,
            )
            service = self._service(
                self.config,
                telemetry=telemetry,
                log_dir=log_dir,
                exporter=exporter,
                slos=self._slos(),
            )
            latencies: list[float] = []
            raised: list[str] = []
            decisions = []
            clock = time.process_time
            with service:
                for request in trace:
                    with op_scope() if op_scope else contextlib.nullcontext():
                        started = clock()
                        try:
                            decisions.append(service.handle(request))
                        except Exception as exc:  # counted, not fatal
                            raised.append(f"seq {request.seq}: {exc!r}")
                        latencies.append(clock() - started)
                # Only the (untraced) warm-up reads the final state: a
                # traced iteration makes no program call outside its ops.
                final = None if self._first else self._final_state(service)
            journal = (log_dir / "decisions.jsonl").read_bytes()
        finally:
            shutil.rmtree(log_dir, ignore_errors=True)
        return {
            "journal": journal,
            "latencies": latencies,
            "raised": raised,
            "decisions": decisions,
            "divergences": [
                i for i in service.incidents if i.kind == "oracle-divergence"
            ],
            "final": final,
        }

    def iterate(
        self, op_scope: OpScope | None = None, pause: Pause | None = None
    ) -> Iteration:
        served = []
        for index, trace in enumerate(self.traces, 1):
            served.append(self._serve(trace, op_scope))
            if pause and index % SERVE_PAUSE_EVERY == 0:
                pause(sum(len(run["latencies"]) for run in served))
        digest = _digest(
            *(hashlib.sha256(run["journal"]).hexdigest() for run in served)
        )
        decisions = [d for run in served for d in run["decisions"]]
        raised = [r for run in served for r in run["raised"]]
        divergences = [i for run in served for i in run["divergences"]]
        if self._first is None:
            finals = [run["final"] for run in served]
            self._first = {
                "digest": digest,
                "divergences": [i.detail for i in divergences],
                "raised": raised,
                "decisions": len(decisions),
                "classes_peak": max(
                    (d.class_count for d in decisions), default=0
                ),
                "classes_final": [f["classes_final"] for f in finals],
                "rejects": sum(d.verdict == "reject" for d in decisions),
                "evictions": sum(len(d.evicted) for d in decisions),
                "budget_max": max(f["budget_max"] for f in finals),
            }
        failing = sum(
            len({i.at_seq for i in run["divergences"]}) for run in served
        )
        return Iteration(
            ops=len(decisions),
            attempted=sum(len(trace) for trace in self.traces),
            failed=len(raised) + failing,
            fingerprint=digest,
            latencies=[x for run in served for x in run["latencies"]],
        )

    @staticmethod
    def _final_state(service) -> dict:
        """Admitted classes at the trace's end and their worst B/d."""
        report = service.engine.report()
        return {
            "classes_final": service.class_count,
            "budget_max": max(
                (row.bound / row.deadline for row in report.classes),
                default=0.0,
            ),
        }

    def summary(self) -> dict:
        return dict(self._first)


def check_serve_city(summary: dict) -> list[str]:
    """The oracle agrees; digest equality is checked across iterations."""
    problems = []
    if summary["divergences"]:
        problems.append(
            f"{len(summary['divergences'])} oracle-divergence incident(s)"
        )
    if summary["decisions"] < 1:
        problems.append("no decision made")
    return problems


CHECKS: dict[str, Callable[[dict], list[str]]] = {
    "bus-ddcr": check_bus_ddcr,
    "bus-faults": check_bus_faults,
    "fabric-chain": check_fabric_chain,
    "serve-city": check_serve_city,
}


def build(name: str, seed: int, size: str, tmp_dir: pathlib.Path) -> _Workload:
    """Generate ``name``'s inputs from ``seed`` and build its system."""
    if name == "bus-ddcr":
        return BusWorkload(seed, size, faulted=False)
    if name == "bus-faults":
        return BusWorkload(seed, size, faulted=True)
    if name == "fabric-chain":
        return FabricWorkload(seed, size)
    if name == "serve-city":
        return ServeWorkload(seed, size, tmp_dir)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(CHECKS)})")
