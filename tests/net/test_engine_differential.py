"""Differential tests: the batch engine is byte-identical to the DES.

The struct-of-arrays batch kernel (``run(horizon, engine="batch")``, and
``auto`` which resolves to it on eligible runs) must be
indistinguishable from the general DES by results: same
:class:`ChannelStats`, same completion records, same trace stream, same
final clock — across protocols, noise, jamming, bursting, every fault
model the injector arms, and the automatic fallback paths (foreign
processes at entry and mid-run, structural batch ineligibility).
"""

from __future__ import annotations

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.models import (
    ArrivalBurst,
    BabblingStation,
    BernoulliNoise,
    BusJam,
    ClockDrift,
    FaultPlan,
    GilbertElliottNoise,
    StationCrash,
)
from repro.faults.runtime import FaultInjector
from repro.model.arrival import GreedyBurstArrivals
from repro.model.workloads import uniform_problem
from repro.net.channel import BroadcastChannel
from repro.net.dualbus import DualBusSimulation, suggested_jam_threshold
from repro.net.engine import resolve_engine, use_engine
from repro.net.network import NetworkSimulation
from repro.net.phy import ideal_medium
from repro.net.station import Station
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.protocols.tdma import TDMAProtocol
from repro.sim.engine import Environment
from repro.sim.trace import TraceLog

ENGINES = ("des", "auto", "batch")
_HORIZON = 250_000


def _ddcr_config(problem, burst_limit=0):
    return DDCRConfig(
        time_f=16,
        time_m=2,
        class_width=65_536,
        static_q=problem.static_q,
        static_m=problem.static_m,
        burst_limit=burst_limit,
    )


def _protocol_factory(protocol: str, problem, burst_limit=0):
    if protocol == "ddcr":
        config = _ddcr_config(problem, burst_limit)
        return lambda source: DDCRProtocol(config)
    if protocol == "csma_cd":
        return lambda source: CSMACDProtocol(seed=source.source_id)
    roster = tuple(source.source_id for source in problem.sources)
    return lambda source: TDMAProtocol(roster)


def _snapshot(stats, completions, trace):
    """Picklable byte-for-byte digest of one run's observable output."""
    return pickle.dumps((stats, completions, list(trace.records())))


def _run_network(
    engine, protocol, z=6, noise=0.0, burst_limit=0, seed=0,
    faults=None, horizon=_HORIZON,
):
    problem = uniform_problem(
        z=z, length=1_000, deadline=400_000, a=1, w=200_000
    )
    simulation = NetworkSimulation(
        problem,
        ideal_medium(slot_time=64),
        protocol_factory=_protocol_factory(protocol, problem, burst_limit),
        trace=True,
        noise_rate=noise,
        noise_seed=seed,
        root_seed=seed,
        engine=engine,
        faults=faults,
        monitors=None if faults is not None else False,
    )
    result = simulation.run(horizon)
    return pickle.dumps(
        (
            result.stats,
            result.completions,
            list(result.trace.records()),
            result.invariants,
        )
    )


@pytest.mark.parametrize("protocol", ["ddcr", "csma_cd", "tdma"])
@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_engines_identical_across_protocols(protocol, noise):
    """Stats, completions and traces match byte-for-byte, noise or not."""
    runs = [_run_network(engine, protocol, noise=noise) for engine in ENGINES]
    assert len(set(runs)) == 1


def test_engines_identical_with_bursting():
    """DDCR packet bursting (section 5) follows the same slot sequence."""
    runs = [
        _run_network(engine, "ddcr", noise=0.01, burst_limit=3_000)
        for engine in ENGINES
    ]
    assert len(set(runs)) == 1


def _run_manual_channel(engine, jam_from=None, noise=0.0):
    """Hand-built channel (no NetworkSimulation) with optional jamming."""
    problem = uniform_problem(
        z=5, length=1_000, deadline=400_000, a=1, w=200_000
    )
    config = _ddcr_config(problem)
    env = Environment()
    trace = TraceLog(enabled=True)
    channel = BroadcastChannel(
        env,
        ideal_medium(slot_time=64),
        trace=trace,
        noise_rate=noise,
        noise_seed=11,
    )
    seq_source = itertools.count()
    stations = []
    for source in problem.sources:
        station = Station(
            station_id=source.source_id,
            mac=DDCRProtocol(config),
            static_indices=source.static_indices,
            seq_source=seq_source,
        )
        for msg_class in source.message_classes:
            station.load_arrivals(
                msg_class, GreedyBurstArrivals(bound=msg_class.bound), _HORIZON
            )
        channel.attach(station)
        stations.append(station)
    channel.jam_from = jam_from
    # The unified entry point owns the dispatch for every engine.
    channel.run(_HORIZON, engine=engine)
    assert env.now == _HORIZON
    completions = [
        record for station in stations for record in station.completions
    ]
    return _snapshot(channel.stats, completions, trace)


@pytest.mark.parametrize("noise", [0.0, 0.03])
def test_engines_identical_under_mid_run_jamming(noise):
    """A bus jammed from mid-run on: every later slot collides, identically."""
    runs = [
        _run_manual_channel(engine, jam_from=_HORIZON // 2, noise=noise)
        for engine in ENGINES
    ]
    assert len(set(runs)) == 1


def _run_with_foreign_process(engine):
    """An eligible DDCR channel whose trace subscriber registers a foreign
    DES process after 40 slots — as a host extension would."""
    problem = uniform_problem(
        z=4, length=1_000, deadline=400_000, a=1, w=200_000
    )
    config = _ddcr_config(problem)
    env = Environment()
    trace = TraceLog(enabled=True)
    channel = BroadcastChannel(
        env, ideal_medium(slot_time=64), trace=trace
    )
    seq_source = itertools.count()
    ticks: list[float] = []
    stations = []
    for source in problem.sources:
        station = Station(
            station_id=source.source_id,
            mac=DDCRProtocol(config),
            static_indices=source.static_indices,
            seq_source=seq_source,
        )
        for msg_class in source.message_classes:
            station.load_arrivals(
                msg_class, GreedyBurstArrivals(bound=msg_class.bound), _HORIZON
            )
        channel.attach(station)
        stations.append(station)

    def ticker():
        for _ in range(5):
            yield env.timeout(10_000)
            ticks.append(env.now)

    slots = []

    def on_record(record):
        slots.append(record)
        if len(slots) == 40:
            env.process(ticker())

    trace.subscribe(on_record)
    note = channel.run(_HORIZON, engine=engine)
    assert note is None  # eligible: the kernel itself started the run
    assert env.now == _HORIZON
    completions = [
        record for station in stations for record in station.completions
    ]
    return ticks, channel.engine_ran, _snapshot(
        channel.stats, completions, trace
    )


def test_fast_loop_rejoins_des_mid_run():
    """A foreign process appearing mid-run makes the batch kernel's loop
    rejoin the DES after the current slot — interleaved identically."""
    des_ticks, des_tier, des_run = _run_with_foreign_process("des")
    batch_ticks, batch_tier, batch_run = _run_with_foreign_process("batch")
    assert (des_tier, batch_tier) == ("des", "batch")
    assert len(des_ticks) == 5  # ticker actually ran
    assert des_ticks == batch_ticks
    assert des_run == batch_run


def _run_dualbus(engine):
    problem = uniform_problem(
        z=4, length=1_000, deadline=400_000, a=1, w=200_000
    )
    config = _ddcr_config(problem)
    simulation = DualBusSimulation(
        problem,
        ideal_medium(slot_time=64),
        protocol_factory=lambda source: DDCRProtocol(config),
        jam_threshold=suggested_jam_threshold(config),
        fail_bus_at=_HORIZON // 3,
        trace=True,
        engine=engine,
    )
    result = simulation.run(_HORIZON)
    return pickle.dumps(
        (
            result.bus_stats,
            result.failovers,
            result.completions,
            [list(trace.records()) for trace in result.traces],
        )
    )


def test_dualbus_engine_fallback_is_identical():
    """Two channels on one clock: auto and batch must fall back to the
    DES and still produce byte-identical results (failover included)."""
    assert _run_dualbus("des") == _run_dualbus("auto") == _run_dualbus("batch")


def test_seed_randomized_engine_equivalence():
    """Random z / noise / protocol / seed combos agree across engines."""
    rng = random.Random(0xDDC2)
    for _ in range(8):
        protocol = rng.choice(["ddcr", "csma_cd", "tdma"])
        z = rng.randint(2, 10)
        noise = rng.choice([0.0, 0.005, 0.02, 0.05])
        burst = rng.choice([0, 3_000]) if protocol == "ddcr" else 0
        seed = rng.randint(0, 2**31)
        runs = [
            _run_network(
                engine, protocol, z=z, noise=noise, burst_limit=burst,
                seed=seed,
            )
            for engine in ENGINES
        ]
        assert len(set(runs)) == 1, (protocol, z, noise, burst, seed)


def test_same_engine_repetition_is_deterministic():
    """Two identical runs on one engine are byte-identical (run-local
    sequence numbers: no process-global state leaks into results)."""
    for engine in ENGINES:
        assert _run_network(engine, "ddcr", noise=0.01) == _run_network(
            engine, "ddcr", noise=0.01
        )


@settings(max_examples=15)
@given(
    protocol=st.sampled_from(["ddcr", "csma_cd", "tdma"]),
    noise=st.sampled_from([0.0, 0.02]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_empty_fault_plan_is_byte_identical_to_fault_free(
    protocol, noise, seed
):
    """An empty FaultPlan must be indistinguishable from no plan at all —
    same RNG draw order, same results — under every engine.  (This is the
    premise that lets RunSpec normalise empty plans to fault-free hashes.)"""
    for engine in ENGINES:
        plain = _run_network(
            engine, protocol, z=3, noise=noise, seed=seed, horizon=60_000
        )
        empty = _run_network(
            engine, protocol, z=3, noise=noise, seed=seed, horizon=60_000,
            faults=FaultPlan(),
        )
        assert plain == empty


_FAULT_POOL = (
    FaultPlan((GilbertElliottNoise(
        p_enter_bad=0.002, p_exit_bad=0.05, bad_rate=0.5),)),
    FaultPlan((StationCrash(station_id=0, at=40_000, restart_at=120_000),)),
    FaultPlan((BabblingStation(start=40_000, stop=60_000, period=8),)),
    FaultPlan((ClockDrift(station_id=0, skew_per_slot=4.0),)),
    FaultPlan((
        GilbertElliottNoise(p_enter_bad=0.002, p_exit_bad=0.05, bad_rate=0.5),
        StationCrash(station_id=1, at=40_000, restart_at=120_000),
    )),
)


def test_seed_randomized_faulted_equivalence():
    """Random (plan, protocol, seed) combos agree across engines — stats,
    completions, traces AND invariant-violation reports byte-for-byte."""
    rng = random.Random(0xFA017)
    for _ in range(6):
        plan = rng.choice(_FAULT_POOL)
        protocol = rng.choice(["ddcr", "tdma"])
        seed = rng.randint(0, 2**31)
        runs = [
            _run_network(engine, protocol, seed=seed, faults=plan)
            for engine in ENGINES
        ]
        assert len(set(runs)) == 1, (plan, protocol, seed)


def _run_telemetry(engine, protocol="ddcr", noise=0.0, seed=0, faults=None):
    from repro.obs.instruments import Telemetry

    problem = uniform_problem(
        z=6, length=1_000, deadline=400_000, a=1, w=200_000
    )
    simulation = NetworkSimulation(
        problem,
        ideal_medium(slot_time=64),
        protocol_factory=_protocol_factory(protocol, problem),
        noise_rate=noise,
        noise_seed=seed,
        root_seed=seed,
        engine=engine,
        faults=faults,
        monitors=False if faults is None else None,
        telemetry=Telemetry(),
    )
    manifest = simulation.run(_HORIZON).telemetry
    assert manifest is not None
    return manifest


@pytest.mark.parametrize("protocol", ["ddcr", "csma_cd", "tdma"])
def test_telemetry_identical_across_engines(protocol):
    """The deterministic manifest projection — counters, gauges,
    histograms, span structure — is byte-identical across engines.
    (Wall-clock span durations and the engine label are excluded by
    :meth:`RunTelemetry.content_json`; they describe how the run was
    driven, not what it computed.)"""
    des, auto, batch = (
        _run_telemetry(engine, protocol, noise=0.01) for engine in ENGINES
    )
    assert des.content_json() == auto.content_json() == batch.content_json()
    # The manifest records the tier that executed, not the request.
    assert des.engine == "des" and des.engine_fallback is None
    if protocol == "ddcr":
        # Eligible run: the kernel itself executed, with no note.
        assert auto.engine == batch.engine == "batch"
        assert auto.engine_fallback is None and batch.engine_fallback is None
    else:
        # Foreign MAC types: structural fallback to the DES, reason
        # recorded.
        assert auto.engine == batch.engine == "des"
        for manifest in (auto, batch):
            assert manifest.engine_fallback.startswith(
                "batch engine unavailable (station MACs are not plain"
            )
            assert manifest.engine_fallback.endswith(": ran des")


def test_telemetry_identical_across_engines_under_faults():
    """Fault-gate fire counters and faulted slot outcomes agree too."""
    plan = _FAULT_POOL[4]  # burst noise + crash/restart
    des, auto, batch = (
        _run_telemetry(engine, "ddcr", seed=7, faults=plan)
        for engine in ENGINES
    )
    assert des.content_json() == auto.content_json() == batch.content_json()
    assert des.counters["faults/crash"] == 1
    assert des.counters["faults/restart"] == 1
    assert des.fault_plan is not None
    # An armed injector is batch-eligible: ``auto`` and ``batch`` ran the
    # kernel itself, with no fallback note.
    for manifest in (auto, batch):
        assert manifest.engine == "batch"
        assert manifest.engine_fallback is None
    assert des.engine == "des" and des.engine_fallback is None


# -- every fault model on the batch kernel ----------------------------------

#: One plan per fault model.  A crash with restart comes in several
#: timings: in an idle gap, in the middle of the first burst's resolution,
#: and with both events inside one silent slot, one collision slot or one
#: success frame, so that they fire in the same round.
_FAULT_MODELS = {
    "bernoulli": FaultPlan((BernoulliNoise(rate=0.02),)),
    "gilbert-elliott": FaultPlan((GilbertElliottNoise(
        p_enter_bad=0.002, p_exit_bad=0.05, bad_rate=0.5),)),
    "crash": FaultPlan((StationCrash(station_id=0, at=40_000),)),
    "crash-restart": FaultPlan((
        StationCrash(station_id=0, at=40_000, restart_at=120_000),
    )),
    "crash-restart-mid-resolution": FaultPlan((
        StationCrash(station_id=2, at=2_000, restart_at=5_000),
    )),
    "crash-restart-within-idle-slot": FaultPlan((
        StationCrash(station_id=0, at=40_001, restart_at=40_010),
    )),
    "crash-restart-within-collision-slot": FaultPlan((
        StationCrash(station_id=5, at=4_650, restart_at=4_700),
    )),
    "crash-restart-within-frame": FaultPlan((
        StationCrash(station_id=4, at=1_700, restart_at=2_400),
    )),
    "drift": FaultPlan((ClockDrift(
        station_id=1, skew_per_slot=8.0, start=1_000, stop=220_000),)),
    "babbler": FaultPlan((BabblingStation(
        start=40_000, stop=60_000, period=8),)),
    "bus-jam": FaultPlan((BusJam(start=80_000, stop=90_000),)),
    "arrival-burst": FaultPlan((
        ArrivalBurst(station_id=3, at=100_000, count=4),
    )),
}


def _run_faulted(engine, plan, traced):
    """One monitored faulted run: everything it computed, and its manifest.

    Traced runs execute every slot; untraced ones let the batch kernel
    leap idle stretches wherever the plan allows it."""
    from repro.net.scenario import Scenario
    from repro.obs.instruments import Telemetry

    problem = uniform_problem(
        z=6, length=1_000, deadline=400_000, a=1, w=200_000
    )
    simulation = NetworkSimulation.from_scenario(Scenario(
        problem=problem,
        medium=ideal_medium(slot_time=64),
        protocol_factory=_protocol_factory("ddcr", problem),
        trace=traced,
        root_seed=5,
        engine=engine,
        faults=plan,
        monitors=True,
        telemetry=Telemetry(),
    ))
    result = simulation.run(_HORIZON)
    manifest = result.telemetry
    snapshot = pickle.dumps((
        result.stats,
        result.completions,
        result.backlog(),
        list(result.trace.records()) if traced else None,
        result.invariants,
        manifest.content_json(),
    ))
    return snapshot, manifest


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "leaping"])
@pytest.mark.parametrize("model", list(_FAULT_MODELS))
def test_every_fault_model_runs_on_batch_identically(model, traced):
    """Each fault model, monitors armed: the batch kernel itself runs it
    (no fallback note) and matches the DES byte for byte — stats,
    completions, backlog, trace, invariant report and telemetry."""
    plan = _FAULT_MODELS[model]
    des, des_manifest = _run_faulted("des", plan, traced)
    batch, manifest = _run_faulted("batch", plan, traced)
    assert batch == des
    assert (des_manifest.engine, des_manifest.engine_fallback) == ("des", None)
    assert (manifest.engine, manifest.engine_fallback) == ("batch", None)


def _run_faulted_with_foreign_process(engine):
    """A hand-armed channel under a plan that combines every station-level
    fault, whose trace subscriber registers a foreign DES process while
    station 1 is down: the kernel rejoins the DES with one station
    crashed and one drifting solo."""
    from repro.sim.invariants import standard_suite

    problem = uniform_problem(
        z=5, length=1_000, deadline=400_000, a=1, w=200_000
    )
    config = _ddcr_config(problem)
    env = Environment()
    trace = TraceLog(enabled=True)
    channel = BroadcastChannel(env, ideal_medium(slot_time=64), trace=trace)
    seq_source = itertools.count()
    for source in problem.sources:
        station = Station(
            station_id=source.source_id,
            mac=DDCRProtocol(config),
            static_indices=source.static_indices,
            seq_source=seq_source,
        )
        for msg_class in source.message_classes:
            station.load_arrivals(
                msg_class, GreedyBurstArrivals(bound=msg_class.bound), _HORIZON
            )
        channel.attach(station)

    def reset_mac(station):
        station.mac = DDCRProtocol(config)
        station.mac.attach(station)

    injector = FaultInjector(FaultPlan((
        GilbertElliottNoise(p_enter_bad=0.01, p_exit_bad=0.2, bad_rate=0.3),
        StationCrash(station_id=1, at=30_000, restart_at=90_000),
        ClockDrift(station_id=2, skew_per_slot=8.0),
        BabblingStation(start=20_000, stop=40_000, period=16),
        ArrivalBurst(station_id=4, at=60_000, count=3),
        BusJam(start=150_000, stop=152_000),
    )), rng=random.Random(9))
    injector.arm(
        channel,
        reset_mac=reset_mac,
        resolve_class=lambda station, name: problem.sources[
            station.station_id
        ].message_classes[0],
    )
    channel.faults = injector
    channel.monitors = standard_suite(channel.stations)
    ticks: list[float] = []

    def ticker():
        for _ in range(5):
            yield env.timeout(10_000)
            ticks.append(env.now)

    def on_record(record):
        if not ticks and record.time >= 50_000:
            ticks.append(-1)  # marks the registration
            env.process(ticker())

    trace.subscribe(on_record)
    assert channel.run(_HORIZON, engine=engine) is None
    assert env.now == _HORIZON
    report = channel.monitors.finalize(
        _HORIZON, channel.stations, down=injector.down
    )
    completions = [
        record for station in channel.stations
        for record in station.completions
    ]
    return ticks, channel.engine_ran, pickle.dumps((
        _snapshot(channel.stats, completions, trace),
        report,
        injector.fire_counts,
        [station.mac.public_state() for station in channel.stations],
    ))


def test_faulted_batch_run_rejoins_des_mid_run():
    """The mid-run DES rejoin out of a faulted kernel run: the write-back
    leaves the crashed MAC frozen and the solo MACs their own, and the
    DES finishes the run exactly as if it had run it all."""
    des_ticks, des_tier, des_run = _run_faulted_with_foreign_process("des")
    ticks, tier, run = _run_faulted_with_foreign_process("batch")
    assert (des_tier, tier) == ("des", "batch")
    assert len(des_ticks) == 6  # registration mark plus five ticks
    assert ticks == des_ticks
    assert run == des_run


def _run_restart_during_resolution(engine):
    """64 GbE stations whose station 54 restarts while a collision
    resolution is in progress — a run that livelocks the bus (a known
    protocol defect) and the hardest case for solo-station driving: a
    fresh MAC enters mid-search and never rejoins the lockstep."""
    from repro.experiments.harness import ddcr_factory, default_ddcr_config
    from repro.net.phy import GIGABIT_ETHERNET
    from repro.net.scenario import Scenario
    from repro.obs.instruments import Telemetry

    problem = uniform_problem(z=64, scale=3.0)
    phases = random.Random(1)
    result = NetworkSimulation.from_scenario(Scenario(
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
            StationCrash(station_id=54, at=2_395_424, restart_at=3_916_000),
        )),
        engine=engine,
        telemetry=Telemetry(),
    )).run(6_000_000)
    manifest = result.telemetry
    return manifest.engine, result.invariants, pickle.dumps((
        result.stats,
        result.completions,
        result.backlog(),
        result.invariants,
        manifest.content_json(),
    ))


def test_restart_during_resolution_matches_des():
    """batch == des on the livelock scenario: the same violations, the
    same stranded backlog, the same telemetry."""
    des_tier, report, des = _run_restart_during_resolution("des")
    tier, _, batch = _run_restart_during_resolution("batch")
    assert (des_tier, tier) == ("des", "batch")
    assert not report.ok  # the defect shows, identically on both engines
    assert batch == des


def test_dualbus_telemetry_identical_across_engines():
    """Per-bus instrument namespaces survive the dual-bus DES fallback."""
    from repro.obs.instruments import Telemetry

    def run(engine):
        problem = uniform_problem(
            z=4, length=1_000, deadline=400_000, a=1, w=200_000
        )
        config = _ddcr_config(problem)
        simulation = DualBusSimulation(
            problem,
            ideal_medium(slot_time=64),
            protocol_factory=lambda source: DDCRProtocol(config),
            jam_threshold=suggested_jam_threshold(config),
            fail_bus_at=_HORIZON // 3,
            engine=engine,
            telemetry=Telemetry(),
        )
        manifest = simulation.run(_HORIZON).telemetry
        assert manifest is not None
        return manifest

    des, auto, batch = (run(engine) for engine in ENGINES)
    assert des.content_json() == auto.content_json() == batch.content_json()
    assert des.counters["bus0/slots/success"] > 0
    assert des.counters["bus1/slots/success"] > 0
    assert des.gauges["failovers"] >= 1
    # Dual-bus shares one clock between two channels, so batch falls
    # back at entry (bus A's process is pending) and the manifest says so.
    assert des.engine == auto.engine == batch.engine == "des"
    assert "foreign processes pending" in batch.engine_fallback
    assert auto.engine_fallback == batch.engine_fallback


def test_engine_resolution_and_scoping():
    """`auto` resolves through the scoped default; bad names are rejected."""
    assert resolve_engine("des") == "des"
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("warp")
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("fastloop")  # the deleted third tier
    with pytest.raises(ValueError, match="unknown engine"):
        NetworkSimulation(
            uniform_problem(z=2),
            ideal_medium(slot_time=64),
            protocol_factory=lambda s: CSMACDProtocol(),
            engine="warp",
        )
    before = resolve_engine(None)
    with use_engine("des"):
        assert resolve_engine(None) == "des"
    assert resolve_engine(None) == before
