"""The batch-slot kernel's own contract: eligibility, fallback, leap.

The des-vs-batch byte-identity oracle lives in
``test_engine_differential.py``; this file covers what is specific to
:mod:`repro.net.batch` — the structural eligibility matrix and its
recorded reasons, ``auto`` resolution and the DES fallback, running
without numpy, the mid-run DES rejoin out of the kernel itself, and the
idle-leap fast path (which the differential suite never exercises,
because its runs keep tracing on) including its bulk monitor hook.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.faults.models import FaultPlan, StationCrash
from repro.model.arrival import GreedyBurstArrivals
from repro.model.workloads import uniform_problem
from repro.net.batch import BatchKernel, batch_unavailable_reason
from repro.net.channel import BroadcastChannel
from repro.net.network import NetworkSimulation
from repro.net.phy import ATM_BUS, ideal_medium
from repro.net.station import Station
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.sim.engine import Environment
from repro.sim.invariants import (
    InvariantMonitor,
    MonitorSuite,
    standard_suite,
)
from repro.sim.trace import TraceLog

_HORIZON = 250_000
_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _problem(z=5):
    return uniform_problem(z=z, length=1_000, deadline=400_000, a=1, w=200_000)


def _config(problem, **overrides):
    kwargs = dict(
        time_f=16,
        time_m=2,
        class_width=65_536,
        static_q=problem.static_q,
        static_m=problem.static_m,
    )
    kwargs.update(overrides)
    return DDCRConfig(**kwargs)


def _build_channel(
    problem=None,
    config=None,
    medium=None,
    mac_factory=None,
    trace=False,
    load=True,
    horizon=_HORIZON,
):
    problem = problem if problem is not None else _problem()
    config = config if config is not None else _config(problem)
    env = Environment()
    channel = BroadcastChannel(
        env,
        medium if medium is not None else ideal_medium(slot_time=64),
        trace=TraceLog(enabled=trace),
    )
    seq_source = itertools.count()
    for source in problem.sources:
        mac = (
            mac_factory(source) if mac_factory is not None
            else DDCRProtocol(config)
        )
        station = Station(
            station_id=source.source_id,
            mac=mac,
            static_indices=source.static_indices,
            seq_source=seq_source,
        )
        if load:
            for msg_class in source.message_classes:
                station.load_arrivals(
                    msg_class,
                    GreedyBurstArrivals(bound=msg_class.bound),
                    horizon,
                )
        channel.attach(station)
    return channel


def _digest(channel):
    completions = [
        record
        for station in channel.stations
        for record in station.completions
    ]
    return pickle.dumps(
        (
            channel.stats,
            completions,
            list(channel.trace.records()),
            channel.observations,
            [
                (s.mac.mode, s.mac.reft, s.mac.empty_tts_runs,
                 len(s.mac.tts_records), len(s.mac.sts_records),
                 s.mac._sts_member, s.mac._sts_cursor)
                for s in channel.stations
                if isinstance(s.mac, DDCRProtocol)
            ],
        )
    )


# -- eligibility matrix ------------------------------------------------------


def test_eligible_channel_has_no_reason():
    assert batch_unavailable_reason(_build_channel()) is None


def test_foreign_pending_process_is_ineligible():
    channel = _build_channel()

    def ticker():
        yield channel.env.timeout(1_000)

    channel.env.process(ticker())
    assert "foreign processes" in batch_unavailable_reason(channel)


def test_foreign_mac_type_is_ineligible():
    channel = _build_channel(
        mac_factory=lambda source: CSMACDProtocol(seed=source.source_id)
    )
    assert "not plain DDCRProtocol" in batch_unavailable_reason(channel)


def test_differing_configs_are_ineligible():
    problem = _problem()
    configs = iter(
        [_config(problem)] * (len(problem.sources) - 1)
        + [_config(problem, time_f=32)]
    )
    channel = _build_channel(
        problem=problem,
        mac_factory=lambda source: DDCRProtocol(next(configs)),
    )
    assert "differing DDCR configurations" in batch_unavailable_reason(channel)


def test_bursting_is_ineligible():
    problem = _problem()
    channel = _build_channel(
        problem=problem, config=_config(problem, burst_limit=3_000)
    )
    assert "bursting" in batch_unavailable_reason(channel)


def test_non_destructive_medium_is_ineligible():
    channel = _build_channel(medium=ATM_BUS)
    assert "non-destructive" in batch_unavailable_reason(channel)


def test_armed_faults_are_eligible():
    """Faults no longer force the DES: the kernel drives the injector."""
    from repro.faults.runtime import FaultInjector

    channel = _build_channel()
    plan = FaultPlan((StationCrash(station_id=0, at=40_000),))
    injector = FaultInjector(plan)
    injector.arm(channel)
    channel.faults = injector
    assert batch_unavailable_reason(channel) is None
    assert channel.run(_HORIZON, engine="batch") is None
    assert channel.engine_ran == "batch"


def test_consistency_checks_are_ineligible():
    channel = _build_channel()
    channel.check_consistency = True
    assert "consistency checks" in batch_unavailable_reason(channel)


def test_run_batch_falls_back_and_reports_why():
    """Ineligible runs execute on the DES, byte-identically."""
    reference = _build_channel(
        trace=True,
        mac_factory=lambda source: CSMACDProtocol(seed=source.source_id),
    )
    assert reference.run(_HORIZON, engine="des") is None
    assert reference.engine_ran == "des"
    for engine in ("batch", "auto"):
        fallen = _build_channel(
            trace=True,
            mac_factory=lambda source: CSMACDProtocol(seed=source.source_id),
        )
        note = fallen.run(_HORIZON, engine=engine)
        assert note.startswith("batch engine unavailable (station MACs")
        assert note.endswith(": ran des")
        assert fallen.engine_ran == "des"
        assert _digest(fallen) == _digest(reference)


# -- auto resolution and the pure-Python kernel ------------------------------


def _simulation(engine, faults=None, check_consistency=False):
    from repro.net.scenario import Scenario
    from repro.obs.instruments import Telemetry

    problem = _problem()
    config = _config(problem)
    return NetworkSimulation.from_scenario(Scenario(
        problem=problem,
        medium=ideal_medium(slot_time=64),
        protocol_factory=lambda source: DDCRProtocol(config),
        trace=True,
        check_consistency=check_consistency,
        root_seed=3,
        engine=engine,
        faults=faults,
        telemetry=Telemetry(),
    ))


def test_auto_resolves_to_batch_or_des():
    """``auto`` runs the kernel on eligible runs, faulted or not (no
    note), and the DES, with the reason, on a structurally ineligible
    one; the manifest names the tier that executed."""
    clean = _simulation("auto").run(_HORIZON).telemetry
    assert (clean.engine, clean.engine_fallback) == ("batch", None)
    plan = FaultPlan((StationCrash(station_id=0, at=40_000),))
    faulted = _simulation("auto", faults=plan).run(_HORIZON).telemetry
    assert (faulted.engine, faulted.engine_fallback) == ("batch", None)
    checked = _simulation(
        "auto", faults=plan, check_consistency=True
    ).run(_HORIZON).telemetry
    assert checked.engine == "des"
    assert checked.engine_fallback == (
        "batch engine unavailable (per-slot consistency checks "
        "requested): ran des"
    )


def test_pure_python_backend_is_byte_identical():
    """The kernel's list columns reproduce the DES exactly, and an
    eligible batch run reports no fallback note."""
    reference = _build_channel(trace=True)
    reference.run(_HORIZON, engine="des")
    batched = _build_channel(trace=True)
    assert batched.run(_HORIZON, engine="batch") is None
    assert batched.engine_ran == "batch"
    assert batched.env.now == _HORIZON
    assert _digest(batched) == _digest(reference)


def test_numpy_absent_degrades_not_fails(tmp_path):
    """With numpy unimportable the default engine still runs the batch
    kernel — it never needed numpy — and the simulation path does not
    import numpy when it is available either."""
    script = tmp_path / "probe.py"
    script.write_text(
        "import sys\n"
        "block = sys.argv[1] == 'block'\n"
        "if block:\n"
        "    sys.modules['numpy'] = None\n"
        "from repro.model.workloads import uniform_problem\n"
        "from repro.net.network import NetworkSimulation\n"
        "from repro.net.phy import ideal_medium\n"
        "from repro.net.scenario import Scenario\n"
        "from repro.obs.instruments import Telemetry\n"
        "from repro.protocols.ddcr import DDCRConfig, DDCRProtocol\n"
        "problem = uniform_problem(z=5, length=1_000, deadline=400_000,\n"
        "                          a=1, w=200_000)\n"
        "config = DDCRConfig(time_f=16, time_m=2, class_width=65_536,\n"
        "                    static_q=problem.static_q,\n"
        "                    static_m=problem.static_m)\n"
        "result = NetworkSimulation.from_scenario(Scenario(\n"
        "    problem=problem, medium=ideal_medium(slot_time=64),\n"
        "    protocol_factory=lambda source: DDCRProtocol(config),\n"
        "    telemetry=Telemetry())).run(250_000)\n"
        "manifest = result.telemetry\n"
        "print(manifest.engine, manifest.engine_fallback,\n"
        "      len(result.completions), 'numpy' in sys.modules and\n"
        "      sys.modules['numpy'] is not None)\n"
    )
    env = {
        key: value for key, value in os.environ.items()
        if key != "REPRO_ENGINE"
    }
    env.update(PYTHONPATH=_SRC, REPRO_XI_CACHE="off")
    outputs = {}
    for mode in ("block", "allow"):
        done = subprocess.run(
            [sys.executable, str(script), mode],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs[mode] = done.stdout.split()
    engine, note, completions, imported = outputs["block"]
    assert (engine, note, imported) == ("batch", "None", "False")
    assert int(completions) > 0
    assert outputs["allow"] == outputs["block"]


# -- mid-run DES rejoin out of the kernel ------------------------------------


class _ProcessRegisteringMonitor(InvariantMonitor):
    """Monitor that spawns a foreign DES process mid-run.

    Monitors are supported inside the batch kernel, so this forces the
    kernel itself (not a structural fallback) onto the write-back +
    rejoin path partway through a run.
    """

    name = "process_registrar"

    def __init__(self, env, ticks, trigger_after=40):
        super().__init__()
        self._env = env
        self._ticks = ticks
        self._remaining = trigger_after

    def on_slot(
        self, now, duration, state, wire, frame, corrupted, jammed,
        stations, down,
    ):
        if self._remaining > 0:
            self._remaining -= 1
            if self._remaining == 0:
                self._env.process(self._ticker())

    def _ticker(self):
        for _ in range(5):
            yield self._env.timeout(10_000)
            self._ticks.append(self._env.now)


def _run_with_monitor_process(engine):
    channel = _build_channel(trace=True)
    env = channel.env
    ticks: list[float] = []
    channel.monitors = MonitorSuite(
        [_ProcessRegisteringMonitor(env, ticks)]
    )
    assert channel.run(_HORIZON, engine=engine) is None
    assert channel.engine_ran == engine  # eligible: the kernel itself ran
    assert env.now == _HORIZON
    return ticks, _digest(channel)


def test_kernel_rejoins_des_mid_run():
    """A foreign process registered by a monitor mid-run makes the kernel
    write its state back and rejoin the DES — interleaved identically."""
    runs = {
        engine: _run_with_monitor_process(engine)
        for engine in ("des", "batch")
    }
    ticks = {engine: run[0] for engine, run in runs.items()}
    assert len(ticks["batch"]) == 5  # the ticker really ran to completion
    assert ticks["des"] == ticks["batch"]
    digests = {run[1] for run in runs.values()}
    assert len(digests) == 1


# -- the idle leap -----------------------------------------------------------


def _run_untraced(engine, config=None, jam=None, load=True, problem=None):
    """Trace/monitors/telemetry all off — the leap-eligible regime."""
    channel = _build_channel(
        trace=False, config=config, load=load, problem=problem
    )
    if jam is not None:
        channel.jam_from, channel.jam_until = jam
    channel.run(_HORIZON, engine=engine)
    assert channel.env.now == _HORIZON
    return _digest(channel)


@pytest.mark.parametrize(
    "case",
    [
        {},  # bursty workload: long idle stretches between windows
        {"load": False},  # fully idle run: one leap to the horizon
        {"jam": (80_000, 120_000)},  # leap must stop at the jam window
        {"exit_on_idle": True},  # FREE-mode idle instead of fresh-TTs
    ],
    ids=["bursty", "all-idle", "jam-window", "exit-to-free"],
)
def test_idle_leap_is_byte_identical(case):
    problem = _problem()
    config = (
        _config(problem, exit_to_free_on_idle=True)
        if case.get("exit_on_idle")
        else None
    )
    runs = {
        _run_untraced(
            engine,
            config=config,
            jam=case.get("jam"),
            load=case.get("load", True),
            problem=problem,
        )
        for engine in ("des", "batch")
    }
    assert len(runs) == 1


def _leap_spy(monkeypatch):
    """Record every leap as (the channel's telemetry prefix, slots)."""
    leaps = []
    original = BatchKernel._try_leap

    def spy(self, now, horizon):
        n = original(self, now, horizon)
        if n:
            leaps.append((self.channel.telemetry_prefix, n))
        return n

    monkeypatch.setattr(BatchKernel, "_try_leap", spy)
    return leaps


def test_idle_leap_actually_engages(monkeypatch):
    """The leap-identity tests are only meaningful if leaps happen: count
    them on the bursty workload and require multi-slot advances."""
    leaps = _leap_spy(monkeypatch)
    _run_untraced("batch")
    assert max((n for _, n in leaps), default=0) > 1


def test_leap_disabled_under_trace_and_monitors():
    """Tracing, the flight recorder and any monitor that can only digest
    slots one by one force per-slot execution; monitors with a bulk
    ``on_idle`` hook (every built-in one) keep the leap."""
    from repro.obs.tracer import FlightRecorder

    assert not BatchKernel(_build_channel(trace=True))._leap_ok
    assert BatchKernel(_build_channel(trace=False))._leap_ok
    recorded = _build_channel(trace=False)
    recorded.tracer = FlightRecorder()
    assert not BatchKernel(recorded)._leap_ok
    per_slot = _build_channel(trace=False)
    per_slot.monitors = MonitorSuite(
        [_ProcessRegisteringMonitor(per_slot.env, [])]
    )
    assert not per_slot.monitors.idle_ok
    assert not BatchKernel(per_slot)._leap_ok
    monitored = _build_channel(trace=False)
    monitored.monitors = standard_suite(monitored.stations)
    assert monitored.monitors.idle_ok
    assert BatchKernel(monitored)._leap_ok


def test_monitored_leap_is_byte_identical(monkeypatch):
    """Armed standard monitors no longer disable the leap, and their
    reports, slot counts and the run itself stay byte-identical to the
    DES, which digests every idle slot one by one."""
    leaps = _leap_spy(monkeypatch)

    def run(engine):
        channel = _build_channel(trace=False)
        channel.monitors = standard_suite(channel.stations)
        channel.run(_HORIZON, engine=engine)
        report = channel.monitors.finalize(_HORIZON, channel.stations)
        assert report.ok, report.summary()
        return _digest(channel), pickle.dumps(report)

    reference = run("des")
    assert not leaps
    assert run("batch") == reference
    assert max((n for _, n in leaps), default=0) > 1


@pytest.mark.parametrize(
    "crash",
    [
        StationCrash(station_id=1, at=40_000, restart_at=120_000),
        StationCrash(station_id=1, at=40_000),
    ],
    ids=["crash-restart", "crash"],
)
def test_faulted_leap_is_capped_and_identical(monkeypatch, crash):
    """Without noise gates a faulted run keeps the leap, capped at the
    next crash/restart and off while a station is down or solo: no leap
    spans a fault event, and the run stays identical to the DES."""
    from repro.faults.runtime import FaultInjector

    spans = []
    original = BatchKernel._try_leap

    def spy(self, now, horizon):
        n = original(self, now, horizon)
        if n:
            spans.append((now, now + n * self.slot_time))
        return n

    monkeypatch.setattr(BatchKernel, "_try_leap", spy)

    def run(engine):
        problem = _problem()
        config = _config(problem)
        channel = _build_channel(problem=problem, config=config)
        injector = FaultInjector(FaultPlan((crash,)))

        def reset_mac(station):
            station.mac = DDCRProtocol(config)
            station.mac.attach(station)

        injector.arm(channel, reset_mac=reset_mac)
        channel.faults = injector
        channel.monitors = standard_suite(channel.stations)
        channel.run(_HORIZON, engine=engine)
        report = channel.monitors.finalize(
            _HORIZON, channel.stations, down=injector.down
        )
        return _digest(channel), pickle.dumps(report)

    reference = run("des")
    assert run("batch") == reference
    events = [at for at in (crash.at, crash.restart_at) if at is not None]
    # A leap from the first burst's tail runs into the crash and stops
    # right at it (the round that fires the crash runs normally).
    assert any(stop - 64 < crash.at <= stop for _, stop in spans)
    for start, stop in spans:
        # The round at ``start`` ran ``begin_round``; no leaped slot after
        # it may reach an event.  None leaps once the station is down,
        # nor after its restart (it is solo from then on).
        assert not any(start < at <= stop - 64 for at in events)
        assert start < crash.at


def test_fabric_downstream_segment_leaps(monkeypatch):
    """A fabric downstream segment arms ``bridge_conservation``; the
    monitor's bulk idle hook lets that segment leap, and the fabric's
    results, invariant reports and telemetry stay identical to the DES."""
    from repro.experiments.harness import build_chain_topology
    from repro.net.fabric import Fabric
    from repro.obs.instruments import Telemetry

    leaps = _leap_spy(monkeypatch)

    def run(engine):
        topology, _ = build_chain_topology(
            segments=2, z=4, medium=ideal_medium(slot_time=64),
            deadline=2_000_000, a=1, w=400_000, root_seed=5,
            engine=engine, monitors=True, telemetry=Telemetry(),
        )
        result = Fabric(topology).run(1_500_000)
        downstream = topology.segments[1].name
        report = result.segments[downstream].invariants
        assert "bridge_conservation" in report.monitors
        assert report.ok, report.summary()
        return downstream, pickle.dumps((
            {name: (seg.stats, seg.completions, seg.invariants)
             for name, seg in result.segments.items()},
            result.bridges,
            result.journeys,
            result.telemetry.content_json(),
        ))

    downstream, reference = run("des")
    assert not leaps
    assert run("batch") == (downstream, reference)
    assert max(n for prefix, n in leaps if prefix == f"{downstream}/") > 1


def test_bridge_monitor_idle_stretch_matches_des(monkeypatch):
    """Bridge entries that fall inside an idle stretch (a schedule the
    station's arrivals do not mirror) make ``on_idle`` replay slot by
    slot: the capacity-0 occupancy violations land on the same slots as
    under the DES."""
    from repro.sim.invariants import BridgeConservationMonitor

    leaps = _leap_spy(monkeypatch)

    def run(engine):
        channel = _build_channel(trace=False)
        channel.monitors = MonitorSuite([
            BridgeConservationMonitor(
                bridge="ghost->here",
                station_id=0,
                schedule={"uniform-0": (100_003, 150_777, 230_001)},
                capacity=0,
            )
        ])
        channel.run(_HORIZON, engine=engine)
        report = channel.monitors.finalize(_HORIZON, channel.stations)
        assert report.by_invariant("bridge_conservation")
        return _digest(channel), pickle.dumps(report)

    reference = run("des")
    assert run("batch") == reference
    assert max((n for _, n in leaps), default=0) > 1
