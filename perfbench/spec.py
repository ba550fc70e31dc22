"""What the benchmark measures: workloads, metrics and their expected movers.

This module is the single source of truth that ``BENCHMARK.json`` mirrors
(the tests hold the two together).  ``BENCHMARK.json`` has a fixed key set,
so the facts it cannot carry live here:

* :data:`HELD_OUT_SEED` — a seed no tuning run used; a later claim of a
  gain is re-checked on it;
* :data:`PER_LAYER`'s ``moves`` field — which end-to-end metric, on which
  workload, each layer metric is expected to move.

Every per-layer time and count is per *iteration*: one simulation run for
the three simulation workloads, one pass over the admission traces for
``serve-city``.  Iterations of one seed are identical, so per-iteration
counts repeat exactly however many iterations fit in a run.  Span times
are wall time: a CPU-time clock read costs a system call, and the traced
run makes millions of them.
"""

from __future__ import annotations

#: Seed kept out of every tuning run; re-check claimed gains on it.
HELD_OUT_SEED = 9173

#: Reference host speed: every host time is scaled to a host on which
#: ``worker.calibrate`` reads this many seconds (this two-vCPU VM read
#: 18-31 ms, swinging between a fast and a slow phase).
REF_CALIB_S = 0.025

WORKLOADS: dict[str, str] = {
    "bus-ddcr": (
        "64-station GbE bus at the highest load the FC admits, synchronized "
        "bursts: collision resolution dominates and B_DDCR must hold"
    ),
    "bus-faults": (
        "same bus with burst noise and a crash/restart: batch-ineligible, "
        "per-station MAC calls, auto-armed monitors and the fault injector"
    ),
    "fabric-chain": (
        "4x64-station bridged chain at light load: idle slots, bridge "
        "monitors, hand-off and journey matching dominate"
    ),
    "serve-city": (
        "closed-loop city admission trace through serve with journal, "
        "export, SLOs and oracle counter-checks: core feasibility and obs"
    ),
}

#: The end-to-end metrics, reported on every workload.  An *op* is a
#: delivered message (buses), a hop delivery summed over segments (fabric)
#: or an admission decision (serve).
#:
#: Every host time is the workload process's CPU time scaled to the
#: reference host speed :data:`REF_CALIB_S` by a calibration loop timed
#: around it (see ``worker.py``).  On a shared host the wall clock also
#: counts the time co-tenants hold the CPU (on a two-vCPU VM a fixed
#: loop's wall time spread by 38% of its median between quartiles), and
#: raw CPU time still swings by up to 1.6x in phases of tens of seconds;
#: the workloads are single-threaded and CPU-bound.  Each run also prints
#: its raw CPU figures.
#:
#: * ``setup_s`` — median over fresh processes of the CPU time from
#:   interpreter start through imports, inputs from the seed, system build
#:   and one warm-up iteration;
#: * ``ops_per_s`` — ops over the CPU time of every iteration of the whole
#:   timed phase;
#: * ``op_p50_us``/``op_p99_us`` — CPU time of an op: one ``handle`` call on
#:   serve-city; on the simulations the run that delivered the message,
#:   since a caller waits for the whole run;
#: * ``budget_max`` — simulated worst latency over its analytic bound
#:   (per-class B_DDCR on the buses, the composed route bound on the
#:   fabric); on serve-city the final admitted set's worst B_DDCR/deadline;
#: * ``ok_share`` — one minus the share of arrived messages dropped or late,
#:   or of sent requests that raised or drew an oracle-divergence incident;
#: * ``peak_rss_mb`` — the measured process's own peak resident memory.
#:
#: (name, unit, better, bound) — bound is the tolerated relative worsening.
#: Host-time metrics get the widest bound: even in CPU time the host's
#: speed drifts by several percent between runs (``host.calib_s`` shows
#: it), and serve-city's work still differs a little from seed to seed.
#: ``ok_share`` is the complement of the failure share, which is zero on
#: every workload and so cannot carry a relative bound.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_p99_us", "us", "lower", 0.25),
    ("budget_max", "ratio", "lower", 0.2),
    ("ok_share", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: (name, unit, better, moves) — ``moves`` names the end-to-end metric and
#: workload a change to this layer should show up in.
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("model.load_arrivals_s", "s", "lower",
     "ops_per_s on fabric-chain more than on bus-ddcr"),
    ("model.arrivals", "count", "higher",
     "ops_per_s on fabric-chain more than on bus-ddcr"),
    ("net.channel_run_s", "s", "lower",
     "ops_per_s on bus-ddcr (busy path) and fabric-chain (idle path)"),
    ("net.us_per_round", "us", "lower",
     "ops_per_s on bus-ddcr (busy path) and fabric-chain (idle path)"),
    ("net.rounds", "count", "lower",
     "ops_per_s on bus-ddcr and fabric-chain"),
    ("net.rounds_per_msg", "ratio", "lower",
     "ops_per_s on bus-ddcr and fabric-chain"),
    ("net.channel_runs", "count", "lower",
     "ops_per_s on fabric-chain"),
    ("net.fallback_runs", "count", "lower",
     "ops_per_s on bus-faults and fabric-chain"),
    ("protocols.mac_calls", "count", "lower",
     "ops_per_s on bus-faults; near zero on bus-ddcr once batch runs it"),
    ("protocols.mac_s", "s", "lower",
     "ops_per_s on bus-faults; near zero on bus-ddcr once batch runs it"),
    ("sim.monitor_calls", "count", "lower",
     "ops_per_s on bus-faults and fabric-chain; zero on bus-ddcr"),
    ("sim.monitor_s", "s", "lower",
     "ops_per_s on bus-faults and fabric-chain; zero on bus-ddcr"),
    ("faults.begin_round_s", "s", "lower", "ops_per_s on bus-faults"),
    ("fabric.handoff_s", "s", "lower", "ops_per_s on fabric-chain"),
    ("fabric.segment_runs", "count", "lower", "ops_per_s on fabric-chain"),
    ("core.report_calls", "count", "lower",
     "op_p50_us and ops_per_s on serve-city"),
    ("core.reports_per_decision", "ratio", "lower",
     "op_p50_us and ops_per_s on serve-city"),
    ("core.report_s", "s", "lower", "op_p50_us and ops_per_s on serve-city"),
    ("core.mutate_s", "s", "lower", "op_p50_us and ops_per_s on serve-city"),
    ("core.oracle_s", "s", "lower", "op_p99_us and ops_per_s on serve-city"),
    ("serve.handle_self_s", "s", "lower", "op_p50_us on serve-city"),
    ("serve.reject_share", "ratio", "lower", "op_p50_us on serve-city"),
    ("serve.evictions", "count", "lower", "op_p50_us on serve-city"),
    ("obs.export_tick_s", "s", "lower", "op_p99_us on serve-city"),
    ("obs.slo_tick_s", "s", "lower", "op_p99_us on serve-city"),
    ("host.calib_s", "s", "lower",
     "none: host speed probe that tells host noise from a regression"),
    ("host.cpu_share", "ratio", "higher",
     "none: CPU over wall time of the timed phase, below 1 when co-tenants "
     "take the host's CPU"),
    ("trace.overhead", "ratio", "higher",
     "none: traced over untraced ops_per_s of the same workload"),
)
