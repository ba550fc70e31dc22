"""Simulation engine selection: the batch kernel or the DES.

Two engines can turn the broadcast channel's crank:

* ``des`` — the general discrete-event kernel and the reference engine:
  the channel runs as a generator process on
  :class:`~repro.sim.engine.Environment`, every round is a heap push/pop
  plus a generator suspend/resume, and every station's MAC is asked to
  ``offer`` and ``observe`` once per slot.  Always correct, composes with
  arbitrary foreign processes, protocols and fault injectors.
* ``batch`` — the struct-of-arrays kernel (:mod:`repro.net.batch`), the
  fast engine: it owns the clock in a direct loop, keeps per-station EDF
  keys and tree positions in plain list columns, and lets one shadow
  protocol replica digest each slot (the paper's lockstep property), so
  per-slot cost is near-constant in the station count and provably idle
  stretches advance in O(1).  Structurally limited to plain single-bus
  CSMA/DDCR runs, faulted or not; anything else (foreign MAC types,
  bursting, dual-bus, non-destructive media) runs on the DES instead,
  with the reason recorded in the run manifest (``engine_fallback``).
  If a foreign process appears mid-run the kernel rejoins the DES after
  the current slot.  Selecting it is therefore always safe.
* ``auto`` (the default) — ``batch`` when
  :func:`repro.net.batch.batch_unavailable_reason` finds the run
  eligible, ``des`` otherwise.  It behaves exactly like ``batch``; the
  separate name says "whatever is fastest" rather than pinning a tier.

Both engines execute the *identical* round semantics and draw from the
same RNG streams in the same order, so results — channel statistics,
completion records, trace streams — are byte-identical.  The runtime
layer therefore excludes the engine from result cache keys.  This
equivalence extends to the fault-injection and invariant layers: armed
:class:`~repro.sim.invariants.MonitorSuite` reports and telemetry
manifests are byte-identical across engines (enforced by the
engine-differential tests).

The process-wide default is ``auto``; override it with the
``REPRO_ENGINE`` environment variable, per-simulation via
``NetworkSimulation(engine=...)``, or per-run via the experiment CLIs'
``--engine`` flag (which scopes the override with :func:`use_engine`).
"""

from __future__ import annotations

import os

from repro.context import ScopedValue

__all__ = [
    "ENGINES",
    "default_engine",
    "set_default_engine",
    "resolve_engine",
    "use_engine",
]

#: Legal engine names.
ENGINES = ("auto", "des", "batch")


def _validate(name: str) -> str:
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r}; choose one of {', '.join(ENGINES)}"
        )
    return name


#: The ambient engine choice.  ``None`` entering a scope means "inherit"
#: (``use_engine(None)`` is a no-op), matching the CLI convention that an
#: absent ``--engine`` keeps the process default.
_SCOPE: ScopedValue[str] = ScopedValue(
    "engine",
    default=lambda: os.environ.get("REPRO_ENGINE", "auto"),
    coerce=_validate,
    none_is_noop=True,
)

#: The process-wide engine default (``REPRO_ENGINE`` or ``auto``),
#: shadowed inside any active :func:`use_engine` scope.
default_engine = _SCOPE.current

#: Set the innermost engine default; returns the previous value.  Outside
#: any scope this is the process-wide default; inside a scope the change
#: dies when the scope exits.
set_default_engine = _SCOPE.set_default

#: Scoped default-engine override (no-op when the name is ``None``).  The
#: runtime executor wraps each spec execution in this, so a spec's engine
#: choice reaches every simulation the experiment builds without
#: threading a parameter through every experiment module.
use_engine = _SCOPE.using


def resolve_engine(name: str | None) -> str:
    """Resolve an engine request (``None`` means "use the default")."""
    if name is None:
        return default_engine()
    return _validate(name)

