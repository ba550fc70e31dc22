"""Discrete-event simulation substrate (built from scratch for this project).

A compact generator-based kernel in the SimPy tradition: processes yield
:class:`Event` objects, the :class:`Environment` drives the event queue,
:class:`Resource`/:class:`Store` provide synchronisation, plus deterministic
RNG streams, structured tracing and running statistics.  The broadcast
network simulator (:mod:`repro.net`) runs entirely on this kernel.
"""

from repro.sim.engine import Environment
from repro.sim.errors import Interrupt, SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Condition, Event, Timeout
from repro.sim.monitor import RunningStats
from repro.sim.process import Process, ProcessGenerator
from repro.sim.resources import Request, Resource, Store
from repro.sim.rng import SeedSequenceRegistry
from repro.sim.trace import TraceLog, TraceRecord

__all__ = [
    "Environment",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "Timeout",
    "RunningStats",
    "Process",
    "ProcessGenerator",
    "Request",
    "Resource",
    "Store",
    "SeedSequenceRegistry",
    "TraceLog",
    "TraceRecord",
]
