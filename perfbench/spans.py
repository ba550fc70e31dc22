"""Spans for the traced run, recorded from the benchmark's own code.

:func:`instrument` wraps the public functions of each layer the benchmark
reports on.  Every call becomes a span — name, start, end, parent span,
op id — appended to struct-of-arrays columns in memory (millions of MAC
calls fit in tens of megabytes), and :meth:`SpanRecorder.write` dumps
them once at exit.  :func:`self_times` derives each span's self time: its
duration minus the time its child spans cover.

The program itself carries no spans; wrapping happens at the class
attributes, so every instance built afterwards is traced.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import json
import pathlib
import time
from collections.abc import Callable, Iterator

#: The root span of one op; every wrapped call nests under one.
OP = "op"

#: Span columns and their array type codes, in file order.
COLUMNS = (
    ("start", "q"), ("end", "q"), ("parent", "i"), ("op", "i"),
    ("name", "H"),
)

#: (module, owner, attribute) of every wrapped callable.  ``owner`` is a
#: class name, or ``None`` for a module-level function.  The span name is
#: ``Owner.attribute`` (or just ``attribute``).
TARGETS: tuple[tuple[str, str | None, str], ...] = (
    ("repro.net.network", "NetworkSimulation", "run"),
    ("repro.net.station", "Station", "load_arrivals"),
    ("repro.net.channel", "BroadcastChannel", "run"),
    ("repro.protocols.ddcr.protocol", "DDCRProtocol", "offer"),
    ("repro.protocols.ddcr.protocol", "DDCRProtocol", "observe"),
    ("repro.sim.invariants", "MonitorSuite", "on_slot"),
    ("repro.sim.invariants", "MonitorSuite", "finalize"),
    ("repro.faults.runtime", "FaultInjector", "begin_round"),
    ("repro.net.fabric", "Fabric", "run"),
    ("repro.core.feas_engine", "FeasibilityEngine", "report"),
    ("repro.core.feas_engine", "FeasibilityEngine", "add_class"),
    ("repro.core.feas_engine", "FeasibilityEngine", "remove_class"),
    ("repro.core.feas_engine", "FeasibilityEngine", "rescale_class"),
    ("repro.core.feas_engine", "FeasibilityEngine", "rescale_density"),
    # The oracle as the service's counter-check calls it.
    ("repro.serve.service", None, "check_feasibility"),
    ("repro.serve.service", "AdmissionService", "handle"),
    ("repro.obs.export", "StreamExporter", "tick"),
    ("repro.obs.slo", "SloEngine", "tick"),
)


class SpanRecorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.name = array.array("H")
        self._stack: list[int] = []
        self._op = -1
        self.ops = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Callable[[object], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call (closed even on raise)."""
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        start, end, parent, op, names = (
            self.start, self.end, self.parent, self.op, self.name,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            op.append(self._op)
            names.append(name_id)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextlib.contextmanager
    def op_scope(self) -> Iterator[None]:
        """One op: a root span every wrapped call inside nests under."""
        index = len(self.start)
        self._op = self.ops
        self.ops += 1
        self.parent.append(-1)
        self.op.append(self._op)
        self.name.append(self._name_id(OP))
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter_ns()
            self._stack.pop()
            self._op = -1

    def write(self, path: str | pathlib.Path) -> None:
        """A JSON header line, then the :data:`COLUMNS` as raw arrays."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self.start)}
            handle.write((json.dumps(header) + "\n").encode())
            for key, _ in COLUMNS:
                getattr(self, key).tofile(handle)


@contextlib.contextmanager
def instrument(
    recorder: SpanRecorder,
    on_result: dict[str, Callable[[object], None]] | None = None,
) -> Iterator[None]:
    """Wrap every :data:`TARGETS` callable while the block runs."""
    on_result = on_result or {}
    saved = []
    try:
        for module_name, owner_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            name = f"{owner_name}.{attr}" if owner_name else attr
            original = owner.__dict__[attr] if owner_name else getattr(
                module, attr
            )
            saved.append((owner, attr, original))
            setattr(
                owner, attr, recorder.wrap(original, name, on_result.get(name))
            )
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def read(path: str | pathlib.Path) -> dict:
    """Load spans written by :meth:`SpanRecorder.write`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        columns = {}
        for key, code in COLUMNS:
            column = array.array(code)
            column.fromfile(handle, count)
            columns[key] = column
    columns["names"] = header["names"]
    return columns


def self_times(spans: dict) -> array.array:
    """Per-span duration minus the time covered by its child spans.

    Calls are single-threaded and stack-nested, so a span's children are
    disjoint intervals inside it and their durations simply add up.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    own = array.array("q", (e - s for s, e in zip(start, end)))
    child = array.array("q", bytes(8 * len(own)))
    for index, up in enumerate(parent):
        if up >= 0:
            child[up] += own[index]
    for index in range(len(own)):
        own[index] -= child[index]
    return own


def totals(spans: dict) -> dict[str, tuple[int, float]]:
    """span name -> (calls, summed self time in seconds)."""
    own = self_times(spans)
    names = spans["names"]
    calls = [0] * len(names)
    seconds = [0] * len(names)
    for index, name_id in enumerate(spans["name"]):
        calls[name_id] += 1
        seconds[name_id] += own[index]
    return {
        name: (calls[i], seconds[i] / 1e9) for i, name in enumerate(names)
    }


def nested_calls(spans: dict, child: str, parent: str) -> int:
    """Calls of ``child`` whose direct parent span is a ``parent`` call."""
    names = spans["names"]
    if child not in names or parent not in names:
        return 0
    child_id, parent_id = names.index(child), names.index(parent)
    column, up = spans["name"], spans["parent"]
    return sum(
        1
        for index, name_id in enumerate(column)
        if name_id == child_id
        and up[index] >= 0
        and column[up[index]] == parent_id
    )
