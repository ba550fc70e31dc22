"""Processes: generator coroutines driven by the event queue.

A process is a Python generator that ``yield``s events; the kernel resumes
it with the event's value (or throws the event's exception into it).  The
process object is itself an event that triggers when the generator returns,
so processes can wait on each other.
"""

from __future__ import annotations

import typing
from collections.abc import Generator

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["Process", "ProcessGenerator"]

#: The type a process function must return.
ProcessGenerator = Generator[Event, object, object]


class Process(Event):
    """A running process; also an event that fires on completion."""

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process needs a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = None
        # Bootstrap: resume the generator at the current time.
        bootstrap = Event(env)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.callbacks = [self._resume]
        env._schedule(bootstrap)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", "process")
        return f"<Process {name} at t={self.env.now}>"

    @property
    def target(self) -> Event | None:
        """The event this process is currently waiting for (if any)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} already finished")
        if self._target is self:
            raise SimulationError("a process cannot interrupt itself")
        carrier = Event(self.env)
        carrier._ok = False
        carrier._value = Interrupt(cause)
        carrier._defused = True
        carrier.callbacks = [self._resume]
        self.env._schedule(carrier, priority=0)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        # Detach from the previous target if we were interrupted away.
        target = self._target
        if target is not None and target.callbacks is not None:
            if self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event.defuse()
                next_event = self._generator.throw(
                    typing.cast(BaseException, event._value)
                )
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as error:
            env._active_process = None
            self.fail(error)
            return
        env._active_process = None
        if not isinstance(next_event, Event):
            self._generator.throw(
                SimulationError(f"process yielded a non-event: {next_event!r}")
            )
            return
        if next_event.env is not env:
            raise SimulationError("process yielded an event from another env")
        self._target = next_event
        callbacks = next_event.callbacks
        if callbacks is None:
            # Already processed: resume immediately at the current time.
            carrier = Event(env)
            carrier._ok = next_event._ok
            carrier._value = next_event._value
            if not next_event._ok:
                next_event.defuse()
                carrier._defused = True
            carrier.callbacks = [self._resume]
            env._schedule(carrier)
        else:
            callbacks.append(self._resume)
