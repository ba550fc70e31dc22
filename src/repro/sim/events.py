"""Events: the synchronisation primitive of the simulation kernel.

An :class:`Event` moves through three states — pending, triggered (scheduled
on the event queue with a value or an exception), processed (callbacks run).
Processes wait on events by ``yield``-ing them; composite conditions
(:class:`AllOf`, :class:`AnyOf`) build barriers and races out of simpler
events.  The design follows the classic SimPy kernel, reimplemented from
scratch for this project (no third-party dependency).
"""

from __future__ import annotations

import typing
from collections.abc import Callable, Iterable
from heapq import heappush

from repro.sim.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["Event", "Timeout", "Condition", "AllOf", "AnyOf"]

_PENDING = object()


class Event:
    """A one-shot occurrence at a point in simulated time.

    Callbacks receive the event itself; ``event.value`` is the payload (or
    the exception, if the event failed).
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: object = _PENDING
        self._ok: bool | None = None
        self._defused = False

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at t={self.env.now}>"

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True iff the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> object:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to throw into waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy another event's outcome into this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(typing.cast(BaseException, event._value))

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            raise SimulationError(f"{self!r} already processed")
        self.callbacks.append(callback)

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel won't escalate it."""
        self._defused = True


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    >>> # inside a process:  yield env.timeout(5)
    """

    def __init__(
        self, env: "Environment", delay: int | float, value: object = None
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Event.__init__ and Environment._schedule (normal priority, 1)
        # inlined: one Timeout per channel round makes this the DES
        # engine's hottest constructor.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(env._queue, (env._now + delay, 1, next(env._eid), self))


class Condition(Event):
    """Composite event over a set of sub-events.

    Triggers when ``evaluate(events, triggered_count)`` returns True, or
    fails as soon as any sub-event fails.  Its value is a dict mapping each
    *triggered* sub-event to its value.
    """

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("condition mixes environments")
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())
            return
        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event._add_callback(self._check)

    def _collect(self) -> dict[Event, object]:
        # Processed, not merely triggered: Timeout events carry their value
        # from creation (they are scheduled pre-triggered), so "triggered"
        # would wrongly include timeouts that have not fired yet.
        return {
            event: event._value
            for event in self._events
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(typing.cast(BaseException, event._value))
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())


class AllOf(Condition):
    """Barrier: triggers when every sub-event has triggered."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda evs, count: count >= len(evs), events)


class AnyOf(Condition):
    """Race: triggers as soon as one sub-event has triggered."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda evs, count: count >= 1 or not evs, events)
