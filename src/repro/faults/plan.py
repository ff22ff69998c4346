"""The deterministic, seeded fault-injection plane.

A :class:`FaultPlan` is a schedule of faults against *named fault
points* -- fixed hooks compiled into the kernel's risky paths (worker
actions, latch acquisition, serving replay, snapshot publish/restore).
Each point counts its invocations; a :class:`FaultRule` fires at
chosen invocation indices, either by raising
:class:`~repro.errors.InjectedFault` (via :func:`trip`) or by asking
the call site to corrupt its own output (via :func:`tamper` -- torn
and bit-flipped snapshot files cannot be expressed as an exception).

Design constraints, in order:

* **zero overhead when disarmed** -- with no plan installed,
  :func:`trip` is one global read and a ``None`` check; production
  code pays nothing for carrying the hooks;
* **deterministic** -- firing depends only on the per-point invocation
  counter and the plan's rules, never on wall-clock or thread timing;
  :meth:`FaultPlan.arm_random` derives schedules from the plan's seed;
* **auditable** -- every fired fault is a :class:`FaultEvent` on the
  plan; recovery paths mark events recovered, and
  :meth:`FaultPlan.unrecovered` is the chaos bench's "nothing was
  silently swallowed" gate.

Thread safety: plans are armed before concurrent phases and mutated
under an internal lock; worker threads, the serving loop and restore
paths may fire and recover events concurrently.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ConfigError, InjectedFault

#: The registry: every fault point compiled into the kernel, with the
#: layer and failure it simulates.  Arming an unknown name is a
#: ConfigError -- schedules cannot silently rot when code moves.
FAULT_POINTS: dict[str, str] = {
    "workers.perform": (
        "a tuning worker crashes mid-refinement (holistic/workers)"
    ),
    "latch.acquire": (
        "a table-latch acquisition times out (cracking/concurrency)"
    ),
    "serving.replay": (
        "a client's query replay blows up mid-window (serving/frontend)"
    ),
    "persist.publish.torn": (
        "a snapshot array file is torn (truncated) after publish"
    ),
    "persist.publish.bitflip": (
        "one bit of a snapshot array file flips after publish"
    ),
    "persist.publish.pointer": (
        "the CURRENT pointer is overwritten with garbage after publish"
    ),
    "persist.restore": (
        "a transient IO failure while rebuilding state from a snapshot"
    ),
}

#: Points whose effect is corruption applied by the call site
#: (consumed through :func:`tamper`) rather than a raised error.
TAMPER_POINTS = frozenset(
    {
        "persist.publish.torn",
        "persist.publish.bitflip",
        "persist.publish.pointer",
    }
)


@dataclass(slots=True)
class FaultEvent:
    """One fault that actually fired."""

    point: str
    hit: int
    recovered: bool = False
    note: str = ""


@dataclass(slots=True)
class FaultRule:
    """When one fault point fires.

    Args:
        point: registered fault-point name.
        at: invocation indices (0-based) to fire on; ``None`` fires on
            every invocation until ``times`` is exhausted.
        times: maximum number of firings.
    """

    point: str
    at: frozenset[int] | None = frozenset({0})
    times: int = 1
    fired: int = 0

    def wants(self, hit: int) -> bool:
        if self.fired >= self.times:
            return False
        return self.at is None or hit in self.at


class FaultPlan:
    """A deterministic schedule of faults plus the log of firings."""

    def __init__(self, seed: int | None = None) -> None:
        self.seed = seed
        self.events: list[FaultEvent] = []
        self._rules: dict[str, list[FaultRule]] = {}
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- arming --------------------------------------------------------

    def arm(
        self,
        point: str,
        at: int | Iterable[int] | None = 0,
        times: int | None = None,
    ) -> FaultRule:
        """Schedule ``point`` to fire at invocation indices ``at``.

        ``at=None`` fires on every invocation; ``times`` caps total
        firings (default: one per listed index, or 1 for ``at=None``).

        Raises:
            ConfigError: on an unregistered point or bad indices.
        """
        if point not in FAULT_POINTS:
            raise ConfigError(
                f"unknown fault point {point!r}; registered: "
                f"{', '.join(sorted(FAULT_POINTS))}"
            )
        if at is None:
            indices = None
        else:
            if isinstance(at, int):
                at = (at,)
            indices = frozenset(int(i) for i in at)
            if not indices or min(indices) < 0:
                raise ConfigError(f"fault indices must be >= 0, got {at!r}")
        if times is None:
            times = 1 if indices is None else len(indices)
        if times < 1:
            raise ConfigError(f"times must be >= 1, got {times}")
        rule = FaultRule(point=point, at=indices, times=times)
        with self._lock:
            self._rules.setdefault(point, []).append(rule)
        return rule

    def arm_random(
        self,
        count: int,
        points: Iterable[str] | None = None,
        max_hit: int = 8,
    ) -> list[FaultRule]:
        """Arm ``count`` seed-derived (point, invocation) faults."""
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        names = sorted(points) if points is not None else sorted(FAULT_POINTS)
        for name in names:
            if name not in FAULT_POINTS:
                raise ConfigError(f"unknown fault point {name!r}")
        rng = np.random.default_rng(self.seed)
        rules = []
        for _ in range(count):
            point = names[int(rng.integers(len(names)))]
            rules.append(self.arm(point, at=int(rng.integers(max_hit))))
        return rules

    # -- firing --------------------------------------------------------

    def fire(self, point: str) -> FaultEvent | None:
        """Count one invocation of ``point``; returns the event if a
        rule fired."""
        with self._lock:
            hit = self._hits.get(point, 0)
            self._hits[point] = hit + 1
            for rule in self._rules.get(point, ()):
                if rule.wants(hit):
                    rule.fired += 1
                    event = FaultEvent(point=point, hit=hit)
                    self.events.append(event)
                    return event
        return None

    def hits(self, point: str) -> int:
        """Invocations of ``point`` seen so far."""
        with self._lock:
            return self._hits.get(point, 0)

    # -- recovery bookkeeping ------------------------------------------

    def note_recovered(self, point: str, note: str = "") -> bool:
        """Mark the oldest unrecovered event at ``point`` recovered."""
        with self._lock:
            for event in self.events:
                if event.point == point and not event.recovered:
                    event.recovered = True
                    event.note = note
                    return True
        return False

    def note_recovered_matching(self, prefix: str, note: str = "") -> int:
        """Mark every unrecovered event whose point starts with
        ``prefix`` recovered; returns how many."""
        count = 0
        with self._lock:
            for event in self.events:
                if event.point.startswith(prefix) and not event.recovered:
                    event.recovered = True
                    event.note = note
                    count += 1
        return count

    @property
    def injected(self) -> int:
        with self._lock:
            return len(self.events)

    def unrecovered(self) -> list[FaultEvent]:
        """Events no recovery path has claimed -- must be empty after a
        healthy chaos run."""
        with self._lock:
            return [e for e in self.events if not e.recovered]

    def summary(self) -> dict[str, object]:
        """JSON-ready account of what fired and what healed."""
        with self._lock:
            per_point: dict[str, int] = {}
            for event in self.events:
                per_point[event.point] = per_point.get(event.point, 0) + 1
            return {
                "seed": self.seed,
                "injected": len(self.events),
                "recovered": sum(1 for e in self.events if e.recovered),
                "per_point": dict(sorted(per_point.items())),
                "events": [
                    {
                        "point": e.point,
                        "hit": e.hit,
                        "recovered": e.recovered,
                        "note": e.note,
                    }
                    for e in self.events
                ],
            }


# -- the active plan ----------------------------------------------------

_install_lock = threading.Lock()
_active: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Make ``plan`` the process-wide active plan.

    Raises:
        ConfigError: if another plan is already installed (nested
            chaos runs would corrupt each other's schedules).
    """
    global _active
    with _install_lock:
        if _active is not None and _active is not plan:
            raise ConfigError("a fault plan is already installed")
        _active = plan


def uninstall() -> None:
    """Deactivate the current plan (idempotent)."""
    global _active
    with _install_lock:
        _active = None


def active() -> FaultPlan | None:
    """The installed plan, if any."""
    return _active


@contextmanager
def engaged(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def trip(point: str, error: type[Exception] | None = None) -> None:
    """Fault hook for error-shaped faults: raises if a rule fires.

    ``error`` substitutes the raised type (e.g.
    :class:`~repro.errors.LatchTimeout` so the injected fault exercises
    the genuine timeout-recovery path); the instance always carries
    ``.point``/``.hit`` for recovery bookkeeping.
    """
    plan = _active
    if plan is None:
        return
    event = plan.fire(point)
    if event is None:
        return
    if error is None:
        raise InjectedFault(point, event.hit)
    raised = error(f"injected fault at {point!r} (hit {event.hit})")
    raised.point = point
    raised.hit = event.hit
    raise raised


def tamper(point: str) -> FaultEvent | None:
    """Fault hook for corruption-shaped faults.

    Returns the fired event when the call site should corrupt its own
    output (it cannot be expressed as an exception), else ``None``.
    """
    plan = _active
    if plan is None:
        return None
    return plan.fire(point)


def recovered(point: str, note: str = "") -> None:
    """Recovery hook: credit the oldest unrecovered event at ``point``."""
    plan = _active
    if plan is not None:
        plan.note_recovered(point, note)


def recovered_matching(prefix: str, note: str = "") -> None:
    """Credit every unrecovered event under a point-name prefix."""
    plan = _active
    if plan is not None:
        plan.note_recovered_matching(prefix, note)
