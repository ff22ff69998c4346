"""Layer spans for the traced benchmark run.

The traced run wraps the public entry points of each ``repro`` layer
from here, outside the program: :func:`install` replaces each listed
attribute with a timing wrapper and returns a handle that puts the
originals back.  Nothing under ``src/`` knows it is being traced.

A span is a key, a start and end in ``perf_counter_ns`` and a parent,
appended to the :class:`SpanLog` of the thread that opened it; the
parent indexes the enclosing span of the same thread (-1 at top
level).  Spans stay in memory and are reduced by :func:`summarize`:

* a layer's (or key's) ``busy`` time is the wall time of its outermost
  spans (a span inside another span of the same layer adds nothing);
* a layer's ``self`` time is span time minus the time of child spans
  on the same thread.  Children on another thread -- a tuning worker's
  cracks -- never subtract from a foreground span.
"""

from __future__ import annotations

import functools
import importlib
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns

#: (layer, "module:Owner" or "module", attributes) -- every wrapped
#: entry point.  A span's key is ``layer/attribute``.
ENTRY_POINTS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    (
        "engine.session",
        "repro.engine.session:Session",
        (
            "run_query",
            "run_batch",
            "idle",
            "start_background_tuning",
            "finish_background_tuning",
        ),
    ),
    # Session resolves apply_pending through its module globals.
    ("engine.pending", "repro.engine.session", ("apply_pending",)),
    ("engine.pending", "repro.engine.operators:PendingWindow", ("apply",)),
    (
        "storage.updates",
        "repro.storage.updates:PendingUpdates",
        ("stage_inserts", "stage_deletes"),
    ),
    (
        "online.monitor",
        "repro.online.monitor:WorkloadMonitor",
        ("record", "note_many"),
    ),
    (
        "holistic.ranking",
        "repro.holistic.ranking:ColumnRanking",
        ("note_query", "note_queries", "ranked"),
    ),
    (
        "holistic.kernel",
        "repro.holistic.kernel:HolisticKernel",
        (
            "select",
            "begin_batch",
            "exploit_idle",
            "start_workers",
            "submit_tuning",
            "drain_workers",
            "stop_workers",
        ),
    ),
    (
        "holistic.scheduler",
        "repro.holistic.scheduler:IdleScheduler",
        ("run_actions", "run_budget", "run_actions_batched"),
    ),
    (
        "holistic.workers",
        "repro.holistic.workers:TuningWorkerPool",
        ("start", "submit", "drain", "stop", "run_window"),
    ),
    (
        "cracking.index",
        "repro.cracking.index:CrackerIndex",
        ("select_range", "random_crack"),
    ),
    (
        "cracking.batch",
        "repro.cracking.index:CrackerIndex",
        ("crack_bounds_batch", "begin_select_batch"),
    ),
    (
        "cracking.batch",
        "repro.cracking.batch:CrackSelectBatch",
        ("replay", "replay_query"),
    ),
    (
        "cracking.concurrency",
        "repro.cracking.concurrency:LatchedCrackerAccess",
        ("select_range", "crack_value"),
    ),
    (
        "serving.frontend",
        "repro.serving.frontend:ServingFrontend",
        ("serve_window",),
    ),
    (
        "persist.manager",
        "repro.persist.manager:SnapshotManager",
        ("checkpoint",),
    ),
    # The benchmark calls restore through the module attribute.
    ("persist.restore", "repro.persist.manager", ("restore_snapshot",)),
)


def _pending_observer(result_arg: int):
    """engine.pending: calls, and calls whose result was rewritten
    (``args[result_arg]`` is the result handed in for correction)."""

    def observe(counters: dict, args, result) -> None:
        counters["engine.pending.calls"] = (
            counters.get("engine.pending.calls", 0) + 1
        )
        if result is not args[result_arg]:
            counters["engine.pending.rewritten"] = (
                counters.get("engine.pending.rewritten", 0) + 1
            )

    return observe


def _observe_checkpoint(counters: dict, args, result) -> None:
    """persist.manager: one CheckpointResult per published generation."""
    counters["persist.manager.checkpoints"] = (
        counters.get("persist.manager.checkpoints", 0) + 1
    )
    for name, value in (
        ("bytes_written", result.bytes_written),
        ("arrays_written", result.arrays_written),
        ("arrays_carried", result.arrays_carried),
    ):
        key = f"persist.manager.{name}"
        counters[key] = counters.get(key, 0) + value


#: Span key -> observer(counters, call args, result).  Every observed
#: entry point runs on the client thread, so the counters need no lock.
OBSERVERS = {
    # apply_pending(result, pending, low, high, clock)
    "engine.pending/apply_pending": _pending_observer(0),
    # PendingWindow.apply(self, slot, result, accountant)
    "engine.pending/apply": _pending_observer(2),
    "persist.manager/checkpoint": _observe_checkpoint,
}


class SpanLog:
    """One thread's spans as parallel lists.

    Four flat lists instead of one object per span: the traced run
    records hundreds of thousands of spans, and per-span containers
    would be traversed by the garbage collector inside the timed
    region.
    """

    __slots__ = ("keys", "starts", "ends", "parents", "stack")

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        #: Index of the enclosing span on this thread, -1 at top level.
        self.parents: list[int] = []
        #: Indexes of the spans open right now.
        self.stack: list[int] = []

    def add(self, key: str, start: int, end: int, parent: int = -1) -> None:
        """Append a finished span (for building logs by hand)."""
        self.keys.append(key)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)

    def clear(self) -> None:
        for spans in (self.keys, self.starts, self.ends, self.parents):
            spans.clear()


class Tracer:
    """Per-thread span recorder plus counters from observed results."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread name, span log) per thread that ever opened a span.
        self._threads: list[tuple[str, SpanLog]] = []
        self.counters: dict[str, float] = {}

    def _register(self) -> SpanLog:
        log = self._local.log = SpanLog()
        with self._lock:
            self._threads.append((threading.current_thread().name, log))
        return log

    def wrap(self, key: str, fn, observe=None):
        """``fn`` recording one span under ``key`` per call."""
        local = self._local
        register = self._register
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                log = local.log
            except AttributeError:
                log = register()
            stack = log.stack
            ends = log.ends
            index = len(ends)
            log.keys.append(key)
            log.parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            log.starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def reset(self) -> None:
        """Drop every span and counter; call only while no span is open."""
        with self._lock:
            for _, log in self._threads:
                log.clear()
        self.counters.clear()

    def threads(self) -> list[tuple[str, SpanLog]]:
        with self._lock:
            return list(self._threads)


def _resolve(target: str):
    module_name, _, owner = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, owner) if owner else module


class Installed:
    """Wrapped entry points; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point of :data:`ENTRY_POINTS` for ``tracer``."""
    installed = Installed()
    for layer, target, attrs in ENTRY_POINTS:
        owner = _resolve(target)
        for attr in attrs:
            original = owner.__dict__[attr]
            key = f"{layer}/{attr}"
            wrapped = tracer.wrap(key, original, OBSERVERS.get(key))
            installed._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
    return installed


@dataclass
class LayerTime:
    """Reduced span times of one layer or one span key, in seconds."""

    busy_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0


@dataclass
class Summary:
    """What :func:`summarize` reduces the spans of every thread to."""

    layers: dict[str, LayerTime] = field(default_factory=dict)
    keys: dict[str, LayerTime] = field(default_factory=dict)
    #: Wall seconds covered by top-level spans, per thread name.
    top_level_s: dict[str, float] = field(default_factory=dict)


def layer_of(key: str) -> str:
    return key.partition("/")[0]


def summarize(threads: list[tuple[str, SpanLog]]) -> Summary:
    """Busy and self time per layer and per key from raw spans.

    Spans of one thread are appended in start order, so a parent always
    precedes its children.  Open spans (end 0) are ignored.
    """
    summary = Summary()
    for thread_name, log in threads:
        spans = list(zip(log.keys, log.starts, log.ends, log.parents))
        count = len(spans)
        child_ns = [0] * count
        # Layers and keys of the spans enclosing each span, interned
        # per distinct set (layers have no "/", keys do).
        above: list[frozenset] = [frozenset()] * count
        interned: dict[tuple[frozenset, str], frozenset] = {}
        top_ns = 0
        for i, (key, start, end, parent) in enumerate(spans):
            if end == 0:
                continue
            duration = end - start
            if parent >= 0:
                child_ns[parent] += duration
                parent_key = spans[parent][0]
                token = (above[parent], parent_key)
                enclosing = interned.get(token)
                if enclosing is None:
                    enclosing = interned[token] = above[parent] | {
                        parent_key,
                        layer_of(parent_key),
                    }
                above[i] = enclosing
            else:
                top_ns += duration
        for i, (key, start, end, _parent) in enumerate(spans):
            if end == 0:
                continue
            duration = end - start
            self_ns = duration - child_ns[i]
            for name, table in (
                (layer_of(key), summary.layers),
                (key, summary.keys),
            ):
                entry = table.get(name)
                if entry is None:
                    entry = table[name] = LayerTime()
                entry.calls += 1
                entry.self_s += self_ns / 1e9
                if name not in above[i]:
                    entry.busy_s += duration / 1e9
        summary.top_level_s[thread_name] = (
            summary.top_level_s.get(thread_name, 0.0) + top_ns / 1e9
        )
    return summary
