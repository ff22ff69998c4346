"""Parallel idle-time tuning workers: the paper's idle-core claim.

The paper's headline argument is that modern machines have idle CPU
cores *while queries run*, and that a holistic kernel should spend
them on continuous index refinement.  This module provides that
machinery: a :class:`TuningWorkerPool` of real ``threading`` workers
that drain auxiliary refinement actions concurrently -- with each
other and with foreground query processing -- under the per-index
read/write latch of :mod:`repro.cracking.concurrency` ("Concurrency
Control for Adaptive Indexing", Graefe et al.), with the static
chunking of "Main Memory Adaptive Indexing for Multi-core Systems"
(Alvarez et al.).

Three layers cooperate:

* **latches** -- each index has one table latch
  (:class:`LatchedCrackerAccess`): selects and random cracks take it
  shared and are serialised by the index's monitor lock, whole-index
  actions (piece scans, sorts, repairs) take it exclusive; every wait
  is counted as a contention stall on the crack tape;
* **lanes** -- under a :class:`~repro.simtime.clock.SimClock` the pool
  opens a *parallel phase*: each thread's charges accumulate on its
  own lane and the phase advances virtual time by the **maximum**
  lane, so N workers doing W seconds of aggregate refinement cost the
  timeline ~W/N seconds, reproducing the paper's multi-core scaling
  without needing real parallelism under the GIL;
* **attribution** -- every tape record carries the id of the worker
  that produced it, and per-worker stalls/actions are reported in the
  window's :class:`~repro.holistic.scheduler.TuningReport`.

The pool is strictly additive: a kernel with ``num_workers=0`` never
constructs one and runs the serial scheduler bit-for-bit as before.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

from repro import faults
from repro.analysis import witness
from repro.cracking.concurrency import LatchedCrackerAccess
from repro.cracking.index import CrackerIndex
from repro.cracking.tape import CrackTape
from repro.errors import ConcurrencyError, ConfigError, CrackerError
from repro.holistic.policies import TuningPolicy
from repro.holistic.ranking import ColumnRanking, ColumnTuningState
from repro.holistic.scheduler import TuningReport
from repro.holistic.tuner import ActionKind, AuxiliaryTuner
from repro.simtime.clock import Clock, wall_sleep
from repro.storage.catalog import ColumnRef
from repro.util.retry import BackoffPolicy

#: Queue sentinel that tells a worker thread to exit its loop.
_STOP = object()


@dataclass(frozen=True, slots=True)
class SupervisorPolicy:
    """How the pool reacts to worker crashes.

    Args:
        max_restarts_per_worker: restarts a single worker slot may
            consume before its next crash is fatal to the pool.
        quarantine_threshold: crashes attributed to one column before
            its refinement actions are dead-lettered.
        backoff: restart delay schedule (capped exponential, indexed
            by the worker slot's restart count).
    """

    max_restarts_per_worker: int = 8
    quarantine_threshold: int = 3
    backoff: BackoffPolicy = BackoffPolicy(
        base_s=0.001, factor=2.0, cap_s=0.05, max_attempts=64
    )


@dataclass(slots=True)
class WorkerStats:
    """Lifetime statistics of one tuning worker."""

    worker_id: int
    actions_attempted: int = 0
    actions_effective: int = 0
    stalls: int = 0
    busy_s: float = 0.0


@dataclass(slots=True)
class _Window:
    """Aggregates of the idle window currently being drained."""

    attempted: int = 0
    effective: int = 0
    per_column: dict[ColumnRef, int] = field(default_factory=dict)
    per_worker: dict[int, int] = field(default_factory=dict)
    exhausted: bool = False


class TuningWorkerPool:
    """N threads draining auxiliary refinements under table latches.

    Args:
        clock: the shared engine clock; parallel phases are opened on
            it while the pool runs (``SimClock`` lanes make wall-clock
            the max over workers, ``WallClock`` overlaps by itself).
        tape: the kernel's crack tape; receives worker attribution and
            stall counts.
        ranking: the continuous column ranking workers pick from.
        policy: resource-spreading policy (shared, guarded by a lock).
        num_workers: worker thread count (>= 1).
        action: auxiliary action kind each worker performs.
        min_piece_size: cache-fit stopping criterion, in rows.
        seed: base seed; worker ``i`` gets an independent generator
            seeded ``seed + i + 1`` so runs are reproducible for every
            worker count.
    """

    def __init__(
        self,
        clock: Clock,
        tape: CrackTape,
        ranking: ColumnRanking,
        policy: TuningPolicy,
        num_workers: int,
        action: ActionKind = ActionKind.RANDOM_CRACK,
        min_piece_size: int = 2,
        seed: int | None = None,
    ) -> None:
        if num_workers < 1:
            raise ConfigError(
                f"a worker pool needs num_workers >= 1, got {num_workers}"
            )
        self.clock = clock
        self.tape = tape
        # Worker threads will share this tape: appends must lock.
        tape.mark_concurrent()
        self.ranking = ranking
        self.policy = policy
        self.num_workers = num_workers
        self.action = action
        self.min_piece_size = min_piece_size
        self.stats: dict[int, WorkerStats] = {
            i: WorkerStats(worker_id=i) for i in range(num_workers)
        }
        self._tuners = [
            AuxiliaryTuner(
                kind=action,
                seed=None if seed is None else seed + i + 1,
                min_piece_size=min_piece_size,
            )
            for i in range(num_workers)
        ]
        self._accesses: dict[ColumnRef, LatchedCrackerAccess] = {}
        self._access_lock = threading.Lock()
        # One queue per worker, filled round-robin: static chunking
        # keeps the lanes balanced regardless of how the GIL schedules
        # the threads, so N workers reliably cost ~1/N the elapsed
        # virtual time (the multi-core chunking of Alvarez et al.).
        self._queues: list[queue.Queue[object]] = [
            queue.Queue() for _ in range(num_workers)
        ]
        self._next_queue = 0
        self._threads: dict[int, threading.Thread] = {}
        self._idents: dict[int, int] = {}  # clock lane id -> worker id
        self._policy_lock = threading.Lock()
        self._window_lock = threading.Lock()
        self._window = _Window()
        self._running = False
        self._failure: BaseException | None = None
        self.windows_run = 0
        #: Supervision: crashed workers are restarted with capped
        #: exponential backoff; columns whose actions repeatedly kill
        #: workers are quarantined (dead-lettered) after their piece
        #: state is verified and, if inconsistent, rebuilt.
        self.supervisor = SupervisorPolicy()
        self._sleep = wall_sleep  # injectable for deterministic tests
        self._state_lock = threading.Lock()
        self._restarts: dict[int, int] = {}
        self._crashes: dict[ColumnRef, int] = {}
        self._current: dict[int, ColumnTuningState | None] = {}
        self.dead_letter: list[ColumnRef] = []
        self.restarts_total = 0
        self.rebuilds_total = 0
        self.crash_log: list[str] = []

    # -- index registration --------------------------------------------

    def register_index(
        self, ref: ColumnRef, index: CrackerIndex
    ) -> LatchedCrackerAccess:
        """Create (or return) the latched access facade for ``ref``."""
        with self._access_lock:
            access = self._accesses.get(ref)
            if access is None:
                access = LatchedCrackerAccess(
                    index, witness_key=f"{ref.table}.{ref.column}"
                )
                self._accesses[ref] = access
            if self._running:
                witness.arm(access)
            return access

    def access_for(self, ref: ColumnRef) -> LatchedCrackerAccess | None:
        """The latched facade for ``ref``, if registered."""
        return self._accesses.get(ref)

    # -- lifecycle ------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Spawn the worker threads and open a parallel clock phase.

        Idempotent while running.
        """
        if self._running:
            return
        self._failure = None
        if hasattr(self.clock, "begin_parallel"):
            self.clock.begin_parallel()
        self._threads = {}
        self._idents = {}
        self._restarts = {}
        self._running = True
        with self._access_lock:
            # Latch-sanitizer scope: while workers race these indexes,
            # every mutation must arrive under its covering latch.
            for access in self._accesses.values():
                witness.arm(access)
        for worker_id in range(self.num_workers):
            self._spawn_worker(worker_id)

    def _spawn_worker(self, worker_id: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._worker_loop,
            args=(worker_id,),
            name=f"tuning-worker-{worker_id}",
            daemon=True,
        )
        self._threads[worker_id] = thread
        thread.start()
        return thread

    def submit(self, actions: int) -> None:
        """Enqueue ``actions`` refinement attempts for the workers.

        Raises:
            ConfigError: if the pool is not running or ``actions`` < 0.
        """
        if not self._running:
            raise ConfigError("worker pool is not running; call start()")
        if actions < 0:
            raise ConfigError(f"actions must be >= 0, got {actions}")
        for _ in range(actions):
            self._queues[self._next_queue].put(None)
            self._next_queue = (self._next_queue + 1) % self.num_workers

    def drain(self) -> None:
        """Block until every submitted action has been processed.

        Raises:
            ConcurrencyError: re-raising the first *fatal* worker
                failure.  Supervised crashes (restarted workers,
                quarantined columns) drain cleanly; the failure stays
                sticky once raised, so a later ``drain()`` cannot
                silently report success (clear it explicitly with
                :meth:`clear_failure`).
        """
        for worker_id, line in enumerate(self._queues):
            self._join_line(worker_id, line)
        self._check_failure()

    def _join_line(self, worker_id: int, line: queue.Queue) -> None:
        """``line.join()`` that survives an abandoned worker.

        A worker whose crash was fatal (restart budget exhausted,
        every candidate quarantined) is not replaced; its queued
        tokens would leave ``join()`` waiting forever.  Once the pool
        is failed and the worker thread is dead, the leftover tokens
        are consumed here so drains and stops still terminate -- the
        sticky failure is what reports the loss.
        """
        while True:
            with line.all_tasks_done:
                if line.unfinished_tasks == 0:
                    return
                thread = self._threads.get(worker_id)
                dead = thread is None or not thread.is_alive()
                if not (self._failure is not None and dead):
                    line.all_tasks_done.wait(0.02)
                    continue
            while True:
                try:
                    line.get_nowait()
                except queue.Empty:
                    break
                line.task_done()

    def stop(self):
        """Drain, join the threads and close the parallel clock phase.

        Returns the phase's :class:`~repro.simtime.clock.ParallelAccount`
        (or ``None`` on clocks without parallel accounting); per-worker
        ``busy_s`` statistics are updated from its lanes.

        Raises:
            ConcurrencyError: if a worker thread died.  The phase has
                already been settled by then (``end_parallel`` cannot
                be retried), so the settled account and the updated
                per-worker statistics ride on the error as
                ``error.account`` / ``error.worker_stats`` instead of
                being lost.
        """
        if not self._running:
            return None
        for worker_id, line in enumerate(self._queues):
            self._join_line(worker_id, line)
        for line in self._queues:
            line.put(_STOP)
        for thread in list(self._threads.values()):
            thread.join()
        for worker_id, line in enumerate(self._queues):
            self._join_line(worker_id, line)
        self._running = False
        with self._access_lock:
            for access in self._accesses.values():
                witness.disarm(access.index)
        account = None
        if hasattr(self.clock, "end_parallel"):
            account = self.clock.end_parallel()
            for ident, busy in account.lanes.items():
                worker_id = self._idents.get(ident)
                if worker_id is not None:
                    self.stats[worker_id].busy_s += busy
        self._check_failure(account)
        return account

    def _check_failure(self, account=None) -> None:
        # The failure stays sticky: a second drain()/stop() must keep
        # failing until clear_failure() -- silently reporting success
        # after a fatal worker death was a real bug (ISSUE 8).
        if self._failure is not None:
            failure = self._failure
            error = ConcurrencyError(f"tuning worker died: {failure!r}")
            error.account = account
            error.worker_stats = self.worker_stats()
            raise error from failure

    def clear_failure(self) -> BaseException | None:
        """Acknowledge and clear a fatal failure; returns it."""
        failure, self._failure = self._failure, None
        return failure

    # -- windows --------------------------------------------------------

    def run_window(
        self,
        actions: int | None = None,
        budget_s: float | None = None,
    ) -> TuningReport:
        """Drain one idle window through the workers.

        Mirrors the serial :class:`IdleScheduler` semantics: an action
        count is dispatched in full; a time budget is checked between
        batches, so the last batch may slightly overshoot.  The window
        report's ``consumed_s`` is the parallel elapsed time (max over
        worker lanes), and ``busy_s`` the aggregate work.

        If the pool is not already running the window owns the whole
        lifecycle (start, drain, stop); a pool started explicitly --
        e.g. to race workers against foreground queries -- stays
        running afterwards.

        Raises:
            ConfigError: if neither an action count nor a budget is
                given, or the given one is negative.
        """
        if actions is None and budget_s is None:
            raise ConfigError(
                "a worker window needs an action count or a time budget"
            )
        if actions is not None and actions < 0:
            raise ConfigError(f"actions must be >= 0, got {actions}")
        if budget_s is not None and budget_s < 0:
            raise ConfigError(f"budget must be >= 0, got {budget_s}")
        owns_lifecycle = not self._running
        self.start()
        # Clocks without parallel accounting (bare Clock protocol
        # implementations) fall back to plain now() deltas, so time
        # budgets still terminate.
        lanes = hasattr(self.clock, "parallel_elapsed")
        now_before = self.clock.now()
        elapsed_before = self._parallel_elapsed()
        busy_before = self._parallel_busy()
        stalls_before = self.tape.stall_count()

        def elapsed() -> float:
            if lanes:
                return self._parallel_elapsed() - elapsed_before
            return self.clock.now() - now_before

        with self._window_lock:
            self._window = _Window()
            window = self._window
        if actions is not None:
            self.submit(actions)
            self.drain()
        else:
            while not window.exhausted and elapsed() < budget_s:
                self.submit(self.num_workers)
                self.drain()
        consumed = elapsed()
        busy = self._parallel_busy() - busy_before if lanes else consumed
        if owns_lifecycle:
            self.stop()
        report = TuningReport(
            actions_attempted=window.attempted,
            actions_effective=window.effective,
            consumed_s=consumed,
            per_column=dict(window.per_column),
            stop_reason=(
                "all candidates refined"
                if window.exhausted
                else (
                    "action budget exhausted"
                    if actions is not None
                    else "time budget exhausted"
                )
            ),
            per_worker=dict(window.per_worker),
            stalls=self.tape.stall_count() - stalls_before,
            busy_s=busy,
            workers=self.num_workers,
        )
        self.windows_run += 1
        return report

    def _parallel_elapsed(self) -> float:
        if hasattr(self.clock, "parallel_elapsed"):
            return self.clock.parallel_elapsed()
        return 0.0

    def _parallel_busy(self) -> float:
        if hasattr(self.clock, "parallel_busy"):
            return self.clock.parallel_busy()
        return 0.0

    # -- the workers ----------------------------------------------------

    def _worker_loop(self, worker_id: int) -> None:
        # Register under the clock's stable lane id (thread idents are
        # recycled by the OS; see SimClock.current_lane).
        if hasattr(self.clock, "current_lane"):
            self._idents[self.clock.current_lane()] = worker_id
        else:
            self._idents[threading.get_ident()] = worker_id
        line = self._queues[worker_id]
        while True:
            token = line.get()
            try:
                if token is _STOP:
                    return
                if self._failure is None:
                    self._perform_one(worker_id)
            except BaseException as exc:  # noqa: BLE001 - supervised
                # The thread dies (its loop ends here); the supervisor
                # decides whether a replacement takes over its slot and
                # its failed token.
                self._supervise_crash(worker_id, line, exc)
                return
            finally:
                line.task_done()

    # -- supervision ----------------------------------------------------

    def _supervise_crash(
        self, worker_id: int, line: queue.Queue, error: BaseException
    ) -> None:
        """React to a worker death: repair, quarantine, restart.

        Runs on the dying thread, after its latches unwound.  The
        crashed column's piece state is re-verified (and rebuilt when
        inconsistent) under the index's exclusive latch before any
        replacement worker can touch it; repeated killers are
        dead-lettered; the slot is restarted with capped exponential
        backoff until its budget runs out, at which point the failure
        becomes fatal and sticky.
        """
        with self._state_lock:
            state = self._current.pop(worker_id, None)
        quarantined_all = False
        if state is not None:
            self._verify_and_repair(state)
            with self._state_lock:
                crashes = self._crashes.get(state.ref, 0) + 1
                self._crashes[state.ref] = crashes
                threshold = self.supervisor.quarantine_threshold
                if crashes >= threshold and state.ref not in self.dead_letter:
                    self.dead_letter.append(state.ref)
                    self.crash_log.append(
                        f"quarantined {state.ref.table}.{state.ref.column} "
                        f"after {crashes} worker crashes"
                    )
                quarantined_all = bool(self.ranking.states()) and all(
                    s.ref in self.dead_letter
                    for s in self.ranking.states()
                )
        if quarantined_all:
            self._failure = ConcurrencyError(
                "every tuning candidate is quarantined "
                f"(dead letter: {[str(r) for r in self.dead_letter]}); "
                f"last crash: {error!r}"
            )
            self._failure.__cause__ = error
            return
        with self._state_lock:
            restarts = self._restarts.get(worker_id, 0)
            if restarts >= self.supervisor.max_restarts_per_worker:
                self._failure = error
                return
            self._restarts[worker_id] = restarts + 1
            self.restarts_total += 1
        delay = self.supervisor.backoff.delay_s(restarts)
        if delay > 0:
            self._sleep(delay)
        self.crash_log.append(
            f"worker {worker_id} crashed ({type(error).__name__}: "
            f"{error}); restart #{restarts + 1}"
        )
        # The retry token is enqueued before this thread's task_done
        # (our caller's finally) so a concurrent drain never observes
        # the line transiently empty between death and retry.
        if self._running:
            self._spawn_worker(worker_id)
            line.put(None)
        # Credit whichever fault point the absorbed error came from
        # (an injected crash carries its point; genuine errors default
        # to the worker action site).
        point = getattr(error, "point", None)
        faults.recovered(  # repro: allow[fault-coverage] -- dynamic credit: the name travels on the injected error, and every value it can carry is a registered literal at its trip site

            point if isinstance(point, str) else "workers.perform",
            f"worker {worker_id} restarted",
        )

    def _verify_and_repair(self, state: ColumnTuningState) -> None:
        """Check the crashed column's invariants; rebuild on damage.

        Holds the whole-index latch so no replacement worker or query
        sees intermediate state -- the piece is verified and repaired
        *before* the latch is released, then the fault-free answer path
        resumes.
        """
        access = self.register_index(state.ref, state.index)
        with access.exclusive():
            try:
                state.index.check_invariants()
            except CrackerError:
                state.index.rebuild()
                with self._state_lock:
                    self.rebuilds_total += 1
                self.crash_log.append(
                    f"rebuilt {state.ref.table}.{state.ref.column}: "
                    "crash left the piece map inconsistent"
                )

    def _choose_state(self, worker_id: int) -> ColumnTuningState | None:
        """Pick the next non-quarantined column, or ``None`` when the
        ranking is exhausted.

        When the policy only ever offers dead-lettered columns there
        are two distinct situations.  If every *live* (non-quarantined)
        candidate is already refined, the unrefined work that remains
        is exactly the quarantined set: the pool has done everything it
        safely can, which is exhaustion, not failure.  But if a live
        unrefined candidate exists that the policy refuses to rotate to
        (the ranked policy re-offering a dead-lettered best column
        forever), submitted actions would silently become no-ops -- the
        exact bug class ISSUE 8's satellite fixed for dead workers --
        so that is a fatal, sticky failure.
        """
        with self._policy_lock:
            states = self.ranking.states()
            for _ in range(len(states) + 1):
                state = self.policy.choose(self.ranking)
                if state is None:
                    return None
                if state.ref not in self.dead_letter:
                    with self._state_lock:
                        self._current[worker_id] = state
                    return state
            stuck = any(
                s.ref not in self.dead_letter
                and not self.ranking.is_refined(s)
                for s in states
            )
        if not stuck:
            return None
        self._failure = ConcurrencyError(
            "every candidate the tuning policy offers is quarantined "
            f"(dead letter: {[str(r) for r in self.dead_letter]})"
        )
        return None

    def supervisor_summary(self) -> dict[str, object]:
        """JSON-ready account of supervision activity."""
        with self._state_lock:
            return {
                "restarts": self.restarts_total,
                "rebuilds": self.rebuilds_total,
                "dead_letter": [
                    f"{ref.table}.{ref.column}" for ref in self.dead_letter
                ],
                "crashes_per_column": {
                    f"{ref.table}.{ref.column}": count
                    for ref, count in sorted(
                        self._crashes.items(), key=lambda kv: str(kv[0])
                    )
                },
                "log": list(self.crash_log),
            }

    def _perform_one(self, worker_id: int) -> None:
        stats = self.stats[worker_id]
        state = self._choose_state(worker_id)
        if state is None:
            with self._window_lock:
                self._window.exhausted = True
            return
        access = self.register_index(state.ref, state.index)
        stalls_before = self.tape.stall_count(worker_id)
        with self.tape.attribution(worker_id):
            effective = self._perform_action(worker_id, state, access)
        stats.actions_attempted += 1
        stats.stalls += self.tape.stall_count(worker_id) - stalls_before
        if effective:
            stats.actions_effective += 1
            with self._policy_lock:
                self.ranking.note_tuning_action(state.ref)
        with self._window_lock:
            window = self._window
            window.attempted += 1
            if effective:
                window.effective += 1
                window.per_column[state.ref] = (
                    window.per_column.get(state.ref, 0) + 1
                )
                window.per_worker[worker_id] = (
                    window.per_worker.get(worker_id, 0) + 1
                )
        with self._state_lock:
            self._current[worker_id] = None

    def _perform_action(
        self,
        worker_id: int,
        state: ColumnTuningState,
        access: LatchedCrackerAccess,
    ) -> bool:
        """One auxiliary action under the appropriate latches."""
        faults.trip("workers.perform")
        return self._tuners[worker_id].perform_latched(access)

    def worker_stats(self) -> list[WorkerStats]:
        """Per-worker lifetime statistics, by worker id."""
        return [self.stats[i] for i in range(self.num_workers)]
