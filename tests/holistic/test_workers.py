"""Tests for the parallel tuning worker pool.

Covers the serial fallback contract (``num_workers=0`` is bit-for-bit
the pre-worker kernel), window semantics, parallel time accounting,
worker attribution on the tape, and -- the important one -- a stress
test racing worker threads against foreground queries on the same
cracker index, checked against a serial oracle.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import TINY
from repro.engine.query import RangeQuery
from repro.errors import ConcurrencyError, ConfigError
from repro.holistic.kernel import HolisticConfig, HolisticKernel
from repro.holistic.workers import TuningWorkerPool
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table

from tests.conftest import ground_truth_count


def _db(columns=3, rows=10_000, seed=42) -> Database:
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=rows, columns=columns, seed=seed))
    return db


def _query(low, high, column="A1"):
    return RangeQuery(ColumnRef("R", column), low, high)


# -- configuration -------------------------------------------------------


def test_config_validates_worker_knobs():
    with pytest.raises(ConfigError):
        HolisticConfig(num_workers=-1)
    assert HolisticConfig().num_workers == 0


def test_pool_requires_at_least_one_worker(tiny_db):
    kernel = HolisticKernel(tiny_db)
    with pytest.raises(ConfigError):
        TuningWorkerPool(
            clock=tiny_db.clock,
            tape=kernel.tape,
            ranking=kernel.ranking,
            policy=kernel.policy,
            num_workers=0,
        )


def test_serial_kernel_has_no_pool_and_no_worker_marks(tiny_db):
    kernel = HolisticKernel(tiny_db)
    assert kernel.worker_pool is None
    kernel.select(_query(1e7, 3e7))
    kernel.exploit_idle(actions=20)
    assert all(r.worker is None for r in kernel.tape.records())
    with pytest.raises(ConfigError):
        kernel.start_workers()
    with pytest.raises(ConfigError):
        kernel.stop_workers()


def test_serial_fallback_reproduces_identical_tape():
    """num_workers=0 must behave exactly like the pre-worker kernel.

    Two fresh kernels -- default config vs. explicit num_workers=0 --
    run the same workload and must produce identical tapes, clocks and
    results.
    """
    tapes = []
    for config in (HolisticConfig(), HolisticConfig(num_workers=0)):
        db = _db()
        kernel = HolisticKernel(db, config)
        counts = []
        counts.append(kernel.select(_query(1e7, 3e7)).count)
        kernel.exploit_idle(actions=25)
        counts.append(kernel.select(_query(2e7, 6e7, "A2")).count)
        kernel.exploit_idle(budget_s=0.02)
        tapes.append(
            (
                counts,
                db.clock.now(),
                [
                    (r.timestamp, r.origin, r.pivot, r.position, r.worker)
                    for r in kernel.tape.records()
                ],
            )
        )
    assert tapes[0] == tapes[1]


# -- windowed parallel tuning -------------------------------------------


def test_worker_window_refines_and_attributes_workers():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    outcome = kernel.exploit_idle(actions=40)
    assert outcome.actions_done > 0
    assert outcome.consumed_s > 0
    summary = kernel.tuning_summary()
    assert summary.workers == 2
    assert summary.actions_attempted == 40
    assert set(summary.per_worker) <= {0, 1}
    workers_on_tape = {
        r.worker
        for r in kernel.tape.records()
        if r.origin.value == "tuning"
    }
    assert workers_on_tape <= {0, 1}
    assert workers_on_tape  # at least one worker recorded actions
    for index in kernel.indexes.values():
        index.check_invariants()


def test_parallel_window_is_faster_than_serial_window():
    consumed = {}
    for workers in (1, 4):
        db = _db()
        kernel = HolisticKernel(db, HolisticConfig(num_workers=workers))
        outcome = kernel.exploit_idle(actions=64)
        consumed[workers] = outcome.consumed_s
        assert outcome.actions_done > 0
    assert consumed[4] < consumed[1]


def test_budget_window_with_workers_consumes_roughly_budget():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    outcome = kernel.exploit_idle(budget_s=0.05)
    # Budget is checked between batches; the window may overshoot by
    # at most one batch but must not stop early while unrefined.
    assert outcome.consumed_s >= 0.05 or "refined" in outcome.note
    assert outcome.actions_done > 0


def test_window_reports_all_refined_when_candidates_done():
    db = _db(columns=1, rows=64)
    kernel = HolisticKernel(
        db,
        HolisticConfig(num_workers=2, cache_target_elements=32),
    )
    kernel.exploit_idle(actions=200)
    outcome = kernel.exploit_idle(actions=10)
    assert "all candidates refined" in outcome.note


def test_clock_leaves_parallel_phase_after_window():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=3))
    kernel.exploit_idle(actions=30)
    assert not db.clock.in_parallel
    assert kernel.worker_pool is not None
    assert not kernel.worker_pool.is_running


def test_session_integration_via_strategy_options():
    db = _db()
    session = db.session("holistic", num_workers=2)
    session.select("R", "A1", 0, 1_000_000)
    record = session.idle(actions=32)
    assert record.actions_done > 0
    assert "2 workers" in record.note


# -- queries racing workers ---------------------------------------------


def test_stress_queries_race_workers_against_serial_oracle():
    """K worker threads refine while the foreground runs selects.

    Every query result must match a numpy oracle on the base column,
    and after draining, the piece map and cracker column must satisfy
    every structural invariant.
    """
    rows = 20_000
    db = _db(columns=2, rows=rows)
    kernel = HolisticKernel(
        db,
        HolisticConfig(num_workers=4, cache_target_elements=64),
    )
    column = db.column("R", "A1")
    rng = np.random.default_rng(99)
    kernel.start_workers()
    try:
        kernel.submit_tuning(600)
        for _ in range(120):
            low = float(rng.uniform(0, 9.5e7))
            high = low + float(rng.uniform(1e5, 5e6))
            result = kernel.select(_query(low, high))
            assert result.count == ground_truth_count(column, low, high)
        kernel.drain_workers()
    finally:
        kernel.stop_workers()
    for index in kernel.indexes.values():
        index.check_invariants()
    # The workers really did run concurrently with the queries.
    tuning_workers = {
        r.worker
        for r in kernel.tape.records()
        if r.origin.value == "tuning" and r.worker is not None
    }
    assert len(tuning_workers) >= 2
    assert not db.clock.in_parallel


def test_stress_contended_single_column_counts_stalls():
    """All workers hammer one tiny column: latch conflicts must be
    detected (stalls counted), never corrupting the index."""
    db = _db(columns=1, rows=2_000)
    kernel = HolisticKernel(
        db, HolisticConfig(num_workers=4, cache_target_elements=2)
    )
    kernel.exploit_idle(actions=400)
    index = kernel.index_for(ColumnRef("R", "A1"))
    index.check_invariants()
    summary = kernel.tuning_summary()
    assert summary.stalls == kernel.tape.stall_count()
    # Random cracks all take the table latch shared, so stalls are
    # rare; whatever the count, the window report and tape agree.
    assert summary.actions_attempted == 400


def test_explicit_lifecycle_folds_worker_time_into_clock():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    before = db.clock.now()
    kernel.start_workers()
    kernel.submit_tuning(40)
    kernel.drain_workers()
    kernel.stop_workers()
    assert db.clock.now() > before
    pool = kernel.worker_pool
    assert pool is not None
    busy = sum(stats.busy_s for stats in pool.worker_stats())
    assert busy > 0
    assert busy >= db.clock.now() - before  # lanes overlap


def test_worker_queries_race_from_two_foreground_threads():
    """Two foreground threads issue latched selects while workers
    crack: exercises multi-acquirer deadlock-freedom end to end."""
    db = _db(columns=1, rows=10_000)
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    column = db.column("R", "A1")
    errors: list[str] = []
    kernel.start_workers()

    def forager(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(40):
            low = float(rng.uniform(0, 9e7))
            high = low + 2e6
            count = kernel.select(_query(low, high)).count
            if count != ground_truth_count(column, low, high):
                errors.append(f"wrong count for [{low}, {high})")

    try:
        kernel.submit_tuning(200)
        threads = [
            threading.Thread(target=forager, args=(s,)) for s in (1, 2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        kernel.drain_workers()
    finally:
        kernel.stop_workers()
    assert errors == []
    kernel.index_for(ColumnRef("R", "A1")).check_invariants()


def test_stop_preserves_settled_account_when_worker_died():
    """Regression: a worker death used to lose the ParallelAccount.

    ``stop()`` settles the parallel phase with ``end_parallel()`` and
    only then re-raises the worker failure -- the phase cannot be
    settled twice, so the account (and the busy_s statistics derived
    from its lanes) were unrecoverable and a retried ``stop()``
    silently returned ``None``.  The settled account and the updated
    worker statistics must ride on the raised ``ConcurrencyError``.
    """
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    pool = kernel.worker_pool

    def explode(worker_id, state, access):
        raise RuntimeError("injected worker crash")

    pool._perform_action = explode
    kernel.start_workers()
    kernel.submit_tuning(8)
    with pytest.raises(ConcurrencyError) as excinfo:
        pool.stop()
    error = excinfo.value
    assert error.account is not None
    assert error.account.elapsed_s >= 0.0
    assert [s.worker_id for s in error.worker_stats] == [0, 1]
    # The phase really was closed: no dangling parallel state, and a
    # retried stop() is an honest no-op.
    assert not db.clock.in_parallel
    assert pool.stop() is None


def test_drain_failure_reports_stats_without_account():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    pool = kernel.worker_pool

    def explode(worker_id, state, access):
        raise RuntimeError("injected worker crash")

    pool._perform_action = explode
    kernel.start_workers()
    try:
        kernel.submit_tuning(4)
        with pytest.raises(ConcurrencyError) as excinfo:
            pool.drain()
        # drain() has not settled the phase yet: no account to attach,
        # but the statistics snapshot is still there.
        assert excinfo.value.account is None
        assert len(excinfo.value.worker_stats) == 2
    finally:
        # The failure is sticky: stop() keeps raising until it is
        # explicitly acknowledged (see test_failure_is_sticky_*).
        with pytest.raises(ConcurrencyError):
            pool.stop()
        assert pool.clear_failure() is not None


# -- session-level background tuning ------------------------------------


def test_session_background_tuning_races_queries():
    db = _db(columns=2)
    session = db.session("holistic", num_workers=2)
    column = db.column("R", "A1")
    session.start_background_tuning(120)
    try:
        for i in range(20):
            low = 4e6 * i
            high = low + 2e6
            result = session.select("R", "A1", low, high)
            assert result.count == ground_truth_count(column, low, high)
    finally:
        session.finish_background_tuning()
    assert not db.clock.in_parallel
    kernel = session.strategy
    assert kernel.tuning_summary is not None
    tuning = [
        r
        for r in kernel.tape.records()
        if r.origin.value == "tuning" and r.worker is not None
    ]
    assert tuning  # workers really refined in the background
    for index in kernel.indexes.values():
        index.check_invariants()


def test_session_background_tuning_requires_workers():
    db = _db()
    scans = db.session("scan")
    with pytest.raises(ConfigError):
        scans.start_background_tuning(10)
    serial = db.session("holistic")  # num_workers=0
    with pytest.raises(ConfigError):
        serial.start_background_tuning(10)
    with pytest.raises(ConfigError):
        scans.finish_background_tuning()


def test_budget_window_terminates_on_minimal_clock():
    """A bare Clock (no parallel-lane accounting) still bounds the
    time-budget loop via plain now() deltas."""

    class MinimalClock:
        def __init__(self):
            self._now = 0.0

        def now(self):
            return self._now

        def charge(self, charge):
            self._now += 1e-4
            return 1e-4

        def sleep(self, seconds):
            self._now += seconds

    db = Database(clock=MinimalClock())
    db.add_table(build_paper_table(rows=50_000, columns=1, seed=3))
    kernel = HolisticKernel(
        db, HolisticConfig(num_workers=2, cache_target_elements=2)
    )
    outcome = kernel.exploit_idle(budget_s=0.001)
    # A tiny budget must not refine the whole 50k-row column.
    assert outcome.actions_done < 200
    assert outcome.consumed_s >= 0.001
