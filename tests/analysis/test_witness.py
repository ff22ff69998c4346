"""Unit tests for the runtime latch witness."""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis import witness
from repro.cracking.concurrency import LatchedCrackerAccess, ReadWriteLatch
from repro.cracking.index import CrackerIndex
from repro.errors import ConcurrencyError
from repro.simtime.clock import SimClock


@pytest.fixture(autouse=True)
def _no_leaked_witness():
    yield
    witness.disable()


def _latch(group: str, key: str | None = None) -> ReadWriteLatch:
    return ReadWriteLatch(witness_group=group, witness_key=key)


# -- lifecycle -----------------------------------------------------------


def test_enable_is_exclusive():
    with witness.enabled():
        with pytest.raises(ConcurrencyError):
            witness.enable()
    assert witness.active() is None


def test_hooks_are_free_when_disabled(small_column):
    # No witness: latch traffic and mutations must not record anything
    # or raise -- the production path.
    latch = _latch("latch.table")
    latch.acquire_write()
    latch.release_write()
    index = CrackerIndex(small_column, clock=SimClock())
    index.ensure_cut(5e7)
    assert witness.active() is None


# -- ordering ------------------------------------------------------------


def test_consistent_order_learns_edges_without_violations():
    table, inner = _latch("latch.table"), _latch("test.inner")
    with witness.enabled() as w:
        table.acquire_read()
        inner.acquire_write()
        inner.release_write()
        table.release_read()
    assert w.violations == []
    assert ("latch.table", "test.inner") in w.order_edges()
    assert w.acquires == 2 and w.releases == 2


def test_order_inversion_is_reported():
    table, inner = _latch("latch.table"), _latch("test.inner")
    with witness.enabled() as w:
        table.acquire_read()
        inner.acquire_write()
        inner.release_write()
        table.release_read()
        # now the other way round: inner -> table inverts
        inner.acquire_write()
        table.acquire_read()
        table.release_read()
        inner.release_write()
    kinds = [v.kind for v in w.violations]
    assert kinds == ["order-inversion"]
    assert "latch.table" in w.violations[0].detail


def test_strict_mode_raises_at_the_violation_site():
    table, inner = _latch("latch.table"), _latch("test.inner")
    with witness.enabled(strict=True):
        table.acquire_read()
        inner.acquire_write()
        inner.release_write()
        table.release_read()
        inner.acquire_write()
        with pytest.raises(witness.WitnessError):
            table.acquire_read()
        table.release_read()
        inner.release_write()


def test_table_latches_stack_in_sorted_name_order():
    """Distinct indexes' table latches may nest (the serving frontend's
    multi-column windows) but only in ascending key order."""
    a1 = _latch("latch.table", key="R.A1")
    a2 = _latch("latch.table", key="R.A2")
    with witness.enabled() as w:
        a1.acquire_write()
        a2.acquire_write()  # sorted column order: fine
        a2.release_write()
        a1.release_write()
        assert w.violations == []
        a2.acquire_write()
        a1.acquire_write()  # reversed: flagged
        a1.release_write()
        a2.release_write()
    assert [v.kind for v in w.violations] == ["key-order"]


def test_untagged_latches_group_together():
    a, b = ReadWriteLatch(), ReadWriteLatch()
    with witness.enabled() as w:
        a.acquire_read()
        b.acquire_read()
        b.release_read()
        a.release_read()
    assert [v.kind for v in w.violations] == ["order-inversion"]
    assert witness.UNTAGGED_GROUP in w.violations[0].detail


def test_violations_record_the_holding_thread():
    table, inner = _latch("latch.table"), _latch("test.inner")
    with witness.enabled() as w:
        table.acquire_read()
        inner.acquire_write()
        inner.release_write()
        table.release_read()

        def invert():
            inner.acquire_write()
            table.acquire_read()
            table.release_read()
            inner.release_write()

        worker = threading.Thread(target=invert, name="inverter")
        worker.start()
        worker.join()
    assert [v.thread for v in w.violations] == ["inverter"]
    assert w.violations[0].held[0].group == "test.inner"


# -- mutation coverage ---------------------------------------------------


def _armed_access(column) -> LatchedCrackerAccess:
    access = LatchedCrackerAccess(CrackerIndex(column, clock=SimClock()))
    witness.arm(access)
    return access


def test_unlatched_mutation_is_reported(small_column):
    with witness.enabled() as w:
        index = _armed_access(small_column).index
        index.ensure_cut(5e7)
    assert any(v.kind == "unlatched-mutation" for v in w.violations)
    assert w.mutation_checks > 0


def test_latched_access_passes_mutation_checks(small_column):
    with witness.enabled() as w:
        access = _armed_access(small_column)
        assert access.crack_value(5e7)
        result = access.select_range(2e7, 6e7)
        assert result.count > 0
    assert w.violations == []
    assert w.mutation_checks > 0


def test_table_exclusive_covers_whole_index_mutations(small_column):
    with witness.enabled() as w:
        access = _armed_access(small_column)
        index = access.index
        index.ensure_cut(5e7)  # build something to rebuild
        w.violations.clear()
        with access._shared("rebuild"):
            index.rebuild()  # shared is not enough for a whole index
        assert [v.kind for v in w.violations] == ["unlatched-mutation"]
        w.violations.clear()
        with access.exclusive():
            index.rebuild()
    assert w.violations == []


def test_unarmed_indexes_are_not_checked(small_column):
    with witness.enabled() as w:
        index = CrackerIndex(small_column, clock=SimClock())
        index.ensure_cut(5e7)  # never armed: no violation
    assert w.violations == []
    assert w.mutation_checks == 0


def test_disarm_stops_enforcement(small_column):
    with witness.enabled() as w:
        index = _armed_access(small_column).index
        witness.disarm(index)
        index.ensure_cut(5e7)
    assert w.violations == []


def test_summary_is_json_ready(small_column):
    with witness.enabled() as w:
        access = _armed_access(small_column)
        access.crack_value(4e7)
    summary = w.summary()
    assert summary["violations"] == []
    assert summary["acquires"] == summary["releases"] > 0
    # One latch per index: a single crack nests nothing.
    assert summary["order_edges"] == []
    json.dumps(summary)
