"""Unit tests for the blocking latch layer used by tuning workers."""

import threading

from repro.cracking.concurrency import LatchedCrackerAccess, ReadWriteLatch
from repro.cracking.index import CrackerIndex
from repro.cracking.piece import CrackOrigin

from tests.conftest import ground_truth_count


# -- ReadWriteLatch ------------------------------------------------------


def test_uncontended_acquisitions_do_not_stall():
    latch = ReadWriteLatch()
    assert latch.acquire_read() is False
    assert latch.acquire_read() is False  # readers share
    latch.release_read()
    latch.release_read()
    assert latch.acquire_write() is False
    latch.release_write()


def test_writer_waits_for_readers_and_reports_the_stall():
    latch = ReadWriteLatch()
    latch.acquire_read()
    outcome = []
    writer = threading.Thread(
        target=lambda: outcome.append(latch.acquire_write())
    )
    writer.start()
    # Writer must be parked until the reader leaves.
    writer.join(timeout=0.05)
    assert writer.is_alive()
    latch.release_read()
    writer.join(timeout=5)
    assert not writer.is_alive()
    assert outcome == [True]  # it had to wait -> contention stall
    latch.release_write()


def test_reader_waits_for_writer():
    latch = ReadWriteLatch()
    latch.acquire_write()
    outcome = []
    reader = threading.Thread(
        target=lambda: outcome.append(latch.acquire_read())
    )
    reader.start()
    reader.join(timeout=0.05)
    assert reader.is_alive()
    latch.release_write()
    reader.join(timeout=5)
    assert not reader.is_alive()
    assert outcome == [True]
    latch.release_read()


def test_later_reader_queues_behind_a_waiting_writer():
    """Writer preference: while a writer waits on a shared holder, a
    reader that arrives later waits until the writer has run -- so
    overlapping readers cannot starve a writer."""
    latch = ReadWriteLatch()
    latch.acquire_read()
    order = []

    def write():
        latch.acquire_write()
        order.append("writer")
        latch.release_write()

    # Daemon threads: a latch without writer preference fails this
    # test with both threads parked, and must not hang the run.
    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    writer.join(timeout=0.05)
    assert writer.is_alive()  # parked behind the shared holder

    def read():
        stalled = latch.acquire_read()
        order.append(("reader", stalled))
        latch.release_read()

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout=0.05)
    assert reader.is_alive()
    latch.release_read()
    writer.join(timeout=5)
    reader.join(timeout=5)
    assert order == ["writer", ("reader", True)]


def test_exclusive_excludes_piece_level_traffic(small_column):
    access = LatchedCrackerAccess(CrackerIndex(small_column))
    entered = threading.Event()
    release = threading.Event()

    def hold_exclusive():
        with access.exclusive():
            entered.set()
            release.wait(timeout=5)

    holder = threading.Thread(target=hold_exclusive)
    holder.start()
    assert entered.wait(timeout=5)
    counts = []

    def piece_user():
        counts.append(access.select_range(2e7, 3e7).count)

    thread = threading.Thread(target=piece_user)
    thread.start()
    thread.join(timeout=0.05)
    assert thread.is_alive()
    release.set()
    holder.join()
    thread.join(timeout=5)
    assert counts == [ground_truth_count(small_column, 2e7, 3e7)]
    assert access.index.tape.stall_count() == 1


# -- LatchedCrackerAccess ------------------------------------------------


def test_latched_select_matches_plain_select(small_column):
    plain = CrackerIndex(small_column)
    latched_index = CrackerIndex(small_column)
    access = LatchedCrackerAccess(latched_index)
    bounds = [(0, 2e7), (1e7, 5e7), (4.2e7, 4.21e7), (9e7, 1e8)]
    for low, high in bounds:
        expected = plain.select_range(low, high)
        got = access.select_range(low, high)
        assert got.count == expected.count
        assert got.count == ground_truth_count(small_column, low, high)
    assert latched_index.piece_map.pivots() == plain.piece_map.pivots()
    latched_index.check_invariants()


def test_latched_crack_value_contract(small_column):
    index = CrackerIndex(small_column)
    access = LatchedCrackerAccess(index)
    assert access.crack_value(5e7, origin=CrackOrigin.TUNING) is True
    # Same value again: already a pivot -> degenerate.
    assert access.crack_value(5e7, origin=CrackOrigin.TUNING) is False
    # A huge min size: piece too small -> degenerate.
    assert (
        access.crack_value(2.5e7, min_piece_size=10**9) is False
    )
    assert index.piece_map.has_pivot(5e7)
    index.check_invariants()
