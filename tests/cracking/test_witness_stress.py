"""Concurrency stress under the latch witness.

Threads hammer one cracker index through the table-latch facade with
the witness enabled; the run must finish with zero order violations,
zero unlatched mutations, and results that match the serial oracle.
This is the dynamic half of the lock-order story -- the static
analyzer proves the graph acyclic, the witness checks the protocol the
running code actually follows.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.analysis import witness
from repro.cracking.concurrency import LatchedCrackerAccess
from repro.cracking.index import CrackerIndex
from repro.simtime.clock import SimClock

from tests.conftest import ground_truth_count

THREADS = 4
OPS_PER_THREAD = 60


@pytest.fixture(autouse=True)
def _no_leaked_witness():
    yield
    witness.disable()


@pytest.fixture(autouse=True)
def _fast_thread_switches():
    # Switch threads far more often than the default 5 ms so the
    # latch's check-then-wait windows actually interleave.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _bounds(seed: int, i: int) -> tuple[float, float]:
    # Deterministic per-thread query stream, no shared RNG.
    a = (seed * 1_000_003 + i * 7_919) % 100_000_000
    b = (seed * 999_983 + i * 104_729) % 100_000_000
    return (min(a, b), max(a, b) + 1)


def test_latched_access_stress_has_zero_witness_violations(small_column):
    index = CrackerIndex(small_column, clock=SimClock())
    access = LatchedCrackerAccess(index)
    errors: list[BaseException] = []

    def worker(seed: int) -> None:
        try:
            for i in range(OPS_PER_THREAD):
                low, high = _bounds(seed, i)
                if i % 3 == 0:
                    access.crack_value(low)
                else:
                    result = access.select_range(low, high)
                    assert result.count == ground_truth_count(
                        small_column, low, high
                    )
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    with witness.enabled() as w:
        witness.arm(access)
        threads = [
            threading.Thread(target=worker, args=(seed,), name=f"stress-{seed}")
            for seed in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    assert errors == []
    assert w.violations == [], [v.detail for v in w.violations]
    # The run exercised the protocol, it did not just idle.
    assert w.acquires == w.releases > 0
    assert w.mutation_checks > 0


def test_exclusive_rebuild_races_readers_cleanly(small_column):
    """A whole-table exclusive (rebuild) interleaved with latched reads
    must keep every mutation covered throughout -- and finish: with
    readers looping on the shared latch, the writer must not starve."""
    index = CrackerIndex(small_column, clock=SimClock())
    access = LatchedCrackerAccess(index)
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            i = 0
            while not stop.is_set():
                low, high = _bounds(17, i)
                access.select_range(low, high)
                i += 1
        except BaseException as exc:
            errors.append(exc)

    with witness.enabled() as w:
        witness.arm(access)
        threads = [
            threading.Thread(target=reader, name=f"reader-{n}")
            for n in range(2)
        ]
        for t in threads:
            t.start()
        for _ in range(5):
            with access.exclusive():
                index.rebuild()
        stop.set()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()

    assert errors == []
    assert w.violations == [], [v.detail for v in w.violations]
