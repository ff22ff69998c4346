"""One read/write latch per cracker index, for real worker threads.

"Concurrency control for adaptive indexing" (Graefe et al., PVLDB 2012
-- the paper's [7]) observes that cracking turns read-only selects into
structural writers.  Every structural :class:`CrackerIndex` method
already runs under the index's monitor lock, which keeps the cracker
column and piece map memory-safe; what threads still need is a way for
whole-index actions (piece scans, sorts, rebuilds, the serving
front-end's batched passes) to exclude the per-piece traffic of
foreground queries and tuning workers.  This module provides it:

* :class:`ReadWriteLatch` -- a condition-variable read/write latch
  with writer preference that reports whether an acquisition had to
  wait (a *contention stall*);
* :class:`LatchedCrackerAccess` -- a facade over one
  :class:`CrackerIndex` owning its *table latch*: selects and single
  cracks take it shared, whole-index actions take it exclusive, and
  every wait is counted as a stall on the crack tape.

Under CPython's GIL piece-level latches could not buy parallel speedup
on top of the monitor lock, so the index has exactly one latch.  The
virtual clock's parallel lanes translate the workers' concurrency into
the paper's multi-core time accounting.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro import faults
from repro.analysis import witness
from repro.cracking.index import CrackerIndex
from repro.cracking.piece import CrackOrigin
from repro.errors import LatchTimeout
from repro.storage.views import RangeView


class ReadWriteLatch:
    """A blocking read/write latch that reports contention.

    Many readers or one writer; acquisitions return ``True`` when they
    had to wait for another holder (a contention stall), which the
    callers feed into the crack tape's stall accounting.  Writers are
    preferred: once a writer waits, later readers queue behind it, so
    a stream of overlapping readers cannot starve it.  The latch is
    not reentrant -- a reader re-acquiring while a writer waits would
    deadlock.
    """

    def __init__(
        self,
        witness_group: str | None = None,
        witness_key: str | None = None,
    ) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        #: Lock-class tag for the latch witness (see
        #: :mod:`repro.analysis.witness`); ``None`` reads as untagged.
        self.witness_group = witness_group
        self.witness_key = witness_key

    def acquire_read(self) -> bool:
        """Take the latch shared; True if the acquisition waited."""
        with self._cond:
            stalled = self._writer or self._writers_waiting > 0
            while self._writer or self._writers_waiting > 0:
                self._cond.wait()
            self._readers += 1
        w = witness.active()
        if w is not None:
            w.note_acquire(self, "r")
        return stalled

    def release_read(self) -> None:
        w = witness.active()
        if w is not None:
            w.note_release(self, "r")
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> bool:
        """Take the latch exclusive; True if the acquisition waited."""
        with self._cond:
            stalled = self._writer or self._readers > 0
            self._writers_waiting += 1
            try:
                while self._writer or self._readers > 0:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        w = witness.active()
        if w is not None:
            w.note_acquire(self, "w")
        return stalled

    def release_write(self) -> None:
        w = witness.active()
        if w is not None:
            w.note_release(self, "w")
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class LatchedCrackerAccess:
    """Table-latched access to one :class:`CrackerIndex` for threads.

    Foreground queries and tuning workers go through this facade while
    a worker pool is active.  :meth:`select_range` and
    :meth:`crack_value` restructure at most two pieces and take the
    table latch shared (the index's monitor lock serialises their
    piece-map updates); :meth:`exclusive` excludes them all for
    actions that scan or rewrite the whole index.  Stalls are reported
    to the index's crack tape under the calling thread's worker
    attribution.

    Args:
        index: the cracker index to guard.
        witness_key: orders this table latch against other indexes'
            for the latch witness; owners that hold several at once
            must take them in ascending key order.
    """

    def __init__(
        self, index: CrackerIndex, witness_key: str | None = None
    ) -> None:
        self.index = index
        self.latch = ReadWriteLatch(
            witness_group="latch.table", witness_key=witness_key
        )

    @contextmanager
    def _shared(self, what: str) -> Iterator[None]:
        """The table latch in shared mode, for a ``what`` operation.

        An injected :class:`~repro.errors.LatchTimeout` is transient:
        it is counted as a contention stall and the acquisition
        retried -- queries never fail on latch pressure.
        """
        while True:
            try:
                faults.trip("latch.acquire", error=LatchTimeout)
                break
            except LatchTimeout:
                self.index.tape.note_stall()
                faults.recovered("latch.acquire", f"{what} re-acquired")
        stalled = self.latch.acquire_read()
        try:
            if stalled:
                self.index.tape.note_stall()
            yield
        finally:
            self.latch.release_read()

    def select_range(
        self,
        low: float,
        high: float,
        origin: CrackOrigin = CrackOrigin.QUERY,
    ) -> RangeView:
        """A cracking range select under the shared table latch."""
        with self._shared("select"):
            return self.index.select_range(low, high, origin)

    def crack_value(
        self,
        value: float,
        min_piece_size: int = 1,
        origin: CrackOrigin = CrackOrigin.TUNING,
    ) -> bool:
        """One latched crack at ``value``; False if it degenerated.

        Same contract as :meth:`CrackerIndex.crack_at`.
        """
        with self._shared("crack"):
            return (
                self.index.crack_at(value, min_piece_size, origin)
                is not None
            )

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Whole-index latch for actions that scan or sort pieces."""
        stalled = self.latch.acquire_write()
        try:
            if stalled:
                self.index.tape.note_stall()
            yield
        finally:
            self.latch.release_write()
