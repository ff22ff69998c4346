"""The benchmark's workloads over the holistic kernel.

``BENCHMARK.json`` lists the three that every run of the benchmark
measures: ``serve_shared``, ``rw_durable`` and ``idle_cores``.
``cold_idle`` is idle_cores' workload shape on the serial kernel, with
twice the queries; it is not listed, but runs by name as the
latch-free baseline for idle_cores.

Each workload turns a seed into fixed inputs once (queries, writes,
and the exact reference answers' base data), then runs *repeats*: one
repeat builds a fresh engine (timed as set-up), drives the inputs
through it (the timed region) and checks every answer outside the
timed region.  Every repeat of one run sees the same inputs, and every
workload is replayable, so each repeat must produce the same
determinism fingerprint.

All engines use the paper-projected cost model, so the cache-fit piece
size and the idle scheduler's depth match the paper's 10^8-row runs.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from repro import (
    CostModel,
    Database,
    RangeQuery,
    ServingFrontend,
    SimClock,
    build_paper_table,
    make_strategy,
    projection_scale,
)
from repro.persist import manager as persist_manager
from repro.simtime import PAPER_COLUMN_ROWS
from repro.storage.catalog import ColumnRef
from repro.storage.loader import generate_uniform_float_column
from repro.workload.generators import MixedTraceGenerator
from repro.workload.multiclient import make_closed_loop_clients

from perfbench.reference import (
    ColumnReference,
    DeltaReference,
    bit_sum,
    bit_sums,
)

VALUE_LOW = 1
VALUE_HIGH = 100_000_000

#: Per-workload sizes; ``tiny`` exists for the benchmark's own tests.
#: Full sizes: 2M-row int64 columns (16 MB) are far larger than a
#: 4 MiB L2; serve_shared forms 1,000 windows per repeat, so its p99
#: has ten windows beyond it; rw_durable's checkpoint interval makes
#: checkpoints about a third of its timed region, not nearly all.
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "full": {
        "cold_idle": dict(rows=2_000_000, columns=2, queries=16_000,
                          idle_every=100, idle_actions=100),
        "serve_shared": dict(rows=1_000_000, columns=2, clients=8,
                             queries_per_client=16_000, depth=16),
        "rw_durable": dict(rows=500_000, ops=5_000, idle_every=100,
                           idle_actions=100, checkpoint_interval=1024),
        "idle_cores": dict(rows=2_000_000, columns=2, queries=8_000,
                           idle_every=100, idle_actions=100),
    },
    "tiny": {
        "cold_idle": dict(rows=20_000, columns=2, queries=400,
                          idle_every=50, idle_actions=20),
        "serve_shared": dict(rows=20_000, columns=2, clients=4,
                             queries_per_client=100, depth=8),
        "rw_durable": dict(rows=20_000, ops=600, idle_every=50,
                           idle_actions=20, checkpoint_interval=128),
        "idle_cores": dict(rows=20_000, columns=2, queries=400,
                           idle_every=50, idle_actions=20),
    },
}


@dataclass
class Sample:
    """What one repeat measured.  Times are seconds unless noted."""

    setup_s: float = 0.0
    #: Wall time of every timed operation, in the order run; together
    #: they tile the timed region (checks and the restart excluded).
    busy_ns: list[int] = field(default_factory=list)
    #: Latency of every query, and of every staged write.
    query_ns: list[int] = field(default_factory=list)
    write_ns: list[int] = field(default_factory=list)
    idle_s: float = 0.0
    idle_actions: int = 0
    restart_s: float | None = None
    sim_response_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: str | None = None
    #: Layer counts read from the engine's end state.
    counters: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics; set by the caller for traced repeats.
    layer_values: dict[str, float] = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        """Wall time of the timed region, restart included."""
        return sum(self.busy_ns) / 1e9 + (self.restart_s or 0.0)


def projected_database(table) -> Database:
    """A database holding ``table``, its clock projecting the table's
    rows onto the paper's scale (as ``bench exp1`` does)."""
    scale = projection_scale(table.row_count, PAPER_COLUMN_ROWS)
    db = Database(clock=SimClock(CostModel(scale=scale)))
    db.add_table(table)
    return db


def _references(table, refs) -> list[ColumnReference]:
    return [ColumnReference(table.column(ref.column).values) for ref in refs]


def cache_fit_rows(rows: int) -> int:
    """The holistic kernel's cache-fit target for a projected database."""
    model = CostModel(scale=projection_scale(rows, PAPER_COLUMN_ROWS))
    return max(1, int(model.constants.cache_elements() / model.scale))


def _answers(
    references: list[ColumnReference],
    columns: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (counts, bit-sums) of every query on unmodified columns."""
    counts = np.zeros(len(columns), dtype=np.int64)
    sums = np.zeros(len(columns), dtype=np.uint64)
    for c, reference in enumerate(references):
        slots = np.flatnonzero(columns == c)
        counts[slots], sums[slots] = reference.answers(
            lows[slots], highs[slots]
        )
    return counts, sums


def _check_answers(
    sample: Sample,
    label: str,
    expected: tuple[np.ndarray, np.ndarray],
    counts: list[int],
    sums: list[int],
) -> None:
    """Count every answer that differs from the reference as failed."""
    want_counts, want_sums = expected
    got_counts = np.asarray(counts, dtype=np.int64)
    bad = (got_counts != want_counts) | (
        np.asarray(sums, dtype=np.uint64) != want_sums
    )
    wrong = int(np.count_nonzero(bad))
    if wrong:
        first = int(np.argmax(bad))
        sample.problems.append(
            f"{label}: {wrong} wrong answers (first: query #{first} returned "
            f"{got_counts[first]} rows, reference {want_counts[first]})"
        )
    sample.failed += wrong


def _check_indexes(sample: Sample, indexes) -> None:
    for ref, index in sorted(indexes.items(), key=lambda kv: str(kv[0])):
        try:
            index.check_invariants()
        except Exception as error:  # any broken invariant fails the run
            sample.problems.append(f"{ref}: invariants broken: {error}")


def _fingerprint(sim_response_s: float, indexes, extra: bytes = b"") -> str:
    """Determinism fingerprint: exact simulated response time, total
    cracks and a hash of every piece map (plus ``extra``)."""
    sha = hashlib.sha256()
    cracks = 0
    for ref, index in sorted(indexes.items(), key=lambda kv: str(kv[0])):
        pieces = index.piece_map
        sha.update(f"{ref.table}.{ref.column}".encode())
        sha.update(np.asarray(pieces.pivots(), dtype=np.float64).tobytes())
        sha.update(np.asarray(pieces.cuts(), dtype=np.int64).tobytes())
        cracks += index.crack_count
    sha.update(extra)
    return f"sim={sim_response_s!r} cracks={cracks} pieces={sha.hexdigest()[:16]}"


def _index_counters(indexes, queries: int) -> dict[str, float]:
    cracks = sum(index.crack_count for index in indexes.values())
    pieces = sum(index.piece_count for index in indexes.values())
    rows = sum(index.row_count for index in indexes.values())
    return {
        "cracking.index.cracks_per_query": cracks / max(1, queries),
        "cracking.index.pieces_end": pieces,
        "cracking.index.avg_piece_rows": rows / max(1, pieces),
    }


def _scheduler_counters(kernel) -> dict[str, float]:
    lifetime = kernel.tuning_summary()
    return {
        "holistic.scheduler.actions": lifetime.actions_attempted,
        "holistic.scheduler.useful_ratio": (
            lifetime.actions_effective / max(1, lifetime.actions_attempted)
        ),
    }


class Workload:
    """Base: fixed inputs per seed, then repeat() as often as wanted."""

    name = ""

    def __init__(
        self, seed: int, size: str = "full", workdir: Path = Path(".")
    ) -> None:
        self.seed = seed
        self.size = dict(SIZES[size][self.name])
        self.rows = self.size["rows"]
        #: Scratch directory for anything a workload writes to disk.
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def measure(self, state, sample: Sample, on_timed_start) -> None:
        raise NotImplementedError

    def repeat(self, on_timed_start=lambda: None) -> Sample:
        """One fresh engine, one pass over the inputs, checked.

        ``on_timed_start`` runs between set-up and the timed region
        (the traced run resets its spans there).
        """
        sample = Sample()
        started = perf_counter_ns()
        state = self.setup()
        sample.setup_s = (perf_counter_ns() - started) / 1e9
        try:
            self.measure(state, sample, on_timed_start)
        finally:
            self.teardown(state)
        return sample

    def teardown(self, state) -> None:
        pass

    def environment(self) -> dict[str, object]:
        return {
            "rows": self.rows,
            "cost_model_scale": projection_scale(self.rows, PAPER_COLUMN_ROWS),
            "cache_fit_rows": cache_fit_rows(self.rows),
            **{k: v for k, v in self.size.items() if k != "rows"},
        }


def _uniform_queries(
    rng: np.random.Generator, count: int, columns: int, selectivity: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    span = (VALUE_HIGH - VALUE_LOW) * selectivity
    picks = rng.integers(0, columns, size=count)
    lows = rng.uniform(VALUE_LOW, VALUE_HIGH - span, size=count)
    return picks, lows, lows + span


class ColdIdle(Workload):
    """Paper Exp1 shape: one client, serial kernel, idle windows."""

    name = "cold_idle"
    #: Tuning workers; with one, the pool runs for the whole stream.
    num_workers = 0

    def __init__(
        self, seed: int, size: str = "full", workdir: Path = Path(".")
    ) -> None:
        super().__init__(seed, size, workdir)
        n = self.size["columns"]
        self.refs = [ColumnRef("R", f"A{c + 1}") for c in range(n)]
        rng = np.random.default_rng([seed, 1])
        self.columns, self.lows, self.highs = _uniform_queries(
            rng, self.size["queries"], n, 0.01
        )
        self.queries = [
            RangeQuery(self.refs[c], low, high)
            for c, low, high in zip(
                self.columns.tolist(), self.lows.tolist(), self.highs.tolist()
            )
        ]
        self.references = _references(
            build_paper_table(rows=self.rows, columns=n, seed=seed), self.refs
        )

    def setup(self):
        db = projected_database(
            build_paper_table(
                rows=self.rows, columns=len(self.refs), seed=self.seed
            )
        )
        session = db.session(
            "holistic", seed=self.seed, num_workers=self.num_workers
        )
        return db, session

    def measure(self, state, sample: Sample, on_timed_start) -> None:
        db, session = state
        every = self.size["idle_every"]
        actions = self.size["idle_actions"]
        counts: list[int] = []
        sums: list[int] = []
        lat = sample.query_ns
        busy = sample.busy_ns
        run_query = session.run_query
        idle = session.idle
        on_timed_start()
        if self.num_workers:
            # Running workers with nothing queued: the client's selects
            # go through the latched path, and each idle window is
            # drained by a worker thread (TuningWorkerPool.run_window)
            # while the client waits -- no two threads race for the
            # interpreter, so the run stays replayable.
            t0 = perf_counter_ns()
            session.start_background_tuning(0)
            busy.append(perf_counter_ns() - t0)
        try:
            for i, query in enumerate(self.queries):
                if i % every == 0:
                    t0 = perf_counter_ns()
                    record = idle(actions=actions)
                    t1 = perf_counter_ns()
                    busy.append(t1 - t0)
                    sample.idle_s += (t1 - t0) / 1e9
                    sample.idle_actions += record.actions_done
                    sample.attempted += 1
                t0 = perf_counter_ns()
                result = run_query(query)
                t1 = perf_counter_ns()
                lat.append(t1 - t0)
                busy.append(t1 - t0)
                counts.append(result.count)
                sums.append(bit_sum(result.values()))
        finally:
            if self.num_workers:
                t0 = perf_counter_ns()
                session.finish_background_tuning()
                busy.append(perf_counter_ns() - t0)
        sample.attempted += len(self.queries)
        kernel = session.strategy
        sample.sim_response_s = session.report.total_response_s
        _check_answers(
            sample,
            self.name,
            _answers(self.references, self.columns, self.lows, self.highs),
            counts,
            sums,
        )
        _check_indexes(sample, kernel.indexes)
        sample.fingerprint = _fingerprint(
            sample.sim_response_s, kernel.indexes
        )
        sample.counters.update(_index_counters(kernel.indexes, len(lat)))
        sample.counters.update(_scheduler_counters(kernel))
        pool = kernel.worker_pool
        if pool is None:
            return
        if db.clock.in_parallel:
            sample.problems.append("clock left in parallel mode")
            sample.failed += 1
        stats = pool.worker_stats()
        sample.counters["holistic.workers.actions"] = sum(
            s.actions_effective for s in stats
        )
        sample.counters["holistic.workers.stalls"] = sum(
            s.stalls for s in stats
        )
        sample.counters["holistic.workers.restarts"] = (
            pool.supervisor_summary()["restarts"]
        )


class IdleCores(ColdIdle):
    """cold_idle's shape with one tuning worker running throughout:
    every select takes piece latches and every idle window is drained
    by the worker thread."""

    name = "idle_cores"
    num_workers = 1


class ServeShared(Workload):
    """Eight closed-loop clients through the serving front-end."""

    name = "serve_shared"

    def __init__(
        self, seed: int, size: str = "full", workdir: Path = Path(".")
    ) -> None:
        super().__init__(seed, size, workdir)
        n = self.size["columns"]
        self.refs = [ColumnRef("R", f"A{c + 1}") for c in range(n)]
        self.clients = make_closed_loop_clients(
            self.refs,
            VALUE_LOW,
            VALUE_HIGH,
            clients=self.size["clients"],
            queries_per_client=self.size["queries_per_client"],
            selectivity=0.001,
            grid_points=320,
            grid_fraction=0.95,
            seed=seed,
        )
        self.references = _references(
            build_paper_table(rows=self.rows, columns=n, seed=seed), self.refs
        )
        self._column_of = {ref: c for c, ref in enumerate(self.refs)}

    def setup(self):
        db = projected_database(
            build_paper_table(
                rows=self.rows, columns=len(self.refs), seed=self.seed
            )
        )
        kernel = make_strategy("holistic", db, seed=self.seed)
        frontend = ServingFrontend(db, kernel, depth=self.size["depth"])
        for client in self.clients:
            frontend.add_client(client.client, client.queries)
        return db, kernel, frontend

    def measure(self, state, sample: Sample, on_timed_start) -> None:
        db, kernel, frontend = state
        columns: list[int] = []
        lows: list[float] = []
        highs: list[float] = []
        counts: list[int] = []
        sums: list[np.ndarray] = []
        column_of = self._column_of
        next_window = frontend.former.next_window
        serve_window = frontend.serve_window
        on_timed_start()
        while True:
            entries = next_window()
            if not entries:
                break
            t0 = perf_counter_ns()
            results = serve_window(entries)
            t1 = perf_counter_ns()
            sample.busy_ns.append(t1 - t0)
            # A query's latency is its whole window's wall time.
            sample.query_ns.extend([t1 - t0] * len(entries))
            for entry, result in zip(entries, results):
                query = entry.query
                columns.append(column_of[query.ref])
                lows.append(query.low)
                highs.append(query.high)
                counts.append(result.count)
            sums.append(bit_sums([result.values() for result in results]))
        sample.attempted = len(counts)
        sample.failed += len(frontend.faults)
        if frontend.faults:
            sample.problems.append(
                f"{len(frontend.faults)} client faults, first: "
                f"{frontend.faults[0]}"
            )
        lanes = frontend.lanes
        sample.sim_response_s = sum(
            lane.report.total_response_s for lane in lanes.values()
        )
        _check_answers(
            sample,
            self.name,
            _answers(
                self.references,
                np.asarray(columns),
                np.asarray(lows),
                np.asarray(highs),
            ),
            counts,
            np.concatenate(sums),
        )
        _check_indexes(sample, kernel.indexes)
        shadows = hashlib.sha256()
        for name, lane in sorted(lanes.items()):
            shadows.update(name.encode())
            shadows.update(repr(lane.report.total_response_s).encode())
            for (table, column), (pivots, cuts) in lane.shadow_state().items():
                shadows.update(f"{table}.{column}".encode())
                shadows.update(np.asarray(pivots, dtype=np.float64).tobytes())
                shadows.update(np.asarray(cuts, dtype=np.int64).tobytes())
        sample.fingerprint = _fingerprint(
            sample.sim_response_s, kernel.indexes, shadows.digest()
        )
        sample.counters.update(_index_counters(kernel.indexes, len(counts)))
        windows = len(sample.busy_ns)
        sample.counters["serving.frontend.windows"] = windows
        sample.counters["serving.frontend.window_rows_mean"] = len(
            counts
        ) / max(1, windows)


class RwDurable(Workload):
    """80/20 read/write trace, idle windows with incremental checkpoints,
    then a restart from the last generation."""

    name = "rw_durable"
    COLUMNS = ("A1", "A2", "F1")

    def __init__(
        self, seed: int, size: str = "full", workdir: Path = Path(".")
    ) -> None:
        super().__init__(seed, size, workdir)
        self.refs = [ColumnRef("R", name) for name in self.COLUMNS]
        table = self._table()
        generator = MixedTraceGenerator(
            {ref: table.column(ref.column).values for ref in self.refs},
            VALUE_LOW,
            VALUE_HIGH,
            write_ratio=0.2,
            selectivity=0.01,
            # Off 0.5, so the write median falls inside the insert
            # latencies instead of flipping between inserts and deletes.
            insert_fraction=0.75,
            batch_size=16,
            burst=4,
            seed=seed + 1,
        )
        column_of = {ref: c for c, ref in enumerate(self.refs)}
        dtypes = [table.column(ref.column).values.dtype for ref in self.refs]
        self.inserted = [DeltaReference(dtype) for dtype in dtypes]
        self.deleted = [DeltaReference(dtype) for dtype in dtypes]
        #: (kind, column, payload) per op; payload is a RangeQuery,
        #: insert values, or (positions, values).
        self.ops: list[tuple[str, int, object]] = []
        stamps, columns, lows, highs = [], [], [], []
        for position, op in enumerate(generator.ops(self.size["ops"])):
            c = column_of[op.ref]
            if op.is_query:
                self.ops.append(("query", c, RangeQuery(op.ref, op.low, op.high)))
                stamps.append(position)
                columns.append(c)
                lows.append(op.low)
                highs.append(op.high)
                continue
            values = np.asarray(op.values, dtype=dtypes[c])
            if op.kind == "insert":
                self.ops.append(("insert", c, values))
                self.inserted[c].stage(position, values)
            else:
                positions = np.asarray(op.positions, dtype=np.int64)
                self.ops.append(("delete", c, (positions, values)))
                self.deleted[c].stage(position, values)
        self.stamps = np.asarray(stamps, dtype=np.int64)
        self.columns = np.asarray(columns, dtype=np.int64)
        self.lows = np.asarray(lows, dtype=np.float64)
        self.highs = np.asarray(highs, dtype=np.float64)
        self.references = _references(table, self.refs)
        self.restart_query = self.ops[
            next(i for i, op in enumerate(self.ops) if op[0] == "query")
        ][2]

    def _table(self):
        table = build_paper_table(rows=self.rows, columns=2, seed=self.seed)
        table.add_column(
            generate_uniform_float_column(
                "F1",
                rows=self.rows,
                low=float(VALUE_LOW),
                high=float(VALUE_HIGH),
                seed=self.seed + 9,
            )
        )
        return table

    def expected(
        self, stamps: np.ndarray, columns: np.ndarray,
        lows: np.ndarray, highs: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reference answers with every write staged before each stamp."""
        counts, sums = _answers(self.references, columns, lows, highs)
        for c in range(len(self.refs)):
            slots = np.flatnonzero(columns == c)
            args = (stamps[slots], lows[slots], highs[slots])
            ins_n, ins_bits = self.inserted[c].answers(*args)
            del_n, del_bits = self.deleted[c].answers(*args)
            counts[slots] += ins_n - del_n
            # uint64 arithmetic wraps, like the bit-sums themselves.
            sums[slots] += ins_bits - del_bits
        return counts, sums

    def setup(self):
        db = projected_database(self._table())
        session = db.session("holistic", seed=self.seed)
        root = self.workdir / "snapshots"
        shutil.rmtree(root, ignore_errors=True)
        cursor = [0]
        manager = persist_manager.SnapshotManager(
            root, db, strategy=session.strategy, session=session
        )
        checkpointer = persist_manager.IncrementalCheckpointer(
            manager,
            interval_actions=self.size["checkpoint_interval"],
            extra_provider=lambda: {"cursor": cursor[0]},
        )
        session.strategy.attach_checkpointer(checkpointer)
        return db, session, manager, checkpointer, root, cursor

    def teardown(self, state) -> None:
        shutil.rmtree(state[4], ignore_errors=True)

    def measure(self, state, sample: Sample, on_timed_start) -> None:
        db, session, manager, checkpointer, root, cursor = state
        every = self.size["idle_every"]
        actions = self.size["idle_actions"]
        pending = [
            db.catalog.table(ref.table).updates_for(ref.column)
            for ref in self.refs
        ]
        counts: list[int] = []
        sums: list[int] = []
        lat = sample.query_ns
        writes = sample.write_ns
        busy = sample.busy_ns
        run_query = session.run_query
        idle = session.idle
        on_timed_start()
        for position, (kind, c, payload) in enumerate(self.ops):
            cursor[0] = position
            if position % every == 0:
                t0 = perf_counter_ns()
                record = idle(actions=actions)
                t1 = perf_counter_ns()
                busy.append(t1 - t0)
                sample.idle_s += (t1 - t0) / 1e9
                sample.idle_actions += record.actions_done
                sample.attempted += 1
            if kind == "query":
                t0 = perf_counter_ns()
                result = run_query(payload)
                t1 = perf_counter_ns()
                lat.append(t1 - t0)
                counts.append(result.count)
                sums.append(bit_sum(result.values()))
            elif kind == "insert":
                t0 = perf_counter_ns()
                pending[c].stage_inserts(payload)
                t1 = perf_counter_ns()
                writes.append(t1 - t0)
            else:
                t0 = perf_counter_ns()
                pending[c].stage_deletes(*payload)
                t1 = perf_counter_ns()
                writes.append(t1 - t0)
            busy.append(t1 - t0)
        cursor[0] = len(self.ops)
        if checkpointer.generations_written == 0:
            manager.checkpoint(extra={"cursor": cursor[0]})
        sample.sim_response_s = session.report.total_response_s
        kernel = session.strategy
        # Restart: restore the last generation, answer one query.
        t0 = perf_counter_ns()
        restored = persist_manager.restore_snapshot(
            root, cost_model=db.cost_model
        )
        answer = restored.session.run_query(self.restart_query)
        t1 = perf_counter_ns()
        sample.restart_s = (t1 - t0) / 1e9
        sample.attempted += len(self.ops) + 1
        _check_answers(
            sample,
            self.name,
            self.expected(self.stamps, self.columns, self.lows, self.highs),
            counts,
            sums,
        )
        # The restored engine holds the writes staged before the last
        # generation's cursor, and no others.
        _check_answers(
            sample,
            f"{self.name} restart",
            self.expected(
                np.asarray([restored.extra["cursor"]]),
                np.asarray([self.refs.index(self.restart_query.ref)]),
                np.asarray([self.restart_query.low]),
                np.asarray([self.restart_query.high]),
            ),
            [answer.count],
            [bit_sum(answer.values())],
        )
        _check_indexes(sample, kernel.indexes)
        sample.fingerprint = _fingerprint(
            sample.sim_response_s,
            kernel.indexes,
            repr(restored.db.clock.now()).encode(),
        )
        sample.counters.update(_index_counters(kernel.indexes, len(lat)))
        sample.counters.update(_scheduler_counters(kernel))
        sample.counters["storage.updates.pending_rows_end"] = sum(
            p.pending_insert_count + p.pending_delete_count for p in pending
        )


WORKLOADS = {
    cls.name: cls for cls in (ColdIdle, ServeShared, RwDurable, IdleCores)
}
