#!/usr/bin/env python3
"""Cracked indexes under updates and concurrent clients.

Two extensions the paper's related work ([11], [7]) calls out, both
implemented in this library:

* trickle inserts/deletes staged in delta stores and ripple-merged
  into the cracker column only when a query touches their value range;
* tuning worker threads refining indexes while queries run, with one
  read/write latch per index keeping them conflict-free.

Run:  python examples/updates_and_concurrency.py
"""

import numpy as np

from repro import Database, SimClock, scale_by_name
from repro.storage import build_paper_table

SCALE = scale_by_name("small")


def updates_demo() -> None:
    print("=== updates: ripple-merging the delta store ===")
    db = Database(clock=SimClock(SCALE.cost_model()))
    db.add_table(build_paper_table(rows=SCALE.rows, columns=2, seed=3))
    session = db.session("adaptive")

    # Warm the cracker index.
    session.select("R", "A1", 40_000_000, 45_000_000)
    baseline = session.report.queries[-1].result_count

    # New log records arrive: staged, not merged.
    fresh = {"A1": [42_000_000] * 500, "A2": list(range(500))}
    db.table("R").insert_rows(fresh)
    pending = db.table("R").updates_for("A1")
    print(f"staged {pending.pending_insert_count} pending inserts")

    # The next query in that range sees them immediately.
    result = session.select("R", "A1", 40_000_000, 45_000_000)
    print(
        f"query result grew from {baseline} to {result.count} rows "
        "(+500 pending inserts, correct without a rebuild)"
    )

    # Queries elsewhere never pay for the pending entries.
    result = session.select("R", "A1", 90_000_000, 91_000_000)
    print(
        f"unrelated range still answers {result.count} rows; "
        f"{pending.pending_insert_count} inserts remain staged"
    )


def concurrency_demo() -> None:
    print("\n=== concurrency: tuning workers race foreground queries ===")
    db = Database(clock=SimClock(SCALE.cost_model()))
    db.add_table(build_paper_table(rows=SCALE.rows, columns=2, seed=3))
    session = db.session("holistic", num_workers=2)

    # Queue background refinements and leave two worker threads
    # running: the queries below race them on the same indexes.
    session.start_background_tuning(400)
    rng = np.random.default_rng(0)
    wrong = 0
    for i in range(40):
        column = f"A{i % 2 + 1}"
        low = float(rng.uniform(1, 9e7))
        result = session.select("R", column, low, low + 1e6)
        values = db.column("R", column).values
        truth = np.count_nonzero((values >= low) & (values < low + 1e6))
        wrong += result.count != truth
    session.finish_background_tuning()

    kernel = session.strategy
    stats = kernel.worker_pool.worker_stats()
    print(
        f"40 queries answered, {wrong} wrong, while the workers made "
        f"{sum(s.actions_effective for s in stats)} refinements"
    )
    if wrong:
        raise SystemExit(f"{wrong} queries raced to a wrong answer")
    print(
        f"table-latch waits (stalls): {kernel.tape.stall_count()}; "
        f"clock back to serial: {not db.clock.in_parallel}"
    )
    for ref, index in kernel.indexes.items():
        index.check_invariants()
        print(f"{ref.column}: consistent with {index.piece_count} pieces")


if __name__ == "__main__":
    updates_demo()
    concurrency_demo()
