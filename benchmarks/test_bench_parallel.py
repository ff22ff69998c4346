"""Bench: ExpP -- refinement convergence vs tuning worker count.

Sweeps the holistic kernel's ``num_workers`` knob over the same
multi-column refinement workload and checks the multi-core shape: the
virtual idle time to converge improves monotonically from 1 to 4
workers, because the parallel lanes overlap worker charges while the
table latches keep the refinements conflict-free.
"""

import pytest

from repro.bench.exp_parallel import expp_text, run_parallel_sweep


@pytest.mark.benchmark(group="parallel")
def test_bench_parallel_convergence_vs_cores(benchmark):
    result = benchmark.pedantic(
        run_parallel_sweep,
        args=("tiny",),
        kwargs={
            "worker_counts": (0, 1, 2, 4),
            "columns": 3,
            "actions_per_window": 96,
            "seed": 42,
        },
        iterations=1,
        rounds=1,
    )
    print()
    print(expp_text(result))

    for workers in (0, 1, 2, 4):
        run = result.run_for(workers)
        assert run.converged
        assert run.actions_effective > 0

    # Convergence improves monotonically with cores (the paper's
    # idle-core claim; Alvarez et al.'s multi-core scaling shape).
    serial = result.run_for(1).idle_consumed_s
    two = result.run_for(2).idle_consumed_s
    four = result.run_for(4).idle_consumed_s
    assert serial > two > four

    # The serial scheduler and a single worker do the same aggregate
    # work -- one lane cannot overlap with anything.
    one = result.run_for(1)
    baseline = result.run_for(0)
    assert one.idle_consumed_s == pytest.approx(
        baseline.idle_consumed_s, rel=0.25
    )

    # Parallel lanes overlap for real: 4 workers at least ~1.5x.
    assert result.run_for(4).speedup_vs_serial_work > 1.5
