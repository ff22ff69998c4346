"""Self-time arithmetic, the tracer and the exact reference."""

from __future__ import annotations

import threading

import numpy as np

from perfbench import run

run.bootstrap()

from perfbench import tracing  # noqa: E402
from perfbench.reference import (  # noqa: E402
    ColumnReference,
    DeltaReference,
    bit_sum,
    bit_sums,
)


def _log(*spans) -> tracing.SpanLog:
    log = tracing.SpanLog()
    for span in spans:
        log.add(*span)
    return log


def test_nested_spans_subtract_children_and_count_outermost_busy():
    log = _log(
        ("a/outer", 0, 100, -1),
        ("b/child", 10, 40, 0),
        ("b/child", 50, 60, 0),
        ("a/inner", 70, 90, 0),
        ("c/leaf", 75, 80, 3),
    )
    summary = tracing.summarize([("MainThread", log)])
    a, b, c = (summary.layers[name] for name in ("a", "b", "c"))
    # a/outer: 100 - (30 + 10 + 20) = 40 of its own; a/inner: 20 - 5.
    assert a.self_s * 1e9 == 40 + 15
    # a/inner sits inside a/outer: busy counts the outer span only.
    assert a.busy_s * 1e9 == 100
    assert (b.busy_s * 1e9, b.self_s * 1e9) == (40, 40)
    assert (c.busy_s * 1e9, c.self_s * 1e9) == (5, 5)
    assert summary.keys["a/inner"].busy_s * 1e9 == 20
    assert summary.top_level_s["MainThread"] * 1e9 == 100


def test_spans_on_another_thread_never_subtract():
    main = _log(("a/query", 0, 100, -1), ("b/crack", 20, 30, 0))
    worker = _log(("b/crack", 10, 90, -1))
    summary = tracing.summarize([("MainThread", main), ("worker-0", worker)])
    assert summary.layers["a"].self_s * 1e9 == 90
    assert summary.layers["b"].self_s * 1e9 == 10 + 80
    assert summary.layers["b"].busy_s * 1e9 == 10 + 80
    assert summary.top_level_s == {
        "MainThread": 100 / 1e9,
        "worker-0": 80 / 1e9,
    }


def test_open_spans_are_ignored():
    log = _log(("a/x", 0, 0, -1), ("b/y", 5, 9, 0))
    summary = tracing.summarize([("MainThread", log)])
    assert "a" not in summary.layers
    assert summary.layers["b"].self_s * 1e9 == 4


def test_tracer_records_nesting_per_thread():
    tracer = tracing.Tracer()
    inner = tracer.wrap("b/inner", lambda: sum(range(1000)))
    outer = tracer.wrap("a/outer", lambda: inner() + inner())
    outer()
    thread = threading.Thread(target=inner, name="other")
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    threads = dict(tracer.threads())
    main = threads[threading.current_thread().name]
    assert main.keys == ["a/outer", "b/inner", "b/inner"]
    assert main.parents == [-1, 0, 0]
    assert threads["other"].parents == [-1]
    assert not main.stack and not threads["other"].stack
    summary = tracing.summarize(tracer.threads())
    a = summary.layers["a"]
    assert 0 <= a.self_s <= a.busy_s
    assert summary.layers["b"].calls == 3
    tracer.reset()
    assert all(not log.keys for _, log in tracer.threads())


def test_install_wraps_and_remove_restores():
    from repro.cracking.index import CrackerIndex
    from repro.engine import session

    before = (CrackerIndex.select_range, session.apply_pending)
    installed = tracing.install(tracing.Tracer())
    try:
        assert CrackerIndex.select_range is not before[0]
        assert session.apply_pending is not before[1]
    finally:
        installed.remove()
    assert (CrackerIndex.select_range, session.apply_pending) == before


def test_reference_is_exact_beyond_two_to_the_53():
    big = 2**53
    values = np.array([big + 1, big + 3, big + 4, 5], dtype=np.int64)
    reference = ColumnReference(values)
    # float(big + 2) == big + 2 exactly; a float search would round
    # big + 1 and big + 3 onto neighbouring floats.
    counts, sums = reference.answers(
        np.array([float(big + 2), 0.0]), np.array([float(big + 4), 6.0])
    )
    assert counts.tolist() == [1, 1]
    assert int(sums[0]) == bit_sum(np.array([big + 3], dtype=np.int64))
    assert int(sums[1]) == 5


def test_bit_sum_ignores_order_and_width():
    values = np.array([3, 1, 2], dtype=np.int64)
    assert bit_sum(values) == bit_sum(values[::-1])
    assert bit_sum(values.astype(np.int32)) == bit_sum(values)
    floats = np.array([0.5, 2.25])
    assert bit_sum(floats) == bit_sum(floats[::-1])


def test_bit_sums_match_bit_sum_per_array():
    rng = np.random.default_rng(3)
    arrays = [
        rng.integers(-(2**62), 2**62, size=n) for n in (5, 0, 1, 300, 0)
    ]
    arrays[3] = arrays[3].astype(np.int32)  # narrowed cracker column
    want = [bit_sum(a) for a in arrays]
    assert bit_sums(arrays).tolist() == want
    floats = [np.array([1.5, -2.0]), np.array([7.25])]
    assert bit_sums(floats).tolist() == [bit_sum(a) for a in floats]


def test_delta_reference_sees_only_earlier_batches():
    delta = DeltaReference(np.dtype(np.int64))
    delta.stage(2, np.array([10, 20]))
    delta.stage(5, np.array([15]))
    counts, sums = delta.answers(
        np.array([0, 3, 6]), np.array([0.0, 0.0, 0.0]), np.array([100.0] * 3)
    )
    assert counts.tolist() == [0, 2, 3]
    assert int(sums[2]) == 45
