"""Regressions for the defects the static-analysis pass surfaced.

Each test here failed against the pre-lint code: wall-clock reads
bypassing the audited simtime helpers, and float needles promoting
int64 stores during binary search (lossy beyond 2^53).
"""

from __future__ import annotations

import inspect
import math

import numpy as np

import repro.cracking.concurrency as concurrency
from repro.cracking.engine import (
    _count_below,
    _less_mask,
    crack_multi,
    default_scratch,
    split_sorted_piece,
)
from repro.cracking.index import CrackerIndex
from repro.simtime.clock import SimClock, wall_sleep
from repro.storage.column import Column
from repro.storage.updates import exact_range_cuts
from repro.util.retry import retry_call

# -- wall-clock routing --------------------------------------------------


def test_concurrency_uses_the_audited_wall_helpers():
    """The latch module must not import ``time`` at all (the
    determinism lint's contract): wall-clock reads go through the
    audited simtime helpers."""
    assert not hasattr(concurrency, "time")


def test_retry_default_sleep_is_the_audited_helper():
    sleep_param = inspect.signature(retry_call).parameters["sleep"]
    assert sleep_param.default is wall_sleep


# -- exact int64 semantics beyond 2^53 -----------------------------------

B = 2**53  # float64 spacing becomes 2 here: odd ints are unrepresentable


def test_count_below_is_exact_beyond_2_53():
    view = np.array([B + 3], dtype=np.int64)
    # Promoted, B+3 rounds (half-to-even) to B+4 and stops counting.
    assert _count_below(view, float(B + 4), default_scratch()) == 1
    assert _count_below(view, float(B + 2), default_scratch()) == 0
    assert _count_below(view, float("nan"), default_scratch()) == 0


def test_less_mask_is_exact_beyond_2_53():
    view = np.array([B + 3, B + 5], dtype=np.int64)
    keys = np.array([float(B + 4), float(B + 4)])
    np.testing.assert_array_equal(
        _less_mask(view, keys), np.array([True, False])
    )
    # NaN keys match nothing; huge keys match everything.
    keys = np.array([float("nan"), float(2**80)])
    np.testing.assert_array_equal(
        _less_mask(view, keys), np.array([False, True])
    )


def test_split_sorted_piece_is_exact_beyond_2_53():
    array = np.array([B + 1, B + 3, B + 5], dtype=np.int64)
    split, _ = split_sorted_piece(array, 0, 3, float(B + 4))
    # First element >= B+4 is B+5 at index 2.  The promoted search saw
    # [B, B+4, B+4] and answered 1.
    assert split == 2


def test_crack_multi_is_exact_beyond_2_53():
    array = np.array([B + 5, B + 1, B + 3, B - 2], dtype=np.int64)
    splits, _ = crack_multi(array, 0, 4, [float(B + 4)])
    assert splits == [3]
    assert sorted(array[: splits[0]].tolist()) == [B - 2, B + 1, B + 3]
    assert array[splits[0]] == B + 5


def test_exact_range_cuts_beyond_2_53():
    store = np.array([B - 1, B + 1, B + 3, B + 5], dtype=np.int64)
    assert int(exact_range_cuts(store, float(B + 4))) == 3
    assert int(exact_range_cuts(store, float(B - 1))) == 0
    # NaN matches nothing, out-of-range bounds clamp to the ends.
    cuts = exact_range_cuts(
        store, np.array([float("nan"), -float(2**80), float(2**80)])
    )
    assert cuts.tolist() == [4, 0, 4]


def test_index_select_is_exact_beyond_2_53():
    """End to end: a select whose bounds straddle unrepresentable int64
    keys must count them exactly, cracking included."""
    values = np.arange(B - 8, B + 8, dtype=np.int64)
    rng = np.random.default_rng(11)
    rng.shuffle(values)
    index = CrackerIndex(
        Column("big", values), clock=SimClock(), narrow_values=False
    )
    low, high = float(B + 2), float(B + 6)  # both exactly representable
    result = index.select_range(low, high)
    # Exact oracle in integer space (a float-compare oracle would carry
    # the same promotion bug the fix removed).
    expected = sum(
        1 for v in values.tolist() if v >= math.ceil(low) and v < math.ceil(high)
    )
    assert expected == 4
    assert result.count == expected
    # The crack positions the search found must partition the data.
    again = index.select_range(low, high)
    assert again.count == expected
