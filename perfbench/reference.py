"""Exact answers for the benchmark's range queries, computed off the clock.

A query's answer is checked by two numbers: the row count and a
*bit-sum*, the wrapping ``uint64`` sum of the answer values' bit
patterns.  Both are independent of row order, so they compare a
cracked, partitioned or merged result with the reference exactly, for
integer and float columns alike.

The reference for one column is its sorted base copy plus prefix
bit-sums; a whole run's bounds resolve in one vectorized search per
side.  Float bounds against integer values become exact integer keys
(an integer ``v`` satisfies ``v >= b`` iff ``v >= ceil(b)``), so the
search never promotes the haystack to float64, which would round
values beyond 2^53 and take a full copy of the column per call.
"""

from __future__ import annotations

import numpy as np

_TWO63 = 2.0**63


def bit_sum(values: np.ndarray) -> int:
    """Order-independent checksum: wrapping sum of 64-bit patterns."""
    values = np.ascontiguousarray(values)
    if values.dtype.itemsize != 8:
        # Cracker columns may be narrowed to int32; widen losslessly.
        wide = np.int64 if values.dtype.kind in "iu" else np.float64
        values = values.astype(wide)
    return int(values.view(np.uint64).sum(dtype=np.uint64))


def bit_sums(arrays: list[np.ndarray]) -> np.ndarray:
    """``bit_sum`` of every array, from one pass over their concatenation.

    The arrays must be of one kind: integers of any width concatenate
    to int64 losslessly, but integers mixed with floats would not.
    """
    lengths = np.asarray([len(a) for a in arrays], dtype=np.int64)
    values = np.concatenate(arrays)
    if values.dtype.itemsize != 8:
        wide = np.int64 if values.dtype.kind in "iu" else np.float64
        values = values.astype(wide)
    sums = np.zeros(len(arrays), dtype=np.uint64)
    # reduceat sums from each start to the next; an empty array's start
    # would repeat its successor's, so only non-empty arrays take part.
    filled = lengths > 0
    if filled.any():
        starts = (np.cumsum(lengths) - lengths)[filled]
        sums[filled] = np.add.reduceat(
            values.view(np.uint64), starts, dtype=np.uint64
        )
    return sums


def search_keys(dtype: np.dtype, bounds: np.ndarray) -> np.ndarray:
    """Bounds as exact search keys in ``dtype``'s domain.

    Integer columns take ``ceil(bound)`` as int64; bounds beyond the
    int64 range clamp to its ends.  Float columns keep float64 bounds.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    if np.isnan(bounds).any():
        raise ValueError("the benchmark never generates NaN bounds")
    if dtype.kind != "i":
        return bounds
    keys = np.ceil(bounds)
    out = np.empty(len(keys), dtype=np.int64)
    high = keys >= _TWO63
    low = keys < -_TWO63
    mid = ~(high | low)
    out[high] = np.iinfo(np.int64).max
    out[low] = np.iinfo(np.int64).min
    out[mid] = keys[mid].astype(np.int64)
    return out


class ColumnReference:
    """Sorted copy of one base column with prefix bit-sums."""

    def __init__(self, values: np.ndarray) -> None:
        self.dtype = values.dtype
        self.sorted = np.sort(values)
        bits = self.sorted.view(np.uint64)
        self.prefix = np.zeros(len(bits) + 1, dtype=np.uint64)
        np.cumsum(bits, dtype=np.uint64, out=self.prefix[1:])

    def answers(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(counts, bit-sums) of ``low <= v < high`` for every query."""
        lo = self.sorted.searchsorted(search_keys(self.dtype, lows), "left")
        hi = self.sorted.searchsorted(search_keys(self.dtype, highs), "left")
        hi = np.maximum(hi, lo)
        return hi - lo, self.prefix[hi] - self.prefix[lo]


class DeltaReference:
    """Values staged into one column over time (inserts or deletes).

    ``answers`` counts, for each query, the staged values in its range
    among those staged before the query's trace position.
    """

    def __init__(self, dtype: np.dtype) -> None:
        self.dtype = dtype
        self._values: list[np.ndarray] = []
        self._stamps: list[int] = []

    def stage(self, stamp: int, values: np.ndarray) -> None:
        self._values.append(np.asarray(values, dtype=self.dtype))
        self._stamps.append(stamp)

    def answers(
        self, stamps: np.ndarray, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        counts = np.zeros(len(stamps), dtype=np.int64)
        sums = np.zeros(len(stamps), dtype=np.uint64)
        if not self._values:
            return counts, sums
        values = np.concatenate(self._values)
        bits = values.view(np.uint64)
        # A query sees every batch staged before its trace position.
        ends = np.cumsum([0] + [len(v) for v in self._values])
        visible = ends[np.searchsorted(self._stamps, stamps, "left")]
        low_keys = search_keys(self.dtype, lows)
        high_keys = search_keys(self.dtype, highs)
        for i, upto in enumerate(visible.tolist()):
            if upto == 0:
                continue
            head = values[:upto]
            hit = (head >= low_keys[i]) & (head < high_keys[i])
            counts[i] = int(np.count_nonzero(hit))
            sums[i] = bits[:upto][hit].sum(dtype=np.uint64)
        return counts, sums
