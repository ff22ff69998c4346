"""Unit tests for range queries."""

import pytest

from repro.engine.query import RangeQuery
from repro.errors import QueryError
from repro.storage.catalog import ColumnRef
from repro.storage.column import ColumnStats


def _query(low: float, high: float) -> RangeQuery:
    return RangeQuery(ColumnRef("R", "A1"), low, high)


def test_query_span():
    assert _query(10, 25).span == 15


def test_inverted_range_rejected():
    with pytest.raises(QueryError, match="inverted"):
        _query(10, 5)


def test_empty_range_allowed():
    assert _query(10, 10).span == 0


def test_selectivity_uniform_estimate():
    stats = ColumnStats(row_count=1_000, min_value=0, max_value=999)
    assert _query(0, 100).selectivity(stats) == pytest.approx(
        0.1, rel=0.05
    )


def test_selectivity_clamps_to_domain():
    stats = ColumnStats(row_count=1_000, min_value=0, max_value=999)
    assert _query(-1e9, 1e9).selectivity(stats) == 1.0
    assert _query(5_000, 6_000).selectivity(stats) == 0.0


def test_selectivity_of_empty_column():
    stats = ColumnStats(row_count=0, min_value=0, max_value=0)
    assert _query(0, 10).selectivity(stats) == 0.0


def test_sql_rendering():
    text = str(_query(5, 10))
    assert "SELECT A1 FROM R" in text
    assert "A1 >= 5" in text
    assert "A1 < 10" in text


@pytest.mark.parametrize(
    "low, high", [(float("nan"), 5.0), (5.0, float("nan")), (float("nan"),) * 2]
)
def test_nan_bound_rejected(low, high):
    with pytest.raises(QueryError, match="NaN"):
        _query(low, high)


@pytest.mark.parametrize("strategy", ["adaptive", "holistic"])
def test_nan_select_does_not_poison_the_column(strategy):
    """A NaN bound used to pass validation, crack a NaN pivot into the
    index and make every later query on the column return 0 rows."""
    from repro import Database, SimClock, scale_by_name
    from repro.storage import build_paper_table

    db = Database(clock=SimClock(scale_by_name("tiny").cost_model()))
    db.add_table(build_paper_table(rows=1_000, columns=1, seed=1))
    session = db.session(strategy)
    with pytest.raises(QueryError):
        session.select("R", "A1", float("nan"), 5e7)
    assert session.select("R", "A1", 0, 2e9).count == 1_000
