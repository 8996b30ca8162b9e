"""The mainstream comparators LMFAO is measured against (Table T2).

``run_naive``
    What a straightforward Spark/SQL user does for a batch: evaluate each
    query independently — the full join is re-planned and re-executed per
    query, with zero sharing. This is the per-query pattern of the
    TensorFlow / scikit-learn-over-Pandas pipelines the paper compares to
    (each aggregate issued as its own query over the joined data).

``run_shared_join``
    Materialize D = the natural join once, cache it, then run each
    aggregate over the cached frame (the "export one big DataFrame, then
    aggregate" pattern). Shares the join but neither the scan nor any
    partial aggregates.

Both return the same ``{query name -> DataFrame}`` shape as
:class:`repro.core.executor.Engine`, so tests assert all strategies agree
with each other and with the DuckDB oracle.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import Query
from repro.core.database import Database


def _agg_over(d: DataFrame, q: Query) -> DataFrame:
    aggs = [F.expr(sp.sum_sql()).alias(alias) for alias, sp in q.aggs]
    return d.groupBy(*q.group_by).agg(*aggs)


def run_naive(db: Database, queries: list[Query]) -> dict[str, DataFrame]:
    """One independent join + aggregation per query (no sharing)."""
    return {q.name: _agg_over(db.joined(), q) for q in queries}


def run_shared_join(db: Database, queries: list[Query]) -> dict[str, DataFrame]:
    """Materialize the join once (cached), then aggregate per query.

    The caller is responsible for forcing execution (e.g. collecting all
    results) and may release the cache via the returned frames' lineage;
    the cached join is an implementation detail of the strategy.
    """
    d = db.joined().cache()
    return {q.name: _agg_over(d, q) for q in queries}
