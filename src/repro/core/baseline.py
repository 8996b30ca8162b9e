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

``run_nomoo``
    LMFAO without its Multi-Output layer (the ablation): the engine's plan
    and pass scheduler, but each view of a pass runs its own ``groupBy``
    over the pass's joined base instead of sharing one partial aggregate.

All return the same ``{query name -> DataFrame}`` shape as
:class:`repro.core.executor.Engine`, so tests assert all strategies agree
with each other and with the DuckDB oracle.
"""
from __future__ import annotations

from concurrent.futures import Future

from pyspark import StorageLevel
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import Query
from repro.core.database import Database
from repro.core.executor import Engine
from repro.core.planner import ViewDef, ViewKey


def _agg_over(d: DataFrame, q: Query) -> DataFrame:
    aggs = [F.expr(sp.sum_sql()).alias(alias) for alias, sp in q.aggs]
    return d.groupBy(*q.group_by).agg(*aggs)


def run_naive(db: Database, queries: list[Query]) -> dict[str, DataFrame]:
    """One independent join + aggregation per query (no sharing)."""
    return {q.name: _agg_over(db.joined(), q) for q in queries}


def run_shared_join(db: Database, queries: list[Query]) -> dict[str, DataFrame]:
    """Materialize the join once (cached), then aggregate per query.

    The caller is responsible for forcing execution (e.g. collecting all
    results). The cached join stays in Spark storage until the caller
    calls ``spark.catalog.clearCache()``, as T2
    (``jobs/table2_runtime.run_dataset``) does.
    """
    d = db.joined().cache()
    return {q.name: _agg_over(d, q) for q in queries}


class _NoMoo(Engine):
    def _pass(
        self, deps: list[Future], node: str, inputs: tuple[ViewKey, ...], vds: list[ViewDef]
    ) -> None:
        """Broadcast each incoming view (as one partition) into ``node``'s
        relation and collect one ``groupBy`` per view. A pass with several
        views caches its joined base and releases it before it returns,
        also on error; a base the caller had cached is left as it is."""
        for f in deps:
            f.result()
        base = self.db.df(node)
        for vk in inputs:
            on = sorted(self.tree.join_attrs(vk.node, node))
            base = base.join(F.broadcast(self.views[vk].coalesce(1)), on=on, how="inner")
        cache = len(vds) > 1 and base.storageLevel == StorageLevel.NONE
        if cache:
            base = base.cache()  # shared scan, one groupBy per view
        try:
            for vd in vds:
                df = self._agg(base, vd.key.ga, [vd])
                self.views[vd.key] = self._local(df, df.toArrow())
        finally:
            if cache:
                base.unpersist()


def run_nomoo(db: Database, queries: list[Query], roots: dict[str, str] | None = None) -> dict[str, DataFrame]:
    """``Engine(db).run`` with one ``groupBy`` per view; leaves nothing of
    its own in Spark storage."""
    return _NoMoo(db).run(queries, roots)
