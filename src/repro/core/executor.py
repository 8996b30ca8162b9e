"""Multi-output execution of a view plan on Spark (paper layers 3–5).

The executor only runs the plan; every view's inputs and SQL come from the
planner. It runs ``plan.passes()`` eagerly, with task parallelism: the
passes are submitted in plan order (a topological order) to a FIFO thread
pool with one worker per Spark core, and each pass first waits for the
passes that produce its inputs, so independent passes run at the same
time. The first failing pass cancels the queued ones and ``run`` re-raises
its exception. For each pass:

1. the node's relation is joined once with the pass's incoming views (the
   shared scan of the Multi-Output Optimization layer). Views are small
   pre-aggregated lookup structures (in-memory hashmaps in the paper's
   generated C++), so every view is held on the driver as an Arrow-backed
   local relation. A downstream pass, and every query result (a
   ``select`` of its output view), then plans over a leaf instead of the
   nested lineage of every upstream view. With ``multi_output=True`` the
   relation and every view are read as one partition and each view is
   hash-joined into the relation with the view as the build side (the
   paper's α lookups). After every join the base is coalesced to one
   partition again, which, together with the session's
   ``spark.sql.maxSinglePartitionBytes``, keeps Spark from inserting a
   shuffle between joins: the whole pass is one job of one task and
   nothing is broadcast. (Spark's size estimate of a join is the product
   of its inputs' sizes; where that passes 2**63 - 1 bytes, as for the
   four-view pass over ``sales`` at SF 0.1, Spark still shuffles the join
   and the pass runs a few more jobs.) The ``multi_output=False`` ablation broadcasts
   each view (as one partition) into its relation as it is partitioned,
   one broadcast job per view. The session disables automatic broadcast,
   so base-relation joins (the baselines) keep the generic shuffle join
   pipeline;
2. with ``multi_output=True`` all views of the pass are computed via
   **one shared partial aggregation**, the pass's only Spark query: the
   joined base is aggregated once, keyed by the *union* of the pass's
   group attributes and carrying every aggregate column, and collected
   to the driver as one Arrow table. The base is one partition (step 1),
   so the scan, the view probes and the aggregation run in one task, with
   no shuffle: at these sizes a pass costs its Spark job, not its data,
   and the parallelism comes from the concurrent passes. Every view is
   then derived from that table on the driver: a view grouped by the
   whole union is a column ``select`` of it, every other view a pyarrow
   ``group_by``/``sum`` rollup of it (null keys form one group and an
   all-null group sums to null, as in Spark's ``SUM``; an empty table
   rolls up to one null row under ``GROUP BY ()``). This is the Spark
   analogue of LMFAO's multi-output plans (Fig. 3): the partial aggregate
   plays the role of the shared running sums (β's) that every output
   reads. (SQL
   ``GROUPING SETS`` would be the obvious alternative, but Spark
   implements it with an Expand operator that *replicates every input
   row once per grouping set* — the opposite of single-pass sharing.)
   With ``multi_output=False`` each view runs its own ``groupBy`` over
   the joined base, which is cached when the pass has several views (the
   ablation for Table T2). That join is fact-table-sized, not a view, so
   it stays in Spark storage with its relation's partitioning until the
   engine is released.

Code generation: instead of emitting C++ specialized to the schema, we
emit Spark SQL specialized to the schema and join tree and let Catalyst /
Tungsten whole-stage-codegen compile it (substitution documented in
DESIGN.md). The session keeps a batch's generated classes in its codegen
cache (``jobs/_common.get_spark``), so a repeated batch compiles none.
"""
from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, Future, ThreadPoolExecutor, wait

import pyarrow as pa
from pyspark import inheritable_thread_target
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import StructType

from repro.core.aggregates import Query
from repro.core.database import Database
from repro.core.planner import Plan, ViewDef, ViewKey, plan_batch


class Engine:
    """The LMFAO engine over one :class:`Database`.

    Parameters
    ----------
    db: the database (join tree + frames + pushed filters).
    multi_output: compute all views of a pass from one shared
        partial aggregation (True, the paper's design) or one
        ``groupBy`` per view over the shared join (False, ablation).

    Used as a context manager (``with Engine(db) as eng:``), the engine
    releases the shared joins the ``multi_output=False`` ablation caches
    on leaving the block, also on error. Views live on the driver and go
    with the engine's frames.
    """

    def __init__(self, db: Database, *, multi_output: bool = True):
        self.db = db
        self.tree = db.tree
        self.multi_output = multi_output
        self.plan: Plan | None = None
        self.views: dict[ViewKey, DataFrame] = {}
        self._cached: list[DataFrame] = []

    # ------------------------------------------------------------------
    def run(self, queries: list[Query], roots: dict[str, str] | None = None) -> dict[str, DataFrame]:
        """Plan and execute a batch; returns query name -> result frame
        (columns: the query's group-by attrs + its aggregate aliases).
        Every view is computed before ``run`` returns."""
        plan = plan_batch(self.tree, queries, roots)
        self.plan = plan
        self.views = {}
        spark = self.db.frames[self.tree.nodes[0]].sparkSession
        producer: dict[ViewKey, Future] = {}
        futures: list[Future] = []
        pool = ThreadPoolExecutor(spark.sparkContext.defaultParallelism)
        try:
            for node, inputs, vds in plan.passes():
                # Wrapped per pass: each pass gets its own copy of the
                # caller's Spark local properties (job group included).
                target = inheritable_thread_target(spark)(self._pass)
                deps = [producer[vk] for vk in inputs]
                f = pool.submit(target, deps, node, inputs, vds)
                producer.update((vd.key, f) for vd in vds)
                futures.append(f)
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            pool.shutdown(cancel_futures=True)  # waits for the running passes
        for f in futures:
            if not f.cancelled():
                f.result()  # re-raises the first failure in plan order
        results: dict[str, DataFrame] = {}
        for q in queries:
            out = plan.outputs[q.name]
            df = self.views[out.view]
            sel = [F.col(a) for a in out.group_by]
            sel += [F.col(c).alias(alias) for alias, c in out.cols]
            results[q.name] = df.select(*sel)
        return results

    def unpersist_all(self) -> None:
        """Release every cached shared join (between benchmark runs).
        Calling it again is a no-op."""
        for df in self._cached:
            df.unpersist()
        self._cached = []

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        """Release the cached shared joins also when the block raised."""
        self.unpersist_all()

    # ------------------------------------------------------------------
    def _pass(
        self, deps: list[Future], node: str, inputs: tuple[ViewKey, ...], vds: list[ViewDef]
    ) -> None:
        """Join ``node``'s relation with its incoming views, once the
        passes in ``deps`` produced them, and compute the views ``vds``."""
        for f in deps:
            f.result()
        if self.multi_output:
            base = self.db.df(node).coalesce(1)
            for vk in inputs:
                on = sorted(self.tree.join_attrs(vk.node, node))
                # A hash join that builds its table from the view.
                view = self.views[vk].coalesce(1).hint("shuffle_hash")
                base = base.join(view, on=on, how="inner").coalesce(1)
            self._multi_output(base, vds)
            return
        base = self.db.df(node)
        for vk in inputs:
            on = sorted(self.tree.join_attrs(vk.node, node))
            base = base.join(F.broadcast(self.views[vk].coalesce(1)), on=on, how="inner")
        if len(vds) > 1:
            base = base.cache()  # shared scan, one groupBy per view
            self._cached.append(base)
        for vd in vds:
            df = self._agg(base, vd.key.ga, [vd])
            self.views[vd.key] = self._local(df, df.toArrow())

    @staticmethod
    def _local(df: DataFrame, table: pa.Table) -> DataFrame:
        """Hold ``table``, computed from ``df``'s result, on the driver as
        an Arrow-backed local relation (module docstring, step 1). Each
        column takes the Spark field of the same name in ``df``, so types
        and nullability stay exactly those of ``df``."""
        fields = StructType([df.schema[c] for c in table.column_names])
        return df.sparkSession.createDataFrame(table, schema=fields)

    @staticmethod
    def _agg(base: DataFrame, ga: frozenset[str], vds: list[ViewDef]) -> DataFrame:
        """Every aggregate column of ``vds`` over ``base``, grouped by ``ga``."""
        aggs = [F.expr(sql).alias(col) for vd in vds for col, sql in vd.cols.items()]
        return base.groupBy(*sorted(ga)).agg(*aggs)

    def _multi_output(self, base: DataFrame, vds: list[ViewDef]) -> None:
        """One shared aggregation for all views of a pass: partial-
        aggregate the joined base by the union of the group attrs (every
        aggregate column computed exactly once over the scan), collect it
        once, then derive each view from it on the driver. Correct because
        every aggregate is a SUM, which is decomposable over the finer
        grouping."""
        universe = frozenset().union(*(vd.key.ga for vd in vds))
        pre = self._agg(base, universe, vds)
        table = pre.toArrow()
        for vd in vds:
            gb = sorted(vd.key.ga)
            if vd.key.ga == universe:
                view = table.select([*gb, *vd.cols])
            else:
                sums = table.group_by(gb, use_threads=False).aggregate(
                    [(c, "sum") for c in vd.cols]
                )
                view = sums.select([*gb, *(f"{c}_sum" for c in vd.cols)])
                view = view.rename_columns([*gb, *vd.cols])
            self.views[vd.key] = self._local(pre, view)
