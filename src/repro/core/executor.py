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
   nested lineage of every upstream view. The relation and every view are
   read as one partition and each view is hash-joined into the relation
   with the view as the build side (the paper's α lookups). After every
   join the base is coalesced to one partition again, which, together
   with the session's ``spark.sql.maxSinglePartitionBytes``, keeps Spark
   from inserting a shuffle between joins: the whole pass is one job of
   one task and nothing is broadcast. Spark's size estimate of a join is
   the product of its inputs' sizes; where that passes 2**63 - 1 bytes,
   as for the four-view pass over ``sales`` at SF 0.1, Spark still
   shuffles the join and the pass runs a few more jobs;
2. all views of the pass are computed via **one shared partial
   aggregation**, the pass's only Spark query: the joined base is
   aggregated once, keyed by the *union* of the pass's group attributes
   and carrying every aggregate column, and collected to the driver as
   one Arrow table. The base is one partition (step 1),
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
   The ablation without this layer is ``baseline.run_nomoo``.

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
    """The LMFAO engine over one :class:`Database` (join tree + frames +
    pushed filters). It holds nothing in Spark storage: every view lives
    on the driver (module docstring, step 1)."""

    def __init__(self, db: Database):
        self.db = db
        self.tree = db.tree
        self.plan: Plan | None = None
        self.views: dict[ViewKey, DataFrame] = {}

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
        """A no-op: views live on the driver, so there is nothing to
        release. Kept because ``perfbench`` calls and wraps it."""

    # ------------------------------------------------------------------
    def _pass(
        self, deps: list[Future], node: str, inputs: tuple[ViewKey, ...], vds: list[ViewDef]
    ) -> None:
        """Join ``node``'s relation with its incoming views, once the
        passes in ``deps`` produced them, and compute the views ``vds``
        from one shared aggregation: partial-aggregate the joined base by
        the union of the group attrs (every aggregate column computed
        exactly once over the scan), collect it once, then derive each view
        from it on the driver. Correct because every aggregate is a SUM,
        which is decomposable over the finer grouping."""
        for f in deps:
            f.result()
        base = self.db.df(node).coalesce(1)
        for vk in inputs:
            on = sorted(self.tree.join_attrs(vk.node, node))
            # A hash join that builds its table from the view.
            view = self.views[vk].coalesce(1).hint("shuffle_hash")
            base = base.join(view, on=on, how="inner").coalesce(1)
        universe = frozenset().union(*(vd.key.ga for vd in vds))
        pre = self._agg(base, universe, vds)
        table = pre.toArrow()
        for vd in vds:
            gb = sorted(vd.key.ga)
            if vd.key.ga == universe:
                out = table.select([*gb, *vd.cols])
            else:
                sums = table.group_by(gb, use_threads=False).aggregate(
                    [(c, "sum") for c in vd.cols]
                )
                out = sums.select([*gb, *(f"{c}_sum" for c in vd.cols)])
                out = out.rename_columns([*gb, *vd.cols])
            self.views[vd.key] = self._local(pre, out)

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
