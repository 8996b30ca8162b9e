"""Multi-output execution of a view plan on Spark (paper layers 3–5).

Views are computed group-by-group in dependency order. A *view group* is
all merged views with the same ``(node, direction)``. For each group:

1. outputs are partitioned by the exact set of incoming views they
   reference (lookup views — keyed by the edge's join attributes — never
   fan out; views carrying extra group-by attributes do, so an output
   must only join the carrying views it actually uses);
2. each partition joins the node's relation with its referenced incoming
   views once (the shared scan of the Multi-Output Optimization layer).
   Views are small pre-aggregated lookup structures (in-memory hashmaps
   in the paper's generated C++), so they are always hash-broadcast into
   the scan and cached, as several downstream groups and queries read
   them. Broadcast applies ONLY to view joins: the session disables
   automatic broadcast, so base-relation joins (the baselines) keep the
   generic shuffle join pipeline;
3. with ``multi_output=True`` all views of a partition are computed via
   **one shared partial-aggregation pass**: the joined base is
   aggregated once, keyed by the *union* of the partition's group
   attributes and carrying every aggregate column, and each view is then
   a cheap rollup of that partial aggregate. This is the Spark analogue
   of LMFAO's multi-output plans (Fig. 3): the partial aggregate plays
   the role of the shared running sums (β's) that every output reads.
   (SQL ``GROUPING SETS`` would be the obvious alternative, but Spark
   implements it with an Expand operator that *replicates every input
   row once per grouping set* — the opposite of single-pass sharing.)
   With ``multi_output=False`` each view runs its own ``groupBy`` over
   the shared cached join (the ablation for Table T2).

Code generation: instead of emitting C++ specialized to the schema, we
emit Spark SQL specialized to the schema and join tree and let Catalyst /
Tungsten whole-stage-codegen compile it (substitution documented in
DESIGN.md).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import Query
from repro.core.database import Database
from repro.core.planner import (
    Plan,
    ViewDef,
    ViewKey,
    child_ga,
    child_refs,
    plan_batch,
)


class Engine:
    """The LMFAO engine over one :class:`Database`.

    Parameters
    ----------
    db: the database (join tree + frames + pushed filters).
    multi_output: compute all views of a group partition from one shared
        partial-aggregation pass (True, the paper's design) or one
        ``groupBy`` per view over the shared join (False, ablation).
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
        (columns: the query's group-by attrs + its aggregate aliases)."""
        plan = plan_batch(self.tree, queries, roots)
        self.plan = plan
        self.views = {}
        for node, parent, vds in plan.topo_groups():
            self._compute_group(node, parent, vds)
        results: dict[str, DataFrame] = {}
        for q in queries:
            out = plan.outputs[q.name]
            df = self.views[out.view]
            sel = [F.col(a) for a in out.group_by]
            sel += [F.col(c).alias(alias) for alias, c in out.cols]
            results[q.name] = df.select(*sel)
        return results

    def unpersist_all(self) -> None:
        """Release every cached view/intermediate (between benchmark runs)."""
        for df in self._cached:
            df.unpersist()
        self._cached = []

    # ------------------------------------------------------------------
    def _cache(self, df: DataFrame) -> DataFrame:
        df = df.cache()
        self._cached.append(df)
        return df

    def _compute_group(self, node: str, parent: str | None, vds: list[ViewDef]) -> None:
        children = sorted(self.tree.neighbors(node) - ({parent} if parent else set()))
        # Incoming views per viewdef are fixed by its group attrs.
        incoming: dict[ViewKey, tuple[ViewKey, ...]] = {
            vd.key: tuple(
                ViewKey(ch, node, child_ga(self.tree, node, parent, vd.key.ga, ch))
                for ch in children
            )
            for vd in vds
        }
        partitions: dict[frozenset[ViewKey], list[ViewDef]] = {}
        for vd in vds:
            partitions.setdefault(frozenset(incoming[vd.key]), []).append(vd)

        for in_vks, part in sorted(
            partitions.items(), key=lambda kv: sorted(sorted(v.key.ga) for v in kv[1])
        ):
            base = self.db.df(node)
            for vk_ch in sorted(in_vks, key=lambda k: (k.node, sorted(k.ga))):
                on = sorted(self.tree.join_attrs(vk_ch.node, node))
                base = base.join(F.broadcast(self.views[vk_ch]), on=on, how="inner")
            if len(part) > 1 and self.multi_output:
                self._agg_multi_output(node, base, part)
            else:
                if len(part) > 1:
                    base = self._cache(base)  # shared scan, multiple passes
                for vd in part:
                    self.views[vd.key] = self._cache(
                        self._agg_single(node, base, vd)
                    )

    # ------------------------------------------------------------------
    def _agg_exprs(self, node: str, vd: ViewDef) -> list[tuple[str, str]]:
        """(column name, SUM SQL) for every aggregate of the view: the
        product of the factors anchored *at this node* and one
        pre-aggregated column per child edge (multiplicity included)."""
        exprs = []
        for col, sp_sub in vd.cols.items():
            local = frozenset(a for a in sp_sub.attrs if self.tree.anchor(a) == node)
            kid_cols = [c for _, c in child_refs(self.tree, vd.key, sp_sub)]
            exprs.append((col, sp_sub.restrict(local).sum_sql(kid_cols)))
        return exprs

    def _agg_single(self, node: str, base: DataFrame, vd: ViewDef) -> DataFrame:
        aggs = [F.expr(sql).alias(col) for col, sql in self._agg_exprs(node, vd)]
        return base.groupBy(*sorted(vd.key.ga)).agg(*aggs)

    def _agg_multi_output(self, node: str, base: DataFrame, part: list[ViewDef]) -> None:
        """One shared pass for all views of a partition: partial-aggregate
        the joined base by the union of the group attrs (every aggregate
        column computed exactly once over the scan), then roll each view
        up from the partial aggregate. Correct because every aggregate is
        a SUM, which is decomposable over the finer grouping."""
        universe = sorted(set().union(*(vd.key.ga for vd in part)))
        pre_aggs = [
            F.expr(sql).alias(col)
            for vd in part
            for col, sql in self._agg_exprs(node, vd)
        ]
        pre = self._cache(base.groupBy(*universe).agg(*pre_aggs))
        for vd in part:
            rollup = [F.expr(f"SUM({col})").alias(col) for col in vd.cols]
            self.views[vd.key] = pre.groupBy(*sorted(vd.key.ga)).agg(*rollup)
