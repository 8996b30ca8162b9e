"""Table T1 — batch characteristics per application x dataset.

Paper anchors (§3): 814 aggregates for LR over Retailer; 3,141 aggregate
queries per decision-tree node over Retailer; n+1 queries for Rk-means.
We report, for our synthetic twins: #queries in the batch, #effective
aggregates (DT: thresholds x 3 derived from the group-by results), and
the plan-shape numbers that quantify LMFAO's sharing (#merged views,
#view groups, #passes, #aggregate columns, #distinct roots). A pass is
one join of a node relation with its incoming views, shared by all views
the multi-output layer computes from it. ``levels``, ``rollups`` and
``view_joins`` are the ``Plan`` methods of those names. ``levels`` is the
longest chain of passes each of which reads a view of the one before:
the engine runs independent passes at the same time, so passes / levels
bounds the task parallelism a batch offers. ``rollups`` counts the views grouped by less
than the union of their pass: the engine derives them on the driver from
the pass's partial aggregate, without a Spark query of their own.
``view_joins`` sums the incoming views over the passes: the hash joins
of a view into its pass's relation. They run inside the pass's one Spark
job, so a batch's build starts ``passes`` jobs (more only where Spark's
size estimate of a join overflows, see ``core/executor.py``).

Run: ``spark-submit jobs/table1_batch_stats.py [sf]``
"""
from __future__ import annotations

import sys

from repro.core.executor import Engine
from repro.core.planner import plan_batch
from repro.datasets import favorita_db, retailer_db
from repro.ml.decision_tree import node_batch
from repro.ml.linreg import favorita_features, retailer_features, sigma_batch
from repro.ml.rkmeans import projection_batch


def _plan_row(db, batch, app, dataset, effective=None):
    plan = plan_batch(db.tree, batch)
    s = plan.stats()
    return {
        "app": app,
        "dataset": dataset,
        "queries": s["queries"],
        "effective_aggregates": effective if effective is not None else s["aggregates"],
        "merged_views": s["merged_views"],
        "view_groups": s["view_groups"],
        "passes": len(plan.passes()),
        "levels": plan.levels(),
        "rollups": plan.rollups(),
        "view_joins": plan.view_joins(),
        "view_columns": s["view_columns"],
        "roots": s["roots"],
    }


def main(spark, sf: float = 0.01) -> list[dict]:
    rows = []
    fav = favorita_db(spark, sf=sf)
    ret = retailer_db(spark, sf=sf)
    datasets = {
        "favorita": (fav, favorita_features(), "units"),
        "retailer": (ret, retailer_features(), "inventoryunits"),
    }
    for name, (db, feats, label) in datasets.items():
        rows.append(_plan_row(db, sigma_batch(feats, label), "linreg (sigma)", name))

        dt_feats = [f for f in feats if f.attr != label]
        batch = node_batch(dt_feats, label)
        results = Engine(db).run(batch)
        # effective aggregates = (#candidate thresholds per feature) x 3,
        # the counting behind the paper's "3,141 aggregates per node".
        eff = 3 + sum(3 * results[q.name].count() for q in batch if q.group_by)
        rows.append(_plan_row(db, batch, "decision tree (per node)", name, effective=eff))

        attrs = [f.attr for f in feats if not f.categorical]
        rows.append(
            _plan_row(db, projection_batch(attrs), f"rk-means (n={len(attrs)}, n+1 queries)", name)
        )
    return rows


if __name__ == "__main__":
    from _common import get_spark, print_table

    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    spark = get_spark("table1")
    spark.sparkContext.setLogLevel("ERROR")
    print_table(f"T1 batch characteristics (SF={sf})", main(spark, sf))
    spark.stop()
