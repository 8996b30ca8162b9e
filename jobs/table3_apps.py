"""Table T3 — end-to-end learning over LMFAO aggregates.

LR: Σ computed once by the engine, then BGD iterates on Σ only (paper
§3: "the aggregates are computed once and then reused for all BGD
iterations"). We report the batch time, the per-iteration time (pure
NumPy, no data pass), convergence, and the objective gap vs the ridge
closed form. DT: per-node batch time and agreement of the engine-chosen
root split with an exhaustive scan over materialized D.

Run: ``spark-submit jobs/table3_apps.py [sf]``
"""
from __future__ import annotations

import sys
import time

import numpy as np

from repro.core.executor import Engine
from repro.datasets import favorita_db, retailer_db
from repro.ml.decision_tree import best_split, build_tree, node_batch, predict
from repro.ml.linreg import assemble_sigma, bgd, closed_form, ridge_objective, sigma_batch


def lr_rows(db, features, label, dataset: str) -> list[dict]:
    from _common import timed

    batch = sigma_batch(features, label)
    eng = Engine(db)
    secs_batch, results = timed(lambda: {n: df.toPandas() for n, df in eng.run(batch).items()})
    sm = assemble_sigma(results, features)
    t0 = time.perf_counter()
    theta, losses = bgd(sm, label, epochs=300)
    secs_bgd = time.perf_counter() - t0
    j_bgd = ridge_objective(sm, label, theta)
    j_cf = ridge_objective(sm, label, closed_form(sm, label))
    return [
        {
            "app": "linreg",
            "dataset": dataset,
            "queries": len(batch),
            "sigma_dims": sm.sigma.shape[0],
            "batch_seconds": secs_batch,
            "bgd_300_iter_seconds": secs_bgd,
            "loss_start": losses[0],
            "loss_end": losses[-1],
            "obj_gap_vs_closed_form": (j_bgd - j_cf) / j_cf,
        }
    ]


def dt_rows(db, features, label, d_pdf, dataset: str, max_depth: int = 2) -> list[dict]:
    from _common import timed

    batch = node_batch(features, label)
    eng = Engine(db)
    secs_node, results = timed(lambda: {n: df.toPandas() for n, df in eng.run(batch).items()})
    split, n, mean, sse = best_split(results, features)

    # exhaustive scan over materialized D (ground truth for the root split)
    y = d_pdf[label].to_numpy(float)
    best = (None, np.inf)
    for f in features:
        vals = d_pdf[f.attr]
        for v in sorted(vals.unique()):
            mask = (vals == v) if f.categorical else (vals <= v)
            if mask.all() or not mask.any():
                continue
            l, r = y[mask.to_numpy()], y[~mask.to_numpy()]
            s = ((l - l.mean()) ** 2).sum() + ((r - r.mean()) ** 2).sum()
            if s < best[1] - 1e-9:
                best = ((f.attr, v), s)

    secs_tree, tree = timed(
        lambda: build_tree(db, features, label, max_depth=max_depth, min_leaf=20)
    )
    pred = predict(tree, d_pdf)
    mse_tree = float(np.mean((y - pred) ** 2))
    mse_mean = float(np.mean((y - y.mean()) ** 2))
    return [
        {
            "app": "decision tree",
            "dataset": dataset,
            "queries_per_node": len(batch),
            "node_batch_seconds": secs_node,
            "root_split": f"{split.attr} {split.op} {split.value}",
            "agrees_with_exhaustive": (split.attr, split.value) == best[0],
            f"tree_depth{max_depth}_seconds": secs_tree,
            "mse_tree": mse_tree,
            "mse_mean_baseline": mse_mean,
        }
    ]


def main(spark, sf: float = 0.1) -> list[dict]:
    from jobs_features import favorita_std, retailer_std  # type: ignore

    rows = []
    for name, (db_fn, feats, label) in {
        "favorita": (favorita_db, favorita_std(), "units"),
        "retailer": (retailer_db, retailer_std(), "inventoryunits"),
    }.items():
        db = db_fn(spark, sf=sf)
        rows += lr_rows(db, feats, label, name)
        dt_feats = [f for f in feats if f.attr != label]
        d_pdf = db.joined().toPandas()
        rows += dt_rows(db, dt_feats, label, d_pdf, name)
    return rows


if __name__ == "__main__":
    from _common import get_spark, print_table

    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    spark = get_spark("table3")
    spark.sparkContext.setLogLevel("ERROR")
    print_table(f"T3 end-to-end learning (SF={sf})", main(spark, sf))
    spark.stop()
