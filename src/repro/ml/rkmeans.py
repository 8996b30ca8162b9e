"""Rk-means: relational clustering via a grid coreset (paper §3, [3]).

The four steps, with LMFAO computing the data-intensive ones (1 and 3):

1. For each attribute Xj: ``SELECT Xj, SUM(1) FROM D GROUP BY Xj`` — the
   projection of D onto Xj with point weights (n engine queries).
2. Weighted 1-D k-means on each projection -> per-dimension centroids
   and an assignment relation A_j(Xj, Cj) mapping every value to its
   closest centroid (we key Cj by centroid *index* so the grid group-by
   stays integer-typed).
3. The grid coreset: ``SELECT C1..Cn, SUM(1) FROM D ⋈ A_1 ⋈ ... ⋈ A_n
   GROUP BY C1..Cn`` — evaluated by the engine over the join tree
   *extended* with the assignment relations (each A_j hangs off the
   anchor relation of Xj; the running-intersection property is
   preserved, so no special-casing is needed).
4. Weighted k-means on the (tiny) grid -> the k final centroids.

Together: n + 1 engine queries, exactly the paper's count.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.aggregates import Query, SumProduct
from repro.core.database import Database
from repro.core.executor import Engine
from repro.core.schema import JoinTree, Relation
from repro.ml.kmeans import KmeansResult, best_of, cost_of, weighted_lloyd


def projection_batch(attrs: list[str]) -> list[Query]:
    """Step-1 batch: one weighted-projection query per attribute."""
    return [Query.make(f"proj_{a}", [a], w=SumProduct.count()) for a in attrs]


def grid_query(attrs: list[str]) -> Query:
    """Step-3 coreset query over the extended join tree."""
    return Query.make("grid", [f"c_{a}" for a in attrs], w=SumProduct.count())


def extend_with_assignments(
    db: Database, assigns: dict[str, pd.DataFrame]
) -> Database:
    """Database over the join tree extended with one assignment relation
    A_j(Xj, c_Xj) per clustered attribute, attached at Xj's anchor."""
    tree = db.tree
    relations = [tree.relations[n] for n in tree.nodes]
    edges = list(tree.edges)
    spark = next(iter(db.frames.values())).sparkSession
    frames = dict(db.frames)
    for a, pdf in assigns.items():
        name = f"assign_{a}"
        relations.append(Relation(name, (a, f"c_{a}")))
        edges.append((name, tree.anchor(a)))
        frames[name] = spark.createDataFrame(pdf)
    return Database(JoinTree(relations, edges), frames, db.filters)


@dataclass
class RkmeansResult:
    """Final centroids plus the quality/size metrics of Table T4."""

    centers: np.ndarray  # (k, n)
    cost_on_grid: float
    d_size: float  # |D|
    grid_size: int  # #occupied grid points (coreset size)
    dim_centroids: dict[str, np.ndarray]
    grid_points: np.ndarray
    grid_weights: np.ndarray
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def rel_coreset_size(self) -> float:
        """Coreset size relative to |D| (paper UI metric)."""
        return self.grid_size / self.d_size if self.d_size else float("nan")


def rkmeans(
    db: Database,
    attrs: list[str],
    k: int,
    *,
    k_dim: int | None = None,
    seed: int = 0,
) -> RkmeansResult:
    """Run the full 4-step Rk-means over ``attrs`` of the join of ``db``."""
    k_dim = k_dim or k
    t0 = time.perf_counter()
    with Engine(db) as eng:
        proj = {name: df.toPandas() for name, df in eng.run(projection_batch(attrs)).items()}
    t1 = time.perf_counter()

    dim_centroids: dict[str, np.ndarray] = {}
    assigns: dict[str, pd.DataFrame] = {}
    d_size = 0.0
    for a in attrs:
        p = proj[f"proj_{a}"]
        vals = p[a].to_numpy(float)
        w = p["w"].to_numpy(float)
        d_size = float(w.sum())
        res = best_of(vals, w, k_dim, n_init=5, seed=seed)
        dim_centroids[a] = res.centers.ravel()
        assigns[a] = pd.DataFrame({a: p[a].to_numpy(), f"c_{a}": res.assign.astype("int64")})
    t2 = time.perf_counter()

    ext = extend_with_assignments(db, assigns)
    with Engine(ext) as eng3:
        grid = eng3.run([grid_query(attrs)])["grid"].toPandas()
    t3 = time.perf_counter()

    pts = np.column_stack(
        [dim_centroids[a][grid[f"c_{a}"].to_numpy(int)] for a in attrs]
    )
    weights = grid["w"].to_numpy(float)
    final = best_of(pts, weights, k, n_init=5, seed=seed)
    t4 = time.perf_counter()
    return RkmeansResult(
        centers=final.centers,
        cost_on_grid=final.cost,
        d_size=d_size,
        grid_size=len(grid),
        dim_centroids=dim_centroids,
        grid_points=pts,
        grid_weights=weights,
        timings={
            "step1_projections": t1 - t0,
            "step2_dim_kmeans": t2 - t1,
            "step3_grid": t3 - t2,
            "step4_kmeans": t4 - t3,
        },
    )


def lloyd_on_full_data(
    d_pdf: pd.DataFrame, attrs: list[str], k: int, seeds: list[int]
) -> list[KmeansResult]:
    """Conventional Lloyd's on the materialized join (one run per seed) —
    the comparator for the paper's relative-approximation metric."""
    pts = d_pdf[attrs].to_numpy(float)
    return [weighted_lloyd(pts, None, k, seed=s) for s in seeds]


def relative_approximation(
    d_pdf: pd.DataFrame, attrs: list[str], rk: RkmeansResult, lloyd_runs: list[KmeansResult]
) -> float:
    """Paper §4 metric: (cost(D, Rk-centers) − mean cost(D, Lloyd's)) /
    mean cost(D, Lloyd's), averaged over the Lloyd's runs."""
    pts = d_pdf[attrs].to_numpy(float)
    rk_cost = cost_of(pts, rk.centers)
    base = float(np.mean([cost_of(pts, r.centers) for r in lloyd_runs]))
    return (rk_cost - base) / base if base else float("nan")
