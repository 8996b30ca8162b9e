"""CART regression trees over LMFAO aggregate batches (paper §3).

For each tree node, CART needs — for every candidate condition
``Xj op t`` conjoined with the node's path conditions — the aggregates
``SUM(1), SUM(Y), SUM(Y^2)`` over the satisfying fragment T, to score
VARIANCE = Σ y² - (Σ y)²/|T|. LMFAO computes them as *one group-by
query per feature* (``GROUP BY Xj``); every threshold of Xj is then
scored from prefix sums of that result, and the path conditions are
selections pushed down to the anchor relations
(:meth:`repro.core.database.Database.with_filters`).

The per-node batch has ``#features + 1`` queries but covers
``#features × #thresholds × 3`` effective aggregates — the paper's
"3,141 aggregates for each node" counting (both reported in Table T1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.aggregates import Query, SumProduct
from repro.core.database import Database
from repro.core.executor import Engine
from repro.ml.linreg import Feature


def node_batch(features: list[Feature], label: str) -> list[Query]:
    """The aggregate batch for one tree node: a total-variance query plus
    one ``GROUP BY Xj`` query per feature, each carrying
    ``SUM(1), SUM(y), SUM(y*y)``."""
    aggs = dict(
        cnt=SumProduct.count(),
        s=SumProduct.of(**{label: label}),
        s2=SumProduct.of(**{label: f"({label} * {label})"}),
    )
    qs = [Query.make("dt_total", [], **aggs)]
    for f in features:
        if f.attr == label:
            raise ValueError("label cannot be a split feature")
        qs.append(Query.make(f"dt_{f.attr}", [f.attr], **aggs))
    return qs


def _sse(cnt: np.ndarray, s: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Sum of squared errors = Σy² - (Σy)²/n, the paper's VARIANCE."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(cnt > 0, s2 - s * s / np.maximum(cnt, 1e-300), 0.0)


# Relative SSE difference below which two candidate splits tie. Ties break
# toward the earlier value in sorted order, then toward the earlier feature
# (the order of an exhaustive scan), so the chosen split never depends on
# the row order of Spark's group-by results.
_TIE_RTOL = 1e-9


def _first_min(sse: np.ndarray) -> int:
    """Index of the first score within the tie tolerance of the minimum."""
    m = sse.min()
    return int(np.argmax(sse <= m + _TIE_RTOL * abs(m)))


@dataclass(frozen=True)
class Split:
    """A chosen condition ``attr op value`` and its score."""

    attr: str
    op: str  # "<=" (continuous) or "==" (categorical one-vs-rest)
    value: object
    sse: float  # SSE_left + SSE_right after the split

    def predicates(self) -> tuple[str, str]:
        """(true-branch, false-branch) SQL predicates for pushdown. String
        literals are quoted, with ``'`` escaped by doubling it."""
        if isinstance(self.value, str):
            v = "'" + self.value.replace("'", "''") + "'"
        else:
            v = repr(self.value)
        if self.op == "<=":
            return f"{self.attr} <= {v}", f"{self.attr} > {v}"
        return f"{self.attr} = {v}", f"{self.attr} <> {v}"


def best_split(
    results: dict[str, pd.DataFrame], features: list[Feature]
) -> tuple[Split | None, float, float, float]:
    """Scan every feature's group-by result for the SSE-minimizing
    condition. Returns (split-or-None, node count, node mean, node SSE)."""
    tot = results["dt_total"]
    if len(tot) == 0 or tot["cnt"].iloc[0] is None or np.isnan(tot["cnt"].iloc[0]):
        return None, 0.0, 0.0, 0.0
    n, s, s2 = (float(tot[c].iloc[0]) for c in ("cnt", "s", "s2"))
    if n == 0:
        return None, 0.0, 0.0, 0.0
    node_sse = float(_sse(np.array([n]), np.array([s]), np.array([s2]))[0])
    best: Split | None = None
    for f in features:
        g = results[f"dt_{f.attr}"].sort_values(f.attr)
        if len(g) < 2:
            continue
        cnt, ss, ss2 = (g[c].to_numpy(float) for c in ("cnt", "s", "s2"))
        if f.categorical:
            # one-vs-rest equality splits
            op = "=="
            sse = _sse(cnt, ss, ss2) + _sse(n - cnt, s - ss, s2 - ss2)
        else:
            # threshold at each distinct value but the last (<= v splits)
            op = "<="
            cnt, ss, ss2 = cnt.cumsum(), ss.cumsum(), ss2.cumsum()
            sse = (_sse(cnt, ss, ss2) + _sse(n - cnt, s - ss, s2 - ss2))[:-1]
        i = _first_min(sse)
        cand = Split(f.attr, op, g[f.attr].iloc[i], float(sse[i]))
        if best is None or cand.sse < best.sse - _TIE_RTOL * abs(best.sse):
            best = cand
    return best, n, s / n, node_sse


@dataclass
class TreeNode:
    """A CART node: a leaf prediction or a split with two children."""

    prediction: float
    count: float
    sse: float
    split: Split | None = None
    left: "TreeNode | None" = None  # split condition true
    right: "TreeNode | None" = None

    def predict_row(self, row: dict) -> float:
        if self.split is None or self.left is None or self.right is None:
            return self.prediction
        v = row[self.split.attr]
        hit = v <= self.split.value if self.split.op == "<=" else v == self.split.value
        return (self.left if hit else self.right).predict_row(row)


def predict(tree: TreeNode, rows: pd.DataFrame) -> np.ndarray:
    """Predict the label for each row (a materialized-D pandas frame)."""
    return np.array([tree.predict_row(r) for r in rows.to_dict("records")])


def build_tree(
    db: Database,
    features: list[Feature],
    label: str,
    *,
    max_depth: int = 3,
    min_leaf: float = 20,
    min_sse_gain: float = 1e-9,
) -> TreeNode:
    """Greedy CART: at each node, run the aggregate batch over the
    path-filtered database, pick the best condition, recurse."""
    batch = node_batch(features, label)

    def grow(cur: Database, depth: int) -> TreeNode:
        with Engine(cur) as eng:
            results = {n: df.toPandas() for n, df in eng.run(batch).items()}
        split, n, mean, sse = best_split(results, features)
        node = TreeNode(prediction=mean, count=n, sse=sse)
        if (
            depth >= max_depth
            or split is None
            or n < 2 * min_leaf
            or sse - split.sse < min_sse_gain
        ):
            return node
        p_true, p_false = split.predicates()
        node.split = split
        node.left = grow(cur.with_filters([(split.attr, p_true)]), depth + 1)
        node.right = grow(cur.with_filters([(split.attr, p_false)]), depth + 1)
        if node.left.count < min_leaf or node.right.count < min_leaf:
            node.split = node.left = node.right = None
        return node

    return grow(db, 0)
