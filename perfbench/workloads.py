"""The benchmark's workloads: one LMFAO application each.

Every invocation goes through the application's public entry point, on
inputs built by the public ``repro.datasets`` constructors exactly as
``jobs/`` builds them. The workload seed goes into the dataset generator
and, where the application has one, into its own seed.

All workloads run at SF 0.002 (12k fact rows), far below the scale of
EXPERIMENTS.md, because a run of the benchmark must fit in about a
minute. On a 4-core machine where every Spark job costs at least ~0.1 s,
these batches are set by their job count (107 for the LR batch, 64 per
Rk-means call, 371 per CART tree) rather than by data volume.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from jobs_features import favorita_std, retailer_std

from repro.core.executor import Engine
from repro.datasets import favorita_db, retailer_db
from repro.ml.decision_tree import TreeNode, build_tree
from repro.ml.linreg import train_linreg
from repro.ml.rkmeans import rkmeans

SF = 0.002
RETAILER_LABEL = "inventoryunits"


@dataclass(frozen=True)
class Workload:
    name: str
    make_db: Callable  # (spark, seed) -> Database
    invoke: Callable  # (db, seed) -> application output


def _lr(db, seed):
    eng = Engine(db)
    theta, _, _ = train_linreg(eng, favorita_std(), "units")
    eng.unpersist_all()
    return theta


def _cart(db, seed):
    feats = [f for f in retailer_std() if f.attr != RETAILER_LABEL]
    return build_tree(db, feats, RETAILER_LABEL, max_depth=2, min_leaf=20)


def _rkmeans(db, seed):
    return rkmeans(db, ["units", "txns", "oilprize"], k=5, k_dim=10, seed=seed)


def _favorita(spark, seed):
    return favorita_db(spark, sf=SF, seed=seed)


def _retailer(spark, seed):
    return retailer_db(spark, sf=SF, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lr_favorita", _favorita, _lr),
        Workload("rkmeans_favorita", _favorita, _rkmeans),
        Workload("cart_retailer", _retailer, _cart),
    )
}


def _splits(node: TreeNode | None) -> list[tuple]:
    """Pre-order ``(attr, op, value)`` of every split of a CART tree."""
    if node is None or node.split is None:
        return []
    s = node.split
    return [(s.attr, s.op, s.value)] + _splits(node.left) + _splits(node.right)


def split_flips(outputs: list) -> int:
    """Trees after the first whose splits differ from the first tree's.
    0 when the outputs are not trees."""
    trees = [_splits(o) for o in outputs if isinstance(o, TreeNode)]
    return sum(t != trees[0] for t in trees[1:])
