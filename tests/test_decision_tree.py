"""CART: node batches vs oracle, split search vs brute force, tree build."""
import numpy as np
import pandas as pd
import pytest

from repro.core.aggregates import Query, SumProduct
from repro.core.database import Database
from repro.core.executor import Engine
from repro.core.schema import JoinTree, Relation
from repro.core.sql_compile import query_to_sql
from repro.ml.decision_tree import (
    Split,
    TreeNode,
    _sse,
    best_split,
    build_tree,
    node_batch,
    predict,
)
from repro.ml.linreg import Feature
from repro.oracle import assert_equivalent

FEATURES = [
    Feature("promo"),
    Feature("txns"),
    Feature("oilprize"),
    Feature("family", categorical=True),
    Feature("stype", categorical=True),
]
LABEL = "units"


def test_node_batch_counts():
    batch = node_batch(FEATURES, LABEL)
    assert len(batch) == len(FEATURES) + 1  # +1 total query
    assert all(len(q.aggs) == 3 for q in batch)


def test_label_cannot_be_feature():
    with pytest.raises(ValueError, match="label"):
        node_batch([Feature(LABEL)], LABEL)


@pytest.fixture(scope="module")
def node_results(fav_db):
    eng = Engine(fav_db)
    return eng.run(node_batch(FEATURES, LABEL))


@pytest.mark.parametrize("qname", ["dt_total", "dt_promo", "dt_txns", "dt_family", "dt_stype"])
def test_node_aggregates_match_oracle(fav_db, node_results, qname):
    batch = {q.name: q for q in node_batch(FEATURES, LABEL)}
    sql = query_to_sql(fav_db, batch[qname])
    assert_equivalent(node_results[qname], sql, rtol=1e-9, **fav_db.oracle_tables())


def test_sse_formula():
    y = np.array([1.0, 2.0, 3.0, 10.0])
    sse = _sse(np.array([4.0]), np.array([y.sum()]), np.array([(y**2).sum()]))
    assert np.isclose(sse[0], ((y - y.mean()) ** 2).sum())


def test_sse_zero_count_is_zero():
    assert _sse(np.array([0.0]), np.array([0.0]), np.array([0.0]))[0] == 0.0


def brute_force_split(d, features, label):
    """Exhaustive scan over materialized D (the ground truth)."""
    y = d[label].to_numpy(float)
    best = (None, np.inf)
    for f in features:
        vals = d[f.attr]
        for v in sorted(vals.unique()):
            mask = (vals == v) if f.categorical else (vals <= v)
            if mask.all() or not mask.any():
                continue
            l, r = y[mask.to_numpy()], y[~mask.to_numpy()]
            sse = ((l - l.mean()) ** 2).sum() + ((r - r.mean()) ** 2).sum()
            if sse < best[1] - 1e-9:
                best = ((f.attr, v), sse)
    return best


def test_best_split_matches_brute_force(fav_db, fav_d, node_results):
    results = {n: df.toPandas() for n, df in node_results.items()}
    split, n, mean, sse = best_split(results, FEATURES)
    assert n == len(fav_d)
    assert np.isclose(mean, fav_d[LABEL].mean())
    (attr_v, bf_sse) = brute_force_split(fav_d, FEATURES, LABEL)
    assert np.isclose(split.sse, bf_sse, rtol=1e-9)
    assert (split.attr, split.value) == attr_v


def test_split_predicates_continuous():
    s = Split("txns", "<=", 100, 0.0)
    assert s.predicates() == ("txns <= 100", "txns > 100")


def test_split_predicates_categorical_quoted():
    s = Split("family", "==", "DAIRY", 0.0)
    assert s.predicates() == ("family = 'DAIRY'", "family <> 'DAIRY'")


def test_split_predicates_escape_quotes():
    s = Split("name", "==", "O'Brien", 0.0)
    assert s.predicates() == ("name = 'O''Brien'", "name <> 'O''Brien'")


def test_quoted_predicates_run_on_spark_and_oracle(spark):
    """A value containing ``'`` pushed down as a CART path condition: the
    engine (Spark) and the oracle (DuckDB) select the same rows."""
    tree = JoinTree(
        [Relation("facts", ("k", "y")), Relation("names", ("k", "name"))],
        [("facts", "names")],
    )
    names = ["O'Brien", "OBrien", "O", "Brien"]
    frames = {
        "facts": spark.createDataFrame(
            pd.DataFrame({"k": [0, 0, 1, 2, 3, 3], "y": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]})
        ),
        "names": spark.createDataFrame(pd.DataFrame({"k": [0, 1, 2, 3], "name": names})),
    }
    db = Database(tree, frames)
    q = Query.make("q", ["name"], cnt=SumProduct.count(), s=SumProduct.of(y="y"))
    hit, miss = Split("name", "==", "O'Brien", 0.0).predicates()
    selected = []
    for pred in (hit, miss):
        fdb = db.with_filters([("name", pred)])
        res = Engine(fdb).run([q])["q"]
        assert_equivalent(res, query_to_sql(fdb, q), rtol=1e-9, **fdb.oracle_tables())
        selected.append(sorted(r["name"] for r in res.collect()))
    assert selected == [["O'Brien"], ["Brien", "O", "OBrien"]]


def _binary_results(seed: int, order: list[int]) -> dict[str, pd.DataFrame]:
    """Node results for two categorical features that both split the rows
    into the same two halves, so ``rain == 0``, ``rain == 1``, ``wet == 0``
    and ``wet == 1`` all tie; group-by rows come in ``order``."""
    y = np.random.default_rng(seed).normal(10.0, 3.0, size=40) / 7.0
    rain = np.arange(40) % 2
    tot = pd.DataFrame({"cnt": [40.0], "s": [y.sum()], "s2": [(y * y).sum()]})
    groups = pd.DataFrame(
        {
            "v": [0, 1],
            "cnt": [float((rain == v).sum()) for v in (0, 1)],
            "s": [y[rain == v].sum() for v in (0, 1)],
            "s2": [(y[rain == v] ** 2).sum() for v in (0, 1)],
        }
    ).iloc[order]
    return {
        "dt_total": tot,
        "dt_rain": groups.rename(columns={"v": "rain"}),
        "dt_wet": groups.rename(columns={"v": "wet"}),
    }


# seed 3: the two SSEs are bit-identical; seed 37: rounding makes the
# ``rain == 1`` SSE smaller in the last bit, so only the tolerance ties them.
@pytest.mark.parametrize("seed", [3, 37])
def test_best_split_tie_independent_of_row_order(seed):
    feats = [Feature("rain", categorical=True), Feature("wet", categorical=True)]
    fwd, _, _, _ = best_split(_binary_results(seed, [0, 1]), feats)
    rev, _, _, _ = best_split(_binary_results(seed, [1, 0]), feats)
    assert fwd == rev
    assert (rev.attr, rev.op, rev.value) == ("rain", "==", 0)


@pytest.fixture(scope="module")
def tree(fav_db):
    return build_tree(fav_db, FEATURES, LABEL, max_depth=2, min_leaf=10)


def test_tree_structure(tree):
    assert isinstance(tree, TreeNode)
    assert tree.split is not None  # synthetic signal guarantees a useful split
    assert tree.left is not None and tree.right is not None


def test_tree_child_counts_sum(tree):
    assert np.isclose(tree.left.count + tree.right.count, tree.count)


def test_tree_improves_mse(tree, fav_d):
    pred = predict(tree, fav_d)
    mse_tree = float(np.mean((fav_d[LABEL] - pred) ** 2))
    mse_mean = float(np.mean((fav_d[LABEL] - fav_d[LABEL].mean()) ** 2))
    assert mse_tree < mse_mean


def test_children_sse_not_worse(tree):
    assert tree.left.sse + tree.right.sse <= tree.sse + 1e-6


def test_leaf_prediction_is_mean(fav_db, fav_d, tree):
    """Depth-0 tree predicts the global mean."""
    leaf = build_tree(fav_db, FEATURES, LABEL, max_depth=0)
    assert leaf.split is None
    assert np.isclose(leaf.prediction, fav_d[LABEL].mean())


def test_deeper_tree_not_worse(fav_db, fav_d, tree):
    deep = build_tree(fav_db, FEATURES, LABEL, max_depth=3, min_leaf=10)
    mse2 = float(np.mean((fav_d[LABEL] - predict(tree, fav_d)) ** 2))
    mse3 = float(np.mean((fav_d[LABEL] - predict(deep, fav_d)) ** 2))
    assert mse3 <= mse2 + 1e-9
