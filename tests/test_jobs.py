"""Every spark-submit job runs end-to-end at a tiny scale factor."""
import sys
from pathlib import Path

import pytest

from repro.datasets import favorita_db

sys.path.insert(0, str(Path(__file__).parent.parent / "jobs"))

import table1_batch_stats  # noqa: E402
import table2_runtime  # noqa: E402
import table3_apps  # noqa: E402
import table4_rkmeans  # noqa: E402


@pytest.fixture(scope="module")
def t1(spark):
    return table1_batch_stats.main(spark, sf=0.002)


def test_table1_rows(t1):
    assert len(t1) == 6  # 3 apps x 2 datasets
    assert {r["app"] for r in t1} == {
        "linreg (sigma)", "decision tree (per node)",
        "rk-means (n=6, n+1 queries)", "rk-means (n=11, n+1 queries)",
    }


def test_table1_lr_batch_in_paper_regime(t1):
    lr = {r["dataset"]: r for r in t1 if r["app"] == "linreg (sigma)"}
    assert lr["retailer"]["queries"] >= 100  # paper: 814-aggregate regime
    assert lr["favorita"]["queries"] >= 100


def test_table1_dt_effective_aggregates(t1):
    dt = {r["dataset"]: r for r in t1 if "decision tree" in r["app"]}
    # thresholds x 3 >> #queries: the paper's 3,141-per-node counting
    for r in dt.values():
        assert r["effective_aggregates"] > 10 * r["queries"]


def test_table1_views_fewer_than_naive(t1):
    """Sharing: merged views << queries x edges for the big LR batches."""
    for r in t1:
        if r["app"] == "linreg (sigma)":
            assert r["merged_views"] < r["queries"]


def test_table1_levels():
    """One query rooted at items waits on the chain stores -> transactions
    -> sales -> items; the other leaves run beside it."""
    from repro.core.aggregates import Query, SumProduct
    from repro.core.planner import plan_batch
    from repro.datasets import favorita_tree

    q = Query.make("q", ["iclass"], v=SumProduct.of(units="units"))
    plan = plan_batch(favorita_tree(), [q], roots={"q": "items"})
    assert (len(plan.passes()), plan.levels()) == (6, 4)


def test_table1_levels_bounded_by_passes(t1):
    for r in t1:
        assert 1 <= r["levels"] <= r["passes"]


def test_table1_rollups_of_benchmark_batches(fav_db):
    """The LR Σ batch rolls 5 views up on the driver; neither Rk-means
    batch (projections, then the grid over the extended tree) has one."""
    import pandas as pd
    from jobs_features import favorita_std

    from repro.core.planner import plan_batch
    from repro.ml.linreg import sigma_batch
    from repro.ml.rkmeans import extend_with_assignments, grid_query, projection_batch

    attrs = ["units", "txns", "oilprize"]
    ext = extend_with_assignments(
        fav_db, {a: pd.DataFrame({a: [0.0], f"c_{a}": [0]}) for a in attrs}
    )
    batches = [
        (fav_db, sigma_batch(favorita_std(), "units")),
        (fav_db, projection_batch(attrs)),
        (ext, [grid_query(attrs)]),
    ]
    got = [plan_batch(db.tree, b).rollups() for db, b in batches]
    assert got == [5, 0, 0]


def test_table1_view_joins_of_benchmark_batches(fav_db):
    """The LR Σ batch joins 25 views into its 17 passes, the Rk-means
    projection batch 14 into 10; each pass with its joins is one job."""
    from jobs_features import favorita_std

    from repro.core.planner import plan_batch
    from repro.ml.linreg import sigma_batch
    from repro.ml.rkmeans import projection_batch

    plans = [
        plan_batch(fav_db.tree, sigma_batch(favorita_std(), "units")),
        plan_batch(fav_db.tree, projection_batch(["units", "txns", "oilprize"])),
    ]
    got = [(len(p.passes()), p.view_joins()) for p in plans]
    assert got == [(17, 25), (10, 14)]


def test_table2_runs_and_strategies_agree_on_shape(spark):
    rows = table2_runtime.main(spark, sf=0.002)
    assert len(rows) == 12  # 4 strategies x 2 datasets + 2x2 fan-out sweep (T2b)
    by_ds = {}
    for r in rows:
        by_ds.setdefault(r["dataset"], set()).add(r["output_rows"])
    # every strategy produced the same total number of result rows
    for ds, counts in by_ds.items():
        assert len(counts) == 1, (ds, counts)


def test_table2_warm_inputs_recache_after_clear_cache(spark):
    """``clearCache()`` leaves the flag that ``DataFrame.cache()`` sets, so the warm-up
    must ask Spark whether an input is still cached."""
    db = favorita_db(spark, sf=0.002, seed=5)
    table2_runtime.warm_inputs(db)
    spark.catalog.clearCache()
    table2_runtime.warm_inputs(db)
    for name in db.tree.nodes:
        assert db.frames[name].storageLevel.useMemory, name


def test_table3_runs(spark):
    rows = table3_apps.main(spark, sf=0.002)
    assert len(rows) == 4
    lr = [r for r in rows if r["app"] == "linreg"]
    assert all(r["loss_end"] <= r["loss_start"] for r in lr)
    assert all(r["obj_gap_vs_closed_form"] < 0.05 for r in lr)
    dt = [r for r in rows if r["app"] == "decision tree"]
    assert all(r["agrees_with_exhaustive"] for r in dt)
    assert all(r["mse_tree"] < r["mse_mean_baseline"] for r in dt)


def test_table4_runs(spark):
    rows = table4_rkmeans.main(spark, sf=0.002, n_lloyd=3)
    assert len(rows) == 6  # 3 k_dim x 2 datasets
    for r in rows:
        assert 0 < r["coreset_size"] <= r["d_size"]
        assert r["rel_approx_vs_lloyds"] < 2.0
    # finer grids shrink the approximation gap (allowing small noise)
    for ds in ("favorita", "retailer"):
        sweep = [r for r in rows if r["dataset"] == ds]
        assert sweep[-1]["rel_approx_vs_lloyds"] <= sweep[0]["rel_approx_vs_lloyds"] + 0.1
