"""Where the engine keeps what it computes, what it runs on Spark, and
that it cleans up.

Views are small, so the engine holds each one on the driver as a local
relation: a multi-output run leaves nothing in Spark storage, and reading
a view starts no Spark job. Output views live in a results session that
collects by rows, so ``toPandas`` of a result starts no Spark job either
and gives the pandas dtypes of the Arrow path. A pass runs one Spark
query, its partial aggregate, as one job of one task: its relation is
read as one partition and hash-joined there with each incoming view,
where a null join key matches nothing. The views rolled up from the
partial aggregate are computed on the driver with pyarrow and must agree with Spark's ``SUM`` on null keys, null
values, all-null groups and empty inputs. A repeated batch finds its
generated classes in the session's codegen cache. The ablation without
the multi-output layer (``baseline.run_nomoo``) joins each pass as the
engine does and caches nothing either; it runs one job of one task per
view. Passes run on a thread pool; a failing pass makes ``run`` raise its
own exception and leaves no pool thread behind.

Each test compares Spark's storage before and after its own engine run.
The database has a seed of its own, so no frame of the session fixtures
has the same plan (Spark would reuse that cache instead of adding one).
"""
import threading

import pandas as pd
import pytest
from pyspark.errors import AnalysisException
from pyspark.sql.classic.dataframe import DataFrame

from corpus import FAVORITA_CORPUS
from jobs_features import favorita_std
from repro.core.aggregates import Query, SumProduct
from repro.core.baseline import run_nomoo
from repro.core.database import Database
from repro.core.executor import Engine, results_session
from repro.core.planner import plan_batch
from repro.core.schema import JoinTree, Relation
from repro.core.sql_compile import query_to_sql
from repro.datasets import favorita_db
from repro.ml.linreg import sigma_batch
from repro.ml.rkmeans import projection_batch
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def db(spark):
    return favorita_db(spark, sf=0.002, seed=11)


def _storage(spark) -> set[int]:
    """Ids of the RDDs held in Spark storage."""
    return {i.id() for i in spark.sparkContext._jsc.sc().getRDDStorageInfo()}


def _drain(sc) -> None:
    """Wait until the status tracker has seen every job started so far."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()


def test_views_are_driver_local(spark, db):
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    _drain(sc)
    before = _storage(spark)
    ungrouped = set(tracker.getJobIdsForGroup(None))
    try:
        eng = Engine(db)
        sc.setJobGroup("layout-run", "engine run")
        results = eng.run(FAVORITA_CORPUS)
        _drain(sc)
        assert _storage(spark) <= before
        # Every pass job carries the caller's job group.
        assert tracker.getJobIdsForGroup("layout-run")
        assert set(tracker.getJobIdsForGroup(None)) <= ungrouped
        sc.setJobGroup("layout-read", "read views and results")
        for df in [*eng.views.values(), *results.values()]:
            df.collect()
        _drain(sc)
        assert tracker.getJobIdsForGroup("layout-read") == []
    finally:
        sc._jsc.clearJobGroup()


NOMOO_ERRORS = {
    "ok": ([], None),
    # Fails when the ``sales`` pass reads its relation.
    "error": ([("units", "no_such_column > 0")], None),
    # Fails in the aggregate of the ``bad`` view, after its pass's join
    # resolved.
    "agg-error": ([], Query.make("bad", ["promo"], v=SumProduct.of(units="(units + no_such_column)"))),
}


@pytest.mark.parametrize("case", list(NOMOO_ERRORS))
def test_nomoo_leaves_storage_as_it_found_it(spark, db, monkeypatch, case):
    """``run_nomoo`` calls neither ``DataFrame.cache`` nor ``unpersist``:
    Spark storage holds no new RDD after the call, no pool thread is left
    behind, and a failing pass raises its own error."""
    filters, extra = NOMOO_ERRORS[case]
    calls = []

    def spy(name, orig):
        def wrapped(df, *args, **kwargs):
            calls.append(name)
            return orig(df, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(DataFrame, "cache", spy("cache", DataFrame.cache))
    monkeypatch.setattr(DataFrame, "unpersist", spy("unpersist", DataFrame.unpersist))
    before = _storage(spark)
    threads = set(threading.enumerate())
    batch = FAVORITA_CORPUS + ([extra] if extra else [])
    if case == "ok":
        run_nomoo(db, batch)
    else:
        with pytest.raises(AnalysisException, match="no_such_column"):
            run_nomoo(db.with_filters(filters), batch)
    assert calls == []
    assert _storage(spark) <= before
    assert set(threading.enumerate()) <= threads


def test_nomoo_keeps_the_callers_cache(spark, db):
    """An input relation the caller has cached (as T2 warms its inputs)
    is still cached after ``run_nomoo``, with all of its blocks."""
    before = _storage(spark)
    stores = db.frames["stores"].cache()
    try:
        stores.count()
        held = _storage(spark) - before
        assert held
        run_nomoo(db, FAVORITA_CORPUS)
        assert stores.storageLevel.useMemory
        assert held <= _storage(spark) <= before | held
    finally:
        stores.unpersist()


def test_failing_pass_raises_its_own_error(db):
    bad = db.with_filters([("units", "no_such_column > 0")])
    threads = set(threading.enumerate())
    with pytest.raises(AnalysisException, match="no_such_column"):
        Engine(bad).run(FAVORITA_CORPUS)
    assert set(threading.enumerate()) <= threads


def _jobs_of(sc, group: str, run) -> int:
    """Spark jobs that ``run()`` starts under job group ``group``."""
    sc.setJobGroup(group, group)
    try:
        run()
    finally:
        sc._jsc.clearJobGroup()
    _drain(sc)
    return len(sc.statusTracker().getJobIdsForGroup(group))


def _stage_tasks(sc, group: str) -> list[int]:
    """Task count of every stage of the jobs of job group ``group``."""
    tracker = sc.statusTracker()
    return [
        tracker.getStageInfo(s).numTasks
        for j in tracker.getJobIdsForGroup(group)
        for s in tracker.getJobInfo(j).stageIds
    ]


def test_results_collect_without_a_spark_job(spark, db):
    """The LR Σ batch builds in 17 jobs, one per pass, and its 33 results
    are collected with ``toPandas`` in none: each is a ``select`` of a
    local relation in the results session, which collects by rows on the
    driver. The caller's session keeps Arrow on, and runs over it share
    one results session."""
    sc = spark.sparkContext
    batch = sigma_batch(favorita_std(), "units")
    runs = []
    assert _jobs_of(sc, "results-build", lambda: runs.append(Engine(db).run(batch))) == 17
    pdfs = []

    def collect():
        pdfs.extend(df.toPandas() for df in runs[0].values())

    assert _jobs_of(sc, "results-collect", collect) == 0
    assert len(pdfs) == len(batch) == 33
    assert spark.conf.get("spark.sql.execution.arrow.pyspark.enabled") == "true"
    runs.append(Engine(db).run(batch))
    sessions = {id(df.sparkSession) for res in runs for df in res.values()}
    assert sessions == {id(results_session(spark))} != {id(spark)}


def _assert_arrow_dtypes(df) -> None:
    """``df.toPandas()`` equals, dtypes included, the pandas that the
    Arrow path of ``toPandas`` builds from the same rows."""
    arrow = df.toArrow().to_pandas(date_as_object=True, coerce_temporal_nanoseconds=True)
    pd.testing.assert_frame_equal(df.toPandas(), arrow, check_dtype=True)


@pytest.mark.parametrize("results", ["fav_results", "ret_results"])
def test_results_keep_arrow_dtypes(request, results):
    """Every result of a corpus batch, collected by rows, has the values
    and dtypes of the Arrow path (the oracle tells key columns from float
    columns by dtype)."""
    for df in request.getfixturevalue(results).values():
        _assert_arrow_dtypes(df)


def test_rollups_start_no_spark_job(spark, db):
    """At ``stores`` the views grouped by ``[cluster]`` and ``[stype]`` are
    rolled up from the ``[cluster, stype]`` partial aggregate of their
    pass, so the batch runs as many jobs as that view alone."""
    count = SumProduct.count()
    both = Query.make("both", ["cluster", "stype"], n=count)
    batch = [both, Query.make("c", ["cluster"], n=count), Query.make("s", ["stype"], n=count)]

    def run(qs):
        Engine(db).run(qs, roots={q.name: "stores" for q in qs})

    sc = spark.sparkContext
    assert _jobs_of(sc, "rollup-3", lambda: run(batch)) == _jobs_of(
        sc, "rollup-1", lambda: run([both])
    )


def test_pass_jobs_run_one_task(spark, db):
    """The Favorita LR Σ batch builds in 17 jobs and the Rk-means
    projection batch in 10, one per pass, and each job is one stage of one
    task: the incoming views are joined inside the pass's task, so no view
    is broadcast and nothing is shuffled."""
    sc = spark.sparkContext
    batches = {
        "lr-sigma": (sigma_batch(favorita_std(), "units"), 17),
        "rkmeans-projections": (projection_batch(["units", "txns", "oilprize"]), 10),
    }
    for group, (batch, passes) in batches.items():
        eng = Engine(db)
        jobs = _jobs_of(sc, group, lambda: eng.run(batch))
        assert jobs == len(eng.plan.passes()) == passes, group
        assert _stage_tasks(sc, group) == [1] * jobs, group


def test_nomoo_jobs_run_one_task(spark, db):
    """Without the multi-output layer the Favorita LR Σ batch builds in
    one job per view, 21 (12 merged and 9 output views) against the
    engine's 17, and each job is still one stage of one task: the ablation
    joins each pass as the engine does."""
    sc = spark.sparkContext
    batch = sigma_batch(favorita_std(), "units")
    stats = plan_batch(db.tree, batch).stats()
    jobs = _jobs_of(sc, "nomoo-lr-sigma", lambda: run_nomoo(db, batch))
    assert (stats["merged_views"], stats["output_views"]) == (12, 9)
    assert jobs == stats["merged_views"] + stats["output_views"] == 21
    assert _stage_tasks(sc, "nomoo-lr-sigma") == [1] * jobs


@pytest.fixture(scope="module")
def null_db(spark):
    """Two relations with null join keys, null group-by values, null
    measures and a group (``g = 'dry'``) whose measures are all null."""
    tree = JoinTree(
        [Relation("facts", ("k", "g", "y")), Relation("dims", ("k", "c", "z"))],
        [("facts", "dims")],
    )
    facts = pd.DataFrame(
        {
            "k": pd.array([1, 1, 2, 2, 3, None, 3, 4], dtype="Int64"),
            "g": ["a", None, "a", "dry", "dry", "a", None, "b"],
            "y": [1.0, 2.0, None, None, None, 5.0, 7.0, 8.0],
        }
    )
    dims = pd.DataFrame(
        {
            "k": pd.array([1, 2, 3, None, 4], dtype="Int64"),
            "c": ["x", None, "x", "y", None],
            "z": [0.5, 2.0, None, 4.0, 3.0],
        }
    )
    frames = {n: spark.createDataFrame(pdf) for n, pdf in (("facts", facts), ("dims", dims))}
    return Database(tree, frames)


NULL_BATCH = [
    Query.make("cg", ["c", "g"], n=SumProduct.count(), s=SumProduct.of(y="y")),
    Query.make("c", ["c"], n=SumProduct.count(), s=SumProduct.of(y="y"), sz=SumProduct.of(y="y", z="z")),
    Query.make("g", ["g"], s=SumProduct.of(y="y"), sz=SumProduct.of(y="y", z="z")),
    Query.make("all", [], n=SumProduct.count(), s=SumProduct.of(y="y")),
]


def _rows(df) -> pd.DataFrame:
    pdf = df.toPandas()
    return pdf.sort_values(list(pdf.columns), na_position="first").reset_index(drop=True)


@pytest.mark.parametrize(
    "filters", [[], [("y", "y > 100.0")]], ids=["nulls", "empty-join"]
)
def test_driver_rollups_match_spark_sum(null_db, filters):
    """Rooted at ``dims``, the output views grouped by ``[g]`` and ``[]``
    are driver rollups of ``[c, g]`` and ``[c]``, and the ``facts`` view
    keyed by ``[k]`` is one of ``[g, k]``. They must give what the oracle
    and the ablation (one Spark ``groupBy`` per view) give."""
    fdb = null_db.with_filters(filters)
    roots = {q.name: "dims" for q in NULL_BATCH}
    eng = Engine(fdb)
    res = eng.run(NULL_BATCH, roots)
    ref = run_nomoo(fdb, NULL_BATCH, roots)
    assert eng.plan.rollups() == 3
    for q in NULL_BATCH:
        assert_equivalent(res[q.name], query_to_sql(fdb, q), rtol=1e-9, **fdb.oracle_tables())
        pd.testing.assert_frame_equal(_rows(res[q.name]), _rows(ref[q.name]))
        assert res[q.name].schema == ref[q.name].schema
        _assert_arrow_dtypes(res[q.name])
    total = res["all"].toPandas()
    if filters:
        # SUM over no rows, like Spark's and SQL's: one row, all null.
        assert len(total) == 1 and total.isna().all(axis=None)
    else:
        g = _rows(res["g"]).set_index("g")
        assert pd.isna(g.loc["dry", "s"]) and g.loc["a", "s"] == 1.0


@pytest.fixture(scope="module")
def star_db(spark):
    """A star: ``facts`` joins ``d1`` on ``k1`` and ``d2`` on ``k2``. Both
    sides of ``k1`` hold a null key, so the view out of ``d1`` carries a
    null join key that must match nothing."""
    tree = JoinTree(
        [
            Relation("facts", ("k1", "k2", "g", "y")),
            Relation("d1", ("k1", "c", "z")),
            Relation("d2", ("k2", "w")),
        ],
        [("facts", "d1"), ("facts", "d2")],
    )
    facts = pd.DataFrame(
        {
            "k1": pd.array([1, 1, 2, None, 3, 2], dtype="Int64"),
            "k2": pd.array([10, 20, 10, 10, None, 30], dtype="Int64"),
            "g": ["a", "b", None, "a", "b", "a"],
            "y": [1.0, 2.0, 3.0, 4.0, 5.0, None],
        }
    )
    d1 = pd.DataFrame(
        {
            "k1": pd.array([1, 2, None, 3], dtype="Int64"),
            "c": ["x", None, "x", "y"],
            "z": [0.5, 2.0, 8.0, None],
        }
    )
    d2 = pd.DataFrame(
        {"k2": pd.array([10, 20, None, 30], dtype="Int64"), "w": [1.0, 3.0, 5.0, None]}
    )
    pdfs = {"facts": facts, "d1": d1, "d2": d2}
    return Database(tree, {n: spark.createDataFrame(pdf) for n, pdf in pdfs.items()})


STAR_BATCH = [
    Query.make("gc", ["g", "c"], n=SumProduct.count(), yz=SumProduct.of(y="y", z="z")),
    Query.make("g", ["g"], s=SumProduct.of(y="y"), yw=SumProduct.of(y="y", w="w")),
    Query.make("all", [], n=SumProduct.count(), zw=SumProduct.of(z="z", w="w")),
]


@pytest.mark.parametrize(
    "filters", [[], [("w", "w > 100.0")]], ids=["null-keys", "empty-join"]
)
def test_two_input_pass_matches_oracle(star_db, filters):
    """Rooted at ``facts``, the views out of ``d1`` and ``d2`` are both
    joined into one pass over ``facts``, inside its one task. Null join
    keys match nothing, and a filter on ``d2`` empties the join; the
    results must be the oracle's and the ablation's (one Spark
    ``groupBy`` per view)."""
    fdb = star_db.with_filters(filters)
    roots = {q.name: "facts" for q in STAR_BATCH}
    eng = Engine(fdb)
    res = eng.run(STAR_BATCH, roots)
    ref = run_nomoo(fdb, STAR_BATCH, roots)
    assert max(len(inputs) for _, inputs, _ in eng.plan.passes()) == 2
    for q in STAR_BATCH:
        assert_equivalent(res[q.name], query_to_sql(fdb, q), rtol=1e-9, **fdb.oracle_tables())
        pd.testing.assert_frame_equal(_rows(res[q.name]), _rows(ref[q.name]))
        assert res[q.name].schema == ref[q.name].schema
        _assert_arrow_dtypes(res[q.name])
    total = res["all"].toPandas()
    if filters:
        assert len(total) == 1 and total.isna().all(axis=None)
    else:
        # The two facts rows with a null key match nothing.
        assert total.loc[0, "n"] == 4


def test_repeated_batch_compiles_no_code(spark, fav_db):
    """The Favorita LR Σ batch needs more generated classes than Spark's
    default codegen cache of 100 holds; the session's cache keeps them all,
    so running the batch again compiles nothing."""
    metrics = spark.sparkContext._jvm.org.apache.spark.metrics.source.CodegenMetrics
    compiled = metrics.METRIC_COMPILATION_TIME()
    batch = sigma_batch(favorita_std(), "units")
    counts = []
    for _ in range(2):
        before = compiled.getCount()
        for df in Engine(fav_db).run(batch).values():
            df.toPandas()
        counts.append(compiled.getCount() - before)
    assert counts[1] == 0, counts
