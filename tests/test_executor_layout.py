"""Where the engine keeps what it computes, what it runs on Spark, and
that it cleans up.

Views are small, so the engine holds each one on the driver as a local
relation: a multi-output run leaves nothing in Spark storage, and reading
a view starts no Spark job. A pass runs one Spark query, its partial
aggregate, as one job of one task: its relation is read as one partition
and hash-joined there with each incoming view, where a null join key
matches nothing. The views rolled up from the partial aggregate are computed on the driver
with pyarrow and must agree with Spark's ``SUM`` on null keys, null
values, all-null groups and empty inputs. A repeated batch finds its
generated classes in the session's codegen cache. Only the ablation
without the multi-output layer (``baseline.run_nomoo``) caches anything:
the fact-sized shared join of a pass with several views, with the
partitioning of its relation, which the pass releases before it returns,
also on error. Passes run on a thread pool; a failing pass makes ``run``
raise its own exception and leaves no pool thread behind.

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
from table1_batch_stats import rollups
from repro.core.aggregates import Query, SumProduct
from repro.core.baseline import run_nomoo
from repro.core.database import Database
from repro.core.executor import Engine
from repro.core.schema import JoinTree, Relation
from repro.core.sql_compile import query_to_sql
from repro.datasets import favorita_db
from repro.ml.linreg import sigma_batch
from repro.ml.rkmeans import projection_batch
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def db(spark):
    return favorita_db(spark, sf=0.002, seed=11)


def _storage(spark) -> dict[int, int]:
    """RDD id -> partition count of every RDD held in Spark storage."""
    return {
        i.id(): i.numPartitions()
        for i in spark.sparkContext._jsc.sc().getRDDStorageInfo()
    }


def _drain(sc) -> None:
    """Wait until the status tracker has seen every job started so far."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()


def test_views_are_driver_local(spark, db):
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    _drain(sc)
    before = set(_storage(spark))
    ungrouped = set(tracker.getJobIdsForGroup(None))
    try:
        eng = Engine(db)
        sc.setJobGroup("layout-run", "engine run")
        results = eng.run(FAVORITA_CORPUS)
        _drain(sc)
        assert set(_storage(spark)) <= before
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
    # Fails when the ``sales`` pass reads its relation, before any cache.
    "error": ([("units", "no_such_column > 0")], None),
    # Fails in the fifth of the six views of the ``sales`` pass, after the
    # first four read its cached shared join.
    "agg-error": ([], Query.make("bad", ["promo"], v=SumProduct.of(units="(units + no_such_column)"))),
}


@pytest.mark.parametrize("case", list(NOMOO_ERRORS))
def test_nomoo_releases_its_shared_joins(spark, db, monkeypatch, case):
    """``run_nomoo`` caches the shared join of every pass with several
    views, with its relation's partitioning, and each pass unpersists what
    it cached before it returns: Spark storage holds no new RDD after the
    call, also when a pass fails."""
    filters, extra = NOMOO_ERRORS[case]
    partitions = {db.df(n).rdd.getNumPartitions() for n in db.tree.nodes}
    before = _storage(spark)
    cached, released, held = [], [], {}
    cache, unpersist = DataFrame.cache, DataFrame.unpersist

    def spy_cache(df):
        cached.append(df)
        return cache(df)

    def spy_unpersist(df, *args, **kwargs):
        held.update((k, n) for k, n in _storage(spark).items() if k not in before)
        released.append(df)
        return unpersist(df, *args, **kwargs)

    monkeypatch.setattr(DataFrame, "cache", spy_cache)
    monkeypatch.setattr(DataFrame, "unpersist", spy_unpersist)
    threads = set(threading.enumerate())
    batch = FAVORITA_CORPUS + ([extra] if extra else [])
    if case == "ok":
        run_nomoo(db, batch)
        # Only the shared joins of passes with several views are cached.
        assert len(held) == len(cached)
        assert set(held.values()) <= partitions
    else:
        with pytest.raises(AnalysisException, match="no_such_column"):
            run_nomoo(db.with_filters(filters), batch)
        assert set(threading.enumerate()) <= threads
    assert len(cached) >= 1 or case == "error"
    assert {id(df) for df in cached} <= {id(df) for df in released}
    assert set(_storage(spark)) <= set(before)


def test_nomoo_keeps_the_callers_cache(db):
    """The ``stores`` pass of the corpus has two views and no incoming one,
    so its base is the input frame itself. When the caller has cached it
    (as T2 warms its inputs), the pass neither caches nor releases it."""
    stores = db.frames["stores"].cache()
    try:
        stores.count()
        run_nomoo(db, FAVORITA_CORPUS)
        assert stores.storageLevel.useMemory
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
    tracker = sc.statusTracker()
    batches = {
        "lr-sigma": (sigma_batch(favorita_std(), "units"), 17),
        "rkmeans-projections": (projection_batch(["units", "txns", "oilprize"]), 10),
    }
    for group, (batch, passes) in batches.items():
        eng = Engine(db)
        jobs = _jobs_of(sc, group, lambda: eng.run(batch))
        assert jobs == len(eng.plan.passes()) == passes, group
        stages = [
            tracker.getStageInfo(s)
            for j in tracker.getJobIdsForGroup(group)
            for s in tracker.getJobInfo(j).stageIds
        ]
        assert len(stages) == jobs, group
        assert [s.numTasks for s in stages] == [1] * jobs, group


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
    assert rollups(eng.plan) == 3
    for q in NULL_BATCH:
        assert_equivalent(res[q.name], query_to_sql(fdb, q), rtol=1e-9, **fdb.oracle_tables())
        pd.testing.assert_frame_equal(_rows(res[q.name]), _rows(ref[q.name]))
        assert res[q.name].schema == ref[q.name].schema
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
    results must be the oracle's and the ablation's (broadcast joins)."""
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
