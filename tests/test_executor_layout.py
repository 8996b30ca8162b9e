"""Where the engine keeps what it computes, and that it cleans up.

Views are small and always broadcast, so the engine holds each one on the
driver as a local relation: a multi-output run leaves nothing in Spark
storage, and reading a view starts no Spark job. Only the fact-sized
shared join of the ``multi_output=False`` ablation is cached, with the
partitioning of its relation, until the engine is released. Passes run on
a thread pool; a failing pass makes ``run`` raise its own exception and
leaves no pool thread behind.

Each test compares Spark's storage before and after its own engine run.
The database has a seed of its own, so no frame of the session fixtures
has the same plan (Spark would reuse that cache instead of adding one).
"""
import threading
from contextlib import nullcontext

import pytest
from pyspark.errors import AnalysisException

from corpus import FAVORITA_CORPUS
from repro.core.executor import Engine
from repro.datasets import favorita_db


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
        with Engine(db) as eng:
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


@pytest.mark.parametrize("fail", [False, True], ids=["ok", "error"])
def test_nomoo_shared_join_is_cached_and_released(spark, db, fail):
    partitions = {db.df(n).rdd.getNumPartitions() for n in db.tree.nodes}
    before = _storage(spark)
    with pytest.raises(RuntimeError, match="after run") if fail else nullcontext():
        with Engine(db, multi_output=False) as eng:
            eng.run(FAVORITA_CORPUS)
            new = {k: n for k, n in _storage(spark).items() if k not in before}
            # Only the shared joins of passes with several views are cached.
            assert len(eng._cached) >= 1
            assert len(new) == len(eng._cached)
            assert set(new.values()) <= partitions
            if fail:
                raise RuntimeError("after run")
    assert not set(new) & set(_storage(spark))
    eng.unpersist_all()  # a second release is a no-op
    assert eng._cached == []


def test_failing_pass_raises_its_own_error(db):
    bad = db.with_filters([("units", "no_such_column > 0")])
    threads = set(threading.enumerate())
    with Engine(bad) as eng:
        with pytest.raises(AnalysisException, match="no_such_column"):
            eng.run(FAVORITA_CORPUS)
    assert set(threading.enumerate()) <= threads
