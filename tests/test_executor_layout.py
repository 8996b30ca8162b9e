"""How the engine lays out what it caches, and that it releases it.

Views are small and always broadcast, so the engine stores each one as a
single partition; only the fact-sized shared join of the
``multi_output=False`` ablation keeps the partitioning of its relation.
Each test compares Spark's storage before and after its own engine run.
The database has a seed of its own, so no view of the session fixtures has
the same plan (Spark would reuse that cache instead of adding one).
"""
import pytest

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


def _collect(results) -> None:
    for df in results.values():
        df.toPandas()


def test_views_are_stored_as_one_partition(spark, db):
    before = _storage(spark)
    with Engine(db) as eng:
        _collect(eng.run(FAVORITA_CORPUS))
        new = {k: n for k, n in _storage(spark).items() if k not in before}
        assert len(new) == len(eng._cached)
        assert set(new.values()) == {1}
    assert not set(new) & set(_storage(spark))


def test_nomoo_shared_join_keeps_its_partitioning(spark, db):
    before = _storage(spark)
    with Engine(db, multi_output=False) as eng:
        _collect(eng.run(FAVORITA_CORPUS))
        new = {k: n for k, n in _storage(spark).items() if k not in before}
        # Every view is cached; the rest are the shared joins of
        # partitions with more than one view.
        shared = len(eng._cached) - len(eng.plan.views)
        assert shared >= 1
        assert len(new) == len(eng._cached)
        assert list(new.values()).count(1) == len(eng.plan.views)
        assert len([n for n in new.values() if n > 1]) == shared
    assert not set(new) & set(_storage(spark))


def test_engine_context_releases_views_on_error(spark, db):
    before = set(_storage(spark))
    with pytest.raises(RuntimeError, match="after run"):
        with Engine(db) as eng:
            _collect(eng.run(FAVORITA_CORPUS))
            assert set(_storage(spark)) - before
            raise RuntimeError("after run")
    assert set(_storage(spark)) <= before
    eng.unpersist_all()  # a second release is a no-op
    assert eng._cached == []
