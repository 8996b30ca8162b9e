"""Shared fixtures: one Spark session, tiny databases and one
engine/baseline run per corpus.

Each strategy executes its whole corpus batch once per session; the
parametrized per-query tests then only collect + oracle-check single
result frames, keeping the suite fast while covering every query.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "jobs"))

from _common import get_spark  # noqa: E402
from corpus import FAVORITA_CORPUS, RETAILER_CORPUS, TPCH_CORPUS  # noqa: E402

from repro.core.baseline import run_naive, run_nomoo, run_shared_join  # noqa: E402
from repro.core.executor import Engine  # noqa: E402
from repro.datasets import favorita_db, retailer_db, tpch_db  # noqa: E402

TEST_SF_FAVORITA = 0.002
TEST_SF_RETAILER = 0.002
TEST_SF_TPCH = 0.005


@pytest.fixture(scope="session")
def spark():
    """The jobs' Spark session, shared by the whole test session."""
    s = get_spark("repro")
    yield s
    s.stop()


@pytest.fixture(scope="session")
def fav_db(spark):
    return favorita_db(spark, sf=TEST_SF_FAVORITA)


@pytest.fixture(scope="session")
def ret_db(spark):
    return retailer_db(spark, sf=TEST_SF_RETAILER)


@pytest.fixture(scope="session")
def tpc_db(spark):
    return tpch_db(spark, sf=TEST_SF_TPCH)


@pytest.fixture(scope="session")
def fav_results(fav_db):
    """Engine (full LMFAO) results for the whole Favorita corpus."""
    return Engine(fav_db).run(FAVORITA_CORPUS)


@pytest.fixture(scope="session")
def fav_results_nomoo(fav_db):
    """Ablation: engine without the multi-output pass (partial aggregate
    plus rollup): one ``groupBy`` per view instead."""
    return run_nomoo(fav_db, FAVORITA_CORPUS)


@pytest.fixture(scope="session")
def ret_results(ret_db):
    return Engine(ret_db).run(RETAILER_CORPUS)


@pytest.fixture(scope="session")
def ret_results_nomoo(ret_db):
    return run_nomoo(ret_db, RETAILER_CORPUS)


@pytest.fixture(scope="session")
def tpc_results(tpc_db):
    return Engine(tpc_db).run(TPCH_CORPUS)


@pytest.fixture(scope="session")
def fav_naive(fav_db):
    return run_naive(fav_db, FAVORITA_CORPUS[:10])


@pytest.fixture(scope="session")
def fav_shared(fav_db):
    return run_shared_join(fav_db, FAVORITA_CORPUS[:10])


@pytest.fixture(scope="session")
def ret_naive(ret_db):
    return run_naive(ret_db, RETAILER_CORPUS[:8])


@pytest.fixture(scope="session")
def fav_d(fav_db):
    """Materialized Favorita join as pandas (ML cross-checks)."""
    return fav_db.joined().toPandas()
