"""Engine vs DuckDB oracle on the full Favorita corpus (both modes).

Every query result is cross-checked against an independent flat-SQL
evaluation over the base tables — this is the core correctness claim of
the reproduction: LMFAO's shared-view evaluation computes exactly what
the straightforward join+aggregate computes.
"""
import pytest

from corpus import FAVORITA_CORPUS
from repro.core.executor import Engine
from repro.core.sql_compile import query_to_sql
from repro.oracle import assert_equivalent

IDS = [q.name for q in FAVORITA_CORPUS]


@pytest.mark.parametrize("q", FAVORITA_CORPUS, ids=IDS)
def test_engine_matches_oracle(fav_db, fav_results, q):
    sql = query_to_sql(fav_db, q)
    assert_equivalent(fav_results[q.name], sql, rtol=1e-9, **fav_db.oracle_tables())


@pytest.mark.parametrize("q", FAVORITA_CORPUS, ids=IDS)
def test_engine_nomoo_matches_oracle(fav_db, fav_results_nomoo, q):
    sql = query_to_sql(fav_db, q)
    assert_equivalent(
        fav_results_nomoo[q.name], sql, rtol=1e-9, **fav_db.oracle_tables()
    )


def test_result_schema(fav_results):
    df = fav_results["q2_store_gh"]
    assert df.columns == ["store", "v"]
    df = fav_results["cart_family"]
    assert df.columns == ["family", "cnt", "s", "s2"]


def test_single_query_run(fav_db):
    """A fresh engine on a 1-query batch (no sharing) is still correct."""
    q = FAVORITA_CORPUS[2]
    with Engine(fav_db) as eng:
        res = eng.run([q])
        assert_equivalent(res[q.name], query_to_sql(fav_db, q), rtol=1e-9, **fav_db.oracle_tables())


def test_forced_bad_root_still_correct(fav_db):
    """Correctness must not depend on the root heuristic: root q3 at the
    far end of the tree and check the carried views still aggregate right."""
    q = FAVORITA_CORPUS[2]  # group by iclass
    with Engine(fav_db) as eng:
        res = eng.run([q], roots={q.name: "stores"})
        assert_equivalent(res[q.name], query_to_sql(fav_db, q), rtol=1e-9, **fav_db.oracle_tables())


@pytest.mark.parametrize("root", ["sales", "items", "oil", "stores"])
def test_every_root_gives_same_answer(fav_db, root):
    from repro.core.aggregates import Query, SumProduct

    q = Query.make("q", ["family"], v=SumProduct.of(units="units", txns="txns"))
    with Engine(fav_db) as eng:
        res = eng.run([q], roots={"q": root})
        assert_equivalent(res["q"], query_to_sql(fav_db, q), rtol=1e-9, **fav_db.oracle_tables())
