"""Property test: random group-by/sum-product queries over Favorita —
the engine must always agree with the DuckDB oracle.

Hypothesis drives the query shape (group-by subset, factor subset,
per-factor expression); every example plans, executes and oracle-checks
a fresh batch. Batches of several random queries also exercise what a
single query never does: merged views, output views shared by queries
and views rolled up from their pass's partial aggregate. Examples are
capped because each one runs real Spark jobs.
"""
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aggregates import Query, SumProduct
from repro.core.executor import Engine
from repro.core.sql_compile import query_to_sql
from repro.oracle import assert_equivalent

GB_ATTRS = ["store", "item", "date", "family", "stype", "htype", "promo",
            "perishable", "cluster", "locale", "iclass", "city"]
FACTOR_EXPRS = {
    "units": ["units", "(units * units)", "(units + 1.0)"],
    "txns": ["txns", "(txns * 0.001)"],
    "oilprize": ["oilprize"],
    "item": ["(item % 7 + 1.0)"],
    "date": ["(date % 5 + 1.0)"],
    "cluster": ["cluster"],
    "transferred": ["(transferred + 1.0)"],
}


@st.composite
def queries(draw):
    gb = draw(st.lists(st.sampled_from(GB_ATTRS), max_size=3, unique=True))
    attrs = draw(
        st.lists(st.sampled_from(sorted(FACTOR_EXPRS)), max_size=3, unique=True)
    )
    factors = {a: draw(st.sampled_from(FACTOR_EXPRS[a])) for a in attrs}
    return Query.make("rq", gb, v=SumProduct.of(**factors) if factors else SumProduct.count())


@pytest.mark.slow
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(q=queries())
def test_random_query_matches_oracle(fav_db, q):
    with Engine(fav_db) as eng:
        res = eng.run([q])
        assert_equivalent(res[q.name], query_to_sql(fav_db, q), rtol=1e-9, **fav_db.oracle_tables())


@pytest.mark.slow
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(qs=st.lists(queries(), min_size=2, max_size=4))
def test_random_batch_matches_oracle(fav_db, qs):
    batch = [replace(q, name=f"rq{i}") for i, q in enumerate(qs)]
    with Engine(fav_db) as eng:
        res = eng.run(batch)
        for q in batch:
            assert_equivalent(res[q.name], query_to_sql(fav_db, q), rtol=1e-9, **fav_db.oracle_tables())
