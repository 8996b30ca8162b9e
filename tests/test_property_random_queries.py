"""Property test: random group-by/sum-product queries over Favorita —
the engine must always agree with the DuckDB oracle.

Hypothesis drives the query shape (group-by subset, factor subset,
per-factor expression); every example plans, executes and oracle-checks
a fresh batch. Batches of several random queries also exercise what a
single query never does: merged views, output views shared by queries
and views rolled up from their pass's partial aggregate. Each batch also
runs over inputs repartitioned to a drawn partition count, so a result
must not depend on how its inputs are split. Examples are capped because
each one runs real Spark jobs.
"""
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aggregates import Query, SumProduct
from repro.core.database import Database
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
    res = Engine(fav_db).run([q])
    assert_equivalent(res[q.name], query_to_sql(fav_db, q), rtol=1e-9, **fav_db.oracle_tables())


def _check_batch(db, batch, parts):
    """Run ``batch`` over ``db`` with every input frame repartitioned to
    ``parts`` partitions and oracle-check each query against ``db``'s data."""
    split = Database(db.tree, {n: df.repartition(parts) for n, df in db.frames.items()}, db.filters)
    res = Engine(split).run(batch)
    for q in batch:
        assert_equivalent(res[q.name], query_to_sql(db, q), rtol=1e-9, **db.oracle_tables())


@pytest.mark.slow
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(qs=st.lists(queries(), min_size=2, max_size=4), parts=st.sampled_from([1, 4, 7]))
def test_random_batch_matches_oracle(fav_db, qs, parts):
    _check_batch(fav_db, [replace(q, name=f"rq{i}") for i, q in enumerate(qs)], parts)


def test_filtered_batch_matches_oracle_over_split_inputs(fav_db):
    """Pushed filters on two relations, a rollup and a global total, over
    inputs split into 7 partitions."""
    units = SumProduct.of(units="units")
    batch = [
        Query.make("fs", ["family", "stype"], v=units, n=SumProduct.count()),
        Query.make("f", ["family"], v=units),
        Query.make("all", [], v=units, t=SumProduct.of(txns="txns")),
    ]
    fdb = fav_db.with_filters([("promo", "promo = 1"), ("perishable", "perishable = 1")])
    _check_batch(fdb, batch, 7)
