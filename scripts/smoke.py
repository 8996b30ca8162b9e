"""Manual smoke test: run the paper's three example queries on Favorita
through the engine, the baselines, and the DuckDB oracle.

Run from the repository root: ``PYTHONPATH=src python scripts/smoke.py``
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "jobs"))

from _common import get_spark  # noqa: E402

from repro.core import Engine, Query, SumProduct
from repro.core.baseline import run_naive, run_nomoo, run_shared_join
from repro.core.sql_compile import query_to_sql
from repro.datasets import favorita_db
from repro.oracle import assert_equivalent

spark = get_spark("smoke")
spark.sparkContext.setLogLevel("ERROR")

db = favorita_db(spark, sf=0.002)

# The paper's Q1, Q2, Q3 (g(item) = item*0.5+1, h(date) = date%7+1).
q1 = Query.make("q1", [], total_units=SumProduct.of(units="units"))
q2 = Query.make(
    "q2",
    ["store"],
    gh=SumProduct.of(item="(item * 0.5 + 1.0)", date="(date % 7 + 1.0)"),
)
q3 = Query.make("q3", ["iclass"], rev=SumProduct.of(units="units", oilprize="oilprize"))
batch = [q1, q2, q3]

eng = Engine(db)
res = eng.run(batch)
print("roots:", eng.plan.roots)
print("stats:", eng.plan.stats())
for q in batch:
    sql = query_to_sql(db, q)
    print(f"-- {q.name}: {sql}")
    assert_equivalent(res[q.name], sql, rtol=1e-9, **db.oracle_tables())
    print(f"   oracle OK ({res[q.name].count()} rows)")

nomoo = run_nomoo(db, batch)
naive = run_naive(db, batch)
shared = run_shared_join(db, batch)
for q in batch:
    sql = query_to_sql(db, q)
    for name, r in [("nomoo", nomoo), ("naive", naive), ("shared", shared)]:
        assert_equivalent(r[q.name], sql, rtol=1e-9, **db.oracle_tables())
print("all strategies agree with oracle")

# Filtered database (CART-style condition).
fdb = db.with_filters([("txns", "txns <= 2000"), ("family", "family = 'GROCERY'")])
fres = Engine(fdb).run(batch)
for q in batch:
    assert_equivalent(fres[q.name], query_to_sql(fdb, q), rtol=1e-9, **fdb.oracle_tables())
print("filtered database OK")
spark.stop()
