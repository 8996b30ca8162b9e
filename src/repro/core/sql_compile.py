"""Compile a batch query to flat SQL over the base relations.

Used two ways:

* fed to DuckDB (via ``repro.oracle.assert_equivalent``) so every engine
  result is cross-checked against an independent evaluation of the same
  semantics, and
* rendered for humans in tests/jobs.

The join is a ``JOIN ... USING`` chain along the database's join chain;
``USING`` coalesces the shared columns so bare attribute names stay
unambiguous (non-join attributes are globally unique by schema
validation). Pushed-down selections are re-stated in ``WHERE``, so the
oracle runs over the *unfiltered* base tables and independently
re-derives the filtered result.
"""
from __future__ import annotations

from repro.core.aggregates import Query
from repro.core.database import Database


def join_clause(db: Database) -> str:
    """``FROM``-clause body realizing the natural join of the tree."""
    (first, _), *rest = db.join_chain()
    joins = [f"JOIN {name} USING ({', '.join(on)})" for name, on in rest]
    return " ".join([first, *joins])


def query_to_sql(db: Database, q: Query) -> str:
    """Flat SQL equivalent of ``q`` over ``db`` (including filters)."""
    sel = list(q.group_by)
    sel += [f"{sp.sum_sql()} AS {alias}" for alias, sp in q.aggs]
    sql = f"SELECT {', '.join(sel)} FROM {join_clause(db)}"
    preds = [p for _, p in db.filters]
    if preds:
        sql += " WHERE " + " AND ".join(f"({p})" for p in preds)
    if q.group_by:
        sql += " GROUP BY " + ", ".join(q.group_by)
    return sql
