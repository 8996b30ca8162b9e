"""Oracle check of every engine batch, outside the timed region.

Each query's *already collected* pandas result is compared with DuckDB
evaluating ``repro.core.sql_compile.query_to_sql`` over the base tables,
through ``repro.oracle.assert_equivalent``: group-by keys must match
exactly and float columns within rtol 1e-9. The Spark result frames are
not executed again; the collected frame is handed to the oracle as is.
"""
from __future__ import annotations

from types import SimpleNamespace

import pandas as pd

from repro.core.sql_compile import query_to_sql
from repro.oracle import assert_equivalent

RTOL = 1e-9


class OracleTables:
    """Base relations as pandas, converted once per generated dataset.

    ``Database.with_filters`` makes a new database per tree node but
    shares the generated frames, whose conversion is reused. A frame the
    application made itself (an Rk-means assignment relation) is
    converted for the batch that reads it.
    """

    def __init__(self, db):
        self.frames = dict(db.frames)
        self.base = {n: df.toPandas() for n, df in db.frames.items()}

    def for_db(self, db) -> dict[str, pd.DataFrame]:
        return {
            n: self.base[n] if self.frames.get(n) is df else df.toPandas()
            for n, df in db.frames.items()
        }


def check_batch(batch, tables: OracleTables, perturb: bool = False) -> str | None:
    """None if every query of the batch matches the oracle, else why not.

    ``perturb`` scales the first aggregate value of the first query by
    (1 + 1e-3) before comparing: the harness self-test uses it to show
    that a wrong result is counted as a failed batch.
    """
    if batch.error:
        return batch.error
    db = batch.engine.db
    tabs = tables.for_db(db)
    for i, q in enumerate(batch.queries):
        got = batch.pandas.get(q.name)
        if got is None:
            return f"{q.name}: result was never collected"
        if perturb and i == 0:
            got = got.copy()
            alias = q.aggs[0][0]
            got.loc[got.index[0], alias] *= 1 + 1e-3
        try:
            assert_equivalent(
                SimpleNamespace(toPandas=lambda got=got: got),
                query_to_sql(db, q),
                rtol=RTOL,
                **tabs,
            )
        except AssertionError as e:
            return f"{q.name}: {e}"
    return None
