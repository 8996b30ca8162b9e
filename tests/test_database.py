"""Database wrapper: validation, filter pushdown, join order, oracle
snapshots."""
import pytest

from repro.core.database import Database
from repro.core.schema import JoinTree, Relation


def test_rejects_missing_frame(fav_db):
    frames = dict(fav_db.frames)
    frames.pop("oil")
    with pytest.raises(ValueError, match="do not match"):
        Database(fav_db.tree, frames)


def test_rejects_wrong_columns(spark, fav_db):
    frames = dict(fav_db.frames)
    frames["oil"] = frames["oil"].withColumnRenamed("oilprize", "oops")
    with pytest.raises(ValueError, match="oil"):
        Database(fav_db.tree, frames)


def test_join_chain_starts_at_fact(fav_db):
    chain = fav_db.join_chain()
    assert chain[0] == ("sales", ())
    assert {name for name, _ in chain} == set(fav_db.tree.nodes)


def test_join_chain_is_connected_prefixwise(fav_db):
    (first, _), *rest = fav_db.join_chain()
    placed = {first}
    for name, on in rest:
        assert any(
            name in fav_db.tree.neighbors(p)
            and set(on) == fav_db.tree.join_attrs(p, name)
            for p in placed
        )
        placed.add(name)


def test_joined_columns_union_of_attrs(fav_db):
    cols = set(fav_db.joined().columns)
    assert cols == set(fav_db.tree.all_attrs)


def test_oracle_tables_are_unfiltered(fav_db):
    fdb = fav_db.with_filters([("promo", "promo = 1")])
    tabs = fdb.oracle_tables()
    assert set(tabs["sales"]["promo"].unique()) == {0, 1}


def test_df_applies_filters(fav_db):
    fdb = fav_db.with_filters([("promo", "promo = 1")])
    assert fdb.df("sales").filter("promo = 0").count() == 0


def test_filters_immutable_base(fav_db):
    fav_db.with_filters([("promo", "promo = 1")])
    assert fav_db.filters == ()


def test_filter_anchored_to_first_declaring_relation(fav_db):
    # 'date' lives in sales/transactions/oil/holidays; anchor = sales
    fdb = fav_db.with_filters([("date", "date <= 5")])
    assert fdb.filters_on("sales") == ["date <= 5"]
    assert fdb.filters_on("oil") == []


def test_tiny_database_roundtrip(spark):
    import pandas as pd

    tree = JoinTree(
        [Relation("a", ("k", "x")), Relation("b", ("k", "y"))], [("a", "b")]
    )
    frames = {
        "a": spark.createDataFrame(pd.DataFrame({"k": [1, 2], "x": [1.0, 2.0]})),
        "b": spark.createDataFrame(pd.DataFrame({"k": [1, 2], "y": [3.0, 4.0]})),
    }
    db = Database(tree, frames)
    assert db.joined().count() == 2
