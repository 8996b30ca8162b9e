"""SumProduct / Query construction, restriction, signatures, SQL."""
import pytest

from repro.core.aggregates import Query, SumProduct, short_hash


def test_of_sorts_factors():
    a = SumProduct.of(b="b", a="a")
    b = SumProduct.of(a="a", b="b")
    assert a == b and a.signature == b.signature


def test_count_is_empty_product():
    c = SumProduct.count()
    assert c.factors == () and c.attrs == frozenset()
    assert c.sum_sql() == "SUM(CAST(CAST(1.0 AS DOUBLE) AS DOUBLE))"


def test_sum_sql_single():
    assert SumProduct.of(units="units").sum_sql() == "SUM(CAST((units) AS DOUBLE))"


def test_sum_sql_multi_and_extra():
    sp = SumProduct.of(a="a", b="(b + 1)")
    assert sp.sum_sql() == "SUM(CAST((a) * ((b + 1)) AS DOUBLE))"
    assert sp.sum_sql(["v_col"]) == "SUM(CAST((a) * ((b + 1)) * v_col AS DOUBLE))"


def test_restrict_keeps_only_given_attrs():
    sp = SumProduct.of(a="a", b="b", c="c")
    r = sp.restrict(frozenset({"a", "c"}))
    assert r.attrs == {"a", "c"}
    assert r.expr_for("a") == "a"
    with pytest.raises(KeyError):
        r.expr_for("b")


def test_restrict_to_nothing_is_count():
    assert SumProduct.of(a="a").restrict(frozenset()) == SumProduct.count()


def test_signature_distinguishes_exprs():
    assert SumProduct.of(a="a").signature != SumProduct.of(a="(a * a)").signature


def test_signature_shared_across_queries():
    """Identical partial aggregates from different queries share identity."""
    s1 = SumProduct.of(units="units", txns="txns").restrict(frozenset({"txns"}))
    s2 = SumProduct.of(units="units", txns="txns", oilprize="oilprize").restrict(
        frozenset({"txns"})
    )
    assert s1 == s2


def test_query_make():
    q = Query.make("q", ["a"], v=SumProduct.count())
    assert q.group_by == ("a",) and q.aggs[0][0] == "v"


def test_query_attrs():
    q = Query.make("q", ["g"], v=SumProduct.of(x="x", y="y"))
    assert q.attrs == {"g", "x", "y"}


def test_query_rejects_duplicate_group_by():
    with pytest.raises(ValueError, match="duplicate group-by"):
        Query.make("q", ["a", "a"], v=SumProduct.count())


def test_query_rejects_empty_aggs():
    with pytest.raises(ValueError, match="no aggregates"):
        Query("q", (), ())


def test_query_rejects_duplicate_alias():
    with pytest.raises(ValueError, match="duplicate aggregate alias"):
        Query("q", (), (("v", SumProduct.count()), ("v", SumProduct.count())))


def test_short_hash_stable_and_distinct():
    assert short_hash("a", "b") == short_hash("a", "b")
    assert short_hash("a", "b") != short_hash("ab", "")
    assert len(short_hash("x")) == 10
