"""View generation and merging: structure of the plans (paper §2)."""
import re

import pytest

from corpus import FAVORITA_CORPUS, RETAILER_CORPUS, TPCH_CORPUS
from repro.core.aggregates import Query, SumProduct
from repro.core.planner import ViewKey, child_ga, plan_batch
from repro.datasets import favorita_tree, retailer_tree, tpch_tree


@pytest.fixture(scope="module")
def tree():
    return favorita_tree()


def paper_batch():
    q1 = Query.make("q1", [], v=SumProduct.of(units="units"))
    q2 = Query.make(
        "q2", ["store"], v=SumProduct.of(item="(item*0.5+1.0)", date="(date%7+1.0)")
    )
    q3 = Query.make("q3", ["iclass"], v=SumProduct.of(units="units"))
    return [q1, q2, q3]


def test_paper_example_view_merging(tree):
    """Fig. 2: one view per incoming edge of sales is shared by all three
    queries (same direction + group attrs merge), plus V_{S->I} for q3."""
    plan = plan_batch(tree, paper_batch())
    inner = {vk for vk in plan.views if vk.parent is not None}
    # All views into sales are keyed by the edge join attrs only.
    assert ViewKey("transactions", "sales", frozenset({"date", "store"})) in inner
    assert ViewKey("oil", "sales", frozenset({"date"})) in inner
    assert ViewKey("holidays", "sales", frozenset({"date"})) in inner
    assert ViewKey("items", "sales", frozenset({"item"})) in inner
    assert ViewKey("stores", "transactions", frozenset({"store"})) in inner
    # q3 rooted at items sends one view sales -> items.
    assert ViewKey("sales", "items", frozenset({"item"})) in inner
    assert len(inner) == 6


def test_paper_example_outputs(tree):
    plan = plan_batch(tree, paper_batch())
    assert plan.outputs["q1"].view == ViewKey("sales", None, frozenset())
    assert plan.outputs["q2"].view == ViewKey("sales", None, frozenset({"store"}))
    assert plan.outputs["q3"].view == ViewKey("items", None, frozenset({"iclass"}))


def test_identical_aggregates_share_columns(tree):
    """q1 and a copy of it rooted elsewhere still share subtree columns."""
    qa = Query.make("qa", [], v=SumProduct.of(units="units"))
    qb = Query.make("qb", ["family"], v=SumProduct.of(units="units"))
    plan = plan_batch(tree, [qa, qb], roots={"qa": "sales", "qb": "items"})
    # The oil->sales view serves both and has a single count column.
    vd = plan.views[ViewKey("oil", "sales", frozenset({"date"}))]
    assert len(vd.cols) == 1


def test_distinct_aggregates_get_distinct_columns(tree):
    qa = Query.make("qa", [], v=SumProduct.of(oilprize="oilprize"))
    qb = Query.make("qb", [], v=SumProduct.of(oilprize="(oilprize * oilprize)"))
    plan = plan_batch(tree, [qa, qb], roots={"qa": "sales", "qb": "sales"})
    vd = plan.views[ViewKey("oil", "sales", frozenset({"date"}))]
    assert len(vd.cols) == 2


def test_carrying_view_group_attrs(tree):
    """A group-by attribute below the root is carried up through views."""
    q = Query.make("q", ["city"], v=SumProduct.of(units="units"))
    plan = plan_batch(tree, [q], roots={"q": "sales"})
    assert ViewKey("stores", "transactions", frozenset({"store", "city"})) in plan.views
    assert ViewKey("transactions", "sales", frozenset({"date", "store", "city"})) in plan.views


def test_child_ga_formula(tree):
    ga = frozenset({"city", "date", "store"})
    assert child_ga(tree, "transactions", ga, "stores") == {"store", "city"}
    ga2 = frozenset({"iclass"})
    assert child_ga(tree, "sales", ga2, "items") == {"item", "iclass"}
    assert child_ga(tree, "sales", ga2, "oil") == {"date"}


def _input_cols(sql: str) -> list[str]:
    """The incoming-view columns a view's SUM SQL references, in order."""
    return re.findall(r"\ba_[0-9a-f]{10}\b", sql)


def test_inputs_cover_all_children(tree):
    q = Query.make("q", [], v=SumProduct.of(units="units"))
    plan = plan_batch(tree, [q], roots={"q": "sales"})
    out = plan.views[ViewKey("sales", None, frozenset())]
    (sql,) = out.cols.values()
    assert [vk.node for vk in out.inputs] == ["holidays", "items", "oil", "transactions"]
    refs = _input_cols(sql)
    assert len(refs) == len(out.inputs)
    for vk, c in zip(out.inputs, refs):
        assert c in plan.views[vk].cols


def test_output_views_merge_same_root_and_gb(tree):
    qa = Query.make("qa", ["store"], v=SumProduct.of(units="units"))
    qb = Query.make("qb", ["store"], v=SumProduct.count())
    plan = plan_batch(tree, [qa, qb], roots={"qa": "sales", "qb": "sales"})
    assert plan.outputs["qa"].view == plan.outputs["qb"].view
    assert plan.stats()["output_views"] == 1


def test_passes_order(tree):
    plan = plan_batch(tree, paper_batch())
    order = [(n, vds[0].key.parent) for n, _, vds in plan.passes()]
    pos = {k: i for i, k in enumerate(order)}
    # every view comes after all views of its children
    assert pos[("stores", "transactions")] < pos[("transactions", "sales")]
    assert pos[("transactions", "sales")] < pos[("sales", None)]
    assert pos[("sales", "items")] < pos[("items", None)]


def test_stats_counts(tree):
    plan = plan_batch(tree, paper_batch())
    s = plan.stats()
    assert s["queries"] == 3
    assert s["merged_views"] == 6
    assert s["output_views"] == 3
    assert s["roots"] == 2
    assert s["aggregates"] == 3


def test_rejects_duplicate_query_names(tree):
    q = Query.make("dup", [], v=SumProduct.count())
    with pytest.raises(ValueError, match="duplicate query names"):
        plan_batch(tree, [q, q])


def test_rejects_unknown_attribute(tree):
    q = Query.make("q", ["nope"], v=SumProduct.count())
    with pytest.raises(ValueError, match="unknown attributes"):
        plan_batch(tree, [q])


def test_rejects_factor_on_another_attribute(tree):
    """A factor may mention only its own attribute; otherwise its SQL
    would fail inside a Spark job of whichever pass evaluates it."""
    ok = Query.make("ok", [], v=SumProduct.of(units="units"))
    bad = Query.make("bad", [], v=SumProduct.of(units="(units * txns)"))
    with pytest.raises(ValueError, match=r"query bad: the factor on units .* mentions txns"):
        plan_batch(tree, [ok, bad])


def test_factor_string_literal_is_not_an_attribute(tree):
    q = Query.make("q", [], v=SumProduct.of(family="CASE WHEN family = 'store' THEN 1 END"))
    assert plan_batch(tree, [q]).outputs["q"]


def test_single_query_view_count_matches_edges(tree):
    """One query decomposes into exactly one view per edge (paper §2)."""
    q = Query.make("q", [], v=SumProduct.of(units="units"))
    plan = plan_batch(tree, [q], roots={"q": "sales"})
    inner = [vk for vk in plan.views if vk.parent is not None]
    assert len(inner) == len(tree.edges)


def test_two_roots_reuse_shared_direction_views(tree):
    """Views pointing toward both roots' common paths are not duplicated."""
    qa = Query.make("qa", [], v=SumProduct.of(units="units"))
    qb = Query.make("qb", ["family"], v=SumProduct.of(units="units"))
    plan = plan_batch(tree, [qa, qb], roots={"qa": "sales", "qb": "items"})
    inner = [vk for vk in plan.views if vk.parent is not None]
    # edges toward sales: 5 (shared), plus sales->items for qb = 6
    assert len(inner) == 6


@pytest.mark.parametrize(
    "tree_fn, corpus",
    [(favorita_tree, FAVORITA_CORPUS), (retailer_tree, RETAILER_CORPUS), (tpch_tree, TPCH_CORPUS)],
    ids=["favorita", "retailer", "tpch"],
)
def test_plan_is_self_contained(tree_fn, corpus):
    """The executor reads only the plan: every input a view names is a
    view of the plan, holds every column the view's SQL reads from it, and
    is computed by an earlier pass."""
    plan = plan_batch(tree_fn(), corpus)
    passes = plan.passes()
    pass_of = {vd.key: i for i, (_, _, vds) in enumerate(passes) for vd in vds}
    # every view is computed by exactly one pass
    assert sum(len(vds) for _, _, vds in passes) == len(pass_of) == len(plan.views)
    seen: dict[tuple[str, str | None], set] = {}
    for i, (node, inputs, vds) in enumerate(passes):
        assert {(vd.key.node, vd.key.parent) for vd in vds} == {(node, vds[0].key.parent)}
        assert all(vd.inputs == inputs for vd in vds)
        group = seen.setdefault((node, vds[0].key.parent), set())
        assert inputs not in group
        group.add(inputs)
        for vk in inputs:
            assert vk in plan.views
            assert pass_of[vk] < i
        for vd in vds:
            for sql in vd.cols.values():
                refs = _input_cols(sql)
                assert len(refs) == len(inputs)
                for vk, c in zip(inputs, refs):
                    assert c in plan.views[vk].cols
