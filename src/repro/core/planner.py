"""View generation and merging (the Aggregate Pushdown + Merge layers).

Each query Q, assigned a root r, is decomposed top-down into one view per
join-tree edge directed toward r (paper §2). The view at edge ``c -> p``:

* groups by ``ga = join_attrs(c, p) ∪ (Q.group_by ∩ attrs(subtree(c)))``
  (join keys for the parent's lookup, plus any group-by attributes that
  live below and must be carried up), and
* carries the partial sum-product of Q restricted to the factors
  *anchored* in ``subtree(c)``.

Views are merged when they share direction and group-by attributes
(``ViewKey = (node, parent, ga)``), and within a merged view identical
partial aggregates are deduplicated by their canonical signature — so an
aggregate shared by many queries is computed exactly once. Because the
join tree satisfies the running-intersection property, a child's group
attrs are a function of the parent's:
``ga_child = join_attrs(ch, c) ∪ (ga ∩ attrs(subtree(ch)))`` — this is
what makes merging recursive and exact (DESIGN.md §1).

A query's output is just the view at the "edge" ``(root, None)`` with
``ga = Q.group_by``; several queries with the same root and group-by
share one output view.

The plan is the executor's only input. Each merged view records its
incoming views (one per child) and, per column, the finished ``SUM`` SQL:
the factors anchored at the view's node times one column of each incoming
view. :meth:`Plan.passes` lists the joins of a node relation with its
incoming views; the executor runs one shared aggregation per pass
(``core/executor.py``) and derives nothing itself.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.aggregates import Query, SumProduct, short_hash
from repro.core.root_assignment import assign_roots
from repro.core.schema import JoinTree


@dataclass(frozen=True)
class ViewKey:
    """Identity of a merged view: source node, direction, group attrs.

    ``parent=None`` marks a query-output view at root ``node``.
    """

    node: str
    parent: str | None
    ga: frozenset[str]


@dataclass
class ViewDef:
    """A merged view: its key, its incoming views (one per child of
    ``key.node``, in sorted child order) and its deduplicated aggregate
    columns (generated column name -> ``SUM`` SQL over ``key.node``'s
    relation joined with ``inputs``)."""

    key: ViewKey
    inputs: tuple[ViewKey, ...]
    cols: dict[str, str] = field(default_factory=dict)


# One join of a node relation with its incoming views, and the views
# aggregated from it: (node, inputs, views).
Pass = tuple[str, tuple[ViewKey, ...], list[ViewDef]]


@dataclass(frozen=True)
class QueryOutput:
    """Where a query reads its result: the output view, the user-facing
    group-by order, and (alias -> generated column) pairs."""

    view: ViewKey
    group_by: tuple[str, ...]
    cols: tuple[tuple[str, str], ...]  # (alias, generated column name)


# A single-quoted SQL string literal (matched, so that the words inside it
# are skipped) or an identifier (group 1).
_SQL_TOKEN = re.compile(r"'(?:[^']|'')*'|([A-Za-z_][A-Za-z0-9_]*)")


def _foreign_attrs(tree: JoinTree, attr: str, sql: str) -> list[str]:
    """Attributes of ``tree`` other than ``attr`` that the factor SQL
    ``sql`` on ``attr`` mentions, outside string literals, sorted."""
    words = {m.group(1) for m in _SQL_TOKEN.finditer(sql)}
    return sorted((words & tree.all_attrs) - {attr})


def col_name(vk: ViewKey, sp: SumProduct) -> str:
    """Column name of a partial aggregate in a view.

    Equal partial aggregates of one view get the same name, which is all
    the hash is for: it merges them into one column. A parent view
    references the name through the ``SUM`` SQL the planner records; the
    executor never recomputes it.
    """
    return "a_" + short_hash(
        vk.node, vk.parent or "\x00", ",".join(sorted(vk.ga)), sp.signature
    )


def child_ga(tree: JoinTree, node: str, ga: frozenset[str], ch: str) -> frozenset[str]:
    """Group attrs of the incoming view from child ``ch`` of ``node``."""
    return tree.join_attrs(ch, node) | (ga & tree.subtree_attrs(ch, node))


@dataclass
class Plan:
    """The batch plan: merged views, query outputs, and the root map."""

    tree: JoinTree
    views: dict[ViewKey, ViewDef]
    outputs: dict[str, QueryOutput]
    roots: dict[str, str]

    def passes(self) -> list[Pass]:
        """The joins of a node relation with its incoming views, in
        dependency order, with the views each one computes.

        The views of one view group ``(node, direction)`` share a pass
        when they have the same inputs. Lookup inputs, keyed by the edge's
        join attributes, never fan out; inputs that carry extra group-by
        attributes do, so a view joins only the carrying views it reads.
        A view at ``(c, p)`` depends only on views at ``(ch, c)``, whose
        subtree is strictly smaller, so ascending subtree size is a
        topological order; output views (whole tree) come last.
        """
        groups: dict[tuple[str, str | None, tuple[ViewKey, ...]], list[ViewDef]] = {}
        for vd in sorted(self.views.values(), key=lambda v: sorted(v.key.ga)):
            groups.setdefault((vd.key.node, vd.key.parent, vd.inputs), []).append(vd)

        def order(item):
            (node, parent, _), vds = item
            size = len(self.tree.subtree_nodes(node, parent))
            return (size, 0 if parent else 1, node, parent or "", [sorted(v.key.ga) for v in vds])

        return [(node, inputs, vds) for (node, _, inputs), vds in sorted(groups.items(), key=order)]

    def levels(self) -> int:
        """Length of the longest chain of passes each of which reads a
        view of the one before. Independent passes run at the same time,
        so passes / levels bounds the task parallelism of the batch."""
        level: dict[ViewKey, int] = {}
        for _, inputs, vds in self.passes():  # dependency order
            n = 1 + max((level[vk] for vk in inputs), default=0)
            level.update((vd.key, n) for vd in vds)
        return max(level.values(), default=0)

    def rollups(self) -> int:
        """Views grouped by less than the union of their pass's group
        attrs: the executor derives them on the driver from the pass's
        partial aggregate, without a Spark query of their own."""
        n = 0
        for _, _, vds in self.passes():
            universe = frozenset().union(*(vd.key.ga for vd in vds))
            n += sum(vd.key.ga != universe for vd in vds)
        return n

    def view_joins(self) -> int:
        """Incoming views summed over the passes: the joins of a view into
        its pass's relation."""
        return sum(len(inputs) for _, inputs, _ in self.passes())

    def stats(self) -> dict[str, int]:
        """Plan-shape statistics reported in Table T1."""
        inner = [vd for vd in self.views.values() if vd.key.parent is not None]
        out = [vd for vd in self.views.values() if vd.key.parent is None]
        return {
            "queries": len(self.outputs),
            "aggregates": sum(len(o.cols) for o in self.outputs.values()),
            "merged_views": len(inner),
            "output_views": len(out),
            "view_columns": sum(len(vd.cols) for vd in self.views.values()),
            "view_groups": len({(vk.node, vk.parent) for vk in self.views}),
            "roots": len(set(self.roots.values())),
        }


def plan_batch(
    tree: JoinTree,
    queries: list[Query],
    roots: dict[str, str] | None = None,
) -> Plan:
    """Decompose and merge a batch of queries into a view plan.

    Raises ``ValueError`` for duplicate query names, unknown attributes
    and factors that mention a tree attribute other than their own, so
    bad input fails here rather than inside a Spark job."""
    names = [q.name for q in queries]
    if len(set(names)) != len(names):
        raise ValueError("duplicate query names in batch")
    roots = dict(roots) if roots is not None else assign_roots(tree, queries)
    views: dict[ViewKey, ViewDef] = {}

    def require(node: str, parent: str | None, ga: frozenset[str], sp: SumProduct) -> str:
        """Column of ``sp`` restricted to the subtree in view ``(node,
        parent, ga)``; adds the view, the column and their inputs."""
        sp_sub = sp.restrict(tree.anchored_attrs(node, parent))
        vk = ViewKey(node, parent, ga)
        col = col_name(vk, sp_sub)
        vd = views.get(vk)
        if vd is None:
            children = sorted(tree.neighbors(node) - {parent})
            inputs = tuple(ViewKey(ch, node, child_ga(tree, node, ga, ch)) for ch in children)
            vd = views[vk] = ViewDef(vk, inputs)
        if col not in vd.cols:
            local = frozenset(a for a in sp_sub.attrs if tree.anchor(a) == node)
            kid_cols = [require(ch.node, node, ch.ga, sp_sub) for ch in vd.inputs]
            vd.cols[col] = sp_sub.restrict(local).sum_sql(kid_cols)
        return col

    outputs: dict[str, QueryOutput] = {}
    for q in queries:
        unknown = q.attrs - tree.all_attrs
        if unknown:
            raise ValueError(f"query {q.name} uses unknown attributes {sorted(unknown)}")
        for _, sp in q.aggs:
            for attr, sql in sp.factors:
                foreign = _foreign_attrs(tree, attr, sql)
                if foreign:
                    raise ValueError(
                        f"query {q.name}: the factor on {attr} ({sql!r}) mentions "
                        f"{', '.join(foreign)}; a factor may mention only its own attribute"
                    )
        r = roots[q.name]
        ga = frozenset(q.group_by)
        cols = tuple((alias, require(r, None, ga, sp)) for alias, sp in q.aggs)
        outputs[q.name] = QueryOutput(ViewKey(r, None, ga), q.group_by, cols)

    return Plan(tree, views, outputs, roots)
