"""A database = join tree + Spark DataFrames (+ pushed-down selections).

The engine, the baselines, and the oracle compiler all consume this one
object, so a filtered database (CART path conditions) is evaluated
consistently everywhere: filters are attached to the *anchor* relation of
the filtered attribute and applied lazily by :meth:`Database.df`.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.schema import JoinTree


class Database:
    """Join tree plus one Spark DataFrame per relation.

    Parameters
    ----------
    tree: the join tree; relation names must match ``frames`` keys.
    frames: relation name -> Spark DataFrame whose columns are exactly
        the relation's attributes.
    filters: optional list of (attr, sql_predicate) selections; each is
        pushed to the attribute's anchor relation. The predicate is a SQL
        boolean expression over the bare attribute name, valid in both
        Spark SQL and DuckDB (e.g. ``"txns <= 100"``).
    """

    def __init__(
        self,
        tree: JoinTree,
        frames: dict[str, DataFrame],
        filters: tuple[tuple[str, str], ...] = (),
    ):
        if set(frames) != set(tree.relations):
            raise ValueError(
                f"frames {sorted(frames)} do not match tree relations "
                f"{sorted(tree.relations)}"
            )
        for name, rel in tree.relations.items():
            cols = set(frames[name].columns)
            if cols != set(rel.attrs):
                raise ValueError(
                    f"relation {name}: DataFrame columns {sorted(cols)} != "
                    f"declared attrs {sorted(rel.attrs)}"
                )
        self.tree = tree
        self.frames = dict(frames)
        self.filters = tuple(filters)
        for attr, _ in self.filters:
            tree.anchor(attr)  # raises on unknown attribute
        self._pandas_cache: dict[str, pd.DataFrame] | None = None

    # ------------------------------------------------------------------
    def with_filters(self, filters: list[tuple[str, str]]) -> "Database":
        """A new database with additional pushed-down selections."""
        return Database(self.tree, self.frames, self.filters + tuple(filters))

    def filters_on(self, relation: str) -> list[str]:
        """SQL predicates pushed to ``relation`` (anchor of their attr)."""
        return [p for a, p in self.filters if self.tree.anchor(a) == relation]

    def df(self, relation: str) -> DataFrame:
        """The relation's DataFrame with its pushed filters applied."""
        df = self.frames[relation]
        for pred in self.filters_on(relation):
            df = df.filter(pred)
        return df

    # ------------------------------------------------------------------
    def join_chain(self) -> list[tuple[str, tuple[str, ...]]]:
        """BFS over the tree from the first-declared relation, as
        ``(relation, sorted join attrs with its BFS parent)``.

        The first relation has no parent (empty attrs). Every later one
        joins an earlier neighbor on the listed attrs, so folding the chain
        left-deep realizes the full natural join.
        """
        root = self.tree.nodes[0]
        chain: list[tuple[str, tuple[str, ...]]] = [(root, ())]
        seen = {root}
        for node, _ in chain:  # also visits the entries appended below
            for m in sorted(self.tree.neighbors(node) - seen):
                seen.add(m)
                chain.append((m, tuple(sorted(self.tree.join_attrs(node, m)))))
        return chain

    def joined(self) -> DataFrame:
        """Materialize D = the natural join of all (filtered) relations.

        Used by the baselines and by end-to-end ML cross-checks — the
        engine itself never materializes D.
        """
        (first, _), *rest = self.join_chain()
        out = self.df(first)
        for name, on in rest:
            out = out.join(self.df(name), on=list(on), how="inner")
        return out

    # ------------------------------------------------------------------
    def oracle_tables(self) -> dict[str, pd.DataFrame]:
        """Unfiltered base relations as pandas, for the DuckDB oracle.

        Filters are *not* applied here — the oracle SQL produced by
        ``core.sql_compile`` re-states them in its WHERE clause, so the
        oracle independently re-derives the filtered result.
        """
        if self._pandas_cache is None:
            self._pandas_cache = {n: df.toPandas() for n, df in self.frames.items()}
        return self._pandas_cache
