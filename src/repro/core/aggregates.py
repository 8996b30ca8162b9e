"""Sum-product aggregates and query batches.

LMFAO's aggregates are sums over the join result D of *products of unary
functions*: ``SUM(f1(A1) * f2(A2) * ...)``. This factorized form is what
lets a query be decomposed into partial aggregates along join-tree edges
(each edge's view pre-sums the factors of its subtree).

A :class:`SumProduct` holds at most one factor per attribute, each a SQL
expression over exactly that attribute (valid in both Spark SQL and
DuckDB, since results are oracle-checked). ``SUM(1)`` is the empty
product. A :class:`Query` is a group-by clause plus named sum-products.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


def _canon_factors(factors: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(factors.items()))


@dataclass(frozen=True)
class SumProduct:
    """``SUM`` over D of the product of per-attribute SQL expressions.

    ``factors`` maps attribute name -> SQL expression mentioning only that
    attribute (e.g. ``{"units": "units"}`` or
    ``{"item": "(item * 0.5 + 1.0)"}``). The empty product is ``SUM(1)``.
    """

    factors: tuple[tuple[str, str], ...] = field(default=())

    @staticmethod
    def of(**attr_exprs: str) -> "SumProduct":
        """Build from keyword args: ``SumProduct.of(units="units")``."""
        return SumProduct(_canon_factors(attr_exprs))

    @staticmethod
    def count() -> "SumProduct":
        """The ``SUM(1)`` aggregate (join-result cardinality)."""
        return SumProduct(())

    @property
    def attrs(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.factors)

    def expr_for(self, attr: str) -> str:
        for a, e in self.factors:
            if a == attr:
                return e
        raise KeyError(attr)

    def restrict(self, attrs: frozenset[str]) -> "SumProduct":
        """Partial sum-product keeping only factors on ``attrs``.

        Used by the planner with ``attrs`` = the attributes *anchored* in
        a subtree, so each factor is applied exactly once along the tree.
        """
        return SumProduct(tuple((a, e) for a, e in self.factors if a in attrs))

    @property
    def signature(self) -> str:
        """Canonical identity; equal partial aggregates share one column."""
        return repr(self.factors)

    def sum_sql(self, extra_terms: list[str] | None = None) -> str:
        """The SQL aggregate ``SUM(CAST(<product> AS DOUBLE))``: the factors
        times ``extra_terms`` (incoming-view column references), or ``1.0``
        for the empty product. The engine, the baselines and the oracle
        compiler all emit their aggregates through this one method."""
        terms = [f"({e})" for _, e in self.factors] + list(extra_terms or [])
        prod = " * ".join(terms) if terms else "CAST(1.0 AS DOUBLE)"
        return f"SUM(CAST({prod} AS DOUBLE))"


@dataclass(frozen=True)
class Query:
    """One group-by aggregate query over the full join D.

    ``aggs`` maps output alias -> :class:`SumProduct`; the result schema
    is ``group_by + aliases``.
    """

    name: str
    group_by: tuple[str, ...]
    aggs: tuple[tuple[str, SumProduct], ...]

    @staticmethod
    def make(name: str, group_by: tuple[str, ...] | list[str], **aggs: SumProduct) -> "Query":
        return Query(name, tuple(group_by), tuple(aggs.items()))

    def __post_init__(self) -> None:
        if len(set(self.group_by)) != len(self.group_by):
            raise ValueError(f"duplicate group-by attribute in query {self.name}")
        if not self.aggs:
            raise ValueError(f"query {self.name} has no aggregates")
        aliases = [a for a, _ in self.aggs]
        if len(set(aliases)) != len(aliases):
            raise ValueError(f"duplicate aggregate alias in query {self.name}")

    @property
    def attrs(self) -> frozenset[str]:
        """All attributes the query mentions (group-bys and factors)."""
        s = set(self.group_by)
        for _, sp in self.aggs:
            s |= sp.attrs
        return frozenset(s)


def short_hash(*parts: str) -> str:
    """Stable 10-hex-char hash used for generated column names."""
    return hashlib.sha1("\x1f".join(parts).encode()).hexdigest()[:10]
