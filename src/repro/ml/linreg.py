"""Ridge linear regression over LMFAO aggregates (paper §3).

The data-intensive part of batch gradient descent is the non-centered
covariance matrix Σ = Σ_{x∈D} x xᵀ. Each (j,k) entry is one aggregate
query over the join D (paper §3):

* continuous × continuous  -> ``SELECT SUM(Xj*Xk) FROM D``
* categorical × continuous -> ``SELECT Xj, SUM(Xk) FROM D GROUP BY Xj``
* categorical × categorical-> ``SELECT Xj, Xk, SUM(1) FROM D GROUP BY Xj, Xk``

Categorical attributes are one-hot encoded; their group-by results fill
whole blocks of Σ (a single group-by on Xj covers both the Xj×intercept
column and the Xj×Xj diagonal block). Σ is computed **once** by the
engine and reused for every BGD iteration.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.aggregates import Query, SumProduct


@dataclass(frozen=True)
class Feature:
    """A model feature: attribute name + whether it is categorical
    (categorical features become group-by attributes, i.e. one-hot)."""

    attr: str
    categorical: bool = False


def sigma_batch(features: list[Feature], label: str) -> list[Query]:
    """The batch of aggregate queries defining Σ (and the row count).

    ``label`` must be one of the continuous features (the paper folds
    the label into the feature vector with parameter fixed to -1).
    """
    cont = [f.attr for f in features if not f.categorical]
    cats = [f.attr for f in features if f.categorical]
    if label not in cont:
        raise ValueError(f"label {label!r} must be a continuous feature")
    qs: list[Query] = [Query.make("sigma_count", [], v=SumProduct.count())]
    # intercept x continuous, and continuous x continuous (j <= k)
    for j, a in enumerate(cont):
        qs.append(Query.make(f"sigma_1_{a}", [], v=SumProduct.of(**{a: a})))
        for b in cont[j:]:
            sp = (
                SumProduct.of(**{a: f"({a} * {a})"})
                if a == b
                else SumProduct.of(**{a: a, b: b})
            )
            qs.append(Query.make(f"sigma_{a}_{b}", [], v=sp))
    # categorical x (intercept + itself): one group-by count per cat
    for c in cats:
        qs.append(Query.make(f"sigma_cat_{c}", [c], v=SumProduct.count()))
        for a in cont:
            qs.append(Query.make(f"sigma_{c}_{a}", [c], v=SumProduct.of(**{a: a})))
    for i, c in enumerate(cats):
        for d in cats[i + 1 :]:
            qs.append(Query.make(f"sigma_{c}_{d}", [c, d], v=SumProduct.count()))
    return qs


def favorita_features() -> list[Feature]:
    """Full-width Favorita feature set (label: units) — every non-key
    attribute plus the key attributes as categoricals, the regime the
    paper's batch sizes are quoted in (T1)."""
    cont = ["units", "txns", "oilprize", "promo", "perishable", "transferred"]
    cats = ["store", "item", "family", "iclass", "city", "state", "stype",
            "cluster", "htype", "locale"]
    return [Feature(a) for a in cont] + [Feature(a, categorical=True) for a in cats]


def retailer_features() -> list[Feature]:
    """Full-width Retailer feature set (label: inventoryunits)."""
    cont = ["inventoryunits", "prize", "population", "white", "asian",
            "pacific", "black", "medianage", "maxtemp", "mintemp", "meanwind"]
    cats = ["locn", "dateid", "ksn", "zip", "rgn_cd", "clim_zn_nbr",
            "subcategory", "category", "categorycluster", "rain", "snow", "thunder"]
    return [Feature(a) for a in cont] + [Feature(a, categorical=True) for a in cats]


@dataclass
class SigmaMatrix:
    """Dense one-hot Σ plus the index map (feature, category) -> column."""

    sigma: np.ndarray
    count: float
    index: dict[tuple[str, object], int]
    names: list[str] = field(default_factory=list)

    def slot(self, attr: str, category: object = None) -> int:
        return self.index[(attr, category)]


def assemble_sigma(
    results: dict[str, pd.DataFrame], features: list[Feature]
) -> SigmaMatrix:
    """Assemble the dense Σ from the collected batch results.

    ``results`` maps query name -> pandas frame (the engine output,
    collected). Categorical domains are discovered from the per-feature
    group-by counts; absent category pairs are structural zeros.
    """
    cont = [f.attr for f in features if not f.categorical]
    cats = [f.attr for f in features if f.categorical]
    index: dict[tuple[str, object], int] = {("__intercept__", None): 0}
    names = ["intercept"]
    for a in cont:
        index[(a, None)] = len(names)
        names.append(a)
    domains: dict[str, list] = {}
    for c in cats:
        dom = sorted(results[f"sigma_cat_{c}"][c].tolist())
        domains[c] = dom
        for v in dom:
            index[(c, v)] = len(names)
            names.append(f"{c}={v}")
    n = len(names)
    s = np.zeros((n, n))

    def put(i: int, j: int, v: float) -> None:
        s[i, j] = v
        s[j, i] = v

    cnt = float(results["sigma_count"]["v"].iloc[0])
    put(0, 0, cnt)
    for j, a in enumerate(cont):
        put(0, index[(a, None)], float(results[f"sigma_1_{a}"]["v"].iloc[0]))
        for b in cont[j:]:
            put(
                index[(a, None)],
                index[(b, None)],
                float(results[f"sigma_{a}_{b}"]["v"].iloc[0]),
            )
    for c in cats:
        for _, row in results[f"sigma_cat_{c}"].iterrows():
            i = index[(c, row[c])]
            put(0, i, float(row["v"]))
            put(i, i, float(row["v"]))
        for a in cont:
            for _, row in results[f"sigma_{c}_{a}"].iterrows():
                put(index[(c, row[c])], index[(a, None)], float(row["v"]))
    for i, c in enumerate(cats):
        for d in cats[i + 1 :]:
            for _, row in results[f"sigma_{c}_{d}"].iterrows():
                put(index[(c, row[c])], index[(d, row[d])], float(row["v"]))
    return SigmaMatrix(s, cnt, index, names)


@dataclass(frozen=True)
class SigmaSplit:
    """Σ split at the label: the blocks the ridge objective reads.

    ``reg`` is 1 for every parameter the ridge term penalizes and 0 for
    the intercept.
    """

    sxx: np.ndarray
    sxy: np.ndarray
    syy: float
    n: float
    reg: np.ndarray

    @staticmethod
    def of(sm: SigmaMatrix, label: str) -> "SigmaSplit":
        y = sm.slot(label)
        keep = [i for i in range(sm.sigma.shape[0]) if i != y]
        reg = np.ones(len(keep))
        reg[0] = 0.0  # intercept
        return SigmaSplit(
            sm.sigma[np.ix_(keep, keep)], sm.sigma[keep, y], sm.sigma[y, y], max(sm.count, 1.0), reg
        )

    def objective(self, theta: np.ndarray, lam: float) -> float:
        """J(θ) = (1/2N)(θᵀ Σxx θ - 2 θᵀ Σxy + yᵀy) + (λ/2)‖θ‖² (intercept
        not regularized)."""
        t = theta
        quad = t @ self.sxx @ t - 2 * t @ self.sxy + self.syy
        return float(quad / (2 * self.n) + lam / 2 * np.sum(self.reg * t * t))


def ridge_objective(sm: SigmaMatrix, label: str, theta: np.ndarray, lam: float = 1e-3) -> float:
    """The ridge least-squares objective that :func:`bgd` minimizes and
    :func:`closed_form` solves, evaluated at ``theta``."""
    return SigmaSplit.of(sm, label).objective(theta, lam)


def bgd(
    sm: SigmaMatrix,
    label: str,
    *,
    lam: float = 1e-3,
    epochs: int = 200,
    lr: float = 1.0,
) -> tuple[np.ndarray, list[float]]:
    """Batch gradient descent on the ridge least-squares objective
    (:func:`ridge_objective`).

    Works entirely on Σ (no data pass per iteration, the paper's point),
    with a diagonal preconditioner (equivalent to feature rescaling —
    raw feature scales like txns~4000 vs promo~1 make the plain Hessian
    badly conditioned) and backtracking step-size halving. Returns (θ,
    per-epoch losses).
    """
    sp = SigmaSplit.of(sm, label)
    precond = 1.0 / np.maximum(np.diag(sp.sxx) / sp.n + lam * sp.reg, 1e-12)

    theta = np.zeros(len(sp.sxy))
    losses = [sp.objective(theta, lam)]
    step = lr
    for _ in range(epochs):
        grad = (sp.sxx @ theta - sp.sxy) / sp.n + lam * sp.reg * theta
        direction = precond * grad
        while step > 1e-14:
            cand = theta - step * direction
            l_cand = sp.objective(cand, lam)
            if l_cand <= losses[-1]:
                theta, cur = cand, l_cand
                step *= 1.2
                break
            step /= 2
        else:
            cur = losses[-1]
        losses.append(cur)
    return theta, losses


def closed_form(sm: SigmaMatrix, label: str, lam: float = 1e-3) -> np.ndarray:
    """Ridge normal-equations solution (test comparator for BGD)."""
    sp = SigmaSplit.of(sm, label)
    return np.linalg.solve(sp.sxx / sp.n + lam * np.diag(sp.reg), sp.sxy / sp.n)


def train_linreg(engine, features: list[Feature], label: str, **bgd_kw):
    """End to end: engine batch -> Σ -> BGD. Returns (θ, losses, Σ)."""
    batch = sigma_batch(features, label)
    results = {name: df.toPandas() for name, df in engine.run(batch).items()}
    sm = assemble_sigma(results, features)
    theta, losses = bgd(sm, label, **bgd_kw)
    return theta, losses, sm
