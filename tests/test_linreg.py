"""Linear regression: Σ batch vs oracle, assembly vs NumPy-on-D, BGD."""
import numpy as np
import pandas as pd
import pytest

from repro.core.executor import Engine
from repro.core.sql_compile import query_to_sql
from repro.ml.linreg import (
    Feature,
    assemble_sigma,
    bgd,
    closed_form,
    ridge_objective,
    sigma_batch,
    train_linreg,
)
from repro.oracle import assert_equivalent

FEATURES = [
    Feature("units"),
    Feature("promo"),
    Feature("txns"),
    Feature("oilprize"),
    Feature("stype", categorical=True),
    Feature("family", categorical=True),
]
LABEL = "units"


def test_batch_size_formula():
    """#queries = 1 (count) + c + C(c+1,2) (cont pairs) + k(1+c) + C(k,2)."""
    c = sum(1 for f in FEATURES if not f.categorical)
    k = sum(1 for f in FEATURES if f.categorical)
    expected = 1 + c + c * (c + 1) // 2 + k * (1 + c) + k * (k - 1) // 2
    assert len(sigma_batch(FEATURES, LABEL)) == expected


def test_label_must_be_continuous():
    with pytest.raises(ValueError, match="continuous"):
        sigma_batch([Feature("stype", categorical=True), Feature("txns")], "stype")


@pytest.fixture(scope="module")
def sigma_results(fav_db):
    eng = Engine(fav_db)
    return eng.run(sigma_batch(FEATURES, LABEL))


@pytest.fixture(scope="module")
def sigma_pandas(sigma_results):
    return {name: df.toPandas() for name, df in sigma_results.items()}


@pytest.mark.parametrize(
    "qname",
    [
        "sigma_count",
        "sigma_1_units",
        "sigma_units_units",
        "sigma_units_txns",
        "sigma_promo_oilprize",
        "sigma_cat_stype",
        "sigma_cat_family",
        "sigma_stype_units",
        "sigma_family_txns",
        "sigma_stype_family",
    ],
)
def test_sigma_entry_matches_oracle(fav_db, sigma_results, qname):
    batch = {q.name: q for q in sigma_batch(FEATURES, LABEL)}
    sql = query_to_sql(fav_db, batch[qname])
    assert_equivalent(sigma_results[qname], sql, rtol=1e-9, **fav_db.oracle_tables())


@pytest.fixture(scope="module")
def sm(sigma_pandas):
    return assemble_sigma(sigma_pandas, FEATURES)


def test_sigma_symmetric_psd(sm):
    assert np.allclose(sm.sigma, sm.sigma.T)
    evals = np.linalg.eigvalsh(sm.sigma)
    assert evals.min() > -1e-6 * max(1.0, evals.max())  # PSD up to fp noise


def test_sigma_matches_numpy_one_hot(sm, fav_d):
    """Σ assembled from engine aggregates == xxᵀ summed over materialized D
    with explicit one-hot encoding (the definition)."""
    cont = [f.attr for f in FEATURES if not f.categorical]
    cats = [f.attr for f in FEATURES if f.categorical]
    cols = [np.ones(len(fav_d))] + [fav_d[a].to_numpy(float) for a in cont]
    names = ["intercept"] + cont
    for c in cats:
        for v in sorted(fav_d[c].unique()):
            cols.append((fav_d[c] == v).to_numpy(float))
            names.append(f"{c}={v}")
    x = np.column_stack(cols)
    direct = x.T @ x
    assert names == sm.names
    assert np.allclose(sm.sigma, direct, rtol=1e-8)


def test_count_matches_d(sm, fav_d):
    assert sm.count == len(fav_d)


def test_bgd_decreases_loss(sm):
    theta, losses = bgd(sm, LABEL, epochs=50)
    assert losses[-1] <= losses[0]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_bgd_approaches_closed_form(sm):
    theta, losses = bgd(sm, LABEL, epochs=400)
    cf = closed_form(sm, LABEL)
    y = sm.slot(LABEL)
    keep = [i for i in range(sm.sigma.shape[0]) if i != y]
    sxx, sxy = sm.sigma[np.ix_(keep, keep)], sm.sigma[keep, y]
    n = sm.count
    r = np.ones(len(keep))
    r[0] = 0

    def j(t):
        return (t @ sxx @ t - 2 * t @ sxy + sm.sigma[y, y]) / (2 * n) + 1e-3 / 2 * (r * t * t).sum()

    assert j(theta) <= j(cf) * 1.02 + 1e-9
    # the library's objective is the one checked here
    for t in (theta, cf):
        assert ridge_objective(sm, LABEL, t) == pytest.approx(j(t), rel=1e-12)


def test_closed_form_beats_mean_predictor(sm, fav_d):
    """R² sanity: the model explains some variance of the synthetic signal."""
    cf = closed_form(sm, LABEL)
    cont = [f.attr for f in FEATURES if not f.categorical and f.attr != LABEL]
    cats = [f.attr for f in FEATURES if f.categorical]
    cols = [np.ones(len(fav_d))] + [fav_d[a].to_numpy(float) for a in cont]
    for c in cats:
        for v in sorted(fav_d[c].unique()):
            cols.append((fav_d[c] == v).to_numpy(float))
    x = np.column_stack(cols)
    y = fav_d[LABEL].to_numpy(float)
    # cf is ordered [intercept, cont..., cats...] with label removed
    pred = x @ cf
    sse = ((y - pred) ** 2).sum()
    sse_mean = ((y - y.mean()) ** 2).sum()
    assert sse < sse_mean


def test_train_linreg_end_to_end(fav_db):
    theta, losses, sm2 = train_linreg(Engine(fav_db), FEATURES, LABEL, epochs=60)
    assert np.isfinite(theta).all() and losses[-1] <= losses[0]


def test_assemble_handles_missing_cat_pairs():
    """Absent (c,d) combinations must be structural zeros."""
    results = {
        "sigma_count": pd.DataFrame({"v": [4.0]}),
        "sigma_1_y": pd.DataFrame({"v": [6.0]}),
        "sigma_y_y": pd.DataFrame({"v": [14.0]}),
        "sigma_cat_a": pd.DataFrame({"a": ["p", "q"], "v": [3.0, 1.0]}),
        "sigma_a_y": pd.DataFrame({"a": ["p", "q"], "v": [5.0, 1.0]}),
        "sigma_cat_b": pd.DataFrame({"b": ["u", "w"], "v": [2.0, 2.0]}),
        "sigma_b_y": pd.DataFrame({"b": ["u", "w"], "v": [2.0, 4.0]}),
        "sigma_a_b": pd.DataFrame({"a": ["p", "q"], "b": ["u", "w"], "v": [2.0, 1.0]}),
    }
    feats = [Feature("y"), Feature("a", categorical=True), Feature("b", categorical=True)]
    sm_ = assemble_sigma(results, feats)
    # (a=p, b=w) never co-occurs -> 0
    assert sm_.sigma[sm_.slot("a", "p"), sm_.slot("b", "w")] == 0.0
    assert sm_.sigma[sm_.slot("a", "p"), sm_.slot("b", "u")] == 2.0
    assert sm_.sigma[sm_.slot("a", "p"), sm_.slot("a", "p")] == 3.0


def test_retailer_lr_paper_scale():
    """The full-width Retailer feature set yields a batch in the several-
    hundreds, the paper's 814-aggregate regime (T1 shape check)."""
    from repro.ml.linreg import retailer_features

    batch = sigma_batch(retailer_features(), "inventoryunits")
    assert 100 <= len(batch) <= 1500
