"""Manual smoke test for the three applications on tiny Favorita.

Run from the repository root: ``PYTHONPATH=src python scripts/smoke_ml.py``
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "jobs"))

import numpy as np
from _common import get_spark  # noqa: E402

from repro.core.executor import Engine
from repro.datasets import favorita_db
from repro.ml.decision_tree import build_tree, predict
from repro.ml.linreg import Feature, closed_form, ridge_objective, sigma_batch, train_linreg
from repro.ml.rkmeans import lloyd_on_full_data, relative_approximation, rkmeans

spark = get_spark("smoke-ml")
spark.sparkContext.setLogLevel("ERROR")
db = favorita_db(spark, sf=0.002)

features = [
    Feature("units"),
    Feature("promo"),
    Feature("txns"),
    Feature("oilprize"),
    Feature("stype", categorical=True),
    Feature("family", categorical=True),
]
print("LR batch size:", len(sigma_batch(features, "units")))
theta, losses, sm = train_linreg(Engine(db), features, "units", epochs=300)
j_bgd = ridge_objective(sm, "units", theta)
j_cf = ridge_objective(sm, "units", closed_form(sm, "units"))
print("sigma dims:", sm.sigma.shape, "loss[0]->[-1]:", losses[0], "->", losses[-1])
print(f"J(bgd)={j_bgd:.6f} J(closed form)={j_cf:.6f}")
assert losses[-1] < losses[0]
assert j_bgd <= j_cf * 1.02 + 1e-9

# Decision tree
tree = build_tree(db, features[1:], "units", max_depth=2, min_leaf=10)
d = db.joined().toPandas()
pred = predict(tree, d)
mse_tree = float(np.mean((d["units"] - pred) ** 2))
mse_mean = float(np.mean((d["units"] - d["units"].mean()) ** 2))
print(f"DT mse {mse_tree:.3f} vs mean-baseline {mse_mean:.3f}; root split: {tree.split}")
assert mse_tree < mse_mean

# Rk-means
attrs = ["units", "txns", "oilprize"]
rk = rkmeans(db, attrs, k=4, seed=1)
lloyds = lloyd_on_full_data(d, attrs, 4, seeds=list(range(5)))
rel = relative_approximation(d, attrs, rk, lloyds)
print(f"rkmeans grid={rk.grid_size} |D|={rk.d_size} rel_size={rk.rel_coreset_size:.5f} rel_approx={rel:.4f}")
print("timings:", {k_: round(v, 2) for k_, v in rk.timings.items()})
assert rk.grid_size < rk.d_size
assert rel < 0.5
print("ML smoke OK")
spark.stop()
