"""Standard (moderate) feature sets shared by the T2/T3 jobs and the
benchmark workloads.

Moderate so the quadratic sigma batch stays in the tens of queries and
the naive strategy remains tractable at SF=0.1; the full-width sets used
for T1's batch-size counts live in ``repro.ml.linreg``.
"""
from repro.ml.linreg import Feature


def favorita_std() -> list[Feature]:
    return [
        Feature("units"), Feature("promo"), Feature("txns"), Feature("oilprize"),
        Feature("stype", categorical=True), Feature("family", categorical=True),
        Feature("cluster", categorical=True),
    ]


def retailer_std() -> list[Feature]:
    return [
        Feature("inventoryunits"), Feature("prize"), Feature("population"),
        Feature("medianage"), Feature("maxtemp"),
        Feature("category", categorical=True),
        Feature("categorycluster", categorical=True),
        Feature("rain", categorical=True),
    ]
