"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
table jobs use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def zipf_keys(spark: SparkSession, *, n: int, n_keys: int, alpha: float = 1.1, seed: int = 3) -> DataFrame:
    """Skewed key column — for join-skew / cardinality-estimation papers."""
    g = _rng(seed)
    ranks = np.arange(1, n_keys + 1)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    keys = g.choice(ranks, size=n, p=weights)
    return spark.createDataFrame(pd.DataFrame({"k": keys, "v": g.random(n)}))


def uniform_keys(spark: SparkSession, *, n: int, n_keys: int, seed: int = 4) -> DataFrame:
    g = _rng(seed)
    return spark.createDataFrame(
        pd.DataFrame({"k": g.integers(1, n_keys + 1, n), "v": g.random(n)})
    )


# ---------------------------------------------------------------------------
# LMFAO datasets (paper substitutes): Favorita and Retailer.
#
# The paper evaluates on the public Kaggle Favorita dataset (~120M tuples)
# and a proprietary Retailer dataset (~84M tuples). Neither is available
# offline, so we generate synthetic instances with the *same schemas and
# join trees* (DESIGN.md, substitutions table). Relative table sizes,
# key-domain ratios, and item skew follow the originals; SF=1.0 is ~6M
# fact tuples. Deterministic in ``seed``.
# ---------------------------------------------------------------------------

_FAMILIES = [
    "GROCERY", "BEVERAGES", "PRODUCE", "CLEANING", "DAIRY", "BREAD",
    "PERSONAL_CARE", "DELI", "HOME", "EGGS", "MEATS", "FROZEN",
]
_HTYPES = ["work", "holiday", "event", "additional", "bridge"]
_LOCALES = ["national", "regional", "local"]


def _favorita_dims(sf: float) -> tuple[int, int, int, int]:
    scale = min(1.0, sf * 10)
    n_dates = max(40, int(1684 * scale))
    n_stores = 54
    n_items = max(20, int(4000 * scale))
    n_sales = max(100, int(6_000_000 * sf))
    return n_dates, n_stores, n_items, n_sales


def favorita(
    spark: SparkSession, *, sf: float = 0.01, seed: int = 7, holiday_fanout: int = 1
) -> dict[str, DataFrame]:
    """Synthetic Favorita: sales, transactions, stores, oil, holidays, items.

    Join tree (paper Fig. 2): sales-transactions on (date, store),
    transactions-stores on (store), sales-{oil, holidays} on (date),
    sales-items on (item). Dates are integer day ids so join keys and
    group-bys behave identically in Spark, DuckDB, and pandas.

    ``holiday_fanout > 1`` emits that many holiday rows per date (the
    real Favorita holidays table has several rows per date — one per
    locale/event), which inflates |D| multiplicatively while every
    LMFAO view stays the same size: the regime where materializing the
    join is expensive (EXPERIMENTS.md T2b).
    """
    n_dates, n_stores, n_items, n_sales = _favorita_dims(sf)
    g = _rng(seed)

    # Item popularity is zipf-skewed like real retail sales.
    ranks = np.arange(1, n_items + 1)
    w = 1.0 / ranks**0.8
    w /= w.sum()
    item = g.choice(ranks, size=n_sales, p=w)
    store = g.integers(1, n_stores + 1, n_sales)
    date = g.integers(1, n_dates + 1, n_sales)
    promo = (g.random(n_sales) < 0.15).astype("int64")
    units = np.maximum(
        0.0, g.normal(8 + 4 * promo + (item % 7) + (store % 5), 3.0)
    ).round(1)
    sales = pd.DataFrame(
        {"date": date, "store": store, "item": item, "units": units, "promo": promo}
    )

    dd, ss = np.meshgrid(np.arange(1, n_dates + 1), np.arange(1, n_stores + 1))
    transactions = pd.DataFrame(
        {
            "date": dd.ravel().astype("int64"),
            "store": ss.ravel().astype("int64"),
            "txns": g.integers(200, 4000, dd.size),
        }
    )

    stores = pd.DataFrame(
        {
            "store": np.arange(1, n_stores + 1),
            "city": [f"city_{i % 22}" for i in range(1, n_stores + 1)],
            "state": [f"state_{i % 16}" for i in range(1, n_stores + 1)],
            "stype": g.choice(list("ABCDE"), n_stores),
            "cluster": g.integers(1, 18, n_stores),
        }
    )

    oil = pd.DataFrame(
        {
            "date": np.arange(1, n_dates + 1),
            "oilprize": (50 + np.cumsum(g.normal(0, 0.8, n_dates))).round(2),
        }
    )

    n_h = n_dates * max(1, holiday_fanout)
    holidays = pd.DataFrame(
        {
            "date": np.tile(np.arange(1, n_dates + 1), max(1, holiday_fanout)),
            "htype": g.choice(_HTYPES, n_h, p=[0.75, 0.1, 0.06, 0.05, 0.04]),
            "locale": g.choice(_LOCALES, n_h, p=[0.5, 0.2, 0.3]),
            "transferred": (g.random(n_h) < 0.05).astype("int64"),
        }
    )

    items = pd.DataFrame(
        {
            "item": np.arange(1, n_items + 1),
            "family": g.choice(_FAMILIES, n_items),
            "iclass": g.integers(1, 51, n_items),
            "perishable": (g.random(n_items) < 0.25).astype("int64"),
        }
    )

    pdfs = {
        "sales": sales,
        "transactions": transactions,
        "stores": stores,
        "oil": oil,
        "holidays": holidays,
        "items": items,
    }
    return {name: spark.createDataFrame(pdf) for name, pdf in pdfs.items()}


def _retailer_dims(sf: float) -> tuple[int, int, int, int, int]:
    scale = min(1.0, sf * 10)
    n_locn = max(8, int(1331 * scale))
    n_dates = max(30, int(366 * scale))
    n_ksn = max(20, int(4000 * scale))
    n_zip = max(4, n_locn // 4)
    n_inv = max(100, int(6_000_000 * sf))
    return n_locn, n_dates, n_ksn, n_zip, n_inv


def retailer(spark: SparkSession, *, sf: float = 0.01, seed: int = 11) -> dict[str, DataFrame]:
    """Synthetic Retailer: inventory, location, census, item, weather.

    Join tree (SIGMOD'19 paper): inventory-item on (ksn),
    inventory-weather on (locn, dateid), inventory-location on (locn),
    location-census on (zip).
    """
    n_locn, n_dates, n_ksn, n_zip, n_inv = _retailer_dims(sf)
    g = _rng(seed)

    # Dimension attributes first: the label (inventoryunits) depends on
    # the item's category and the day's weather, so the ML applications
    # (LR, CART) have signal expressible in dimension features.
    category_of_ksn = g.integers(1, 31, n_ksn + 1)  # index by ksn
    rain_grid = (g.random((n_locn + 1, n_dates + 1)) < 0.3).astype("int64")

    locn = g.integers(1, n_locn + 1, n_inv)
    dateid = g.integers(1, n_dates + 1, n_inv)
    ksn = g.integers(1, n_ksn + 1, n_inv)
    cat = category_of_ksn[ksn]
    rain = rain_grid[locn, dateid]
    inventory = pd.DataFrame(
        {
            "locn": locn,
            "dateid": dateid,
            "ksn": ksn,
            "inventoryunits": np.maximum(
                0.0, g.normal(20 + (cat % 7) * 2.0 + 5.0 * rain, 5.0)
            ).round(1),
        }
    )

    location = pd.DataFrame(
        {
            "locn": np.arange(1, n_locn + 1),
            "zip": (np.arange(1, n_locn + 1) % n_zip) + 1,
            "rgn_cd": g.integers(1, 11, n_locn),
            "clim_zn_nbr": g.integers(1, 21, n_locn),
        }
    )

    census = pd.DataFrame(
        {
            "zip": np.arange(1, n_zip + 1),
            "population": g.integers(5_000, 500_000, n_zip),
            "white": g.integers(1_000, 300_000, n_zip),
            "asian": g.integers(100, 80_000, n_zip),
            "pacific": g.integers(10, 9_000, n_zip),
            "black": g.integers(100, 120_000, n_zip),
            "medianage": (20 + g.random(n_zip) * 40).round(1),
        }
    )

    item = pd.DataFrame(
        {
            "ksn": np.arange(1, n_ksn + 1),
            "subcategory": g.integers(1, 61, n_ksn),
            "category": category_of_ksn[1:],
            "categorycluster": g.integers(1, 9, n_ksn),
            "prize": (1 + g.random(n_ksn) * 99).round(2),
        }
    )

    ll, dd2 = np.meshgrid(np.arange(1, n_locn + 1), np.arange(1, n_dates + 1))
    n_w = ll.size
    weather = pd.DataFrame(
        {
            "locn": ll.ravel().astype("int64"),
            "dateid": dd2.ravel().astype("int64"),
            "rain": rain_grid[ll.ravel(), dd2.ravel()],
            "snow": (g.random(n_w) < 0.05).astype("int64"),
            "maxtemp": g.integers(-5, 41, n_w),
            "mintemp": g.integers(-20, 25, n_w),
            "meanwind": (g.random(n_w) * 30).round(1),
            "thunder": (g.random(n_w) < 0.08).astype("int64"),
        }
    )

    pdfs = {
        "inventory": inventory,
        "location": location,
        "census": census,
        "item": item,
        "weather": weather,
    }
    return {name: spark.createDataFrame(pdf) for name, pdf in pdfs.items()}
