"""The benchmark's workloads: one application run each, through the
application's public entry point, over a database built from the seed.

A workload builds its database (``build``), runs the application once
(``run``), builds its DuckDB checker (``checker``) and names the first
engine batch of a run (``first_batch``, timed against ``shared_join`` in
the traced run).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from jobs_features import favorita_std, retailer_std

from checks import LinregCheck, RkmeansCheck, TreeCheck
from repro.core.executor import Engine
from repro.datasets import favorita_db, retailer_db
from repro.ml.decision_tree import build_tree, node_batch
from repro.ml.linreg import sigma_batch, train_linreg
from repro.ml.rkmeans import projection_batch, rkmeans

SF = 0.002

LR_LABEL = "units"
CART_LABEL = "inventoryunits"
CART_DEPTH = 2
RK_ATTRS = ["units", "txns", "oilprize"]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (spark, seed) -> Database
    run: Callable  # (db, seed) -> application output
    checker: Callable  # (Oracle) -> check(output)
    first_batch: Callable  # () -> list[Query]


def _cart_features():
    return [f for f in retailer_std() if f.attr != CART_LABEL]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "lr_favorita",
            build=lambda spark, seed: favorita_db(spark, sf=SF, seed=seed),
            run=lambda db, seed: train_linreg(Engine(db), favorita_std(), LR_LABEL, epochs=300),
            checker=lambda oracle: LinregCheck(oracle, favorita_std(), LR_LABEL),
            first_batch=lambda: sigma_batch(favorita_std(), LR_LABEL),
        ),
        Workload(
            "cart_retailer",
            build=lambda spark, seed: retailer_db(spark, sf=SF, seed=seed),
            run=lambda db, seed: build_tree(
                db, _cart_features(), CART_LABEL, max_depth=CART_DEPTH, min_leaf=20
            ),
            checker=lambda oracle: TreeCheck(oracle, _cart_features(), CART_LABEL),
            first_batch=lambda: node_batch(_cart_features(), CART_LABEL),
        ),
        Workload(
            "rkmeans_favorita_fanout30",
            build=lambda spark, seed: favorita_db(
                spark, sf=SF, seed=seed, holiday_fanout=30
            ),
            run=lambda db, seed: rkmeans(db, RK_ATTRS, 5, k_dim=10, seed=seed),
            checker=lambda oracle: RkmeansCheck(oracle, RK_ATTRS),
            first_batch=lambda: projection_batch(RK_ATTRS),
        ),
    ]
}
