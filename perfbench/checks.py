"""DuckDB checks of each application's output.

Each checker is built once per database at set-up. Its references come
from DuckDB evaluating the flat SQL of ``repro.core.sql_compile`` over
the base tables, so they are independent of the Spark engine. A checker
raises :class:`CheckFailed` on a mismatch; the benchmark counts that run
as failed. References that depend on a run's output (tree paths,
per-dimension centroids) are memoized, so only the first run that
produces them pays for their DuckDB queries.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from repro.core.aggregates import Query, SumProduct
from repro.core.sql_compile import join_clause, query_to_sql
from repro.ml.decision_tree import node_batch
from repro.ml.linreg import assemble_sigma, sigma_batch


class CheckFailed(AssertionError):
    """An application output disagrees with its DuckDB reference."""


def require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


class Oracle:
    """A DuckDB connection holding the database's unfiltered base tables."""

    def __init__(self, db):
        self.db = db
        self.con = duckdb.connect()
        for name, pdf in db.oracle_tables().items():
            self.con.register(name, pdf)
        self.join_rows = int(
            self.con.execute(f"SELECT COUNT(*) FROM {join_clause(db)}").fetchone()[0]
        )

    def sql(self, sql: str) -> pd.DataFrame:
        return self.con.execute(sql).fetchdf()

    def batch(self, db, queries: list[Query]) -> dict[str, pd.DataFrame]:
        """Every query of the batch over ``db`` (filters included)."""
        return {q.name: self.sql(query_to_sql(db, q)) for q in queries}

    def close(self) -> None:
        self.con.close()


class LinregCheck:
    """Σ from the engine must equal Σ assembled from DuckDB results of
    the same ``sigma_batch`` (relative 1e-9: only summation order may
    differ)."""

    def __init__(self, oracle: Oracle, features, label: str):
        results = oracle.batch(oracle.db, sigma_batch(features, label))
        self.ref = assemble_sigma(results, features)

    def __call__(self, out) -> None:
        theta, losses, sm = out
        require(sm.names == self.ref.names, "Σ index differs from the oracle's")
        diff = np.abs(sm.sigma - self.ref.sigma)
        bad = diff > 1e-9 * np.abs(self.ref.sigma)
        require(not bad.any(), f"{int(bad.sum())} Σ entries differ from DuckDB")
        require(bool(np.isfinite(theta).all()), "θ is not finite")
        require(losses[-1] <= losses[0], "BGD loss increased")


def _sse(cnt, s, s2):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(cnt > 0, s2 - s * s / np.maximum(cnt, 1e-300), 0.0)


def best_split_sse(results: dict[str, pd.DataFrame], features, n, s, s2) -> float:
    """Lowest SSE over every candidate condition, from group-by results:
    one-vs-rest for categorical features, ``<= v`` at each distinct
    value but the largest for continuous ones."""
    best = np.inf
    for f in features:
        g = results[f"dt_{f.attr}"].sort_values(f.attr)
        if len(g) < 2:
            continue
        cnt, ss, ss2 = (g[c].to_numpy(float) for c in ("cnt", "s", "s2"))
        if not f.categorical:
            cnt, ss, ss2 = (a.cumsum()[:-1] for a in (cnt, ss, ss2))
        sse = _sse(cnt, ss, ss2) + _sse(n - cnt, s - ss, s2 - ss2)
        best = min(best, float(sse.min()))
    return best


class TreeCheck:
    """Every node's count, mean and SSE must match DuckDB over the
    path-filtered join, and every chosen split's SSE must be within a
    relative 1e-9 of the best split the oracle's group-bys give. The
    tolerance accepts float ties between equivalent splits (such as
    ``rain = 0`` and ``rain = 1``) but not a worse split."""

    def __init__(self, oracle: Oracle, features, label: str):
        self.oracle = oracle
        self.features = features
        self.batch = node_batch(features, label)
        self.refs: dict[tuple, tuple[float, float, float, float]] = {}

    def node_ref(self, path: tuple) -> tuple[float, float, float, float]:
        """(count, mean, SSE, best split SSE) at the node reached by ``path``."""
        if path not in self.refs:
            res = self.oracle.batch(self.oracle.db.with_filters(list(path)), self.batch)
            n, s, s2 = (float(res["dt_total"][c].fillna(0).iloc[0]) for c in ("cnt", "s", "s2"))
            sse = float(_sse(np.array([n]), np.array([s]), np.array([s2]))[0])
            best = best_split_sse(res, self.features, n, s, s2) if n else np.inf
            self.refs[path] = (n, s / n if n else 0.0, sse, best)
        return self.refs[path]

    def __call__(self, tree) -> None:
        stack = [(tree, ())]
        while stack:
            node, path = stack.pop()
            n, mean, sse, best = self.node_ref(path)
            where = " AND ".join(p for _, p in path) or "root"
            require(node.count == n, f"{where}: count {node.count} != {n}")
            require(np.isclose(node.prediction, mean, rtol=1e-9, atol=1e-12),
                    f"{where}: mean {node.prediction} != {mean}")
            require(np.isclose(node.sse, sse, rtol=1e-9, atol=1e-9),
                    f"{where}: SSE {node.sse} != {sse}")
            if node.split is None:
                continue
            require(abs(node.split.sse - best) <= 1e-9 * abs(best),
                    f"{where}: split SSE {node.split.sse} vs best {best}")
            p_true, p_false = node.split.predicates()
            stack.append((node.left, path + ((node.split.attr, p_true),)))
            stack.append((node.right, path + ((node.split.attr, p_false),)))


class RkmeansCheck:
    """The coreset (grid points and weights) must equal a DuckDB grid
    computed from the run's own per-dimension centroids: each distinct
    value is assigned to its nearest centroid and the weights of D's
    joint projection onto the attributes are summed per grid cell."""

    def __init__(self, oracle: Oracle, attrs: list[str]):
        self.oracle = oracle
        self.attrs = attrs
        joint = Query.make("joint", attrs, w=SumProduct.count())
        self.joint = oracle.sql(query_to_sql(oracle.db, joint))
        oracle.con.register("joint", self.joint)
        self.refs: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def grid(self, dim_centroids: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        key = b"".join(dim_centroids[a].tobytes() for a in self.attrs)
        if key not in self.refs:
            con = self.oracle.con
            for a in self.attrs:
                vals = con.execute(f"SELECT DISTINCT {a} FROM joint").fetchdf()[a]
                cen = dim_centroids[a]
                idx = ((vals.to_numpy(float)[:, None] - cen[None, :]) ** 2).argmin(axis=1)
                con.register(f"assign_{a}", pd.DataFrame({a: vals, f"c_{a}": idx}))
            cells = ", ".join(f"c_{a}" for a in self.attrs)
            joins = " ".join(f"JOIN assign_{a} USING ({a})" for a in self.attrs)
            g = self.oracle.sql(
                f"SELECT {cells}, SUM(w) AS w FROM joint {joins} GROUP BY {cells}"
            )
            pts = np.column_stack(
                [dim_centroids[a][g[f"c_{a}"].to_numpy(int)] for a in self.attrs]
            )
            self.refs[key] = _sorted_grid(pts, g["w"].to_numpy(float))
        return self.refs[key]

    def __call__(self, res) -> None:
        pts, w = self.grid(res.dim_centroids)
        got_pts, got_w = _sorted_grid(res.grid_points, res.grid_weights)
        require(got_pts.shape == pts.shape, f"grid has {len(got_pts)} cells, oracle {len(pts)}")
        require(np.array_equal(got_pts, pts), "grid points differ from the oracle's")
        require(np.allclose(got_w, w, rtol=1e-12, atol=0), "grid weights differ from the oracle's")
        require(res.d_size == self.oracle.join_rows, f"|D| {res.d_size} != {self.oracle.join_rows}")


def _sorted_grid(pts: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort(pts.T[::-1])
    return pts[order], w[order]
