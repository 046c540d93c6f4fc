"""Set-up, the closed loop of timed runs, and the metrics of one
benchmark invocation (see run.py for the command line)."""
from __future__ import annotations

import json
import statistics
import sys
import time
import traceback

from checks import CheckFailed, Oracle
from repro.core.baseline import run_shared_join
from session import OUT, ROOT, cache_inputs, isolate, start_session, storage_mb
from tracer import Tracer, instrument, layer_metrics
from workloads import WORKLOADS

SETUP_REPS = 3


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


class Bench:
    """One workload over one seed: set-up, then timed runs."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.spark = None
        self.oracle = None
        self.correct = True
        self.layer: dict[str, float] = {}

    # -- set-up ---------------------------------------------------------
    def setup(self) -> float:
        """Set up ``SETUP_REPS`` times (session, data, input cache, DuckDB
        references), then warm up with one checked run. Returns the
        median set-up plus the warm-up."""
        reps, gen, cache = [], [], []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.close()
            self.spark = start_session()
            t1 = time.perf_counter()
            self.db = self.wl.build(self.spark, self.seed)
            t2 = time.perf_counter()
            cache_inputs(self.db)
            t3 = time.perf_counter()
            self.oracle = Oracle(self.db)
            self.check = self.wl.checker(self.oracle)
            reps.append(time.perf_counter() - t0)
            gen.append(t2 - t1)
            cache.append(t3 - t2)
        self.base_mb = storage_mb(self.spark)
        t0 = time.perf_counter()
        self.spark.sparkContext.setJobGroup("warmup", "warm-up run")
        self.correct &= self._checked(self.wl.run(self.db, self.seed))
        warmup = time.perf_counter() - t0
        self._isolate()
        tables = self.db.oracle_tables()
        self.layer.update(
            {
                "database.gen_s": statistics.median(gen),
                "database.cache_s": statistics.median(cache),
                "database.input_rows": sum(len(t) for t in tables.values()),
                "database.join_rows": self.oracle.join_rows,
                "setup.warmup_s": warmup,
            }
        )
        return statistics.median(reps) + warmup

    def _checked(self, out) -> bool:
        try:
            self.check(out)
            return True
        except CheckFailed as e:
            print(f"perfbench: check failed: {e}", file=sys.stderr)
            return False

    def _isolate(self) -> None:
        isolate(self.spark, self.db)

    # -- runs -----------------------------------------------------------
    def one_run(self, i: int, tracer=None) -> dict:
        """One timed application run, then its storage reading and check
        (outside the timed region)."""
        run_id = f"r{i}"
        self.spark.sparkContext.setJobGroup(run_id, "run")
        rec = {"run": run_id, "traced": tracer is not None, "ok": False}
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = self.wl.run(self.db, self.seed)
                rec["run_s"] = time.perf_counter() - t0
            else:
                with instrument(tracer, run_id, self.base_mb):
                    with tracer.span("run", run_id) as sp:
                        out = self.wl.run(self.db, self.seed)
                rec["run_s"] = sp["end"] - sp["start"]
            rec["storage_mb"] = storage_mb(self.spark)
            if tracer is not None:
                tracer.count_spark(run_id)
            rec["ok"] = self._checked(out)
        except Exception:  # a failed run is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
        return rec

    def measure(self, seconds: float, trace: bool) -> list[dict]:
        """Closed loop for ``seconds``, isolating between runs. Traced mode
        alternates untraced and traced runs (at least one of each) so
        tracing overhead is measured in the same process."""
        self.tracer = Tracer(self.spark) if trace else None
        runs = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(runs) % 2 == 1
            runs.append(self.one_run(len(runs), self.tracer if traced else None))
            if time.perf_counter() >= deadline and (not trace or len(runs) >= 2):
                return runs
            self._isolate()

    def baseline(self) -> None:
        """The workload's first batch through ``run_shared_join``, forced
        by collecting every column. Its engine counterpart is the first
        batch span of each traced run."""
        t0 = time.perf_counter()
        for df in run_shared_join(self.db, self.wl.first_batch()).values():
            df.toPandas()
        self.layer["baseline.shared_join_s"] = time.perf_counter() - t0
        self._isolate()

    def close(self) -> None:
        if self.oracle is not None:
            self.oracle.close()
            self.oracle = None
        if self.spark is not None:
            self.spark.stop()
            self.spark = None


def median_of(runs: list[dict], key: str) -> float:
    vals = [r[key] for r in runs if r["ok"]]
    if not vals:
        raise RuntimeError(f"no successful run to take {key} from")
    return statistics.median(vals)


def layer_medians(spans: list[dict], runs: list[dict]) -> dict[str, float]:
    per_run = [
        layer_metrics([sp for sp in spans if sp["run"] == r["run"]])
        for r in runs
        if r["traced"] and r["ok"]
    ]
    if not per_run:
        raise RuntimeError("no successful traced run")
    return {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    e2e_units, layer_units = metric_units()
    b = Bench(WORKLOADS[workload], seed)
    t0 = time.perf_counter()
    try:
        setup_s = b.setup()
        t1 = time.perf_counter()
        if trace:
            b.baseline()
        t2 = time.perf_counter()
        runs = b.measure(seconds, trace)
    finally:
        b.close()
    print(
        f"perfbench: {workload} seed {seed}: set-up {t1 - t0:.1f}s "
        f"(warm-up {b.layer['setup.warmup_s']:.1f}s), baseline {t2 - t1:.1f}s, "
        f"{len(runs)} runs {[round(r.get('run_s', 0), 2) for r in runs]} "
        f"in {time.perf_counter() - t2:.1f}s",
        file=sys.stderr,
    )
    plain = [r for r in runs if not r["traced"]]
    if trace:
        spans = b.tracer.spans
        (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(spans, indent=1))
        traced = [r for r in runs if r["traced"]]
        values = {
            **b.layer,
            **layer_medians(spans, runs),
            "storage_mb_held": median_of(runs, "storage_mb") - b.base_mb,
            "trace.overhead_s": median_of(traced, "run_s") - median_of(plain, "run_s"),
        }
        values["lmfao_vs_shared_join"] = values["baseline.shared_join_s"] / values["baseline.lmfao_s"]
        units = layer_units
    else:
        values = {
            "run_s": median_of(plain, "run_s"),
            "setup_s": setup_s,
            "storage_mb_after_run": median_of(plain, "storage_mb"),
        }
        units = e2e_units
    if set(values) != set(units):
        raise RuntimeError(f"metrics emitted {sorted(values)} != declared {sorted(units)}")
    failed = sum(not r["ok"] for r in runs)
    return {
        "correct": b.correct and failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
