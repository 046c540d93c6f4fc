"""Spark session, storage readings and run isolation for the benchmark.

Everything Spark writes (shuffle and block files, JVM temp files) goes
under ``<checkout>/.bench_out``. The JVM's stdout and stderr go to
``.bench_out/spark.log``, and it logs errors only
(``perfbench/log4j2.properties``), so nothing from Spark reaches the
benchmark's own output.
"""
from __future__ import annotations

import os
import shlex
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

MASTER = "local[2]"
DRIVER_MEMORY = "1g"
SHUFFLE_PARTITIONS = 4


def configure_environment() -> None:
    """Point Spark's launcher at the benchmark's settings. Must run
    before the first ``pyspark`` import starts the JVM."""
    tmp = OUT / "tmp"
    local = OUT / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    java_opts = " ".join(
        [
            f"-Dlog4j2.configurationFile=file:{HERE / 'log4j2.properties'}",
            f"-Djava.io.tmpdir={tmp}",
            "-XX:-UsePerfData",
        ]
    )
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None  # re-read TMPDIR
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER}",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "pyspark-shell",
        ]
    )


def start_session():
    """A fresh SparkSession. The JVM is launched on the first call, with
    its stdout and stderr going to ``.bench_out/spark.log``, and reused
    afterwards. The status store keeps every job and stage so the tracer
    can attribute all of them to spans."""
    from pyspark import SparkContext
    from pyspark.java_gateway import launch_gateway
    from pyspark.sql import SparkSession

    if SparkContext._gateway is None:
        with open(OUT / "spark.log", "ab") as log:
            SparkContext._gateway = launch_gateway(popen_kwargs={"stdout": log, "stderr": log})
        SparkContext._jvm = SparkContext._gateway.jvm

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(OUT / "warehouse"))
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", 1_000_000)
        .config("spark.ui.retainedStages", 1_000_000)
        .config("spark.sql.ui.retainedExecutions", 1_000_000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def cache_inputs(db) -> None:
    """Cache every base relation of ``db`` and materialize it."""
    for name in db.tree.nodes:
        db.frames[name] = db.frames[name].cache()
        db.frames[name].count()


def storage_mb(spark) -> float:
    """MB of cached data blocks (memory and disk) that Spark holds.

    Read from ``SparkContext.getRDDStorageInfo``. The executor memory
    status would also count broadcast blocks, whose release waits for the
    JVM's garbage collector, so its reading drifts from run to run."""
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return sum(i.memSize() + i.diskSize() for i in infos) / 2**20


def isolate(spark, db) -> None:
    """Drop everything a run left in Spark's cache and re-warm the inputs."""
    spark.catalog.clearCache()
    cache_inputs(db)


def shutdown_jvm(timeout_s: float = 60.0) -> None:
    """Stop the session and the JVM that PySpark launched, and wait for
    the JVM process to exit."""
    from pyspark import SparkContext

    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=timeout_s)
    SparkContext._gateway = None
    SparkContext._jvm = None
