"""Shared pieces of the benchmark: process environment, the Spark session,
the fixed policy-training set-up, op timing and result assembly.

Nothing here changes the program under test; it only calls the public
functions of ``src/repro``.
"""
from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

#: Spark master for every Spark workload: two local cores of a 4-core box.
SPARK_MASTER = "local[2]"
N_BUCKETS = 8

#: Fixed policy training (same for every workload and seed): one episode
#: on a small Geolife database, snapshot scored greedily on a held-out
#: Geolife database. Small enough to repeat three times per run.
TRAIN = dict(sf=0.05, db_seeds=(1,), val_sf=0.05, val_seed=42,
             ratio=0.01, episodes_per_db=1, delta=50, seed=0)


def configure_environment() -> None:
    """Pin BLAS threads, put ``src`` on the path of this process and of
    Spark's Python workers, and keep temporary files inside the checkout.
    Must run before numpy or pyspark is imported."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources at {SRC / 'repro'}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    tmp = TMP / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark")
    # Every JVM Spark starts (its launcher too): no perf-data files in /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    sys.path.insert(0, str(SRC))
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable


def cleanup_environment() -> None:
    shutil.rmtree(TMP / str(os.getpid()), ignore_errors=True)
    try:
        TMP.rmdir()
    except OSError:
        pass


class SparkHandle:
    """One local SparkSession; ``close`` stops it and waits for the JVM."""

    def __init__(self):
        from pyspark.sql import SparkSession

        tmp = Path(os.environ["TMPDIR"])
        self.session = (
            SparkSession.builder.master(SPARK_MASTER)
            .appName("perfbench")
            .config("spark.driver.memory", "2g")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.driver.bindAddress", "127.0.0.1")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.sql.shuffle.partitions", str(N_BUCKETS))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", "-1")
            .config("spark.local.dir", str(tmp / "spark"))
            .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
            .getOrCreate()
        )
        self.sc = self.session.sparkContext
        self.sc.setLogLevel("ERROR")

    def close(self) -> None:
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.session.stop()
        proc = getattr(gateway, "proc", None)
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            if proc.stdin:
                proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except Exception:
                proc.kill()
                proc.wait(timeout=30)

    def jobs_and_tasks(self, group: str) -> tuple[int, int]:
        """Jobs started under job group ``group`` and the tasks they ran.
        Waits (briefly) for the status store to record finished jobs."""
        tracker = self.sc.statusTracker()
        deadline = time.perf_counter() + 5.0
        while True:
            ids = tracker.getJobIdsForGroup(group)
            infos = [tracker.getJobInfo(j) for j in ids]
            if all(i is not None and i.status != "RUNNING" for i in infos) or time.perf_counter() > deadline:
                break
            time.sleep(0.05)
        tasks = 0
        for info in infos:
            for sid in info.stageIds if info is not None else ():
                st = tracker.getStageInfo(sid)
                if st is not None:
                    tasks += st.numCompletedTasks
        return len(ids), tasks


def train_policies():
    """Train Agent-Cube/Agent-Point with the fixed :data:`TRAIN` set-up."""
    from repro import synth_data
    from repro.core import training
    from repro.experiments import bench_config

    dbs = [synth_data.trajectory_db_pandas(profile="geolife", sf=TRAIN["sf"], seed=s)
           for s in TRAIN["db_seeds"]]
    val = synth_data.trajectory_db_pandas(profile="geolife", sf=TRAIN["val_sf"], seed=TRAIN["val_seed"])
    cube, point, _ = training.train_rl4qdts(
        dbs, ratio=TRAIN["ratio"], config=bench_config(seed=TRAIN["seed"]),
        episodes_per_db=TRAIN["episodes_per_db"], delta=TRAIN["delta"],
        seed=TRAIN["seed"], validation_db=val,
    )
    return cube, point


def budget(n_points: int, ratio: float) -> int:
    """The storage budget W = round(r·N) that every D' must respect."""
    return int(round(ratio * n_points))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Op:
    """One timed operation and what it produced."""

    kind: str  # "simplify" | "baseline" | "eval"
    key: tuple  # identifies the same op across rounds
    seconds: float
    output: object
    failure: str | None = None
    over_budget: int = 0


@dataclass
class Ledger:
    """Everything a run measured and every problem its checks found."""

    ops: list[Op] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)

    def timed(self, kind: str, key: tuple, fn, *args, **kwargs) -> Op:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        op = Op(kind, key, time.perf_counter() - t0, out)
        self.ops.append(op)
        return op

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def fail(self, op: Op, reason: str) -> None:
        op.failure = reason
        print(f"perfbench: failed op {op.kind}{op.key}: {reason}", flush=True)

    def median_time(self, kind: str) -> float:
        """Median over every op of ``kind``."""
        return statistics.median(op.seconds for op in self.ops if op.kind == kind)

    def summed_median_time(self, kind: str, part) -> float:
        """Sum over ``part(key)`` groups of each group's median time."""
        groups: dict = {}
        for op in self.ops:
            if op.kind == kind:
                groups.setdefault(part(op.key), []).append(op.seconds)
        return sum(statistics.median(v) for v in groups.values())


def run_rounds(seconds: float, one_round) -> int:
    """Run whole rounds until the next one would end past ``seconds``
    (at least one). Returns the number of rounds run."""
    t0 = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        one_round(rounds)
        rounds += 1
        last = time.perf_counter() - r0
        if time.perf_counter() - t0 + last > seconds:
            return rounds
