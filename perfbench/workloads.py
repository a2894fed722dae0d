"""The three workloads.

Each workload sets up its inputs (:meth:`setup`), runs one untimed
warm-up op, then whole rounds of timed ops (:meth:`round`), and checks
every op's output apart from the program (:meth:`check`). Every run
repeats ops and compares their outputs: on ``simplify-geolife`` and
``scale-osm`` the warm-up op is the round's first op run once more; on
``evaluate-chengdu`` the simplifiers rebuild the set-up's D' and every
scoring must rebuild the same ground truth on D.

The seed S given on the command line draws the query workload: the
range-query boxes (1,000 boxes, seed 99 + S) and the query trajectories of
kNN and similarity (seed S). The databases D, the trained policies and
the RL4QDTS seeds (configuration seed 0, run seeds 0, 1, 2) are the same
for every S: every run does the same simplification work, and the two
known over-budget faults fail the same ops on every run.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
import pandas as pd

import checks
from common import N_BUCKETS, Ledger, Op, budget, train_policies
import layers

#: 1,000 boxes (the table harnesses use 100): the mean F1 over a workload
#: drawn with another seed then moves by a few per cent, not by tens.
BOXES = dict(n_queries=1000, distribution="data")


def _boxes(db: pd.DataFrame, seed: int) -> np.ndarray:
    from repro.experiments import BENCH_DURATION, BENCH_SPATIAL
    from repro.workloads.distributions import range_query_workload

    return range_query_workload(db, spatial=BENCH_SPATIAL, duration=BENCH_DURATION,
                                seed=99 + seed, **BOXES)


def _range_score(db: pd.DataFrame, dprime: pd.DataFrame, boxes: np.ndarray) -> dict[str, float]:
    """Range-task F1 of D' with the driver-side engine, ground truth included."""
    from repro.queries import range_query
    from repro.queries.measures import mean_f1

    truth = range_query.range_query_numpy(db, boxes)
    return {"range": mean_f1(truth, range_query.range_query_numpy(dprime, boxes))}


def _same_output(a, b) -> bool:
    if isinstance(a, pd.DataFrame):
        return isinstance(b, pd.DataFrame) and checks.same_rows(a, b)
    return a == b


class Workload:
    name = ""
    needs_spark = False

    def __init__(self, seed: int, spark=None):
        self.seed = seed
        self.spark = spark
        from repro.experiments import bench_config

        self.cfg = bench_config(seed=0)
        self.inputs: dict = {}

    # -- set-up --------------------------------------------------------------

    def setup(self) -> dict:
        raise NotImplementedError

    def timed_setups(self, ledger: Ledger, reps: int) -> None:
        """Set up ``reps`` times; every repetition must build the same inputs."""
        first = None
        for _ in range(reps):
            t0 = time.perf_counter()
            inputs = self.setup()
            ledger.setup_s.append(time.perf_counter() - t0)
            fp = self.fingerprint(inputs)
            if first is None:
                first = fp
            ledger.check(fp == first, "set-up built different inputs on repetition")
            self.release()
            self.inputs = inputs

    def fingerprint(self, inputs: dict) -> tuple:
        cube, point = inputs["policies"]
        dbs = inputs["dbs"]
        return (cube.to_bytes(), point.to_bytes(),
                tuple(pd.util.hash_pandas_object(d, index=False).sum() for d in dbs.values()))

    def release(self) -> None:
        """Free what a previous set-up left in Spark."""

    # -- ops ------------------------------------------------------------------

    def warmup(self) -> Op:
        raise NotImplementedError

    def round(self, ledger: Ledger) -> list[Op]:
        raise NotImplementedError

    def check(self, ledger: Ledger, ops: list[Op], warm: Op) -> None:
        """Checks common to every workload, then :meth:`check_op` per op."""
        first: dict = {}
        for op in ops + [warm]:
            prev = first.setdefault((op.kind, op.key), op)
            if prev is not op:
                ledger.check(_same_output(prev.output, op.output),
                             f"{op.kind}{op.key} differs when repeated")
        for op in ops:
            if op is first[(op.kind, op.key)]:
                self.check_op(ledger, op)
            elif first[(op.kind, op.key)].failure:
                op.failure = first[(op.kind, op.key)].failure

    def check_simplified(self, ledger: Ledger, op: Op, db: pd.DataFrame, ratio: float) -> None:
        w = budget(len(db), ratio)
        problems, over = checks.qdts_contract(db, op.output, w)
        for p in problems:
            ledger.check(False, f"{op.kind}{op.key}: {p}")
        op.over_budget = over
        if over:
            ledger.fail(op, f"|D'| = {len(op.output)} > W = {w} ({over} points over budget)")

    def check_op(self, ledger: Ledger, op: Op) -> None:
        raise NotImplementedError

    def e2e(self, ledger: Ledger) -> dict[str, float]:
        raise NotImplementedError

    def traced_round(self, tracer, ledger: Ledger) -> list[Op]:
        """One round with every layer of :mod:`layers` wrapped."""
        layers.install_ops(tracer)
        try:
            return self.round(ledger)
        finally:
            tracer.restore()

    def replay(self, ops: list[Op], ledger: Ledger | None, every_size: bool = True) -> dict:
        """Driver-side replays of the Spark ops (Spark workloads only)."""
        return {}

    def spark_layers(self, untraced: list[Op], replays: dict, tracer) -> dict[str, float]:
        return dict.fromkeys(layers.SPARK_LAYER_KEYS, 0.0)


# -----------------------------------------------------------------------------


class SimplifyGeolife(Workload):
    """Single-node RL4QDTS on one Geolife database; no Spark."""

    name = "simplify-geolife"
    SF, RATIO, RUNS = 0.3, 0.05, 3

    def setup(self) -> dict:
        from repro import synth_data

        db = synth_data.trajectory_db_pandas(profile="geolife", sf=self.SF, seed=0)
        return dict(dbs={"D": db}, policies=train_policies(), boxes=_boxes(db, self.seed))

    def _simplify(self, run: int) -> pd.DataFrame:
        from repro.core import rl4qdts

        cube, point = self.inputs["policies"]
        return rl4qdts.rl4qdts_simplify(self.inputs["dbs"]["D"], self.RATIO, cube_policy=cube,
                                        point_policy=point, config=self.cfg,
                                        rng=np.random.default_rng(run))

    def _baseline(self) -> pd.DataFrame:
        from repro.baselines import adaptations

        return adaptations.simplify_database_pandas(self.inputs["dbs"]["D"], self.RATIO,
                                                    method="topdown", measure="ped", mode="W")

    def _score(self, dprime: pd.DataFrame) -> dict[str, float]:
        return _range_score(self.inputs["dbs"]["D"], dprime, self.inputs["boxes"])

    def warmup(self) -> Op:
        return Op("simplify", ("rl", 0), 0.0, self._simplify(0))

    def round(self, ledger: Ledger) -> list[Op]:
        ops = []
        for run in range(self.RUNS):
            s = ledger.timed("simplify", ("rl", run), self._simplify, run)
            e = ledger.timed("eval", ("rl", run), self._score, s.output)
            b = ledger.timed("baseline", ("topdown(W,ped)",), self._baseline)
            ops += [s, e, b]
        return ops + [ledger.timed("eval", ("topdown(W,ped)",), self._score, b.output)]

    def check(self, ledger, ops, warm) -> None:
        dprimes = {op.key: op.output for op in ops if op.kind != "eval"}
        self._sql_f1 = checks.range_f1_sql(self.inputs["dbs"]["D"], dprimes, self.inputs["boxes"])
        super().check(ledger, ops, warm)

    def check_op(self, ledger: Ledger, op: Op) -> None:
        db = self.inputs["dbs"]["D"]
        if op.kind in ("simplify", "baseline"):
            self.check_simplified(ledger, op, db, self.RATIO)
        else:
            ref = self._sql_f1[str(op.key)]
            ledger.check(abs(ref - op.output["range"]) < 1e-9,
                         f"eval{op.key}: range F1 {op.output['range']} != SQL {ref}")

    def e2e(self, ledger: Ledger) -> dict[str, float]:
        rl = [op.output["range"] for op in ledger.ops if op.kind == "eval" and op.key[0] == "rl"]
        f1 = statistics.mean(rl)
        return {"simplify_s": ledger.median_time("simplify"), "baseline_s": ledger.median_time("baseline"),
                "eval_s": ledger.median_time("eval"), "range_f1": f1, "query_f1": f1}


# -----------------------------------------------------------------------------


class ScaleOsm(Workload):
    """Fig. 8(a) sweep: Spark-bucketed RL4QDTS and Top-Down(E,SED) on OSM."""

    name = "scale-osm"
    needs_spark = True
    SFS, RATIO = (0.1, 0.16, 0.5), 0.01

    def setup(self) -> dict:
        from repro import synth_data

        dbs = {sf: synth_data.trajectory_db_pandas(profile="osm", sf=sf, seed=0) for sf in self.SFS}
        cube, point = train_policies()
        frames = {}
        for sf, db in dbs.items():
            frames[sf] = self.spark.session.createDataFrame(db).cache()
            frames[sf].count()
        return dict(dbs=dbs, policies=(cube, point), frames=frames,
                    policy_bytes=(cube.to_bytes(), point.to_bytes()),
                    boxes={sf: _boxes(db, self.seed) for sf, db in dbs.items()})

    def release(self) -> None:
        for df in self.inputs.get("frames", {}).values():
            df.unpersist()

    def _spark_rl(self, sf: float) -> pd.DataFrame:
        from repro.core import spark_driver

        cb, pb = self.inputs["policy_bytes"]
        return spark_driver.simplify_database_rl_spark(
            self.inputs["frames"][sf], self.RATIO, cube_policy_bytes=cb, point_policy_bytes=pb,
            config=self.cfg, n_partitions=N_BUCKETS).toPandas()

    def _spark_topdown(self, sf: float) -> pd.DataFrame:
        from repro.baselines import adaptations

        return adaptations.simplify_database_spark(
            self.inputs["frames"][sf], self.RATIO, method="topdown", measure="sed", mode="E",
            n_partitions=N_BUCKETS).toPandas()

    def _score(self, sf: float, dprime: pd.DataFrame) -> dict[str, float]:
        return _range_score(self.inputs["dbs"][sf], dprime, self.inputs["boxes"][sf])

    def warmup(self) -> Op:
        return Op("simplify", (self.SFS[0],), 0.0, self._spark_rl(self.SFS[0]))

    def round(self, ledger: Ledger) -> list[Op]:
        ops = []
        for sf in self.SFS:
            s = ledger.timed("simplify", (sf,), self._spark_rl, sf)
            e = ledger.timed("eval", (sf,), self._score, sf, s.output)
            b = ledger.timed("baseline", (sf,), self._spark_topdown, sf)
            ops += [s, e, b]
        return ops

    def check(self, ledger, ops, warm) -> None:
        self._outputs = {(op.kind, op.key): op.output for op in ops}
        super().check(ledger, ops, warm)

    def check_op(self, ledger: Ledger, op: Op) -> None:
        sf = op.key[0]
        db = self.inputs["dbs"][sf]
        if op.kind in ("simplify", "baseline"):
            self.check_simplified(ledger, op, db, self.RATIO)
        else:
            ref = checks.range_f1_sql(db, {"rl": self._outputs[("simplify", op.key)]},
                                      self.inputs["boxes"][sf])["rl"]
            ledger.check(abs(ref - op.output["range"]) < 1e-9,
                         f"eval{op.key}: range F1 {op.output['range']} != SQL {ref}")

    # -- driver-side bucket replays ----------------------------------------

    def buckets(self, sf: float) -> dict[int, pd.DataFrame]:
        """D split into Spark's own buckets, pmod(hash(traj_id), 8)."""
        from pyspark.sql import functions as F

        ids = (self.inputs["frames"][sf].select("traj_id").distinct()
               .withColumn("bucket", F.pmod(F.hash(F.col("traj_id")), F.lit(N_BUCKETS)))
               .toPandas())
        db = self.inputs["dbs"][sf].merge(ids, on="traj_id")
        return {int(b): g.drop(columns=["bucket"]).reset_index(drop=True)
                for b, g in db.groupby("bucket", sort=True)}

    def replay(self, ops: list[Op], ledger: Ledger | None, every_size: bool = True) -> dict:
        """Run every bucket on the driver, as each Spark task does, for
        every size or only the largest; time each bucket and, with
        ``ledger``, check that the union of the replays equals the Spark
        output."""
        from repro.baselines import adaptations
        from repro.core import rl4qdts

        cube, point = self.inputs["policies"]
        out = {"rl": {}, "topdown": {}}
        for sf in self.SFS if every_size else self.SFS[-1:]:
            rl_t, td_t, rl_parts, td_parts, sizes = [], [], [], [], []
            for b, part in self.buckets(sf).items():
                t0 = time.perf_counter()
                rl_parts.append(rl4qdts.rl4qdts_simplify(
                    part, self.RATIO, cube_policy=cube, point_policy=point, config=self.cfg,
                    rng=np.random.default_rng(self.cfg.seed + b)))
                t1 = time.perf_counter()
                td_parts.append(adaptations.simplify_database_pandas(
                    part, self.RATIO, method="topdown", measure="sed", mode="E"))
                rl_t.append(t1 - t0)
                td_t.append(time.perf_counter() - t1)
                sizes.append(len(part))
            out["rl"][sf] = (rl_t, sizes)
            out["topdown"][sf] = (td_t, sizes)
            if ledger is not None:
                spark_ops = {(op.kind, op.key[0]): op.output for op in ops}
                ledger.check(checks.same_rows(pd.concat(rl_parts), spark_ops[("simplify", sf)]),
                             f"spark RL4QDTS sf={sf} differs from the union of its bucket replays")
                ledger.check(checks.same_rows(pd.concat(td_parts), spark_ops[("baseline", sf)]),
                             f"spark Top-Down sf={sf} differs from the union of its bucket replays")
        return out

    def e2e(self, ledger: Ledger) -> dict[str, float]:
        f1s = {op.key: op.output["range"] for op in ledger.ops if op.kind == "eval"}
        f1 = statistics.mean(f1s.values())
        by_sf = lambda key: key[0]  # noqa: E731
        return {"simplify_s": ledger.summed_median_time("simplify", by_sf),
                "baseline_s": ledger.summed_median_time("baseline", by_sf),
                "eval_s": ledger.summed_median_time("eval", by_sf),
                "range_f1": f1, "query_f1": f1}

    def traced_round(self, tracer, ledger: Ledger) -> list[Op]:
        # cloudpickle ships a function to the workers by reference only while
        # its module still holds it; a wrapped RL4QDTS or Top-Down function
        # would be shipped by value, tracer and SparkContext included. So
        # the Spark ops run with only their job counting, and the layers
        # inside the buckets are traced in the driver-side replays.
        tracer.wrap(self, "_spark_rl", "spark_driver.call", spark_jobs=True)
        tracer.wrap(self, "_spark_topdown", "adaptations.spark_call", spark_jobs=True)
        from repro.queries import range_query

        tracer.wrap(range_query, "range_query_numpy", "range_query")
        try:
            ops = self.round(ledger)
        finally:
            tracer.restore()
        layers.install_ops(tracer)
        try:
            self.replay(ops, None)
        finally:
            tracer.restore()
        return ops

    def spark_layers(self, untraced: list[Op], replays: dict, tracer) -> dict[str, float]:
        wall = {(op.kind, op.key[0]): op.seconds for op in untraced}
        over = {(op.kind, op.key[0]): op.over_budget for op in untraced}
        m = {}
        for prefix, kind, path in (("spark_driver", "simplify", "rl"), ("adaptations", "baseline", "topdown")):
            bmax = sum(max(replays[path][sf][0]) for sf in self.SFS)
            m[f"{prefix}.bucket_max_s"] = bmax
            m[f"{prefix}.overhead_s"] = sum(wall[(kind, sf)] - max(replays[path][sf][0]) for sf in self.SFS)
            m[f"{prefix}.over_budget_points"] = sum(over[(kind, sf)] for sf in self.SFS)
        m["spark_driver.wall_s"] = sum(wall[("simplify", sf)] for sf in self.SFS)
        m["spark_driver.bucket_sum_s"] = sum(sum(replays["rl"][sf][0]) for sf in self.SFS)
        m["spark_driver.bucket_points_max"] = max(max(replays["rl"][sf][1]) for sf in self.SFS)
        m["spark_driver.jobs"] = tracer.extra_sum("jobs", "spark_driver.call", 0, len(tracer.spans))
        m["spark_driver.tasks"] = tracer.extra_sum("tasks", "spark_driver.call", 0, len(tracer.spans))
        return m


# -----------------------------------------------------------------------------


#: The engines ``evaluate_query_tasks`` runs on D and on D'.
TRUTH_ENGINES = ("range_query_results", "knn_query", "similarity_query", "traclus_labels")


class EvaluateChengdu(Workload):
    """All five query tasks on one Chengdu database, for two D'."""

    name = "evaluate-chengdu"
    needs_spark = True
    SF, RATIO, N_QUERY_TRAJS, KNN_K = 0.02, 0.02, 2, 3
    #: Single-node simplification of this small D takes tens of milliseconds:
    #: each round repeats it to report a median.
    SIMPLIFY_REPS = 11

    def __init__(self, seed: int, spark=None):
        super().__init__(seed, spark)
        self.truths: list[dict] = []

    def setup(self) -> dict:
        from repro import synth_data

        db = synth_data.trajectory_db_pandas(profile="chengdu", sf=self.SF, seed=0)
        inputs = dict(dbs={"D": db}, policies=train_policies(), boxes=_boxes(db, self.seed))
        self.inputs = inputs
        inputs["dprime"] = {"rl": self._simplify(), "topdown(W,ped)": self._baseline()}
        return inputs

    def fingerprint(self, inputs: dict) -> tuple:
        return super().fingerprint(inputs) + tuple(
            pd.util.hash_pandas_object(d, index=False).sum() for d in inputs["dprime"].values())

    def _simplify(self) -> pd.DataFrame:
        from repro.core import rl4qdts

        cube, point = self.inputs["policies"]
        return rl4qdts.rl4qdts_simplify(self.inputs["dbs"]["D"], self.RATIO, cube_policy=cube,
                                        point_policy=point, config=self.cfg,
                                        rng=np.random.default_rng(0))

    def _baseline(self) -> pd.DataFrame:
        from repro.baselines import adaptations

        return adaptations.simplify_database_pandas(self.inputs["dbs"]["D"], self.RATIO,
                                                    method="topdown", measure="ped", mode="W")

    def _evaluate(self, db: pd.DataFrame, dprime: pd.DataFrame) -> dict[str, float]:
        from repro import experiments

        return experiments.evaluate_query_tasks(
            self.spark.session, db, dprime, boxes=self.inputs["boxes"],
            n_query_trajs=self.N_QUERY_TRAJS, knn_k=self.KNN_K, seed=self.seed)

    def _score(self, which: str) -> dict[str, float]:
        """Score one D' and keep the engines' results on D, which every
        evaluation of the same D must reproduce exactly."""
        from repro import experiments

        calls: dict[str, list] = {name: [] for name in TRUTH_ENGINES}
        engines = {name: getattr(experiments, name) for name in TRUTH_ENGINES}

        def recording(name, fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[name].append(out)
                return out
            return call

        for name, fn in engines.items():
            setattr(experiments, name, recording(name, fn))
        try:
            f1 = self._evaluate(self.inputs["dbs"]["D"], self.inputs["dprime"][which])
        finally:
            for name, fn in engines.items():
                setattr(experiments, name, fn)
        # evaluate_query_tasks runs each engine on D, then on D'.
        self.truths.append({name: out[0::2] for name, out in calls.items()})
        return f1

    def warmup(self) -> Op:
        """All five engines on the two small D' (one standing in for D):
        brings the JVM and the Python workers up to speed at a fraction
        of the cost of scoring against D."""
        d = self.inputs["dprime"]
        return Op("eval", ("warm-up",), 0.0, self._evaluate(d["topdown(W,ped)"], d["rl"]))

    def round(self, ledger: Ledger) -> list[Op]:
        # The short simplifications run before the scorings, whose 4,000²
        # TRACLUS matrices leave the allocator and caches in a varying state.
        ops = []
        for _ in range(self.SIMPLIFY_REPS):
            ops += [ledger.timed("simplify", ("rl",), self._simplify),
                    ledger.timed("baseline", ("topdown(W,ped)",), self._baseline)]
        return ops + [ledger.timed("eval", ("rl",), self._score, "rl"),
                      ledger.timed("eval", ("topdown(W,ped)",), self._score, "topdown(W,ped)")]

    def check_op(self, ledger: Ledger, op: Op) -> None:
        db = self.inputs["dbs"]["D"]
        which = op.key[0]
        dprime = self.inputs["dprime"][which]
        if op.kind in ("simplify", "baseline"):
            self.check_simplified(ledger, op, db, self.RATIO)
            ledger.check(checks.same_rows(op.output, dprime), f"{op.kind}{op.key} differs from set-up's D'")
            return
        ref = checks.range_f1_sql(db, {which: dprime}, self.inputs["boxes"])[which]
        ledger.check(abs(ref - op.output["range"]) < 1e-9,
                     f"eval{op.key}: range F1 {op.output['range']} != SQL {ref}")
        queries = checks.query_trajectories(db, self.N_QUERY_TRAJS, self.seed)
        for task, val in checks.reference_f1(db, dprime, queries, self.KNN_K).items():
            ledger.check(abs(val - op.output[task]) < 1e-9,
                         f"eval{op.key}: {task} F1 {op.output[task]} != reference {val}")
        self.check_segments(ledger, dprime, f"D'({which})")

    def check_segments(self, ledger: Ledger, db: pd.DataFrame, label: str) -> None:
        from repro.queries.clustering import extract_segments

        got = extract_segments(self.spark.session.createDataFrame(db))
        ledger.check(checks.same_segments(got, checks.segments_reference(db)),
                     f"TRACLUS segments of {label} differ from per-trajectory characteristic points")

    def check(self, ledger, ops, warm) -> None:
        super().check(ledger, ops, warm)
        # The determinism check of the evaluation: every scoring of a D'
        # recomputed the ground truth on D, including TRACLUS's sample of
        # 4,000 segments taken by position from Spark's output.
        for name in TRUTH_ENGINES:
            ledger.check(all(t[name] == self.truths[0][name] for t in self.truths),
                         f"{name} on D gave different results in two evaluations")

    def e2e(self, ledger: Ledger) -> dict[str, float]:
        rl = next(op.output for op in ledger.ops if op.kind == "eval" and op.key == ("rl",))
        return {"simplify_s": ledger.median_time("simplify"), "baseline_s": ledger.median_time("baseline"),
                "eval_s": ledger.median_time("eval"), "range_f1": rl["range"],
                "query_f1": statistics.mean(rl.values())}


WORKLOADS = {w.name: w for w in (SimplifyGeolife, ScaleOsm, EvaluateChengdu)}
