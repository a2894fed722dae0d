"""Which public functions of ``repro`` the traced run wraps, and how the
recorded spans become the per-layer metrics.

Two sets of wrappers, installed one after the other:

- set-up wrappers (data generation and policy training), installed while
  the traced run sets up once;
- op wrappers (the inference, Spark and query layers), installed while
  the traced run repeats one round of ops.

Every ``*_s`` metric is self time in seconds: a span's duration minus
its direct children's. Layers a workload does not run report 0.
"""
from __future__ import annotations


def install_setup(tr) -> None:
    from repro import synth_data
    from repro.core import dqn, rl4qdts, training

    tr.wrap(synth_data, "trajectory_db_pandas", "synth_data.generate")
    tr.wrap(training, "train_rl4qdts", "training.train")
    tr.wrap(training, "run_episode", "training.episode")
    for meth in ("__init__", "add_point", "diff"):
        tr.wrap(training.RewardTracker, meth, "training.reward")
    tr.wrap(dqn.DQN, "learn", "dqn.learn")
    # train_rl4qdts imports rl4qdts_simplify at call time: during set-up
    # every RL4QDTS run is the greedy validation pass.
    tr.wrap(rl4qdts, "rl4qdts_simplify", "training.validation")
    tr.wrap(training, "_range_results", "training.validation")
    tr.wrap(training, "_mean_f1", "training.validation")


def _count_depth(tr, args, kwargs, result) -> None:
    depth = result.depth - args[1].depth
    tr.counters["traverse"] += 1
    tr.counters["traverse_depth"] += depth
    tr.counters["stop_at_start"] += depth == 0


def _count_choice(tr, args, kwargs, result) -> None:
    tr.counters["choose"] += 1
    tr.counters["choose_empty"] += result is None


def _count_segments(tr, args, kwargs, result) -> None:
    tr.counters["segments"] += len(result)


def _count_clustered(tr, args, kwargs, result) -> None:
    tr.counters["segments_clustered"] += len(result)


def install_ops(tr) -> None:
    from repro import experiments
    from repro.baselines import adaptations
    from repro.core import dqn, mdp, octree, rl4qdts
    from repro.queries import clustering, range_query

    tr.wrap(rl4qdts, "rl4qdts_simplify", "rl4qdts.loop")
    tr.wrap(rl4qdts, "choose_point", "rl4qdts.loop", after=_count_choice)
    tr.wrap(rl4qdts, "traverse_cube", "rl4qdts.traverse", after=_count_depth)
    tr.wrap(rl4qdts, "query_centers", "distributions.query_centers")
    tr.wrap(octree.Octree, "__init__", "octree.build")
    tr.wrap(octree.Octree, "assign_queries", "octree.build")
    tr.wrap(octree.Octree, "nodes_at_level", "octree.nodes_at_level")
    tr.wrap(mdp.QDTSRuntime, "__init__", "mdp.init")
    for meth in ("start_nodes", "cube_state", "point_state", "insert"):
        tr.wrap(mdp.QDTSRuntime, meth, f"mdp.{meth}")
    tr.wrap(dqn.DQN, "act", "dqn.act")
    tr.wrap(adaptations, "simplify_database_pandas", "adaptations.pandas")
    tr.wrap(experiments, "evaluate_query_tasks", "evaluate.driver")
    tr.wrap(experiments, "range_query_results", "range_query", spark_jobs=True)
    tr.wrap(range_query, "range_query_numpy", "range_query")
    tr.wrap(experiments, "knn_query", lambda a, kw: f"knn.{kw.get('measure', 'edr')}", spark_jobs=True)
    tr.wrap(experiments, "similarity_query", "similarity", spark_jobs=True)
    tr.wrap(clustering, "extract_segments", "clustering.segments", spark_jobs=True, after=_count_segments)
    tr.wrap(clustering, "segment_distance_matrix", "clustering.matrix", after=_count_clustered)
    tr.wrap(clustering, "dbscan", "clustering.dbscan")


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr, setup: tuple[int, int], ops: tuple[int, int], spark_layers: dict) -> dict[str, float]:
    """Per-layer values from the spans of the traced set-up and round.
    ``spark_layers`` holds the bucket-level numbers of the Spark paths,
    measured by the workload itself."""
    st, sc = tr.self_times(*setup), tr.calls(*setup)
    ot, oc = tr.self_times(*ops), tr.calls(*ops)
    c = tr.counters
    m = {
        "synth_data.generate_s": st["synth_data.generate"],
        "training.episode_s": st["training.episode"],
        "training.reward_s": st["training.reward"],
        "training.validation_s": st["training.validation"],
        "dqn.learn_calls": sc["dqn.learn"],
        "dqn.learn_s": st["dqn.learn"],
        "distributions.query_centers_s": ot["distributions.query_centers"],
        "octree.build_s": ot["octree.build"],
        "octree.nodes_at_level_calls": oc["octree.nodes_at_level"],
        "octree.nodes_at_level_s": ot["octree.nodes_at_level"],
        "mdp.init_s": ot["mdp.init"],
        "mdp.start_nodes_calls": oc["mdp.start_nodes"],
        "mdp.start_nodes_s": ot["mdp.start_nodes"],
        "mdp.cube_state_s": ot["mdp.cube_state"],
        "mdp.point_state_calls": oc["mdp.point_state"],
        "mdp.point_state_s": ot["mdp.point_state"],
        "mdp.insert_calls": oc["mdp.insert"],
        "mdp.insert_s": ot["mdp.insert"],
        "dqn.act_calls": oc["dqn.act"],
        "dqn.act_s": ot["dqn.act"],
        "rl4qdts.loop_s": ot["rl4qdts.loop"],
        "rl4qdts.traverse_s": ot["rl4qdts.traverse"],
        "rl4qdts.traverse_depth_mean": _share(c["traverse_depth"], c["traverse"]),
        "rl4qdts.stop_at_start_share": _share(c["stop_at_start"], c["traverse"]),
        "rl4qdts.empty_cube_share": _share(c["choose_empty"], c["choose"]),
        "adaptations.pandas_s": ot["adaptations.pandas"],
        "evaluate.driver_s": ot["evaluate.driver"],
        "range_query.s": ot["range_query"],
        "range_query.spark_jobs": tr.extra_sum("jobs", "range_query", *ops),
        "knn.edr_s": ot["knn.edr"],
        "knn.t2vec_s": ot["knn.t2vec"],
        "knn.spark_jobs": tr.extra_sum("jobs", "knn.", *ops),
        "similarity.s": ot["similarity"],
        "similarity.spark_jobs": tr.extra_sum("jobs", "similarity", *ops),
        "clustering.segments_s": ot["clustering.segments"],
        "clustering.segments": c["segments"],
        "clustering.segments_clustered": c["segments_clustered"],
        "clustering.matrix_s": ot["clustering.matrix"],
        "clustering.dbscan_s": ot["clustering.dbscan"],
    }
    m.update(spark_layers)
    return m


#: Bucket-level Spark numbers a workload without Spark reports as 0.
SPARK_LAYER_KEYS = (
    "spark_driver.wall_s", "spark_driver.bucket_max_s", "spark_driver.bucket_sum_s",
    "spark_driver.overhead_s", "spark_driver.bucket_points_max", "spark_driver.jobs",
    "spark_driver.tasks", "spark_driver.over_budget_points",
    "adaptations.bucket_max_s", "adaptations.overhead_s", "adaptations.over_budget_points",
)
