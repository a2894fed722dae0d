"""Benchmark of the RL4QDTS simplify loop, its Spark buckets and the
five-task query evaluation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simplify-geolife --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up three times, warms up, runs whole rounds of timed
ops for about ``--seconds`` seconds and prints the end-to-end metrics.
``--trace 1`` sets up once and runs one untimed and one traced round,
and prints the per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
#: The names of ``workloads.WORKLOADS``; that module imports numpy, which
#: must wait until the environment is configured.
WORKLOAD_NAMES = ("simplify-geolife", "scale-osm", "evaluate-chengdu")


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def phase(name: str, t0: list) -> None:
    """Log how long the phase that just ended took, on standard error."""
    now = time.perf_counter()
    print(f"perfbench: {name} took {now - t0[0]:.2f} s", file=sys.stderr, flush=True)
    t0[0] = now


def untraced(wl, seconds: float) -> tuple:
    from common import Ledger, peak_rss_mib, run_rounds

    t0 = [time.perf_counter()]
    ledger = Ledger()
    wl.timed_setups(ledger, SETUP_REPS)
    phase("set-up", t0)
    warm = wl.warmup()
    phase("warm-up", t0)
    ops: list = []
    rounds = run_rounds(seconds, lambda i: ops.extend(wl.round(ledger)))
    phase(f"{rounds} round(s)", t0)
    # The program's peak memory, before the checks allocate their own.
    rss = peak_rss_mib()
    wl.check(ledger, ops, warm)
    # Replaying every bucket costs as much as the Spark ops; untraced runs
    # replay only the largest size, where the per-bucket budget fault shows.
    wl.replay(ops, ledger, every_size=False)
    phase("checks", t0)
    metrics = {"setup_s": statistics.median(ledger.setup_s), **wl.e2e(ledger),
               "driver_peak_rss_mb": rss}
    return ledger, ops, metrics


def traced(wl) -> tuple:
    import layers
    from common import Ledger
    from tracer import Tracer

    tr = Tracer(wl.spark)
    layers.install_setup(tr)
    try:
        wl.inputs = wl.setup()
    finally:
        tr.restore()
    setup_spans = (0, len(tr.spans))
    warm = wl.warmup()
    plain = Ledger()
    ops_plain = wl.round(plain)
    replays = wl.replay(ops_plain, plain)
    first = len(tr.spans)
    traced_ledger = Ledger()
    ops_traced = wl.traced_round(tr, traced_ledger)
    op_spans = (first, len(tr.spans))
    # The traced round must give the same D' and F1 as the plain one.
    wl.check(plain, ops_plain + ops_traced, warm)
    metrics = layers.layer_metrics(tr, setup_spans, op_spans, wl.spark_layers(ops_plain, replays, tr))
    e2e_plain, e2e_traced = wl.e2e(plain), wl.e2e(traced_ledger)
    for name in ("simplify", "baseline", "eval"):
        metrics[f"trace.{name}_overhead"] = e2e_traced[f"{name}_s"] / e2e_plain[f"{name}_s"] - 1.0
    return plain, ops_plain + ops_traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import common

    common.configure_environment()
    try:
        declared = declared_metrics(bool(args.trace))
        from workloads import WORKLOADS

        cls = WORKLOADS[args.workload]
        spark = common.SparkHandle() if cls.needs_spark else None
        try:
            wl = cls(args.seed, spark)
            if args.trace:
                ledger, ops, metrics = traced(wl)
            else:
                ledger, ops, metrics = untraced(wl, args.seconds)
        finally:
            if spark is not None:
                spark.close()
    finally:
        common.cleanup_environment()

    if set(metrics) != set(declared):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
                         "differ from BENCHMARK.json")
    for problem in ledger.problems:
        print(f"perfbench: check failed: {problem}")
    for key, f1 in {op.key: op.output for op in ops if op.kind == "eval"}.items():
        print(f"perfbench: eval{key} F1 {json.dumps(f1)}")
    result = {
        "correct": not ledger.problems,
        "attempted": len(ops),
        "failed": sum(op.failure is not None for op in ops),
        "metrics": {k: {"value": float(metrics[k]), "unit": declared[k]} for k in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
