"""Output checks made apart from the program under test.

- :func:`qdts_contract` — the QDTS contract on a simplified database D':
  schema unchanged, D' a row subset of D, both endpoints of every
  trajectory kept, and |D'| <= W (the last one is reported as a count of
  over-budget points, because two known faults break it).
- :func:`range_f1_sql` — range-query F1 recomputed in DuckDB SQL.
- :func:`reference_f1` — kNN (EDR, t2vec) and similarity F1 recomputed
  with the driver-side numpy references on the same query trajectories.
- :func:`segments_reference` — TRACLUS phase-1 segments computed per
  trajectory in pandas.
- :func:`same_rows` — two point tables hold the same rows.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

COLUMNS = ["traj_id", "seq", "x", "y", "t"]


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    return df[COLUMNS].sort_values(["traj_id", "seq"]).reset_index(drop=True)


def same_rows(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    if list(a.columns) != list(b.columns) or len(a) != len(b):
        return False
    return canonical(a).equals(canonical(b))


def qdts_contract(db: pd.DataFrame, dprime: pd.DataFrame, w: int) -> tuple[list[str], int]:
    """(violations other than the budget, points over the budget W)."""
    problems = []
    if list(dprime.columns) != COLUMNS or [str(t) for t in dprime.dtypes] != [str(t) for t in db[COLUMNS].dtypes]:
        problems.append(f"schema {list(zip(dprime.columns, map(str, dprime.dtypes)))}")
        return problems, max(0, len(dprime) - w)
    if dprime.duplicated(["traj_id", "seq"]).any():
        problems.append("duplicate (traj_id, seq) rows")
    joined = dprime.merge(db[COLUMNS], on=COLUMNS, how="left", indicator=True)
    if (joined["_merge"] != "both").any():
        problems.append(f"{int((joined['_merge'] != 'both').sum())} rows not in D")
    ends = db.groupby("traj_id")["seq"].agg(["min", "max"])
    kept = set(zip(dprime["traj_id"].to_numpy().tolist(), dprime["seq"].to_numpy().tolist()))
    missing = sum((tid, s) not in kept for tid, row in ends.iterrows() for s in (row["min"], row["max"]))
    if missing:
        problems.append(f"{missing} trajectory endpoints missing")
    return problems, max(0, len(dprime) - w)


# Points and boxes meet on 1 km grid cells first (a box covers every cell
# its x and y ranges touch), then the exact between-predicates decide.
_RANGE_SQL = """
WITH qx AS (SELECT *, unnest(range(CAST(floor(x_min / 1000) AS BIGINT),
                                    CAST(floor(x_max / 1000) AS BIGINT) + 1)) AS cx FROM q),
     qc AS (SELECT *, unnest(range(CAST(floor(y_min / 1000) AS BIGINT),
                                    CAST(floor(y_max / 1000) AS BIGINT) + 1)) AS cy FROM qx),
     dc AS (SELECT *, CAST(floor(x / 1000) AS BIGINT) AS cx, CAST(floor(y / 1000) AS BIGINT) AS cy FROM d),
     pc AS (SELECT *, CAST(floor(x / 1000) AS BIGINT) AS cx, CAST(floor(y / 1000) AS BIGINT) AS cy FROM p),
     o AS (SELECT DISTINCT qc.qid, dc.traj_id FROM qc JOIN dc USING (cx, cy)
            WHERE dc.x BETWEEN qc.x_min AND qc.x_max AND dc.y BETWEEN qc.y_min AND qc.y_max
              AND dc.t BETWEEN qc.t_min AND qc.t_max),
     s AS (SELECT DISTINCT pc.which, qc.qid, pc.traj_id FROM qc JOIN pc USING (cx, cy)
            WHERE pc.x BETWEEN qc.x_min AND qc.x_max AND pc.y BETWEEN qc.y_min AND qc.y_max
              AND pc.t BETWEEN qc.t_min AND qc.t_max),
     n_o AS (SELECT qid, count(*) AS n FROM o GROUP BY qid),
     n_s AS (SELECT which, qid, count(*) AS n FROM s GROUP BY which, qid),
     n_b AS (SELECT which, qid, count(*) AS n FROM o JOIN s USING (qid, traj_id) GROUP BY which, qid),
     per AS (SELECT w.which, coalesce(n_o.n, 0) AS no, coalesce(n_s.n, 0) AS ns, coalesce(n_b.n, 0) AS nb
             FROM (SELECT DISTINCT which FROM p) w CROSS JOIN q
             LEFT JOIN n_o ON n_o.qid = q.qid
             LEFT JOIN n_s ON n_s.qid = q.qid AND n_s.which = w.which
             LEFT JOIN n_b ON n_b.qid = q.qid AND n_b.which = w.which)
SELECT which, avg(CASE WHEN no = 0 AND ns = 0 THEN 1.0
                       WHEN no = 0 OR ns = 0 THEN 0.0
                       ELSE 2.0 * nb / (no + ns) END) AS f1
FROM per GROUP BY which
"""


def range_f1_sql(db: pd.DataFrame, dprimes: dict[str, pd.DataFrame], boxes: np.ndarray) -> dict[str, float]:
    """Mean per-box F1 of each D' against D, computed in DuckDB."""
    q = pd.DataFrame(boxes, columns=["x_min", "x_max", "y_min", "y_max", "t_min", "t_max"])
    q.insert(0, "qid", np.arange(len(q), dtype=np.int64))
    p = pd.concat([d[COLUMNS].assign(which=str(name)) for name, d in dprimes.items()], ignore_index=True)
    con = duckdb.connect()
    try:
        con.register("q", q)
        con.register("d", db[COLUMNS])
        con.register("p", p)
        return dict(con.execute(_RANGE_SQL).fetchall())
    finally:
        con.close()


def query_trajectories(db: pd.DataFrame, n: int, seed: int) -> list[tuple]:
    """The query trajectories and windows ``evaluate_query_tasks`` draws
    for seed ``seed``: ``n`` distinct trajectories of D, each with its own
    span trimmed by 10 % at both ends."""
    rng = np.random.default_rng(seed)
    tids = db["traj_id"].unique()
    out = []
    for tid in rng.choice(tids, size=min(n, len(tids)), replace=False):
        q = db[db["traj_id"] == tid].sort_values("seq")
        t0, t1 = q["t"].min(), q["t"].max()
        span = t1 - t0
        out.append((int(tid), q, (t0 + 0.1 * span, t1 - 0.1 * span)))
    return out


def reference_f1(db: pd.DataFrame, dprime: pd.DataFrame, queries: list[tuple], k: int) -> dict[str, float]:
    """kNN-EDR, kNN-t2vec and similarity F1 from the numpy references."""
    from repro.queries.knn import knn_query_numpy
    from repro.queries.measures import f1
    from repro.queries.similarity import similarity_query_numpy

    out = {}
    for task, measure in (("knn_edr", "edr"), ("knn_t2vec", "t2vec")):
        out[task] = float(np.mean([
            f1(knn_query_numpy(db, q, k=k, window=w, measure=measure, exclude=tid),
               knn_query_numpy(dprime, q, k=k, window=w, measure=measure, exclude=tid))
            for tid, q, w in queries
        ]))
    out["similarity"] = float(np.mean([
        f1(similarity_query_numpy(db, q, window=w, delta=5000.0, exclude=tid),
           similarity_query_numpy(dprime, q, window=w, delta=5000.0, exclude=tid))
        for tid, q, w in queries
    ]))
    return out


def segments_reference(db: pd.DataFrame) -> pd.DataFrame:
    """Characteristic segments of every trajectory, per trajectory in pandas."""
    from repro.queries.clustering import characteristic_points

    frames = []
    for tid, g in db.groupby("traj_id"):
        g = g.sort_values("seq")
        x, y = g["x"].to_numpy(), g["y"].to_numpy()
        cp = characteristic_points(x, y)
        if len(cp) < 2:
            continue
        frames.append(pd.DataFrame({"traj_id": int(tid), "sx": x[cp[:-1]], "sy": y[cp[:-1]],
                                    "ex": x[cp[1:]], "ey": y[cp[1:]]}))
    return pd.concat(frames, ignore_index=True)


def same_segments(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    cols = ["traj_id", "sx", "sy", "ex", "ey"]
    if len(a) != len(b):
        return False
    a = a[cols].sort_values(cols).reset_index(drop=True).astype({"traj_id": "int64"})
    b = b[cols].sort_values(cols).reset_index(drop=True).astype({"traj_id": "int64"})
    return a.equals(b)
