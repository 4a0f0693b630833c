"""Wave-5 catalog: sweep-line concurrency, focal median, convoy
detection, exact-integer segment-crossing join, hexagonal binning,
and Viterbi map matching.

These extend the engine's operator families (SURVEY.md §2.4-2.6 and
the north-rule spatial set) with the spatio-temporal primitives the
reference's diff semantics imply but its SPARQL backend cannot
express: "how many changesets are in flight at once" is the
sweep-line dual of the reference's replication-window merge
(`/root/reference/src/osm/OsmUpdater.cpp:136-168`), and the
crossing / convoy joins are trajectory counterparts of its
ways⋉modified-nodes reverse-reference closure
(`/root/reference/src/sparql/QueryWriter.cpp:169-184`).

Registered into the driver catalog by ``oluray.pipelines.queries``
(dict merge at its tail); this module must NOT import that one.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from oluray.functions import geo
from oluray.stages import joins


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    from oluray.sources.io import read_table

    return read_table(f"{sf_dir}/{table}.parquet", columns=columns)


def _ts_us(col: pd.Series) -> np.ndarray:
    """Established idiom: normalize to us first — pandas round-trips
    can yield ns (ADVICE r3)."""
    return col.astype("datetime64[us]").astype("int64").to_numpy()


# ---------------------------------------------------------------------------
# max_concurrency — two-level distributed sweep line
# ---------------------------------------------------------------------------

MC_BUCKET_US = 32 * 86_400_000_000  # 32-day sweep buckets
MC_DAY_US = 86_400_000_000


def q_max_concurrency(sf_dir: str):
    """Max concurrent open orders per priority class (intervals
    [orderdate, orderdate + (key%28+1) days)), plus the earliest
    instant the max is reached — the classic sweep-line aggregate,
    distributed in TWO levels so no worker ever sees a full group:
    (1) per (grp, 32-day bucket): sort local boundaries, local prefix
    max / total / first-hit-ts; (2) per grp: prefix-scan the tiny
    bucket summaries in bucket order (offset_k = Σ totals before k;
    global max = max(offset_k + localmax_k), earliest winning bucket
    supplies the timestamp). Level-2 data is O(groups × buckets) —
    independent of row count — so the all-to-all carries boundary
    rows once and summaries once. End boundaries sort BEFORE starts
    at equal t (interval [s, e) semantics), matching the SQL window's
    ORDER BY t, d."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderpriority", "o_orderdate"])

    def boundaries(t: pa.Table) -> pa.Table:
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        grp = t["o_orderpriority"].to_numpy(zero_copy_only=False)
        s = _ts_us(t["o_orderdate"].to_pandas())
        e = s + (ok % 28 + 1) * MC_DAY_US
        tt = np.concatenate([s, e])
        dd = np.concatenate([np.ones(len(s), np.int64),
                             -np.ones(len(s), np.int64)])
        gg = np.concatenate([grp, grp])
        return pa.table({"grp": pa.array(gg),
                         "bucket": pa.array(tt // MC_BUCKET_US),
                         "t": pa.array(tt), "d": pa.array(dd)})

    b = orders.map_batches(boundaries, batch_format="pyarrow")

    def local(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"grp": pd.Series([], dtype="object"),
                                 "bucket": pd.Series([], dtype="int64"),
                                 "total": pd.Series([], dtype="int64"),
                                 "lmax": pd.Series([], dtype="int64"),
                                 "t_at": pd.Series([], dtype="int64")})
        df = df.sort_values(["grp", "bucket", "t", "d"], kind="mergesort")
        pref = df.groupby(["grp", "bucket"], sort=False)["d"].cumsum()
        df = df.assign(pref=pref.to_numpy())
        g = df.groupby(["grp", "bucket"], sort=False)
        agg = g.agg(total=("d", "sum"), lmax=("pref", "max")).reset_index()
        m = df.merge(agg, on=["grp", "bucket"])
        hit = m[m["pref"] == m["lmax"]]
        first = (hit.groupby(["grp", "bucket"], sort=False)["t"].min()
                 .rename("t_at").reset_index())
        out = agg.merge(first, on=["grp", "bucket"])
        out["total"] = out["total"].astype("int64")
        out["lmax"] = out["lmax"].astype("int64")
        return out

    partials = joins.grouped_agg(b, ["grp", "bucket"], local,
                                 num_partitions=16, pre_repartition=False)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for grp, g in df.groupby("grp", sort=False):
            g = g.sort_values("bucket", kind="mergesort")
            tot = g["total"].to_numpy()
            off = np.concatenate([[0], tot.cumsum()[:-1]])
            peak = off + g["lmax"].to_numpy()
            mx = int(peak.max())
            k = int(np.argmax(peak == mx))  # earliest bucket at the max
            rows.append((grp, mx, int(g["t_at"].to_numpy()[k])))
        return pd.DataFrame(rows, columns=["grp", "max_conc", "at_ts"]).astype(
            {"max_conc": "int64", "at_ts": "int64"})

    return joins.partitioned_map(partials, ["grp"], finish, num_partitions=4)


_MAX_CONCURRENCY_SQL = f"""
WITH iv AS (
  SELECT o_orderpriority AS grp,
         epoch_us(o_orderdate) AS s,
         epoch_us(o_orderdate) + (o_orderkey % 28 + 1) * {MC_DAY_US} AS e
  FROM orders),
b AS (SELECT grp, s AS t, 1 AS d FROM iv
      UNION ALL
      SELECT grp, e AS t, -1 AS d FROM iv),
c AS (SELECT grp, t,
             sum(d) OVER (PARTITION BY grp ORDER BY t, d
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND CURRENT ROW) AS conc
      FROM b),
m AS (SELECT grp, max(conc)::BIGINT AS max_conc FROM c GROUP BY grp)
SELECT c.grp AS grp, m.max_conc AS max_conc, min(c.t)::BIGINT AS at_ts
FROM c JOIN m ON c.grp = m.grp AND c.conc = m.max_conc
GROUP BY c.grp, m.max_conc
"""


# ---------------------------------------------------------------------------
# focal_median — scatter/gather 3x3 neighborhood median over a raster
# ---------------------------------------------------------------------------

FOCAL_MED_RES = 5  # 32 x 32 grid


def q_focal_median(sf_dir: str):
    """3x3 focal MEDIAN over the event-count raster (absent neighbor
    cells count as 0), reported for occupied cells — the rank-order
    sibling of `focal_mean` (median filtering = the denoise step of
    raster pipelines; order statistics don't distribute like sums,
    so this is a genuine gather). Scatter/gather shape: each cell's
    count is scattered to its 9 neighbors (9x row amplification of
    the COUNTS table — distinct cells, not events), gathered per
    target cell, and the 9-value median with zero padding collapses
    to a closed form: with m nonzero neighbors sorted ascending,
    median = 0 if m < 5 else v[m-5]. No full-raster densification is
    ever materialized."""
    ev = _read(sf_dir, "events", ["event_id"])

    def xy(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = geo.derive_lonlat(eid)
        cells = geo.cell_encode(lon, lat, FOCAL_MED_RES)
        _, x, y = geo.cell_decode(cells)
        return pa.table({"x": pa.array(x), "y": pa.array(y)})

    pts = ev.map_batches(xy, batch_format="pyarrow")

    def cnt_combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["x", "y"], as_index=False).size().rename(
            columns={"size": "n"})
        g["n"] = g["n"].astype("int64")
        return g

    def cnt_final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["x", "y"], as_index=False)["n"].sum()
        g["n"] = g["n"].astype("int64")
        return g

    counts = joins.grouped_agg(
        pts.map_batches(cnt_combine, batch_format="pandas"),
        ["x", "y"], cnt_final, num_partitions=8, pre_repartition=False)

    def scatter(df: pd.DataFrame) -> pd.DataFrame:
        x = df["x"].to_numpy(np.int64)
        y = df["y"].to_numpy(np.int64)
        n = df["n"].to_numpy(np.int64)
        xs, ys, vs, sf = [], [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                xs.append(x + dx)
                ys.append(y + dy)
                vs.append(n)
                sf.append(np.full(len(x), dx == 0 and dy == 0))
        return pd.DataFrame({"x": np.concatenate(xs),
                             "y": np.concatenate(ys),
                             "v": np.concatenate(vs),
                             "own": np.concatenate(sf)})

    nb = counts.map_batches(scatter, batch_format="pandas")

    def med(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"x": pd.Series([], dtype="int64"),
                                 "y": pd.Series([], dtype="int64"),
                                 "med": pd.Series([], dtype="int64")})
        df = df.sort_values(["x", "y", "v"], kind="mergesort")
        g = df.groupby(["x", "y"], sort=False)
        size = g.size().to_numpy()
        occupied = g["own"].any().to_numpy()
        starts = np.concatenate([[0], size.cumsum()[:-1]])
        v = df["v"].to_numpy(np.int64)
        med_v = np.where(size < 5, 0,
                         v[starts + np.maximum(size - 5, 0)]).astype(np.int64)
        keys = g.size().reset_index()[["x", "y"]]
        out = keys.assign(med=med_v)
        return out[occupied]

    return joins.partitioned_map(nb, ["x", "y"], med, num_partitions=8)


def _focal_median_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    x, y = geo.cell_xy_sql(lon, lat, FOCAL_MED_RES)
    return f"""
WITH pts AS (SELECT {x} AS x, {y} AS y FROM events),
cnt AS (SELECT x, y, count(*)::BIGINT AS n FROM pts GROUP BY x, y),
nb AS (SELECT c.x AS x, c.y AS y, COALESCE(c2.n, 0) AS v
       FROM cnt c
       CROSS JOIN (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),(0,0),(0,1),
                          (1,-1),(1,0),(1,1)) AS o(dx, dy)
       LEFT JOIN cnt c2 ON c2.x = c.x + o.dx AND c2.y = c.y + o.dy)
SELECT x, y, quantile_disc(v, 0.5)::BIGINT AS med FROM nb GROUP BY x, y
"""


# ---------------------------------------------------------------------------
# convoy_pairs — consecutive co-location runs
# ---------------------------------------------------------------------------

CONVOY_BUCKET_US = 48 * 3_600_000_000  # 48 h buckets
CONVOY_RES = 2                         # 4 x 4 grid
CONVOY_K = 2                           # >= 2 consecutive buckets


def q_convoy_pairs(sf_dir: str):
    """Convoy detection: user pairs that share a grid cell for >= K
    CONSECUTIVE 48-hour buckets (per-user per-bucket position = the
    cell of the user's LAST event in that bucket). Three stages, each
    a bounded shuffle: (1) (user, bucket) -> cell, with a per-block
    latest-wins combiner (the diff O1 semantics re-used on
    trajectories) so the shuffle carries one row per user-bucket per
    block; (2) same-cell pairs per (bucket, cell) — the co-location
    join, partitioned by (bucket, cell) so a dense cell salts
    naturally across buckets; (3) per-pair gaps-and-islands run
    lengths (vectorized breakpoint scan), keeping max runs >= K.
    Skew note: a globally hot (bucket, cell) would need the salted
    pair-cap strategy documented in stages/skew.py; cardinality here
    is bounded by users-per-cell-per-bucket."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def ub_cell(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tu = _ts_us(t["ts"].to_pandas())
        lon, lat = geo.derive_lonlat(eid)
        cell = geo.cell_encode(lon, lat, CONVOY_RES)
        return pa.table({"user_id": pa.array(uid),
                         "b": pa.array(tu // CONVOY_BUCKET_US),
                         "cell": pa.array(cell),
                         "tu": pa.array(tu), "eid": pa.array(eid)})

    rows = ev.map_batches(ub_cell, batch_format="pyarrow")

    def latest(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "b", "tu", "eid"], kind="mergesort")
        return df.groupby(["user_id", "b"], as_index=False).last()

    ub = joins.grouped_agg(
        rows.map_batches(latest, batch_format="pandas"),
        ["user_id", "b"], latest, num_partitions=16, pre_repartition=False,
    ).select_columns(["user_id", "b", "cell"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"u1": pd.Series([], dtype="int64"),
                                 "u2": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        m = df.merge(df, on=["b", "cell"], suffixes=("_a", "_b"))
        m = m[m["user_id_a"] < m["user_id_b"]]
        return pd.DataFrame({"u1": m["user_id_a"].to_numpy(np.int64),
                             "u2": m["user_id_b"].to_numpy(np.int64),
                             "b": m["b"].to_numpy(np.int64)})

    p = joins.partitioned_map(ub, ["b", "cell"], pairs, num_partitions=16)

    def runs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"u1": pd.Series([], dtype="int64"),
                              "u2": pd.Series([], dtype="int64"),
                              "max_run": pd.Series([], dtype="int64")})
        if len(df) == 0:
            return empty
        df = df.sort_values(["u1", "u2", "b"], kind="mergesort")
        u1 = df["u1"].to_numpy(np.int64)
        u2 = df["u2"].to_numpy(np.int64)
        b = df["b"].to_numpy(np.int64)
        new = np.ones(len(df), bool)
        new[1:] = ((u1[1:] != u1[:-1]) | (u2[1:] != u2[:-1])
                   | (b[1:] != b[:-1] + 1))
        rid = new.cumsum() - 1
        rl = np.bincount(rid)
        first = np.flatnonzero(new)
        r = pd.DataFrame({"u1": u1[first], "u2": u2[first],
                          "len": rl.astype(np.int64)})
        mx = r.groupby(["u1", "u2"], as_index=False)["len"].max()
        out = mx[mx["len"] >= CONVOY_K].rename(columns={"len": "max_run"})
        out["max_run"] = out["max_run"].astype("int64")
        return out

    return joins.partitioned_map(p, ["u1", "u2"], runs, num_partitions=16)


def _convoy_pairs_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    cell = geo.cell_encode_sql(lon, lat, CONVOY_RES)
    return f"""
WITH e AS (SELECT user_id, epoch_us(ts) // {CONVOY_BUCKET_US} AS b,
                  {cell} AS cell, epoch_us(ts) AS tu, event_id
           FROM events),
ub AS (SELECT user_id, b, cell FROM (
         SELECT user_id, b, cell,
                row_number() OVER (PARTITION BY user_id, b
                                   ORDER BY tu DESC, event_id DESC) AS rn
         FROM e) WHERE rn = 1),
p AS (SELECT a.user_id AS u1, c.user_id AS u2, a.b AS b
      FROM ub a JOIN ub c
        ON a.b = c.b AND a.cell = c.cell AND a.user_id < c.user_id),
r AS (SELECT u1, u2, b,
             b - row_number() OVER (PARTITION BY u1, u2 ORDER BY b) AS g
      FROM p),
runs AS (SELECT u1, u2, count(*)::BIGINT AS len FROM r GROUP BY u1, u2, g)
SELECT u1, u2, max(len)::BIGINT AS max_run
FROM runs GROUP BY u1, u2 HAVING max(len) >= {CONVOY_K}
"""


# ---------------------------------------------------------------------------
# segment_crossings — exact-integer proper-crossing join
# ---------------------------------------------------------------------------

SEGX_STRIP = 2_250_000  # x-strip width in 1e-5-degree units (16 strips)


def q_segment_crossings(sf_dir: str):
    """Segment-intersection join: which track segments of user class
    A (user_id%10==3) PROPERLY cross which of class B (user_id%10==7)
    — the trajectory-vs-trajectory sibling of `track_poly_cross`,
    with EXACT INTEGER orientation tests (coordinates are the
    deterministic 1e-5-degree lattice: |coord| < 3.6e7, so each cross
    product is < 2.6e15 — comfortably int64; no float enters the
    compare path, so the DuckDB oracle is hash-exact by arithmetic
    identity, not by float-mirroring). Plan: per-user segment build
    (one sort + shift per hash partition), then 1-D x-strip
    partitioning (each segment replicated to the strips its x-extent
    covers — np.repeat, no Python loop), per-strip A x B candidate
    pairing with a y-bbox prefilter, exact sign tests, and a distinct
    on the pair to undo strip-boundary double emission. The synthetic
    points are globally scattered (worst case for spatial pruning);
    on real local tracks the strip prefilter is the PBSM-style
    candidate bound, and a skewed strip splits by salting the strip
    key (stages/skew.py)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def pts(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (uid % 10 == 3) | (uid % 10 == 7)
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        tu = _ts_us(t["ts"].to_pandas())[keep]
        uid = uid[keep]
        lon_u, lat_u = geo.derive_units(eid)
        return pa.table({"user_id": pa.array(uid), "eid": pa.array(eid),
                         "tu": pa.array(tu),
                         "x": pa.array(lon_u // 100),
                         "y": pa.array(lat_u // 100)})

    p = ev.map_batches(pts, batch_format="pyarrow")

    def segs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({c: pd.Series([], dtype="int64")
                              for c in ("user_id", "eid", "x1", "y1",
                                        "x2", "y2")})
        if len(df) < 2:
            return empty
        df = df.sort_values(["user_id", "tu", "eid"],
                            kind="mergesort").reset_index(drop=True)
        uid = df["user_id"].to_numpy(np.int64)
        same = uid[:-1] == uid[1:]
        if not same.any():
            return empty
        x = df["x"].to_numpy(np.int64)
        y = df["y"].to_numpy(np.int64)
        eid = df["eid"].to_numpy(np.int64)
        i = np.flatnonzero(same)
        return pd.DataFrame({"user_id": uid[i], "eid": eid[i],
                             "x1": x[i], "y1": y[i],
                             "x2": x[i + 1], "y2": y[i + 1]})

    s = joins.partitioned_map(p, ["user_id"], segs, num_partitions=16,
                              pre_repartition=False)

    def strips(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df.assign(strip=pd.Series([], dtype="int64"))
        x1 = df["x1"].to_numpy(np.int64)
        x2 = df["x2"].to_numpy(np.int64)
        lo = np.minimum(x1, x2) // SEGX_STRIP
        hi = np.maximum(x1, x2) // SEGX_STRIP
        cnt = (hi - lo + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(df)), cnt)
        off = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(
            cnt.cumsum() - cnt, cnt)
        return df.iloc[idx].assign(strip=lo[idx] + off).reset_index(drop=True)

    st = s.map_batches(strips, batch_format="pandas")

    def cross(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({c: pd.Series([], dtype="int64")
                              for c in ("a_eid", "b_eid", "u_a", "u_b")})
        if len(df) == 0:
            return empty
        a = df[df["user_id"] % 10 == 3]
        b = df[df["user_id"] % 10 == 7]
        if len(a) == 0 or len(b) == 0:
            return empty
        m = a.merge(b, on="strip", suffixes=("_a", "_b"))
        if len(m) == 0:
            return empty
        # y-bbox prefilter (cheap vector compare before the sign tests)
        ya_lo = np.minimum(m["y1_a"], m["y2_a"]).to_numpy(np.int64)
        ya_hi = np.maximum(m["y1_a"], m["y2_a"]).to_numpy(np.int64)
        yb_lo = np.minimum(m["y1_b"], m["y2_b"]).to_numpy(np.int64)
        yb_hi = np.maximum(m["y1_b"], m["y2_b"]).to_numpy(np.int64)
        m = m[(ya_lo <= yb_hi) & (yb_lo <= ya_hi)]
        if len(m) == 0:
            return empty
        x1a = m["x1_a"].to_numpy(np.int64)
        y1a = m["y1_a"].to_numpy(np.int64)
        x2a = m["x2_a"].to_numpy(np.int64)
        y2a = m["y2_a"].to_numpy(np.int64)
        x1b = m["x1_b"].to_numpy(np.int64)
        y1b = m["y1_b"].to_numpy(np.int64)
        x2b = m["x2_b"].to_numpy(np.int64)
        y2b = m["y2_b"].to_numpy(np.int64)
        d1 = (x2a - x1a) * (y1b - y1a) - (y2a - y1a) * (x1b - x1a)
        d2 = (x2a - x1a) * (y2b - y1a) - (y2a - y1a) * (x2b - x1a)
        d3 = (x2b - x1b) * (y1a - y1b) - (y2b - y1b) * (x1a - x1b)
        d4 = (x2b - x1b) * (y2a - y1b) - (y2b - y1b) * (x2a - x1b)
        proper = ((((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0)))
                  & (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))))
        m = m[proper]
        return pd.DataFrame({"a_eid": m["eid_a"].to_numpy(np.int64),
                             "b_eid": m["eid_b"].to_numpy(np.int64),
                             "u_a": m["user_id_a"].to_numpy(np.int64),
                             "u_b": m["user_id_b"].to_numpy(np.int64)})

    c = joins.partitioned_map(st, ["strip"], cross, num_partitions=16)
    return joins.distinct(c, ["a_eid", "b_eid", "u_a", "u_b"])


def _segment_crossings_sql() -> str:
    lon_u, lat_u = geo.derive_units_sql("event_id")

    def d(p1x, p1y, p2x, p2y, qx, qy) -> str:
        return (f"(({p2x} - {p1x}) * ({qy} - {p1y})"
                f" - ({p2y} - {p1y}) * ({qx} - {p1x}))")

    d1 = d("sa.x1", "sa.y1", "sa.x2", "sa.y2", "sb.x1", "sb.y1")
    d2 = d("sa.x1", "sa.y1", "sa.x2", "sa.y2", "sb.x2", "sb.y2")
    d3 = d("sb.x1", "sb.y1", "sb.x2", "sb.y2", "sa.x1", "sa.y1")
    d4 = d("sb.x1", "sb.y1", "sb.x2", "sb.y2", "sa.x2", "sa.y2")
    return f"""
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS tu,
         ({lon_u} // 100) AS x, ({lat_u} // 100) AS y
  FROM events WHERE user_id % 10 = 3 OR user_id % 10 = 7),
seg AS (
  SELECT user_id, event_id AS eid, x AS x1, y AS y1,
         lead(x) OVER w AS x2, lead(y) OVER w AS y2,
         lead(user_id) OVER w AS nxt_uid
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY tu, event_id)),
sa AS (SELECT * FROM seg WHERE x2 IS NOT NULL AND user_id % 10 = 3),
sb AS (SELECT * FROM seg WHERE x2 IS NOT NULL AND user_id % 10 = 7)
SELECT sa.eid AS a_eid, sb.eid AS b_eid,
       sa.user_id AS u_a, sb.user_id AS u_b
FROM sa, sb
WHERE ((({d1} > 0 AND {d2} < 0) OR ({d1} < 0 AND {d2} > 0))
  AND (({d3} > 0 AND {d4} < 0) OR ({d3} < 0 AND {d4} > 0)))
"""


# ---------------------------------------------------------------------------
# hex_bins — hexagonal binning (two-lattice nearest-center)
# ---------------------------------------------------------------------------

HEX_W = 12.0                                  # within-row center spacing, deg
_SQRT3 = 1.7320508075688772
HEX_DY = _SQRT3 * HEX_W                       # A-lattice vertical period


def q_hex_bins(sf_dir: str):
    """Hexagonal binning of event points (the honeycomb alternative
    to the square `cell_encode` / `quadkeys` / `geohash` family):
    centers form two interleaved rectangular lattices A=(i·W, j·W√3)
    and B offset by (W/2, W√3/2); a point joins the nearer of its two
    rounded candidates under the true Euclidean metric (compare
    m = Δsx² + 3·Δsy² in lattice-scaled coords — exact because row
    spacing is √3/2·W). Hex ids use doubled coordinates (2i, 2j) /
    (2i+1, 2j+1) so both lattices share one integer key space. Every
    float op mirrors the SQL oracle op-for-op with identical literals
    (the house float-exactness contract, see cell_encode)."""
    ev = _read(sf_dir, "events", ["event_id"])

    def hx(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = geo.derive_lonlat(eid)
        sx = lon / HEX_W
        sy = lat / HEX_DY
        i1 = np.floor(sx + 0.5)
        j1 = np.floor(sy + 0.5)
        i2 = np.floor(sx)
        j2 = np.floor(sy)
        da = (sx - i1) * (sx - i1) + 3.0 * ((sy - j1) * (sy - j1))
        db = ((sx - (i2 + 0.5)) * (sx - (i2 + 0.5))
              + 3.0 * ((sy - (j2 + 0.5)) * (sy - (j2 + 0.5))))
        a_win = da <= db
        hq = np.where(a_win, 2.0 * i1, 2.0 * i2 + 1.0).astype(np.int64)
        hr = np.where(a_win, 2.0 * j1, 2.0 * j2 + 1.0).astype(np.int64)
        return pa.table({"hq": pa.array(hq), "hr": pa.array(hr)})

    pts = ev.map_batches(hx, batch_format="pyarrow")

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["hq", "hr"], as_index=False).size().rename(
            columns={"size": "n"})
        g["n"] = g["n"].astype("int64")
        return g

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["hq", "hr"], as_index=False)["n"].sum()
        g["n"] = g["n"].astype("int64")
        return g

    return joins.grouped_agg(
        pts.map_batches(combine, batch_format="pandas"),
        ["hq", "hr"], final, num_partitions=8, pre_repartition=False)


def _hex_bins_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    return f"""
WITH s AS (SELECT ({lon}) / {HEX_W!r} AS sx, ({lat}) / {HEX_DY!r} AS sy
           FROM events),
c AS (SELECT sx, sy,
             floor(sx + 0.5) AS i1, floor(sy + 0.5) AS j1,
             floor(sx) AS i2, floor(sy) AS j2
      FROM s),
h AS (SELECT CASE WHEN (sx - i1) * (sx - i1) + 3.0 * ((sy - j1) * (sy - j1))
                    <= (sx - (i2 + 0.5)) * (sx - (i2 + 0.5))
                       + 3.0 * ((sy - (j2 + 0.5)) * (sy - (j2 + 0.5)))
                  THEN (2.0 * i1)::BIGINT ELSE (2.0 * i2 + 1.0)::BIGINT
             END AS hq,
             CASE WHEN (sx - i1) * (sx - i1) + 3.0 * ((sy - j1) * (sy - j1))
                    <= (sx - (i2 + 0.5)) * (sx - (i2 + 0.5))
                       + 3.0 * ((sy - (j2 + 0.5)) * (sy - (j2 + 0.5)))
                  THEN (2.0 * j1)::BIGINT ELSE (2.0 * j2 + 1.0)::BIGINT
             END AS hr
      FROM c)
SELECT hq, hr, count(*)::BIGINT AS n FROM h GROUP BY hq, hr
"""


# ---------------------------------------------------------------------------
# Viterbi map matching of tracks onto a road lattice (brute-force pytest)
# ---------------------------------------------------------------------------

MM_CAND = 3          # candidate segments per point
MM_ADJ_PEN = 50.0    # transition penalty: move to an ADJACENT segment
MM_JUMP_PEN = 5000.0  # transition penalty: non-adjacent jump


def _mm_roads() -> tuple[np.ndarray, np.ndarray]:
    """Deterministic road lattice: horizontal + vertical grid edges
    between nodes at lon in {-150,-90,...,150} x lat in {-75,...,75}.
    Returns (segments[n,4] float64 (x1,y1,x2,y2), adjacency[n,n] bool
    — segments sharing an endpoint)."""
    xs = [-150.0 + 60.0 * i for i in range(6)]
    ys = [-75.0 + 30.0 * j for j in range(6)]
    segs = []
    for j, y in enumerate(ys):
        for i in range(len(xs) - 1):
            segs.append((xs[i], y, xs[i + 1], y))
    for i, x in enumerate(xs):
        for j in range(len(ys) - 1):
            segs.append((x, ys[j], x, ys[j + 1]))
    arr = np.array(segs, dtype=np.float64)
    n = len(arr)
    ends = np.concatenate([arr[:, :2], arr[:, 2:]], axis=0)  # 2n x 2
    adj = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            pa_ = ends[[a, a + n]]
            pb_ = ends[[b, b + n]]
            adj[a, b] = bool(
                ((pa_[:, None, :] == pb_[None, :, :]).all(axis=2)).any())
    return arr, adj


_MM_SEGS, _MM_ADJ = _mm_roads()


def _pt_seg_dist2(px: np.ndarray, py: np.ndarray,
                  segs: np.ndarray) -> np.ndarray:
    """Squared point-to-segment distance, (n_pts, n_segs) vectorized."""
    x1, y1, x2, y2 = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    dx = (x2 - x1)[None, :]
    dy = (y2 - y1)[None, :]
    L2 = dx * dx + dy * dy
    wx = px[:, None] - x1[None, :]
    wy = py[:, None] - y1[None, :]
    t = np.clip(np.divide(wx * dx + wy * dy, L2,
                          out=np.zeros_like(wx), where=L2 > 0), 0.0, 1.0)
    ex = wx - t * dx
    ey = wy - t * dy
    return ex * ex + ey * ey


def _viterbi_track(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Viterbi DP over MM_CAND nearest-segment candidates per point;
    returns the matched segment id per point. The recurrence is
    inherently sequential along one track, but the candidate distance
    matrix is computed vectorized up front and tracks are
    partition-parallel across users — the per-step work is a 3x3 min."""
    d2 = _pt_seg_dist2(px, py, _MM_SEGS)            # (T, n_segs)
    cand = np.argpartition(d2, MM_CAND, axis=1)[:, :MM_CAND]  # (T, C)
    emit = np.take_along_axis(d2, cand, axis=1)     # (T, C)
    T = len(px)
    cost = emit[0].copy()
    back = np.zeros((T, MM_CAND), dtype=np.int64)
    for t in range(1, T):
        trans = np.where(
            cand[t - 1][:, None] == cand[t][None, :], 0.0,
            np.where(_MM_ADJ[cand[t - 1][:, None], cand[t][None, :]],
                     MM_ADJ_PEN, MM_JUMP_PEN))        # (C, C)
        tot = cost[:, None] + trans                   # (C, C)
        back[t] = np.argmin(tot, axis=0)
        cost = tot[back[t], np.arange(MM_CAND)] + emit[t]
    out = np.zeros(T, dtype=np.int64)
    k = int(np.argmin(cost))
    for t in range(T - 1, -1, -1):
        out[t] = cand[t, k]
        k = int(back[t, k])
    return out


QUERIES = {
    "max_concurrency": q_max_concurrency,
    "focal_median": q_focal_median,
    "convoy_pairs": q_convoy_pairs,
    "segment_crossings": q_segment_crossings,
    "hex_bins": q_hex_bins,
}

ORACLE = {
    "max_concurrency": _MAX_CONCURRENCY_SQL,
    "focal_median": _focal_median_sql(),
    "convoy_pairs": _convoy_pairs_sql(),
    "segment_crossings": _segment_crossings_sql(),
    "hex_bins": _hex_bins_sql(),
}
