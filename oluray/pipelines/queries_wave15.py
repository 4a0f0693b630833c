"""Wave-15 catalog: EXACT supercover line rasterization and bilinear
raster sampling — the two missing precision tiers of the
raster<->vector contract.

`supercover_cells` upgrades `track_cells`' sampled rasterization to
the exact grid traversal (the vectorized Amanatides-Woo): enumerate
every gridline-crossing parameter t of each trajectory segment, cut
the segment at those t's, and classify each sub-interval's midpoint —
every cell the segment passes through, no samples missed. The float
recipe (crossing t, midpoint, lerp, floor) is mirrored operation-for-
operation in the SQL oracle, so the comparison is bit-exact; the
res-6 grid pitch (5.625 deg x 2.8125 deg) is dyadic, hence exactly
representable in binary doubles on both sides.

`bilinear_sample` is the raster->point interpolation primitive
(terrain sampling, heatmap readback): the res-6 ORDER-count raster
sampled at EVENT locations with bilinear weights in 16-bit fixed
point — output is the exact integer numerator over the constant
denominator 2^32, so the oracle compares BIGINTs, not floats.
Registered by ``oluray.pipelines.queries``.
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


# ---------------------------------------------------------------------------
# supercover_cells — exact per-segment grid traversal
# ---------------------------------------------------------------------------

SC_RES = 6
SC_N = 1 << SC_RES


def _grid_idx(v: np.ndarray, lo: float, span: float) -> np.ndarray:
    """Unclamped gridline index floor((v - lo) / span * n) — the
    shared float recipe (same op order as the SQL)."""
    return np.floor((v - lo) / span * float(SC_N))


def q_supercover_cells(sf_dir: str):
    """Exact supercover: for every consecutive event pair of a user,
    the COMPLETE set of res-6 cells the segment crosses — cut at
    every vertical/horizontal gridline crossing, classify interval
    midpoints. Output (user_id, cell, n_segments): how many of the
    user's segments traverse the cell. Vectorized ragged crossing
    enumeration (repeat/arange, no per-segment Python); segments
    never leave their user's hash partition; output is
    aggregate-sized. At 100 TB the only wide step is the user
    partition shuffle the trajectory family already shares."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def pts(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = geo.derive_lonlat(eid)
        return pa.table({
            "user_id": pa.array(t["user_id"].to_numpy(
                zero_copy_only=False).astype(np.int64)),
            "event_id": pa.array(eid),
            "tus": pa.array(t["ts"].to_pandas()
                            .astype("datetime64[us]").astype("int64")
                            .to_numpy()),
            "lon": pa.array(lon), "lat": pa.array(lat)})

    p = ev.map_batches(pts, batch_format="pyarrow")

    def supercover(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": pd.Series([], dtype="int64"),
            "cell": pd.Series([], dtype="int64"),
            "n_segments": pd.Series([], dtype="int64")})
        if len(df) < 2:
            return empty
        df = df.sort_values(["user_id", "tus", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        uid = df["user_id"].to_numpy(np.int64)
        x = df["lon"].to_numpy(np.float64)
        y = df["lat"].to_numpy(np.float64)
        m = uid[1:] == uid[:-1]
        if not m.any():
            return empty
        u0 = uid[:-1][m]
        x0, x1 = x[:-1][m], x[1:][m]
        y0, y1 = y[:-1][m], y[1:][m]
        ns = len(u0)

        def crossings(a0, a1, lo, span):
            k0 = _grid_idx(a0, lo, span).astype(np.int64)
            k1 = _grid_idx(a1, lo, span).astype(np.int64)
            klo, khi = np.minimum(k0, k1), np.maximum(k0, k1)
            cnt = khi - klo
            sid = np.repeat(np.arange(ns), cnt)
            if len(sid) == 0:
                return sid, np.array([], np.float64)
            off = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            within = np.arange(len(sid)) - np.repeat(off, cnt)
            k = klo[sid] + 1 + within
            # gridline coordinate: lo + k * (span / n), dyadic-exact
            ak = lo + k.astype(np.float64) * (span / float(SC_N))
            t = (ak - a0[sid]) / (a1 - a0)[sid]
            return sid, t

        sx, tx = crossings(x0, x1, -180.0, 360.0)
        sy, ty = crossings(y0, y1, -90.0, 180.0)
        sid_all = np.concatenate([np.arange(ns), np.arange(ns), sx, sy])
        t_all = np.concatenate([np.zeros(ns), np.ones(ns), tx, ty])
        order = np.lexsort((t_all, sid_all))
        s_o, t_o = sid_all[order], t_all[order]
        # interval midpoints: consecutive entries of the same segment
        same = s_o[1:] == s_o[:-1]
        sm = s_o[:-1][same]
        tm = (t_o[:-1][same] + t_o[1:][same]) * 0.5
        px = x0[sm] + (x1 - x0)[sm] * tm
        py = y0[sm] + (y1 - y0)[sm] * tm
        gx = np.clip(_grid_idx(px, -180.0, 360.0), 0, SC_N - 1).astype(
            np.int64)
        gy = np.clip(_grid_idx(py, -90.0, 180.0), 0, SC_N - 1).astype(
            np.int64)
        cell = SC_RES * geo.RES_SHIFT + gy * geo.Y_SHIFT + gx
        # distinct cells per segment, then count segments per cell
        o2 = np.lexsort((cell, sm))
        s2, c2 = sm[o2], cell[o2]
        first = np.ones(len(s2), dtype=bool)
        first[1:] = (s2[1:] != s2[:-1]) | (c2[1:] != c2[:-1])
        out = pd.DataFrame({"user_id": u0[s2[first]],
                            "cell": c2[first]})
        g = out.groupby(["user_id", "cell"], as_index=False).size()
        return g.rename(columns={"size": "n_segments"}).astype("int64")

    return joins.partitioned_map(p, ["user_id"], supercover,
                                 num_partitions=8)


def _supercover_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    n = SC_N
    return f"""
WITH p AS (
  SELECT user_id, ts, event_id, {lon} AS x, {lat} AS y FROM events),
seg0 AS (
  SELECT user_id,
         row_number() OVER (ORDER BY user_id, ts, event_id) AS sid,
         lag(x) OVER w AS x0, lag(y) OVER w AS y0, x AS x1, y AS y1
  FROM p WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
s AS (
  SELECT user_id, sid, x0, y0, x1, y1,
         floor((x0 - -180.0) / 360.0 * {float(n)!r})::BIGINT AS kx0,
         floor((x1 - -180.0) / 360.0 * {float(n)!r})::BIGINT AS kx1,
         floor((y0 - -90.0) / 180.0 * {float(n)!r})::BIGINT AS ky0,
         floor((y1 - -90.0) / 180.0 * {float(n)!r})::BIGINT AS ky1
  FROM seg0 WHERE x0 IS NOT NULL),
tx AS (
  SELECT sid, (-180.0 + k * {360.0 / n!r} - x0) / (x1 - x0) AS t
  FROM s, unnest(generate_series(LEAST(kx0, kx1) + 1,
                                 GREATEST(kx0, kx1))) AS g(k)),
ty AS (
  SELECT sid, (-90.0 + k * {180.0 / n!r} - y0) / (y1 - y0) AS t
  FROM s, unnest(generate_series(LEAST(ky0, ky1) + 1,
                                 GREATEST(ky0, ky1))) AS g(k)),
ts_all AS (
  SELECT sid, 0.0 AS t FROM s
  UNION ALL SELECT sid, 1.0 FROM s
  UNION ALL SELECT sid, t FROM tx
  UNION ALL SELECT sid, t FROM ty),
iv AS (
  SELECT sid, (t + lead(t) OVER (PARTITION BY sid ORDER BY t)) * 0.5
           AS tm
  FROM ts_all),
sam AS (
  SELECT s.user_id, iv.sid,
         s.x0 + (s.x1 - s.x0) * iv.tm AS px,
         s.y0 + (s.y1 - s.y0) * iv.tm AS py
  FROM iv JOIN s USING (sid) WHERE iv.tm IS NOT NULL),
cells AS (
  SELECT DISTINCT user_id, sid,
         ({SC_RES} * {geo.RES_SHIFT}
          + LEAST(GREATEST(floor((py - -90.0) / 180.0 * {float(n)!r})
                           ::BIGINT, 0), {n - 1}) * {geo.Y_SHIFT}
          + LEAST(GREATEST(floor((px - -180.0) / 360.0 * {float(n)!r})
                           ::BIGINT, 0), {n - 1})) AS cell
  FROM sam)
SELECT user_id, cell, count(*)::BIGINT AS n_segments
FROM cells GROUP BY user_id, cell
"""


# ---------------------------------------------------------------------------
# bilinear_sample — fixed-point bilinear raster readback at points
# ---------------------------------------------------------------------------

BL_FP = 65536  # 16-bit fixed-point weights; denominator = FP*FP = 2^32


def q_bilinear_sample(sf_dir: str):
    """Bilinear readback: the res-6 ORDER-count raster (cell value at
    the cell center) sampled at every EVENT location. Fractional
    position quantized to 16-bit fixed point; the interpolated value
    is the exact BIGINT numerator over 2^32 — integer-exact on both
    sides. The grid is aggregate-sized (<= 4^res cells) and rides
    into the sampling stage as a dense numpy array in the task
    closure (the documented small-side broadcast); the corpus passes
    once to build it and once to sample."""
    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def cells(t: pa.Table) -> pa.Table:
        okey = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        lon, lat = geo.derive_lonlat(okey)
        c = geo.cell_encode(lon, lat, SC_RES)
        u, cnt = np.unique(c, return_counts=True)
        return pa.table({"cell": pa.array(u),
                         "n": pa.array(cnt.astype(np.int64))})

    def csum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("cell", as_index=False)["n"].sum()

    grid_rows = joins.grouped_agg(
        orders.map_batches(cells, batch_format="pyarrow"),
        ["cell"], csum, num_partitions=8, pre_repartition=False,
    ).to_pandas()  # <= 4^SC_RES rows — aggregate-sized by construction
    dense = np.zeros((SC_N + 2, SC_N + 2), dtype=np.int64)  # 0-pad ring
    rem = grid_rows["cell"].to_numpy(np.int64) - SC_RES * geo.RES_SHIFT
    dense[rem // geo.Y_SHIFT + 1, rem % geo.Y_SHIFT + 1] = (
        grid_rows["n"].to_numpy(np.int64))

    ev = _read(sf_dir, "events", ["event_id"])

    def sample(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = geo.derive_lonlat(eid)
        # continuous grid position relative to CELL CENTERS
        px = (lon + 180.0) / 360.0 * float(SC_N) - 0.5
        py = (lat + 90.0) / 180.0 * float(SC_N) - 0.5
        fx = np.floor(px).astype(np.int64)
        fy = np.floor(py).astype(np.int64)
        wx = np.floor((px - fx) * float(BL_FP)).astype(np.int64)
        wy = np.floor((py - fy) * float(BL_FP)).astype(np.int64)
        # gather the 4 corners through the zero-pad ring (fx in
        # [-1, SC_N-1] by construction, +1 shifts into the pad frame)
        v00 = dense[fy + 1, fx + 1]
        v10 = dense[fy + 1, fx + 2]
        v01 = dense[fy + 2, fx + 1]
        v11 = dense[fy + 2, fx + 2]
        num = (v00 * (BL_FP - wx) * (BL_FP - wy)
               + v10 * wx * (BL_FP - wy)
               + v01 * (BL_FP - wx) * wy
               + v11 * wx * wy)
        return pa.table({"event_id": pa.array(eid),
                         "bl_num": pa.array(num)})

    return ev.map_batches(sample, batch_format="pyarrow")


def _bilinear_sql() -> str:
    olon, olat = geo.derive_lonlat_sql("o_orderkey")
    elon, elat = geo.derive_lonlat_sql("event_id")
    n, fp = SC_N, BL_FP
    return f"""
WITH grid AS (
  SELECT LEAST(GREATEST(floor(((lon + 180.0) / 360.0) * {float(n)!r})
               ::BIGINT, 0), {n - 1}) AS gx,
         LEAST(GREATEST(floor(((lat + 90.0) / 180.0) * {float(n)!r})
               ::BIGINT, 0), {n - 1}) AS gy,
         count(*)::BIGINT AS v
  FROM (SELECT {olon} AS lon, {olat} AS lat FROM orders) GROUP BY 1, 2),
pt AS (
  SELECT event_id,
         (lon + 180.0) / 360.0 * {float(n)!r} - 0.5 AS px,
         (lat + 90.0) / 180.0 * {float(n)!r} - 0.5 AS py
  FROM (SELECT event_id, {elon} AS lon, {elat} AS lat FROM events)),
w AS (
  SELECT event_id, floor(px)::BIGINT AS fx, floor(py)::BIGINT AS fy,
         floor((px - floor(px)) * {float(fp)!r})::BIGINT AS wx,
         floor((py - floor(py)) * {float(fp)!r})::BIGINT AS wy
  FROM pt)
SELECT w.event_id,
       (COALESCE(g00.v, 0) * ({fp} - wx) * ({fp} - wy)
        + COALESCE(g10.v, 0) * wx * ({fp} - wy)
        + COALESCE(g01.v, 0) * ({fp} - wx) * wy
        + COALESCE(g11.v, 0) * wx * wy)::BIGINT AS bl_num
FROM w
LEFT JOIN grid g00 ON g00.gx = w.fx     AND g00.gy = w.fy
LEFT JOIN grid g10 ON g10.gx = w.fx + 1 AND g10.gy = w.fy
LEFT JOIN grid g01 ON g01.gx = w.fx     AND g01.gy = w.fy + 1
LEFT JOIN grid g11 ON g11.gx = w.fx + 1 AND g11.gy = w.fy + 1
"""


QUERIES = {
    "supercover_cells": q_supercover_cells,
    "bilinear_sample": q_bilinear_sample,
}

ORACLE = {
    "supercover_cells": _supercover_sql(),
    "bilinear_sample": _bilinear_sql(),
}
