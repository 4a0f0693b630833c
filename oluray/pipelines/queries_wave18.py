"""Wave-18 catalog: Getis-Ord Gi* hotspot components, grouped exact
ROC AUC, and morphological cell dilation.

`getis_gi` is the local hotspot statistic (Getis-Ord Gi*) behind
every "where is activity anomalously clustered" map, computed in
EXACT integers on the occupied-cell lattice: queen (8-neighbor +
self) binary weights over OCCUPIED cells, per-cell local sum
L_i = sum of neighbor counts, neighborhood size w_i, and the exact
z-score NUMERATOR gnum_i = n*L_i - w_i*S (positive => hot). The
denominator needs a sqrt, so the query emits the integer components and
leaves the irrational division to the caller — the compare path
stays bit-exact. Mirrors the reference's per-cell "which tiles does
a change affect" closure re-expressed as a statistic
(/root/reference/src/osm/OsmChangeHandler.cpp:217-262 reverse-ref
neighborhood shape).

`auc_score` is grouped ROC AUC — THE eval metric for binary
classifiers — as an exact rational per group: with tie-averaged
ranks, AUC = U / (n_pos*n_neg) where
2U = sum over score values of 2*pos_v*neg_below_v + pos_v*neg_v.
The corpus passes once through a (lang, score) combiner; the
per-lang cumulative runs on the aggregate-sized distinct-score
table. Output (lang, u2, n_pos, n_neg) BIGINTs.

`cell_dilate` is binary morphological dilation (the buffer /
grow-region primitive of raster GIS): every occupied event cell
donates to its 3x3 Chebyshev neighborhood (edge-clipped, no wrap);
output = dilated cell set with coverage multiplicity. One corpus
pass into the occupied-cell combiner; the 9-way scatter and regroup
run on the aggregate-bounded lattice table only.
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
# getis_gi — Getis-Ord Gi* integer components on the event-count grid
# ---------------------------------------------------------------------------

GI_RES = 5  # 32 x 32


def _event_cell_counts(sf_dir: str, res: int) -> ray.data.Dataset:
    """(cell, v) = per-cell event count at `res` — one corpus pass
    through a per-block unique-count combiner, then an
    aggregate-sized grouped sum (shared by getis_gi / cell_dilate)."""
    from oluray.pipelines.queries import _with_points

    ev = _read(sf_dir, "events", ["event_id"])
    pts = _with_points(ev, "event_id")

    def cells(t: pa.Table) -> pa.Table:
        c = geo.cell_encode(
            t["lon"].to_numpy(zero_copy_only=False),
            t["lat"].to_numpy(zero_copy_only=False), res)
        u, cnt = np.unique(c, return_counts=True)
        return pa.table({"cell": pa.array(u),
                         "v": pa.array(cnt.astype(np.int64))})

    def vsum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell", as_index=False)["v"].sum()
        g["v"] = g["v"].astype("int64")
        return g

    return joins.grouped_agg(
        pts.map_batches(cells, batch_format="pyarrow"),
        ["cell"], vsum, num_partitions=8, pre_repartition=False)


def q_getis_gi(sf_dir: str):
    """Getis-Ord Gi* per occupied cell (queen weights incl. self,
    occupied cells only): emits w_i (neighborhood size), local_sum
    L_i, and the exact hotspot numerator gnum = n*L_i - w_i*S. The
    neighbor exchange is a scatter + hash join on the
    aggregate-sized occupied-cell table — corpus rows never shuffle."""
    counts = _event_cell_counts(sf_dir, GI_RES).materialize()
    n_cells = int(counts.count())
    s_v = int(counts.sum("v")) if n_cells else 0

    def scatter(t: pa.Table) -> pa.Table:
        # donate v to the 3x3 neighborhood INCLUDING self; off-grid
        # targets (x=-1, 2^res, ...) can never match an occupied id,
        # so the join drops them — same no-wrap contract as morans_i.
        if t.num_rows == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "vj": pa.array([], pa.int64())})
        _, x, y = geo.cell_decode(t["cell"].to_numpy(zero_copy_only=False))
        v = t["v"].to_numpy(zero_copy_only=False)
        txs, tys = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                txs.append(x + dx)
                tys.append(y + dy)
        tx = np.concatenate(txs)
        ty = np.concatenate(tys)
        tcell = (np.int64(GI_RES) * np.int64(geo.RES_SHIFT)
                 + ty * np.int64(geo.Y_SHIFT) + tx)
        return pa.table({"cell": pa.array(tcell),
                         "vj": pa.array(np.tile(v, 9))})

    scat = counts.map_batches(scatter, batch_format="pyarrow")
    joined = joins.hash_join(counts, scat, "cell", num_partitions=8)

    def gi(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell").agg(
            w_i=("vj", "size"), local_sum=("vj", "sum")).reset_index()
        w = g["w_i"].to_numpy(np.int64)
        ls = g["local_sum"].to_numpy(np.int64)
        return pd.DataFrame({
            "cell": g["cell"].astype("int64"),
            "w_i": w,
            "local_sum": ls,
            "gnum": np.int64(n_cells) * ls - w * np.int64(s_v)})

    return joins.grouped_agg(joined, ["cell"], gi, num_partitions=8,
                             pre_repartition=False)


def _getis_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    x, y = geo.cell_xy_sql(lon, lat, GI_RES)
    return f"""
    WITH c AS (
      SELECT x, y, count(*)::BIGINT AS v
      FROM (SELECT {x} AS x, {y} AS y FROM events) GROUP BY x, y),
    s AS (SELECT count(*)::BIGINT AS n, SUM(v)::BIGINT AS sv FROM c),
    nb AS (SELECT a.x AS x, a.y AS y,
                  count(*)::BIGINT AS w_i, SUM(b.v)::BIGINT AS local_sum
           FROM c a JOIN c b
             ON abs(a.x - b.x) <= 1 AND abs(a.y - b.y) <= 1
           GROUP BY a.x, a.y)
    SELECT ({GI_RES} * {geo.RES_SHIFT} + nb.y * {geo.Y_SHIFT} + nb.x)
             AS cell,
           nb.w_i AS w_i, nb.local_sum AS local_sum,
           (s.n * nb.local_sum - nb.w_i * s.sv)::BIGINT AS gnum
    FROM nb, s
    """


# ---------------------------------------------------------------------------
# auc_score — grouped exact ROC AUC (tie-averaged ranks) as a rational
# ---------------------------------------------------------------------------

AUC_POS_SOURCES = ("src0", "src1", "src2")


def q_auc_score(sf_dir: str):
    """Exact grouped ROC AUC: per lang, positives = documents from
    {src0,src1,src2}, score = n_chars. 2U = sum_v (2*pos_v*cumneg_v
    + pos_v*neg_v) over ascending distinct scores (the Mann-Whitney
    U with ties counted half). One corpus pass into the
    (lang, score) combiner; the cumulative runs per-lang on the
    aggregate-sized distinct-score table. AUC = u2 / (2*n_pos*n_neg)
    — the division is the caller's, so the output is bit-exact."""
    docs = _read(sf_dir, "documents", ["lang", "source", "n_chars"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        pos = df["source"].isin(AUC_POS_SOURCES)
        g = pd.DataFrame({"lang": df["lang"], "sc": df["n_chars"],
                          "p": pos.astype("int64"),
                          "q": (~pos).astype("int64")})
        return g.groupby(["lang", "sc"], as_index=False)[["p", "q"]].sum()

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "sc"], as_index=False)[["p", "q"]].sum()
        out = []
        for lang, sub in g.groupby("lang", sort=False):
            sub = sub.sort_values("sc")
            p = sub["p"].to_numpy(np.int64)
            q = sub["q"].to_numpy(np.int64)
            cumq = np.concatenate(([0], np.cumsum(q)[:-1]))
            out.append({"lang": lang,
                        "u2": int((2 * p * cumq + p * q).sum()),
                        "n_pos": int(p.sum()), "n_neg": int(q.sum())})
        return pd.DataFrame(out, columns=["lang", "u2", "n_pos", "n_neg"])

    # lang cardinality is tiny; all rows of one lang land in one
    # partition, so the cumulative is exact per group.
    return joins.grouped_agg(docs, ["lang"], fold, num_partitions=4,
                             combine_fn=combine)


def _auc_sql() -> str:
    pos = ", ".join(f"'{s}'" for s in AUC_POS_SOURCES)
    return f"""
    WITH s AS (
      SELECT lang, n_chars AS sc,
             SUM(CASE WHEN source IN ({pos}) THEN 1 ELSE 0 END)::BIGINT AS p,
             SUM(CASE WHEN source IN ({pos}) THEN 0 ELSE 1 END)::BIGINT AS q
      FROM documents GROUP BY lang, n_chars),
    w AS (
      SELECT lang, p, q,
             COALESCE(SUM(q) OVER (PARTITION BY lang ORDER BY sc
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cq
      FROM s)
    SELECT lang, SUM(2*p*cq + p*q)::BIGINT AS u2,
           SUM(p)::BIGINT AS n_pos, SUM(q)::BIGINT AS n_neg
    FROM w GROUP BY lang
    """


# ---------------------------------------------------------------------------
# cell_dilate — binary morphological dilation with multiplicity
# ---------------------------------------------------------------------------

DILATE_RES = 5


def q_cell_dilate(sf_dir: str):
    """Morphological dilation of the occupied event-cell set: each
    occupied cell donates to its 3x3 Chebyshev neighborhood
    (edge-clipped, no wrap). Output (cell, n_src) = every cell in the
    dilated set with the number of occupied source cells covering it
    — the raster buffer/grow primitive. The scatter runs on the
    aggregate-sized occupied-cell table."""
    counts = _event_cell_counts(sf_dir, DILATE_RES)
    n = 1 << DILATE_RES

    def scatter(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"cell": pa.array([], pa.int64())})
        _, x, y = geo.cell_decode(t["cell"].to_numpy(zero_copy_only=False))
        txs, tys = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                txs.append(x + dx)
                tys.append(y + dy)
        tx = np.concatenate(txs)
        ty = np.concatenate(tys)
        keep = (tx >= 0) & (tx < n) & (ty >= 0) & (ty < n)
        tcell = (np.int64(DILATE_RES) * np.int64(geo.RES_SHIFT)
                 + ty[keep] * np.int64(geo.Y_SHIFT) + tx[keep])
        return pa.table({"cell": pa.array(tcell)})

    def csum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell", as_index=False).size()
        g.columns = ["cell", "n_src"]
        g["n_src"] = g["n_src"].astype("int64")
        return g

    scat = counts.map_batches(scatter, batch_format="pyarrow")
    return joins.grouped_agg(scat, ["cell"], csum, num_partitions=8,
                             pre_repartition=False)


def _dilate_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    x, y = geo.cell_xy_sql(lon, lat, DILATE_RES)
    n = 1 << DILATE_RES
    return f"""
    WITH c AS (
      SELECT DISTINCT x, y
      FROM (SELECT {x} AS x, {y} AS y FROM events)),
    o AS (SELECT dx, dy FROM (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),
            (0,0),(0,1),(1,-1),(1,0),(1,1)) AS t(dx, dy)),
    d AS (SELECT c.x + o.dx AS x, c.y + o.dy AS y
          FROM c CROSS JOIN o
          WHERE c.x + o.dx BETWEEN 0 AND {n - 1}
            AND c.y + o.dy BETWEEN 0 AND {n - 1})
    SELECT ({DILATE_RES} * {geo.RES_SHIFT} + y * {geo.Y_SHIFT} + x)
             AS cell,
           count(*)::BIGINT AS n_src
    FROM d GROUP BY x, y
    """


QUERIES = {
    "getis_gi": q_getis_gi,
    "auc_score": q_auc_score,
    "cell_dilate": q_cell_dilate,
}

ORACLE = {
    "getis_gi": _getis_sql(),
    "auc_score": _auc_sql(),
    "cell_dilate": _dilate_sql(),
}
