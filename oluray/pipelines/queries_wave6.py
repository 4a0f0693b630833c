"""Wave-6 catalog: directed n-gram containment join, space-time
hotspot scan, DBSCAN point labeling and PSNR-bounded adaptive image
recompression.

Containment extends the dedup family (SURVEY §2 LLM-data ops) with
the near-SUBSET detector; hotspots/DBSCAN extend the north-rule
spatial set; recompression extends the image-payload stages with the
rate/distortion decision the north star's PSNR>=40dB contract
implies. Registered by ``oluray.pipelines.queries`` (dict merge at
its tail); must not import that module.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from oluray.functions import geo
from oluray.stages import dedup, joins


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    from oluray.sources.io import read_table

    return read_table(f"{sf_dir}/{table}.parquet", columns=columns)


# ---------------------------------------------------------------------------
# containment_join
# ---------------------------------------------------------------------------

CONT_N = 8
CONT_T_E6 = 500000


def q_containment_join(sf_dir: str):
    """Directed near-subset pairs: containment(sub in sup) >= 50% over
    distinct 8-gram shingles (`dedup.ngram_containment_pairs`) — the
    quoted-paragraph / boilerplate-inclusion detector Jaccard misses."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dedup.ngram_containment_pairs(
        docs, n=CONT_N, threshold_e6=CONT_T_E6, num_partitions=16)


_CONTAINMENT_SQL = f"""
WITH g AS (
  SELECT DISTINCT doc_id,
         substr(text, CAST(unnest(range(1, greatest(length(text) - {CONT_N - 2}, 1))) AS INT), {CONT_N}) AS gram
  FROM documents),
n AS (SELECT doc_id, count(*) AS cnt FROM g GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_sub, b.doc_id AS doc_sup, count(*) AS n_inter
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id <> b.doc_id
  GROUP BY 1, 2)
SELECT doc_sub, doc_sup, n_inter::BIGINT AS n_inter,
       n.cnt::BIGINT AS cnt_sub,
       ((n_inter * 1000000) // n.cnt)::BIGINT AS containment_e6
FROM inter JOIN n ON n.doc_id = doc_sub
WHERE n_inter * 1000000 >= {CONT_T_E6} * n.cnt
"""


# ---------------------------------------------------------------------------
# temporal_hotspots — space-time over-representation scan
# ---------------------------------------------------------------------------

HOT_RES = 3              # 8 x 8 grid
HOT_DAY_US = 86_400_000_000
HOT_NUM, HOT_DEN = 3, 2  # observed > 1.5x expected
HOT_MIN_N = 5


def q_temporal_hotspots(sf_dir: str):
    """Space-time hotspot scan (SaTScan-lite): flag (cell, day) pairs
    whose observed count exceeds 1.5x the independence expectation
    n_c*n_d/N, tested by integer CROSS-MULTIPLICATION
    (n_cd*N*2 > 3*n_c*n_d — no float ratio enters the compare path)
    with a minimum-count support filter. Distributed as three grouped
    counts off ONE (cell, day) base aggregate (each with per-block
    combiners), two hash joins to attach the marginals, and a scalar
    total — the driver sees one number. Overflow note: the int64
    cross-product bounds |events| <= ~3e9 per marginal; beyond that,
    scale the test to per-window counts (the marginals are per-day
    already) or use HUGEINT-style split accumulation."""
    ev = _read(sf_dir, "events", ["event_id", "ts"])

    def keys(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tu = (t["ts"].to_pandas().astype("datetime64[us]")
              .astype("int64").to_numpy())
        lon, lat = geo.derive_lonlat(eid)
        cell = geo.cell_encode(lon, lat, HOT_RES)
        return pa.table({"cell": pa.array(cell),
                         "day": pa.array(tu // HOT_DAY_US)})

    base = ev.map_batches(keys, batch_format="pyarrow")

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["cell", "day"], as_index=False).size().rename(
            columns={"size": "n_cd"})
        g["n_cd"] = g["n_cd"].astype("int64")
        return g

    def tot(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["cell", "day"], as_index=False)["n_cd"].sum()
        g["n_cd"] = g["n_cd"].astype("int64")
        return g

    n_cd = joins.grouped_agg(
        base.map_batches(comb, batch_format="pandas"), ["cell", "day"],
        tot, num_partitions=8, pre_repartition=False).materialize()

    def cell_tot(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell", as_index=False)["n_cd"].sum().rename(
            columns={"n_cd": "n_c"})
        g["n_c"] = g["n_c"].astype("int64")
        return g

    def day_tot(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("day", as_index=False)["n_cd"].sum().rename(
            columns={"n_cd": "n_d"})
        g["n_d"] = g["n_d"].astype("int64")
        return g

    n_c = joins.grouped_agg(n_cd, ["cell"], cell_tot, num_partitions=8)
    n_d = joins.grouped_agg(n_cd, ["day"], day_tot,
                            num_partitions=8).materialize()
    total = int(n_d.sum("n_d"))

    _CD = pa.schema([("cell", pa.int64()), ("day", pa.int64()),
                     ("n_cd", pa.int64())])
    _C = pa.schema([("cell", pa.int64()), ("n_c", pa.int64())])
    _D = pa.schema([("day", pa.int64()), ("n_d", pa.int64())])
    j1 = joins.hash_join(n_cd, n_c, on="cell", num_partitions=8,
                         left_schema=_CD, right_schema=_C)
    _J1 = pa.schema(list(_CD) + [pa.field("n_c", pa.int64())])
    j2 = joins.hash_join(j1, n_d, on="day", num_partitions=8,
                         left_schema=_J1, right_schema=_D)

    def flag(t: pa.Table) -> pa.Table:
        ncd = t["n_cd"].to_numpy(zero_copy_only=False).astype(np.int64)
        nc = t["n_c"].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = t["n_d"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (ncd >= HOT_MIN_N) & (ncd * total * HOT_DEN
                                     > HOT_NUM * nc * nd)
        return t.select(["cell", "day", "n_cd", "n_c", "n_d"]).filter(
            pa.array(keep))

    return j2.map_batches(flag, batch_format="pyarrow")


def _temporal_hotspots_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    cell = geo.cell_encode_sql(lon, lat, HOT_RES)
    return f"""
WITH e AS (SELECT {cell} AS cell, epoch_us(ts) // {HOT_DAY_US} AS day
           FROM events),
cd AS (SELECT cell, day, count(*)::BIGINT AS n_cd FROM e GROUP BY cell, day),
c AS (SELECT cell, sum(n_cd)::BIGINT AS n_c FROM cd GROUP BY cell),
d AS (SELECT day, sum(n_cd)::BIGINT AS n_d FROM cd GROUP BY day),
t AS (SELECT sum(n_cd)::BIGINT AS N FROM cd)
SELECT cd.cell AS cell, cd.day AS day, cd.n_cd AS n_cd,
       c.n_c AS n_c, d.n_d AS n_d
FROM cd, c, d, t
WHERE cd.cell = c.cell AND cd.day = d.day
  AND cd.n_cd >= {HOT_MIN_N}
  AND cd.n_cd * t.N * {HOT_DEN} > {HOT_NUM} * c.n_c * d.n_d
"""


# ---------------------------------------------------------------------------
# dbscan_labels — grid-bucketed core/border/noise classification
# ---------------------------------------------------------------------------

DB_EPS = 600_000   # 6 degrees in 1e-5-degree integer units
DB_MINPTS = 4      # neighbor count INCLUDES the point itself


def q_dbscan_labels(sf_dir: str):
    """DBSCAN point classification over customer points (planar
    integer lattice): label 2 = core (>= minPts neighbors within eps,
    self included), 1 = border (non-core with a core neighbor),
    0 = noise. Exact eps-ball counting WITHOUT an all-pairs join:
    points bucket into eps-sized grid cells; each point is replicated
    once into each of its 8 neighbor cells as a flagged ghost (the
    `distance_pairs` one-sided-ghost pattern), so every eps-ball
    fits inside one (cell + ghosts) partition and each candidate pair
    is examined exactly once per direction. Two passes — counts can't
    know coreness globally, so pass 2 re-buckets with core flags
    attached (one hash join) to classify borders. The cluster-ID
    step (CC over core-core edges) is `grid_clusters`/`cc_labels`
    machinery and intentionally out of this oracle-checked query.
    Distance tests are pure int64 (eps^2 = 3.6e11)."""
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def pts(t: pa.Table) -> pa.Table:
        cid = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon_u, lat_u = geo.derive_units(cid)
        return pa.table({"id": pa.array(cid),
                         "x": pa.array(lon_u // 100),
                         "y": pa.array(lat_u // 100)})

    p = cust.map_batches(pts, batch_format="pyarrow")

    def expand(df: pd.DataFrame, flag_col: str | None = None) -> pd.DataFrame:
        x = df["x"].to_numpy(np.int64)
        y = df["y"].to_numpy(np.int64)
        cx = x // DB_EPS
        cy = y // DB_EPS
        outs = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                o = df.copy(deep=False)
                o = o.assign(cx=cx + dx, cy=cy + dy,
                             ghost=(dx != 0 or dy != 0))
                outs.append(o)
        return pd.concat(outs, ignore_index=True)

    exp1 = p.map_batches(expand, batch_format="pandas")

    def count_nbrs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id": pd.Series([], dtype="int64"),
                              "n": pd.Series([], dtype="int64")})
        if len(df) == 0:
            return empty
        home = df[~df["ghost"]]
        if len(home) == 0:
            return empty
        m = home.merge(df, on=["cx", "cy"], suffixes=("_a", "_b"))
        dx = m["x_a"].to_numpy(np.int64) - m["x_b"].to_numpy(np.int64)
        dy = m["y_a"].to_numpy(np.int64) - m["y_b"].to_numpy(np.int64)
        near = dx * dx + dy * dy <= np.int64(DB_EPS) * np.int64(DB_EPS)
        m = m[near]
        g = m.groupby("id_a", as_index=False).size().rename(
            columns={"id_a": "id", "size": "n"})
        g["n"] = g["n"].astype("int64")
        return g

    counts = joins.partitioned_map(exp1, ["cx", "cy"], count_nbrs,
                                   num_partitions=16)

    _P = pa.schema([("id", pa.int64()), ("x", pa.int64()), ("y", pa.int64())])
    _N = pa.schema([("id", pa.int64()), ("n", pa.int64())])
    flagged = joins.hash_join(p, counts, on="id", num_partitions=16,
                              left_schema=_P, right_schema=_N)

    def with_core(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(core=df["n"].to_numpy(np.int64) >= DB_MINPTS)

    exp2 = flagged.map_batches(with_core, batch_format="pandas").map_batches(
        expand, batch_format="pandas")

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"c_custkey": pd.Series([], dtype="int64"),
                              "label": pd.Series([], dtype="int64")})
        if len(df) == 0:
            return empty
        home = df[~df["ghost"]]
        if len(home) == 0:
            return empty
        cores = df[df["core"]]
        lab = np.where(home["core"].to_numpy(), 2, 0).astype(np.int64)
        noncore = home[~home["core"]]
        if len(noncore) and len(cores):
            m = noncore.merge(cores, on=["cx", "cy"], suffixes=("_a", "_b"))
            dx = m["x_a"].to_numpy(np.int64) - m["x_b"].to_numpy(np.int64)
            dy = m["y_a"].to_numpy(np.int64) - m["y_b"].to_numpy(np.int64)
            near = dx * dx + dy * dy <= np.int64(DB_EPS) * np.int64(DB_EPS)
            bordered = np.unique(m["id_a"].to_numpy(np.int64)[near])
            is_b = np.isin(home["id"].to_numpy(np.int64), bordered)
            lab = np.where(is_b & ~home["core"].to_numpy(), 1, lab)
        return pd.DataFrame({"c_custkey": home["id"].to_numpy(np.int64),
                             "label": lab})

    return joins.partitioned_map(exp2, ["cx", "cy"], classify,
                                 num_partitions=16)


def _dbscan_labels_sql() -> str:
    lon_u, lat_u = geo.derive_units_sql("c_custkey")
    e2 = DB_EPS * DB_EPS
    return f"""
WITH p AS (SELECT c_custkey AS id, ({lon_u} // 100) AS x,
                  ({lat_u} // 100) AS y FROM customer),
nc AS (SELECT a.id, a.x, a.y, count(*)::BIGINT AS n
       FROM p a JOIN p b
         ON (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) <= {e2}
       GROUP BY 1, 2, 3),
core AS (SELECT id, x, y FROM nc WHERE n >= {DB_MINPTS})
SELECT nc.id AS c_custkey,
       CASE WHEN nc.n >= {DB_MINPTS} THEN 2
            WHEN EXISTS (SELECT 1 FROM core c
                         WHERE (nc.x - c.x) * (nc.x - c.x)
                               + (nc.y - c.y) * (nc.y - c.y) <= {e2}
                           AND c.id <> nc.id) THEN 1
            ELSE 0 END::BIGINT AS label
FROM nc
"""


# ---------------------------------------------------------------------------
# recompress_images — PSNR-bounded adaptive recompression (rows-only)
# ---------------------------------------------------------------------------

RECOMP_MIN_DB = 40.0
RECOMP_LADDER = (4, 5, 6, 7, 8)  # most- to least-compressed


class AdaptiveRecompress:
    """Actor-pool stage: decode each image once, walk the
    quantization ladder most-compressed-first, keep the FIRST level
    whose round-trip PSNR clears the north star's 40 dB contract
    (ties to the flagship's lossy-format verification bar). Pure
    CPU-state-free compute, but packaged as a callable class so the
    codec dispatch table and ladder live once per actor, and the
    stage slots into `map_batches(..., concurrency=)` like the other
    image stages (oluray/stages/image.py)."""

    def __init__(self) -> None:
        from oluray.functions import imagecodec

        self._codec = imagecodec

    def __call__(self, batch: pa.Table) -> pa.Table:
        ic = self._codec
        ids, bits_out, in_b, out_b, psnr_cdb = [], [], [], [], []
        for iid, blob, fmt in zip(
                batch["image_id"].to_pylist(),
                batch["bytes"].to_pylist(),
                batch["fmt"].to_pylist()):
            px = ic.decode(blob, fmt)
            chosen_bits, chosen_blob, chosen_psnr = 8, None, float("inf")
            for bits in RECOMP_LADDER:
                cand = ic.encode_quantized(px, bits)
                p = ic.psnr_db(px, ic.decode_quantized(cand))
                if p >= RECOMP_MIN_DB:
                    chosen_bits, chosen_blob, chosen_psnr = bits, cand, p
                    break
            if chosen_blob is None:  # unreachable: 8 bits is lossless
                chosen_blob = ic.encode_quantized(px, 8)
                chosen_psnr = float("inf")
            ids.append(iid)
            bits_out.append(chosen_bits)
            in_b.append(len(blob))
            out_b.append(len(chosen_blob))
            psnr_cdb.append(
                2**31 - 1 if chosen_psnr == float("inf")
                else int(round(chosen_psnr * 100)))
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "bits": pa.array(bits_out, pa.int64()),
            "in_bytes": pa.array(in_b, pa.int64()),
            "out_bytes": pa.array(out_b, pa.int64()),
            "psnr_cdb": pa.array(psnr_cdb, pa.int64()),
        })


def q_recompress_images(sf_dir: str):
    """Adaptive recompression over the synthesized image table:
    smallest quantization level meeting PSNR >= 40 dB, per image.
    Rows-only (pixel decode isn't SQL); the pytest asserts the
    accept/reject boundary on both sides."""
    from oluray.pipelines.queries import _synth_images

    images = _synth_images(sf_dir)
    return images.map_batches(AdaptiveRecompress, batch_format="pyarrow",
                              batch_size=256, concurrency=(1, 4))


QUERIES = {
    "containment_join": q_containment_join,
    "temporal_hotspots": q_temporal_hotspots,
    "dbscan_labels": q_dbscan_labels,
    "recompress_images": q_recompress_images,
}

ORACLE = {
    "containment_join": _CONTAINMENT_SQL,
    "temporal_hotspots": _temporal_hotspots_sql(),
    "dbscan_labels": _dbscan_labels_sql(),
}
