"""Wave-9 catalog: prefix-filtered Jaccard join (PPJoin), Hilbert
space-filling keys, BM25 scoring, promo revenue share, KMV set sketches.

`jaccard_prefix` is the SCALE PATH for the exact-Jaccard operator —
identical output contract to `ngram_jaccard` (same oracle), but
candidate generation touches only global-df-ordered gram prefixes so
frequent grams never fan out quadratically. `hilbert_cells` completes
the space-filling pair with `zorder_cells` (Hilbert keeps consecutive
keys edge-adjacent — no quadrant-seam jumps). Registered by
``oluray.pipelines.queries``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from oluray.functions import geo
from oluray.stages import dedup, joins, sketch, text


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    from oluray.sources.io import read_table

    return read_table(f"{sf_dir}/{table}.parquet", columns=columns)


def _round_half_away(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return (np.sign(a) * np.floor(np.abs(a) + 0.5)).astype(np.int64)


# ---------------------------------------------------------------------------
# jaccard_prefix — PPJoin prefix-filtered exact Jaccard (same oracle
# as ngram_jaccard: the two operators are output-identical by design)
# ---------------------------------------------------------------------------


def q_jaccard_prefix(sf_dir: str):
    """Prefix-filtered exact Jaccard pairs (PPJoin candidate
    generation + exact verify) — see
    :func:`oluray.stages.dedup.ngram_prefix_jaccard_pairs`. The
    oracle is the SAME brute SQL as `ngram_jaccard`: matching it
    hash-exact proves the prefix filter loses no pair and the
    verification count is exact."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dedup.ngram_prefix_jaccard_pairs(
        docs, n=6, threshold_e6=150000, num_partitions=16)


_JACCARD_PREFIX_SQL = """
WITH g AS (
  SELECT DISTINCT doc_id,
         substr(text, CAST(unnest(range(1, greatest(length(text) - 4, 1))) AS INT), 6) AS gram
  FROM documents
),
n AS (SELECT doc_id, count(*) AS cnt FROM g GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS n_inter
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT doc_a, doc_b, n_inter::BIGINT AS n_inter,
       (na.cnt + nb.cnt - n_inter)::BIGINT AS n_union,
       ((n_inter * 1000000) // (na.cnt + nb.cnt - n_inter))::BIGINT AS jaccard_e6
FROM inter
JOIN n na ON na.doc_id = doc_a
JOIN n nb ON nb.doc_id = doc_b
WHERE n_inter * 1000000 >= 150000 * (na.cnt + nb.cnt - n_inter)
"""


# ---------------------------------------------------------------------------
# hilbert_cells — Hilbert space-filling key per customer point
# ---------------------------------------------------------------------------

HILBERT_ORDER = 8
_GRID = 1 << HILBERT_ORDER


def _grid_xy(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer-exact 2^order grid coords from the shared deterministic
    point derivation (`geo.derive_lonlat`'s integer core, BEFORE the
    float conversion — no float ever enters, so SQL parity is exact
    HUGEINT arithmetic)."""
    k = np.asarray(keys, dtype=np.uint64)
    h1 = (k * np.uint64(geo._HASH_MULT)) % np.uint64(geo._MOD32)
    h2 = (h1 * h1) % np.uint64(geo._MOD32)
    lon_u = (h1 * np.uint64(geo._KNUTH)) // np.uint64(geo._MOD32)
    lat_u = (h2 * np.uint64(geo._LAT_SPAN)) // np.uint64(geo._MOD32)
    gx = (lon_u * np.uint64(_GRID)) // np.uint64(geo._KNUTH)
    gy = (lat_u * np.uint64(_GRID)) // np.uint64(geo._LAT_SPAN)
    return gx.astype(np.int64), gy.astype(np.int64)


def q_hilbert_cells(sf_dir: str):
    """Hilbert-curve key per customer point — the locality-preserving
    sibling of `zorder_cells`: consecutive Hilbert keys are ALWAYS
    edge-adjacent grid cells (Z-order jumps across quadrant seams),
    which is why Hilbert-sorted storage minimizes the tile spread of
    range scans at 100 TB. One zero-state map_batches; the oracle
    unrolls the identical 8 rotate/flip bit-plane steps in SQL
    (`geo.hilbert_encode_sql`), all-integer so parity is
    bit-for-bit."""
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def enc(t: pa.Table) -> pa.Table:
        cid = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        gx, gy = _grid_xy(cid)
        hd = geo.hilbert_encode(gx, gy, order=HILBERT_ORDER)
        return pa.table({"c_custkey": pa.array(cid), "gx": pa.array(gx),
                         "gy": pa.array(gy), "hd": pa.array(hd)})

    return cust.map_batches(enc, batch_format="pyarrow")


def _hilbert_sql() -> str:
    m = geo._MOD32
    h1 = f"((c_custkey::HUGEINT * {geo._HASH_MULT}) % {m})"
    h2 = f"(({h1}::HUGEINT * {h1}) % {m})"
    lon_u = f"(({h1}::HUGEINT * {geo._KNUTH}) // {m})"
    lat_u = f"(({h2}::HUGEINT * {geo._LAT_SPAN}) // {m})"
    gx = f"(({lon_u}::HUGEINT * {_GRID}) // {geo._KNUTH})"
    gy = f"(({lat_u}::HUGEINT * {_GRID}) // {geo._LAT_SPAN})"
    return geo.hilbert_encode_sql(gx, gy, order=HILBERT_ORDER,
                                  key_col="c_custkey", src="customer")


# ---------------------------------------------------------------------------
# bm25_topk — BM25 relevance scoring (rows-only; pytest reference)
# ---------------------------------------------------------------------------

BM25_TERMS = ("merge", "window", "spark")
BM25_K1 = 1.2
BM25_B = 0.75


def q_bm25_topk(sf_dir: str):
    """BM25 scoring of the corpus against a fixed term query — the
    retrieval-ranking classic over the (doc, term, tf) postings
    stream. Corpus statistics (N, avgdl, per-term df — three
    scalars and a 3-row table) reduce via per-block combiners; the
    per-doc score is one vectorized pass over the (doc, term, tf)
    postings of the QUERY TERMS only. Scores are floats (rows-only
    query); the pytest recomputes the formula independently in
    pandas and checks exact agreement of the induced ranking."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    toks = text.explode_terms(docs).materialize()

    # doc lengths + global N, avgdl (combiner -> tiny reduce)
    def dl_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", as_index=False).size()
        return g.rename(columns={"size": "dl"})

    def dl_total(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("doc_id", as_index=False)["dl"].sum()

    dls = joins.grouped_agg(toks, ["doc_id"], dl_total,
                            num_partitions=8, combine_fn=dl_part,
                            pre_repartition=False).materialize()
    stats = dls.map_batches(
        lambda df: pd.DataFrame({"n": [len(df)], "s": [df["dl"].sum()]}),
        batch_format="pandas").to_pandas()
    n_docs = int(stats["n"].sum())
    avgdl = float(stats["s"].sum()) / max(n_docs, 1)

    def only_terms(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["term"].isin(BM25_TERMS)]

    hits = toks.map_batches(only_terms, batch_format="pandas")

    def tf_agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["doc_id", "term"], as_index=False).size()
        return g.rename(columns={"size": "tf"})

    tf = joins.partitioned_map(hits, ["doc_id"], tf_agg,
                               num_partitions=8).materialize()

    # per-term df: 3 rows — driver-side by construction
    dft = (tf.map_batches(
        lambda d: d.groupby("term", as_index=False)
        .agg(df=("doc_id", "nunique")), batch_format="pandas")
        .to_pandas().groupby("term", as_index=False)["df"].sum())
    idf = {t: float(np.log((n_docs - d + 0.5) / (d + 0.5) + 1.0))
           for t, d in zip(dft["term"], dft["df"])}

    _TF = pa.schema([("doc_id", pa.int64()), ("term", pa.string()),
                     ("tf", pa.int64())])
    _DL = pa.schema([("doc_id", pa.int64()), ("dl", pa.int64())])
    j = joins.hash_join(tf, dls, on="doc_id", num_partitions=8,
                        left_schema=_TF, right_schema=_DL)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        tfv = df["tf"].to_numpy(np.float64)
        dlv = df["dl"].to_numpy(np.float64)
        w = (tfv * (BM25_K1 + 1.0)
             / (tfv + BM25_K1 * (1.0 - BM25_B + BM25_B * dlv / avgdl)))
        iv = df["term"].map(idf).to_numpy(np.float64)
        part = df.assign(s=iv * w)
        return part.groupby("doc_id", as_index=False)["s"].sum().rename(
            columns={"s": "bm25"})

    scored = joins.partitioned_map(j, ["doc_id"], score, num_partitions=8)
    # doc_id tiebreak: identical (tf, dl) combos produce identical
    # scores, and an unkeyed top-k cutoff would be nondeterministic
    return scored.sort(["bm25", "doc_id"],
                       descending=[True, False]).limit(20)


# ---------------------------------------------------------------------------
# kmv_distinct — bottom-k sketch cardinalities + DIRECT intersection
# ---------------------------------------------------------------------------

KMV_K = 256


def q_kmv_distinct(sf_dir: str):
    """KMV (bottom-k) sketch set algebra over event segments — the
    min-wise complement of `hll_intersect`: where HLL intersects by
    inclusion-exclusion (error grows with the Jaccard gap), KMV
    estimates the intersection DIRECTLY from signature resemblance
    (rho * |A∪B|). Two streaming scans; driver memory = two k-value
    arrays (2 KiB each). The pytest bounds both estimators against
    exact distinct counts."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def only(etype: str):
        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["event_type"], etype))
        return f

    clicks = ev.map_batches(only("click"), batch_format="pyarrow")
    buys = ev.map_batches(only("purchase"), batch_format="pyarrow")
    ma = sketch.kmv_minima(clicks, "user_id", KMV_K)
    mb = sketch.kmv_minima(buys, "user_id", KMV_K)
    a = sketch.kmv_estimate(ma, KMV_K)
    b = sketch.kmv_estimate(mb, KMV_K)
    inter = sketch.kmv_intersect_estimate(ma, mb, KMV_K)
    return pd.DataFrame({
        "n_clickers": [int(round(a))],
        "n_purchasers": [int(round(b))],
        "n_intersect_est": [int(round(inter))]}).astype("int64")


# ---------------------------------------------------------------------------
# promo_share — TPC-H Q14 shape (promo revenue share, integer cents)
# ---------------------------------------------------------------------------


def q_promo_share(sf_dir: str):
    """TPC-H Q14 shape: share of 1996 revenue from PROMO-type parts.
    The fact stream (lineitem, date-pruned at the read) joins the part
    dimension map-side (`auto_join` probes the dim size and
    broadcasts via ray.put — the fact table moves ZERO times); revenue
    is per-row rounded cents so the two global sums are
    order-independent, and the share is integer basis points
    (promo*10000 // total) — no rounded float crosses the oracle."""
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"])
    part = _read(sf_dir, "part", ["p_partkey", "p_type"])

    def cents(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"]
        lo = pc.greater_equal(d, pa.scalar(np.datetime64("1996-01-01", "us")))
        hi = pc.less(d, pa.scalar(np.datetime64("1997-01-01", "us")))
        t = t.filter(pc.and_(lo, hi))
        ext = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dis = t["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_partkey": t["l_partkey"],
            "cents": pa.array(_round_half_away(ext * (1.0 - dis) * 100.0))})

    j = joins.auto_join(li.map_batches(cents, batch_format="pyarrow"),
                        part, on="l_partkey", right_on="p_partkey",
                        num_partitions=8)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cents"].to_numpy(np.int64)
        promo = (df["p_type"] == "PROMO").to_numpy()
        return pd.DataFrame({"promo_cents": [int(c[promo].sum())],
                             "total_cents": [int(c.sum())]})

    parts = j.map_batches(partial, batch_format="pandas").to_pandas()
    promo = int(parts["promo_cents"].sum())
    total = int(parts["total_cents"].sum())
    return pd.DataFrame({
        "promo_cents": [promo], "total_cents": [total],
        "promo_share_bp": [promo * 10000 // total if total else 0],
    }).astype("int64")


_PROMO_SHARE_SQL = """
WITH f AS (
  SELECT round(l_extendedprice * (1.0 - l_discount) * 100.0)::BIGINT AS cents,
         p_type
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1997-01-01')
SELECT sum(CASE WHEN p_type = 'PROMO' THEN cents ELSE 0 END)::BIGINT
         AS promo_cents,
       sum(cents)::BIGINT AS total_cents,
       (sum(CASE WHEN p_type = 'PROMO' THEN cents ELSE 0 END) * 10000
        // sum(cents))::BIGINT AS promo_share_bp
FROM f
"""


QUERIES = {
    "jaccard_prefix": q_jaccard_prefix,
    "hilbert_cells": q_hilbert_cells,
    "bm25_topk": q_bm25_topk,
    "kmv_distinct": q_kmv_distinct,
    "promo_share": q_promo_share,
}

ORACLE = {
    "jaccard_prefix": _JACCARD_PREFIX_SQL,
    "hilbert_cells": _hilbert_sql(),
    "promo_share": _PROMO_SHARE_SQL,
}
