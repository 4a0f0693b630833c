"""Driver-contract query catalog: Ray pipelines + matching DuckDB SQL.

Every entry implements one operator family from SURVEY.md §2 over the
driver's parquet tables (region nation customer supplier part orders
lineitem events documents embeddings). Each `q_*` function takes
`sf_dir` and returns a Dataset / DataFrame / Table; `ORACLE[name]`
holds ANSI SQL computing the identical result in DuckDB.

Exactness rules (so order-insensitive value hashes match):
- money aggregates are scaled-integer BIGINT (cents) — float sums
  differ across addition orders, their rounded-integer value doesn't;
- distances rounded to 1 mm, cosine sims to 1e-6 (analysis: cross-
  engine libm deltas are <= 1e-8 relative, far below the rounding
  step);
- geometry arithmetic is generated from the SAME literals with the
  SAME operation order on both sides (see oluray.functions.geo).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from oluray.functions import geo
from oluray.stages import closure, dedup, joins, spatial, text


def _round_half_away(x) -> np.ndarray:
    """HALF-AWAY-FROM-ZERO rounding to int64 — the DuckDB `round()`
    semantics. `np.round` is half-even (banker's); on an exact
    .5 boundary the two disagree (ADVICE r1), so every rounded
    integer/money column routes through this instead."""
    a = np.asarray(x, dtype=np.float64)
    return (np.sign(a) * np.floor(np.abs(a) + 0.5)).astype(np.int64)

# ---------------------------------------------------------------------------
# fixed literals shared by Ray + SQL sides
# ---------------------------------------------------------------------------

CELL_RES = 12
TILE_RES = 8
TILE_HALF_DEG = 1.0

# polygons for the PIP join (irregular, incl. one concave; no
# horizontal edges — keeps the shared ray-casting expression total)
PIP_POLYS: dict[int, tuple[list[float], list[float]]] = {
    1: ([-20.0, 5.0, 17.3, 8.2, -11.7], [-8.3, -14.9, 2.7, 16.1, 9.4]),
    2: ([60.0, 95.0, 90.0, 75.0, 62.0], [10.2, 12.7, 35.3, 28.9, 30.1]),
    3: ([-150.0, -120.0, -125.0, -145.0], [-40.1, -35.2, -10.3, -15.4]),
    # concave chevron
    4: ([100.0, 130.0, 128.0, 115.0, 102.0], [-55.3, -54.1, -25.2, -45.7, -24.9]),
}

KNN_FEATURES: list[tuple[int, float, float]] = [
    (1, -120.5, 40.2), (2, -60.3, -20.1), (3, 2.7, 48.9), (4, 37.6, 55.8),
    (5, 77.2, 28.6), (6, 116.4, 39.9), (7, 151.2, -33.9), (8, -43.2, -22.9),
]

ANN_QUERY_IDS = [0, 1, 2, 3]


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    """Pruned read through the Lance-preferring IO adapter: only the
    named columns leave storage (`oluray.sources.io`); the testdata is
    parquet so the adapter takes its fallback path here."""
    from oluray.sources.io import read_table

    return read_table(f"{sf_dir}/{table}.parquet", columns=columns)


# ---------------------------------------------------------------------------
# O1: latest-wins merge (events as the change stream)
# ---------------------------------------------------------------------------


def q_latest_wins(sf_dir: str):
    """Latest event per user — the reference's merge-dedup comparator
    (version -> ts -> id ordering, `src/osm/OsmUpdater.cpp:119-168`)
    on the events stream: per-batch combiner then one (user_id)
    shuffle."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            ascending=[True, False, False], kind="mergesort")
        return df.drop_duplicates("user_id", keep="first")

    # large combiner batches: each block contributes <= |users| rows
    # to the shuffle instead of |rows|; the final pick is a
    # hash-partitioned vectorized pass (NOT per-user map_groups — Ray
    # pays ~2 ms per group, see joins.py)
    combined = ds.map_batches(lambda b: best(b), batch_format="pandas",
                              batch_size=65536)
    out = joins.partitioned_map(combined, ["user_id"], best, num_partitions=32,
                                pre_repartition=False)  # map-lineage input
    return out.select_columns(["user_id", "event_id", "event_type"])


# A4 classify counts
def q_change_counts(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_type"])
    out = ds.groupby("event_type").count()

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"op": df["event_type"], "n": df["count()"].astype("int64")})

    return out.map_batches(rename, batch_format="pandas")


# J1 impact closure: orders referencing "modified" customers, anti in-change-file
def q_impact_closure(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    modified = closure.distinct_ids(
        cust.map_batches(
            lambda t: t.filter(pc.less(t["c_acctbal"], 0.0)), batch_format="pyarrow"
        ),
        "c_custkey",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderstatus"])
    hit = closure.semi_join(orders, "o_custkey", closure.broadcast_keys(modified))
    out = hit.map_batches(
        lambda t: t.filter(pc.not_equal(t["o_orderstatus"], "F")),
        batch_format="pyarrow",
    )
    return out.select_columns(["o_orderkey", "o_custkey"])


# J1 impact closure, FORCED onto the backfill shuffle path: identical
# semantics to q_impact_closure, but the changed-id set is built with
# limit=0 so the size-probed KeySet stays a distributed Dataset and
# every membership filter runs as a hash-partitioned semi-join — the
# path a 100 TB backfill window (changed ids >> broadcast budget)
# takes. Same oracle as impact_closure; benched as backfill_shuffle.
def q_impact_closure_shuffle(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    modified = closure.distinct_keys(
        cust.map_batches(
            lambda t: t.filter(pc.less(t["c_acctbal"], 0.0)),
            batch_format="pyarrow",
        ),
        "c_custkey", limit=0,
    )
    assert not modified.is_broadcast
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderstatus"])
    hit = closure.semi_join(
        orders, "o_custkey", modified,
        schema=pa.schema([("o_orderkey", pa.int64()),
                          ("o_custkey", pa.int64()),
                          ("o_orderstatus", pa.string())]),
    )
    out = hit.map_batches(
        lambda t: t.filter(pc.not_equal(t["o_orderstatus"], "F")),
        batch_format="pyarrow",
    )
    return out.select_columns(["o_orderkey", "o_custkey"])


# J3/J6 second hop: distinct suppliers of the closure orders
def q_closure_2hop(sf_dir: str):
    hit = q_impact_closure(sf_dir)
    okeys = closure.distinct_ids(hit, "o_orderkey")
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    sel = closure.semi_join(li, "l_orderkey", closure.broadcast_keys(okeys))
    return joins.distinct(sel, ["l_suppkey"], num_partitions=32)


# J4 rel-of-rel reverse reference (never run by `apply_update` —
# the reference implements the query but disables
# both call sites, `src/sparql/QueryWriter.cpp:223-240`,
# `src/osm/OsmChangeHandler.cpp:84-85,264-297`). "Relations" derived
# from lineitem: one member per item row, member type cycling
# relation/way/node by linenumber, relation refs targeting the
# orderkey space via l_partkey*4; "modified" relations = 'F'-status
# orders; "in change file" exclusions = orderkey % 7 == 0.
def q_rel_of_rel(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_linenumber"])

    def as_relations(t: pa.Table) -> pa.Table:
        ln = t["l_linenumber"].to_numpy(zero_copy_only=False)
        kinds = np.array(["relation", "way", "node"], dtype=object)[ln % 3]
        refs = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64) * 4
        member = pa.StructArray.from_arrays(
            [
                pa.array(refs, pa.int64()),
                pa.array(kinds, pa.string()),
                pa.array(np.full(len(ln), "member", dtype=object), pa.string()),
            ],
            names=["ref", "type", "role"],
        )
        # one member per row: membership semantics are per exploded
        # row, so single-member relations repeated across batches are
        # equivalent (the operator ends in a distinct over rel_id)
        offsets = pa.array(np.arange(len(ln) + 1, dtype=np.int32))
        return pa.table(
            {
                "id": t["l_orderkey"].cast(pa.int64()),
                "members": pa.ListArray.from_arrays(offsets, member),
            }
        )

    rels = li.map_batches(as_relations, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    modified = closure.distinct_ids(
        orders.map_batches(
            lambda t: t.filter(pc.equal(t["o_orderstatus"], "F")),
            batch_format="pyarrow",
        ),
        "o_orderkey",
    )

    def in_cf(t: pa.Table) -> pa.Table:
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ok % 7 == 0))

    excl = closure.distinct_ids(
        orders.map_batches(in_cf, batch_format="pyarrow"), "o_orderkey"
    )
    ks = closure.relations_referencing_relations(rels, modified, excl)
    return ks.key_dataset().map_batches(
        lambda t: t.rename_columns(["rel_id"]), batch_format="pyarrow"
    )


# J8/A2 member collect (GROUP_CONCAT ordered by position)
def q_member_collect(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_linenumber"])
    def _mod_filter(t: pa.Table) -> pa.Table:
        mask = (t["l_orderkey"].to_numpy(zero_copy_only=False) % 100) == 0
        return t.filter(pa.array(mask))

    sel = li.map_batches(_mod_filter, batch_format="pyarrow")

    def collect(df: pd.DataFrame) -> pd.DataFrame:
        # (linenumber, partkey): linenumbers repeat per order, so a
        # secondary key keeps tie order deterministic across engines
        df = df.sort_values(["l_orderkey", "l_linenumber", "l_partkey"])
        s = df["l_partkey"].astype("int64").astype(str)
        g = s.groupby(df["l_orderkey"].to_numpy()).agg(";".join)
        return pd.DataFrame(
            {"o_orderkey": g.index.to_numpy(), "members": g.to_numpy()}
        )

    return joins.grouped_agg(sel, ["l_orderkey"], collect, num_partitions=32,
                             pre_repartition=False)  # map-lineage input


# M5/A3 reference extraction + distinct
def q_refs_distinct(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_quantity"])
    sel = li.map_batches(
        lambda t: t.filter(pc.greater(t["l_quantity"], 45.0)).select(
            ["l_orderkey", "l_partkey"]
        ),
        batch_format="pyarrow",
    )
    return joins.distinct(sel, ["l_orderkey", "l_partkey"], num_partitions=32)


# J10 tag/timestamp enrichment: bulk join fetching metadata for the
# geo-update element set — the reference fetches tags + timestamp per
# way/relation needing geometry recompute (`src/sparql/QueryWriter.cpp:
# 242-255`, drivers `src/osm/OsmDataFetcher.cpp:333-395`); there it is
# an N+1 per-id SPARQL pattern, here ONE bulk hash join.
def q_tag_enrich(sf_dir: str):
    impacted = q_impact_closure(sf_dir).select_columns(["o_orderkey"])
    meta = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_totalprice"])
    enriched = joins.hash_join(
        impacted, meta, on="o_orderkey", num_partitions=32,
        # static hints: schema() on the lazy impact-closure side would
        # execute its whole lineage once just for type inference
        left_schema=pa.schema([("o_orderkey", pa.int64())]),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us")),
             ("o_totalprice", pa.float64())]
        ),
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"],
                "o_orderdate": df["o_orderdate"],
                "total_cents": _round_half_away(df["o_totalprice"] * 100),
            }
        )

    return enriched.map_batches(finalize, batch_format="pandas")


# Relation-geometry recompute semantics as an oracle query: "relation"
# centroid accumulated from member locations (J5/J9 -> centroid, the
# osm2rdf-replacement path of `pipelines/update.py`). Sums are exact
# scaled-integer microdegrees so the value hash is order-free.
def q_rel_centroid(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def member_points(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ok % 50 == 0))
        lon, lat = geo.derive_lonlat(t["l_partkey"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "o_orderkey": t["l_orderkey"],
                "lon_e7": pa.array(_round_half_away(lon * 1e7)),
                "lat_e7": pa.array(_round_half_away(lat * 1e7)),
            }
        )

    pts = li.map_batches(member_points, batch_format="pyarrow")

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderkey", as_index=False).agg(
            n_members=("lon_e7", "size"),
            sum_lon_e7=("lon_e7", "sum"),
            sum_lat_e7=("lat_e7", "sum"),
        )
        g["n_members"] = g["n_members"].astype("int64")
        return g

    return joins.grouped_agg(pts, ["o_orderkey"], agg, num_partitions=32,
                             combine_fn=None, pre_repartition=False)


# Envelope derived geometry as an oracle query: per-"relation" min/max
# extent over member points — the `_seg_stats` envelope path of
# `pipelines/update.py` (osm2rdf emits `envelope` per element,
# `/root/reference/tests/data/node.ttl:33-37`). Extents as exact
# scaled-integer microdegrees so the value hash is order-free.
def q_rel_envelope(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def member_points(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ok % 50 == 0))
        lon, lat = geo.derive_lonlat(t["l_partkey"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "o_orderkey": t["l_orderkey"],
                "lon_e7": pa.array(_round_half_away(lon * 1e7)),
                "lat_e7": pa.array(_round_half_away(lat * 1e7)),
            }
        )

    pts = li.map_batches(member_points, batch_format="pyarrow")

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderkey", as_index=False).agg(
            n_members=("lon_e7", "size"),
            min_lon_e7=("lon_e7", "min"),
            max_lon_e7=("lon_e7", "max"),
            min_lat_e7=("lat_e7", "min"),
            max_lat_e7=("lat_e7", "max"),
        )
        g["n_members"] = g["n_members"].astype("int64")
        return g

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderkey", as_index=False).agg(
            n_members=("n_members", "sum"),
            min_lon_e7=("min_lon_e7", "min"),
            max_lon_e7=("max_lon_e7", "max"),
            min_lat_e7=("min_lat_e7", "min"),
            max_lat_e7=("max_lat_e7", "max"),
        )
        g["n_members"] = g["n_members"].astype("int64")
        return g

    # min/max/count are algebraic: `agg` doubles as the per-block
    # combiner, bounding the shuffle by distinct keys per block
    return joins.grouped_agg(pts, ["o_orderkey"], final, num_partitions=32,
                             combine_fn=agg, pre_repartition=False)


# A1 / O3 global max timestamp
def q_max_ts(sf_dir: str):
    ds = _read(sf_dir, "events", ["ts"])
    # us precision: DuckDB timestamps are datetime64[us]; a ns-unit
    # result is value-identical but hashes differently in some
    # serializations
    return pd.DataFrame(
        {"max_ts": pd.Series([ds.max("ts")]).astype("datetime64[us]")}
    )


# O5 set unions / dedup
def q_delete_set(sf_dir: str):
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderstatus"])
    a = orders.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"], "F")).select(["o_orderkey"]),
        batch_format="pyarrow",
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    modified = closure.distinct_ids(
        cust.map_batches(
            lambda t: t.filter(pc.less(t["c_acctbal"], 0.0)), batch_format="pyarrow"
        ),
        "c_custkey",
    )
    b = closure.semi_join(orders, "o_custkey", closure.broadcast_keys(modified)).select_columns(
        ["o_orderkey"]
    )
    return joins.distinct(a.union(b), ["o_orderkey"], num_partitions=32)


# ---------------------------------------------------------------------------
# spatial queries (points derived from keys — SQL-exact)
# ---------------------------------------------------------------------------


def _with_points(ds: ray.data.Dataset, key: str) -> ray.data.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        lon, lat = geo.derive_lonlat(batch[key].to_numpy(zero_copy_only=False))
        return batch.append_column("lon", pa.array(lon)).append_column("lat", pa.array(lat))

    return ds.map_batches(fn, batch_format="pyarrow")


def q_cell_encode(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey"])
    pts = _with_points(cust, "c_custkey")
    return spatial.add_cell_column(pts, CELL_RES).select_columns(
        ["c_custkey", "lon", "lat", "cell"]
    )


def q_pip_join(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey"])
    pts = _with_points(cust, "c_custkey")
    polys = pa.Table.from_pylist(
        [
            {
                "poly_id": pid,
                "op": "modify",
                "ring": [{"lon": x, "lat": y} for x, y in zip(rx, ry)],
            }
            for pid, (rx, ry) in PIP_POLYS.items()
        ]
    )
    hits = spatial.pip_join(pts, polys, res=7, id_col="c_custkey", concurrency=4)
    return hits.select_columns(["c_custkey", "poly_id"])


def q_knn_assign(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey"])
    pts = _with_points(cust, "c_custkey")
    fid = [f[0] for f in KNN_FEATURES]
    flon = [f[1] for f in KNN_FEATURES]
    flat_ = [f[2] for f in KNN_FEATURES]
    out = spatial.knn_join(pts, fid, flon, flat_, k=1, id_col="c_custkey")
    return out.select_columns(["c_custkey", "feature_id", "dist_m"])


def q_tile_cover(sf_dir: str):
    sup = _read(sf_dir, "supplier", ["s_suppkey"])
    pts = _with_points(sup, "s_suppkey")

    def with_wh(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        wh = pa.array(np.full(n, int(TILE_HALF_DEG * 2 * 1000)), pa.int32())
        return batch.append_column("w", wh).append_column("h", wh)

    pts = pts.map_batches(with_wh, batch_format="pyarrow")
    return spatial.tile_cover(
        pts, TILE_RES, id_col="s_suppkey", deg_per_px=1e-3
    )


# ---------------------------------------------------------------------------
# training-data ops
# ---------------------------------------------------------------------------


def _ann_queries(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", ANN_QUERY_IDS)],
    )
    ids = t["vec_id"].to_numpy()
    order = np.argsort(ids)
    m = np.stack(t["embedding"].to_pylist()).astype(np.float64)[order]
    return ids[order], m


def q_fingerprint(sf_dir: str):
    # rows-only check (rolling hash not expressible in SQL)
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(text.Fingerprint, batch_format="pandas", concurrency=(1, 4))


def q_simhash(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(dedup.SimHash, batch_format="pandas", concurrency=(1, 4))


def _synth_images(sf_dir: str):
    """Deterministic image per documents row (the payload-table synth
    path shared by the decode/resize multimodal queries)."""
    from oluray.sources import fixtures

    docs = _read(sf_dir, "documents", ["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        blobs, fmts, ws, hs, iids = [], [], [], [], []
        for i in ids:
            w = h = fixtures.SIZES[int(i) % len(fixtures.SIZES)]
            fmt = fixtures.FMTS[int(i) % len(fixtures.FMTS)]
            px = fixtures._pixels(int(i), w, h, 42)
            from oluray.functions.imagecodec import encode

            blobs.append(encode(px, fmt))
            fmts.append(fmt)
            ws.append(w)
            hs.append(h)
            iids.append(f"img{int(i):08d}")
        return pa.table(
            {
                "image_id": pa.array(iids),
                "bytes": pa.array(blobs, pa.binary()),
                "fmt": pa.array(fmts),
                "w": pa.array(ws, pa.int32()),
                "h": pa.array(hs, pa.int32()),
            }
        )

    return docs.map_batches(synth, batch_format="pyarrow", batch_size=256)


def q_phash_near_dup(sf_dir: str):
    """Image near-duplicate pairs: banded Hamming over the 64-bit
    perceptual hash — `dedup.hamming_band_pairs` applied to the image
    axis (same sketch machinery as simhash over text; bytes never
    move, only (id, phash) rows). Rows-only (phash is not expressible
    in SQL); brute-force-verified in pytest."""
    from oluray.sources import fixtures

    docs = _read(sf_dir, "documents", ["doc_id"])

    def synth_phash(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        ph = [
            fixtures.phash64(
                fixtures._pixels(
                    int(i),
                    fixtures.SIZES[int(i) % len(fixtures.SIZES)],
                    fixtures.SIZES[int(i) % len(fixtures.SIZES)], 42,
                )
            )
            for i in ids
        ]
        return pa.table(
            {"image_id": pa.array(ids.astype("int64")),
             "phash": pa.array(ph, pa.int64())}
        )

    sigs = docs.map_batches(synth_phash, batch_format="pyarrow", batch_size=256)
    return dedup.hamming_band_pairs(
        sigs, id_col="image_id", sig_col="phash", max_hamming=2,
        bucket_cap=1024, out_prefix="image",
    )


def q_image_dup_clusters(sf_dir: str):
    """Image near-duplicate CLUSTERS — the canonical web-scale image
    pipeline op: banded-Hamming phash pairs (`q_phash_near_dup`'s
    machinery) fed into distributed connected components
    (`joins.connected_components`); label = min image_id of each
    cluster. Bytes never move; the CC exchange carries (node, label)
    rows bounded by duplicate mass. Rows-only (phash + iterative CC
    not expressible in SQL); cross-checked in pytest against a brute
    union-find over brute Hamming pairs."""
    pairs = q_phash_near_dup(sf_dir)
    return joins.connected_components(
        pairs, a_col="image_a", b_col="image_b", num_partitions=16,
    )


RADIUS_M = 2_000_000.0  # 2000 km distance-join radius


def q_radius_join(sf_dir: str):
    """Distance (radius) join: every (customer point, feature) pair
    within 2000 km great-circle distance — the 'within X km of'
    primitive complementing `knn_assign`'s nearest-only answer. The
    feature side is tiny and broadcast-closed over every batch (one
    vectorized 8-column haversine per block, no shuffle at all); at
    scale the same shape holds for any lookup table that fits a
    worker heap, with cell-cover prefiltering as the growth path
    (`spatial.knn_join`'s k-ring machinery)."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    pts = _with_points(cust, "c_custkey")
    fid = np.array([f[0] for f in KNN_FEATURES], dtype=np.int64)
    flon = np.array([f[1] for f in KNN_FEATURES])
    flat_ = np.array([f[2] for f in KNN_FEATURES])

    def within(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        d = geo.haversine_m(lon[:, None], lat[:, None],
                            flon[None, :], flat_[None, :])
        ii, jj = np.nonzero(d < RADIUS_M)
        return pa.table(
            {
                "c_custkey": pa.array(
                    t["c_custkey"].to_numpy(zero_copy_only=False)[ii]),
                "feature_id": pa.array(fid[jj]),
                "dist_m": pa.array(np.round(d[ii, jj], 3)),
            }
        )

    return pts.map_batches(within, batch_format="pyarrow")


def q_label_centroids(sf_dir: str):
    """Per-class embedding centroid (the prototype/mean-vector
    primitive of few-shot and SemDeDup-style pipelines), exact: each
    component quantized to 1e-6 int64 once, per-block per-label
    vector sums (one `np.add.at` scatter over label codes — the
    shuffle carries ONE 64-dim int row per (block, label), never
    embeddings), hash-partitioned final sum, long-format output.
    The caller divides s_1e6 by n for the float centroid."""
    emb = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"label": pa.array([], pa.int32()),
                             "dim": pa.array([], pa.int64()),
                             "s_1e6": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        M = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
        q = _round_half_away(M.astype(np.float64) * 1e6)
        lab = t["label"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(lab)
        sums = np.zeros((len(uniq), q.shape[1]), dtype=np.int64)
        np.add.at(sums, codes, q)
        counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        k, dims = sums.shape
        return pa.table(
            {
                "label": pa.array(np.repeat(uniq, dims).astype(lab.dtype)),
                "dim": pa.array(np.tile(np.arange(1, dims + 1), k)),
                "s_1e6": pa.array(sums.reshape(-1)),
                "n": pa.array(np.repeat(counts, dims)),
            }
        )

    partials = emb.map_batches(partial, batch_format="pyarrow",
                               batch_size=4096)

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["label", "dim"], as_index=False).agg(
            s_1e6=("s_1e6", "sum"), n=("n", "sum"))
        g["s_1e6"] = g["s_1e6"].astype("int64")
        g["n"] = g["n"].astype("int64")
        return g

    return joins.partitioned_map(partials, ["label", "dim"], agg,
                                 num_partitions=8, pre_repartition=False)


def _skyline2d(price: np.ndarray, size: np.ndarray,
               key: np.ndarray) -> np.ndarray:
    """Indices of the 2-D Pareto frontier (minimize price, maximize
    size; strict domination). Sort by (price asc, size desc, key):
    a row survives iff it carries its price-group's max size AND that
    max strictly beats every cheaper group's running max."""
    n = len(price)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort((key, -size, price))
    p, s = price[order], size[order]
    new_grp = np.empty(n, dtype=bool)
    new_grp[0] = True
    new_grp[1:] = p[1:] != p[:-1]
    gid = np.cumsum(new_grp) - 1
    gmax = s[new_grp][gid]          # per-row: its price-group's max size
    grp_first_max = s[new_grp]      # one per group, in price order
    prevmax = np.concatenate(
        ([np.iinfo(np.int64).min if s.dtype.kind == "i" else -np.inf],
         np.maximum.accumulate(grp_first_max)[:-1])
    )[gid]
    keep = (s == gmax) & (gmax > prevmax)
    return order[keep]


def q_part_skyline(sf_dir: str):
    """Distributed skyline (Pareto frontier): parts not strictly
    dominated on (lower retail price, larger size). The combiner
    computes each BLOCK's local skyline first — sound because the
    global frontier is a subset of every local frontier's union — so
    only frontier candidates (typically a vanishing fraction) reach
    the final single-partition pass — and that finish is TREE-REDUCED
    (r4, VERDICT r3 item 3): a middle 8-way local-skyline level prunes
    again before the single-task merge, so even an adversarial
    all-frontier input funnels at most the (already pruned) candidate
    stream of 8 tasks — never the corpus — into one worker, and the
    final gather is bounded by the true output size."""
    part = _read(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])

    def local(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df
        idx = _skyline2d(df["p_retailprice"].to_numpy(np.float64),
                         df["p_size"].to_numpy(np.int64),
                         df["p_partkey"].to_numpy(np.int64))
        return df.iloc[np.sort(idx)]

    cand = part.map_batches(local, batch_format="pandas", batch_size=65536)
    # batch_size=None: a reduce level must see its WHOLE partition in
    # one call — the default 1024-row batching would union per-chunk
    # skylines without merging them (a superset, not the frontier)
    mid = cand.repartition(8).map_batches(
        local, batch_format="pandas", batch_size=None
    )
    final = mid.repartition(1).map_batches(
        local, batch_format="pandas", batch_size=None
    )
    return final.select_columns(["p_partkey"])


def q_time_weighted_avg(sf_dir: str):
    """Time-weighted aggregate per user: each event's value (cents)
    weighted by whole seconds until the user's NEXT event — the
    sensor-data / billing primitive behind time-weighted averages.
    Reported as exact integer (weighted-sum, duration) pairs so the
    distributed sum is associative; the final division is the
    caller's (avoids a 0-duration NULL convention). One user hash
    partition, one sort, one shift — the LEAD sibling of
    `q_lag_delta`."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def twa(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": pd.array([], dtype="int64"),
                 "wsum": pd.array([], dtype="int64"),
                 "wdur": pd.array([], dtype="int64")}
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        # whole-second boundary count = trunc(us/1e6) difference,
        # matching date_diff('second', ...)
        sec = (df["ts"].astype("datetime64[us]").astype("int64")
               .to_numpy() // 1_000_000)
        cents = _round_half_away(df["value"].to_numpy() * 100)
        nxt = np.roll(sec, -1)
        same_next = df["user_id"].eq(df["user_id"].shift(-1)).to_numpy()
        dur = np.where(same_next, nxt - sec, 0)
        out = pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                            "w": dur * cents, "d": dur})
        g = out.groupby("user_id", as_index=False).agg(
            wsum=("w", "sum"), wdur=("d", "sum"))
        g["wsum"] = g["wsum"].astype("int64")
        g["wdur"] = g["wdur"].astype("int64")
        return g

    return joins.partitioned_map(ev, ["user_id"], twa, num_partitions=32,
                                 pre_repartition=False)


def q_unigram_logprob(sf_dir: str):
    """Unigram language-model scoring (the perplexity-style quality
    filter of LLM-data pipelines): every doc's summed log-probability
    under the corpus's own unigram distribution, in exact micro-nat
    integers. Fully distributed: Arrow-vectorized token explode,
    hash-partitioned vocab count, per-token logprob quantized to
    int64 ONCE on the vocab row (sum of ints is associative — no
    float drift across the shuffle), large-large hash join of the
    token stream against the vocab (a web corpus's vocab outgrows any
    broadcast), per-doc integer sum. Only the scalar grand total
    crosses the driver."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]), r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        ids = pc.take(t["doc_id"], parent)
        keep = pc.not_equal(flat, "")
        return pa.table({"doc_id": ids, "tok": flat}).filter(keep)

    toks = docs.map_batches(explode, batch_format="pyarrow",
                            batch_size=8192)

    def vc(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("tok", as_index=False).size()
        g["c"] = g.pop("size").astype("int64")
        return g

    def vs(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("tok", as_index=False)["c"].sum()
        g["c"] = g["c"].astype("int64")
        return g

    vocab = joins.grouped_agg(toks, ["tok"], vs, num_partitions=16,
                              combine_fn=vc, pre_repartition=False)
    vocab = vocab.materialize()  # consumed twice: total + join side
    partials = vocab.map_batches(
        lambda t: pa.table({"n": pa.array([int(np.sum(t["c"].to_numpy()))])}),
        batch_format="pyarrow",
    ).to_pandas()
    total = int(partials["n"].sum()) if len(partials) else 0
    if total == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "logprob_u6": pa.array([], pa.int64()),
                         "n_tok": pa.array([], pa.int64())})

    def u6(t: pa.Table, n: int = total) -> pa.Table:
        lp = np.log(t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
                    / float(n))
        return pa.table({"tok": t["tok"],
                         "u6": pa.array(_round_half_away(lp * 1e6))})

    vocab_u6 = vocab.map_batches(u6, batch_format="pyarrow")
    j = joins.hash_join(toks, vocab_u6, on="tok", num_partitions=16)

    def dsum_c(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", as_index=False).agg(
            logprob_u6=("u6", "sum"), n_tok=("u6", "size"))
        g["n_tok"] = g["n_tok"].astype("int64")
        return g

    def dsum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", as_index=False).agg(
            logprob_u6=("logprob_u6", "sum"), n_tok=("n_tok", "sum"))
        g["logprob_u6"] = g["logprob_u6"].astype("int64")
        g["n_tok"] = g["n_tok"].astype("int64")
        return g

    return joins.grouped_agg(j, ["doc_id"], dsum, num_partitions=16,
                             combine_fn=dsum_c, pre_repartition=False)


def q_caption_pairs(sf_dir: str):
    """Multimodal pair curation: the (image, caption) training-pair
    draw — synth per-doc image metadata joined back to the documents
    table (large-large hash join on doc_id), quality-gated on the
    text side (>= 30 whitespace tokens), emitting (doc_id, image_id,
    caption, n_tok). Bytes never enter the join: only metadata moves
    through the shuffle, the pair list references images by id —
    the bytes-stay-put contract of the flagship pipeline applied to
    pair curation. Rows-only (the caption synth is not in SQL)."""
    from oluray.sources import fixtures

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def meta(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "image_id": pa.array([f"img{int(i):08d}" for i in ids]),
                "caption": pa.array([fixtures.caption_for(int(i), 42)
                                     for i in ids]),
            }
        )

    img_meta = docs.select_columns(["doc_id"]).map_batches(
        meta, batch_format="pyarrow")

    def tokc(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern_regex(
            t["text"], r"\s+")).cast(pa.int64())
        return pa.table({"doc_id": t["doc_id"], "n_tok": n})

    toks = docs.map_batches(tokc, batch_format="pyarrow")
    j = joins.hash_join(img_meta, toks, on="doc_id", num_partitions=16)
    return j.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_tok"], 30)),
        batch_format="pyarrow",
    ).select_columns(["doc_id", "image_id", "caption", "n_tok"])


# ---------------------------------------------------------------------------
# stream-shaped operators (windows / as-of / sessions) — Ray Data has
# no event-time windowing; these follow the ordered-log pattern:
# partition by key, order by (ts, event_id) inside the group
# ---------------------------------------------------------------------------


def q_merge_intervals(sf_dir: str):
    """Gaps-and-islands: merge each user's overlapping-or-touching
    30-minute activity windows into maximal islands — (user, island
    start, island end, event count). Per-user hash partition, then
    per-partition vectorized arithmetic: sort by (user, start), C-level
    grouped cummax of the running end, island break where start exceeds
    the previous cummax, grouped min/max/count. Equal-start ties can't
    flip a break (a same-start predecessor's end always covers the
    start), so the result is order-deterministic and hash-matches the
    windowed SQL."""
    M30 = 1_800_000_000  # 30 min in epoch us

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def islands(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": pd.array([], dtype="int64"),
                 "island_start": pd.Series([], dtype="datetime64[us]"),
                 "island_end": pd.Series([], dtype="datetime64[us]"),
                 "n_events": pd.array([], dtype="int64")}
            )
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        s = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        e = s + M30
        g = df.groupby("user_id", sort=False)
        prev_cm = pd.Series(e).groupby(df["user_id"], sort=False).cummax() \
                    .groupby(df["user_id"], sort=False).shift(1)
        brk = (s > prev_cm.fillna(np.iinfo(np.int64).min).to_numpy()) \
            | df["user_id"].ne(df["user_id"].shift()).to_numpy()
        island = np.cumsum(brk)
        # island end = max RAW member end (the cummax above was only
        # for break detection; a global cummax would leak across users)
        out = pd.DataFrame({"user_id": df["user_id"], "island": island,
                            "s": s, "e": e})
        agg = out.groupby(["user_id", "island"], as_index=False).agg(
            island_start=("s", "min"), island_end_raw=("e", "max"),
            n_events=("s", "size"),
        )
        return pd.DataFrame(
            {
                "user_id": agg["user_id"],
                "island_start": pd.to_datetime(agg["island_start"], unit="us"),
                "island_end": pd.to_datetime(agg["island_end_raw"], unit="us"),
                "n_events": agg["n_events"].astype("int64"),
            }
        )

    return joins.partitioned_map(ev, ["user_id"], islands,
                                 num_partitions=16, pre_repartition=False)


# int64 headroom bound for the rolling-window composite key (sum of
# per-user activity spans in us); module-level so tests can shrink it
# to force the exact per-segment fallback path
_ROLL_KEY_LIMIT = float(1 << 62)


def q_rolling_24h(sf_dir: str):
    """Time-RANGE rolling aggregate: per event, the count and
    cent-sum of the same user's events in [ts - 24h, ts] (SQL RANGE
    frame incl. ts peers). Hash-partition on user, per-partition
    sort + prefix sums + two vectorized searchsorteds over a
    composite key built from cumulative per-segment base offsets —
    no per-user Python loop, no window library."""
    W = 24 * 3_600_000_000  # 24h in epoch us

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def roll(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        cents = _round_half_away(df["value"].to_numpy() * 100)
        if len(df) == 0:
            return pd.DataFrame(
                {"event_id": pd.array([], dtype="int64"),
                 "user_id": pd.array([], dtype="int64"),
                 "w_n": pd.array([], dtype="int64"),
                 "w_sum_cents": pd.array([], dtype="int64")}
            )
        n = len(df)
        starts = df["user_id"].ne(df["user_id"].shift()).to_numpy()
        seg = starts.cumsum() - 1
        seg_start_idx = np.flatnonzero(starts)
        # per-segment rel-ts (vs each user's own first event, not the
        # partition min) + cumulative base offsets: comp is globally
        # sorted, key magnitude = sum of per-user activity spans — NOT
        # (group count << uniform shift), which overflowed int64 at a
        # few thousand users x multi-year span per partition
        rel = ts - ts[seg_start_idx][seg]
        spans = rel[np.append(seg_start_idx[1:] - 1, n - 1)]
        if float(spans.sum()) + len(spans) < _ROLL_KEY_LIMIT:
            base = np.concatenate(([0], np.cumsum(spans[:-1] + 1)))
            comp = base[seg] + rel
            lo = np.searchsorted(comp, base[seg] + np.maximum(rel - W, 0),
                                 side="left")
            hi = np.searchsorted(comp, comp, side="right")
        else:
            # pathological (sum of spans near 2^62 us): exact per-segment
            # searchsorted, C-speed per slice, loop only over segments
            lo = np.empty(n, np.int64)
            hi = np.empty(n, np.int64)
            bounds = np.append(seg_start_idx, n)
            for s in range(len(seg_start_idx)):
                a, b = bounds[s], bounds[s + 1]
                r = rel[a:b]
                lo[a:b] = a + np.searchsorted(r, np.maximum(r - W, 0),
                                              side="left")
                hi[a:b] = a + np.searchsorted(r, r, side="right")
        csum = np.concatenate(([0], np.cumsum(cents)))
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "w_n": (hi - lo).astype(np.int64),
                "w_sum_cents": csum[hi] - csum[lo],
            }
        )

    return joins.partitioned_map(ev, ["user_id"], roll, num_partitions=32,
                                 pre_repartition=False)  # map-lineage input


def q_running_total(sf_dir: str):
    """ROWS-frame cumulative aggregate (the ordered-log complement of
    `q_rolling_24h`'s RANGE frame): per event, the running cent-sum
    of the same user's events so far, ordered by (ts, event_id).
    Per-partition vectorized: one sort, one cumsum, per-segment base
    subtraction via a forward-filled start index — sign-safe (no
    monotonicity assumption on the running sum)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def run(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        cents = _round_half_away(df["value"].to_numpy() * 100)
        n = len(df)
        if n == 0:
            return pd.DataFrame(
                {"event_id": pd.array([], dtype="int64"),
                 "user_id": pd.array([], dtype="int64"),
                 "run_cents": pd.array([], dtype="int64")}
            )
        csum = np.cumsum(cents)
        prev = np.concatenate(([0], csum[:-1]))
        starts = df["user_id"].ne(df["user_id"].shift()).to_numpy()
        start_idx = np.maximum.accumulate(
            np.where(starts, np.arange(n), 0)
        )
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "run_cents": csum - prev[start_idx],
            }
        )

    return joins.partitioned_map(ev, ["user_id"], run, num_partitions=32,
                                 pre_repartition=False)  # map-lineage input


def q_cust_event_counts(sf_dir: str):
    """LEFT OUTER join under an oracle: per customer the count and
    cent-sum of their events, ZERO for the (many) customers with no
    events. Scale shape: aggregate is pushed BELOW the join — events
    collapse to one row per user first (combiner + hash partition),
    then the left join pads the misses; the big table never carries
    customer columns through a shuffle."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    ev = _read(sf_dir, "events", ["user_id", "event_id", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = _round_half_away(t["value"].to_numpy(zero_copy_only=False) * 100)
        return pa.table({"user_id": t["user_id"], "cents": pa.array(c)})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False).agg(
            cents=("cents", "sum"), __n=("cents", "size")
        )
        return g

    def agg2(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False).agg(
            n_events=("__n", "sum"), sum_cents=("cents", "sum")
        )
        g["n_events"] = g["n_events"].astype("int64")
        return g

    per_user = joins.grouped_agg(
        ev.map_batches(cents, batch_format="pyarrow"),
        ["user_id"], agg2, num_partitions=32, combine_fn=combine,
        pre_repartition=False,
    )
    # size-probed dispatch: the aggregate side is distinct-user-sized —
    # broadcastable at bench scale, a shuffle join past the bounds
    out = joins.auto_join(cust, per_user, on="c_custkey",
                          right_on="user_id", how="left",
                          num_partitions=32)

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_custkey": df["c_custkey"],
                "n_events": df["n_events"].fillna(0).astype("int64"),
                "sum_cents": df["sum_cents"].fillna(0).astype("int64"),
            }
        )

    return out.map_batches(fill, batch_format="pandas")


def q_zorder_cells(sf_dir: str):
    """Z-order (Morton) locality codes over the customer point grid
    (`geo.morton_code`): the key the tiled sink sorts by so adjacent
    cells land in adjacent blocks. Pure per-batch map — the sort
    itself is exercised (order-insensitive hash can't see it) by the
    locality pytest."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    pts = spatial.add_cell_column(_with_points(cust, "c_custkey"), CELL_RES)

    def code(t: pa.Table) -> pa.Table:
        m = geo.morton_code(t["cell"].to_numpy(zero_copy_only=False))
        return pa.table(
            {"c_custkey": t["c_custkey"], "cell": t["cell"],
             "morton": pa.array(m)}
        )

    return pts.map_batches(code, batch_format="pyarrow")


def q_cell_pyramid(sf_dir: str):
    """Hierarchical tile-pyramid rollup: per-cell point counts at res
    12, rolled up to res 8 and 4 by REUSING the child level's counts
    (each coarser level aggregates the level below via
    `geo.cell_parent`, never rescanning the points — the multi-zoom
    materialization pattern for map tiles)."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    base = spatial.add_cell_column(
        _with_points(cust, "c_custkey"), CELL_RES
    ).select_columns(["cell"])

    def partial(t: pa.Table) -> pa.Table:
        cells, counts = np.unique(
            t["cell"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table({"cell": pa.array(cells),
                         "n": pa.array(counts.astype(np.int64))})

    def ssum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("cell", as_index=False)["n"].sum()

    # materialize each level: it is the AGGREGATED per-cell count
    # table (bounded by distinct cells, not corpus rows) and both the
    # union branch and the next rollup consume it — without pinning,
    # the lazy union would re-run the full point scan once per zoom
    level = joins.grouped_agg(
        base.map_batches(partial, batch_format="pyarrow"),
        ["cell"], ssum, num_partitions=32, pre_repartition=False,
    ).materialize()
    out = level
    for pres in (8, 4):
        def up(df: pd.DataFrame, pres: int = pres) -> pd.DataFrame:
            df = df.copy(deep=False)
            df["cell"] = geo.cell_parent(df["cell"].to_numpy(), pres)
            return df

        level = joins.grouped_agg(
            level.map_batches(up, batch_format="pandas"),
            ["cell"], ssum, num_partitions=16,
        ).materialize()
        out = out.union(level)
    return out


def q_embed_outliers(sf_dir: str):
    """Embedding-space outlier detection (the label-noise filter of
    curated training sets): top-5 vectors per label FARTHEST from
    their own label centroid. Exactness trick: with vectors quantized
    to 1e-3 ints q and per-(label,dim) integer sums (s, n), the
    scaled squared distance  d2 = Σ_dim (q·n − s)²  is an exact int64
    (no float centroid, no drift; bound documented below). Stages:
    one combiner-bounded (label,dim) sum shuffle; the centroid table
    (labels × dims int rows — an AGGREGATE, broadcast via one object)
    rides into a stateless per-batch matrix pass; `joins.group_topk`
    finishes. Overflow bound: |q·n − s| ≤ 2·max|q|·n ≈ 2e3·n, safe in
    int64 up to n ≈ 1.5e6 rows per label per dim=64 — beyond that,
    requantize or split labels."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "label", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"label": pa.array([], pa.int32()),
                             "dim": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        M = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
        q = _round_half_away(M.astype(np.float64) * 1000.0)
        lab = t["label"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(lab)
        sums = np.zeros((len(uniq), q.shape[1]), dtype=np.int64)
        np.add.at(sums, codes, q)
        counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        k, dims = sums.shape
        return pa.table({
            "label": pa.array(np.repeat(uniq, dims).astype(lab.dtype)),
            "dim": pa.array(np.tile(np.arange(1, dims + 1), k)),
            "s": pa.array(sums.reshape(-1)),
            "n": pa.array(np.repeat(counts, dims)),
        })

    def csum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["label", "dim"], as_index=False).agg(
            s=("s", "sum"), n=("n", "sum"))
        g["s"] = g["s"].astype("int64")
        g["n"] = g["n"].astype("int64")
        return g

    cent = joins.grouped_agg(
        emb.map_batches(partial, batch_format="pyarrow", batch_size=4096),
        ["label", "dim"], csum, num_partitions=16, pre_repartition=False,
    ).to_pandas()  # aggregate-sized: labels x dims int rows
    cent = cent.sort_values(["label", "dim"])
    labels = cent["label"].unique()
    lab_pos = {int(l): i for i, l in enumerate(labels)}
    dims = int(cent["dim"].max())
    S = cent["s"].to_numpy().reshape(len(labels), dims)
    N = cent.groupby("label", sort=True)["n"].first().to_numpy()
    S_ref = ray.put((lab_pos, S, N))  # ships once, read per task

    def d2(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"label": pa.array([], pa.int32()),
                             "vec_id": pa.array([], pa.int64()),
                             "d2": pa.array([], pa.int64())})
        lp, S, N = ray.get(S_ref)
        M = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
        q = _round_half_away(M.astype(np.float64) * 1000.0)
        lab = t["label"].to_numpy(zero_copy_only=False)
        pos = np.array([lp[int(x)] for x in lab], dtype=np.int64)
        diff = q * N[pos][:, None] - S[pos]
        return pa.table({
            "label": t["label"],
            "vec_id": t["vec_id"],
            "d2": pa.array(np.einsum("ij,ij->i", diff, diff)),
        })

    scored = emb.map_batches(d2, batch_format="pyarrow", batch_size=4096)
    return joins.group_topk(scored, ["label"],
                            [("d2", False), ("vec_id", True)], k=5,
                            num_partitions=8)


def _embed_outliers_sql() -> str:
    return """
    WITH q AS (
      SELECT vec_id, label, i AS dim,
             round(embedding[i]::DOUBLE * 1000.0)::BIGINT AS qv
      FROM embeddings, unnest(generate_series(1, len(embedding))) AS t(i)),
    s AS (SELECT label, dim, sum(qv)::BIGINT AS s, count(*)::BIGINT AS n
          FROM q GROUP BY label, dim),
    d AS (SELECT vec_id, q.label AS label,
                 sum((qv * n - s) * (qv * n - s))::BIGINT AS d2
          FROM q JOIN s ON q.label = s.label AND q.dim = s.dim
          GROUP BY vec_id, q.label),
    r AS (SELECT label, vec_id, d2,
                 row_number() OVER (PARTITION BY label
                                    ORDER BY d2 DESC, vec_id) AS rn
          FROM d)
    SELECT label, vec_id, d2 FROM r WHERE rn <= 5
    """


def q_late_events(sf_dir: str):
    """Out-of-order (late) event detection — the watermarking
    primitive of stream pipelines: an event is LATE when its event
    time precedes the running max event time of earlier arrivals
    of the same user; lateness as an exact microsecond integer. The
    synthetic log is time-ordered, so ARRIVAL order is simulated by a
    deterministic Knuth-hash permutation of event_id (identical
    HUGEINT arithmetic in the SQL oracle) — the operator itself is
    order-agnostic. One user-hash partition, per-partition sort +
    grouped cummax + shift — all C level, no per-user loop."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def late(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "event_id": pd.array([], dtype="int64"),
            "user_id": pd.array([], dtype="int64"),
            "late_us": pd.array([], dtype="int64"),
        })
        if len(df) == 0:
            return empty
        df = df.copy(deep=False)
        df["arr"] = (
            df["event_id"].to_numpy().astype(np.uint64)
            * np.uint64(2654435761)
        ) % np.uint64(1 << 32)
        df = df.sort_values(["user_id", "arr", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        wm = df.groupby("user_id", sort=False)["ts"].transform(
            lambda s: s.cummax().shift())
        m = wm.notna() & (wm > df["ts"])
        if not m.any():
            return empty
        lat = (wm[m] - df.loc[m, "ts"]).to_numpy().astype(
            "timedelta64[us]").astype(np.int64)
        return pd.DataFrame({
            "event_id": df.loc[m, "event_id"].to_numpy(),
            "user_id": df.loc[m, "user_id"].to_numpy(),
            "late_us": lat,
        })

    return joins.partitioned_map(ev, ["user_id"], late, 32,
                                 pre_repartition=False)


def _late_events_sql() -> str:
    return """
    WITH a AS (
      SELECT event_id, user_id, ts,
             ((event_id::HUGEINT * 2654435761) % 4294967296)::BIGINT AS arr
      FROM events),
    m AS (
      SELECT event_id, user_id, ts,
             max(ts) OVER (PARTITION BY user_id ORDER BY arr, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS wm
      FROM a)
    SELECT event_id, user_id,
           date_diff('microsecond', ts, wm)::BIGINT AS late_us
    FROM m WHERE wm > ts
    """


def q_trending_types(sf_dir: str):
    """Per-window trending items: top-3 event types per tumbling hour
    by count (ties to the lexicographically smaller type) — the
    'what's hot right now' leaderboard over a stream log. Two
    combiner-bounded stages: hourly (hour, type) counts collapse
    per block before their shuffle, then `joins.group_topk` keeps
    <= 3 rows per (block, hour) before ITS shuffle — the exchange
    never carries event rows."""
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["hour"] = df["ts"].dt.floor("h")
        g = df.groupby(["hour", "event_type"], as_index=False).size()
        g["n"] = g.pop("size").astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    def csum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["hour", "event_type"], as_index=False)["n"].sum()
        g["n"] = g["n"].astype("int64")
        return g

    counts = joins.grouped_agg(
        ev.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["hour", "event_type"], csum, num_partitions=32,
        pre_repartition=False,
    )
    top = joins.group_topk(
        counts, ["hour"], [("n", False), ("event_type", True)], k=3,
        num_partitions=16,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy(deep=False)
        df["hour"] = df["hour"].astype("datetime64[us]")
        return df

    return top.map_batches(finish, batch_format="pandas")


def _trending_types_sql() -> str:
    return """
    WITH c AS (
      SELECT date_trunc('hour', ts) AS hour, event_type,
             count(*)::BIGINT AS n
      FROM events GROUP BY 1, 2),
    r AS (
      SELECT hour, event_type, n,
             row_number() OVER (PARTITION BY hour
                                ORDER BY n DESC, event_type) AS rn
      FROM c)
    SELECT hour, event_type, n FROM r WHERE rn <= 3
    """


def q_min_price_supplier(sf_dir: str):
    """TPC-H Q2-shaped correlated min over a multi-join: for every
    part, the cheapest EUROPE-region supply offer (unit price from
    lineitem) with deterministic supplier tie-break. Shape: the dim
    chain region ⋈ nation ⋈ supplier is assembled aggregate-side and
    attached to the offer stream via the size-probed `auto_join`
    (broadcast here, shuffle when a dim outgrows the bounds); the
    correlated `min` is an ALGEBRAIC argmin — a per-block combiner
    collapses each block to one row per part BEFORE the shuffle, so
    the exchange is bounded by distinct parts per block, never offer
    rows."""
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"])

    def price(t: pa.Table) -> pa.Table:
        ext = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_partkey": t["l_partkey"],
                "s_suppkey": t["l_suppkey"],
                "price_c": pa.array(_round_half_away(ext / qty * 100.0)),
            }
        )

    offers = li.map_batches(price, batch_format="pyarrow")

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey"])
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"])
    reg = reg.map_batches(
        lambda t: t.filter(pc.equal(t["r_name"], "EUROPE")),
        batch_format="pyarrow",
    )
    eur = joins.auto_join(nat, reg, on="n_regionkey", right_on="r_regionkey")
    eur_sup = joins.auto_join(sup, eur, on="s_nationkey",
                              right_on="n_nationkey").select_columns(
        ["s_suppkey", "s_name", "n_name"])

    tagged = joins.auto_join(offers, eur_sup, on="s_suppkey")

    def argmin(df: pd.DataFrame) -> pd.DataFrame:
        # min price per part, ties to the smallest supplier key: one
        # vectorized sort + first-row pick (C level)
        return df.sort_values(
            ["p_partkey", "price_c", "s_suppkey"], kind="mergesort"
        ).drop_duplicates("p_partkey")

    out = joins.grouped_agg(tagged, ["p_partkey"], argmin,
                            num_partitions=32, combine_fn=argmin)

    def finish(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["min_price_cents" if c == "price_c" else c
             for c in t.column_names]
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _min_price_supplier_sql() -> str:
    return """
    WITH offers AS (
      SELECT l_partkey, l_suppkey,
             round(l_extendedprice / l_quantity * 100.0)::BIGINT AS price_c
      FROM lineitem),
    eur AS (
      SELECT s_suppkey, s_name, n_name FROM supplier
      JOIN nation ON s_nationkey = n_nationkey
      JOIN region ON n_regionkey = r_regionkey
      WHERE r_name = 'EUROPE'),
    w AS (
      SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey, s_name,
             n_name, price_c,
             row_number() OVER (PARTITION BY l_partkey
                                ORDER BY price_c, l_suppkey) AS rn
      FROM offers JOIN eur ON l_suppkey = s_suppkey)
    SELECT p_partkey, s_suppkey, s_name, n_name,
           price_c AS min_price_cents
    FROM w WHERE rn = 1
    """


def q_bigram_pmi(sf_dir: str):
    """Collocation (phrase) mining: pointwise mutual information of
    every adjacent word pair occurring >= 2 times — the phrase-table
    builder of tokenizer/LM data pipelines. Fully distributed: one
    Arrow-vectorized token explode per block feeds BOTH count streams
    (doc = row, so bigram pairing is map-side adjacency, no position
    shuffle); unigram and bigram counts each take one combiner +
    hash-partition sum; the bigram table is then hash-joined against
    the vocab on each side (a web corpus's vocab outgrows any
    broadcast). Only the two scalar totals touch the driver. PMI is
    computed once per surviving bigram row as a single IEEE double
    expression mirrored exactly by the SQL oracle."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def tokens(t: pa.Table):
        toks = pc.split_pattern_regex(pc.utf8_lower(t["text"]), r"\s+")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = flat != ""
        return flat[keep], parent[keep]

    def uni_partial(t: pa.Table) -> pa.Table:
        flat, _ = tokens(t)
        tok, c = np.unique(flat, return_counts=True)
        return pa.table({"tok": pa.array(tok),
                         "c": pa.array(c.astype(np.int64))})

    def big_partial(t: pa.Table) -> pa.Table:
        flat, parent = tokens(t)
        if len(flat) < 2:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "n_ab": pa.array([], pa.int64())})
        adj = parent[1:] == parent[:-1]
        df = pd.DataFrame({"w1": flat[:-1][adj], "w2": flat[1:][adj]})
        g = df.groupby(["w1", "w2"], as_index=False).size()
        g["n_ab"] = g.pop("size").astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    def usum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("tok", as_index=False)["c"].sum()
        g["c"] = g["c"].astype("int64")
        return g

    def bsum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["w1", "w2"], as_index=False)["n_ab"].sum()
        g["n_ab"] = g["n_ab"].astype("int64")
        return g

    uni = joins.grouped_agg(
        docs.map_batches(uni_partial, batch_format="pyarrow",
                         batch_size=8192),
        ["tok"], usum, num_partitions=32, pre_repartition=False,
    ).materialize()  # aggregate-sized; feeds the total AND two joins
    big = joins.grouped_agg(
        docs.map_batches(big_partial, batch_format="pyarrow",
                         batch_size=8192),
        ["w1", "w2"], bsum, num_partitions=32, pre_repartition=False,
    ).materialize()
    t_total = uni.sum("c")
    b_total = big.sum("n_ab")  # over ALL bigrams, pre-threshold

    surviving = big.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_ab"], 2)),
        batch_format="pyarrow",
    )
    j = joins.hash_join(surviving, uni, on="w1", right_on="tok",
                        num_partitions=16)          # + c   (left word)
    j = joins.hash_join(j, uni, on="w2", right_on="tok",
                        num_partitions=16)          # + c_r (right word)

    def pmi(t: pa.Table) -> pa.Table:
        n_ab = t["n_ab"].to_numpy(zero_copy_only=False).astype(np.float64)
        ca = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        cb = t["c_r"].to_numpy(zero_copy_only=False).astype(np.float64)
        val = np.log((n_ab * float(t_total) * float(t_total))
                     / (float(b_total) * ca * cb)) * 1e6
        return pa.table(
            {
                "w1": t["w1"], "w2": t["w2"], "n_ab": t["n_ab"],
                "pmi_u6": pa.array(_round_half_away(val)),
            }
        )

    return j.map_batches(pmi, batch_format="pyarrow")


def _bigram_pmi_sql() -> str:
    return r"""
    WITH d AS (
      SELECT doc_id, string_split_regex(lower(text), '\s+') AS ws
      FROM documents),
    raw AS (
      SELECT doc_id, i, ws[i] AS tok
      FROM d, unnest(generate_series(1, len(ws))) AS t(i)
      WHERE ws[i] <> ''),
    toks AS (
      SELECT doc_id, tok,
             row_number() OVER (PARTITION BY doc_id ORDER BY i) AS pos
      FROM raw),
    uni AS (SELECT tok, count(*)::BIGINT AS c FROM toks GROUP BY tok),
    tot AS (SELECT sum(c)::BIGINT AS t FROM uni),
    allbig AS (
      SELECT a.tok AS w1, b.tok AS w2, count(*)::BIGINT AS n_ab
      FROM toks a JOIN toks b
        ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
      GROUP BY a.tok, b.tok),
    btot AS (SELECT sum(n_ab)::BIGINT AS b FROM allbig)
    SELECT w1, w2, n_ab,
           round(ln((n_ab::DOUBLE * t::DOUBLE * t::DOUBLE)
                    / (b::DOUBLE * ua.c::DOUBLE * ub.c::DOUBLE))
                 * 1e6)::BIGINT AS pmi_u6
    FROM allbig
    JOIN uni ua ON ua.tok = w1
    JOIN uni ub ON ub.tok = w2
    CROSS JOIN tot CROSS JOIN btot
    WHERE n_ab >= 2
    """


FOCAL_RES = 5  # focal-statistic grid (32 x 32 cells)


def q_focal_mean(sf_dir: str):
    """Raster focal statistic (the GIS 3x3 moving-window mean) over
    the cell grid: per-cell point counts, then for every occupied
    cell the sum / count / integer mean of the counts of its occupied
    3x3 neighborhood (x wraps at the antimeridian, y does not wrap at
    the poles). The raster side of the raster<->vector contract:
    works on the AGGREGATED cell table (bounded by distinct cells,
    never corpus rows) — counts pass once through a combiner shuffle,
    then each cell row is replicated to its <= 9 deduped neighbor
    targets (tiny (cell, cnt) rows), summed per target, and
    inner-joined back to the occupied-cell table."""
    orders = _read(sf_dir, "orders", ["o_orderkey"])
    base = spatial.add_cell_column(
        _with_points(orders, "o_orderkey"), FOCAL_RES
    ).select_columns(["cell"])

    def partial(t: pa.Table) -> pa.Table:
        cells, counts = np.unique(
            t["cell"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table({"cell": pa.array(cells),
                         "n": pa.array(counts.astype(np.int64))})

    def ssum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("cell", as_index=False)["n"].sum()

    # occupied-cell count table — aggregate-sized; pinned because both
    # the replication branch and the final join consume it
    counts = joins.grouped_agg(
        base.map_batches(partial, batch_format="pyarrow"),
        ["cell"], ssum, num_partitions=32, pre_repartition=False,
    ).materialize()

    def scatter(t: pa.Table) -> pa.Table:
        """Each occupied cell donates its count to its 3x3 targets
        (dedup of pole-clamp collisions so a cell contributes to a
        neighbor at most once — mirrors the SQL adjacency join)."""
        if t.num_rows == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        src_cell = t["cell"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        nbr = geo.k_ring(src_cell, 1)
        src = np.repeat(np.arange(len(src_cell)), nbr.shape[1])
        tgt = nbr.ravel()
        order = np.lexsort((tgt, src))
        s_o, t_o = src[order], tgt[order]
        first = np.ones(len(s_o), dtype=bool)
        first[1:] = (s_o[1:] != s_o[:-1]) | (t_o[1:] != t_o[:-1])
        return pa.table({"cell": pa.array(t_o[first]),
                         "n": pa.array(n[s_o[first]])})

    def fsum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell", as_index=False).agg(
            focal_sum=("n", "sum"), focal_n=("n", "size"))
        g["focal_n"] = g["focal_n"].astype("int64")
        return g

    focal = joins.grouped_agg(
        counts.map_batches(scatter, batch_format="pyarrow"),
        ["cell"], fsum, num_partitions=32, pre_repartition=False,
    )
    # inner join drops targets that are not occupied cells (a donated
    # count can land on an empty neighbor) — focal stats are reported
    # for occupied cells only, matching the SQL self-join
    out = joins.hash_join(counts, focal, "cell", num_partitions=16)

    def finish(t: pa.Table) -> pa.Table:
        fs = t["focal_sum"].to_numpy(zero_copy_only=False)
        fn = t["focal_n"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "focal_mean_e6", pa.array(fs * 1_000_000 // fn))

    return out.map_batches(finish, batch_format="pyarrow")


def _focal_mean_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("o_orderkey")
    n = 1 << FOCAL_RES
    x = (f"LEAST(GREATEST(floor((({lon} + 180.0) / 360.0) * {float(n)!r})"
         f"::BIGINT, 0), {n - 1})")
    y = (f"LEAST(GREATEST(floor((({lat} + 90.0) / 180.0) * {float(n)!r})"
         f"::BIGINT, 0), {n - 1})")
    return f"""
    WITH c AS (
      SELECT x, y, ({FOCAL_RES} * {geo.RES_SHIFT} + y * {geo.Y_SHIFT} + x)
               AS cell,
             count(*)::BIGINT AS n
      FROM (SELECT {x} AS x, {y} AS y FROM orders) GROUP BY x, y)
    SELECT a.cell, a.n,
           sum(b.n)::BIGINT AS focal_sum,
           count(*)::BIGINT AS focal_n,
           (sum(b.n)::BIGINT * 1000000) // count(*)::BIGINT AS focal_mean_e6
    FROM c a JOIN c b
      ON (((a.x - b.x) % {n}) + {n}) % {n} IN (0, 1, {n - 1})
     AND abs(a.y - b.y) <= 1
    GROUP BY a.cell, a.n
    """


def q_ttl_filter(sf_dir: str):
    """S8/M10-M12/ST2 (the reference's TTL triple layer,
    `src/util/TtlHelper.cpp` + `filterRelevantTriples` in
    `src/osm/OsmChangeHandler.cpp:595-656`): synthesize an
    osm2rdf-shaped TTL line stream from the documents table, genuinely
    parse it back with the vectorized triple splitter, and run the
    order-free relevant-triple filter against modulo-derived insert id
    sets. The oracle constructs the kept (s, p, o) set directly in
    SQL, so the Ray side must round-trip every line through
    emit -> regex parse -> classify -> semi-filter (incl. the XML
    encode/decode of osmkey: literals) to agree."""
    from oluray.functions import ttl as ttlf
    from oluray.functions.xmlcodec import xml_encode_series
    from oluray.stages import ttl as ttls

    docs = _read(sf_dir, "documents", ["doc_id", "source"])

    def emit(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        enc = xml_encode_series(t["source"].to_pandas()).to_numpy(dtype=object)
        lon = (ids % 360).astype(np.float64) - 180.0 + 0.25
        lat = (ids % 170).astype(np.float64) - 85.0 + 0.25
        arrs = ttlf.element_lines("node", ids, lon=lon, lat=lat,
                                  tags={"source": enc})
        way = ids[ids % 10 == 0]
        if len(way):
            arrs.extend(ttlf.element_lines("way", way))
            arrs.append(ttlf.way_member_lines(way, way))
        arrs = [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
                for a in arrs]
        return pa.table({"line": pa.concat_arrays(arrs)})

    lines = docs.map_batches(emit, batch_format="pyarrow")
    triples = ttls.parse_triples(lines)

    def pick(mod: int):
        def fn(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return pa.table({"doc_id": pa.array(ids[ids % mod == 0], pa.int64())})
        return fn

    node_keys = closure.distinct_keys(
        docs.map_batches(pick(3), batch_format="pyarrow"), "doc_id")
    way_keys = closure.distinct_keys(
        docs.map_batches(pick(30), batch_format="pyarrow"), "doc_id")
    return ttls.filter_relevant_triples(
        triples, node_keys, way_keys, np.array([], dtype=np.int64))


def q_ttl_emit(sf_dir: str):
    """osm2rdf-parity TTL emission (VERDICT r4 item 3 — the output
    side of the triple layer; golden contract
    `/root/reference/tests/data/node.ttl:21-37`, byte-matched in
    tests/test_ttl_emit.py): synthesize a nodes table from customer
    (derive_lonlat coords, one name tag, deterministic timestamp) and
    emit full node blocks. The oracle reconstructs the EXACT text in
    SQL — 7-dp printf coords, degenerate 5-point rings, facts count,
    timestamp literal — so every emitted byte is hash-checked."""
    from oluray.sources.fixtures import NODES_SCHEMA
    from oluray.stages import ttl as ttls

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])

    def to_nodes(t: pa.Table) -> pa.Table:
        ids = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = geo.derive_lonlat(ids)
        n = len(ids)
        names = t["c_name"].cast(pa.string()).combine_chunks()
        tags = pa.MapArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32)),
            pa.array(np.full(n, "name", dtype=object), pa.string()),
            names,
        ).cast(NODES_SCHEMA.field("tags").type)
        ts = (1_600_000_000_000 + ids * 1000).astype("datetime64[ms]")
        return pa.table(
            {"id": pa.array(ids), "lon": pa.array(lon),
             "lat": pa.array(lat), "tags": tags,
             "version": pa.array(np.ones(n, np.int64)),
             "ts": pa.array(ts)}, schema=NODES_SCHEMA,
        )

    return ttls.emit_node_ttl(
        cust.map_batches(to_nodes, batch_format="pyarrow")
    )


def q_ttl_emit_ways(sf_dir: str):
    """Way-block TTL emission with a byte-exact SQL oracle: 2-node
    ways (way id = o_orderkey, node ids 2k/2k+1, derive_lonlat
    coords, one priority tag) make every geometry literal
    SQL-expressible — LINESTRING over the nd order, degenerate hull/
    envelope/obb rings (a 2-vertex hull falls back to the envelope
    ring, the documented contract), and the %.6f segment length via
    plain IEEE sqrt(dx*dx+dy*dy) on both sides. Exercises the full
    explode -> locate-join -> pos-ordered collect -> format path of
    `stages/ttl.emit_way_ttl`."""
    from oluray.sources.fixtures import NODES_SCHEMA, WAYS_SCHEMA
    from oluray.stages import ttl as ttls

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def to_nodes(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = np.concatenate([2 * k, 2 * k + 1])
        lon, lat = geo.derive_lonlat(ids)
        n = len(ids)
        return pa.table(
            {"id": pa.array(ids), "lon": pa.array(lon),
             "lat": pa.array(lat),
             "tags": pa.nulls(n, NODES_SCHEMA.field("tags").type),
             "version": pa.array(np.ones(n, np.int64)),
             "ts": pa.nulls(n, pa.timestamp("ms"))}, schema=NODES_SCHEMA,
        )

    def to_ways(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(k)
        refs = np.empty(2 * n, np.int64)
        refs[0::2] = 2 * k
        refs[1::2] = 2 * k + 1
        offs = pa.array(np.arange(n + 1, dtype=np.int32) * 2)
        pr = t["o_orderpriority"].cast(pa.string()).combine_chunks()
        tags = pa.MapArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32)),
            pa.array(np.full(n, "priority", dtype=object), pa.string()),
            pr,
        ).cast(WAYS_SCHEMA.field("tags").type)
        return pa.table(
            {"id": pa.array(k),
             "nd_refs": pa.ListArray.from_arrays(offs, pa.array(refs)),
             "tags": tags,
             "version": pa.array(np.ones(n, np.int64)),
             "ts": pa.nulls(n, pa.timestamp("ms"))}, schema=WAYS_SCHEMA,
        )

    nodes = orders.map_batches(to_nodes, batch_format="pyarrow")
    ways = orders.map_batches(to_ways, batch_format="pyarrow")
    return ttls.emit_way_ttl(ways, nodes)


def q_ttl_emit_rels(sf_dir: str):
    """Relation-block TTL emission with a byte-exact SQL oracle:
    relation id = o_orderkey, members = that order's lineitems in
    l_linenumber order (ref = l_partkey, node/way by parity, role
    from l_returnflag with 'N' -> '' -> the 'member' default), one
    type tag. The oracle rebuilds the member blank-node text with an
    ordered string_agg, so member ORDER, blank-node labels, role
    defaulting and facts count are all hash-checked."""
    from oluray.sources.fixtures import RELATIONS_SCHEMA
    from oluray.stages import ttl as ttls

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_partkey", "l_returnflag"])

    def to_rels(df: pd.DataFrame) -> pd.DataFrame:
        # full (l_linenumber, l_partkey, l_returnflag) tiebreak: the
        # synthetic lineitem repeats l_linenumber (and even partkey)
        # within an order, and member order must be deterministic on
        # both sides
        df = df.sort_values(
            ["l_orderkey", "l_linenumber", "l_partkey", "l_returnflag"],
            kind="mergesort")
        recs = pd.DataFrame({
            "m": [
                {"ref": int(p), "type": "node" if p % 2 == 0 else "way",
                 "role": "" if rf == "N" else str(rf)}
                for p, rf in zip(df["l_partkey"], df["l_returnflag"])
            ]
        }, index=df.index)
        g = recs["m"].groupby(df["l_orderkey"].to_numpy()).agg(list)
        return pd.DataFrame({"rel_id": g.index.to_numpy(),
                             "members": g.to_numpy()})

    grouped = joins.partitioned_map(li, ["l_orderkey"], to_rels,
                                    num_partitions=16)

    def to_table(df: pd.DataFrame) -> pa.Table:
        n = len(df)
        ids = df["rel_id"].to_numpy(dtype=np.int64)
        members = pa.array(
            list(df["members"]),
            RELATIONS_SCHEMA.field("members").type,
        )
        tags = pa.array([[("type", "route")]] * n,
                        RELATIONS_SCHEMA.field("tags").type)
        return pa.table(
            {"id": pa.array(ids), "members": members,
             "type": pa.array(np.full(n, "route", object), pa.string()),
             "tags": tags,
             "version": pa.array(np.ones(n, np.int64)),
             "ts": pa.nulls(n, pa.timestamp("ms"))},
            schema=RELATIONS_SCHEMA,
        )

    rels = grouped.map_batches(to_table, batch_format="pandas")
    return ttls.emit_relation_ttl(rels)


def _pii_docs(sf_dir: str):
    """documents with deterministically injected PII (email always;
    ipv4 on doc_id%3==0; US phone on doc_id%5==0) — the SQL oracle
    derives the IDENTICAL text, so counts and redactions are
    hash-exact, not merely zero."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def inject(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy()
        t = df["text"].astype(object).to_numpy()
        out = [
            txt + f" u{i}@ex{i % 7}.org"
            + (f" ip 10.0.{i % 256}.{i % 100}" if i % 3 == 0 else "")
            + (f" call 321-{i % 1000:03d}-{i % 10000:04d}"
               if i % 5 == 0 else "")
            for i, txt in zip(d, t)
        ]
        return pd.DataFrame({"doc_id": d, "text": out})

    return docs.map_batches(inject, batch_format="pandas")


_PII_TXT_SQL = """
    text || ' u' || doc_id || '@ex' || (doc_id % 7) || '.org'
    || CASE WHEN doc_id % 3 = 0
            THEN ' ip 10.0.' || (doc_id % 256) || '.' || (doc_id % 100)
            ELSE '' END
    || CASE WHEN doc_id % 5 = 0
            THEN ' call 321-' || lpad((doc_id % 1000)::TEXT, 3, '0')
                 || '-' || lpad((doc_id % 10000)::TEXT, 4, '0')
            ELSE '' END
"""


def q_pii_stats(sf_dir: str):
    """Per-doc PII counts (email / ipv4 / us-phone) over documents
    with injected PII — `text.pii_stats`, one vectorized map pass,
    no shuffle. Patterns live in the Python-re ∩ RE2 common dialect
    so the oracle runs the identical regexes."""
    return text.pii_stats(_pii_docs(sf_dir))


def q_pii_redact(sf_dir: str):
    """Scrubbed text with `<EMAIL>`/`<IPV4>`/`<PHONE>` placeholders —
    `text.pii_redact`; the oracle nests regexp_replace in the same
    declaration order, so every output byte is hash-checked."""
    return text.pii_redact(_pii_docs(sf_dir))


_URL_SYNTH_SQL = """
    CASE WHEN doc_id % 4 = 0 THEN 'HTTPS://WWW.' ELSE 'https://www.' END
    || source || '.com'
    || CASE WHEN doc_id % 3 = 0 THEN ':443' ELSE '' END
    || '/Page/' || (doc_id % 50)
    || CASE WHEN doc_id % 5 = 0 THEN '/' ELSE '' END
    || CASE WHEN doc_id % 7 = 0 THEN '#frag' || doc_id ELSE '' END
"""


def q_url_dedup(sf_dir: str):
    """Canonical-URL dedup (`text.url_dedup`): crawl-style URLs
    synthesized with case/port/fragment/trailing-slash noise collapse
    to one canonical form; keep min doc_id per group. The oracle
    canonicalizes with the same regex steps in SQL."""
    docs = _read(sf_dir, "documents", ["doc_id", "source"])

    def synth(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy()
        src = df["source"].astype(object).to_numpy()
        urls = [
            ("HTTPS://WWW." if i % 4 == 0 else "https://www.")
            + s + ".com" + (":443" if i % 3 == 0 else "")
            + f"/Page/{i % 50}" + ("/" if i % 5 == 0 else "")
            + (f"#frag{i}" if i % 7 == 0 else "")
            for i, s in zip(d, src)
        ]
        return pd.DataFrame({"doc_id": d, "url": urls})

    return text.url_dedup(docs.map_batches(synth, batch_format="pandas"))


def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition quality signals per doc
    (`text.doc_repetition`) — integer micro-unit fractions so the
    oracle's arithmetic is exact."""
    return text.doc_repetition(_read(sf_dir, "documents",
                                     ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# SQL oracles
# ---------------------------------------------------------------------------


def _pip_union_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    parts = []
    for pid, (rx, ry) in PIP_POLYS.items():
        expr = geo.pip_sql_expr(rx, ry, lon, lat)
        parts.append(
            f"SELECT c_custkey, {pid} AS poly_id FROM customer WHERE {expr}"
        )
    return " UNION ALL ".join(parts)


def _knn_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    feats = ", ".join(f"({fid}, {x!r}, {y!r})" for fid, x, y in KNN_FEATURES)
    hav = geo.haversine_sql(lon, lat, "f.flon", "f.flat")
    return f"""
    SELECT c_custkey, feature_id, dist_m FROM (
      SELECT c.c_custkey, f.feature_id,
             round({hav}, 3) AS dist_m,
             row_number() OVER (
               PARTITION BY c.c_custkey
               ORDER BY {hav} ASC, f.feature_id ASC
             ) AS rn
      FROM customer c CROSS JOIN (VALUES {feats}) AS f(feature_id, flon, flat)
    ) WHERE rn = 1
    """


def _radius_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    feats = ", ".join(f"({fid}, {x!r}, {y!r})" for fid, x, y in KNN_FEATURES)
    hav = geo.haversine_sql(lon, lat, "f.flon", "f.flat")
    return f"""
    SELECT c.c_custkey, f.feature_id, round({hav}, 3) AS dist_m
    FROM customer c CROSS JOIN (VALUES {feats}) AS f(feature_id, flon, flat)
    WHERE {hav} < {RADIUS_M!r}
    """


def _tile_cover_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("s_suppkey")
    n = 1 << TILE_RES
    h = TILE_HALF_DEG
    x0 = f"LEAST(GREATEST(floor((({lon} - {h!r}) + 180.0) / 360.0 * {float(n)!r})::BIGINT, 0), {n - 1})"
    x1 = f"LEAST(GREATEST(floor((({lon} + {h!r}) + 180.0) / 360.0 * {float(n)!r})::BIGINT, 0), {n - 1})"
    y0 = f"LEAST(GREATEST(floor((({lat} - {h!r}) + 90.0) / 180.0 * {float(n)!r})::BIGINT, 0), {n - 1})"
    y1 = f"LEAST(GREATEST(floor((({lat} + {h!r}) + 90.0) / 180.0 * {float(n)!r})::BIGINT, 0), {n - 1})"
    return f"""
    SELECT s_suppkey, ({TILE_RES} * {geo.RES_SHIFT} + y * {geo.Y_SHIFT} + x) AS cell
    FROM (SELECT s_suppkey, {x0} AS xa, {x1} AS xb, {y0} AS ya, {y1} AS yb FROM supplier),
         LATERAL (SELECT unnest(generate_series(xa, xb)) AS x) tx,
         LATERAL (SELECT unnest(generate_series(ya, yb)) AS y) ty
    """


def _zorder_sql() -> str:
    # decode x/y from the cell id itself (bit masks — exactly the
    # inverse of cell_encode_sql) so the morton expression repeats
    # only simple column refs
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    cell = geo.cell_encode_sql(lon, lat, CELL_RES)
    morton = geo.morton_sql("x", "y", CELL_RES)
    ymask = geo.Y_SHIFT - 1
    return f"""
    SELECT c_custkey, cell, {morton} AS morton FROM (
      SELECT c_custkey, cell, cell & {ymask} AS x,
             (cell >> 29) & {ymask} AS y
      FROM (SELECT c_custkey, {cell} AS cell FROM customer))
    """


def _pyramid_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    parts = [
        f"SELECT {geo.cell_encode_sql(lon, lat, r)} AS cell,"
        f" count(*)::BIGINT AS n FROM customer GROUP BY 1"
        for r in (CELL_RES, 8, 4)
    ]
    return " UNION ALL ".join(parts)


def _cell_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    cell = geo.cell_encode_sql(lon, lat, CELL_RES)
    return (
        f"SELECT c_custkey, {lon} AS lon, {lat} AS lat, {cell} AS cell FROM customer"
    )


def _rel_centroid_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("l_partkey")
    return f"""
    SELECT l_orderkey AS o_orderkey, count(*)::BIGINT AS n_members,
           sum(round({lon} * 10000000.0)::BIGINT)::BIGINT AS sum_lon_e7,
           sum(round({lat} * 10000000.0)::BIGINT)::BIGINT AS sum_lat_e7
    FROM lineitem WHERE l_orderkey % 50 = 0 GROUP BY l_orderkey
    """


_REL_CENTROID_SQL = _rel_centroid_sql()


def _rel_envelope_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("l_partkey")
    return f"""
    SELECT l_orderkey AS o_orderkey, count(*)::BIGINT AS n_members,
           min(round({lon} * 10000000.0)::BIGINT)::BIGINT AS min_lon_e7,
           max(round({lon} * 10000000.0)::BIGINT)::BIGINT AS max_lon_e7,
           min(round({lat} * 10000000.0)::BIGINT)::BIGINT AS min_lat_e7,
           max(round({lat} * 10000000.0)::BIGINT)::BIGINT AS max_lat_e7
    FROM lineitem WHERE l_orderkey % 50 = 0 GROUP BY l_orderkey
    """


# ---------------------------------------------------------------------------
# Corpus graph / sampling / vocabulary operators (round 3 wave)
# ---------------------------------------------------------------------------


def _interaction_edges(sf_dir: str) -> ray.data.Dataset:
    """User-interaction graph shared by the graph-analytics queries
    (cc_labels / triangle_count / bfs_hops): consecutive events on the
    same `props` stream within 3600 s link their users. One props-hash
    partition sort, vectorized shift — edges (a, b), both orders may
    appear."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "props"])

    def edges(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["props", "ts", "event_id"], kind="mergesort")
        nxt_user = df["user_id"].shift(-1)
        same = df["props"].eq(df["props"].shift(-1))
        gap_ok = (df["ts"].shift(-1) - df["ts"]) <= pd.Timedelta(seconds=3600)
        keep = same & gap_ok & df["user_id"].ne(nxt_user)
        return pd.DataFrame(
            {"a": df["user_id"][keep].astype("int64"),
             "b": nxt_user[keep].astype("int64")}
        ).reset_index(drop=True)

    return joins.partitioned_map(ev, ["props"], edges, num_partitions=32,
                                 pre_repartition=False)


# the CTE prefix computing the same edge set in SQL (both orders)
_EDGES_CTE = """
    raw AS (
      SELECT user_id AS a,
             lead(user_id) OVER (PARTITION BY props
                                 ORDER BY ts, event_id) AS b,
             lead(ts) OVER (PARTITION BY props ORDER BY ts, event_id)
               - ts AS gap
      FROM events),
    edges AS (
      SELECT a, b FROM raw
      WHERE b IS NOT NULL AND gap <= INTERVAL 3600 SECOND AND a <> b)
"""


def q_hll_users(sf_dir: str):
    """Approximate COUNT(DISTINCT user_id) over events via the
    HyperLogLog sketch (`sketch.hll_registers`): one streaming scan,
    4 KiB mergeable state, ~1.6% std error at p=12. Rows-only by
    design (approximate); the pytest bounds it against the exact
    count."""
    from oluray.stages import sketch

    ev = _read(sf_dir, "events", ["user_id"])
    return pd.DataFrame(
        {"distinct_users_est": [sketch.hll_count(ev, "user_id", p=12)]}
    )


def q_sales_rollup(sf_dir: str):
    """GROUPING SETS rollup — (flag, status), (flag), () levels in ONE
    scan: the per-block combiner emits partial (n, sum) rows for every
    level (level rows per block ~ distinct keys, not data), then one
    hash-partitioned final sum keyed on the null-filled ('ALL') key
    pair. Quantities are per-row integers so the distributed sum is
    exactly associative (no float partial-sum drift)."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"])
    LEVELS = (("l_returnflag", "l_linestatus"), ("l_returnflag",), ())

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        base = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "qty": _round_half_away(df["l_quantity"]),
            }
        )
        outs = []
        for keys in LEVELS:
            if keys:
                g = base.groupby(list(keys), as_index=False).agg(
                    n=("qty", "size"), sum_qty=("qty", "sum")
                )
            else:
                g = pd.DataFrame(
                    {"n": [len(base)], "sum_qty": [base["qty"].sum()]}
                )
            for c in ("l_returnflag", "l_linestatus"):
                if c not in g.columns:
                    g[c] = "ALL"
            outs.append(g[["l_returnflag", "l_linestatus", "n", "sum_qty"]])
        out = pd.concat(outs, ignore_index=True)
        out["n"] = out["n"].astype("int64")
        out["sum_qty"] = out["sum_qty"].astype("int64")
        return out

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            n=("n", "sum"), sum_qty=("sum_qty", "sum")
        )
        g["n"] = g["n"].astype("int64")
        g["sum_qty"] = g["sum_qty"].astype("int64")
        return g

    return joins.grouped_agg(
        li, ["l_returnflag", "l_linestatus"], agg, num_partitions=8,
        combine_fn=combine, pre_repartition=False,
    )


def q_track_length(sf_dir: str):
    """Per-user GPS-track length: events ordered by (ts, event_id)
    with positions derived from event_id, consecutive-point haversine
    summed per user. Each SEGMENT is rounded to integer millimeters
    BEFORE the sum, so the total is an order-independent integer and
    hash-matches the SQL window formulation exactly. Scale shape: one
    hash partition per user set, per-partition mergesort + one
    vectorized haversine over the shifted arrays — no per-user loop
    (the reference walks node sequences one element at a time,
    `src/osm/OsmUpdater.cpp` main loop)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def seglen(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": pd.array([], dtype="int64"),
                 "n_points": pd.array([], dtype="int64"),
                 "track_mm": pd.array([], dtype="int64")}
            )
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        lon, lat = geo.derive_lonlat(df["event_id"].to_numpy())
        mm = np.zeros(len(df), dtype=np.int64)
        if len(df) > 1:
            d = geo.haversine_m(lon[:-1], lat[:-1], lon[1:], lat[1:])
            same = (df["user_id"].to_numpy()[1:]
                    == df["user_id"].to_numpy()[:-1])
            mm[1:] = np.where(same, _round_half_away(d * 1000.0), 0)
        g = pd.DataFrame({"user_id": df["user_id"], "mm": mm}).groupby(
            "user_id", as_index=False
        ).agg(n_points=("mm", "size"), track_mm=("mm", "sum"))
        g["n_points"] = g["n_points"].astype("int64")
        g["track_mm"] = g["track_mm"].astype("int64")
        return g

    return joins.partitioned_map(ev, ["user_id"], seglen,
                                 num_partitions=16, pre_repartition=False)


def q_star_poly_area(sf_dir: str):
    """Star-polygon area per nation: each nation's customer points
    ordered by angle around the nation's bounding-box center form a
    deterministic (star-shaped) ring; output is the exact shoelace
    integer 2A in 1e-8 deg² units. All geometry is scaled-integer
    (coords snapped to 1e-4 deg), so the cross-product sum is EXACT
    and order-independent — the oracle is hash-exact with no float
    tolerance. int64 bound: |x·y| ≤ (1.8e6)² ≈ 3.3e12 per term, safe
    to ~2.8M points per group (document the bound, don't guess).
    Scale shape: hash partition by nation, ONE lexsort + grouped
    shift per partition; no per-group loop."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    pts = _with_points(cust, "c_custkey")

    def area(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"c_nationkey": pd.array([], dtype="int64"),
                 "n_pts": pd.array([], dtype="int64"),
                 "area2_e8": pd.array([], dtype="int64")}
            )
        x = _round_half_away(df["lon"].to_numpy() * 1e4)
        y = _round_half_away(df["lat"].to_numpy() * 1e4)
        nat = df["c_nationkey"].to_numpy().astype(np.int64)
        key = df["c_custkey"].to_numpy()
        g = pd.DataFrame({"nat": nat, "x": x, "y": y, "key": key})
        bb = g.groupby("nat")[["x", "y"]].agg(["min", "max"])
        cx = (bb[("x", "min")] + bb[("x", "max")]) // 2
        cy = (bb[("y", "min")] + bb[("y", "max")]) // 2
        ang = np.arctan2(
            (g["y"] - g["nat"].map(cy)).to_numpy(dtype=np.float64),
            (g["x"] - g["nat"].map(cx)).to_numpy(dtype=np.float64),
        )
        g["ang"] = ang
        g = g.sort_values(["nat", "ang", "key"],
                          kind="mergesort").reset_index(drop=True)
        gb = g.groupby("nat", sort=False)
        nx = gb["x"].shift(-1).fillna(gb["x"].transform("first")).astype(np.int64)
        ny = gb["y"].shift(-1).fillna(gb["y"].transform("first")).astype(np.int64)
        g["cross"] = g["x"] * ny - nx * g["y"]
        out = g.groupby("nat", as_index=False).agg(
            n_pts=("cross", "size"), area2_e8=("cross", "sum"))
        return pd.DataFrame({
            "c_nationkey": out["nat"].astype("int64"),
            "n_pts": out["n_pts"].astype("int64"),
            "area2_e8": out["area2_e8"].astype("int64"),
        })

    return joins.partitioned_map(pts, ["c_nationkey"], area,
                                 num_partitions=8, pre_repartition=False)


def q_word_stats(sf_dir: str):
    """Gopher-style repetition/quality signals per document: word
    count, distinct words, duplicate-word ratio and top-word fraction
    (scaled-integer e6 via EXACT integer division, so the oracle is
    hash-exact). Documents are rows, so this is embarrassingly
    map-side — explode + two C-level groupbys per batch, nothing
    shuffles (contrast `text.vocab_stats`, which must shuffle because
    its unit is the corpus-wide term)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"doc_id": pd.array([], dtype="int64"),
                 "n_words": pd.array([], dtype="int64"),
                 "n_distinct": pd.array([], dtype="int64"),
                 "dup_ratio_e6": pd.array([], dtype="int64"),
                 "top_frac_e6": pd.array([], dtype="int64")}
            )
        w = df[["doc_id"]].assign(w=df["text"].str.split(" ")).explode("w")
        cnt = w.groupby(["doc_id", "w"], as_index=False).size()
        agg = cnt.groupby("doc_id", as_index=False).agg(
            n_words=("size", "sum"), n_distinct=("size", "size"),
            top_cnt=("size", "max"))
        n = agg["n_words"].astype("int64")
        return pd.DataFrame({
            "doc_id": agg["doc_id"].astype("int64"),
            "n_words": n,
            "n_distinct": agg["n_distinct"].astype("int64"),
            "dup_ratio_e6": ((n - agg["n_distinct"]) * 1_000_000) // n,
            "top_frac_e6": (agg["top_cnt"].astype("int64") * 1_000_000) // n,
        })

    return docs.map_batches(stats, batch_format="pandas")


def q_full_outer(sf_dir: str):
    """FULL OUTER join under an oracle: per-user event counts ⟗
    high-balance customers. Both sides contribute exclusive keys
    (users whose customer is below the balance cut, customers with no
    events), exercising the outer padding of `joins.hash_join` in
    both directions. The aggregate is pushed below the join; misses
    are filled with sentinels (0 events / -1 cents) so the hash is
    null-free."""
    ev = _read(sf_dir, "events", ["user_id", "event_id"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("user_id", as_index=False).agg(__n=("event_id", "size"))

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False).agg(n_events=("__n", "sum"))
        g["n_events"] = g["n_events"].astype("int64")
        return g

    per_user = joins.grouped_agg(ev, ["user_id"], agg, num_partitions=16,
                                 combine_fn=combine, pre_repartition=False)

    def rich(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t["c_acctbal"], pa.scalar(5000.0))
        t = t.filter(keep)
        cents = _round_half_away(
            t["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0)
        # right key pre-renamed to the left key name so pandas merge
        # coalesces the outer key into ONE column (hash_join would
        # otherwise drop the right key and lose right-only rows' ids)
        return pa.table({"user_id": t["c_custkey"],
                         "acctbal_cents": pa.array(cents)})

    cu = cust.map_batches(rich, batch_format="pyarrow")
    out = joins.hash_join(per_user, cu, on="user_id", how="outer",
                          num_partitions=16)

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "ukey": df["user_id"].astype("int64"),
            "n_events": df["n_events"].fillna(0).astype("int64"),
            "acctbal_cents": df["acctbal_cents"].fillna(-1).astype("int64"),
        })

    return out.map_batches(fill, batch_format="pandas")


def q_channel_stats(sf_dir: str):
    """Corpus per-channel normalization constants
    (`image.ChannelMoments`): exact int64 pixel moments, each block
    pre-collapsed to 3 rows, one tiny channel groupby, mean/std
    derived from (n, s1, s2) at the end. Rows-only (pixel decode
    isn't SQL); the pytest cross-checks against a brute pixel stack."""
    from oluray.stages.image import ChannelMoments

    images = _synth_images(sf_dir)
    partials = images.map_batches(
        ChannelMoments, batch_format="pyarrow", batch_size=256,
        concurrency=(1, 4),
    )

    def csum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("channel", as_index=False).agg(
            n_pix=("n_pix", "sum"), s1=("s1", "sum"), s2=("s2", "sum"))
        for c in ("n_pix", "s1", "s2"):
            g[c] = g[c].astype("int64")
        return g

    tot = joins.grouped_agg(partials, ["channel"], csum,
                            num_partitions=4, pre_repartition=False)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_pix"].to_numpy().astype(np.float64)
        s1 = df["s1"].to_numpy().astype(np.float64)
        s2 = df["s2"].to_numpy().astype(np.float64)
        mean = s1 / n
        var = s2 / n - mean * mean
        df = df.copy(deep=False)
        df["mean"] = np.round(mean, 6)
        df["std"] = np.round(np.sqrt(np.maximum(var, 0.0)), 6)
        return df

    return tot.map_batches(finish, batch_format="pandas")


def q_unpivot(sf_dir: str):
    """UNPIVOT (melt): the wide per-returnflag aggregate row becomes
    one (flag, metric, value) row per measure — the inverse of a
    pivot, and entirely map-side after the tiny aggregate."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])

    def cents(t: pa.Table) -> pa.Table:
        q = _round_half_away(t["l_quantity"].to_numpy(zero_copy_only=False))
        p = _round_half_away(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0)
        return pa.table({"l_returnflag": t["l_returnflag"],
                         "qty": pa.array(q), "price_cents": pa.array(p)})

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_returnflag", as_index=False).agg(
            sum_qty=("qty", "sum"), sum_price_cents=("price_cents", "sum"))
        return g

    wide = joins.grouped_agg(
        li.map_batches(cents, batch_format="pyarrow"), ["l_returnflag"], agg,
        num_partitions=4,
        combine_fn=lambda df: df.groupby("l_returnflag", as_index=False).agg(
            qty=("qty", "sum"), price_cents=("price_cents", "sum")),
        pre_repartition=False)

    def melt(df: pd.DataFrame) -> pd.DataFrame:
        out = df.melt(id_vars=["l_returnflag"],
                      value_vars=["sum_qty", "sum_price_cents"],
                      var_name="metric", value_name="value")
        out["value"] = out["value"].astype("int64")
        return out

    return wide.map_batches(melt, batch_format="pandas")


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted sampling without replacement (the A-ES
    scheme, Efraimidis & Spirakis 2006): per-language top-5 documents
    by priority ln(u)/w, u = Knuth-hash uniform, w = n_chars — longer
    docs proportionally likelier, yet fully reproducible (no RNG
    state) and rankable identically in SQL. `joins.group_topk`'s
    per-block combiner bounds the shuffle at 5 rows per (block,
    lang)."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def with_pri(df: pd.DataFrame) -> pd.DataFrame:
        h = (df["doc_id"].to_numpy(np.int64) * 2654435761) % 4294967296
        u = (h.astype(np.float64) + 0.5) / 4294967296.0
        df = df.copy(deep=False)
        # ln(u)/w is a monotone transform of u^(1/w); larger = better
        df["pri"] = np.log(u) / df["n_chars"].to_numpy(np.float64)
        return df

    return joins.group_topk(
        docs.map_batches(with_pri, batch_format="pandas"),
        ["lang"], [("pri", False), ("doc_id", True)], k=5, num_partitions=8,
    ).select_columns(["lang", "doc_id", "n_chars"])


CHUNK, STRIDE = 32, 24
STOPWORDS = ("a", "the", "of", "and", "to")


def q_chunk_tokens(sf_dir: str):
    """Context-length chunking (the training-data windowing op): each
    document explodes into overlapping 32-token chunks at stride 24.
    Entirely map-side (`text.chunk_tokens_batch` — one Arrow gather +
    binary_join per batch, no shuffle); output grows ~n/stride per
    doc, streamed block-by-block."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(
        lambda t: text.chunk_tokens_batch(t, CHUNK, STRIDE),
        batch_format="pyarrow",
    )


def q_stopword_scrub(sf_dir: str):
    """Stopword removal with a removal count — map-side text
    cleaning, vectorized through the flat token buffer."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(
        lambda t: text.stopword_scrub_batch(t, STOPWORDS),
        batch_format="pyarrow",
    )


def q_balanced_shards(sf_dir: str):
    """LPT round-robin sharding into 8 near-equal-token shards via a
    histogram-offset global row_number (no global sort; see
    `text.balanced_shards`)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return text.balanced_shards(docs, n_shards=8, num_partitions=16)


def q_pack_bins(sf_dir: str):
    """Greedy next-fit sequence packing to 512-token bins within each
    doc_id hash partition (rows-only: packing is order-sequential, not
    SQL-window-expressible; invariants pytest-checked)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return text.pack_bins(docs, capacity=512, num_partitions=16)


def q_quality_score(sf_dir: str):
    """Batched model inference (actor pool): deterministic
    logistic-regression quality score per document; weights and
    feature regexes load once per actor in `__init__`, scoring is one
    vectorized pass per batch (`text.QualityModel`)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(text.QualityModel, batch_format="pandas",
                            concurrency=(1, 4))


def q_event_entropy(sf_dir: str):
    """Per-user Shannon entropy of the event-type mix as an exact
    scaled-integer sum (each term rounded to e6 BEFORE summing, so
    both engines' sum orders agree bit-for-bit)."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    return text.event_entropy(ev, num_partitions=16)


HIST_WIDTH, HIST_BUCKETS = 25_000.0, 20


def q_histogram(sf_dir: str):
    """Binned numeric histogram (the width_bucket pattern): orders
    bucketed by floor(totalprice / 25k) clamped to 20 bins, per-bin
    count + cent-sum. Bucketing is map-side arithmetic; the aggregate
    is a per-block combiner + a 20-key groupby — at 100 TB the
    shuffle moves (bucket, partial) rows only."""
    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def bucketize(t: pa.Table) -> pa.Table:
        p = t["o_totalprice"].to_numpy(zero_copy_only=False)
        b = np.minimum(np.floor(p / HIST_WIDTH).astype(np.int64),
                       HIST_BUCKETS - 1)
        return pa.table({"bucket": pa.array(b),
                         "cents": pa.array(_round_half_away(p * 100.0))})

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bucket", as_index=False).agg(
            n=("n", "sum"), sum_cents=("cents", "sum"))
        g["n"] = g["n"].astype("int64")
        g["sum_cents"] = g["sum_cents"].astype("int64")
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bucket", as_index=False).agg(
            n=("cents", "size"), cents=("cents", "sum"))
        return g

    return joins.grouped_agg(
        orders.map_batches(bucketize, batch_format="pyarrow"),
        ["bucket"], agg, num_partitions=4, combine_fn=combine,
        pre_repartition=False)


def q_group_corr(sf_dir: str):
    """Per-returnflag Pearson correlation of quantity vs price from
    EXACT integer moments: the per-block combiner sums (n, Sx, Sy,
    Sxx, Syy, Sxy) as int64 (y in whole dollars so Syy fits at any
    scale), the final correlation is one fixed-order float expression
    over those exact integers — bit-identical to SQL computing the
    same expression over the same integer moments, rounded to e6.
    The algebraic-moment shape means the shuffle carries six numbers
    per (block, flag), never rows."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])

    def moments(t: pa.Table) -> pa.Table:
        x = _round_half_away(t["l_quantity"].to_numpy(zero_copy_only=False))
        y = _round_half_away(
            t["l_extendedprice"].to_numpy(zero_copy_only=False))
        df = pd.DataFrame({
            "l_returnflag": t["l_returnflag"].to_pandas(),
            "n": np.ones(len(x), dtype=np.int64),
            "sx": x, "sy": y, "sxx": x * x, "syy": y * y, "sxy": x * y,
        })
        return df.groupby("l_returnflag", as_index=False).sum()

    def corr(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_returnflag", as_index=False).sum()
        n = g["n"].to_numpy(np.float64)
        sx = g["sx"].to_numpy(np.float64)
        sy = g["sy"].to_numpy(np.float64)
        sxx = g["sxx"].to_numpy(np.float64)
        syy = g["syy"].to_numpy(np.float64)
        sxy = g["sxy"].to_numpy(np.float64)
        r = (n * sxy - sx * sy) / (
            np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy))
        return pd.DataFrame({
            "l_returnflag": g["l_returnflag"],
            "corr_e6": _round_half_away(1000000.0 * r),
            "n": g["n"].astype("int64"),
        })

    return joins.grouped_agg(
        li.map_batches(moments, batch_format="pyarrow"),
        ["l_returnflag"], corr, num_partitions=4, pre_repartition=False)


# ---------------------------------------------------------------------------
# r3 wave: multi-join analytics / funnel / mode / basket pairs
# ---------------------------------------------------------------------------

_Q3_CUTOFF = np.datetime64("1998-06-01", "us")


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape (the reference's J1-J3 multi-hop closure as one
    analytics pipeline): customer-segment filter -> qualified orders
    -> revenue per order -> integer top-10.

    Scale shape: lineitem revenue is pre-aggregated to one row per
    order (per-block combiner + hash-partitioned finish) BEFORE any
    join, so the join exchange moves |orders| rows, never |lineitem|;
    the two joins are large-large `joins.hash_join` (neither side
    broadcast); ranking happens on integer cents so the top-10 is
    deterministic on both engines."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")).select(["c_custkey"]),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda t: t.filter(pc.less(t["o_orderdate"], pa.scalar(_Q3_CUTOFF))),
        batch_format="pyarrow",
    )
    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(
        lambda t: t.filter(pc.greater(t["l_shipdate"], pa.scalar(_Q3_CUTOFF))),
        batch_format="pyarrow",
    )

    def rev_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(revenue=df["l_extendedprice"] * (1.0 - df["l_discount"]))
        return df.groupby("l_orderkey", as_index=False)["revenue"].sum()

    def rev_final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("l_orderkey", as_index=False)["revenue"].sum()

    rev = joins.partitioned_map(
        li.map_batches(rev_partial, batch_format="pandas", batch_size=65536),
        ["l_orderkey"], rev_final, num_partitions=32, pre_repartition=False,
    )
    qual = joins.hash_join(
        orders, cust, on="o_custkey", right_on="c_custkey", num_partitions=32
    ).select_columns(["o_orderkey", "o_orderdate"])
    joined = joins.hash_join(
        rev, qual, on="l_orderkey", right_on="o_orderkey", num_partitions=32
    )

    def cents(t: pa.Table) -> pa.Table:
        c = _round_half_away(t["revenue"].to_numpy(zero_copy_only=False) * 100.0)
        return pa.table(
            {
                "o_orderkey": t["l_orderkey"],
                "o_orderdate": t["o_orderdate"],
                "revenue_cents": pa.array(c, pa.int64()),
            }
        )

    out = joined.map_batches(cents, batch_format="pyarrow")
    return out.sort(
        ["revenue_cents", "o_orderkey"], descending=[True, False]
    ).limit(10)


def q_user_mode(sf_dir: str):
    """Per-group MODE with a deterministic tie rule (most frequent
    event_type per user; equal counts -> lexicographically smallest).
    Counts are pre-reduced per block (combiner emits <= |users x
    types| rows per block), summed under one user_id hash partition,
    and the winner picked by the same algebraic `joins.group_topk`
    the O1/O3 family uses — integer ordering, so hash-exact."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def cnt(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    def total(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["user_id", "event_type"], as_index=False)["cnt"].sum()

    tot = joins.partitioned_map(
        ev.map_batches(cnt, batch_format="pandas", batch_size=65536),
        ["user_id"], total, num_partitions=32, pre_repartition=False,
    )
    return joins.group_topk(
        tot, ["user_id"], [("cnt", False), ("event_type", True)], k=1,
        num_partitions=32,
    )


_FUNNEL_STAGES = ("view", "click", "purchase")


def q_funnel_conv(sf_dir: str):
    """Ordered-funnel conversion: users whose first 'view' precedes
    their first 'click' which precedes their first 'purchase'.
    min-per-(user,stage) is algebraic — per-block combiner, one
    user_id hash partition, then a vectorized pivot + strict-order
    filter inside the partition. No driver contact, no row loops."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def mins(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"].isin(_FUNNEL_STAGES)]
        return df.groupby(["user_id", "event_type"], as_index=False)["ts"].min()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        m = df.groupby(["user_id", "event_type"], as_index=False)["ts"].min()
        p = m.pivot(index="user_id", columns="event_type", values="ts").reset_index()
        for c in _FUNNEL_STAGES:
            if c not in p.columns:
                p[c] = pd.NaT
        keep = (
            p["view"].notna() & p["click"].notna() & p["purchase"].notna()
            & (p["view"] < p["click"]) & (p["click"] < p["purchase"])
        )
        out = p.loc[keep, ["user_id", "view", "click", "purchase"]]
        return out.rename(
            columns={"view": "t_view", "click": "t_click", "purchase": "t_purchase"}
        )

    return joins.partitioned_map(
        ev.map_batches(mins, batch_format="pandas", batch_size=65536),
        ["user_id"], finish, num_partitions=32, pre_repartition=False,
    )


def _pairs_within_groups(df: pd.DataFrame, gcol: str, vcol: str) -> pd.DataFrame:
    """All unordered value pairs within each group, fully vectorized:
    rows sorted by (group, value), per-segment pair generation via
    repeat + cumsum offsets — no Python loop over groups. Output
    columns (pa, pb) with pa < pb (input must be distinct per group)."""
    df = df.sort_values([gcol, vcol], kind="mergesort").reset_index(drop=True)
    g = df[gcol].to_numpy()
    v = df[vcol].to_numpy()
    n = len(df)
    if n == 0:
        return pd.DataFrame({"pa": np.array([], np.int64), "pb": np.array([], np.int64)})
    new_seg = np.empty(n, dtype=bool)
    new_seg[0] = True
    new_seg[1:] = g[1:] != g[:-1]
    seg_id = np.cumsum(new_seg) - 1
    seg_end = np.zeros(seg_id[-1] + 1, dtype=np.int64)
    np.maximum.at(seg_end, seg_id, np.arange(n) + 1)
    # rows after i inside i's segment = #pairs with i as the first leg
    c = seg_end[seg_id] - 1 - np.arange(n)
    total = int(c.sum())
    if total == 0:
        return pd.DataFrame({"pa": np.array([], np.int64), "pb": np.array([], np.int64)})
    left = np.repeat(np.arange(n), c)
    cum = np.concatenate(([0], np.cumsum(c)))
    right = left + 1 + (np.arange(total) - np.repeat(cum[:-1], c))
    return pd.DataFrame({"pa": v[left].astype(np.int64), "pb": v[right].astype(np.int64)})


def _track_length_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    hav = geo.haversine_sql("plon", "plat", "lon", "lat")
    return f"""
    WITH pts AS (
      SELECT user_id, ts, event_id, {lon} AS lon, {lat} AS lat FROM events),
    seg AS (
      SELECT user_id, lon, lat,
             lag(lon) OVER w AS plon, lag(lat) OVER w AS plat
      FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
    SELECT user_id, count(*)::BIGINT AS n_points,
           COALESCE(SUM(CASE WHEN plon IS NULL THEN 0
                        ELSE round({hav} * 1000.0, 0)::BIGINT END),
                    0)::BIGINT AS track_mm
    FROM seg GROUP BY user_id
    """


def _star_poly_area_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    return f"""
    WITH p AS (
      SELECT c_custkey, c_nationkey,
             round({lon} * 10000.0, 0)::BIGINT AS x,
             round({lat} * 10000.0, 0)::BIGINT AS y
      FROM customer),
    c AS (
      SELECT c_nationkey, (min(x) + max(x)) // 2 AS cx,
             (min(y) + max(y)) // 2 AS cy
      FROM p GROUP BY c_nationkey),
    o AS (
      SELECT p.c_nationkey, x, y, c_custkey,
             atan2(CAST(y - cy AS DOUBLE), CAST(x - cx AS DOUBLE)) AS ang
      FROM p JOIN c USING (c_nationkey)),
    r AS (
      SELECT c_nationkey, x, y,
             lead(x) OVER w AS nx, lead(y) OVER w AS ny,
             first_value(x) OVER w AS fx, first_value(y) OVER w AS fy
      FROM o WINDOW w AS (PARTITION BY c_nationkey ORDER BY ang, c_custkey))
    SELECT c_nationkey::BIGINT AS c_nationkey, count(*)::BIGINT AS n_pts,
           SUM(x * COALESCE(ny, fy) - COALESCE(nx, fx) * y)::BIGINT AS area2_e8
    FROM r GROUP BY c_nationkey
    """


# ---------------------------------------------------------------------------
# window LAG / EXISTS semi / scalar-subquery filter / set intersect /
# degree histogram / CUBE / grouped skewness (r3 wave 4)
# ---------------------------------------------------------------------------


def q_lag_delta(sf_dir: str):
    """SQL LAG window: per customer, each order's gap in whole days
    and cent price delta vs the SAME customer's previous order
    (ordered by date, key; first order dropped — LAG is NULL).
    Per-user hash partition, one sort, one vectorized shift — the
    ordered-log \"diff vs previous row\" primitive that backs delta
    encoding and inter-arrival features."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def lag(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"o_custkey": pd.array([], dtype="int64"),
                 "o_orderkey": pd.array([], dtype="int64"),
                 "gap_days": pd.array([], dtype="int64"),
                 "price_delta_cents": pd.array([], dtype="int64")}
            )
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                            kind="mergesort")
        # orderdates are midnight-aligned timestamps, so whole-day
        # subtraction equals DuckDB's boundary-counting date_diff
        day = (df["o_orderdate"].astype("datetime64[us]").astype("int64")
               .to_numpy() // 86_400_000_000)
        cents = _round_half_away(df["o_totalprice"].to_numpy() * 100)
        same = df["o_custkey"].eq(df["o_custkey"].shift()).to_numpy()
        out = pd.DataFrame(
            {
                "o_custkey": df["o_custkey"].to_numpy(),
                "o_orderkey": df["o_orderkey"].to_numpy(),
                "gap_days": day - np.roll(day, 1),
                "price_delta_cents": cents - np.roll(cents, 1),
            }
        )
        return out[same]

    return joins.partitioned_map(orders, ["o_custkey"], lag,
                                 num_partitions=32, pre_repartition=False)


def q_late_order_counts(sf_dir: str):
    """EXISTS / semi-join aggregate (TPC-H Q4 shape): count orders per
    priority having at least one lineitem shipped >60 days after the
    order date. Large-large hash join on the order key (the predicate
    needs both sides' columns), then distinct-per-block collapses the
    multi-lineitem orders BEFORE the count shuffle — the exchange
    moves one row per qualifying order, not per lineitem."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    j = joins.hash_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                        num_partitions=32)
    LATE_US = 60 * 86_400_000_000

    def late(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].cast(pa.int64())
        odate = t["o_orderdate"].cast(pa.int64())
        keep = pc.greater(pc.subtract(ship, odate), LATE_US)
        return t.filter(keep).select(["l_orderkey", "o_orderpriority"])

    hits = joins.distinct(j.map_batches(late, batch_format="pyarrow"),
                          ["l_orderkey", "o_orderpriority"], num_partitions=32)

    def cnt(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderpriority", as_index=False).size()
        g["n"] = g.pop("size").astype("int64")
        return g

    def cnt2(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderpriority", as_index=False)["n"].sum()
        g["n"] = g["n"].astype("int64")
        return g

    return joins.grouped_agg(hits, ["o_orderpriority"], cnt2,
                             num_partitions=4, combine_fn=cnt,
                             pre_repartition=False)


def q_small_qty_revenue(sf_dir: str):
    """Scalar-subquery filter (TPC-H Q17 shape): total cent revenue of
    lineitems whose quantity is below 0.2x their part's average
    quantity. The per-part average is a distributed grouped aggregate
    (combiner + hash partition) joined BACK onto lineitem with the
    large-large hash join — at corpus scale the per-part table is
    itself large, so no broadcast. Quantities are integer-valued
    doubles: the sum is exact, sum/count and 0.2*aq are single IEEE
    ops identical on both engines."""
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def part_combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_partkey", as_index=False).agg(
            sq=("l_quantity", "sum"), nq=("l_quantity", "size"))
        g["nq"] = g["nq"].astype("int64")
        return g

    def part_agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_partkey", as_index=False).agg(
            sq=("sq", "sum"), nq=("nq", "sum"))
        g["nq"] = g["nq"].astype("int64")
        return g

    per_part = joins.grouped_agg(
        li.select_columns(["l_partkey", "l_quantity"]), ["l_partkey"],
        part_agg, num_partitions=32, combine_fn=part_combine,
        pre_repartition=False,
    )
    j = joins.hash_join(
        li, per_part, on="l_partkey", num_partitions=32,
        # empty inputs drop every block, losing the runtime schema
        right_schema=pa.schema([("l_partkey", pa.int64()),
                                ("sq", pa.float64()), ("nq", pa.int64())]),
    )

    def partial(t: pa.Table) -> pa.Table:
        q = t["l_quantity"].to_numpy(zero_copy_only=False)
        aq = (t["sq"].to_numpy(zero_copy_only=False)
              / t["nq"].to_numpy(zero_copy_only=False))
        sel = q < 0.2 * aq
        cents = _round_half_away(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)[sel] * 100)
        return pa.table({"revenue_cents": pa.array([int(cents.sum())]),
                         "n": pa.array([int(sel.sum())])})

    parts = j.map_batches(partial, batch_format="pyarrow").to_pandas()
    # per-block partials only (rows == block count) reach the driver;
    # an empty join yields zero partial blocks -> zero totals
    rev = int(parts["revenue_cents"].sum()) if len(parts) else 0
    n = int(parts["n"].sum()) if len(parts) else 0
    return pa.table({"revenue_cents": pa.array([rev]), "n": pa.array([n])})


def q_set_intersect(sf_dir: str):
    """Set INTERSECT: users who both clicked and purchased. Each side
    is a distinct-per-block-combined key set; the intersect is the
    hash-partitioned `joins.semi_join` — neither side is broadcast,
    so the op holds when both sets are corpus-sized."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def side(etype: str) -> ray.data.Dataset:
        return joins.distinct(
            ev.map_batches(
                lambda t, e=etype: t.filter(
                    pc.equal(t["event_type"], e)).select(["user_id"]),
                batch_format="pyarrow",
            ),
            ["user_id"], num_partitions=16,
        )

    uid = pa.schema([("user_id", pa.int64())])
    return joins.semi_join(side("click"), side("purchase"), on="user_id",
                           num_partitions=16,
                           left_schema=uid, keys_schema=uid)


def q_part_supplier_degree(sf_dir: str):
    """Degree distribution (two-level aggregate): how many parts have
    exactly `deg` distinct suppliers. Distinct (part, supplier) pairs
    via the per-block combiner, per-part distinct count inside the
    part hash partition, then a second (tiny) count shuffle keyed on
    the degree — the classic graph-degree histogram over an edge
    table, never materializing per-part supplier lists."""
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    edges = joins.distinct(li, ["l_partkey", "l_suppkey"], num_partitions=32)

    def deg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_partkey", as_index=False)["l_suppkey"].nunique()
        g["deg"] = g.pop("l_suppkey").astype("int64")
        return g[["deg"]]

    degs = joins.partitioned_map(edges, ["l_partkey"], deg,
                                 num_partitions=32, pre_repartition=False)

    def hist_c(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("deg", as_index=False).size()
        g["n_parts"] = g.pop("size").astype("int64")
        return g

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("deg", as_index=False)["n_parts"].sum()
        g["n_parts"] = g["n_parts"].astype("int64")
        return g

    return joins.grouped_agg(degs, ["deg"], hist, num_partitions=4,
                             combine_fn=hist_c, pre_repartition=False)


def q_status_cube(sf_dir: str):
    """GROUP BY CUBE (all four grouping sets of two keys) in ONE scan
    — `q_sales_rollup`'s one-pass grouping-sets shape extended to the
    full cross of levels: the per-block combiner emits partial rows
    for every level ('ALL' fills the rolled-up key), one final
    hash-partitioned sum. Money is per-row integer cents, so the
    distributed sum is exactly associative."""
    orders = _read(sf_dir, "orders",
                   ["o_orderstatus", "o_orderpriority", "o_totalprice"])
    LEVELS = (("status", "priority"), ("status",), ("priority",), ())

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        base = pd.DataFrame(
            {
                "status": df["o_orderstatus"],
                "priority": df["o_orderpriority"],
                "cents": _round_half_away(df["o_totalprice"] * 100),
            }
        )
        outs = []
        for keys in LEVELS:
            if keys:
                g = base.groupby(list(keys), as_index=False).agg(
                    rev_cents=("cents", "sum"), n=("cents", "size"))
            else:
                g = pd.DataFrame({"rev_cents": [base["cents"].sum()],
                                  "n": [len(base)]})
            for c in ("status", "priority"):
                if c not in g.columns:
                    g[c] = "ALL"
            outs.append(g[["status", "priority", "rev_cents", "n"]])
        out = pd.concat(outs, ignore_index=True)
        out["rev_cents"] = out["rev_cents"].astype("int64")
        out["n"] = out["n"].astype("int64")
        return out

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["status", "priority"], as_index=False).agg(
            rev_cents=("rev_cents", "sum"), n=("n", "sum"))
        g["rev_cents"] = g["rev_cents"].astype("int64")
        g["n"] = g["n"].astype("int64")
        return g

    return joins.grouped_agg(orders, ["status", "priority"], agg,
                             num_partitions=8, combine_fn=combine,
                             pre_repartition=False)


def q_brand_size_skew(sf_dir: str):
    """Per-group skewness from EXACT integer moment partials (the
    third-moment sibling of `q_group_corr`): n, sum(s), sum(s^2),
    sum(s^3) are int64 — associative and overflow-safe for p_size's
    1..50 domain — combined per block, summed per brand partition;
    the final skew is a fixed chain of IEEE divisions / multiplies /
    one sqrt evaluated identically by numpy and the SQL oracle, then
    1e-6-scaled to an integer."""
    part = _read(sf_dir, "part", ["p_brand", "p_size"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        s = df["p_size"].to_numpy(np.int64)
        b = pd.DataFrame({"p_brand": df["p_brand"], "s": s,
                          "s2": s * s, "s3": s * s * s})
        g = b.groupby("p_brand", as_index=False).agg(
            n=("s", "size"), s1=("s", "sum"), s2=("s2", "sum"),
            s3=("s3", "sum"))
        g["n"] = g["n"].astype("int64")
        return g

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("p_brand", as_index=False).agg(
            n=("n", "sum"), s1=("s1", "sum"), s2=("s2", "sum"),
            s3=("s3", "sum"))
        n = g["n"].to_numpy(np.float64)
        s1 = g["s1"].to_numpy(np.float64)
        s2 = g["s2"].to_numpy(np.float64)
        s3 = g["s3"].to_numpy(np.float64)
        m1 = s1 / n
        m2 = s2 / n
        var = m2 - m1 * m1
        sk = (s3 / n - 3.0 * m1 * m2 + 2.0 * m1 * m1 * m1) / (var * np.sqrt(var))
        keep = ((g["n"].to_numpy(np.int64) >= 2)
                & (g["s2"].to_numpy(np.int64) * g["n"].to_numpy(np.int64)
                   > g["s1"].to_numpy(np.int64) ** 2))
        out = pd.DataFrame(
            {"p_brand": g["p_brand"], "n": g["n"].astype("int64"),
             "skew_1e6": _round_half_away(sk * 1e6)}
        )
        return out[keep]

    return joins.grouped_agg(part, ["p_brand"], agg, num_partitions=8,
                             combine_fn=combine, pre_repartition=False)


# spatial ANTI join: points contained by NO changeset polygon — the
# complement of `pip_join` (the reference updates only elements whose
# geometry intersects the diff; everything else is the pass-through
# set this query names). Row-local decision against the broadcast
# polygon index — zero shuffles, unlike a relational anti join.
def q_pip_anti(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey"])
    pts = _with_points(cust, "c_custkey")
    polys = pa.Table.from_pylist(
        [
            {
                "poly_id": pid,
                "op": "modify",
                "ring": [{"lon": x, "lat": y} for x, y in zip(rx, ry)],
            }
            for pid, (rx, ry) in PIP_POLYS.items()
        ]
    )
    out = spatial.pip_anti(pts, polys, res=7)
    return out.select_columns(["c_custkey"])


def _pip_anti_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    nots = " AND ".join(
        f"NOT ({geo.pip_sql_expr(rx, ry, lon, lat)})"
        for rx, ry in PIP_POLYS.values()
    )
    return f"SELECT c_custkey FROM customer WHERE {nots}"


# deterministic train/val/test split: every training-data pipeline
# needs a stable, shuffle-free, rerun-identical split assignment. The
# bucket is pure integer arithmetic on the id (Knuth multiplicative
# hash mod 2^32), so the assignment is reproducible on any engine and
# needs no coordination — each batch decides its rows alone.
def q_hash_split(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id"])

    def fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = (ids * 2654435761) % 4294967296 % 1000
        split = np.where(bucket < 980, "train", np.where(bucket < 990, "val", "test"))
        return pa.table(
            {"doc_id": t["doc_id"], "bucket": pa.array(bucket),
             "split": pa.array(split)}
        )

    return docs.map_batches(fn, batch_format="pyarrow")


_HASH_SPLIT_SQL = """
    SELECT doc_id,
           ((doc_id * 2654435761) % 4294967296 % 1000)::BIGINT AS bucket,
           CASE WHEN (doc_id * 2654435761) % 4294967296 % 1000 < 980 THEN 'train'
                WHEN (doc_id * 2654435761) % 4294967296 % 1000 < 990 THEN 'val'
                ELSE 'test' END AS split
    FROM documents
"""


# window first/last per key (first_value/last_value): per-block
# combiner keeps ONE candidate row per (user, extreme) plus a partial
# count, so the shuffle is bounded by distinct users per block, not
# rows; the per-partition merge re-runs the same pick.
def q_first_last_events(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        first = df.drop_duplicates("user_id", keep="first")
        last = df.drop_duplicates("user_id", keep="last")
        n = df.groupby("user_id", as_index=False).size()
        out = first.rename(columns={"ts": "fts", "event_id": "feid",
                                    "event_type": "ftype"})
        out = out.merge(
            last.rename(columns={"ts": "lts", "event_id": "leid",
                                 "event_type": "ltype"}),
            on="user_id",
        )
        out = out.merge(n.rename(columns={"size": "n"}), on="user_id")
        return out[["user_id", "fts", "feid", "ftype", "lts", "leid",
                    "ltype", "n"]]

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        f = (df.sort_values(["user_id", "fts", "feid"], kind="mergesort")
               .drop_duplicates("user_id", keep="first"))
        l = (df.sort_values(["user_id", "lts", "leid"], kind="mergesort")
               .drop_duplicates("user_id", keep="last"))
        n = df.groupby("user_id", as_index=False)["n"].sum()
        out = f[["user_id", "ftype"]].merge(
            l[["user_id", "ltype"]], on="user_id").merge(n, on="user_id")
        return pd.DataFrame(
            {"user_id": out["user_id"], "first_type": out["ftype"],
             "last_type": out["ltype"],
             "n_events": out["n"].astype("int64")}
        )

    return joins.grouped_agg(ev, ["user_id"], merge, num_partitions=32,
                             combine_fn=combine, pre_repartition=False)


_FIRST_LAST_SQL = """
    WITH r AS (
      SELECT user_id, event_type,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY ts ASC, event_id ASC) AS rn_a,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY ts DESC, event_id DESC) AS rn_d,
             count(*) OVER (PARTITION BY user_id) AS n
      FROM events)
    SELECT a.user_id, a.event_type AS first_type, d.event_type AS last_type,
           a.n::BIGINT AS n_events
    FROM r a JOIN r d ON a.user_id = d.user_id
    WHERE a.rn_a = 1 AND d.rn_d = 1
"""


# per-"relation" convex hull (rows-only; brute-force pytest oracle):
# the derived-geometry family osm2rdf emits per element
# (`/root/reference/tests/data/node.ttl:33-37` — envelope is the
# oracle query `rel_envelope`, hull/obb ride `update.apply_update`'s
# hull_delta; this exposes the hull as a standalone catalog operator).
# Exact integer output: member points snap to e6 microdegrees before
# the hull, and the area is the integer shoelace 2*area in those
# units, so the result is bit-stable across partitionings.
def q_rel_hull(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def member_points(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ok % 50 == 0))
        lon, lat = geo.derive_lonlat(t["l_partkey"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "o_orderkey": t["l_orderkey"],
                "lon_e6": pa.array(_round_half_away(lon * 1e6)),
                "lat_e6": pa.array(_round_half_away(lat * 1e6)),
            }
        )

    pts = li.map_batches(member_points, batch_format="pyarrow")

    _HULL_COLS = ["o_orderkey", "n_pts", "n_distinct", "n_hull", "area2_e12"]

    def hull_one(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:  # typed empty: schema-stable across partitions
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in _HULL_COLS})
        outs = []
        for ok, g in df.groupby("o_orderkey", sort=False):
            x = g["lon_e6"].to_numpy(np.int64)
            y = g["lat_e6"].to_numpy(np.int64)
            u = np.unique(np.stack([x, y], axis=1), axis=0)
            hx, hy = geo.convex_hull(u[:, 0].astype(np.float64),
                                     u[:, 1].astype(np.float64))
            hxi, hyi = hx.astype(np.int64), hy.astype(np.int64)
            # integer shoelace on the CCW hull: 2*area, exact
            area2 = int(
                np.sum(hxi * np.roll(hyi, -1) - np.roll(hxi, -1) * hyi)
            ) if len(hxi) >= 3 else 0
            outs.append((ok, len(g), len(u), len(hxi), abs(area2)))
        return pd.DataFrame(outs, columns=_HULL_COLS).astype(
            {c: "int64" for c in _HULL_COLS})

    return joins.partitioned_map(pts, ["o_orderkey"], hull_one,
                                 num_partitions=32, pre_repartition=False)


# LARGE-LARGE bbox intersection join: customer-footprint envelopes x
# supplier-extent envelopes via PBSM grid partitioning with
# reference-point dedup (`spatial.rect_intersect_join`) — the
# envelope/bbox form of the spatial join, neither side broadcast.
# Rect corners are exact integer microdegrees (same half-away rounding
# as the envelope oracle), half-extents pure key arithmetic, so the
# SQL mirror is bit-identical.
RECT_CELL_E6 = 2_000_000  # 2-degree PBSM grid, >= the max rect extent


def _rects(ds, key: str) -> ray.data.Dataset:
    def fn(t: pa.Table) -> pa.Table:
        k = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = geo.derive_lonlat(k)
        xc = _round_half_away(lon * 1e6)
        yc = _round_half_away(lat * 1e6)
        hw = (k % 7 + 1) * 100000
        hh = (k % 5 + 1) * 100000
        return pa.table(
            {"id": pa.array(k), "xmin": pa.array(xc - hw),
             "xmax": pa.array(xc + hw), "ymin": pa.array(yc - hh),
             "ymax": pa.array(yc + hh)}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def q_rect_join(sf_dir: str):
    cust = _rects(_read(sf_dir, "customer", ["c_custkey"]), "c_custkey")
    sup = _rects(_read(sf_dir, "supplier", ["s_suppkey"]), "s_suppkey")
    return spatial.rect_intersect_join(cust, sup, RECT_CELL_E6,
                                       num_partitions=32)


def _rect_join_sql() -> str:
    def cte(table: str, key: str) -> str:
        lon, lat = geo.derive_lonlat_sql(key)
        return f"""
          SELECT {key} AS id,
                 round({lon} * 1000000.0)::BIGINT - ({key} % 7 + 1) * 100000 AS xmin,
                 round({lon} * 1000000.0)::BIGINT + ({key} % 7 + 1) * 100000 AS xmax,
                 round({lat} * 1000000.0)::BIGINT - ({key} % 5 + 1) * 100000 AS ymin,
                 round({lat} * 1000000.0)::BIGINT + ({key} % 5 + 1) * 100000 AS ymax
          FROM {table}"""

    return f"""
    WITH a AS ({cte('customer', 'c_custkey')}), b AS ({cte('supplier', 's_suppkey')})
    SELECT a.id AS a_id, b.id AS b_id,
           ((LEAST(a.xmax, b.xmax) - GREATEST(a.xmin, b.xmin))
            * (LEAST(a.ymax, b.ymax) - GREATEST(a.ymin, b.ymin)))::BIGINT AS inter_area
    FROM a JOIN b
      ON a.xmin <= b.xmax AND b.xmin <= a.xmax
     AND a.ymin <= b.ymax AND b.ymin <= a.ymax
    """


# LARGE-LARGE exact nearest-neighbor join (planar integer coords):
# every customer's closest supplier by squared Euclidean microdegree
# distance — `spatial.nn_join_planar`'s iterative grid escalation,
# neither side broadcast (the broadcast-feature case is `knn_assign`).
NN_START_CELL = 20_000_000  # 20-degree round-1 grid


def _xy_points(ds, key: str) -> ray.data.Dataset:
    def fn(t: pa.Table) -> pa.Table:
        k = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = geo.derive_lonlat(k)
        return pa.table(
            {"id": pa.array(k),
             "x": pa.array(_round_half_away(lon * 1e6)),
             "y": pa.array(_round_half_away(lat * 1e6))}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def q_nn_join(sf_dir: str):
    cust = _xy_points(_read(sf_dir, "customer", ["c_custkey"]), "c_custkey")
    sup = _xy_points(_read(sf_dir, "supplier", ["s_suppkey"]), "s_suppkey")
    return spatial.nn_join_planar(cust, sup, NN_START_CELL,
                                  num_partitions=32)


def _nn_join_sql() -> str:
    def cte(table: str, key: str) -> str:
        lon, lat = geo.derive_lonlat_sql(key)
        return (f"SELECT {key} AS id, round({lon} * 1000000.0)::BIGINT AS x, "
                f"round({lat} * 1000000.0)::BIGINT AS y FROM {table}")

    d2 = "(a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)"
    return f"""
    WITH a AS ({cte('customer', 'c_custkey')}), b AS ({cte('supplier', 's_suppkey')})
    SELECT id AS a_id, b_id, d2 FROM (
      SELECT a.id, b.id AS b_id, ({d2})::BIGINT AS d2,
             row_number() OVER (PARTITION BY a.id
                                ORDER BY {d2} ASC, b.id ASC) AS rn
      FROM a CROSS JOIN b) WHERE rn = 1
    """


# per-tile image mosaic (rows-only; crc-exact pytest oracle): the
# raster side of tile materialization — every tile cell gets a
# deterministic contact-sheet of its images. Scale contract: the
# decode+downscale actor pool runs BEFORE the cell shuffle, so the
# exchange moves t*t*3-byte raw thumbnails (768 B at t=16), never the
# source blobs; per-cell composition is one vectorized pass.
MOSAIC_RES = 3
MOSAIC_T = 16
MOSAIC_K = 9


def q_tile_mosaic(sf_dir: str):
    from oluray.stages.image import MosaicThumbs, compose_mosaics

    def with_cell(t: pa.Table) -> pa.Table:
        ids = pc.cast(
            pc.utf8_slice_codeunits(t["image_id"], 3, 11), pa.int64()
        ).to_numpy(zero_copy_only=False)
        lon, lat = geo.derive_lonlat(ids)
        return t.append_column(
            "cell", pa.array(geo.cell_encode(lon, lat, MOSAIC_RES)))

    imgs = _synth_images(sf_dir).map_batches(with_cell, batch_format="pyarrow")
    thumbs = imgs.map_batches(
        MosaicThumbs, fn_constructor_kwargs=dict(t=MOSAIC_T),
        batch_format="pyarrow", batch_size=256, concurrency=(1, 4),
    )
    return joins.partitioned_map(
        thumbs.select_columns(["cell", "image_id", "thumb_raw"]), ["cell"],
        lambda df: compose_mosaics(df, t=MOSAIC_T, k=MOSAIC_K),
        num_partitions=16, pre_repartition=False,
    )


# quadkeys: the Bing-maps/tile-server string form of the z-order code
# (one base-4 digit per zoom level, MSB first) — the key a tile CDN
# or a hive `part=` layout wants. Pure per-batch map; the string is
# assembled with a fixed-width byte-matrix view, no per-row loop.
def q_quadkeys(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey"])
    pts = spatial.add_cell_column(_with_points(cust, "c_custkey"), CELL_RES)

    def qk(t: pa.Table) -> pa.Table:
        m = geo.morton_code(t["cell"].to_numpy(zero_copy_only=False))
        n = len(m)
        if n == 0:
            return pa.table({"c_custkey": t["c_custkey"],
                             "quadkey": pa.array([], pa.string())})
        digits = np.stack(
            [(m >> (2 * (CELL_RES - 1 - i))) & 3 for i in range(CELL_RES)],
            axis=1,
        ).astype(np.uint8) + 48  # ascii '0'..'3'
        qks = np.frombuffer(digits.tobytes(), dtype=f"S{CELL_RES}")
        return pa.table(
            {"c_custkey": t["c_custkey"],
             "quadkey": pa.array(qks.astype("U"))}
        )

    return pts.map_batches(qk, batch_format="pyarrow")


def _quadkeys_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    cell = geo.cell_encode_sql(lon, lat, CELL_RES)
    morton = geo.morton_sql("x", "y", CELL_RES)
    ymask = geo.Y_SHIFT - 1
    concat = " || ".join(
        f"CAST((m >> {2 * (CELL_RES - 1 - i)}) & 3 AS VARCHAR)"
        for i in range(CELL_RES)
    )
    return f"""
    SELECT c_custkey, {concat} AS quadkey FROM (
      SELECT c_custkey, {morton} AS m FROM (
        SELECT c_custkey, cell & {ymask} AS x, (cell >> 29) & {ymask} AS y
        FROM (SELECT c_custkey, {cell} AS cell FROM customer)))
    """


# IQR outlier flagging: per-group exact discrete quartiles (same
# order statistic as the `group_quantiles` oracle) -> Tukey fences ->
# row filter. The bounds table is one row per group key (tiny by
# construction — group cardinality, not corpus size), broadcast once;
# the corpus streams through a vectorized filter.
def q_iqr_outliers(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def quant(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = np.sort(g["value"].to_numpy(np.float64))
            n = len(v)
            q25 = v[int(np.floor(0.25 * (n - 1)))]
            q75 = v[int(np.floor(0.75 * (n - 1)))]
            rows.append((et, q25, q75))
        return pd.DataFrame(rows, columns=["event_type", "q25", "q75"])

    bounds = joins.grouped_agg(
        ev.select_columns(["event_type", "value"]), ["event_type"], quant,
        num_partitions=8, pre_repartition=False,
    ).to_pandas()
    # identical float op order on both sides: lo = q25 - 1.5*(q75-q25)
    q25 = bounds["q25"].to_numpy(np.float64)
    q75 = bounds["q75"].to_numpy(np.float64)
    lo = dict(zip(bounds["event_type"], q25 - 1.5 * (q75 - q25)))
    hi = dict(zip(bounds["event_type"], q75 + 1.5 * (q75 - q25)))
    ref = ray.put((lo, hi))

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        lo_m, hi_m = ray.get(ref)
        v = df["value"].to_numpy(np.float64)
        keep = (v < df["event_type"].map(lo_m).to_numpy(np.float64)) | (
            v > df["event_type"].map(hi_m).to_numpy(np.float64))
        return df[keep][["event_id", "event_type", "value"]]

    return ev.map_batches(flag, batch_format="pandas")


_IQR_SQL = """
    WITH q AS (
      SELECT event_type,
        list_extract(list(value ORDER BY value),
          CAST(floor(0.25*(count(*)-1)) AS BIGINT)+1) AS q25,
        list_extract(list(value ORDER BY value),
          CAST(floor(0.75*(count(*)-1)) AS BIGINT)+1) AS q75
      FROM events GROUP BY event_type)
    SELECT e.event_id, e.event_type, e.value
    FROM events e JOIN q USING (event_type)
    WHERE e.value < q.q25 - 1.5*(q.q75 - q.q25)
       OR e.value > q.q75 + 1.5*(q.q75 - q.q25)
"""


# retention cohorts: users grouped by first-activity day, counted per
# (cohort day, day offset) — the standard growth-analytics rollup.
# Three distributed stages: per-user first-ts (combiner-bounded
# grouped min), distinct active (user, day) pairs, then a LARGE-LARGE
# hash join of activity onto cohorts and a small grouped count.
def q_retention_cohorts(sf_dir: str):
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def first_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False)["ts"].min()
        return g.rename(columns={"ts": "fts"})

    def first_total(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("user_id", as_index=False)["fts"].min()

    firsts = joins.grouped_agg(
        ev.map_batches(first_partial, batch_format="pandas"),
        ["user_id"], first_total, num_partitions=32, pre_repartition=False,
    )

    def day_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"user_id": df["user_id"],
                            "day": df["ts"].dt.floor("D")})
        return out.drop_duplicates()

    active = joins.distinct(
        ev.map_batches(day_rows, batch_format="pandas"),
        ["user_id", "day"], num_partitions=32,
    )

    _ACT = pa.schema([("user_id", pa.int64()), ("day", pa.timestamp("us"))])
    _FST = pa.schema([("user_id", pa.int64()), ("fts", pa.timestamp("us"))])
    j = joins.hash_join(active, firsts, on="user_id", num_partitions=32,
                        left_schema=_ACT, right_schema=_FST)

    def to_cohort(df: pd.DataFrame) -> pd.DataFrame:
        cohort = df["fts"].dt.floor("D")
        off = ((df["day"] - cohort).dt.days).astype("int64")
        g = (pd.DataFrame({"cohort_day": cohort, "offset_days": off})
             .groupby(["cohort_day", "offset_days"], as_index=False).size())
        return g.rename(columns={"size": "n_users"})

    def total(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["cohort_day", "offset_days"], as_index=False)["n_users"].sum()
        g["n_users"] = g["n_users"].astype("int64")
        return g

    return joins.grouped_agg(
        j.map_batches(to_cohort, batch_format="pandas"),
        ["cohort_day", "offset_days"], total,
        num_partitions=8, pre_repartition=False,
    )


_RETENTION_SQL = """
    WITH f AS (SELECT user_id, min(ts) AS fts FROM events GROUP BY user_id),
    d AS (SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events)
    SELECT date_trunc('day', f.fts) AS cohort_day,
           date_diff('day', date_trunc('day', f.fts), d.day)::BIGINT AS offset_days,
           count(*)::BIGINT AS n_users
    FROM d JOIN f USING (user_id)
    GROUP BY 1, 2
"""


# geofence enter/exit detection: the continuous-monitoring twin of the
# PIP join — per-ping inside-any-fence state, then a per-user ordered
# LAG comparison emits one event per state CHANGE. Composition of the
# M2-style predicate with the O4-style ordered scan (reference redoes
# the full membership query per window, `src/osm/OsmChangeHandler.cpp`
# delete/insert cycle; here only transitions leave the stage). Scale
# shape: PIP state is a stateless per-batch map; the window is one
# user-hash partition sort, rows out = state changes only.
def q_geofence_transitions(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def state(t: pa.Table) -> pa.Table:
        lon, lat = geo.derive_lonlat(t["event_id"].to_numpy(zero_copy_only=False))
        inside = np.zeros(len(lon), dtype=bool)
        for rx, ry in PIP_POLYS.values():
            inside |= geo.point_in_polygon(lon, lat, np.array(rx), np.array(ry))
        return t.append_column("inside", pa.array(inside))

    st = ev.map_batches(state, batch_format="pyarrow")

    def transitions(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": pd.Series([], dtype="int64"),
                 "event_id": pd.Series([], dtype="int64"),
                 "op": pd.Series([], dtype="string")})
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        uid = df["user_id"].to_numpy()
        ins = df["inside"].to_numpy()
        chg = np.zeros(len(df), dtype=bool)
        chg[1:] = (uid[1:] == uid[:-1]) & (ins[1:] != ins[:-1])
        out = df[chg]
        return pd.DataFrame(
            {"user_id": out["user_id"].to_numpy(),
             "event_id": out["event_id"].to_numpy(),
             "op": np.where(out["inside"].to_numpy(), "enter", "exit")})

    return joins.partitioned_map(st, ["user_id"], transitions,
                                 num_partitions=16, pre_repartition=False)


def _geofence_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    inside = " OR ".join(geo.pip_sql_expr(rx, ry, lon, lat)
                         for rx, ry in PIP_POLYS.values())
    return f"""
    WITH s AS (
      SELECT user_id, event_id, ts, ({inside}) AS inside FROM events),
    w AS (
      SELECT user_id, event_id, inside,
             lag(inside) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
      FROM s)
    SELECT user_id, event_id,
           CASE WHEN inside THEN 'enter' ELSE 'exit' END AS op
    FROM w WHERE prev IS NOT NULL AND inside <> prev
    """


# exact corpus heavy hitters (see text.heavy_terms: 2-pass MG-candidate
# + broadcast-recount plan; vocabulary never shuffles)
def q_heavy_terms(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return text.heavy_terms(docs, k=HEAVY_K, num_partitions=16)


HEAVY_K = 500

_HEAVY_TERMS_SQL = f"""
    WITH tok AS (
      SELECT unnest(string_split_regex(lower(text), '[^a-z]+')) AS term
      FROM documents),
    t AS (SELECT term, count(*)::BIGINT AS cnt
          FROM tok WHERE term <> '' GROUP BY term),
    n AS (SELECT sum(cnt) AS total FROM t)
    SELECT term, cnt FROM t, n WHERE cnt * {HEAVY_K} >= total
"""


# geohash: the OTHER ubiquitous hierarchical cell string (base-32,
# lon-first bit interleave over binary fractions of the lon/lat
# ranges) — complements `quadkeys` (z-order base-4). 8 chars = 40
# bits = 20 lon + 20 lat. Pure per-batch map, fixed-width byte matrix
# assembly, no per-row loop.
GEOHASH_CHARS = 8
_GH_BITS = 5 * GEOHASH_CHARS // 2  # per-axis bits (even total bits)
_GH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"


def q_geohash(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey"])
    pts = _with_points(cust, "c_custkey")
    amax = np.int64((1 << _GH_BITS) - 1)
    alpha = np.frombuffer(_GH_ALPHABET.encode(), dtype=np.uint8)

    def gh(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({"c_custkey": t["c_custkey"],
                             "geohash": pa.array([], pa.string())})
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        scale = np.float64(1 << _GH_BITS)
        x = np.minimum(np.floor((lon + 180.0) / 360.0 * scale).astype(np.int64), amax)
        y = np.minimum(np.floor((lat + 90.0) / 180.0 * scale).astype(np.int64), amax)
        m = np.zeros(n, dtype=np.int64)
        for j in range(_GH_BITS):  # lon on even bit positions (MSB first)
            m |= (((x >> (_GH_BITS - 1 - j)) & 1) << (2 * _GH_BITS - 1 - 2 * j))
            m |= (((y >> (_GH_BITS - 1 - j)) & 1) << (2 * _GH_BITS - 2 - 2 * j))
        digits = np.stack(
            [(m >> (5 * (GEOHASH_CHARS - 1 - c))) & 31
             for c in range(GEOHASH_CHARS)], axis=1)
        chars = alpha[digits]
        s = np.frombuffer(chars.tobytes(), dtype=f"S{GEOHASH_CHARS}")
        return pa.table({"c_custkey": t["c_custkey"],
                         "geohash": pa.array(s.astype("U"))})

    return pts.map_batches(gh, batch_format="pyarrow")


def _geohash_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    amax = (1 << _GH_BITS) - 1
    inter = " + ".join(
        f"(((x >> {_GH_BITS - 1 - j}) & 1) * {1 << (2 * _GH_BITS - 1 - 2 * j)})"
        f" + (((y >> {_GH_BITS - 1 - j}) & 1) * {1 << (2 * _GH_BITS - 2 - 2 * j)})"
        for j in range(_GH_BITS)
    )
    concat = " || ".join(
        f"substr('{_GH_ALPHABET}', "
        f"CAST(((m >> {5 * (GEOHASH_CHARS - 1 - c)}) & 31) AS INT) + 1, 1)"
        for c in range(GEOHASH_CHARS)
    )
    return f"""
    SELECT c_custkey, {concat} AS geohash FROM (
      SELECT c_custkey, {inter} AS m FROM (
        SELECT c_custkey,
               LEAST(CAST(floor((({lon}) + 180.0) / 360.0 * {float(1 << _GH_BITS)!r}) AS BIGINT), {amax}) AS x,
               LEAST(CAST(floor((({lat}) + 90.0) / 180.0 * {float(1 << _GH_BITS)!r}) AS BIGINT), {amax}) AS y
        FROM customer))
    """


# origin->destination flow matrix: each user's first and last ping
# cell (ordered by ts, event_id), counted per (o_cell, d_cell) pair —
# the standard mobility rollup over the same cell grid the tiling
# path uses. One user-hash partition sort + a tiny pair groupby.
def q_od_matrix(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def ends(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"o_cell": pd.Series([], dtype="int64"),
                 "d_cell": pd.Series([], dtype="int64"),
                 "n_users": pd.Series([], dtype="int64")})
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        g = df.groupby("user_id", as_index=False).agg(
            o_eid=("event_id", "first"), d_eid=("event_id", "last"))
        olon, olat = geo.derive_lonlat(g["o_eid"].to_numpy(np.int64))
        dlon, dlat = geo.derive_lonlat(g["d_eid"].to_numpy(np.int64))
        out = pd.DataFrame(
            {"o_cell": geo.cell_encode(olon, olat, CELL_RES),
             "d_cell": geo.cell_encode(dlon, dlat, CELL_RES)})
        out = out.groupby(["o_cell", "d_cell"], as_index=False).size(
        ).rename(columns={"size": "n_users"})
        out["n_users"] = out["n_users"].astype("int64")
        return out

    ends_d = joins.partitioned_map(ev, ["user_id"], ends,
                                   num_partitions=16,
                                   pre_repartition=False)

    def total(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["o_cell", "d_cell"], as_index=False)["n_users"].sum()
        g["n_users"] = g["n_users"].astype("int64")
        return g

    return joins.grouped_agg(ends_d, ["o_cell", "d_cell"], total,
                             num_partitions=16, pre_repartition=False)


def _od_matrix_sql() -> str:
    olon, olat = geo.derive_lonlat_sql("o_eid")
    dlon, dlat = geo.derive_lonlat_sql("d_eid")
    ocell = geo.cell_encode_sql(olon, olat, CELL_RES)
    dcell = geo.cell_encode_sql(dlon, dlat, CELL_RES)
    return f"""
    WITH ends AS (
      SELECT user_id,
             first_value(event_id) OVER w AS o_eid,
             last_value(event_id) OVER
               (PARTITION BY user_id ORDER BY ts, event_id
                ROWS BETWEEN UNBOUNDED PRECEDING
                         AND UNBOUNDED FOLLOWING) AS d_eid,
             row_number() OVER w AS rn
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
    u AS (SELECT o_eid, d_eid FROM ends WHERE rn = 1)
    SELECT {ocell} AS o_cell, {dcell} AS d_cell,
           count(*)::BIGINT AS n_users
    FROM u GROUP BY 1, 2
    """


# per-group z-score normalization of money amounts — the two-pass
# (tiny stats -> broadcast back) feature-scaling pattern every
# training pipeline runs. Stats are EXACT integers (cents; partial
# per-block int64 sums merged as Python bigints so n*sumsq never
# wraps), the per-row z is one subtraction/divide from those ints
# with identical op order both sides, rounded to 1e-6.
def q_zscore_norm(sf_dir: str):
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_returnflag",
                "l_extendedprice"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        c = _round_half_away(df["l_extendedprice"].to_numpy() * 100.0)
        g = pd.DataFrame({"f": df["l_returnflag"], "c": c, "c2": c * c})
        out = g.groupby("f", as_index=False).agg(
            n=("c", "size"), s=("c", "sum"), s2=("c2", "sum"))
        return out

    stats = li.map_batches(partials, batch_format="pandas").to_pandas()
    # merge block partials as Python bigints — the s2 total overflows
    # int64 well before the PER-BLOCK partials do
    stats[["n", "s", "s2"]] = stats[["n", "s", "s2"]].astype(object)
    stats = stats.groupby("f", as_index=False).sum()
    # Python bigints: n*s2 - s*s exceeds int64 at sf>=0.1
    den = {
        r.f: float(int(r.n) * int(r.s2) - int(r.s) * int(r.s))
        for r in stats.itertuples()
    }
    nmap = {r.f: int(r.n) for r in stats.itertuples()}
    smap = {r.f: int(r.s) for r in stats.itertuples()}

    def z(df: pd.DataFrame) -> pd.DataFrame:
        c = _round_half_away(df["l_extendedprice"].to_numpy() * 100.0)
        f = df["l_returnflag"]
        n = f.map(nmap).to_numpy(dtype=np.float64)
        s = f.map(smap).to_numpy(dtype=np.float64)
        d = np.sqrt(f.map(den).to_numpy(dtype=np.float64))
        zv = (c.astype(np.float64) * n - s) / d
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"],
             "l_linenumber": df["l_linenumber"],
             "z_1e6": _round_half_away(zv * 1e6)})

    return li.map_batches(z, batch_format="pandas")


_ZSCORE_SQL = """
    WITH c AS (
      SELECT l_orderkey, l_linenumber, l_returnflag,
             round(l_extendedprice * 100.0, 0)::BIGINT AS cents
      FROM lineitem),
    st AS (
      SELECT l_returnflag, count(*)::HUGEINT AS n,
             sum(cents)::HUGEINT AS s,
             sum(cents::HUGEINT * cents)::HUGEINT AS s2
      FROM c GROUP BY l_returnflag)
    SELECT l_orderkey, l_linenumber,
           round((cents::DOUBLE * n::DOUBLE - s::DOUBLE)
                 / sqrt((n * s2 - s * s)::DOUBLE) * 1e6, 0)::BIGINT AS z_1e6
    FROM c JOIN st USING (l_returnflag)
"""


# per-node triangle counts: canonical a<b edges -> wedge join
# (e1.hi = e2.lo gives a<b<c for free) -> closing-edge check -> 3 rows
# per triangle grouped per node. Size-probed (the auto_join
# discipline): when the canonical edge set fits the broadcast budget
# it ships once via ray.put and the wedge join + closing check run
# MAP-SIDE as two vectorized pandas merges per block — zero wedge
# exchange (r3 profiling: the shuffled variant spent 145 s at sf0.1
# sorting 2.4M wedge rows with string pair keys; this path does it
# in seconds). Beyond the budget it falls back to the
# hash-partitioned wedge join + a semi join on an exact string pair
# key (no hash-collision risk) — every stage distributed, nothing on
# the driver.
def _triangle_counts(e: ray.data.Dataset, num_partitions: int = 8,
                     broadcast_rows: int | None = None):
    if broadcast_rows is None:
        broadcast_rows = joins.DEFAULT_BROADCAST_JOIN_ROWS

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        lo = np.minimum(df["a"].to_numpy(), df["b"].to_numpy())
        hi = np.maximum(df["a"].to_numpy(), df["b"].to_numpy())
        return pd.DataFrame({"lo": lo, "hi": hi}).drop_duplicates()

    ce = joins.distinct(
        e.map_batches(canon, batch_format="pandas"), ["lo", "hi"],
        num_partitions=num_partitions,
    ).materialize()

    def cnt(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False).size().rename(
            columns={"size": "n_tri"})
        g["n_tri"] = g["n_tri"].astype("int64")
        return g

    def nsum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False)["n_tri"].sum()
        g["n_tri"] = g["n_tri"].astype("int64")
        return g

    if ce.count() <= broadcast_rows:
        cref = ray.put(ce.to_pandas())

        def wedge_close(df: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(cref)
            w = df.merge(
                c.rename(columns={"lo": "lo2", "hi": "hi2"}),
                left_on="hi", right_on="lo2")
            t = w.merge(c, left_on=["lo", "hi2"],
                        right_on=["lo", "hi"], suffixes=("", "_e3"))
            corners = pd.DataFrame({"node": np.concatenate(
                [t["lo"].to_numpy(), t["hi"].to_numpy(),
                 t["hi2"].to_numpy()])})
            return cnt(corners)

        partial = ce.map_batches(wedge_close, batch_format="pandas")
        return joins.grouped_agg(partial, ["node"], nsum,
                                 num_partitions=num_partitions,
                                 pre_repartition=False)

    _E = pa.schema([("lo", pa.int64()), ("hi", pa.int64())])

    def ren2(t: pa.Table) -> pa.Table:
        return t.rename_columns(["lo2", "hi2"])

    e2 = ce.map_batches(ren2, batch_format="pyarrow")
    wedges = joins.hash_join(
        ce, e2, on="hi", right_on="lo2", num_partitions=num_partitions,
        left_schema=_E,
        right_schema=pa.schema([("lo2", pa.int64()), ("hi2", pa.int64())]),
    )

    def wkey(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            pc.cast(t["lo"], pa.string()), pc.cast(t["hi2"], pa.string()),
            ",")
        return t.append_column("k", k)

    def ekey(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            pc.cast(t["lo"], pa.string()), pc.cast(t["hi"], pa.string()),
            ",")
        return pa.table({"k": k})

    tri = joins.semi_join(
        wedges.map_batches(wkey, batch_format="pyarrow"),
        ce.map_batches(ekey, batch_format="pyarrow"),
        on="k", num_partitions=num_partitions,
        left_schema=pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                               ("hi2", pa.int64()), ("k", pa.string())]),
        keys_schema=pa.schema([("k", pa.string())]),
    )

    def corners(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays(
            [t["lo"].combine_chunks(), t["hi"].combine_chunks(),
             t["hi2"].combine_chunks()])})

    return joins.grouped_agg(
        tri.map_batches(corners, batch_format="pyarrow"), ["node"], nsum,
        num_partitions=num_partitions, combine_fn=cnt,
        pre_repartition=False,
    )


def q_triangle_count(sf_dir: str):
    return _triangle_counts(_interaction_edges(sf_dir))


_TRIANGLE_SQL = f"""
    WITH {_EDGES_CTE},
    canon AS (SELECT DISTINCT LEAST(a, b) AS lo, GREATEST(a, b) AS hi
              FROM edges),
    tri AS (SELECT e1.lo AS a, e1.hi AS b, e2.hi AS c
            FROM canon e1
            JOIN canon e2 ON e2.lo = e1.hi
            JOIN canon e3 ON e3.lo = e1.lo AND e3.hi = e2.hi)
    SELECT node, count(*)::BIGINT AS n_tri FROM (
      SELECT a AS node FROM tri
      UNION ALL SELECT b FROM tri
      UNION ALL SELECT c FROM tri)
    GROUP BY node
"""


BFS_SEED_MOD = 7
BFS_MAX_HOPS = 6


def q_bfs_hops(sf_dir: str):
    """Multi-source BFS (joins.bfs_hops): hop distance from the seed
    users (user_id % BFS_SEED_MOD == 0, restricted to graph nodes) over
    the interaction graph — frontier-expansion reachability, verified
    hash-exact against a recursive-CTE oracle."""
    e = _interaction_edges(sf_dir).materialize()

    def seed(t: pa.Table) -> pa.Table:
        node = np.concatenate(
            [t["a"].to_numpy(zero_copy_only=False),
             t["b"].to_numpy(zero_copy_only=False)])
        return pa.table({"node": pa.array(node[node % BFS_SEED_MOD == 0])})

    seeds = e.map_batches(seed, batch_format="pyarrow")
    return joins.bfs_hops(e, seeds, src_col="a", dst_col="b",
                          max_hops=BFS_MAX_HOPS, num_partitions=8)


_BFS_SQL = f"""
    WITH RECURSIVE {_EDGES_CTE},
    sym AS (SELECT a AS src, b AS dst FROM edges
            UNION SELECT b, a FROM edges),
    seeds AS (SELECT DISTINCT src AS node FROM sym WHERE src % {BFS_SEED_MOD} = 0),
    walk AS (SELECT node, 0 AS hop FROM seeds
             UNION
             SELECT s.dst, w.hop + 1 FROM walk w
             JOIN sym s ON s.src = w.node WHERE w.hop < {BFS_MAX_HOPS})
    SELECT node, min(hop)::BIGINT AS hop FROM walk GROUP BY node
"""


# chi-square independence audit of the (lang, source) contingency —
# the data-balance check every corpus curation run wants. Counting is
# distributed; the contingency arithmetic runs on the TINY
# langs x sources table with Python bigints (the squared numerator
# exceeds int64 long before the table stops fitting on a postcard),
# one float division + 1e-6 rounding with identical op order both
# sides -> hash-exact.
def q_chi2_lang_source(sf_dir: str):
    docs = _read(sf_dir, "documents", ["lang", "source"])

    def cnt(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "source"], as_index=False).size().rename(
            columns={"size": "o"})
        g["o"] = g["o"].astype("int64")
        return g

    def csum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "source"], as_index=False)["o"].sum()
        g["o"] = g["o"].astype("int64")
        return g

    obs = joins.grouped_agg(
        docs.map_batches(cnt, batch_format="pandas"), ["lang", "source"],
        csum, num_partitions=8, pre_repartition=False,
    ).to_pandas()  # langs x sources rows — postcard-sized by schema
    n = int(obs["o"].sum())
    rt = obs.groupby("lang")["o"].sum().to_dict()
    ct = obs.groupby("source")["o"].sum().to_dict()
    num = np.array(
        [int(o) * n - int(rt[l]) * int(ct[s])
         for o, l, s in zip(obs["o"], obs["lang"], obs["source"])],
        dtype=object)
    den = np.array(
        [n * int(rt[l]) * int(ct[s])
         for l, s in zip(obs["lang"], obs["source"])], dtype=object)
    chi = np.array(
        [float(a * a) / float(b) for a, b in zip(num, den)],
        dtype=np.float64)
    out = pd.DataFrame(
        {"lang": obs["lang"], "source": obs["source"],
         "o": obs["o"].astype("int64"),
         "chi2_1e6": _round_half_away(chi * 1e6)})
    return out


_CHI2_SQL = """
    WITH o AS (
      SELECT lang, source, count(*)::BIGINT AS o
      FROM documents GROUP BY lang, source),
    rt AS (SELECT lang, sum(o)::BIGINT AS rt FROM o GROUP BY lang),
    ct AS (SELECT source, sum(o)::BIGINT AS ct FROM o GROUP BY source),
    n AS (SELECT sum(o)::BIGINT AS n FROM o)
    SELECT o.lang, o.source, o.o,
           round(((o.o::HUGEINT * n.n - rt.rt::HUGEINT * ct.ct)
                  * (o.o::HUGEINT * n.n - rt.rt::HUGEINT * ct.ct))::DOUBLE
                 / (n.n::HUGEINT * rt.rt * ct.ct)::DOUBLE * 1e6,
                 0)::BIGINT AS chi2_1e6
    FROM o JOIN rt USING (lang) JOIN ct USING (source) CROSS JOIN n
"""


# per-segment GPS speed: LAG + haversine + epoch delta, all-integer
# output (mm, s, um/s via floor division) so the window derivation is
# hash-exact. Zero-dt pairs are skipped (division is total).
def q_track_speed(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def speed(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": pd.Series([], dtype="int64"),
                 "event_id": pd.Series([], dtype="int64"),
                 "dist_mm": pd.Series([], dtype="int64"),
                 "dt_s": pd.Series([], dtype="int64"),
                 "speed_um_s": pd.Series([], dtype="int64")})
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        lon, lat = geo.derive_lonlat(df["event_id"].to_numpy(np.int64))
        uid = df["user_id"].to_numpy()
        # normalize to us first: pandas round-trips can yield ns
        # (established idiom, see the ts handling near _round_half_away)
        tse = (df["ts"].astype("datetime64[us]").astype("int64")
               .to_numpy() // 1_000_000)  # us -> s
        same = np.zeros(len(df), dtype=bool)
        same[1:] = uid[1:] == uid[:-1]
        dmm = np.zeros(len(df), dtype=np.int64)
        dts = np.zeros(len(df), dtype=np.int64)
        if len(df) > 1:
            d = geo.haversine_m(lon[:-1], lat[:-1], lon[1:], lat[1:])
            dmm[1:] = _round_half_away(d * 1000.0)
            dts[1:] = tse[1:] - tse[:-1]
        keep = same & (dts > 0)
        out = pd.DataFrame(
            {"user_id": uid[keep], "event_id": df["event_id"].to_numpy()[keep],
             "dist_mm": dmm[keep], "dt_s": dts[keep],
             "speed_um_s": (dmm[keep] * 1000) // dts[keep]})
        return out

    return joins.partitioned_map(ev, ["user_id"], speed,
                                 num_partitions=16, pre_repartition=False)


def _track_speed_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    plon, plat = geo.derive_lonlat_sql("p_eid")
    hav = geo.haversine_sql(plon, plat, lon, lat)
    return f"""
    WITH w AS (
      SELECT user_id, event_id, ts,
             lag(event_id) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS p_eid,
             lag(ts) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id) AS p_ts
      FROM events),
    seg AS (
      SELECT user_id, event_id,
             round({hav} * 1000.0, 0)::BIGINT AS dist_mm,
             date_diff('second', p_ts, ts)::BIGINT AS dt_s
      FROM w WHERE p_eid IS NOT NULL)
    SELECT user_id, event_id, dist_mm, dt_s,
           (dist_mm * 1000 // dt_s)::BIGINT AS speed_um_s
    FROM seg WHERE dt_s > 0
    """


def q_bpe_merges(sf_dir: str):
    """Tokenizer training: first 8 BPE merge rules learned over the
    corpus (text.bpe_merges — one corpus pass for the vocab, merge
    rounds over the vocab Dataset). Rows-only: the iterative
    argmax-and-rewrite isn't SQL; verified against a pure-Python BPE
    in pytest."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return text.bpe_merges(docs, n_merges=8, num_partitions=8)


# grid DBSCAN (DBSCAN-lite): cells with >= MINPTS points are core;
# 8-adjacent core cells (x wraps the antimeridian, y clamps at the
# poles — k_ring semantics) merge into one cluster via the SAME
# distributed hash-min CC loop the dedup path uses; points in core
# cells get their cluster's min-cell-id label, the rest are noise
# (absent). Every stage is a grouped count / k-ring explode /
# semi-join / CC round — nothing corpus-sized touches the driver.
GRID_RES = 4
GRID_MINPTS = 2


def q_grid_clusters(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey"])
    pts = spatial.add_cell_column(_with_points(cust, "c_custkey"), GRID_RES)
    pts = pts.select_columns(["c_custkey", "cell"])

    def cnt(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell", as_index=False).size().rename(
            columns={"size": "n"})
        g["n"] = g["n"].astype("int64")
        return g

    def core(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell", as_index=False)["n"].sum()
        return g.loc[g["n"] >= GRID_MINPTS, ["cell"]]

    core_d = joins.grouped_agg(
        pts.map_batches(cnt, batch_format="pandas"), ["cell"], core,
        num_partitions=8, pre_repartition=False,
    ).materialize()

    def ring(t: pa.Table) -> pa.Table:
        c = t["cell"].to_numpy(zero_copy_only=False)
        if len(c) == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "nbr": pa.array([], pa.int64())})
        nb = geo.k_ring(c, 1)
        return pa.table(
            {"cell": pa.array(np.repeat(c, nb.shape[1])),
             "nbr": pa.array(nb.ravel())})

    cand = core_d.map_batches(ring, batch_format="pyarrow")
    edges = joins.semi_join(
        cand, core_d, on="nbr", key_col="cell", num_partitions=8,
        left_schema=pa.schema([("cell", pa.int64()), ("nbr", pa.int64())]),
        keys_schema=pa.schema([("cell", pa.int64())]),
    )
    labels = joins.connected_components(edges, "cell", "nbr",
                                        num_partitions=8)
    # labels are one row per CORE CELL (bounded by the grid, not the
    # corpus) — auto_join ships them map-side below the broadcast
    # budget and falls back to the hash join beyond it
    out = joins.auto_join(
        pts, labels, on="cell", right_on="node", num_partitions=8,
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("cell", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()),
                                ("label", pa.int64())]),
    )
    return out.select_columns(["c_custkey", "cell", "label"])


def _grid_clusters_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    cell = geo.cell_encode_sql(lon, lat, GRID_RES)
    n = 1 << GRID_RES
    return f"""
    WITH RECURSIVE pts AS (
      SELECT c_custkey, {cell} AS cell FROM customer),
    cnt AS (SELECT cell, count(*)::BIGINT AS n FROM pts GROUP BY cell),
    core AS (
      SELECT cell, cell % {geo.Y_SHIFT} AS x,
             (cell % {geo.RES_SHIFT}) // {geo.Y_SHIFT} AS y
      FROM cnt WHERE n >= {GRID_MINPTS}),
    adj AS (
      SELECT a.cell AS ca, b.cell AS cb FROM core a JOIN core b
      ON (abs(a.x - b.x) <= 1 OR abs(a.x - b.x) = {n - 1})
         AND abs(a.y - b.y) <= 1),
    walk AS (
      SELECT ca AS node, cb AS reach FROM adj
      UNION
      SELECT w.node, a.cb FROM walk w JOIN adj a ON a.ca = w.reach),
    lab AS (SELECT node, least(node, min(reach)) AS label
            FROM walk GROUP BY node)
    SELECT p.c_custkey, p.cell, l.label
    FROM pts p JOIN lab l ON l.node = p.cell
    """


# exact weighted median (quantity-weighted price) per group: smallest
# cents value whose running weight doubles past the total — one
# group-hash partition sort + cumsum, vs the identical window cumsum
# in SQL. The robust-statistics counterpart to `group_quantiles`.
def q_weighted_median(sf_dir: str):
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice", "l_quantity"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"f": df["l_returnflag"],
             "cents": _round_half_away(
                 df["l_extendedprice"].to_numpy() * 100.0),
             "w": _round_half_away(df["l_quantity"].to_numpy())})

    def wmed(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"l_returnflag": pd.Series([], dtype="string"),
                 "wmedian_cents": pd.Series([], dtype="int64")})
        df = df.sort_values(["f", "cents"], kind="mergesort")
        g = df.groupby("f", sort=False)
        cum = g["w"].cumsum()
        tot = df["f"].map(g["w"].sum())
        pick = df[cum * 2 >= tot].groupby("f", as_index=False).first()
        return pd.DataFrame({"l_returnflag": pick["f"],
                             "wmedian_cents": pick["cents"].astype("int64")})

    return joins.partitioned_map(
        li.map_batches(prep, batch_format="pandas"), ["f"], wmed,
        num_partitions=8, pre_repartition=False,
    )


_WMEDIAN_SQL = """
    WITH c AS (
      SELECT l_returnflag AS f,
             round(l_extendedprice * 100.0, 0)::BIGINT AS cents,
             round(l_quantity, 0)::BIGINT AS w
      FROM lineitem),
    r AS (
      SELECT f, cents,
             sum(w) OVER (PARTITION BY f ORDER BY cents
                          ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND CURRENT ROW) AS cum,
             sum(w) OVER (PARTITION BY f) AS tot
      FROM c)
    SELECT f AS l_returnflag, min(cents)::BIGINT AS wmedian_cents
    FROM r WHERE cum * 2 >= tot GROUP BY f
"""


# time-spine gap fill: hourly event counts per type with MISSING
# hours emitted as zero over the global [min, max] hour span — the
# dimension-spine left join every dashboard/training-curriculum
# rollup needs (a naive groupby silently drops empty buckets). The
# spine is generated DISTRIBUTED (ray.data.range over hour indices ×
# the tiny type list); counts attach via the size-probed auto_join.
def q_gap_fill(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def hour_rows(t: pa.Table) -> pa.Table:
        h = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // (
            3_600_000_000)
        return pa.table({"event_type": t["event_type"],
                         "hour_idx": pa.array(h)})

    hrs = ev.map_batches(hour_rows, batch_format="pyarrow")

    def cnt(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "hour_idx"], as_index=False).size(
        ).rename(columns={"size": "n"})
        g["n"] = g["n"].astype("int64")
        return g

    def csum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "hour_idx"], as_index=False)["n"].sum()
        g["n"] = g["n"].astype("int64")
        return g

    counts = joins.grouped_agg(
        hrs.map_batches(cnt, batch_format="pandas"),
        ["event_type", "hour_idx"], csum, num_partitions=8,
        pre_repartition=False,
    ).materialize()
    # global span + type list: tiny scalars/lists by schema
    cdf_small = counts.to_pandas()  # (types x active hours) rows
    h0, h1 = int(cdf_small["hour_idx"].min()), int(cdf_small["hour_idx"].max())
    types = sorted(cdf_small["event_type"].unique())
    spine = ray.data.range(h1 - h0 + 1)

    def cross(t: pa.Table) -> pa.Table:
        h = t["id"].to_numpy(zero_copy_only=False) + h0
        return pa.table({
            "event_type": pa.array(np.repeat(np.array(types, object),
                                             len(h))),
            "hour_idx": pa.array(np.tile(h, len(types))),
        })

    grid = spine.map_batches(cross, batch_format="pyarrow")
    # key composite via string (exact) for the single-key join API
    def gkey(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            t["event_type"].combine_chunks().cast(pa.string()),
            pc.cast(t["hour_idx"], pa.string()), "@")
        return t.append_column("k", k)

    joined = joins.auto_join(
        grid.map_batches(gkey, batch_format="pyarrow"),
        counts.map_batches(gkey, batch_format="pyarrow").select_columns(
            ["k", "n"]),
        on="k", how="left", num_partitions=8,
        left_schema=pa.schema([("event_type", pa.string()),
                               ("hour_idx", pa.int64()),
                               ("k", pa.string())]),
        right_schema=pa.schema([("k", pa.string()), ("n", pa.int64())]),
    )

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": df["event_type"],
             "hour_idx": df["hour_idx"].astype("int64"),
             "n": df["n"].fillna(0).astype("int64")})

    return joined.map_batches(fill, batch_format="pandas")


_GAP_FILL_SQL = """
    WITH h AS (
      SELECT event_type,
             (epoch_us(ts) // 3600000000)::BIGINT AS hour_idx
      FROM events),
    c AS (SELECT event_type, hour_idx, count(*)::BIGINT AS n
          FROM h GROUP BY event_type, hour_idx),
    span AS (SELECT min(hour_idx) AS h0, max(hour_idx) AS h1 FROM h),
    grid AS (
      SELECT t.event_type, s.hour_idx FROM
        (SELECT DISTINCT event_type FROM h) t
        CROSS JOIN (SELECT unnest(generate_series(h0, h1)) AS hour_idx
                    FROM span) s)
    SELECT g.event_type, g.hour_idx,
           COALESCE(c.n, 0)::BIGINT AS n
    FROM grid g LEFT JOIN c USING (event_type, hour_idx)
"""


# order-statistic trimmed aggregates: drop each group's values below
# its p10 / above its p90 (discrete index floor(q*(n-1)), the
# group_quantiles convention), then EXACT integer sum + count of the
# survivors — the robust mean without float division. Two passes:
# tiny per-group fences -> broadcast row filter -> grouped int sums.
def q_trimmed_stats(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"f": df["l_returnflag"],
             "cents": _round_half_away(
                 df["l_extendedprice"].to_numpy() * 100.0)})

    cents = li.map_batches(prep, batch_format="pandas")

    def fences(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for f, g in part.groupby("f", sort=False):
            v = np.sort(g["cents"].to_numpy(np.int64))
            n = len(v)
            lo = v[int(np.floor(0.10 * (n - 1)))]
            hi = v[int(np.floor(0.90 * (n - 1)))]
            rows.append((f, lo, hi))
        return pd.DataFrame(rows, columns=["f", "lo", "hi"])

    fdf = joins.grouped_agg(cents, ["f"], fences, num_partitions=8,
                            pre_repartition=False).to_pandas()
    lo = dict(zip(fdf["f"], fdf["lo"]))
    hi = dict(zip(fdf["f"], fdf["hi"]))

    def trim(df: pd.DataFrame) -> pd.DataFrame:
        l = df["f"].map(lo).to_numpy(np.int64)
        h = df["f"].map(hi).to_numpy(np.int64)
        c = df["cents"].to_numpy(np.int64)
        keep = (c >= l) & (c <= h)
        g = df[keep].groupby("f", as_index=False).agg(
            n_kept=("cents", "size"), sum_cents=("cents", "sum"))
        g["n_kept"] = g["n_kept"].astype("int64")
        g["sum_cents"] = g["sum_cents"].astype("int64")
        return g

    def tsum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("f", as_index=False)[["n_kept", "sum_cents"]].sum()
        g["n_kept"] = g["n_kept"].astype("int64")
        g["sum_cents"] = g["sum_cents"].astype("int64")
        return g

    out = joins.grouped_agg(
        cents.map_batches(trim, batch_format="pandas"), ["f"], tsum,
        num_partitions=8, pre_repartition=False,
    )

    def ren(t: pa.Table) -> pa.Table:
        return t.rename_columns(["l_returnflag", "n_kept", "sum_cents"])

    return out.map_batches(ren, batch_format="pyarrow")


_TRIMMED_SQL = """
    WITH c AS (
      SELECT l_returnflag AS f,
             round(l_extendedprice * 100.0, 0)::BIGINT AS cents
      FROM lineitem),
    fe AS (
      SELECT f,
        list_extract(list(cents ORDER BY cents),
          CAST(floor(0.10 * (count(*) - 1)) AS BIGINT) + 1) AS lo,
        list_extract(list(cents ORDER BY cents),
          CAST(floor(0.90 * (count(*) - 1)) AS BIGINT) + 1) AS hi
      FROM c GROUP BY f)
    SELECT c.f AS l_returnflag, count(*)::BIGINT AS n_kept,
           sum(c.cents)::BIGINT AS sum_cents
    FROM c JOIN fe USING (f)
    WHERE c.cents >= fe.lo AND c.cents <= fe.hi
    GROUP BY c.f
"""


# per-track Douglas-Peucker simplification (geo.simplify_ring): keep
# the vertices that carry the track's shape at eps resolution — the
# pre-tiling detail shed. Rows-only (recursive DP is not SQL);
# verified against a pure-pandas per-user application in pytest. DP
# is inherently per-polyline; the kernel is vectorized across a
# track's points and tracks are independent across partitions.
SIMPLIFY_EPS_DEG = 2.0


def q_simplify_tracks(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def simp(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": pd.Series([], dtype="int64"),
                 "event_id": pd.Series([], dtype="int64")})
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        lon, lat = geo.derive_lonlat(df["event_id"].to_numpy(np.int64))
        out_u, out_e = [], []
        uid = df["user_id"].to_numpy()
        eid = df["event_id"].to_numpy()
        starts = np.flatnonzero(np.concatenate(
            ([True], uid[1:] != uid[:-1])))
        ends = np.concatenate((starts[1:], [len(uid)]))
        for s, e in zip(starts, ends):
            keep = geo.simplify_ring(lon[s:e], lat[s:e], SIMPLIFY_EPS_DEG)
            out_u.append(uid[s:e][keep])
            out_e.append(eid[s:e][keep])
        return pd.DataFrame({"user_id": np.concatenate(out_u),
                             "event_id": np.concatenate(out_e)})

    return joins.partitioned_map(ev, ["user_id"], simp,
                                 num_partitions=16, pre_repartition=False)


# per-user track corridor: every cell within Chebyshev distance
# CORRIDOR_K of any ping of the track (k_ring semantics: x wraps the
# antimeridian, y clamps at the poles), deduped — the "which tiles
# might this track touch" prefilter feeding tile invalidation. One
# stateless k-ring explode + a hash-partitioned distinct; the
# exploded stream is (2k+1)^2 x pings of 16-byte rows, never texts
# or bytes.
CORRIDOR_K = 1
CORRIDOR_RES = 6


def q_track_corridor(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id"])

    def ring(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "cell": pa.array([], pa.int64())})
        lon, lat = geo.derive_lonlat(
            t["event_id"].to_numpy(zero_copy_only=False))
        c = geo.cell_encode(lon, lat, CORRIDOR_RES)
        nb = geo.k_ring(c, CORRIDOR_K)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"user_id": pa.array(np.repeat(uid, nb.shape[1])),
             "cell": pa.array(nb.ravel())})

    cells = ev.map_batches(ring, batch_format="pyarrow")
    return joins.distinct(cells, ["user_id", "cell"], num_partitions=16)


def _track_corridor_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    n = 1 << CORRIDOR_RES
    k = CORRIDOR_K
    return f"""
    WITH p AS (
      SELECT user_id,
             LEAST(GREATEST(floor((({lon}) + 180.0) / 360.0
                                  * {float(n)!r})::BIGINT, 0), {n - 1}) AS x,
             LEAST(GREATEST(floor((({lat}) + 90.0) / 180.0
                                  * {float(n)!r})::BIGINT, 0), {n - 1}) AS y
      FROM events),
    nb AS (
      SELECT user_id,
             ((x + dx.d) % {n} + {n}) % {n} AS nx,
             LEAST(GREATEST(y + dy.d, 0), {n - 1}) AS ny
      FROM p
      CROSS JOIN (SELECT unnest(generate_series(-{k}, {k})) AS d) dx
      CROSS JOIN (SELECT unnest(generate_series(-{k}, {k})) AS d) dy)
    SELECT DISTINCT user_id,
           ({CORRIDOR_RES} * {geo.RES_SHIFT} + ny * {geo.Y_SHIFT} + nx) AS cell
    FROM nb
    """


# trajectory resampling: linear interpolation of each track at every
# whole-hour boundary strictly after the previous ping and at-or-
# before the next — the fixed-rate regularization step before any
# sequence model sees GPS data. Per-user window sort + a repeat/
# offset-arange explode (no Python loop over pairs); positions
# rounded to 1e-6 deg so the float interpolation hash-matches the
# identical SQL expression.
def q_resample_tracks(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def interp(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"user_id": pd.Series([], dtype="int64"),
             "hour_idx": pd.Series([], dtype="int64"),
             "lon_1e6": pd.Series([], dtype="int64"),
             "lat_1e6": pd.Series([], dtype="int64")})
        if len(df) < 2:
            return empty
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        lon, lat = geo.derive_lonlat(df["event_id"].to_numpy(np.int64))
        uid = df["user_id"].to_numpy()
        t = (df["ts"].astype("datetime64[us]").astype("int64")
             .to_numpy() // 1_000_000)  # us -> s (normalize: ns-safe)
        same = uid[1:] == uid[:-1]
        t0, t1 = t[:-1], t[1:]
        lo = t0 // 3600 + 1          # first hour boundary AFTER t0
        hi = t1 // 3600              # last boundary at-or-before t1
        cnt = np.where(same & (t1 > t0), np.maximum(hi - lo + 1, 0), 0)
        total = int(cnt.sum())
        if total == 0:
            return empty
        pair = np.repeat(np.arange(len(cnt)), cnt)
        cum = np.concatenate(([0], np.cumsum(cnt)))
        idx = lo[pair] + (np.arange(total) - cum[pair])
        h = idx * 3600
        frac = (h - t0[pair]).astype(np.float64) / (
            t1[pair] - t0[pair]).astype(np.float64)
        li = lon[:-1][pair] + (lon[1:][pair] - lon[:-1][pair]) * frac
        la = lat[:-1][pair] + (lat[1:][pair] - lat[:-1][pair]) * frac
        return pd.DataFrame(
            {"user_id": uid[:-1][pair], "hour_idx": idx,
             "lon_1e6": _round_half_away(li * 1e6),
             "lat_1e6": _round_half_away(la * 1e6)})

    return joins.partitioned_map(ev, ["user_id"], interp,
                                 num_partitions=16, pre_repartition=False)


def _resample_sql() -> str:
    lon0, lat0 = geo.derive_lonlat_sql("p_eid")
    lon1, lat1 = geo.derive_lonlat_sql("event_id")
    return f"""
    WITH w AS (
      SELECT user_id, event_id,
             (epoch_us(ts) // 1000000)::BIGINT AS t1,
             lag(event_id) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS p_eid,
             (epoch_us(lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id))
              // 1000000)::BIGINT AS t0
      FROM events),
    pairs AS (
      SELECT * FROM w WHERE p_eid IS NOT NULL AND t1 > t0
                        AND t1 // 3600 >= t0 // 3600 + 1),
    pts AS (
      SELECT user_id, p_eid, event_id, t0, t1,
             unnest(generate_series(t0 // 3600 + 1, t1 // 3600))
               AS hour_idx
      FROM pairs),
    xy AS (
      SELECT user_id, hour_idx,
             (hour_idx * 3600 - t0)::DOUBLE / (t1 - t0)::DOUBLE AS frac,
             {lon0} AS lon0, {lat0} AS lat0,
             {lon1} AS lon1, {lat1} AS lat1
      FROM pts)
    SELECT user_id, hour_idx,
           round((lon0 + (lon1 - lon0) * frac) * 1e6, 0)::BIGINT AS lon_1e6,
           round((lat0 + (lat1 - lat0) * frac) * 1e6, 0)::BIGINT AS lat_1e6
    FROM xy
    """


# trajectory similarity join: symmetric Hausdorff distance between
# per-user anchored tracks. Each user's track = anchor point
# (derive_lonlat(user_id)) plus small deterministic offsets
# (derive_lonlat(event_id) / TRACK_DIV) for the first TRACK_K events
# by (ts, event_id) — local trajectories, so the tau-dilated-envelope
# prefilter in spatial.hausdorff_self_join is genuinely selective.
# Output: user pairs with H(A,B) <= HAUS_TAU_M meters, exact-mm.
TRACK_K = 24
TRACK_DIV = 500.0
HAUS_TAU_M = 1_000_000.0  # 1000 km


def _track_hausdorff_parts() -> tuple[str, str]:
    """(cte_block, final_select) — split so `_track_clusters_sql` can
    extend the same chain with a recursive min-label closure."""
    alon, alat = geo.derive_lonlat_sql("user_id")
    olon, olat = geo.derive_lonlat_sql("event_id")
    lon = f"(({alon}) + (({olon}) / {TRACK_DIV!r}))"
    lat = f"(({alat}) + (({olat}) / {TRACK_DIV!r}))"
    hav = geo.haversine_sql("a.lon", "a.lat", "b.lon", "b.lat")
    tau_mm = int(HAUS_TAU_M * 1000)
    ctes = f"""ranked AS (
      SELECT user_id, event_id,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS rn
      FROM events),
    pts AS (
      SELECT user_id, event_id, {lon} AS lon, {lat} AS lat
      FROM ranked WHERE rn <= {TRACK_K}),
    d AS (
      SELECT a.user_id AS u1, b.user_id AS u2,
             a.event_id AS e1, b.event_id AS e2, {hav} AS dist
      FROM pts a JOIN pts b ON a.user_id < b.user_id),
    h1 AS (SELECT u1, u2, max(md) AS h FROM
             (SELECT u1, u2, e1, min(dist) AS md FROM d GROUP BY u1, u2, e1)
           GROUP BY u1, u2),
    h2 AS (SELECT u1, u2, max(md) AS h FROM
             (SELECT u1, u2, e2, min(dist) AS md FROM d GROUP BY u1, u2, e2)
           GROUP BY u1, u2)"""
    final = f"""
    SELECT h1.u1 AS u1, h1.u2 AS u2,
           round(greatest(h1.h, h2.h) * 1000.0, 0)::BIGINT AS haus_mm
    FROM h1 JOIN h2 ON h1.u1 = h2.u1 AND h1.u2 = h2.u2
    WHERE round(greatest(h1.h, h2.h) * 1000.0, 0)::BIGINT <= {tau_mm}
    """
    return ctes, final


def _track_clusters_sql() -> str:
    ctes, final = _track_hausdorff_parts()
    return f"""
    WITH RECURSIVE {ctes},
    pairs AS ({final}),
    edges AS (SELECT u1 AS a, u2 AS b FROM pairs
              UNION ALL SELECT u2 AS a, u1 AS b FROM pairs),
    reach AS (SELECT a AS node, b AS other FROM edges
              UNION
              SELECT r.node, e.b FROM reach r JOIN edges e ON e.a = r.other)
    SELECT node AS user_id, least(node, min(other)) AS cluster_id
    FROM reach GROUP BY node
    """


# tiled-raster blob extraction: nation-derived discs rasterized onto
# a global binary mask, tiled 32x32; per-tile dense labeling + cross-
# tile merge in oluray.stages.raster (pixels never become rows).
# Rows-only (pixel CCL is not SQL); brute-verified in pytest against
# a whole-raster BFS labeling (tests/test_raster.py).
RAST_TILE = 32
RAST_GW, RAST_GH = 12, 6  # raster = 384 x 192 px


def _raster_discs(sf_dir: str) -> np.ndarray:
    """(n, 3) int array of disc (cx, cy, r) in global pixel coords,
    derived from nation keys (25 rows at every sf — a SMALL side,
    shipped once via ray.put)."""
    keys = np.sort(_read(sf_dir, "nation", ["n_nationkey"])
                   .to_pandas()["n_nationkey"].to_numpy(np.int64))
    lon, lat = geo.derive_lonlat(keys)
    w, h = RAST_GW * RAST_TILE, RAST_GH * RAST_TILE
    cx = np.clip(((lon + 180.0) / 360.0 * w).astype(np.int64), 0, w - 1)
    cy = np.clip(((lat + 85.0) / 170.0 * h).astype(np.int64), 0, h - 1)
    r = 5 + (keys % 4) * 5
    return np.stack([cx, cy, r], axis=1)


def q_raster_blobs(sf_dir: str):
    from oluray.stages import raster

    discs_ref = ray.put(_raster_discs(sf_dir))

    def make_tiles(t: pa.Table) -> pa.Table:
        discs = ray.get(discs_ref)
        ids = t["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tx = ids % RAST_GW
        ty = ids // RAST_GW
        n = len(ids)
        masks = np.zeros((n, RAST_TILE * RAST_TILE), dtype=np.uint8)
        py, px = np.mgrid[0:RAST_TILE, 0:RAST_TILE]
        for i in range(n):
            gx = px + tx[i] * RAST_TILE
            gy = py + ty[i] * RAST_TILE
            m = np.zeros((RAST_TILE, RAST_TILE), dtype=bool)
            for cx, cy, r in discs:
                # skip discs whose bbox misses the tile entirely
                if (cx + r < gx[0, 0] or cx - r > gx[0, -1]
                        or cy + r < gy[0, 0] or cy - r > gy[-1, 0]):
                    continue
                m |= (gx - cx) ** 2 + (gy - cy) ** 2 <= r * r
            masks[i] = m.ravel()
        return pa.table({
            "tx": pa.array(tx), "ty": pa.array(ty),
            "mask": pa.FixedSizeListArray.from_arrays(
                pa.array(masks.ravel()), RAST_TILE * RAST_TILE)})

    tiles = ray.data.range(RAST_GW * RAST_GH).map_batches(
        make_tiles, batch_format="pyarrow", batch_size=8)
    return raster.blob_labels(tiles, RAST_TILE, RAST_TILE, RAST_GW,
                              num_partitions=8)


# non-max suppression over synthetic per-image detection boxes: the
# standard vision-pipeline post-detector step. NMS_B boxes per
# document image (integer geometry + score from splitmix64 of
# doc_id * B + b), grouped per image; greedy keep-highest-score with
# ALL-INTEGER IoU tests (inter * 10 >= 3 * union, i.e. IoU >= 0.3 —
# no float, so results are platform-exact). The greedy scan is
# sequential per image but bounded by NMS_B (constant); the pairwise
# intersection matrix it consults is vectorized. Rows-only (greedy
# selection isn't SQL); brute-verified in pytest against a scalar
# pure-Python NMS.
NMS_B = 8           # candidate boxes per image
NMS_IOU_NUM = 3     # keep while inter * DEN < NUM * union
NMS_IOU_DEN = 10
NMS_IMG = 128       # image side in px (dense enough that boxes overlap)


def _nms_boxes_for(doc_ids: np.ndarray):
    """(n*B) synthetic detections: integer x0,y0,x1,y1 + score."""
    ids = np.repeat(doc_ids.astype(np.int64), NMS_B)
    b = np.tile(np.arange(NMS_B, dtype=np.int64), len(doc_ids))
    h = joins._mix64(ids * NMS_B + b)
    cx = (h % np.uint64(NMS_IMG)).astype(np.int64)
    cy = ((h >> np.uint64(8)) % np.uint64(NMS_IMG)).astype(np.int64)
    w = 16 + ((h >> np.uint64(16)) % np.uint64(96)).astype(np.int64)
    ht = 16 + ((h >> np.uint64(24)) % np.uint64(96)).astype(np.int64)
    score = ((h >> np.uint64(32)) % np.uint64(1_000_000)).astype(np.int64)
    x0 = np.clip(cx - w // 2, 0, NMS_IMG - 2)
    y0 = np.clip(cy - ht // 2, 0, NMS_IMG - 2)
    x1 = np.clip(cx + w // 2, x0 + 1, NMS_IMG - 1)
    y1 = np.clip(cy + ht // 2, y0 + 1, NMS_IMG - 1)
    return ids, b, x0, y0, x1, y1, score


def _nms_group(x0, y0, x1, y1, score) -> np.ndarray:
    """Greedy NMS keep-mask for ONE image's boxes (closed-interval
    pixel boxes, area = (x1-x0+1)*(y1-y0+1)); ties broken by box
    order. Bounded by NMS_B rows; the IoU matrix is vectorized."""
    order = np.lexsort((np.arange(len(score)), -score))
    ix0 = np.maximum(x0[order][:, None], x0[order][None, :])
    iy0 = np.maximum(y0[order][:, None], y0[order][None, :])
    ix1 = np.minimum(x1[order][:, None], x1[order][None, :])
    iy1 = np.minimum(y1[order][:, None], y1[order][None, :])
    inter = (np.maximum(ix1 - ix0 + 1, 0) * np.maximum(iy1 - iy0 + 1, 0))
    area = (x1[order] - x0[order] + 1) * (y1[order] - y0[order] + 1)
    union = area[:, None] + area[None, :] - inter
    sup = inter * NMS_IOU_DEN >= NMS_IOU_NUM * union  # integer-exact
    keep_sorted = np.zeros(len(score), dtype=bool)
    for i in range(len(score)):
        if not (sup[i, :i] & keep_sorted[:i]).any():
            keep_sorted[i] = True
    keep = np.zeros(len(score), dtype=bool)
    keep[order] = keep_sorted
    return keep


def q_nms_boxes(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id"])

    def detect(t: pa.Table) -> pa.Table:
        ids, b, x0, y0, x1, y1, sc = _nms_boxes_for(
            t["doc_id"].to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": pa.array(ids), "box_id": pa.array(b),
                         "x0": pa.array(x0), "y0": pa.array(y0),
                         "x1": pa.array(x1), "y1": pa.array(y1),
                         "score": pa.array(sc)})

    boxes = docs.map_batches(detect, batch_format="pyarrow")

    def nms(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df.astype({c: "int64" for c in df.columns})
        parts = []
        for _, g in df.groupby("doc_id", sort=False):
            keep = _nms_group(g["x0"].to_numpy(), g["y0"].to_numpy(),
                              g["x1"].to_numpy(), g["y1"].to_numpy(),
                              g["score"].to_numpy())
            parts.append(g[keep])
        out = pd.concat(parts, ignore_index=True)
        return out.astype("int64")

    return joins.partitioned_map(boxes, ["doc_id"], nms,
                                 num_partitions=16, pre_repartition=False)


# robust outlier flags via MAD (median absolute deviation): per-group
# discrete median (the group_quantiles index convention) of value,
# then the discrete median of |value - med|, flag rows with
# |value - med| > 3 * MAD. The IQR fence's heavier-tailed sibling;
# same two-pass tiny-fences -> broadcast row-filter shape.
def q_mad_outliers(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def fences(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = np.sort(g["value"].to_numpy(np.float64))
            med = v[int(np.floor(0.5 * (len(v) - 1)))]
            d = np.sort(np.abs(g["value"].to_numpy(np.float64) - med))
            mad = d[int(np.floor(0.5 * (len(d) - 1)))]
            rows.append((et, med, mad))
        return pd.DataFrame(rows, columns=["event_type", "med", "mad"])

    fdf = joins.grouped_agg(
        ev.select_columns(["event_type", "value"]), ["event_type"],
        fences, num_partitions=8, pre_repartition=False,
    ).to_pandas()
    med = dict(zip(fdf["event_type"], fdf["med"]))
    mad = dict(zip(fdf["event_type"], fdf["mad"]))

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        m = df["event_type"].map(med).to_numpy(np.float64)
        s = df["event_type"].map(mad).to_numpy(np.float64)
        v = df["value"].to_numpy(np.float64)
        keep = np.abs(v - m) > 3.0 * s
        out = df[keep]
        return pd.DataFrame({"event_id": out["event_id"],
                             "event_type": out["event_type"],
                             "value": out["value"]})

    return ev.map_batches(flag, batch_format="pandas")


_MAD_SQL = """
    WITH f AS (
      SELECT event_type,
        list_extract(list(value ORDER BY value),
          CAST(floor(0.5 * (count(*) - 1)) AS BIGINT) + 1) AS med
      FROM events GROUP BY event_type),
    d AS (
      SELECT e.event_type,
        list_extract(list(abs(e.value - f.med) ORDER BY abs(e.value - f.med)),
          CAST(floor(0.5 * (count(*) - 1)) AS BIGINT) + 1) AS mad
      FROM events e JOIN f USING (event_type) GROUP BY e.event_type)
    SELECT e.event_id, e.event_type, e.value
    FROM events e JOIN f USING (event_type) JOIN d USING (event_type)
    WHERE abs(e.value - f.med) > 3.0 * d.mad
"""


# entity resolution end-to-end: the ED<=1 fuzzy pairs (FastSS
# blocking, never all-pairs) become edges of the SAME distributed
# hash-min CC loop the dedup path uses; every part gets an entity
# label = min partkey of its name cluster, isolated parts label
# themselves. Oracle: recursive reachability over
# levenshtein(a,b) <= 1 edges + COALESCE for singletons.
def q_entity_clusters(sf_dir: str):
    part = _read(sf_dir, "part", ["p_partkey", "p_name"])
    pairs = text.fuzzy_pairs_ed1(part, "p_partkey", "p_name",
                                 num_partitions=16)
    labels = joins.connected_components(pairs, "ka", "kb",
                                        num_partitions=8)
    keys = part.select_columns(["p_partkey"])
    lonely = joins.semi_join(
        keys, labels, on="p_partkey", key_col="node", anti=True,
        num_partitions=8,
        left_schema=pa.schema([("p_partkey", pa.int64())]),
        keys_schema=pa.schema([("node", pa.int64()),
                               ("label", pa.int64())]),
    )

    def self_label(t: pa.Table) -> pa.Table:
        return pa.table({"p_partkey": t["p_partkey"],
                         "entity": t["p_partkey"]})

    def ren(t: pa.Table) -> pa.Table:
        return pa.table({"p_partkey": t["node"], "entity": t["label"]})

    return labels.map_batches(ren, batch_format="pyarrow").union(
        lonely.map_batches(self_label, batch_format="pyarrow"))


_ENTITY_SQL = """
    WITH RECURSIVE e AS (
      SELECT a.p_partkey AS ka, b.p_partkey AS kb
      FROM part a JOIN part b ON a.p_partkey < b.p_partkey
      WHERE levenshtein(a.p_name, b.p_name) <= 1),
    sym AS (SELECT ka AS a, kb AS b FROM e UNION SELECT kb, ka FROM e),
    walk AS (
      SELECT a AS node, b AS reach FROM sym
      UNION
      SELECT w.node, s.b FROM walk w JOIN sym s ON s.a = w.reach
      WHERE s.b <> w.node),
    lab AS (SELECT node, least(node, min(reach)) AS label
            FROM walk GROUP BY node)
    SELECT p.p_partkey, COALESCE(l.label, p.p_partkey) AS entity
    FROM part p LEFT JOIN lab l ON l.node = p.p_partkey
"""


# last-touch attribution: each purchase is credited to the user's
# most recent PRECEDING click (by (ts, event_id) order) within a
# 7-day window — gap kept as exact integer microseconds. One
# user-hash partition sort with a boundary-reset running max (the
# as-of backward join expressed as a window), deterministic tie-break
# = max click event_id at the winning timestamp.
ATTRIB_WINDOW_US = 7 * 86400 * 1_000_000


def q_attribution(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def pre(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(
            t["event_type"],
            value_set=pa.array(["click", "purchase"])))

    ev = ev.map_batches(pre, batch_format="pyarrow")

    def attr(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"event_id": pd.Series([], dtype="int64"),
             "click_event_id": pd.Series([], dtype="int64"),
             "gap_us": pd.Series([], dtype="int64")})
        if len(df) == 0:
            return empty
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        uid = df["user_id"].to_numpy()
        tus = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        is_click = (df["event_type"] == "click").to_numpy()
        # running max of click ts over STRICTLY PRECEDING rows, reset
        # per user (vectorized: shift, then cummax within segments)
        click_ts = np.where(is_click, tus, np.int64(-2**62))
        prev = np.concatenate(([np.int64(-2**62)], click_ts[:-1]))
        new_user = np.concatenate(
            ([True], uid[1:] != uid[:-1]))
        seg = np.cumsum(new_user) - 1
        run = pd.Series(np.where(new_user, np.int64(-2**62), prev))
        run = run.groupby(seg).cummax().to_numpy()
        is_p = (df["event_type"] == "purchase").to_numpy()
        ok = is_p & (run > -2**61) & (tus - run <= ATTRIB_WINDOW_US)
        if not ok.any():
            return empty
        # winning click id: max click event_id at (user, run ts)
        clicks = df[is_click]
        best = clicks.groupby(
            [clicks["user_id"],
             clicks["ts"].astype("datetime64[us]").astype("int64")]
        )["event_id"].max()
        key = pd.MultiIndex.from_arrays([uid[ok], run[ok]])
        cid = best.reindex(key).to_numpy()
        return pd.DataFrame(
            {"event_id": df["event_id"].to_numpy()[ok],
             "click_event_id": cid.astype(np.int64),
             "gap_us": (tus[ok] - run[ok]).astype(np.int64)})

    return joins.partitioned_map(ev, ["user_id"], attr,
                                 num_partitions=16,
                                 pre_repartition=False)


_ATTRIBUTION_SQL = f"""
    WITH ev AS (
      SELECT user_id, event_id, ts, event_type,
             epoch_us(ts)::BIGINT AS tus
      FROM events WHERE event_type IN ('click', 'purchase')),
    w AS (
      SELECT *, max(CASE WHEN event_type = 'click' THEN tus END)
               OVER (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING) AS run
      FROM ev),
    p AS (
      SELECT user_id, event_id, tus, run FROM w
      WHERE event_type = 'purchase' AND run IS NOT NULL
        AND tus - run <= {ATTRIB_WINDOW_US}),
    best AS (
      SELECT user_id, tus AS ctus, max(event_id) AS click_event_id
      FROM ev WHERE event_type = 'click' GROUP BY user_id, tus)
    SELECT p.event_id, b.click_event_id,
           (p.tus - p.run)::BIGINT AS gap_us
    FROM p JOIN best b ON b.user_id = p.user_id AND b.ctus = p.run
"""


def q_hist_equalize(sf_dir: str):
    """Per-image histogram equalization (image.HistEqualize): exact
    integer LUT over real decoded pixels, re-encoded PNG + before/
    after contrast. Rows-only (pixel transforms aren't SQL); the LUT
    formula is verified bit-exact against a pure-numpy oracle in
    pytest."""
    from oluray.stages.image import HistEqualize

    images = _synth_images(sf_dir)
    return images.map_batches(
        HistEqualize, batch_format="pyarrow", batch_size=256,
        concurrency=(1, 4),
    ).select_columns(["image_id", "contrast_before", "contrast_after"])


def q_join_size(sf_dir: str):
    """Join-cardinality estimation without the join (sketch.
    join_size_estimate): CMS inner product of orders.o_custkey x
    customer.c_custkey — the planner probe for broadcast-vs-shuffle
    decisions. Rows-only; emits the estimate next to the exact count
    so the driver check records both (pytest asserts the bound)."""
    from oluray.stages import sketch

    orders = _read(sf_dir, "orders", ["o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey"])
    est = sketch.join_size_estimate(orders, "o_custkey", cust,
                                    "c_custkey")
    return pd.DataFrame({"estimate": [est["estimate"]],
                         "depth_rows": [len(est["per_row"])]})


# time-decayed spatial heat: per cell, sum of event values decayed by
# half-life BUCKETS (integer right-shift per elapsed half-life — the
# power-of-2 exponential that stays exact int64, no float drift).
# Reference freshness semantics (newest data dominates a tile) made
# order-independent: each row's decayed contribution is an int, so
# the sum commutes and hash-matches SQL.
DECAY_HALFLIFE_H = 24


def q_decayed_cells(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "ts", "value"])

    def contrib(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = geo.derive_lonlat(eid)
        cell = geo.cell_encode(lon, lat, TILE_RES)
        tus = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = _round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0)
        hrs = tus // 3_600_000_000
        return pa.table({"cell": pa.array(cell),
                         "hrs": pa.array(hrs),
                         "cents": pa.array(cents)})

    rows = ev.map_batches(contrib, batch_format="pyarrow").materialize()
    # the decay anchor (newest hour) is ONE scalar — max over a
    # 1-column stream
    hmax = int(rows.max("hrs"))

    def decayed(t: pa.Table) -> pa.Table:
        age = (hmax - t["hrs"].to_numpy(zero_copy_only=False)
               ) // DECAY_HALFLIFE_H
        # >> 63+ is UB; anything past 62 half-lives is exactly 0
        age = np.minimum(age, 62)
        w = t["cents"].to_numpy(zero_copy_only=False) >> age
        return pa.table({"cell": t["cell"], "w": pa.array(w)})

    def wsum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell", as_index=False)["w"].sum()
        g["w"] = g["w"].astype("int64")
        return g

    return joins.grouped_agg(
        rows.map_batches(decayed, batch_format="pyarrow"), ["cell"],
        wsum, num_partitions=8, combine_fn=wsum, pre_repartition=False,
    )


def _decayed_cells_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    cell = geo.cell_encode_sql(lon, lat, TILE_RES)
    return f"""
    WITH c AS (
      SELECT {cell} AS cell,
             (epoch_us(ts) // 3600000000)::BIGINT AS hrs,
             round(value * 100.0, 0)::BIGINT AS cents
      FROM events),
    m AS (SELECT max(hrs) AS hmax FROM c)
    SELECT cell,
           sum(cents >> LEAST((m.hmax - c.hrs) // {DECAY_HALFLIFE_H},
                              62))::BIGINT AS w
    FROM c CROSS JOIN m GROUP BY cell
    """


# per-group least-squares slope/intercept from EXACT integer moments
# (n, Σx, Σy, Σxy, Σx²) — the same combiner discipline as group_corr;
# the only floats are the two final divisions, identical op order both
# sides, rounded to 1e-9. x = quantity units, y = price cents.
def q_group_linreg(sf_dir: str):
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        x = _round_half_away(df["l_quantity"].to_numpy())
        y = _round_half_away(df["l_extendedprice"].to_numpy() * 100.0)
        g = pd.DataFrame({"f": df["l_returnflag"], "x": x, "y": y,
                          "xy": x * y, "xx": x * x})
        out = g.groupby("f", as_index=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxy=("xy", "sum"), sxx=("xx", "sum"))
        return out

    parts = li.map_batches(moments, batch_format="pandas").to_pandas()
    parts[["n", "sx", "sy", "sxy", "sxx"]] = parts[
        ["n", "sx", "sy", "sxy", "sxx"]].astype(object)
    st = parts.groupby("f", as_index=False).sum()
    rows = []
    for r in st.itertuples():
        n, sx, sy, sxy, sxx = (int(r.n), int(r.sx), int(r.sy),
                               int(r.sxy), int(r.sxx))
        den = n * sxx - sx * sx
        slope = float(n * sxy - sx * sy) / float(den)
        intercept = (float(sy) - slope * float(sx)) / float(n)
        rows.append((r.f, n,
                     int(_round_half_away(np.array([slope * 1e9]))[0]),
                     # 1e-3 cent precision: a 1e9 scale pushes the
                     # scaled intercept past 2^52 where round() is in
                     # ulp territory (observed off-by-1 vs DuckDB)
                     int(_round_half_away(np.array([intercept * 1e3]))[0])))
    return pd.DataFrame(rows, columns=["l_returnflag", "n",
                                       "slope_1e9", "icept_1e3"])


_LINREG_SQL = """
    WITH c AS (
      SELECT l_returnflag AS f,
             round(l_quantity, 0)::BIGINT AS x,
             round(l_extendedprice * 100.0, 0)::BIGINT AS y
      FROM lineitem),
    st AS (
      SELECT f, count(*)::HUGEINT AS n, sum(x)::HUGEINT AS sx,
             sum(y)::HUGEINT AS sy,
             sum(x::HUGEINT * y)::HUGEINT AS sxy,
             sum(x::HUGEINT * x)::HUGEINT AS sxx
      FROM c GROUP BY f)
    SELECT f AS l_returnflag, n::BIGINT AS n,
           round((n * sxy - sx * sy)::DOUBLE
                 / (n * sxx - sx * sx)::DOUBLE * 1e9, 0)::BIGINT
             AS slope_1e9,
           round((sy::DOUBLE - ((n * sxy - sx * sy)::DOUBLE
                                / (n * sxx - sx * sx)::DOUBLE)
                  * sx::DOUBLE) / n::DOUBLE * 1e3, 0)::BIGINT
             AS icept_1e3
    FROM st
"""


# event-type Markov transition matrix: counts of consecutive
# (prev -> next) event types within each user's (ts, event_id)-ordered
# stream, with row-normalized probabilities as scaled ints — the
# sequence-statistics prep for session modeling. One user-hash
# partition sort + shift; the (types x types) matrix is tiny by
# schema.
def q_markov_transitions(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def bigrams(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"prev_type": pd.Series([], dtype="string"),
                 "next_type": pd.Series([], dtype="string"),
                 "cnt": pd.Series([], dtype="int64")})
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        uid = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy()
        same = uid[1:] == uid[:-1]
        g = pd.DataFrame({"prev_type": et[:-1][same],
                          "next_type": et[1:][same]})
        out = g.groupby(["prev_type", "next_type"],
                        as_index=False).size().rename(
            columns={"size": "cnt"})
        out["cnt"] = out["cnt"].astype("int64")
        return out

    partial = joins.partitioned_map(ev, ["user_id"], bigrams,
                                    num_partitions=16,
                                    pre_repartition=False)

    def total(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["prev_type", "next_type"],
                       as_index=False)["cnt"].sum()
        g["cnt"] = g["cnt"].astype("int64")
        tot = g.groupby("prev_type")["cnt"].transform("sum")
        g["p_1e9"] = _round_half_away(
            g["cnt"].to_numpy(np.float64)
            / tot.to_numpy(np.float64) * 1e9)
        return g

    # the pair matrix is (|types| x |types|): one final partition
    return joins.grouped_agg(partial, ["prev_type"], total,
                             num_partitions=1, pre_repartition=False)


_MARKOV_SQL = """
    WITH w AS (
      SELECT event_type AS next_type,
             lag(event_type) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS prev_type
      FROM events),
    c AS (SELECT prev_type, next_type, count(*)::BIGINT AS cnt
          FROM w WHERE prev_type IS NOT NULL
          GROUP BY prev_type, next_type),
    t AS (SELECT prev_type, sum(cnt)::BIGINT AS tot
          FROM c GROUP BY prev_type)
    SELECT c.prev_type, c.next_type, c.cnt,
           round(c.cnt::DOUBLE / t.tot::DOUBLE * 1e9, 0)::BIGINT
             AS p_1e9
    FROM c JOIN t USING (prev_type)
"""


# item-item Jaccard similarity (the co-purchase recommender join):
# |orders containing both| / |orders containing either|, top 100.
# Pair counts come from the basket_pairs shape (per-order vectorized
# pair emission inside an order-hash partition — never all item
# pairs); item order-counts broadcast back onto the pair rows.
def q_item_sim(sf_dir: str):
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    d = joins.distinct(li, ["l_orderkey", "l_partkey"],
                       num_partitions=16)

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        pairs = _pairs_within_groups(df, "l_orderkey", "l_partkey")
        g = pairs.groupby(["pa", "pb"], as_index=False).size().rename(
            columns={"size": "cnt"})
        g["cnt"] = g["cnt"].astype("int64")
        return g

    partial = joins.partitioned_map(d, ["l_orderkey"], emit,
                                    num_partitions=16)

    def psum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["pa", "pb"], as_index=False)["cnt"].sum()
        g["cnt"] = g["cnt"].astype("int64")
        return g

    pairs = joins.grouped_agg(partial, ["pa", "pb"], psum,
                              num_partitions=16, pre_repartition=False)

    def icnt(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_partkey", as_index=False).size().rename(
            columns={"size": "n"})
        g["n"] = g["n"].astype("int64")
        return g

    items = joins.grouped_agg(d, ["l_partkey"], icnt, num_partitions=16,
                              pre_repartition=False).to_pandas()
    nmap = dict(zip(items["l_partkey"], items["n"]))  # |parts| rows
    nref = ray.put(nmap)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        nm = ray.get(nref)
        na = df["pa"].map(nm).to_numpy(np.int64)
        nb = df["pb"].map(nm).to_numpy(np.int64)
        c = df["cnt"].to_numpy(np.int64)
        jac = _round_half_away(
            c.astype(np.float64) / (na + nb - c).astype(np.float64) * 1e9)
        return df.assign(jac_1e9=jac)

    scored = pairs.map_batches(score, batch_format="pandas")
    return scored.sort(["jac_1e9", "pa", "pb"],
                       descending=[True, False, False]).limit(100)


_ITEM_SIM_SQL = """
    WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
    pr AS (
      SELECT a.l_partkey AS pa, b.l_partkey AS pb,
             count(*)::BIGINT AS cnt
      FROM d a JOIN d b ON a.l_orderkey = b.l_orderkey
                       AND a.l_partkey < b.l_partkey
      GROUP BY a.l_partkey, b.l_partkey),
    ic AS (SELECT l_partkey, count(*)::BIGINT AS n FROM d
           GROUP BY l_partkey)
    SELECT pa, pb, cnt,
           round(cnt::DOUBLE / (ia.n + ib.n - cnt)::DOUBLE * 1e9,
                 0)::BIGINT AS jac_1e9
    FROM pr JOIN ic ia ON ia.l_partkey = pr.pa
            JOIN ic ib ON ib.l_partkey = pr.pb
    ORDER BY jac_1e9 DESC, pa, pb LIMIT 100
"""


# map-matching lite: snap every customer point to its nearest ROAD
# SEGMENT (the polyline through the kNN feature points) by clamped-
# projection planar distance — the point-to-segment kernel kNN's
# point-to-point distance can't express. Vectorized over points per
# batch with a loop over the (tiny, broadcast) segment list; the SQL
# twin evaluates the identical projection/clamp/distance expression
# per (point, segment) and picks the same (d2, seg_id) winner.
def _segments() -> list[tuple[int, float, float, float, float]]:
    f = KNN_FEATURES
    return [(i, f[i][1], f[i][2], f[i + 1][1], f[i + 1][2])
            for i in range(len(f) - 1)]


def q_snap_to_segment(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey"])
    pts = _with_points(cust, "c_custkey")
    segs = _segments()

    def snap(t: pa.Table) -> pa.Table:
        px = t["lon"].to_numpy(zero_copy_only=False)
        py = t["lat"].to_numpy(zero_copy_only=False)
        best_d = np.full(len(px), np.iinfo(np.int64).max)
        best_s = np.zeros(len(px), dtype=np.int64)
        for sid, x1, y1, x2, y2 in segs:
            dx, dy = x2 - x1, y2 - y1
            tt = ((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy)
            tc = np.minimum(np.maximum(tt, 0.0), 1.0)
            cx = x1 + tc * dx
            cy = y1 + tc * dy
            d2 = (px - cx) * (px - cx) + (py - cy) * (py - cy)
            # winner chosen in ROUNDED-integer space: a point snapping
            # to the SHARED VERTEX of consecutive segments gets two
            # distances equal up to 1 ulp (x1 + 1.0*(x2-x1) != x2),
            # and cross-engine ulp order is not stable — the rounded
            # tie breaks by seg_id identically on both sides
            r = _round_half_away(d2 * 1e9)
            win = r < best_d  # strict: ties keep the LOWER seg_id
            best_d = np.where(win, r, best_d)
            best_s = np.where(win, sid, best_s)
        return pa.table(
            {"c_custkey": t["c_custkey"],
             "seg_id": pa.array(best_s),
             "d2_1e9": pa.array(best_d)})

    return pts.map_batches(snap, batch_format="pyarrow")


def _snap_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    vals = ", ".join(f"({sid}, {x1!r}, {y1!r}, {x2!r}, {y2!r})"
                     for sid, x1, y1, x2, y2 in _segments())
    t = ("(((p.px - s.x1) * (s.x2 - s.x1) + (p.py - s.y1) * (s.y2 - s.y1))"
         " / ((s.x2 - s.x1) * (s.x2 - s.x1)"
         " + (s.y2 - s.y1) * (s.y2 - s.y1)))")
    tc = f"LEAST(GREATEST({t}, 0.0), 1.0)"
    cx = f"(s.x1 + {tc} * (s.x2 - s.x1))"
    cy = f"(s.y1 + {tc} * (s.y2 - s.y1))"
    d2 = (f"((p.px - {cx}) * (p.px - {cx})"
          f" + (p.py - {cy}) * (p.py - {cy}))")
    return f"""
    WITH p AS (SELECT c_custkey, {lon} AS px, {lat} AS py FROM customer),
    sc AS (
      SELECT p.c_custkey, s.seg_id,
             round({d2} * 1e9, 0)::BIGINT AS d2_1e9,
             row_number() OVER (PARTITION BY p.c_custkey
                                ORDER BY round({d2} * 1e9, 0)::BIGINT ASC,
                                         s.seg_id ASC) AS rn
      FROM p CROSS JOIN (VALUES {vals}) AS s(seg_id, x1, y1, x2, y2))
    SELECT c_custkey, seg_id, d2_1e9
    FROM sc WHERE rn = 1
    """


# mobility flow field: for every consecutive same-user ping pair, the
# displacement vector is credited to the ORIGIN cell; per cell the
# exact integer sums (1e-6 deg units) + count give the mean flow — the
# raster vector field a traffic/tide map renders. Window shift per
# user partition, integer-only aggregation.
def q_flow_field(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def disp(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2:
            return pd.DataFrame(
                {"cell": pd.Series([], dtype="int64"),
                 "n": pd.Series([], dtype="int64"),
                 "sdlon_1e6": pd.Series([], dtype="int64"),
                 "sdlat_1e6": pd.Series([], dtype="int64")})
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        lon, lat = geo.derive_lonlat(df["event_id"].to_numpy(np.int64))
        uid = df["user_id"].to_numpy()
        same = uid[1:] == uid[:-1]
        cell = geo.cell_encode(lon[:-1][same], lat[:-1][same], TILE_RES)
        dlon = _round_half_away((lon[1:][same] - lon[:-1][same]) * 1e6)
        dlat = _round_half_away((lat[1:][same] - lat[:-1][same]) * 1e6)
        g = pd.DataFrame({"cell": cell, "dlon": dlon, "dlat": dlat})
        out = g.groupby("cell", as_index=False).agg(
            n=("dlon", "size"), sdlon_1e6=("dlon", "sum"),
            sdlat_1e6=("dlat", "sum"))
        for c in ("n", "sdlon_1e6", "sdlat_1e6"):
            out[c] = out[c].astype("int64")
        return out

    partial = joins.partitioned_map(ev, ["user_id"], disp,
                                    num_partitions=16,
                                    pre_repartition=False)

    def csum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell", as_index=False)[
            ["n", "sdlon_1e6", "sdlat_1e6"]].sum()
        for c in ("n", "sdlon_1e6", "sdlat_1e6"):
            g[c] = g[c].astype("int64")
        return g

    return joins.grouped_agg(partial, ["cell"], csum, num_partitions=8,
                             pre_repartition=False)


def _flow_field_sql() -> str:
    lon0, lat0 = geo.derive_lonlat_sql("p_eid")
    lon1, lat1 = geo.derive_lonlat_sql("event_id")
    cell = geo.cell_encode_sql(lon0, lat0, TILE_RES)
    return f"""
    WITH w AS (
      SELECT user_id, event_id,
             lag(event_id) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS p_eid
      FROM events),
    seg AS (SELECT p_eid, event_id FROM w WHERE p_eid IS NOT NULL)
    SELECT {cell} AS cell, count(*)::BIGINT AS n,
           sum(round((({lon1}) - ({lon0})) * 1e6, 0)::BIGINT)::BIGINT
             AS sdlon_1e6,
           sum(round((({lat1}) - ({lat0})) * 1e6, 0)::BIGINT)::BIGINT
             AS sdlat_1e6
    FROM seg GROUP BY 1
    """


# sequence mining: top-50 event-type trigram paths across all user
# streams — the 3-step generalization of the Markov matrix (what
# session models train on). Double-shift inside one user partition;
# paths counted as integers.
def q_session_paths(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def tri(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 3:
            return pd.DataFrame(
                {"t1": pd.Series([], dtype="string"),
                 "t2": pd.Series([], dtype="string"),
                 "t3": pd.Series([], dtype="string"),
                 "cnt": pd.Series([], dtype="int64")})
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        uid = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy()
        same = (uid[2:] == uid[1:-1]) & (uid[1:-1] == uid[:-2])
        g = pd.DataFrame({"t1": et[:-2][same], "t2": et[1:-1][same],
                          "t3": et[2:][same]})
        out = g.groupby(["t1", "t2", "t3"], as_index=False).size(
        ).rename(columns={"size": "cnt"})
        out["cnt"] = out["cnt"].astype("int64")
        return out

    partial = joins.partitioned_map(ev, ["user_id"], tri,
                                    num_partitions=16,
                                    pre_repartition=False)

    def total(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["t1", "t2", "t3"], as_index=False)["cnt"].sum()
        g["cnt"] = g["cnt"].astype("int64")
        return g

    counts = joins.grouped_agg(partial, ["t1", "t2", "t3"], total,
                               num_partitions=8, pre_repartition=False)
    return counts.sort(["cnt", "t1", "t2", "t3"],
                       descending=[True, False, False, False]).limit(50)


_SESSION_PATHS_SQL = """
    WITH w AS (
      SELECT event_type AS t3,
             lag(event_type, 1) OVER win AS t2,
             lag(event_type, 2) OVER win AS t1
      FROM events
      WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id))
    SELECT t1, t2, t3, count(*)::BIGINT AS cnt
    FROM w WHERE t1 IS NOT NULL
    GROUP BY t1, t2, t3
    ORDER BY cnt DESC, t1, t2, t3 LIMIT 50
"""


# predicate pushdown at the READ: the shipdate range filter rides
# into `read_parquet` as a pyarrow dataset expression, so non-matching
# row groups are pruned by their parquet min/max stats BEFORE any
# block reaches the object store — the "prune at the read" discipline
# for time-sliced scans of a date-partitioned 100 TB table. The
# revenue rollup after it is the usual integer-cents combiner.
PUSHDOWN_LO = "1995-01-01"
PUSHDOWN_HI = "1995-03-31"


def q_pushdown_scan(sf_dir: str):
    import pyarrow.dataset as pads

    lo = pd.Timestamp(PUSHDOWN_LO)
    hi = pd.Timestamp(PUSHDOWN_HI + " 23:59:59.999999")
    expr = (pads.field("l_shipdate") >= pa.scalar(lo)) & (
        pads.field("l_shipdate") <= pa.scalar(hi))
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_shipdate"],
        filter=expr,
    )

    def rev(df: pd.DataFrame) -> pd.DataFrame:
        cents = _round_half_away(df["l_extendedprice"].to_numpy() * 100.0)
        g = pd.DataFrame({"f": df["l_returnflag"], "c": cents}).groupby(
            "f", as_index=False).agg(n=("c", "size"), rev_cents=("c", "sum"))
        g["n"] = g["n"].astype("int64")
        g["rev_cents"] = g["rev_cents"].astype("int64")
        return g

    def total(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("f", as_index=False)[["n", "rev_cents"]].sum()
        g["n"] = g["n"].astype("int64")
        g["rev_cents"] = g["rev_cents"].astype("int64")
        return g

    out = joins.grouped_agg(
        ds.map_batches(rev, batch_format="pandas"), ["f"], total,
        num_partitions=4, pre_repartition=False,
    )

    def ren(t: pa.Table) -> pa.Table:
        return t.rename_columns(["l_returnflag", "n", "rev_cents"])

    return out.map_batches(ren, batch_format="pyarrow")


_PUSHDOWN_SQL = f"""
    SELECT l_returnflag, count(*)::BIGINT AS n,
           sum(round(l_extendedprice * 100.0, 0)::BIGINT)::BIGINT
             AS rev_cents
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '{PUSHDOWN_LO}'
      AND l_shipdate <= TIMESTAMP '{PUSHDOWN_HI} 23:59:59.999999'
    GROUP BY l_returnflag
"""


# flow direction rose: per (origin cell, octant) displacement counts
# — the wind-rose rendering of `flow_field`. The octant comes from
# PURE INTEGER comparisons on the 1e6-scaled displacement (signs +
# |dx| vs |dy|), NOT atan2 — libm atan2 is not correctly-rounded
# everywhere, so a bucket-boundary ulp could flip engines; integer
# logic cannot. Octants 0..7 CCW from East; zero-displacement pairs
# are dropped.
def q_flow_rose(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def rose(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2:
            return pd.DataFrame(
                {"cell": pd.Series([], dtype="int64"),
                 "octant": pd.Series([], dtype="int64"),
                 "n": pd.Series([], dtype="int64")})
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        lon, lat = geo.derive_lonlat(df["event_id"].to_numpy(np.int64))
        uid = df["user_id"].to_numpy()
        same = uid[1:] == uid[:-1]
        cell = geo.cell_encode(lon[:-1][same], lat[:-1][same], TILE_RES)
        dx = _round_half_away((lon[1:][same] - lon[:-1][same]) * 1e6)
        dy = _round_half_away((lat[1:][same] - lat[:-1][same]) * 1e6)
        nz = (dx != 0) | (dy != 0)
        cell, dx, dy = cell[nz], dx[nz], dy[nz]
        ax, ay = np.abs(dx), np.abs(dy)
        # boundary convention (ties to the LOWER octant index, E/N/W/S
        # axes to the adjacent CCW-start octant): mirrored in SQL
        octant = np.where(
            dy >= 0,
            np.where(dx > 0,
                     np.where(ay <= ax, 0, 1),
                     np.where(ax < ay, 2, 3)),
            np.where(dx < 0,
                     np.where(ay <= ax, 4, 5),
                     np.where(ax < ay, 6, 7)),
        ).astype(np.int64)
        g = pd.DataFrame({"cell": cell, "octant": octant})
        out = g.groupby(["cell", "octant"], as_index=False).size().rename(
            columns={"size": "n"})
        out["n"] = out["n"].astype("int64")
        return out

    partial = joins.partitioned_map(ev, ["user_id"], rose,
                                    num_partitions=16,
                                    pre_repartition=False)

    def csum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["cell", "octant"], as_index=False)["n"].sum()
        g["n"] = g["n"].astype("int64")
        return g

    return joins.grouped_agg(partial, ["cell", "octant"], csum,
                             num_partitions=8, pre_repartition=False)


def _flow_rose_sql() -> str:
    lon0, lat0 = geo.derive_lonlat_sql("p_eid")
    lon1, lat1 = geo.derive_lonlat_sql("event_id")
    cell = geo.cell_encode_sql(lon0, lat0, TILE_RES)
    return f"""
    WITH w AS (
      SELECT user_id, event_id,
             lag(event_id) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS p_eid
      FROM events),
    seg AS (
      SELECT {cell} AS cell,
             round((({lon1}) - ({lon0})) * 1e6, 0)::BIGINT AS dx,
             round((({lat1}) - ({lat0})) * 1e6, 0)::BIGINT AS dy
      FROM w WHERE p_eid IS NOT NULL),
    oc AS (
      SELECT cell,
             CASE WHEN dy >= 0 THEN
               CASE WHEN dx > 0 THEN
                 CASE WHEN abs(dy) <= abs(dx) THEN 0 ELSE 1 END
               ELSE
                 CASE WHEN abs(dx) < abs(dy) THEN 2 ELSE 3 END
               END
             ELSE
               CASE WHEN dx < 0 THEN
                 CASE WHEN abs(dy) <= abs(dx) THEN 4 ELSE 5 END
               ELSE
                 CASE WHEN abs(dx) < abs(dy) THEN 6 ELSE 7 END
               END
             END AS octant
      FROM seg WHERE dx <> 0 OR dy <> 0)
    SELECT cell, octant::BIGINT AS octant, count(*)::BIGINT AS n
    FROM oc GROUP BY cell, octant
    """


# radius of gyration per user — THE standard mobility-analytics
# statistic (how far a user roams around their centroid). Exact-moment
# form: rog^2 = (n*(Sxx+Syy) - Sx^2 - Sy^2) / n^2 over 1e-6-deg
# integer coordinates, so the only float ops are one sqrt and one
# divide, identical both sides. The squared-coordinate sums exceed
# int64 — per-partition pandas aggregates run in OBJECT dtype (Python
# bigints), SQL mirrors with HUGEINT; each user's rows co-locate in
# one hash partition, nothing reaches the driver.
def q_radius_gyration(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_id", "user_id"])

    def rog(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": pd.Series([], dtype="int64"),
                 "n": pd.Series([], dtype="int64"),
                 "rog_1e6": pd.Series([], dtype="int64")})
        lon, lat = geo.derive_lonlat(df["event_id"].to_numpy(np.int64))
        x = _round_half_away(lon * 1e6).astype(object)
        y = _round_half_away(lat * 1e6).astype(object)
        g = pd.DataFrame({"u": df["user_id"], "x": x, "y": y,
                          "xx": x * x, "yy": y * y})
        st = g.groupby("u", as_index=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxx=("xx", "sum"), syy=("yy", "sum"))
        out_rows = []
        for r in st.itertuples():
            n = int(r.n)
            num = n * (int(r.sxx) + int(r.syy)) \
                - int(r.sx) ** 2 - int(r.sy) ** 2
            rog_v = float(np.sqrt(float(num))) / float(n)
            out_rows.append((int(r.u), n,
                             int(_round_half_away(np.array([rog_v]))[0])))
        return pd.DataFrame(out_rows,
                            columns=["user_id", "n", "rog_1e6"])

    return joins.partitioned_map(ev, ["user_id"], rog,
                                 num_partitions=16,
                                 pre_repartition=False)


def _radius_gyration_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    return f"""
    WITH p AS (
      SELECT user_id,
             round(({lon}) * 1e6, 0)::BIGINT AS x,
             round(({lat}) * 1e6, 0)::BIGINT AS y
      FROM events),
    st AS (
      SELECT user_id, count(*)::HUGEINT AS n,
             sum(x)::HUGEINT AS sx, sum(y)::HUGEINT AS sy,
             sum(x::HUGEINT * x)::HUGEINT AS sxx,
             sum(y::HUGEINT * y)::HUGEINT AS syy
      FROM p GROUP BY user_id)
    SELECT user_id, n::BIGINT AS n,
           round(sqrt((n * (sxx + syy) - sx * sx - sy * sy)::DOUBLE)
                 / n::DOUBLE, 0)::BIGINT AS rog_1e6
    FROM st
    """


# r4 wave: the persistent reverse-reference index + store point reads
# exercised through the catalog, and IDW interpolation (exact-integer
# weights so the oracle hashes bit-identically).


def q_ref_index_owners(sf_dir: str):
    """`state.refindex.RefIndex` end-to-end: 'ways' derived from
    lineitem (way id = l_orderkey, one member node ref l_partkey*2+1
    per item row), index built on disk, then the J1 reverse lookup —
    which ways reference a modified node — answered from the index's
    PRUNED buckets with in-change-file exclusions. Oracle = the
    equivalent reverse-reference SQL."""
    import shutil
    import tempfile

    from oluray.sources.fixtures import RELATIONS_SCHEMA
    from oluray.state.refindex import RefIndex

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def as_ways(t: pa.Table) -> pa.Table:
        refs = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64) * 2 + 1
        offsets = pa.array(np.arange(t.num_rows + 1, dtype=np.int32))
        return pa.table(
            {
                "id": t["l_orderkey"].cast(pa.int64()),
                "nd_refs": pa.ListArray.from_arrays(offsets, pa.array(refs)),
            }
        )

    ways = li.map_batches(as_ways, batch_format="pyarrow")
    empty_rels = ray.data.from_arrow(
        pa.schema([RELATIONS_SCHEMA.field("id"),
                   RELATIONS_SCHEMA.field("members")]).empty_table()
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_size"])
    modified = closure.distinct_ids(
        part.map_batches(
            lambda t: t.filter(pc.greater(t["p_size"], 47)),
            batch_format="pyarrow",
        ),
        "p_partkey",
    ) * 2 + 1
    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def cf(t: pa.Table) -> pa.Table:
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ok % 11 == 0))

    excl = closure.distinct_ids(
        orders.map_batches(cf, batch_format="pyarrow"), "o_orderkey"
    )
    root = tempfile.mkdtemp(prefix="oluray_refidx_q_")
    try:
        idx = RefIndex.create(root, ways, empty_rels, n_buckets=32)
        owners = idx.owners_of(modified, ("node",), "way", exclude=excl)
        # broadcast-sized result: safe to drop the on-disk index before
        # returning (the KeySet holds a driver array, not file readers)
        out = pa.table({"way_id": pa.array(owners.to_array(), pa.int64())})
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return ray.data.from_arrow(out)


def q_store_lookup(sf_dir: str):
    """`SnapshotStore.lookup` point reads through the catalog: the
    customer table bucketed by id on disk; a derived key set is read
    back touching ONLY the buckets the keys hash to. Oracle =
    WHERE-IN."""
    import shutil
    import tempfile

    from oluray.state.snapshot import SnapshotStore

    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal", "c_nationkey"])

    def ren(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": t["c_custkey"].cast(pa.int64()),
                "bal_cents": pa.array(_round_half_away(
                    t["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0
                )),
                "c_nationkey": t["c_nationkey"].cast(pa.int64()),
            }
        )

    keys = closure.distinct_ids(
        cust.map_batches(
            lambda t: t.filter(pa.array(
                t["c_custkey"].to_numpy(zero_copy_only=False) % 13 == 0
            )),
            batch_format="pyarrow",
        ),
        "c_custkey",
    )
    root = tempfile.mkdtemp(prefix="oluray_store_q_")
    try:
        store = SnapshotStore.create(
            root, {"customers": cust.map_batches(ren, batch_format="pyarrow")},
            n_buckets=16,
        )
        hits = store.lookup("customers", keys).materialize()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    def back(t: pa.Table) -> pa.Table:
        return t.rename_columns(["c_custkey", "bal_cents", "c_nationkey"])

    return hits.map_batches(back, batch_format="pyarrow")


_IDW_Q = 64


def q_idw_interpolate(sf_dir: str):
    """Inverse-distance-weighted interpolation of the events `value`
    field at 64 derived query points — the classic geospatial gridding
    primitive, kept EXACT: distances are L1 in integer microdegrees,
    weights are integer floor(1e6 / (1 + d//1000)), and the output is
    the exact fraction (sum_w, sum_wv) per query point so the
    distributed sum is associative and the oracle hashes
    bit-identically (the float IDW value is sum_wv/sum_w, one division
    the caller does). Engine shape: the 64 query points ride as driver
    constants into a vectorized outer-difference per batch (events x
    queries), partial sums per block, then a 64-key grouped sum."""
    qk = (np.arange(_IDW_Q, dtype=np.int64) + 1) * 1009
    qlon, qlat = geo.derive_lonlat(qk)
    qx = _round_half_away(qlon * 1e7)
    qy = _round_half_away(qlat * 1e7)

    ev = _read(sf_dir, "events", ["event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        lon, lat = geo.derive_lonlat(eid)
        x = _round_half_away(lon * 1e7)
        y = _round_half_away(lat * 1e7)
        v = _round_half_away(t["value"].to_numpy(zero_copy_only=False) * 100.0)
        d = (np.abs(x[:, None] - qx[None, :])
             + np.abs(y[:, None] - qy[None, :]))          # (n, Q) int64
        w = 1_000_000 // (1 + d // 1000)                   # exact ints
        return pa.table(
            {
                "qk": pa.array(qk),
                "sum_w": pa.array(w.sum(axis=0)),
                "sum_wv": pa.array((w * v[:, None]).sum(axis=0)),
            }
        )

    parts = ev.map_batches(partial, batch_format="pyarrow", batch_size=8192)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("qk", as_index=False).agg(
            sum_w=("sum_w", "sum"), sum_wv=("sum_wv", "sum")
        )
        return g

    return joins.grouped_agg(parts, ["qk"], combine, num_partitions=4,
                             combine_fn=combine, pre_repartition=False)


def _idw_sql() -> str:
    elon, elat = geo.derive_lonlat_sql("event_id")
    qlon, qlat = geo.derive_lonlat_sql("qk")
    return f"""
    WITH q AS (
      SELECT (k + 1) * 1009 AS qk,
             round(({qlon}) * 10000000.0)::BIGINT AS qx,
             round(({qlat}) * 10000000.0)::BIGINT AS qy
      FROM (SELECT unnest(range({_IDW_Q})) AS k)
    ),
    e AS (
      SELECT round(({elon}) * 10000000.0)::BIGINT AS x,
             round(({elat}) * 10000000.0)::BIGINT AS y,
             round(value * 100.0)::BIGINT AS v
      FROM events
    )
    SELECT qk,
           sum(1000000 // (1 + (abs(x - qx) + abs(y - qy)) // 1000))::BIGINT
               AS sum_w,
           sum((1000000 // (1 + (abs(x - qx) + abs(y - qy)) // 1000)) * v
               )::BIGINT AS sum_wv
    FROM q CROSS JOIN e
    GROUP BY qk
    """


# ---------------------------------------------------------------------------
# r4 wave 2: bloom-prefiltered semi-join, spatial autocorrelation,
# stay-run detection, bipartite k-core, image x tile color rollup
# ---------------------------------------------------------------------------


KCORE_K = 10


def q_kcore(sf_dir: str):
    """Bipartite k-core of the supplier—part graph (distinct lineitem
    edges): iteratively peel nodes with degree < k on EITHER side
    until a fixed point — the graph-sparsification primitive behind
    community mining and spam filtering. Each round is two
    aggregate-bounded degree counts plus two distributed anti-joins
    on the edge set (the driver sees peel COUNTS only, never ids);
    every iterative materialize carries the block-count clamp
    (`repartition(np)`) that keeps Ray's groupby block multiplication
    from compounding across rounds (see joins.connected_components).
    No SQL oracle — iterated deletion is not expressible as a
    monotone recursive CTE; brute-force-verified in pytest."""
    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])
    np_ = 8
    edges = joins.distinct(li, ["l_suppkey", "l_partkey"],
                           num_partitions=np_).repartition(np_).materialize()

    def _degs(es: ray.data.Dataset, col: str) -> ray.data.Dataset:
        def cnt(df: pd.DataFrame, _c=col) -> pd.DataFrame:
            g = df.groupby(_c, as_index=False).size().rename(
                columns={"size": "deg"})
            g["deg"] = g["deg"].astype("int64")
            return g

        return joins.grouped_agg(es, [col], cnt, num_partitions=np_,
                                 pre_repartition=False)

    while True:
        bad_s = _degs(edges, "l_suppkey").filter(
            lambda r: r["deg"] < KCORE_K)
        bad_p = _degs(edges, "l_partkey").filter(
            lambda r: r["deg"] < KCORE_K)
        ns, np_bad = bad_s.count(), bad_p.count()
        if ns + np_bad == 0:
            break
        # a side with nothing to peel yields an EMPTY (schema-less)
        # key dataset — skip its anti-join rather than hint a schema
        if ns:
            edges = joins.semi_join(edges, bad_s, "l_suppkey", anti=True,
                                    num_partitions=np_)
        if np_bad:
            edges = joins.semi_join(edges, bad_p, "l_partkey", anti=True,
                                    num_partitions=np_)
        edges = edges.repartition(np_).materialize()
        if edges.count() == 0:
            return pd.DataFrame({"side": pd.array([], dtype="str"),
                                 "node": pd.array([], dtype="int64"),
                                 "deg": pd.array([], dtype="int64")})

    def side(es: ray.data.Dataset, col: str, tag: str) -> ray.data.Dataset:
        def name(df: pd.DataFrame, _c=col, _t=tag) -> pd.DataFrame:
            return pd.DataFrame({"side": _t,
                                 "node": df[_c].astype("int64"),
                                 "deg": df["deg"].astype("int64")})

        return _degs(es, col).map_batches(name, batch_format="pandas")

    return side(edges, "l_suppkey", "supp").union(
        side(edges, "l_partkey", "part"))


TILE_COLOR_RES = 4


def q_tile_color(sf_dir: str):
    """Image x geo rollup: dominant color channel per map tile. Each
    synthesized image is geolocated by its doc-id-derived point (the
    coarse TILE_COLOR_RES grid); per batch the decoded pixels
    reduce to exact per-channel uint64 sums -> the image's dominant
    channel (argmax, tie -> lowest index); the (tile, channel) counts
    then take ONE aggregate-bounded combiner shuffle — bytes never
    leave the decode task, the only exchange rows are (tile, channel,
    count). Rows-only (pixel decode is not SQL); brute-verified in
    pytest against a pure-Python re-derivation."""
    from oluray.functions import imagecodec

    images = _synth_images(sf_dir)

    def part(t: pa.Table) -> pa.Table:
        ids = np.array([int(s[3:]) for s in t["image_id"].to_pylist()],
                       dtype=np.int64)
        lon, lat = geo.derive_lonlat(ids)
        tile = geo.cell_encode(lon, lat, TILE_COLOR_RES)
        fmts = t["fmt"].to_pylist()
        dom = np.empty(len(ids), dtype=np.int64)
        for j, (b, f) in enumerate(zip(t["bytes"].to_pylist(), fmts)):
            px = imagecodec.decode(b, f)
            sums = px.reshape(-1, px.shape[-1]).sum(axis=0,
                                                    dtype=np.uint64)
            dom[j] = int(np.argmax(sums))
        g = (pd.DataFrame({"tile": tile, "dom": dom})
             .groupby(["tile", "dom"], as_index=False).size()
             .rename(columns={"size": "n"}))
        g["n"] = g["n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = images.map_batches(part, batch_format="pyarrow",
                                  batch_size=128)

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["tile", "dom"], as_index=False)["n"].sum()
        tot = g.groupby("tile", as_index=False)["n"].sum().rename(
            columns={"n": "n_images"})
        g = g.sort_values(["tile", "n", "dom"],
                          ascending=[True, False, True], kind="mergesort")
        w = g.drop_duplicates("tile", keep="first").rename(
            columns={"dom": "dom_channel", "n": "n_dom"})
        out = w.merge(tot, on="tile")
        for c in ("tile", "dom_channel", "n_dom", "n_images"):
            out[c] = out[c].astype("int64")
        return out[["tile", "dom_channel", "n_dom", "n_images"]]

    return joins.grouped_agg(partials, ["tile"], fin, num_partitions=8,
                             pre_repartition=False)


# ---------------------------------------------------------------------------
# r4 wave 3: relational division, hop-bounded SSSP, incremental
# aggregate maintenance (IVM), cross-modal near-dup
# ---------------------------------------------------------------------------


SSSP_SRC_MOD = 10       # suppliers with key % 10 == 0 are sources
SSSP_PART_OFF = 10_000_000  # part node ids live above this offset
SSSP_ROUNDS = 4         # hop bound — fixed so Ray == unrolled SQL


def q_sssp(sf_dir: str):
    """Hop-bounded single-source-set shortest paths (Bellman-Ford,
    integer weights) over the bipartite supplier—part graph: edge
    weight = min rounded quantity across that edge's lineitems;
    sources = every SSSP_SRC_MOD-th supplier at distance 0; exactly
    SSSP_ROUNDS relaxation rounds, so the result equals the oracle's
    unrolled min-plus CTE chain. Scale shape: FRONTIER relaxation —
    each round joins only the nodes whose distance improved last
    round against the edge table (the `bfs_hops` discipline with
    weights), the new distance table is one aggregate-bounded
    grouped min, and every per-round materialize carries the
    block-count clamp. The driver sees frontier COUNTS only."""
    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey", "l_quantity"])

    def ew(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"s": pd.array([], dtype="int64"),
                                 "p": pd.array([], dtype="int64"),
                                 "w": pd.array([], dtype="int64")})
        g = (pd.DataFrame({"s": df["l_suppkey"].to_numpy(np.int64),
                           "p": df["l_partkey"].to_numpy(np.int64),
                           "w": _round_half_away(
                               df["l_quantity"].to_numpy())})
             .groupby(["s", "p"], as_index=False)["w"].min())
        for c in g.columns:
            g[c] = g[c].astype("int64")
        return g

    def emin(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["s", "p"], as_index=False)["w"].min()
        for c in g.columns:
            g[c] = g[c].astype("int64")
        return g

    e0 = joins.grouped_agg(li, ["s", "p"], emin, num_partitions=8,
                           combine_fn=ew)

    def sym(df: pd.DataFrame) -> pd.DataFrame:
        s = df["s"].to_numpy(np.int64)
        p = df["p"].to_numpy(np.int64) + SSSP_PART_OFF
        w = df["w"].to_numpy(np.int64)
        return pd.DataFrame({"src": np.concatenate([s, p]),
                             "dst": np.concatenate([p, s]),
                             "w": np.concatenate([w, w])})

    edges = (e0.map_batches(sym, batch_format="pandas")
             .repartition(8).materialize())

    sup = _read(sf_dir, "supplier", ["s_suppkey"])

    def src0(df: pd.DataFrame) -> pd.DataFrame:
        # pandas out: every later dist lineage (grouped_agg) is
        # pandas-blocked, and union() requires homogeneous block types
        k = df["s_suppkey"].to_numpy(np.int64)
        k = k[k % SSSP_SRC_MOD == 0]
        return pd.DataFrame({"node": k.astype("int64"),
                             "d": np.zeros(len(k), np.int64)})

    dist = (sup.map_batches(src0, batch_format="pandas")
            .repartition(4).materialize())
    frontier = dist

    def relax(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": df["dst"].to_numpy(np.int64),
            "d": df["d"].to_numpy(np.int64) + df["w"].to_numpy(np.int64)})

    def dmin(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False)["d"].min()
        g["node"] = g["node"].astype("int64")
        g["d"] = g["d"].astype("int64")
        return g

    def improved(df: pd.DataFrame) -> pd.DataFrame:
        m = df["d_old"].isna() | (df["d"] < df["d_old"])
        out = df.loc[m, ["node", "d"]].copy()
        out["node"] = out["node"].astype("int64")
        out["d"] = out["d"].astype("int64")
        return out

    for _ in range(SSSP_ROUNDS):
        if frontier.count() == 0:
            break
        cand = joins.hash_join(frontier, edges, on="node", right_on="src",
                               num_partitions=8)
        new = joins.grouped_agg(
            dist.union(cand.map_batches(relax, batch_format="pandas")),
            ["node"], dmin, num_partitions=8, combine_fn=dmin,
        ).repartition(8).materialize()
        j = joins.hash_join(new, dist, on="node", how="left",
                            suffix="_old", num_partitions=8)
        frontier = (j.map_batches(improved, batch_format="pandas")
                    .repartition(4).materialize())
        dist = new
    return dist


def _sssp_sql() -> str:
    sql = f"""
    WITH e0 AS (SELECT l_suppkey AS s, l_partkey AS p,
                       min(round(l_quantity, 0)::BIGINT) AS w
                FROM lineitem GROUP BY s, p),
    e AS (SELECT s AS src, p + {SSSP_PART_OFF} AS dst, w FROM e0
          UNION ALL SELECT p + {SSSP_PART_OFF} AS src, s AS dst, w FROM e0),
    d0 AS (SELECT s_suppkey::BIGINT AS node, 0::BIGINT AS d
           FROM supplier WHERE s_suppkey % {SSSP_SRC_MOD} = 0)"""
    for k in range(1, SSSP_ROUNDS + 1):
        sql += f""",
    d{k} AS (SELECT node, min(d)::BIGINT AS d FROM (
        SELECT node, d FROM d{k - 1}
        UNION ALL
        SELECT e.dst AS node, d{k - 1}.d + e.w AS d
        FROM d{k - 1} JOIN e ON e.src = d{k - 1}.node) GROUP BY node)"""
    return sql + f"\n    SELECT node, d FROM d{SSSP_ROUNDS}"


IVM_RES = 6


def q_ivm_cell_counts(sf_dir: str):
    """Incremental view maintenance of a grouped count: a per-cell
    event-count MV is first materialized from the BASE slice
    (event_id % 8 != 0), then maintained by applying a signed delta —
    inserts (+1, the % 8 == 0 slice) and retractions (-1, the
    % 16 == 1 slice, a subset of base) — through ONE aggregate-bounded
    combiner merge, dropping counts that reach zero. This is the
    engine's diff-proportional update semantics (the SnapshotStore /
    RefIndex contract) applied to an AGGREGATE: in production the
    base agg is the stored MV and only delta-proportional rows move;
    the oracle is the full recompute the maintained view must equal
    (all events except the retracted slice)."""
    ev = _read(sf_dir, "events", ["event_id"])
    pts = spatial.add_cell_column(_with_points(ev, "event_id"), IVM_RES)

    def base_partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["event_id"].to_numpy(np.int64)
        c = df["cell"].to_numpy(np.int64)[ids % 8 != 0]
        u, n = np.unique(c, return_counts=True)
        return pd.DataFrame({"cell": u.astype("int64"),
                             "n": n.astype("int64")})

    def delta_partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["event_id"].to_numpy(np.int64)
        c = df["cell"].to_numpy(np.int64)
        ui, ni = np.unique(c[ids % 8 == 0], return_counts=True)
        ud, nd = np.unique(c[ids % 16 == 1], return_counts=True)
        return pd.DataFrame(
            {"cell": np.concatenate([ui, ud]).astype("int64"),
             "n": np.concatenate([ni, -nd]).astype("int64")})

    def nsum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cell", as_index=False)["n"].sum()
        g = g[g["n"] > 0]
        g["cell"] = g["cell"].astype("int64")
        g["n"] = g["n"].astype("int64")
        return g

    base_mv = joins.grouped_agg(pts, ["cell"], nsum, num_partitions=8,
                                combine_fn=base_partial).materialize()
    deltas = pts.map_batches(delta_partial, batch_format="pandas")
    return joins.grouped_agg(base_mv.union(deltas), ["cell"], nsum,
                             num_partitions=8)


def _ivm_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    cell = geo.cell_encode_sql(lon, lat, IVM_RES)
    return f"""
    SELECT {cell} AS cell, count(*)::BIGINT AS n
    FROM events WHERE event_id % 16 <> 1 GROUP BY cell
    """


CM_JACC_E6 = 100_000  # caption word-bigram Jaccard floor (>= 1 shared)


def q_cross_modal_dup(sf_dir: str):
    """Cross-modal near-duplicate pairs: BOTH modalities must agree —
    image phash within Hamming 2 (banded candidate generation, bytes
    never move) AND caption word-bigram Jaccard >= threshold. The
    caption check runs only on the image-side candidates (two hash
    joins ship captions to the pair rows), so text comparison cost is
    bounded by the image duplicate mass, not the corpus — the
    standard agreement filter for (image, caption) training-pair
    curation. The per-pair set intersection is a Python loop over
    CANDIDATE pairs only (vanishing fraction of the corpus). Rows-
    only (phash is not SQL); brute-verified in pytest."""
    from oluray.sources import fixtures

    pairs = q_phash_near_dup(sf_dir)
    docs = _read(sf_dir, "documents", ["doc_id"])

    def caps(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"doc_id": pa.array(ids.astype("int64")),
             "caption": pa.array([fixtures.caption_for(int(i), 42)
                                  for i in ids])})

    capds = docs.map_batches(caps, batch_format="pyarrow", batch_size=1024)
    j1 = joins.hash_join(pairs, capds, on="image_a", right_on="doc_id",
                         num_partitions=16)
    j2 = joins.hash_join(j1, capds, on="image_b", right_on="doc_id",
                         suffix="_b", num_partitions=16)

    def agree(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "image_a": pd.array([], dtype="int64"),
                "image_b": pd.array([], dtype="int64"),
                "hamming": pd.array([], dtype="int64"),
                "jacc_e6": pd.array([], dtype="int64")})
        je6 = np.empty(len(df), dtype=np.int64)
        for i, (ca, cb) in enumerate(zip(df["caption"], df["caption_b"])):
            ta, tb = ca.split(), cb.split()
            sa = set(zip(ta, ta[1:]))
            sb = set(zip(tb, tb[1:]))
            union = len(sa | sb)
            je6[i] = (len(sa & sb) * 1_000_000) // union if union else 0
        out = df.loc[je6 >= CM_JACC_E6,
                     ["image_a", "image_b", "hamming"]].copy()
        out["jacc_e6"] = je6[je6 >= CM_JACC_E6]
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    return j2.map_batches(agree, batch_format="pandas")


def _change_polys_table() -> pa.Table:
    return pa.Table.from_pylist(
        [
            {
                "poly_id": pid,
                "op": "modify",
                "ring": [{"lon": x, "lat": y} for x, y in zip(rx, ry)],
            }
            for pid, (rx, ry) in PIP_POLYS.items()
        ]
    )


def q_zonal_stats(sf_dir: str):
    """Zonal statistics — the aggregate layer of the raster↔vector
    north rule: per changeset polygon, count + exact cents-sum of the
    event VALUES it contains. `spatial.pip_join` (cell-cover
    prefilter + exact ray-casting, `carry_cols` riding the measure
    through the stage) emits (event, poly) hits; ONE aggregate-
    bounded combiner then reduces to |polys| rows. The oracle shares
    the ray-casting arithmetic literal-for-literal
    (`geo.pip_sql_expr`), so containment verdicts are bit-identical."""
    ev = _read(sf_dir, "events", ["event_id", "value"])
    pts = _with_points(ev, "event_id")
    hits = spatial.pip_join(pts, _change_polys_table(), res=7,
                            id_col="event_id", concurrency=4,
                            carry_cols=("value",))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                "poly_id": pd.array([], dtype="int64"),
                "n": pd.array([], dtype="int64"),
                "sum_value_cents": pd.array([], dtype="int64")})
        g = (df.assign(c=_round_half_away(df["value"].to_numpy() * 100.0))
             .groupby("poly_id", as_index=False)
             .agg(n=("c", "size"), sum_value_cents=("c", "sum")))
        for c in g.columns:
            g[c] = g[c].astype("int64")
        return g

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("poly_id", as_index=False).agg(
            n=("n", "sum"), sum_value_cents=("sum_value_cents", "sum"))
        for c in g.columns:
            g[c] = g[c].astype("int64")
        return g

    return joins.grouped_agg(
        hits.map_batches(partial, batch_format="pandas",
                         batch_size=65536),
        ["poly_id"], fin, num_partitions=4)


def _zonal_sql() -> str:
    lon, lat = geo.derive_lonlat_sql("event_id")
    parts = []
    for pid, (rx, ry) in PIP_POLYS.items():
        expr = geo.pip_sql_expr(rx, ry, lon, lat)
        parts.append(
            f"SELECT {pid} AS poly_id, count(*)::BIGINT AS n, "
            f"SUM(round(value * 100.0, 0)::BIGINT)::BIGINT "
            f"AS sum_value_cents FROM events WHERE {expr}")
    return " UNION ALL ".join(parts)


def q_zonal_pixel_stats(sf_dir: str):
    """Zonal PIXEL statistics — the image-payload sibling of
    `zonal_stats`: per changeset polygon, the exact per-channel pixel
    sums and pixel count of every contained image. Decode happens in
    the synth/reduce task and each image leaves it as FOUR integers
    per channel-row (never bytes); the PIP stage then joins point
    rows whose carried columns are those integers; one combiner
    reduces to |polys| rows. Rows-only (pixel decode is not SQL);
    brute-verified in pytest against a pure-Python re-derivation."""
    from oluray.functions import imagecodec

    images = _synth_images(sf_dir)

    def feat(t: pa.Table) -> pa.Table:
        ids = np.array([int(s[3:]) for s in t["image_id"].to_pylist()],
                       dtype=np.int64)
        lon, lat = geo.derive_lonlat(ids)
        n = len(ids)
        sums = np.zeros((n, 3), dtype=np.uint64)
        npx = np.empty(n, dtype=np.int64)
        for j, (b, f) in enumerate(zip(t["bytes"].to_pylist(),
                                       t["fmt"].to_pylist())):
            px = imagecodec.decode(b, f)
            sums[j] = px.reshape(-1, px.shape[-1]).sum(
                axis=0, dtype=np.uint64)
            npx[j] = px.shape[0] * px.shape[1]
        return pa.table({
            "img": pa.array(ids), "lon": pa.array(lon),
            "lat": pa.array(lat),
            "sum_r": pa.array(sums[:, 0].astype(np.int64)),
            "sum_g": pa.array(sums[:, 1].astype(np.int64)),
            "sum_b": pa.array(sums[:, 2].astype(np.int64)),
            "n_px": pa.array(npx)})

    pts = images.map_batches(feat, batch_format="pyarrow", batch_size=128)
    hits = spatial.pip_join(
        pts, _change_polys_table(), res=7, id_col="img", concurrency=4,
        carry_cols=("sum_r", "sum_g", "sum_b", "n_px"))

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("poly_id", as_index=False).agg(
            n_images=("n_px", "size"), sum_r=("sum_r", "sum"),
            sum_g=("sum_g", "sum"), sum_b=("sum_b", "sum"),
            n_px=("n_px", "sum"))
        for c in g.columns:
            g[c] = g[c].astype("int64")
        return g

    return joins.grouped_agg(
        hits.map_batches(agg, batch_format="pandas", batch_size=65536),
        ["poly_id"], _zps_fin, num_partitions=4)


def _zps_fin(df: pd.DataFrame) -> pd.DataFrame:
    g = df.groupby("poly_id", as_index=False).agg(
        n_images=("n_images", "sum"), sum_r=("sum_r", "sum"),
        sum_g=("sum_g", "sum"), sum_b=("sum_b", "sum"),
        n_px=("n_px", "sum"))
    for c in g.columns:
        g[c] = g[c].astype("int64")
    return g


PROFILE_COLS = ("l_returnflag", "l_quantity", "l_extendedprice",
                "l_discount")


def q_profile_table(sf_dir: str):
    """Per-column table profiling (the Deequ/dataset-stats pass):
    one streamed pass computes per-column n / min / max / sum as
    exact cents-scaled integers via a per-block combiner, plus an
    exact distinct count per column through the `joins.distinct`
    shuffle (per-block unique first, so shuffle traffic is
    distinct-per-block, not rows). Output long-form
    (column, metric, value)."""
    li = _read(sf_dir, "lineitem", list(PROFILE_COLS))
    num_cols = [c for c in PROFILE_COLS if c != "l_returnflag"]

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in num_cols:
            v = _round_half_away(df[c].to_numpy(np.float64) * 100.0)
            rows.append((c, len(v), int(v.min()) if len(v) else 0,
                         int(v.max()) if len(v) else 0, int(v.sum())))
        rows.append(("l_returnflag", len(df), 0, 0, 0))
        return pd.DataFrame(
            rows, columns=["column", "n", "min_c", "max_c", "sum_c"])

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("column", as_index=False).agg(
            n=("n", "sum"), min_c=("min_c", "min"),
            max_c=("max_c", "max"), sum_c=("sum_c", "sum"))
        return g

    stats = joins.grouped_agg(
        li.map_batches(combine, batch_format="pandas",
                       batch_size=65536),
        ["column"], fin, num_partitions=4,
        pre_repartition=False).to_pandas()

    out = []
    for c in PROFILE_COLS:
        r = stats[stats["column"] == c].iloc[0]
        nd = joins.distinct(
            li.select_columns([c]), [c], num_partitions=8).count()
        out.append((c, "n", int(r["n"])))
        out.append((c, "n_distinct", int(nd)))
        if c in num_cols:
            out.append((c, "min_e2", int(r["min_c"])))
            out.append((c, "max_e2", int(r["max_c"])))
            out.append((c, "sum_e2", int(r["sum_c"])))
    return pd.DataFrame(out, columns=["column", "metric", "value"])


def q_cum_distinct(sf_dir: str):
    """Cumulative distinct event-type count per user over time (the
    running COUNT(DISTINCT) window): first-occurrence flags per
    (user, type) then a running sum in event order — vectorized per
    user-hash partition, no per-user loop."""
    ev = _read(sf_dir, "events",
               ["user_id", "event_id", "ts", "event_type"])

    def run(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy(deep=False)
        df["_us"] = df["ts"].astype("datetime64[us]").astype("int64")
        df = df.sort_values(["user_id", "_us", "event_id"],
                            kind="mergesort")
        first = ~df.duplicated(["user_id", "event_type"])
        df["cum_types"] = (
            first.astype(np.int64).groupby(
                df["user_id"].to_numpy()).cumsum().astype(np.int64))
        return df[["user_id", "event_id", "cum_types"]]

    return joins.partitioned_map(ev, ["user_id"], run,
                                 num_partitions=16,
                                 pre_repartition=False)


def _ttl_emit_sql() -> str:
    """DuckDB reconstruction of the node TTL block (q_ttl_emit)."""
    lon, lat = geo.derive_lonlat_sql("c_custkey")
    return f"""
        WITH n AS (
          SELECT c_custkey AS id, c_name AS name,
                 printf('%.7f', {lon}) AS xs,
                 printf('%.7f', {lat}) AS ys,
                 strftime(epoch_ms(1600000000000 + c_custkey * 1000),
                          '%Y-%m-%dT%H:%M:%S') AS tsl
          FROM customer),
        g AS (
          SELECT *, xs || ' ' || ys AS pt,
                 'POLYGON((' || xs || ' ' || ys || ',' || xs || ' ' || ys
                 || ',' || xs || ' ' || ys || ',' || xs || ' ' || ys
                 || ',' || xs || ' ' || ys || '))' AS ring
          FROM n)
        SELECT 'node' AS kind, id,
               'osmnode:' || id || ' rdf:type osm:node .' || chr(10)
            || 'osmnode:' || id || ' osmmeta:timestamp "' || tsl
               || '"^^xsd:dateTime .' || chr(10)
            || 'osmnode:' || id || ' osmkey:name "' || name || '" .'
               || chr(10)
            || 'osmnode:' || id || ' osm2rdf:facts "1"^^xsd:integer .'
               || chr(10)
            || 'osmnode:' || id || ' geo:hasGeometry osm2rdfgeom:osm_node_'
               || id || ' .' || chr(10)
            || 'osm2rdfgeom:osm_node_' || id || ' geo:asWKT "POINT('
               || pt || ')"^^geo:wktLiteral .' || chr(10)
            || 'osmnode:' || id || ' osm2rdfgeom:convex_hull "' || ring
               || '"^^geo:wktLiteral .' || chr(10)
            || 'osmnode:' || id || ' osm2rdfgeom:envelope "' || ring
               || '"^^geo:wktLiteral .' || chr(10)
            || 'osmnode:' || id || ' osm2rdfgeom:obb "' || ring
               || '"^^geo:wktLiteral .' AS text
        FROM g
    """


_TTL_EMIT_SQL = _ttl_emit_sql()


def _ttl_emit_ways_sql() -> str:
    """DuckDB reconstruction of the 2-node way TTL block
    (q_ttl_emit_ways): LINESTRING over nd order, degenerate
    envelope-shaped hull/envelope/obb rings, IEEE sqrt length."""
    x1, y1 = geo.derive_lonlat_sql("2 * o_orderkey")
    x2, y2 = geo.derive_lonlat_sql("2 * o_orderkey + 1")
    return f"""
        WITH n AS (
          SELECT o_orderkey AS id, o_orderpriority AS pr,
                 {x1} AS x1d, {y1} AS y1d, {x2} AS x2d, {y2} AS y2d
          FROM orders),
        f AS (
          SELECT id, pr,
                 printf('%.7f', x1d) AS x1, printf('%.7f', y1d) AS y1,
                 printf('%.7f', x2d) AS x2, printf('%.7f', y2d) AS y2,
                 printf('%.7f', least(x1d, x2d)) AS xl,
                 printf('%.7f', greatest(x1d, x2d)) AS xh,
                 printf('%.7f', least(y1d, y2d)) AS yl,
                 printf('%.7f', greatest(y1d, y2d)) AS yh,
                 printf('%.6f', sqrt((x2d - x1d) * (x2d - x1d)
                                     + (y2d - y1d) * (y2d - y1d))) AS len
          FROM n),
        g AS (
          SELECT *,
                 'POLYGON((' || xl || ' ' || yl || ',' || xl || ' ' || yh
                 || ',' || xh || ' ' || yh || ',' || xh || ' ' || yl
                 || ',' || xl || ' ' || yl || '))' AS ring
          FROM f)
        SELECT 'way' AS kind, id,
               'osmway:' || id || ' rdf:type osm:way .' || chr(10)
            || 'osmway:' || id || ' osmkey:priority "' || pr || '" .'
               || chr(10)
            || 'osmway:' || id || ' osm2rdf:facts "1"^^xsd:integer .'
               || chr(10)
            || 'osmway:' || id || ' geo:hasGeometry osm2rdf:way_' || id
               || ' .' || chr(10)
            || 'osm2rdf:way_' || id || ' geo:asWKT "LINESTRING(' || x1
               || ' ' || y1 || ',' || x2 || ' ' || y2
               || ')"^^geo:wktLiteral .' || chr(10)
            || 'osmway:' || id || ' osm2rdfgeom:convex_hull "' || ring
               || '"^^geo:wktLiteral .' || chr(10)
            || 'osmway:' || id || ' osm2rdfgeom:envelope "' || ring
               || '"^^geo:wktLiteral .' || chr(10)
            || 'osmway:' || id || ' osm2rdfgeom:obb "' || ring
               || '"^^geo:wktLiteral .' || chr(10)
            || 'osmway:' || id || ' osm2rdf:length "' || len
               || '"^^xsd:double .' AS text
        FROM g
    """


_TTL_EMIT_WAYS_SQL = _ttl_emit_ways_sql()

def _pii_sql() -> tuple[str, str]:
    """(stats_sql, redact_sql) sharing the Ray side's exact patterns
    and injected-text derivation."""
    from oluray.stages.text import PII_PATTERNS

    e, i, p = (PII_PATTERNS["email"], PII_PATTERNS["ipv4"],
               PII_PATTERNS["phone"])
    base = f"WITH d AS (SELECT doc_id, {_PII_TXT_SQL} AS txt FROM documents)"
    stats = f"""
        {base}
        SELECT doc_id,
               len(regexp_extract_all(txt, '{e}')) AS n_email,
               len(regexp_extract_all(txt, '{i}')) AS n_ipv4,
               len(regexp_extract_all(txt, '{p}')) AS n_phone,
               len(regexp_extract_all(txt, '{e}'))
               + len(regexp_extract_all(txt, '{i}'))
               + len(regexp_extract_all(txt, '{p}')) AS n_pii
        FROM d
    """
    redact = f"""
        {base}
        SELECT doc_id,
               regexp_replace(
                 regexp_replace(
                   regexp_replace(txt, '{e}', '<EMAIL>', 'g'),
                   '{i}', '<IPV4>', 'g'),
                 '{p}', '<PHONE>', 'g') AS text
        FROM d
    """
    return stats, redact


_PII_STATS_SQL, _PII_REDACT_SQL = _pii_sql()

# Gopher-style repetition signals: same whitespace split, integer
# micro-unit fractions (floor division on both sides)
_DOC_REPETITION_SQL = """
    WITH tok AS (
      SELECT doc_id, w
      FROM (SELECT doc_id,
                   unnest(regexp_split_to_array(text, '\\s+')) AS w
            FROM documents)
      WHERE len(w) > 0),
    cnt AS (
      SELECT doc_id, w, count(*) AS c FROM tok GROUP BY doc_id, w),
    per AS (
      SELECT doc_id, sum(c)::BIGINT AS n_words,
             count(*)::BIGINT AS n_distinct,
             max(c)::BIGINT AS top
      FROM cnt GROUP BY doc_id)
    SELECT d.doc_id,
           coalesce(p.n_words, 0) AS n_words,
           coalesce(p.n_distinct, 0) AS n_distinct,
           coalesce(p.top * 1000000 // p.n_words, 0)
             AS top_word_frac_e6,
           coalesce(p.n_distinct * 1000000 // p.n_words, 0)
             AS distinct_frac_e6
    FROM documents d LEFT JOIN per p USING (doc_id)
"""

# canonical-URL dedup: same synth + the same canonicalization steps
# as text.canonical_url (lowercase authority, strip default port /
# fragment / trailing slash), then keep min(doc_id) per canonical
_URL_DEDUP_SQL = f"""
    WITH u AS (SELECT doc_id, {_URL_SYNTH_SQL} AS url FROM documents),
    c AS (
      SELECT doc_id,
        regexp_replace(
          regexp_replace(
            regexp_replace(
              lower(regexp_extract(url, '^([A-Za-z][A-Za-z0-9+.\\-]*://[^/]*)', 1))
              || regexp_replace(url, '^[A-Za-z][A-Za-z0-9+.\\-]*://[^/]*', ''),
              '#.*$', ''),
            ':(443|80)(/|$)', '\\2'),
          '/+$', '') AS canon_url
      FROM u)
    SELECT canon_url, min(doc_id) AS keep_id,
           count(*)::BIGINT AS n_dups
    FROM c GROUP BY canon_url
"""


# relation blocks (q_ttl_emit_rels): head lines + ordered member
# blank-node quads rebuilt with a string_agg over l_linenumber order
_TTL_EMIT_RELS_SQL = """
    WITH m AS (
      SELECT l_orderkey AS id, l_linenumber,
             row_number() OVER (PARTITION BY l_orderkey
                                ORDER BY l_linenumber, l_partkey,
                                         l_returnflag) - 1 AS pos,
             l_partkey AS ref,
             CASE WHEN l_partkey % 2 = 0 THEN 'osmnode' ELSE 'osmway'
             END AS ns,
             CASE WHEN l_returnflag = 'N' THEN 'member'
                  ELSE l_returnflag END AS role
      FROM lineitem),
    agg AS (
      SELECT id,
             string_agg(
               'osmrel:' || id || ' osmrel:member _:' || id || '_'
               || pos || ' .' || chr(10)
               || '_:' || id || '_' || pos || ' osm2rdfmember:id '
               || ns || ':' || ref || ' .' || chr(10)
               || '_:' || id || '_' || pos || ' osm2rdfmember:role "'
               || role || '" .' || chr(10)
               || '_:' || id || '_' || pos
               || ' osm2rdfmember:pos "' || pos
               || '"^^xsd:integer .',
               chr(10) ORDER BY pos) AS mem_text
      FROM m GROUP BY id)
    SELECT 'relation' AS kind, id,
           'osmrel:' || id || ' rdf:type osm:relation .' || chr(10)
        || 'osmrel:' || id || ' osmkey:type "route" .' || chr(10)
        || 'osmrel:' || id || ' osm2rdf:facts "1"^^xsd:integer .'
           || chr(10) || mem_text AS text
    FROM agg
"""


ORACLE: dict[str, str] = {
    "label_centroids": """
        SELECT label, i AS dim,
               sum(round(embedding[i]::DOUBLE * 1e6)::BIGINT)::BIGINT AS s_1e6,
               count(*)::BIGINT AS n
        FROM embeddings, unnest(generate_series(1, len(embedding))) AS t(i)
        GROUP BY label, i
    """,
    "part_skyline": """
        SELECT p_partkey FROM part a
        WHERE NOT EXISTS (
          SELECT 1 FROM part b
          WHERE b.p_retailprice <= a.p_retailprice
            AND b.p_size >= a.p_size
            AND (b.p_retailprice < a.p_retailprice
                 OR b.p_size > a.p_size))
    """,
    "time_weighted_avg": """
        WITH s AS (
          SELECT user_id, round(value * 100)::BIGINT AS cents, ts,
                 lead(ts) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nts
          FROM events)
        SELECT user_id,
               sum(CASE WHEN nts IS NULL THEN 0
                    ELSE date_diff('second', ts, nts)::BIGINT * cents
                    END)::BIGINT AS wsum,
               sum(CASE WHEN nts IS NULL THEN 0
                    ELSE date_diff('second', ts, nts)::BIGINT
                    END)::BIGINT AS wdur
        FROM s GROUP BY user_id
    """,
    "unigram_logprob": r"""
        WITH toks AS (
          SELECT doc_id,
                 unnest(string_split_regex(lower(text), '\s+')) AS tok
          FROM documents),
        toks2 AS (SELECT doc_id, tok FROM toks WHERE tok <> ''),
        vocab AS (SELECT tok, count(*)::BIGINT AS c FROM toks2 GROUP BY tok),
        tot AS (SELECT sum(c)::BIGINT AS n FROM vocab)
        SELECT doc_id,
               sum(round(ln(c::DOUBLE / n::DOUBLE) * 1e6)::BIGINT)::BIGINT
                 AS logprob_u6,
               count(*)::BIGINT AS n_tok
        FROM toks2 JOIN vocab USING (tok) CROSS JOIN tot
        GROUP BY doc_id
    """,
    "lag_delta": """
        SELECT o_custkey, o_orderkey, gap_days, price_delta_cents FROM (
          SELECT o_custkey, o_orderkey,
                 date_diff('day', lag(o_orderdate) OVER w,
                           o_orderdate)::BIGINT AS gap_days,
                 round(o_totalprice * 100)::BIGINT
                   - round(lag(o_totalprice) OVER w * 100)::BIGINT
                   AS price_delta_cents
          FROM orders
          WINDOW w AS (PARTITION BY o_custkey
                       ORDER BY o_orderdate, o_orderkey))
        WHERE gap_days IS NOT NULL
    """,
    "late_order_counts": """
        SELECT o_orderpriority, count(*)::BIGINT AS n FROM orders
        WHERE EXISTS (SELECT 1 FROM lineitem
                      WHERE l_orderkey = o_orderkey
                        AND l_shipdate > o_orderdate + INTERVAL 60 DAY)
        GROUP BY o_orderpriority
    """,
    "small_qty_revenue": """
        SELECT sum(round(l_extendedprice * 100)::BIGINT)::BIGINT
                 AS revenue_cents,
               count(*)::BIGINT AS n
        FROM lineitem
        JOIN (SELECT l_partkey, sum(l_quantity) / count(*) AS aq
              FROM lineitem GROUP BY l_partkey) a USING (l_partkey)
        WHERE l_quantity < 0.2 * aq
    """,
    "set_intersect": """
        SELECT user_id FROM events WHERE event_type = 'click'
        INTERSECT
        SELECT user_id FROM events WHERE event_type = 'purchase'
    """,
    "part_supplier_degree": """
        SELECT deg, count(*)::BIGINT AS n_parts FROM (
          SELECT l_partkey, count(DISTINCT l_suppkey)::BIGINT AS deg
          FROM lineitem GROUP BY l_partkey)
        GROUP BY deg
    """,
    "status_cube": """
        SELECT coalesce(o_orderstatus, 'ALL') AS status,
               coalesce(o_orderpriority, 'ALL') AS priority,
               sum(round(o_totalprice * 100)::BIGINT)::BIGINT AS rev_cents,
               count(*)::BIGINT AS n
        FROM orders GROUP BY CUBE(o_orderstatus, o_orderpriority)
    """,
    "brand_size_skew": """
        WITH m AS (
          SELECT p_brand, count(*)::BIGINT AS n,
                 sum(p_size::BIGINT)::BIGINT AS s1,
                 sum((p_size::BIGINT) * (p_size::BIGINT))::BIGINT AS s2,
                 sum((p_size::BIGINT) * (p_size::BIGINT)
                     * (p_size::BIGINT))::BIGINT AS s3
          FROM part GROUP BY p_brand)
        SELECT p_brand, n,
               round(((s3::DOUBLE / n
                        - 3.0 * (s1::DOUBLE / n) * (s2::DOUBLE / n)
                        + 2.0 * (s1::DOUBLE / n) * (s1::DOUBLE / n)
                              * (s1::DOUBLE / n))
                      / ((s2::DOUBLE / n - (s1::DOUBLE / n) * (s1::DOUBLE / n))
                         * sqrt(s2::DOUBLE / n
                                - (s1::DOUBLE / n) * (s1::DOUBLE / n))))
                     * 1e6)::BIGINT AS skew_1e6
        FROM m WHERE n >= 2 AND s2 * n > s1 * s1
    """,
    "shipping_priority": """
        SELECT l_orderkey AS o_orderkey, o_orderdate,
               round(sum(l_extendedprice * (1.0 - l_discount)) * 100)::BIGINT
                 AS revenue_cents
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON l_orderkey = o_orderkey
        WHERE c_mktsegment = 'BUILDING'
          AND o_orderdate < TIMESTAMP '1998-06-01'
          AND l_shipdate > TIMESTAMP '1998-06-01'
        GROUP BY 1, 2
        ORDER BY revenue_cents DESC, o_orderkey LIMIT 10
    """,
    "user_mode": """
        SELECT user_id, event_type, cnt FROM (
          SELECT user_id, event_type, count(*)::BIGINT AS cnt,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY count(*) DESC, event_type) rn
          FROM events GROUP BY user_id, event_type) WHERE rn = 1
    """,
    "funnel_conv": """
        SELECT user_id, t_view, t_click, t_purchase FROM (
          SELECT user_id,
                 min(CASE WHEN event_type = 'view' THEN ts END) AS t_view,
                 min(CASE WHEN event_type = 'click' THEN ts END) AS t_click,
                 min(CASE WHEN event_type = 'purchase' THEN ts END) AS t_purchase
          FROM events GROUP BY user_id)
        WHERE t_view < t_click AND t_click < t_purchase
    """,
    "latest_wins": """
        SELECT user_id, event_id, event_type FROM (
          SELECT user_id, event_id, event_type,
                 row_number() OVER (PARTITION BY user_id
                                    ORDER BY ts DESC, event_id DESC) rn
          FROM events) WHERE rn = 1
    """,
    "change_counts": "SELECT event_type AS op, count(*)::BIGINT AS n FROM events GROUP BY event_type",
    "impact_closure": """
        SELECT o_orderkey, o_custkey FROM orders
        WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal < 0.0)
          AND o_orderstatus <> 'F'
    """,
    "impact_closure_shuffle": """
        SELECT o_orderkey, o_custkey FROM orders
        WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal < 0.0)
          AND o_orderstatus <> 'F'
    """,
    "closure_2hop": """
        SELECT DISTINCT l_suppkey FROM lineitem
        WHERE l_orderkey IN (
          SELECT o_orderkey FROM orders
          WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal < 0.0)
            AND o_orderstatus <> 'F')
    """,
    "rel_of_rel": """
        SELECT DISTINCT l_orderkey AS rel_id FROM lineitem
        WHERE l_linenumber % 3 = 0
          AND l_partkey * 4 IN
              (SELECT o_orderkey FROM orders WHERE o_orderstatus = 'F')
          AND l_orderkey NOT IN
              (SELECT o_orderkey FROM orders WHERE o_orderkey % 7 = 0)
    """,
    "member_collect": """
        SELECT l_orderkey AS o_orderkey,
               string_agg(l_partkey::VARCHAR, ';' ORDER BY l_linenumber, l_partkey) AS members
        FROM lineitem WHERE l_orderkey % 100 = 0 GROUP BY l_orderkey
    """,
    "refs_distinct": """
        SELECT DISTINCT l_orderkey, l_partkey FROM lineitem WHERE l_quantity > 45.0
    """,
    "max_ts": "SELECT max(ts) AS max_ts FROM events",
    "tag_enrich": """
        SELECT o_orderkey, o_orderdate,
               round(o_totalprice * 100)::BIGINT AS total_cents
        FROM orders
        WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal < 0.0)
          AND o_orderstatus <> 'F'
    """,
    "rel_centroid": _REL_CENTROID_SQL,
    "rel_envelope": _rel_envelope_sql(),
    "delete_set": """
        SELECT DISTINCT o_orderkey FROM orders
        WHERE o_orderstatus = 'F'
           OR o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal < 0.0)
    """,
    "cell_encode": _cell_sql(),
    "pip_join": _pip_union_sql(),
    "knn_assign": _knn_sql(),
    "radius_join": _radius_sql(),
    "focal_mean": _focal_mean_sql(),
    "bigram_pmi": _bigram_pmi_sql(),
    "min_price_supplier": _min_price_supplier_sql(),
    "trending_types": _trending_types_sql(),
    "embed_outliers": _embed_outliers_sql(),
    "late_events": _late_events_sql(),
    "tile_cover": _tile_cover_sql(),
    "sales_rollup": """
        SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
               coalesce(l_linestatus, 'ALL') AS l_linestatus,
               count(*)::BIGINT AS n,
               sum(CAST(round(l_quantity) AS BIGINT))::BIGINT AS sum_qty
        FROM lineitem
        GROUP BY GROUPING SETS ((l_returnflag, l_linestatus),
                                (l_returnflag), ())
    """,
    "rolling_24h": """
        SELECT event_id, user_id,
               count(*) OVER w AS w_n,
               CAST(sum(round(value * 100)::BIGINT) OVER w AS BIGINT)
                 AS w_sum_cents
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN INTERVAL 24 HOUR PRECEDING
                           AND CURRENT ROW)
    """,
    "running_total": """
        SELECT event_id, user_id,
               CAST(sum(round(value * 100)::BIGINT) OVER (
                 PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
               ) AS BIGINT) AS run_cents
        FROM events
    """,
    "cust_event_counts": """
        SELECT c.c_custkey,
               count(e.event_id)::BIGINT AS n_events,
               COALESCE(sum(round(e.value * 100)::BIGINT), 0)::BIGINT
                 AS sum_cents
        FROM customer c LEFT JOIN events e ON e.user_id = c.c_custkey
        GROUP BY c.c_custkey
    """,
    "zorder_cells": _zorder_sql(),
    "cell_pyramid": _pyramid_sql(),
    "merge_intervals": """
        WITH iv AS (
          SELECT user_id, ts AS s, ts + INTERVAL 30 MINUTE AS e
          FROM events),
        m AS (
          SELECT user_id, s, e,
                 CASE WHEN s > max(e) OVER (
                        PARTITION BY user_id ORDER BY s, e
                        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                      THEN 1 ELSE 0 END AS brk
          FROM iv),
        g AS (
          SELECT *, sum(brk) OVER (
                   PARTITION BY user_id ORDER BY s, e
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS isl
          FROM m)
        SELECT user_id, min(s) AS island_start, max(e) AS island_end,
               count(*)::BIGINT AS n_events
        FROM g GROUP BY user_id, isl
    """,
    # the SQL side rebuilds the exact node TTL block text (7-dp
    # printf coords, degenerate rings, facts, timestamp literal) so
    # the Ray emitter is hash-checked byte-for-byte
    "ttl_emit": _TTL_EMIT_SQL,
    "ttl_emit_ways": _TTL_EMIT_WAYS_SQL,
    "ttl_emit_rels": _TTL_EMIT_RELS_SQL,
    "pii_stats": _PII_STATS_SQL,
    "pii_redact": _PII_REDACT_SQL,
    "url_dedup": _URL_DEDUP_SQL,
    "doc_repetition": _DOC_REPETITION_SQL,
    # the SQL side builds the kept triple set directly; the Ray side
    # must emit, regex-parse and semi-filter the full TTL line stream
    "ttl_filter": """
        WITH ins AS (
          SELECT doc_id, source,
                 (doc_id % 360) - 180 + 0.25 AS lon,
                 (doc_id % 170) - 85 + 0.25 AS lat
          FROM documents WHERE doc_id % 3 = 0)
        SELECT 'osmnode:' || doc_id AS s, 'rdf:type' AS p, 'osm:node' AS o FROM ins
        UNION ALL
        SELECT 'osmnode:' || doc_id, 'osmkey:source', '"' || source || '"' FROM ins
        UNION ALL
        SELECT 'osmnode:' || doc_id, 'geo:hasGeometry',
               'osm2rdfgeom:osm_node_' || doc_id FROM ins
        UNION ALL
        SELECT 'osm2rdfgeom:osm_node_' || doc_id, 'geo:asWKT',
               '"POINT(' || printf('%.7f', lon) || ' ' || printf('%.7f', lat)
               || ')"^^geo:wktLiteral' FROM ins
        UNION ALL
        SELECT 'osmway:' || doc_id, 'rdf:type', 'osm:way'
        FROM documents WHERE doc_id % 30 = 0
        UNION ALL
        SELECT 'osmway:' || doc_id, 'osmway:node', 'osmnode:' || doc_id
        FROM documents WHERE doc_id % 30 = 0
    """,
    "track_length": _track_length_sql(),
    "star_poly_area": _star_poly_area_sql(),
    "word_stats": """
        WITH w AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents),
        cnt AS (SELECT doc_id, w, count(*) AS c FROM w GROUP BY doc_id, w),
        agg AS (
          SELECT doc_id, SUM(c)::BIGINT AS n_words,
                 count(*)::BIGINT AS n_distinct, max(c)::BIGINT AS top_cnt
          FROM cnt GROUP BY doc_id)
        SELECT doc_id, n_words, n_distinct,
               ((n_words - n_distinct) * 1000000) // n_words AS dup_ratio_e6,
               (top_cnt * 1000000) // n_words AS top_frac_e6
        FROM agg
    """,
    "unpivot": """
        WITH wide AS (
          SELECT l_returnflag,
                 SUM(round(l_quantity, 0)::BIGINT)::BIGINT AS sum_qty,
                 SUM(round(l_extendedprice * 100.0, 0)::BIGINT)::BIGINT
                   AS sum_price_cents
          FROM lineitem GROUP BY l_returnflag)
        SELECT l_returnflag, 'sum_qty' AS metric, sum_qty AS value FROM wide
        UNION ALL
        SELECT l_returnflag, 'sum_price_cents' AS metric, sum_price_cents
        FROM wide
    """,
    "weighted_sample": """
        WITH pri AS (
          SELECT lang, doc_id, n_chars,
                 ln(((doc_id * 2654435761) % 4294967296 + 0.5)
                    / 4294967296.0) / n_chars AS pri,
                 row_number() OVER (PARTITION BY lang
                                    ORDER BY ln(((doc_id * 2654435761)
                                      % 4294967296 + 0.5) / 4294967296.0)
                                      / n_chars DESC, doc_id) AS rn
          FROM documents)
        SELECT lang, doc_id, n_chars FROM pri WHERE rn <= 5
    """,
    "chunk_tokens": f"""
        WITH s AS (SELECT doc_id, string_split(text, ' ') AS toks,
                          len(string_split(text, ' ')) AS n
                   FROM documents),
             c AS (SELECT doc_id, toks, n,
                          unnest(generate_series(1, n, {STRIDE})) AS start
                   FROM s)
        SELECT doc_id, ((start - 1) / {STRIDE})::BIGINT AS chunk_id,
               array_to_string(
                 toks[start : least(start + {CHUNK} - 1, n)], ' ')
                 AS chunk_text,
               (least(start + {CHUNK} - 1, n) - start + 1)::BIGINT
                 AS n_tokens
        FROM c
    """,
    "stopword_scrub": f"""
        WITH s AS (SELECT doc_id, string_split(text, ' ') AS toks
                   FROM documents),
             f AS (SELECT doc_id, toks,
                          list_filter(toks, t -> t NOT IN
                            {STOPWORDS!r}) AS kept
                   FROM s)
        SELECT doc_id,
               COALESCE(array_to_string(kept, ' '), '') AS clean_text,
               (len(toks) - len(kept))::BIGINT AS n_removed
        FROM f
    """,
    "balanced_shards": """
        SELECT doc_id,
               ((row_number() OVER (
                   ORDER BY len(string_split(text, ' ')) DESC, doc_id)
                 - 1) % 8)::BIGINT AS shard
        FROM documents
    """,
    "quality_score": """
        SELECT doc_id,
               round(1000000.0 / (1.0 + exp(-(
                 -2.0 + 0.01 * length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                      + -0.005 * (length(text) - length(replace(text, ' ', '')))
                      + 0.002 * length(text)))), 0)::BIGINT AS score_e6
        FROM documents
    """,
    "event_entropy": """
        WITH ct AS (SELECT user_id, event_type, count(*)::DOUBLE AS c
                    FROM events GROUP BY user_id, event_type),
             t AS (SELECT user_id, c,
                          sum(c) OVER (PARTITION BY user_id) AS n
                   FROM ct)
        SELECT user_id,
               SUM(round(1000000.0 * (c / n) * log2(n / c), 0)::BIGINT)::BIGINT
                 AS entropy_e6,
               count(*)::BIGINT AS n_types
        FROM t GROUP BY user_id
    """,
    "histogram": """
        SELECT least(floor(o_totalprice / 25000.0)::BIGINT, 19) AS bucket,
               count(*)::BIGINT AS n,
               SUM(round(o_totalprice * 100.0, 0)::BIGINT)::BIGINT AS sum_cents
        FROM orders GROUP BY 1
    """,
    "group_corr": """
        WITH m AS (
          SELECT l_returnflag,
                 count(*)::BIGINT AS n,
                 SUM(round(l_quantity, 0)::BIGINT)::BIGINT AS sx,
                 SUM(round(l_extendedprice, 0)::BIGINT)::BIGINT AS sy,
                 SUM(round(l_quantity, 0)::BIGINT
                     * round(l_quantity, 0)::BIGINT)::BIGINT AS sxx,
                 SUM(round(l_extendedprice, 0)::BIGINT
                     * round(l_extendedprice, 0)::BIGINT)::BIGINT AS syy,
                 SUM(round(l_quantity, 0)::BIGINT
                     * round(l_extendedprice, 0)::BIGINT)::BIGINT AS sxy
          FROM lineitem GROUP BY l_returnflag)
        SELECT l_returnflag,
               round(1000000.0 * (
                 (n::DOUBLE * sxy::DOUBLE - sx::DOUBLE * sy::DOUBLE) /
                 (sqrt(n::DOUBLE * sxx::DOUBLE - sx::DOUBLE * sx::DOUBLE)
                  * sqrt(n::DOUBLE * syy::DOUBLE - sy::DOUBLE * sy::DOUBLE))
               ), 0)::BIGINT AS corr_e6,
               n
        FROM m
    """,
    "full_outer": """
        WITH ev AS (
          SELECT user_id, count(*)::BIGINT AS n_events FROM events
          GROUP BY user_id),
        cu AS (
          SELECT c_custkey, round(c_acctbal * 100.0, 0)::BIGINT AS acctbal_cents
          FROM customer WHERE c_acctbal >= 5000.0)
        SELECT COALESCE(ev.user_id, cu.c_custkey)::BIGINT AS ukey,
               COALESCE(ev.n_events, 0)::BIGINT AS n_events,
               COALESCE(cu.acctbal_cents, -1)::BIGINT AS acctbal_cents
        FROM ev FULL OUTER JOIN cu ON ev.user_id = cu.c_custkey
    """,
    "pip_anti": _pip_anti_sql(),
    "hash_split": _HASH_SPLIT_SQL,
    "first_last_events": _FIRST_LAST_SQL,
    "rect_join": _rect_join_sql(),
    "nn_join": _nn_join_sql(),
    "iqr_outliers": _IQR_SQL,
    "retention_cohorts": _RETENTION_SQL,
    "quadkeys": _quadkeys_sql(),
    "geofence_transitions": _geofence_sql(),
    "heavy_terms": _HEAVY_TERMS_SQL,
    "geohash": _geohash_sql(),
    "od_matrix": _od_matrix_sql(),
    "zscore_norm": _ZSCORE_SQL,
    "triangle_count": _TRIANGLE_SQL,
    "bfs_hops": _BFS_SQL,
    "chi2_lang_source": _CHI2_SQL,
    "track_speed": _track_speed_sql(),
    "grid_clusters": _grid_clusters_sql(),
    "weighted_median": _WMEDIAN_SQL,
    "gap_fill": _GAP_FILL_SQL,
    "trimmed_stats": _TRIMMED_SQL,
    "track_corridor": _track_corridor_sql(),
    "resample_tracks": _resample_sql(),
    "mad_outliers": _MAD_SQL,
    "entity_clusters": _ENTITY_SQL,
    "attribution": _ATTRIBUTION_SQL,
    "decayed_cells": _decayed_cells_sql(),
    "group_linreg": _LINREG_SQL,
    "markov_transitions": _MARKOV_SQL,
    "item_sim": _ITEM_SIM_SQL,
    "snap_to_segment": _snap_sql(),
    "flow_field": _flow_field_sql(),
    "session_paths": _SESSION_PATHS_SQL,
    "pushdown_scan": _PUSHDOWN_SQL,
    "flow_rose": _flow_rose_sql(),
    "radius_gyration": _radius_gyration_sql(),
    "ref_index_owners": """
        SELECT DISTINCT l_orderkey AS way_id FROM lineitem
        WHERE l_partkey * 2 + 1 IN
              (SELECT p_partkey * 2 + 1 FROM part WHERE p_size > 47)
          AND l_orderkey NOT IN
              (SELECT o_orderkey FROM orders WHERE o_orderkey % 11 = 0)
    """,
    "store_lookup": """
        SELECT c_custkey, round(c_acctbal * 100.0)::BIGINT AS bal_cents,
               c_nationkey
        FROM customer WHERE c_custkey % 13 = 0
    """,
    "idw_interpolate": _idw_sql(),
    "sssp": _sssp_sql(),
    "ivm_cell_counts": _ivm_sql(),
    "zonal_stats": _zonal_sql(),
    "profile_table": """
        WITH num AS (
          SELECT 'l_quantity' AS col, count(*)::BIGINT AS n,
                 count(DISTINCT l_quantity)::BIGINT AS nd,
                 min(round(l_quantity * 100.0, 0))::BIGINT AS mn,
                 max(round(l_quantity * 100.0, 0))::BIGINT AS mx,
                 SUM(round(l_quantity * 100.0, 0)::BIGINT)::BIGINT AS sm
          FROM lineitem
          UNION ALL
          SELECT 'l_extendedprice', count(*),
                 count(DISTINCT l_extendedprice),
                 min(round(l_extendedprice * 100.0, 0))::BIGINT,
                 max(round(l_extendedprice * 100.0, 0))::BIGINT,
                 SUM(round(l_extendedprice * 100.0, 0)::BIGINT)::BIGINT
          FROM lineitem
          UNION ALL
          SELECT 'l_discount', count(*), count(DISTINCT l_discount),
                 min(round(l_discount * 100.0, 0))::BIGINT,
                 max(round(l_discount * 100.0, 0))::BIGINT,
                 SUM(round(l_discount * 100.0, 0)::BIGINT)::BIGINT
          FROM lineitem),
        str AS (
          SELECT 'l_returnflag' AS col, count(*)::BIGINT AS n,
                 count(DISTINCT l_returnflag)::BIGINT AS nd
          FROM lineitem)
        SELECT col AS "column", 'n' AS metric, n AS value FROM num
        UNION ALL
        SELECT col, 'n_distinct', nd FROM num
        UNION ALL
        SELECT col, 'min_e2', mn FROM num
        UNION ALL
        SELECT col, 'max_e2', mx FROM num
        UNION ALL
        SELECT col, 'sum_e2', sm FROM num
        UNION ALL
        SELECT col, 'n', n FROM str
        UNION ALL
        SELECT col, 'n_distinct', nd FROM str
    """,
    "cum_distinct": """
        WITH f AS (
          SELECT user_id, event_id, ts,
                 CASE WHEN row_number() OVER (
                        PARTITION BY user_id, event_type
                        ORDER BY ts, event_id) = 1
                      THEN 1 ELSE 0 END AS fn
          FROM events)
        SELECT user_id, event_id,
               SUM(fn) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING)::BIGINT
                 AS cum_types
        FROM f
    """,
}

QUERIES = {
    "caption_pairs": q_caption_pairs,
    "unigram_logprob": q_unigram_logprob,
    "part_skyline": q_part_skyline,
    "radius_join": q_radius_join,
    "focal_mean": q_focal_mean,
    "bigram_pmi": q_bigram_pmi,
    "min_price_supplier": q_min_price_supplier,
    "trending_types": q_trending_types,
    "embed_outliers": q_embed_outliers,
    "late_events": q_late_events,
    "label_centroids": q_label_centroids,
    "time_weighted_avg": q_time_weighted_avg,
    "lag_delta": q_lag_delta,
    "late_order_counts": q_late_order_counts,
    "small_qty_revenue": q_small_qty_revenue,
    "set_intersect": q_set_intersect,
    "part_supplier_degree": q_part_supplier_degree,
    "status_cube": q_status_cube,
    "brand_size_skew": q_brand_size_skew,
    "shipping_priority": q_shipping_priority,
    "user_mode": q_user_mode,
    "funnel_conv": q_funnel_conv,
    "latest_wins": q_latest_wins,
    "change_counts": q_change_counts,
    "impact_closure": q_impact_closure,
    "impact_closure_shuffle": q_impact_closure_shuffle,
    "closure_2hop": q_closure_2hop,
    "rel_of_rel": q_rel_of_rel,
    "ref_index_owners": q_ref_index_owners,
    "store_lookup": q_store_lookup,
    "idw_interpolate": q_idw_interpolate,
    "member_collect": q_member_collect,
    "refs_distinct": q_refs_distinct,
    "max_ts": q_max_ts,
    "tag_enrich": q_tag_enrich,
    "rel_centroid": q_rel_centroid,
    "rel_envelope": q_rel_envelope,
    "delete_set": q_delete_set,
    "cell_encode": q_cell_encode,
    "pip_join": q_pip_join,
    "knn_assign": q_knn_assign,
    "tile_cover": q_tile_cover,
    "phash_near_dup": q_phash_near_dup,
    "image_dup_clusters": q_image_dup_clusters,
    "merge_intervals": q_merge_intervals,
    "sales_rollup": q_sales_rollup,
    "hll_users": q_hll_users,
    "rolling_24h": q_rolling_24h,
    "running_total": q_running_total,
    "cust_event_counts": q_cust_event_counts,
    "zorder_cells": q_zorder_cells,
    "cell_pyramid": q_cell_pyramid,
    "ttl_filter": q_ttl_filter,
    "ttl_emit": q_ttl_emit,
    "ttl_emit_ways": q_ttl_emit_ways,
    "ttl_emit_rels": q_ttl_emit_rels,
    "pii_stats": q_pii_stats,
    "pii_redact": q_pii_redact,
    "url_dedup": q_url_dedup,
    "doc_repetition": q_doc_repetition,
    "track_length": q_track_length,
    "star_poly_area": q_star_poly_area,
    "word_stats": q_word_stats,
    "full_outer": q_full_outer,
    "unpivot": q_unpivot,
    "weighted_sample": q_weighted_sample,
    "chunk_tokens": q_chunk_tokens,
    "stopword_scrub": q_stopword_scrub,
    "balanced_shards": q_balanced_shards,
    "pack_bins": q_pack_bins,
    "quality_score": q_quality_score,
    "event_entropy": q_event_entropy,
    "histogram": q_histogram,
    "group_corr": q_group_corr,
    # rows-only (no SQL-expressible oracle): sketches, LSH, image ops
    "channel_stats": q_channel_stats,
    "fingerprint": q_fingerprint,
    "simhash": q_simhash,
    "pip_anti": q_pip_anti,
    "hash_split": q_hash_split,
    "first_last_events": q_first_last_events,
    "rel_hull": q_rel_hull,
    "rect_join": q_rect_join,
    "nn_join": q_nn_join,
    "iqr_outliers": q_iqr_outliers,
    "retention_cohorts": q_retention_cohorts,
    "tile_mosaic": q_tile_mosaic,
    "quadkeys": q_quadkeys,
    "geofence_transitions": q_geofence_transitions,
    "heavy_terms": q_heavy_terms,
    "geohash": q_geohash,
    "od_matrix": q_od_matrix,
    "zscore_norm": q_zscore_norm,
    "triangle_count": q_triangle_count,
    "bfs_hops": q_bfs_hops,
    "chi2_lang_source": q_chi2_lang_source,
    "track_speed": q_track_speed,
    "bpe_merges": q_bpe_merges,
    "grid_clusters": q_grid_clusters,
    "weighted_median": q_weighted_median,
    "gap_fill": q_gap_fill,
    "trimmed_stats": q_trimmed_stats,
    "simplify_tracks": q_simplify_tracks,
    "track_corridor": q_track_corridor,
    "resample_tracks": q_resample_tracks,
    "raster_blobs": q_raster_blobs,
    "nms_boxes": q_nms_boxes,
    "mad_outliers": q_mad_outliers,
    "entity_clusters": q_entity_clusters,
    "attribution": q_attribution,
    "hist_equalize": q_hist_equalize,
    "join_size": q_join_size,
    "decayed_cells": q_decayed_cells,
    "group_linreg": q_group_linreg,
    "markov_transitions": q_markov_transitions,
    "item_sim": q_item_sim,
    "snap_to_segment": q_snap_to_segment,
    "flow_field": q_flow_field,
    "session_paths": q_session_paths,
    "pushdown_scan": q_pushdown_scan,
    "flow_rose": q_flow_rose,
    "radius_gyration": q_radius_gyration,
    "kcore": q_kcore,
    "tile_color": q_tile_color,
    "sssp": q_sssp,
    "ivm_cell_counts": q_ivm_cell_counts,
    "cross_modal_dup": q_cross_modal_dup,
    "zonal_stats": q_zonal_stats,
    "zonal_pixel_stats": q_zonal_pixel_stats,
    "profile_table": q_profile_table,
    "cum_distinct": q_cum_distinct,
}

# wave-5/6 catalogs (kept in their own modules; merged here so the
# driver sees one registry)
from oluray.pipelines import queries_wave5 as _wave5  # noqa: E402
from oluray.pipelines import queries_wave6 as _wave6  # noqa: E402
from oluray.pipelines import queries_wave7 as _wave7  # noqa: E402
from oluray.pipelines import queries_wave8 as _wave8  # noqa: E402
from oluray.pipelines import queries_wave9 as _wave9  # noqa: E402
from oluray.pipelines import queries_wave10 as _wave10  # noqa: E402
from oluray.pipelines import queries_wave11 as _wave11  # noqa: E402
from oluray.pipelines import queries_wave12 as _wave12  # noqa: E402
from oluray.pipelines import queries_wave13 as _wave13  # noqa: E402
from oluray.pipelines import queries_wave14 as _wave14  # noqa: E402
from oluray.pipelines import queries_wave15 as _wave15  # noqa: E402
from oluray.pipelines import queries_wave16 as _wave16  # noqa: E402
from oluray.pipelines import queries_wave17 as _wave17  # noqa: E402
from oluray.pipelines import queries_wave18 as _wave18  # noqa: E402
from oluray.pipelines import queries_wave19 as _wave19  # noqa: E402
from oluray.pipelines import queries_wave20 as _wave20  # noqa: E402
from oluray.pipelines import queries_wave21 as _wave21  # noqa: E402
from oluray.pipelines import queries_wave22 as _wave22  # noqa: E402
from oluray.pipelines import queries_wave23 as _wave23  # noqa: E402
from oluray.pipelines import queries_wave24 as _wave24  # noqa: E402
from oluray.pipelines import queries_wave25 as _wave25  # noqa: E402
from oluray.pipelines import queries_wave26 as _wave26  # noqa: E402
from oluray.pipelines import queries_wave27 as _wave27  # noqa: E402
from oluray.pipelines import queries_wave28 as _wave28  # noqa: E402
from oluray.pipelines import queries_wave29 as _wave29  # noqa: E402
from oluray.pipelines import queries_wave30 as _wave30  # noqa: E402
from oluray.pipelines import queries_wave31 as _wave31  # noqa: E402
from oluray.pipelines import queries_wave32 as _wave32  # noqa: E402
from oluray.pipelines import queries_wave33 as _wave33  # noqa: E402
from oluray.pipelines import queries_wave34 as _wave34  # noqa: E402
from oluray.pipelines import queries_wave35 as _wave35  # noqa: E402
from oluray.pipelines import queries_wave36 as _wave36  # noqa: E402
from oluray.pipelines import queries_wave37 as _wave37  # noqa: E402
from oluray.pipelines import queries_wave38 as _wave38  # noqa: E402
from oluray.pipelines import queries_wave39 as _wave39  # noqa: E402
from oluray.pipelines import queries_wave40 as _wave40  # noqa: E402
from oluray.pipelines import queries_wave41 as _wave41  # noqa: E402
from oluray.pipelines import queries_wave42 as _wave42  # noqa: E402
from oluray.pipelines import queries_wave43 as _wave43  # noqa: E402
from oluray.pipelines import queries_wave44 as _wave44  # noqa: E402
from oluray.pipelines import queries_wave45 as _wave45  # noqa: E402
from oluray.pipelines import queries_wave46 as _wave46  # noqa: E402
from oluray.pipelines import queries_wave47 as _wave47  # noqa: E402
from oluray.pipelines import queries_wave48 as _wave48  # noqa: E402
from oluray.pipelines import queries_wave49 as _wave49  # noqa: E402
from oluray.pipelines import queries_wave50 as _wave50  # noqa: E402
from oluray.pipelines import queries_wave51 as _wave51  # noqa: E402
from oluray.pipelines import queries_wave52 as _wave52  # noqa: E402
from oluray.pipelines import queries_wave53 as _wave53  # noqa: E402

for _w in (_wave5, _wave6, _wave7, _wave8, _wave9, _wave10, _wave11,
           _wave12, _wave13, _wave14, _wave15, _wave16, _wave17,
           _wave18, _wave19, _wave20, _wave21, _wave22, _wave23,
           _wave24, _wave25, _wave26, _wave27, _wave28, _wave29,
           _wave30, _wave31, _wave32, _wave33, _wave34, _wave35,
           _wave36, _wave37, _wave38, _wave39, _wave40, _wave41,
           _wave42, _wave43, _wave44, _wave45, _wave46, _wave47,
           _wave48, _wave49, _wave50, _wave51, _wave52, _wave53):
    QUERIES.update(_w.QUERIES)
    ORACLE.update(_w.ORACLE)
