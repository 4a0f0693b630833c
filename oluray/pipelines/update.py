"""Full update pipeline: apply a merged OsmChange window to a
bucketed snapshot store — the reference's complete run loop
(`/root/reference/src/osm/OsmChangeHandler.cpp:74-117`) re-expressed
as Ray Data dataflow:

  merged window (O1, `diff.merge_latest_wins`) ─► per-kind op sets
      (M1/ST1)
      ─► impact closure from the reverse index (J1-J3, anti-join vs
         change file)
      ─► context fetch (J5-J7 member refs + node locations) from
         store point reads overlaid with the window's payloads
      ─► geometry recompute (way centroid/cell — replaces the
         osm2rdf delegation) ─► geo delta rows
      ─► run counters (A4)

The snapshot delete+insert itself (modify = delete+reinsert,
`:444-447,578-590`) is the caller's commit step,
`SnapshotStore.apply_window`. All set logic is size-probed semi/anti
joins (the twelve in-heap id sets of
`include/osm/OsmChangeHandler.h:55-89` become `closure.KeySet`s:
broadcast key arrays while a window's changed-id set fits
`broadcast_limit`, hash-partitioned `joins.semi_join` shuffles above
it — the 100 TB backfill window switches automatically, r3); nothing
materializes the snapshot on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from oluray.functions import geo
from oluray.stages import closure, joins


_DIFF_CACHE_ABSENT = object()


def _diff_frame(merged: ray.data.Dataset, limit: int):
    """(kind, op, id) of a broadcast-sized merged diff, pulled ONCE
    and cached on the dataset object: a window calls `_keys_of` ~10
    times (change-file sets, touched sets, the store loop's apply
    keys, index staging keys) and each used to run its own
    distinct-combiner pipeline over the same materialized diff —
    pure fixed Ray-job overhead at minutely-window scale. Diffs
    beyond `limit` rows return None (callers keep the distributed
    path)."""
    cached = getattr(merged, "_oluray_diff_cache", _DIFF_CACHE_ABSENT)
    if cached is not _DIFF_CACHE_ABSENT:
        return cached
    frame = None
    if merged.count() <= limit:
        import pandas as pd

        parts = list(
            merged.select_columns(["kind", "op", "id"]).iter_batches(
                batch_format="pandas"
            )
        )
        frame = (
            pd.concat(parts, ignore_index=True)
            if parts else
            pd.DataFrame({"kind": pd.Series([], dtype=object),
                          "op": pd.Series([], dtype=object),
                          "id": pd.Series([], dtype="int64")})
        )
    try:
        merged._oluray_diff_cache = frame
    except Exception:
        pass
    return frame


def _keys_of(
    merged: ray.data.Dataset, kind: str, ops: tuple[str, ...],
    limit: int = closure.DEFAULT_BROADCAST_KEY_LIMIT,
) -> closure.KeySet:
    frame = _diff_frame(merged, limit)
    if frame is not None:
        m = (frame["kind"].to_numpy() == kind) & np.isin(
            frame["op"].to_numpy(), list(ops)
        )
        return closure.KeySet.from_array(
            frame["id"].to_numpy()[m].astype(np.int64), limit
        )
    sel = merged.map_batches(
        lambda t, kind=kind, ops=ops: t.filter(
            pc.and_(pc.equal(t["kind"], kind), pc.is_in(t["op"], value_set=pa.array(ops)))
        ),
        batch_format="pyarrow",
    )
    return closure.distinct_keys(sel, "id", limit=limit)


def _payload_nodes(merged: ray.data.Dataset) -> ray.data.Dataset:
    """created|modified node rows -> nodes-schema rows."""

    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.equal(t["kind"], "node"),
                pc.is_in(t["op"], value_set=pa.array(["create", "modify"])),
            )
        )
        p = t.column("payload").combine_chunks()
        return pa.table(
            {
                "id": t["id"],
                "lon": p.field("lon"),
                "lat": p.field("lat"),
                "tags": p.field("tags"),
                "version": t["version"],
                "ts": t["ts"],
            }
        )

    return merged.map_batches(fn, batch_format="pyarrow")


def _payload_ways(merged: ray.data.Dataset) -> ray.data.Dataset:
    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.equal(t["kind"], "way"),
                pc.is_in(t["op"], value_set=pa.array(["create", "modify"])),
            )
        )
        p = t.column("payload").combine_chunks()
        return pa.table(
            {
                "id": t["id"],
                "nd_refs": p.field("nd_refs"),
                "tags": p.field("tags"),
                "version": t["version"],
                "ts": t["ts"],
            }
        )

    return merged.map_batches(fn, batch_format="pyarrow")


def _payload_relations(merged: ray.data.Dataset) -> ray.data.Dataset:
    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.equal(t["kind"], "relation"),
                pc.is_in(t["op"], value_set=pa.array(["create", "modify"])),
            )
        )
        p = t.column("payload").combine_chunks()
        tags = p.field("tags")
        # relation `type` comes from its tags (multipolygon predicate
        # M2) — vectorized map lookup, not a to_pylist() row loop
        types = pc.map_lookup(tags, query_key="type", occurrence="first")
        return pa.table(
            {
                "id": t["id"],
                "members": p.field("members"),
                "type": types,
                "tags": tags,
                "version": t["version"],
                "ts": t["ts"],
            }
        )

    return merged.map_batches(fn, batch_format="pyarrow")


def _write_update_artifact(
    merged: ray.data.Dataset,
    loc_src: ray.data.Dataset,
    out_dir: str,
    debug_sets: dict | None = None,
) -> dict:
    """FILE / DEBUG_FILE output-mode sink (the reference's
    `SparqlOutput::FILE` / `DEBUG_FILE`,
    `/root/reference/src/sparql/SparqlWrapper.cpp:46-110`,
    `include/config/Config.h:55-63`: updates are WRITTEN, not sent):
    the window's delete+insert sets land as a deterministic artifact —
    `deletes.parquet` (kind, id — sorted) and `inserts.ttl`
    (osm2rdf-parity TTL blocks of the created/modified elements,
    sorted by kind then id; the insert-triples analog of the
    reference's `QueryWriter` insert text,
    `src/sparql/QueryWriter.cpp:26-110`). DEBUG_FILE additionally
    dumps the read-side id sets under `queries/` (the reference logs
    its SELECT queries too). Everything here is DIFF-sized."""
    import json
    import os

    import pyarrow.parquet as pq

    from oluray.stages import ttl as ttls

    os.makedirs(out_dir, exist_ok=True)
    mt = merged.to_pandas()  # diff-sized by contract
    deletes = (
        mt[["kind", "id"]].sort_values(["kind", "id"]).reset_index(drop=True)
    )
    pq.write_table(
        pa.Table.from_pandas(deletes, preserve_index=False),
        os.path.join(out_dir, "deletes.parquet"),
    )
    # emit only the kinds the window inserts (an empty payload
    # dataset has no runtime schema and cannot feed the way join)
    ins = mt[mt["op"].isin(["create", "modify"])]
    kinds = set(ins["kind"])
    if kinds:
        blocks = ttls.emit_ttl(
            nodes=_payload_nodes(merged) if "node" in kinds else None,
            ways=_payload_ways(merged) if "way" in kinds else None,
            relations=(
                _payload_relations(merged) if "relation" in kinds else None
            ),
            missing="skip",
            way_loc_src=loc_src,
        )
        bt = blocks.to_pandas().sort_values(["kind", "id"])
    else:  # delete-only window: header-only inserts file
        bt = pd.DataFrame({"kind": [], "id": [], "text": []})
    from oluray.functions.ttl import TTL_PREFIXES

    with open(os.path.join(out_dir, "inserts.ttl"), "w",
              encoding="utf-8") as f:
        f.write("\n".join(TTL_PREFIXES) + "\n")
        for txt in bt["text"]:
            f.write(txt + "\n")
    man = {
        "mode": "debug_file" if debug_sets else "file",
        "delete_rows": int(len(deletes)),
        "insert_blocks": int(len(bt)),
    }
    if debug_sets:
        qdir = os.path.join(out_dir, "queries")
        os.makedirs(qdir, exist_ok=True)
        for name, ks in debug_sets.items():
            arr = np.sort(np.asarray(ks.to_array(), dtype=np.int64))
            pq.write_table(
                pa.table({"id": pa.array(arr)}),
                os.path.join(qdir, f"{name}.parquet"),
            )
        man["query_sets"] = sorted(debug_sets)
    with open(os.path.join(out_dir, "_update.json"), "w") as f:
        json.dump(man, f, sort_keys=True)
    return man


def apply_update(
    merged: ray.data.Dataset,
    store,
    ref_index,
    cell_res: int = 12,
    broadcast_limit: int = closure.DEFAULT_BROADCAST_KEY_LIMIT,
    area_res: int = 8,
    output_mode: str = "endpoint",
    output_dir: str | None = None,
) -> dict:
    """Apply one latest-wins-merged change window (`diff.
    merge_latest_wins`, ideally materialized: it is consumed ~10 times
    below) against a `state.snapshot.SnapshotStore` and the
    `state.refindex.RefIndex` built over the same snapshot. Returns
    `geo_delta` (recomputed geometry rows — centroid + cell + ENVELOPE
    — for changed + impacted elements), `area_cover` (cell cover of
    touched multipolygon relations' assembled outer rings at
    `area_res`), `hull_delta` (convex hull + min-area OBB vertex lists
    per touched way/relation), the impacted id sets and `counts` (A4).

    The window runs DIFF-PROPORTIONALLY: impact closure answers from
    the reverse index's pruned buckets (the reference's SPARQL store
    answers J1-J3 from its triple indexes, `src/sparql/QueryWriter.cpp:
    169-220`), and context rows (member ways/nodes of touched
    elements) come from `store.lookup` point reads overlaid with this
    window's payloads. Nothing here mutates the store or the index:
    the caller commits the delete+insert (`store.apply_window`) and
    the index maintenance after consuming the delta
    (`stream.apply_merged_window`).

    `broadcast_limit`: id sets up to this many keys ride as broadcast
    arrays (zero shuffles — every minutely window); larger sets stay
    distributed and every membership filter switches to a
    hash-partitioned semi join (the backfill-window path)."""
    if output_mode not in ("endpoint", "file", "debug_file"):
        raise ValueError(f"unknown output_mode {output_mode!r}")
    if output_mode != "endpoint" and output_dir is None:
        raise ValueError(f"output_mode={output_mode!r} requires output_dir")
    BL = broadcast_limit
    nodes_sch = store.schema("nodes")
    ways_sch = store.schema("ways")
    rels_sch = store.schema("relations")

    # membership sets (ST1) as size-probed KeySets
    node_in_cf = _keys_of(merged, "node", ("create", "modify", "delete"), BL)
    way_in_cf = _keys_of(merged, "way", ("create", "modify", "delete"), BL)
    rel_in_cf = _keys_of(merged, "relation", ("create", "modify", "delete"), BL)
    modified_nodes = _keys_of(merged, "node", ("modify", "delete"), BL)

    # impact closure on the NEW snapshot (geometry of unchanged ways/
    # relations referencing changed nodes must be recomputed), from the
    # reverse index's pruned buckets — changed elements are excluded by
    # the in-change-file anti sets, so stale index entries for THIS
    # window's owners can't leak in (the index is maintained at window
    # end, after closure)
    ways_geo = ref_index.owners_of(
        modified_nodes, ("node",), "way", exclude=way_in_cf, limit=BL
    )
    rels_geo = ref_index.owners_of(
        modified_nodes, ("node",), "relation", exclude=rel_in_cf, limit=BL,
    ).union(ref_index.owners_of(
        ways_geo.union(way_in_cf), ("way",), "relation",
        exclude=rel_in_cf, limit=BL,
    ))

    # context fetch + geometry recompute (replaces the osm2rdf
    # delegation): explode way refs -> hash join with node locations
    # -> segmented in-order mean (`np.add.reduceat`)
    touched_ways = ways_geo.union(
        _keys_of(merged, "way", ("create", "modify"), BL)
    )
    touched_rels = rels_geo.union(
        _keys_of(merged, "relation", ("create", "modify"), BL)
    )

    def _overlay(kind, ids_ks, payload, changed_ks, sch):
        """Post-update rows of `kind` restricted to `ids_ks`: store
        point reads (bucket-pruned) minus every id changed this
        window, plus this window's payload rows — the post-update
        snapshot slice without a snapshot-sized Dataset ever
        existing."""
        base = closure.anti_join(
            store.lookup(kind, ids_ks), "id", changed_ks, schema=sch
        )
        pay = closure.semi_join(payload, "id", ids_ks, schema=sch)
        return base.union(pay)

    # relation members (J5) from the touched-relation point reads:
    # node refs need locations, way refs need centroids — so the
    # centroid-target way set is touched ways PLUS unchanged member
    # ways of impacted relations (context only). Both are pinned: the
    # slice feeds the member explode AND the multipolygon filter, the
    # explode feeds the node/way/outer member splits
    rel_touched = _overlay(
        "relations", touched_rels, _payload_relations(merged),
        rel_in_cf, rels_sch,
    ).materialize()
    rel_mem = closure.explode_relation_members(
        rel_touched
    ).materialize()  # (rel_id, ref, type, role, pos)
    rel_node_refs = closure.distinct_keys(
        rel_mem.map_batches(
            lambda b: b.filter(pc.equal(b["type"], "node")),
            batch_format="pyarrow",
        ), "ref", limit=BL,
    )
    rel_way_refs = closure.distinct_keys(
        rel_mem.map_batches(
            lambda b: b.filter(pc.equal(b["type"], "way")),
            batch_format="pyarrow",
        ), "ref", limit=BL,
    )
    centroid_ways = touched_ways.union(rel_way_refs)
    ways_sel = _overlay(
        "ways", centroid_ways, _payload_ways(merged), way_in_cf, ways_sch,
    ).materialize()
    exploded = closure.explode_way_refs(ways_sel)  # (way_id, node_id, pos)
    member_nodes = closure.distinct_keys(exploded, "node_id", limit=BL)
    need_nodes = member_nodes.union(rel_node_refs)
    # pinned: locs feeds the way-point join AND the relation node-
    # member join
    locs = _overlay(
        "nodes", need_nodes, _payload_nodes(merged), node_in_cf, nodes_sch,
    ).map_batches(
        lambda t: t.select(["id", "lon", "lat"]), batch_format="pyarrow"
    ).materialize()  # (id, lon, lat)
    # static schema hints: either side can be EMPTY (e.g. a node-only
    # diff touching no ways), and Ray drops empty map-output blocks,
    # leaving no runtime schema to join on
    _EXPLODED = pa.schema(
        [("way_id", pa.int64()), ("node_id", pa.int64()), ("pos", pa.int64())]
    )
    _LOCS = pa.schema([("id", pa.int64()), ("lon", pa.float64()), ("lat", pa.float64())])
    _EXT = [("min_lon", pa.float64()), ("min_lat", pa.float64()),
            ("max_lon", pa.float64()), ("max_lat", pa.float64())]
    _CENT = pa.schema(
        [("way_id", pa.int64()), ("lon", pa.float64()), ("lat", pa.float64())]
        + _EXT
    )
    _MEM = pa.schema([("rel_id", pa.int64()), ("ref", pa.int64()), ("pos", pa.int64())])
    wloc = joins.hash_join(
        exploded, locs, on="node_id", right_on="id", num_partitions=16,
        left_schema=_EXPLODED, right_schema=_LOCS,
    ).materialize()
    # inner join: missing member nodes tolerated (J7 missing-ok).
    # materialize: wloc is DIFF-scale (member nodes of touched ways)
    # and now has four consumers (way centroids, ring assembly, way
    # hulls, relation member points) — pinning beats re-running the
    # explode+join lineage per consumer

    def _seg_stats(df: pd.DataFrame, key: str) -> pd.DataFrame:
        """Per-key centroid AND envelope of member points in member-
        position order — `np.add.reduceat` sums sequentially within
        each segment, so the mean is bit-identical to the brute-force
        in-order mean; min/max reduceats in the SAME pass give the
        envelope (osm2rdf emits `envelope` per element,
        `/root/reference/tests/data/node.ttl:33-37` — r3). Member
        rows may carry their own extents (way members of a relation
        contribute their full envelope, not just their centroid);
        point members fall back to lon/lat."""
        if len(df) == 0:
            cols = {key: pd.Series([], dtype="int64")}
            for c in ("lon", "lat", "min_lon", "min_lat", "max_lon", "max_lat"):
                cols[c] = pd.Series([], dtype="float64")
            return pd.DataFrame(cols)
        df = df.sort_values([key, "pos"], kind="mergesort")
        keys = df[key].to_numpy()
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        counts = np.diff(np.r_[starts, len(keys)])
        lonv = df["lon"].to_numpy()
        latv = df["lat"].to_numpy()
        mnlo = df["min_lon"].to_numpy() if "min_lon" in df.columns else lonv
        mnla = df["min_lat"].to_numpy() if "min_lat" in df.columns else latv
        mxlo = df["max_lon"].to_numpy() if "max_lon" in df.columns else lonv
        mxla = df["max_lat"].to_numpy() if "max_lat" in df.columns else latv
        return pd.DataFrame(
            {
                key: keys[starts],
                "lon": np.add.reduceat(lonv, starts) / counts,
                "lat": np.add.reduceat(latv, starts) / counts,
                "min_lon": np.minimum.reduceat(mnlo, starts),
                "min_lat": np.minimum.reduceat(mnla, starts),
                "max_lon": np.maximum.reduceat(mxlo, starts),
                "max_lat": np.maximum.reduceat(mxla, starts),
            }
        )

    way_cent = joins.partitioned_map(
        wloc.select_columns(["way_id", "pos", "lon", "lat"]),
        ["way_id"], lambda df: _seg_stats(df, "way_id"), num_partitions=16,
    ).materialize()
    # (way_id, centroid, envelope) for every centroid-target way —
    # pinned: consumed by way_delta AND the relation way-member join

    def _delta_rows(kind: str, id_col: str):
        def fn(t: pa.Table) -> pa.Table:
            lon = t["lon"].to_numpy(zero_copy_only=False)
            lat = t["lat"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "kind": pa.array([kind] * t.num_rows),
                    "id": t[id_col].cast(pa.int64()),
                    "lon": t["lon"],
                    "lat": t["lat"],
                    "cell": pa.array(geo.cell_encode(lon, lat, cell_res)),
                    "min_lon": t["min_lon"],
                    "min_lat": t["min_lat"],
                    "max_lon": t["max_lon"],
                    "max_lat": t["max_lat"],
                }
            )

        return fn

    way_delta = closure.semi_join(
        way_cent, "way_id", touched_ways, schema=_CENT
    ).map_batches(_delta_rows("way", "way_id"), batch_format="pyarrow")

    # relation geometry recompute (the reference rebuilds relations
    # through J5/J9 dummy elements + osm2rdf, `src/osm/
    # OsmChangeHandler.cpp:343-424`, `src/osm/Osm2ttl.cpp:38-109`):
    # centroid over member points in member-position order, where a
    # node member contributes its location and a way member its
    # centroid; members of type relation are skipped (J4 disabled in
    # the reference too)
    node_mem = rel_mem.map_batches(
        lambda b: b.filter(pc.equal(b["type"], "node")), batch_format="pyarrow"
    )
    way_mem = rel_mem.map_batches(
        lambda b: b.filter(pc.equal(b["type"], "way")), batch_format="pyarrow"
    )
    def _point_extents(t: pa.Table) -> pa.Table:
        for c_src, c_dst in (("lon", "min_lon"), ("lat", "min_lat"),
                             ("lon", "max_lon"), ("lat", "max_lat")):
            t = t.append_column(c_dst, t[c_src])
        return t

    node_pts = joins.hash_join(
        node_mem.select_columns(["rel_id", "ref", "pos"]), locs,
        on="ref", right_on="id", num_partitions=16,
        left_schema=_MEM, right_schema=_LOCS,
    ).select_columns(["rel_id", "pos", "lon", "lat"]).map_batches(
        _point_extents, batch_format="pyarrow"
    ).materialize()
    # pinned: feeds the relation centroid pass AND the hull source —
    # without the pin the node-member x locations shuffle runs twice
    way_pts = joins.hash_join(
        way_mem.select_columns(["rel_id", "ref", "pos"]), way_cent,
        on="ref", right_on="way_id", num_partitions=16,
        left_schema=_MEM, right_schema=_CENT,
    ).select_columns(
        ["rel_id", "pos", "lon", "lat",
         "min_lon", "min_lat", "max_lon", "max_lat"]
    )
    rel_cent = joins.partitioned_map(
        node_pts.union(way_pts), ["rel_id"],
        lambda df: _seg_stats(df, "rel_id"), num_partitions=16,
    )
    rel_delta = rel_cent.map_batches(
        _delta_rows("relation", "rel_id"), batch_format="pyarrow"
    )

    # multipolygon AREA geometry (M2 + the reference's _modifiedAreas
    # tracking, `src/osm/OsmChangeHandler.cpp:166-197`; osm2rdf emits
    # the assembled area, `tests/data/relation.ttl`): outer rings
    # stitched from member-way node sequences, covered with cells —
    # "which tiles does this changed AREA touch", not just where its
    # centroid lands (r3)
    mp_rels = rel_touched.map_batches(
        lambda t: t.filter(pc.equal(t["type"], "multipolygon")),
        batch_format="pyarrow",
    )
    mp_keys = closure.distinct_keys(mp_rels, "id", limit=BL)
    outer_mem = rel_mem.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.equal(t["type"], "way"),
                pc.is_in(t["role"], value_set=pa.array(["outer", ""])),
            )
        ),
        batch_format="pyarrow",
    )
    outer_mem = closure.semi_join(
        outer_mem, "rel_id", mp_keys, schema=closure.EXPLODED_MEMBERS_SCHEMA
    )
    _WLOC = pa.schema(
        [("way_id", pa.int64()), ("node_id", pa.int64()), ("pos", pa.int64()),
         ("lon", pa.float64()), ("lat", pa.float64())]
    )
    ring_rows = joins.hash_join(
        outer_mem.select_columns(["rel_id", "ref", "pos"]), wloc,
        on="ref", right_on="way_id", num_partitions=16,
        left_schema=_MEM, right_schema=_WLOC,
    )  # (rel_id, ref, pos [member], node_id, pos_r [within-way], lon, lat)

    def area_cells(df: pd.DataFrame) -> pd.DataFrame:
        out_rel: list[np.ndarray] = []
        out_ring: list[np.ndarray] = []
        out_cell: list[np.ndarray] = []
        # per relation: member ways in member order, each way's nodes
        # in way order -> stitch rings by endpoint NODE ID -> cover
        for rid, g in df.groupby("rel_id", sort=False):
            g = g.sort_values(["pos", "pos_r"], kind="mergesort")
            segs = [
                (gg["node_id"].to_numpy(), gg["lon"].to_numpy(), gg["lat"].to_numpy())
                for _, gg in g.groupby("pos", sort=False)
            ]
            for ri, (rx, ry) in enumerate(geo.assemble_rings(segs)):
                cells = geo.polygon_cover(rx, ry, area_res)
                out_rel.append(np.full(len(cells), rid, dtype=np.int64))
                out_ring.append(np.full(len(cells), ri, dtype=np.int64))
                out_cell.append(cells)
        if not out_rel:
            return pd.DataFrame(
                {"rel_id": pd.Series([], dtype="int64"),
                 "ring_id": pd.Series([], dtype="int64"),
                 "cell": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame(
            {"rel_id": np.concatenate(out_rel),
             "ring_id": np.concatenate(out_ring),
             "cell": np.concatenate(out_cell)}
        )

    area_cover = joins.partitioned_map(
        ring_rows, ["rel_id"], area_cells, num_partitions=16
    )

    # convex hull + minimum-area OBB per touched way/relation (the
    # rest of osm2rdf's derived geometry, `tests/data/node.ttl:33-37`
    # — envelope already rides in geo_delta; a node's hull/obb
    # degenerate to its point so nodes are not emitted). Relation
    # hulls use FULL member geometry: node members' locations plus
    # every node of member ways (not just way centroids)
    def _hull_rows(key: str):
        _H = pa.schema(
            [("kind", pa.string()), ("id", pa.int64()),
             ("hull_lon", pa.list_(pa.float64())),
             ("hull_lat", pa.list_(pa.float64())),
             ("obb_lon", pa.list_(pa.float64())),
             ("obb_lat", pa.list_(pa.float64()))]
        )
        kind = "way" if key == "way_id" else "relation"

        def fn(df: pd.DataFrame) -> pa.Table:
            ids, hlo, hla, olo, ola = [], [], [], [], []
            for kid, g in df.groupby(key, sort=False):
                hx, hy = geo.convex_hull(g["lon"].to_numpy(), g["lat"].to_numpy())
                ox, oy = geo.min_area_obb(hx, hy)
                ids.append(kid)
                hlo.append(hx)
                hla.append(hy)
                olo.append(ox)
                ola.append(oy)
            return pa.table(
                {
                    "kind": pa.array([kind] * len(ids), pa.string()),
                    "id": pa.array(np.asarray(ids, dtype=np.int64)),
                    "hull_lon": pa.array(hlo, pa.list_(pa.float64())),
                    "hull_lat": pa.array(hla, pa.list_(pa.float64())),
                    "obb_lon": pa.array(olo, pa.list_(pa.float64())),
                    "obb_lat": pa.array(ola, pa.list_(pa.float64())),
                },
                schema=_H,
            )

        return fn

    way_hull_src = closure.semi_join(
        wloc, "way_id", touched_ways, schema=_WLOC
    ).select_columns(["way_id", "lon", "lat"])
    way_hulls = joins.partitioned_map(
        way_hull_src, ["way_id"], _hull_rows("way_id"), num_partitions=16
    )
    rel_way_pts_full = joins.hash_join(
        way_mem.select_columns(["rel_id", "ref", "pos"]), wloc,
        on="ref", right_on="way_id", num_partitions=16,
        left_schema=_MEM, right_schema=_WLOC,
    ).select_columns(["rel_id", "lon", "lat"])
    rel_hull_src = node_pts.select_columns(["rel_id", "lon", "lat"]).union(
        rel_way_pts_full
    )
    rel_hulls = joins.partitioned_map(
        rel_hull_src, ["rel_id"], _hull_rows("rel_id"), num_partitions=16
    )
    hull_delta = way_hulls.union(rel_hulls)

    def node_delta_fn(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "kind": pa.array(["node"] * t.num_rows),
                "id": t["id"],
                "lon": t["lon"],
                "lat": t["lat"],
                "cell": pa.array(geo.cell_encode(lon, lat, cell_res)),
            }
        )
        return _point_extents(t)

    # the post-update rows of the created/modified nodes are exactly
    # this window's payload rows
    node_delta = _payload_nodes(merged).map_batches(
        node_delta_fn, batch_format="pyarrow"
    )

    geo_delta = node_delta.union(way_delta).union(rel_delta)

    counts = merged.groupby(["op", "kind"]).count()

    update_artifact = None
    if output_mode != "endpoint":
        # FILE / DEBUG_FILE: the update is WRITTEN, not applied — the
        # caller leaves the store and index untouched, exactly like the
        # reference skipping request.perform() for updates
        # (`SparqlWrapper.cpp:70-72`). Reads (geo_delta & co) still
        # run in both modes, as the reference's queries do. The TTL
        # emission's location source is the window-scoped slice of the
        # post-update snapshot: payload nodes plus store point reads of
        # the changed ways' other member nodes
        refs = closure.distinct_keys(
            closure.explode_way_refs(_payload_ways(merged)),
            "node_id", limit=BL,
        )
        ctx = store.lookup("nodes", refs, columns=["id", "lon", "lat"])
        loc_src = _payload_nodes(merged).select_columns(
            ["id", "lon", "lat"]
        ).union(closure.anti_join(
            ctx, "id", node_in_cf, schema=closure.LOCATIONS_SCHEMA,
        ))
        update_artifact = _write_update_artifact(
            merged, loc_src, output_dir,
            debug_sets=(
                {"impacted_ways": ways_geo,
                 "impacted_relations": rels_geo}
                if output_mode == "debug_file" else None
            ),
        )

    return {
        "update_artifact": update_artifact,
        "geo_delta": geo_delta,
        "area_cover": area_cover,  # (rel_id, ring_id, cell) for
        # touched multipolygon relations' assembled outer rings
        "hull_delta": hull_delta,  # (kind, id, hull/obb vertex lists)
        # per touched way/relation — full member geometry
        # KeySets (`.tolist()` / `.to_array()` for broadcast-sized
        # sets; `.ds` to consume a backfill-scale set distributed)
        "impacted_ways": ways_geo,
        "impacted_relations": rels_geo,
        "counts": counts,
    }


def derive_node_changes(
    old_nodes: ray.data.Dataset,
    new_nodes: ray.data.Dataset,
    ts_ms: int = 0,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Derive the node change set BETWEEN two snapshots as a `changes`
    Dataset (CHANGES_SCHEMA) — `diff.snapshot_diff`'s classification
    carried to full OsmChange semantics: creates/modifies ship the NEW
    (lon, lat) payload, deletes ship the id only. Round-trip contract
    (tested): applying `derive_node_changes(old, new)` as one window
    (`stream.apply_changes_window`) to a store holding `old` leaves
    `new`'s node set in the store exactly — the reference's consumer
    loop and its producer (osmium-style diff derivation) in one
    engine."""
    from oluray.sources.fixtures import CHANGES_SCHEMA
    from oluray.stages import joins

    sch = pa.schema(
        [("id", pa.int64()), ("lon", pa.float64()), ("lat", pa.float64())]
    )

    def mark(flag: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.select(["id", "lon", "lat"])
            return t.append_column(
                flag, pa.array(np.ones(t.num_rows, np.int8))
            )

        return fn

    old_m = old_nodes.map_batches(mark("__old"), batch_format="pyarrow")
    new_m = new_nodes.map_batches(mark("__new"), batch_format="pyarrow")
    joined = joins.hash_join(
        old_m, new_m, on="id", how="outer",
        num_partitions=num_partitions, suffix="_new",
        left_schema=sch.append(pa.field("__old", pa.int8())),
        right_schema=sch.append(pa.field("__new", pa.int8())),
    )

    def to_changes(df: pd.DataFrame) -> pa.Table:
        has_old = df["__old"].notna().to_numpy()
        has_new = df["__new"].notna().to_numpy()
        moved = (
            (df["lon"] != df["lon_new"]) | (df["lat"] != df["lat_new"])
        ).to_numpy()
        op = np.where(~has_old, "create",
                      np.where(~has_new, "delete", "modify"))
        keep = ~has_old | ~has_new | moved
        sub = df[keep]
        opk = op[keep]
        newpay = opk != "delete"
        rows = pa.table(
            {
                "op": pa.array(opk, pa.string()),
                "kind": pa.array(["node"] * len(sub), pa.string()),
                "id": pa.array(sub["id"].to_numpy(np.int64)),
                "version": pa.array(np.ones(len(sub), np.int64)),
                "ts": pa.array(
                    np.full(len(sub), ts_ms, np.int64), pa.timestamp("ms")
                ),
                "payload": pa.array(
                    [
                        {"lon": lo, "lat": la} if p else
                        {"lon": None, "lat": None}
                        for p, lo, la in zip(
                            newpay,
                            sub["lon_new"].to_numpy(),
                            sub["lat_new"].to_numpy(),
                        )
                    ],
                    CHANGES_SCHEMA.field("payload").type,
                ),
            }
        )
        return rows.cast(CHANGES_SCHEMA)

    return joined.map_batches(to_changes, batch_format="pandas")
