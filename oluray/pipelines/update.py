"""Full update pipeline: apply a merged OsmChange window to a
bucketed snapshot store — the reference's complete run loop
(`src/osm/OsmChangeHandler.cpp:74-117`):

  merged window (O1, `diff.merge_latest_wins`) ─► per-kind op sets
      (M1/ST1)
      ─► impact closure from the reverse index (J1-J3, anti-join vs
         change file)
      ─► context fetch (J5-J7 member refs + node locations) from
         store point reads overlaid with the window's payloads
      ─► geometry recompute (way centroid/cell — replaces the
         osm2rdf delegation) ─► geo delta rows
      ─► run counters (A4)

Every step is a module-level kernel (`pa.Table -> pa.Table`, or a
pandas function for the per-key geometry) run by one of two
compositions of the same step list, chosen by one observable
property — the merged row count against `closure.DRIVER_WINDOW_ROWS`
(and `broadcast_limit`, when that is lower):

- **driver** (`_DriverOps`): a `pa.Table` or materialized window
  that fits — every minutely window and a 100k-move backfill — runs
  on driver `pa.Table`s: `pa.Table.join`, `pc.is_in` set filters,
  each per-key kernel once over the whole frame. Context comes from
  `store.lookup_table` / `ref_index.owners_of`, which read the pruned
  buckets on the driver. No Ray Data execution: `update_window`
  returns the geo delta as a table.
- **distributed** (`_DatasetOps`): larger windows keep Ray Data
  dataflow — hash-partitioned `joins.hash_join`, size-probed
  `closure.KeySet` semi/anti joins, per-key kernels per hash
  partition (`joins.partitioned_map`); nothing snapshot-sized reaches
  the driver.

`apply_update` is `update_window` with its frames as Datasets, plus
the window's run counters.

The snapshot delete+insert itself (modify = delete+reinsert,
`:444-447,578-590`) is the caller's commit step
(`stream.apply_merged_window`), fed by `window_changes`: the store
and the index append it as delta files (`state.lsm`). Derived
geometry that no window consumes — convex hull / min-area OBB and
multipolygon area cover — is computed on request by
`derived_geometry`.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from oluray.functions import geo
from oluray.stages import closure, joins

_ALL_OPS = ("create", "modify", "delete")
_UPSERT = ("create", "modify")

# static schema hints for the distributed composition: either side of
# a join can be EMPTY (e.g. a node-only diff touching no ways), and
# Ray drops empty map-output blocks, leaving no runtime schema
_EXPLODED = closure.EXPLODED_WAYS_SCHEMA
_LOCS = closure.LOCATIONS_SCHEMA
_EXT = [("min_lon", pa.float64()), ("min_lat", pa.float64()),
        ("max_lon", pa.float64()), ("max_lat", pa.float64())]
_CENT = pa.schema(
    [("way_id", pa.int64()), ("lon", pa.float64()), ("lat", pa.float64())]
    + _EXT
)
_MEM = pa.schema(
    [("rel_id", pa.int64()), ("ref", pa.int64()), ("pos", pa.int64())]
)
_WLOC = pa.schema(
    [("way_id", pa.int64()), ("node_id", pa.int64()), ("pos", pa.int64()),
     ("lon", pa.float64()), ("lat", pa.float64())]
)
_HULL = pa.schema(
    [("kind", pa.string()), ("id", pa.int64()),
     ("hull_lon", pa.list_(pa.float64())),
     ("hull_lat", pa.list_(pa.float64())),
     ("obb_lon", pa.list_(pa.float64())),
     ("obb_lat", pa.list_(pa.float64()))]
)
# context columns read per kind (the overlay's projection)
_CTX_COLS = {"nodes": ["id", "lon", "lat"], "ways": ["id", "nd_refs"],
             "relations": ["id", "members", "type"]}


# -- kernels -----------------------------------------------------------


def changed_rows(t: pa.Table, kind: str, ops: tuple[str, ...]) -> pa.Table:
    """Merged-window rows of `kind` whose op is in `ops`."""
    return t.filter(pc.and_(
        pc.equal(t["kind"], kind),
        pc.is_in(t["op"], value_set=pa.array(list(ops), pa.string())),
    ))


def node_payload(t: pa.Table) -> pa.Table:
    """created|modified node rows -> nodes-schema rows."""
    t = changed_rows(t, "node", _UPSERT)
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


def way_payload(t: pa.Table) -> pa.Table:
    """created|modified way rows -> ways-schema rows."""
    t = changed_rows(t, "way", _UPSERT)
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


def relation_payload(t: pa.Table) -> pa.Table:
    """created|modified relation rows -> relations-schema rows."""
    t = changed_rows(t, "relation", _UPSERT)
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


# store kind -> (change-row kind, payload kernel)
_PAYLOADS = {"nodes": ("node", node_payload), "ways": ("way", way_payload),
             "relations": ("relation", relation_payload)}


def _payload_nodes(merged: ray.data.Dataset) -> ray.data.Dataset:
    return merged.map_batches(node_payload, batch_format="pyarrow")


def _payload_ways(merged: ray.data.Dataset) -> ray.data.Dataset:
    return merged.map_batches(way_payload, batch_format="pyarrow")


def _payload_relations(merged: ray.data.Dataset) -> ray.data.Dataset:
    return merged.map_batches(relation_payload, batch_format="pyarrow")


def members_of_type(t: pa.Table, typ: str) -> pa.Table:
    return t.filter(pc.equal(t["type"], typ))


def outer_way_members(t: pa.Table) -> pa.Table:
    """Way members in an outer (or unlabelled) role."""
    return t.filter(pc.and_(
        pc.equal(t["type"], "way"),
        pc.is_in(t["role"], value_set=pa.array(["outer", ""])),
    ))


def multipolygons(t: pa.Table) -> pa.Table:
    return t.filter(pc.equal(t["type"], "multipolygon"))


def point_extents(t: pa.Table) -> pa.Table:
    """A point's envelope is the point itself."""
    for c_src, c_dst in (("lon", "min_lon"), ("lat", "min_lat"),
                         ("lon", "max_lon"), ("lat", "max_lat")):
        t = t.append_column(c_dst, t[c_src])
    return t


def _ordered_sums(v: np.ndarray, starts: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """Per-segment sums of the rows of `v`, added in row order
    (`v[s] + v[s+1] + ...`), so each equals a sequential loop's sum
    bit for bit; `np.add.reduceat` adds pairwise and does not. One
    vectorized step per member position, over the segments that
    still have a member there (longest segments first)."""
    order = np.argsort(-counts, kind="stable")
    s, neg = starts[order], -counts[order]
    acc = v[s].astype(np.float64)
    for k in range(1, -int(neg[0])):
        n = int(np.searchsorted(neg, -k))  # segments longer than k
        acc[:n] += v[s[:n] + k]
    out = np.empty_like(acc)
    out[order] = acc
    return out


def seg_stats(df: pd.DataFrame, key: str) -> pd.DataFrame:
    """Per-key centroid AND envelope of member points in member-
    position order — `_ordered_sums` adds each segment's members in
    that order, so the mean is bit-identical to the brute-force
    in-order mean; min/max reduceats give the envelope (osm2rdf
    emits `envelope` per element, reference `tests/data/node.ttl:33-37`
    — r3). Member rows may carry their own extents (way members of a relation
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
    sums = _ordered_sums(np.column_stack([lonv, latv]), starts, counts)
    return pd.DataFrame(
        {
            key: keys[starts],
            "lon": sums[:, 0] / counts,
            "lat": sums[:, 1] / counts,
            "min_lon": np.minimum.reduceat(mnlo, starts),
            "min_lat": np.minimum.reduceat(mnla, starts),
            "max_lon": np.maximum.reduceat(mxlo, starts),
            "max_lat": np.maximum.reduceat(mxla, starts),
        }
    )


def delta_rows(t: pa.Table, kind: str, id_col: str, cell_res: int) -> pa.Table:
    """(id, centroid, envelope) rows -> geo-delta rows of `kind`."""
    lon = t["lon"].to_numpy(zero_copy_only=False)
    lat = t["lat"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "kind": pa.array([kind] * t.num_rows, pa.string()),
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


def node_delta_rows(t: pa.Table, cell_res: int) -> pa.Table:
    """Node payload rows -> geo-delta rows (envelope = the point)."""
    return delta_rows(point_extents(t.select(["id", "lon", "lat"])),
                      "node", "id", cell_res)


def hull_rows(df: pd.DataFrame, key: str) -> pa.Table:
    """Per-key convex hull + minimum-area OBB vertex lists of the
    member points (`way_id` keys ways, `rel_id` relations)."""
    kind = "way" if key == "way_id" else "relation"
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
        schema=_HULL,
    )


def area_cells(df: pd.DataFrame, area_res: int) -> pd.DataFrame:
    """Ring rows (rel_id, pos [member], node_id, pos_r [within-way],
    lon, lat) -> (rel_id, ring_id, cell): per relation, member ways in
    member order, each way's nodes in way order, stitched into rings
    by endpoint NODE ID, then every ring covered by one
    `geo.polygon_covers` call. Rows come per ring in assembly order,
    cells sorted within a ring."""
    rel, ring, lon, lat = [], [], [], []
    for rid, g in df.groupby("rel_id", sort=False):
        g = g.sort_values(["pos", "pos_r"], kind="mergesort")
        segs = [
            (gg["node_id"].to_numpy(), gg["lon"].to_numpy(), gg["lat"].to_numpy())
            for _, gg in g.groupby("pos", sort=False)
        ]
        for ri, (rx, ry) in enumerate(geo.assemble_rings(segs)):
            rel.append(rid)
            ring.append(ri)
            lon.append(rx)
            lat.append(ry)
    if not rel:
        return pd.DataFrame(
            {"rel_id": pd.Series([], dtype="int64"),
             "ring_id": pd.Series([], dtype="int64"),
             "cell": pd.Series([], dtype="int64")}
        )
    offs = np.r_[0, np.cumsum([len(x) for x in lon])]
    owner, cells = geo.polygon_covers(
        np.concatenate(lon), np.concatenate(lat), offs, area_res)
    order = np.lexsort((cells, owner))
    owner, cells = owner[order], cells[order]
    return pd.DataFrame(
        {"rel_id": np.asarray(rel, dtype=np.int64)[owner],
         "ring_id": np.asarray(ring, dtype=np.int64)[owner],
         "cell": cells.astype(np.int64)}
    )


# -- the two compositions ---------------------------------------------


class _DriverOps:
    """Frames are driver `pa.Table`s."""

    def __init__(self, limit: int):
        self.limit = limit

    def map(self, t, fn):
        return fn(t)

    def select(self, t, cols):
        return t.select(cols)

    def keys(self, t, col) -> closure.KeySet:
        return closure.KeySet.from_array(
            t[col].to_numpy(zero_copy_only=False), self.limit)

    def semi(self, t, col, ks, schema=None):
        return t.filter(self._member(t, col, ks))

    def anti(self, t, col, ks, schema=None):
        return t.filter(pc.invert(self._member(t, col, ks)))

    @staticmethod
    def _member(t, col, ks):
        return pc.is_in(t[col], value_set=pa.array(ks.to_array(), pa.int64()))

    def union(self, a, b):
        return pa.concat_tables([a, b.select(a.column_names).cast(a.schema)])

    def join(self, left, right, on, right_on, left_schema=None,
             right_schema=None):
        return left.join(right, keys=on, right_keys=right_on,
                         join_type="inner", right_suffix="_r")

    def per_key(self, t, key, fn):
        out = fn(t.to_pandas())
        if isinstance(out, pa.Table):
            return out
        return pa.Table.from_pandas(out, preserve_index=False)

    def pin(self, t):
        return t

    def lookup(self, store, kind, ks, cols):
        t = store.lookup_table(kind, ks, columns=cols)
        if t is None:  # pruned buckets past the driver read bound
            t = closure.local_table(
                store.lookup(kind, ks, columns=cols).materialize(), limit=None)
        if t is None:  # a lazy lookup that produced no blocks
            sch = store.schema(kind)
            t = pa.schema([sch.field(c) for c in cols]).empty_table()
        return t


class _DatasetOps:
    """Frames are Ray Datasets."""

    PARTITIONS = 16

    def __init__(self, limit: int):
        self.limit = limit

    def map(self, ds, fn):
        return ds.map_batches(fn, batch_format="pyarrow")

    def select(self, ds, cols):
        return ds.select_columns(cols)

    def keys(self, ds, col) -> closure.KeySet:
        return closure.distinct_keys(ds, col, limit=self.limit)

    def semi(self, ds, col, ks, schema=None):
        return closure.semi_join(ds, col, ks, schema=schema)

    def anti(self, ds, col, ks, schema=None):
        return closure.anti_join(ds, col, ks, schema=schema)

    def union(self, a, b):
        return a.union(b)

    def join(self, left, right, on, right_on, left_schema=None,
             right_schema=None):
        return joins.hash_join(
            left, right, on=on, right_on=right_on,
            num_partitions=self.PARTITIONS,
            left_schema=left_schema, right_schema=right_schema,
        )

    def per_key(self, ds, key, fn):
        return joins.partitioned_map(ds, [key], fn,
                                     num_partitions=self.PARTITIONS)

    def pin(self, ds):
        return ds.materialize()

    def lookup(self, store, kind, ks, cols):
        return store.lookup(kind, ks, columns=cols)


def _ops_for(merged: "pa.Table | ray.data.Dataset",
             limit: int = closure.DEFAULT_BROADCAST_KEY_LIMIT):
    """(ops, frame): the driver composition over the window's table
    when `merged` is a `pa.Table` or a materialized Dataset with at
    most `limit` and at most `closure.DRIVER_WINDOW_ROWS` rows, else
    the distributed one over the Dataset (a larger table is wrapped).
    `limit` also caps broadcast key sets."""
    lim = min(limit, closure.DRIVER_WINDOW_ROWS)
    if isinstance(merged, pa.Table):
        if merged.num_rows <= lim:
            return _DriverOps(limit), merged
        merged = ray.data.from_arrow(merged)
    t = closure.local_table(merged, lim)
    if t is not None:
        return _DriverOps(limit), t
    return _DatasetOps(limit), merged


def _as_dataset(frame) -> ray.data.Dataset:
    return ray.data.from_arrow(frame) if isinstance(frame, pa.Table) else frame


def op_counts(merged: "pa.Table | ray.data.Dataset") -> ray.data.Dataset:
    """A4 run counters of a merged window: rows per (op, kind), as a
    Dataset with a `count()` column (the reference's nine
    membership-set sizes, `src/osm/OsmChangeHandler.cpp:108-116`)."""
    t = merged if isinstance(merged, pa.Table) else closure.local_table(
        merged, closure.DRIVER_WINDOW_ROWS)
    if t is None:
        return merged.groupby(["op", "kind"]).count()
    g = t.group_by(["op", "kind"]).aggregate([("id", "count")])
    return ray.data.from_arrow(pa.table({
        "op": g["op"], "kind": g["kind"], "count()": g["id_count"],
    }).sort_by([("op", "ascending"), ("kind", "ascending")]))


def window_changes(ops, frame) -> dict:
    """The commit's input: kind -> (KeySet of every changed id,
    created|modified rows in the kind's snapshot schema)."""
    return {
        kind: (ops.keys(ops.map(frame, partial(
            changed_rows, kind=k, ops=_ALL_OPS)), "id"),
            ops.map(frame, payload))
        for kind, (k, payload) in _PAYLOADS.items()
    }


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


def _context(ops, frame, store, ref_index) -> SimpleNamespace:
    """Impact closure and the post-update context slice of a window:
    the changed/impacted id sets, the touched relations and their
    members, member-node locations and located way nodes."""
    lim = ops.limit

    def keys(kind, op_set):
        return ops.keys(ops.map(frame, partial(
            changed_rows, kind=kind, ops=op_set)), "id")

    # membership sets (ST1) as size-probed KeySets
    node_in_cf = keys("node", _ALL_OPS)
    way_in_cf = keys("way", _ALL_OPS)
    rel_in_cf = keys("relation", _ALL_OPS)
    modified_nodes = keys("node", ("modify", "delete"))

    # impact closure on the NEW snapshot (geometry of unchanged ways/
    # relations referencing changed nodes must be recomputed), from the
    # reverse index's pruned buckets — changed elements are excluded by
    # the in-change-file anti sets, so stale index entries for THIS
    # window's owners can't leak in (the index is maintained at window
    # end, after closure). The way and relation owners of the modified
    # nodes come from one read of their index buckets
    ways_geo, rels_of_nodes = ref_index.owners_of(
        modified_nodes, ("node",), ("way", "relation"),
        exclude=(way_in_cf, rel_in_cf), limit=lim,
    )
    rels_geo = rels_of_nodes.union(ref_index.owners_of(
        ways_geo.union(way_in_cf), ("way",), "relation",
        exclude=rel_in_cf, limit=lim,
    ))
    touched_ways = ways_geo.union(keys("way", _UPSERT))
    touched_rels = rels_geo.union(keys("relation", _UPSERT))

    def overlay(kind, ids_ks, changed_ks):
        """Post-update rows of `kind` restricted to `ids_ks`: store
        point reads (bucket-pruned) minus every id changed this
        window, plus this window's payload rows — the post-update
        snapshot slice without a snapshot-sized frame ever existing."""
        cols = _CTX_COLS[kind]
        sch = store.schema(kind)
        sch = pa.schema([sch.field(c) for c in cols])
        base = ops.anti(ops.lookup(store, kind, ids_ks, cols), "id",
                        changed_ks, schema=sch)
        pay = ops.semi(ops.select(ops.map(frame, _PAYLOADS[kind][1]), cols),
                       "id", ids_ks, schema=sch)
        return ops.union(base, pay)

    # relation members (J5) from the touched-relation point reads:
    # node refs need locations, way refs need centroids — so the
    # centroid-target way set is touched ways PLUS unchanged member
    # ways of impacted relations (context only). Pinned: the slice
    # feeds the member explode AND the multipolygon filter, the
    # explode feeds the node/way/outer member splits
    rel_touched = ops.pin(overlay("relations", touched_rels, rel_in_cf))
    rel_mem = ops.pin(ops.map(rel_touched, closure.relation_member_rows))
    node_mem = ops.map(rel_mem, partial(members_of_type, typ="node"))
    way_mem = ops.map(rel_mem, partial(members_of_type, typ="way"))
    ways_sel = ops.pin(overlay(
        "ways", touched_ways.union(ops.keys(way_mem, "ref")), way_in_cf))
    exploded = ops.map(ways_sel, closure.way_ref_rows)  # (way_id, node_id, pos)
    need_nodes = ops.keys(exploded, "node_id").union(
        ops.keys(node_mem, "ref"))
    # pinned: locs feeds the way-point join AND the relation node-
    # member join
    locs = ops.pin(overlay("nodes", need_nodes, node_in_cf))  # (id, lon, lat)
    # inner join: missing member nodes tolerated (J7 missing-ok).
    # Pinned: wloc is DIFF-scale and feeds way centroids, ring
    # assembly, way hulls and relation member points
    wloc = ops.pin(ops.join(exploded, locs, "node_id", "id",
                            _EXPLODED, _LOCS))
    # pinned: feeds the relation centroid pass AND the hull source
    node_pts = ops.pin(ops.map(ops.select(ops.join(
        ops.select(node_mem, ["rel_id", "ref", "pos"]), locs, "ref", "id",
        _MEM, _LOCS,
    ), ["rel_id", "pos", "lon", "lat"]), point_extents))
    return SimpleNamespace(
        node_in_cf=node_in_cf, ways_geo=ways_geo, rels_geo=rels_geo,
        touched_ways=touched_ways, rel_touched=rel_touched,
        rel_mem=rel_mem, way_mem=way_mem, wloc=wloc, node_pts=node_pts,
    )


def _geo_delta(ops, frame, ctx, cell_res: int):
    """Recomputed centroid + cell + envelope rows of the created/
    modified nodes and the touched ways and relations."""
    way_cent = ops.pin(ops.per_key(
        ops.select(ctx.wloc, ["way_id", "pos", "lon", "lat"]), "way_id",
        partial(seg_stats, key="way_id"),
    ))  # pinned: consumed by way_delta AND the relation way-member join
    way_delta = ops.map(
        ops.semi(way_cent, "way_id", ctx.touched_ways, schema=_CENT),
        partial(delta_rows, kind="way", id_col="way_id", cell_res=cell_res),
    )
    # relation geometry recompute (the reference rebuilds relations
    # through J5/J9 dummy elements + osm2rdf, `src/osm/
    # OsmChangeHandler.cpp:343-424`, `src/osm/Osm2ttl.cpp:38-109`):
    # centroid over member points in member-position order, where a
    # node member contributes its location and a way member its
    # centroid; members of type relation are skipped (J4 disabled in
    # the reference too)
    way_pts = ops.select(ops.join(
        ops.select(ctx.way_mem, ["rel_id", "ref", "pos"]), way_cent,
        "ref", "way_id", _MEM, _CENT,
    ), ["rel_id", "pos", "lon", "lat",
        "min_lon", "min_lat", "max_lon", "max_lat"])
    rel_delta = ops.map(
        ops.per_key(ops.union(ctx.node_pts, way_pts), "rel_id",
                    partial(seg_stats, key="rel_id")),
        partial(delta_rows, kind="relation", id_col="rel_id",
                cell_res=cell_res),
    )
    # the post-update rows of the created/modified nodes are exactly
    # this window's payload rows
    node_delta = ops.map(ops.map(frame, node_payload),
                         partial(node_delta_rows, cell_res=cell_res))
    return ops.union(ops.union(node_delta, way_delta), rel_delta)


def update_window(
    merged: "pa.Table | ray.data.Dataset",
    store,
    ref_index,
    cell_res: int = 12,
    broadcast_limit: int = closure.DEFAULT_BROADCAST_KEY_LIMIT,
    output_mode: str = "endpoint",
    output_dir: str | None = None,
) -> dict:
    """Apply one latest-wins-merged change window (`diff.
    merge_latest_wins_table`, or `merge_latest_wins` materialized)
    against a `state.snapshot.SnapshotStore` and the `state.refindex.
    RefIndex` built over the same snapshot. Returns `geo_delta`
    (recomputed geometry rows — centroid + cell + ENVELOPE — for
    changed + impacted elements) as its composition's frame, and the
    impacted id sets as KeySets.

    The window runs DIFF-PROPORTIONALLY: impact closure answers from
    the reverse index's pruned buckets (the reference's SPARQL store
    answers J1-J3 from its triple indexes, `src/sparql/QueryWriter.cpp:
    169-220`), and context rows (member ways/nodes of touched
    elements) come from store point reads overlaid with this
    window's payloads. Nothing here mutates the store or the index:
    the caller commits the delete+insert and the index maintenance
    after consuming the delta (`stream.apply_merged_window`).

    A `pa.Table` or materialized window of at most
    `closure.DRIVER_WINDOW_ROWS` and at most `broadcast_limit` rows
    runs the driver composition: `geo_delta` is a `pa.Table` and, in
    endpoint mode, no Ray Data execution starts — every minutely
    window. A larger one runs the distributed composition and
    `geo_delta` is a Dataset; there id sets up to `broadcast_limit`
    keys ride as broadcast arrays and larger ones switch every
    membership filter to a hash-partitioned semi join."""
    if output_mode not in ("endpoint", "file", "debug_file"):
        raise ValueError(f"unknown output_mode {output_mode!r}")
    if output_mode != "endpoint" and output_dir is None:
        raise ValueError(f"output_mode={output_mode!r} requires output_dir")
    ops, frame = _ops_for(merged, broadcast_limit)
    ctx = _context(ops, frame, store, ref_index)
    geo_delta = _geo_delta(ops, frame, ctx, cell_res)

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
        merged = _as_dataset(merged)
        refs = closure.distinct_keys(
            closure.explode_way_refs(_payload_ways(merged)),
            "node_id", limit=broadcast_limit,
        )
        ctx_nodes = store.lookup("nodes", refs, columns=["id", "lon", "lat"])
        loc_src = _payload_nodes(merged).select_columns(
            ["id", "lon", "lat"]
        ).union(closure.anti_join(
            ctx_nodes, "id", ctx.node_in_cf, schema=closure.LOCATIONS_SCHEMA,
        ))
        update_artifact = _write_update_artifact(
            merged, loc_src, output_dir,
            debug_sets=(
                {"impacted_ways": ctx.ways_geo,
                 "impacted_relations": ctx.rels_geo}
                if output_mode == "debug_file" else None
            ),
        )

    return {
        "update_artifact": update_artifact,
        "geo_delta": geo_delta,
        # KeySets (`.tolist()` / `.to_array()` for broadcast-sized
        # sets; `.ds` to consume a backfill-scale set distributed)
        "impacted_ways": ctx.ways_geo,
        "impacted_relations": ctx.rels_geo,
    }


def apply_update(
    merged: ray.data.Dataset,
    store,
    ref_index,
    cell_res: int = 12,
    broadcast_limit: int = closure.DEFAULT_BROADCAST_KEY_LIMIT,
    output_mode: str = "endpoint",
    output_dir: str | None = None,
) -> dict:
    """`update_window` with `geo_delta` as a Dataset, plus `counts`
    (A4, `op_counts`)."""
    out = update_window(
        merged, store, ref_index, cell_res=cell_res,
        broadcast_limit=broadcast_limit, output_mode=output_mode,
        output_dir=output_dir,
    )
    out["geo_delta"] = _as_dataset(out["geo_delta"])
    out["counts"] = op_counts(merged)
    return out


def derived_geometry(
    merged: ray.data.Dataset,
    store,
    ref_index,
    area_res: int = 8,
    broadcast_limit: int = closure.DEFAULT_BROADCAST_KEY_LIMIT,
) -> dict:
    """The rest of osm2rdf's derived geometry for a window's touched
    elements, computed on request (no window consumes it): on the
    same post-update context slice as `apply_update` — so call it
    before or after the window commits, the slice is the same —
    returns as Datasets:

    - `hull_delta`: (kind, id, hull/obb vertex lists) — convex hull +
      minimum-area OBB per touched way/relation (`tests/data/
      node.ttl:33-37`); relation hulls use FULL member geometry (node
      members' locations plus every node of member ways). Nodes are
      not emitted: their hull/obb degenerate to the point.
    - `area_cover`: (rel_id, ring_id, cell) — the cell cover at
      `area_res` of each touched multipolygon relation's outer rings,
      stitched from member-way node sequences (M2 + the reference's
      `_modifiedAreas` tracking, `src/osm/OsmChangeHandler.cpp:
      166-197`; osm2rdf emits the assembled area,
      `tests/data/relation.ttl`)."""
    ops, frame = _ops_for(merged, broadcast_limit)
    ctx = _context(ops, frame, store, ref_index)
    mp_keys = ops.keys(ops.map(ctx.rel_touched, multipolygons), "id")
    outer_mem = ops.semi(ops.map(ctx.rel_mem, outer_way_members), "rel_id",
                         mp_keys, schema=closure.EXPLODED_MEMBERS_SCHEMA)
    ring_rows = ops.join(
        ops.select(outer_mem, ["rel_id", "ref", "pos"]), ctx.wloc,
        "ref", "way_id", _MEM, _WLOC,
    )  # (rel_id, ref, pos [member], node_id, pos_r [within-way], lon, lat)
    area_cover = ops.per_key(ring_rows, "rel_id",
                             partial(area_cells, area_res=area_res))

    way_hulls = ops.per_key(ops.select(
        ops.semi(ctx.wloc, "way_id", ctx.touched_ways, schema=_WLOC),
        ["way_id", "lon", "lat"],
    ), "way_id", partial(hull_rows, key="way_id"))
    rel_way_pts = ops.select(ops.join(
        ops.select(ctx.way_mem, ["rel_id", "ref", "pos"]), ctx.wloc,
        "ref", "way_id", _MEM, _WLOC,
    ), ["rel_id", "lon", "lat"])
    rel_hulls = ops.per_key(
        ops.union(ops.select(ctx.node_pts, ["rel_id", "lon", "lat"]),
                  rel_way_pts),
        "rel_id", partial(hull_rows, key="rel_id"),
    )
    return {
        "hull_delta": _as_dataset(ops.union(way_hulls, rel_hulls)),
        "area_cover": _as_dataset(area_cover),
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
