"""Persistent reverse-reference index: diff-proportional impact
closure for the continuous window loop.

The reference's impact closure is an INDEXED lookup — its snapshot
lives in a SPARQL store, so "which ways reference these nodes"
(`/root/reference/src/sparql/QueryWriter.cpp:169-184`) and "which
relations reference these nodes/ways" (`:187-220`) are answered by
the triple store's subject/object indexes, never by a scan. The r1-r3
Ray loop answered them by exploding the FULL ways/relations snapshot
every window (`closure.ways_to_update_geometry` et al.) — correct and
streaming, but a minutely diff of ~10^4 elements re-scanned ~10^12
member rows per window at the 100 TB design point.

`RefIndex` is that reverse index made durable in the engine's own
storage shape: one on-disk table of `(key, ktype, owner, otype)`
rows — `key` a referenced element id, `owner` the way/relation whose
member list contains it — hash-bucketed by `key` with the same
splitmix64 partitioner the `SnapshotStore` uses. A window's closure
then reads ONLY the buckets its changed ids hash to (`owners_of`), and
maintenance writes ONE delta file (`apply_window`) — both
diff-proportional.

Like the store, the index is a log-structured bucketed table
(`state.lsm`). A window's delta holds the new entries of its changed
owners plus one `(otype, owner)` tombstone per changed owner, and a
tombstone drops every older entry of that owner — so maintenance needs
neither the owners' old member keys nor the pre-update snapshot.
`owners_of` merges the pruned base buckets with the live deltas: an
owner's entries come from the newest delta that tombstones it, else
from the base.

Crash contract: `stage_window` appends the window's delta to the log
uncommitted (derived from the window alone, so any stage/commit order
against the store is safe); `apply_window` commits it by writing the
window manifest. Re-staging replaces an uncommitted delta; a
committed window short-circuits. Compaction folds the deltas into
every bucket holding an entry of a tombstoned owner — which, without
the old keys, means reading every bucket and rewriting the changed
ones.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from oluray.state import lsm

_IDX_MANIFEST = "_refindex.json"

SCHEMA = pa.schema(
    [
        ("key", pa.int64()),     # referenced element id
        ("ktype", pa.string()),  # node | way | relation (member type)
        ("owner", pa.int64()),   # referencing element id
        ("otype", pa.string()),  # way | relation (owner kind)
    ]
)


def way_entries(t: pa.Table) -> pa.Table:
    """ways(id, nd_refs) -> index entries (node ref -> owning way)."""
    refs = t["nd_refs"].combine_chunks()
    flat = pc.list_flatten(refs)
    parents = pc.list_parent_indices(refs)
    owners = pc.take(t["id"], parents)
    n = len(flat)
    return pa.table(
        {
            "key": flat.cast(pa.int64()),
            "ktype": pa.array(np.full(n, "node", object), pa.string()),
            "owner": owners.cast(pa.int64()),
            "otype": pa.array(np.full(n, "way", object), pa.string()),
        },
        schema=SCHEMA,
    )


def relation_entries(t: pa.Table) -> pa.Table:
    """relations(id, members) -> entries (member ref -> owning rel)."""
    mem = t["members"].combine_chunks()
    flat = pc.list_flatten(mem)
    parents = pc.list_parent_indices(mem)
    owners = pc.take(t["id"], parents)
    n = len(flat)
    return pa.table(
        {
            "key": flat.field("ref").cast(pa.int64()),
            "ktype": flat.field("type").cast(pa.string()),
            "owner": owners.cast(pa.int64()),
            "otype": pa.array(np.full(n, "relation", object), pa.string()),
        },
        schema=SCHEMA,
    )


def explode_ways_entries(ways: ray.data.Dataset) -> ray.data.Dataset:
    """`way_entries` over a Dataset."""
    return ways.select_columns(["id", "nd_refs"]).map_batches(
        way_entries, batch_format="pyarrow"
    )


def explode_relations_entries(relations: ray.data.Dataset) -> ray.data.Dataset:
    """`relation_entries` over a Dataset."""
    return relations.select_columns(["id", "members"]).map_batches(
        relation_entries, batch_format="pyarrow"
    )


class RefIndex:
    """On-disk reverse-member index, a log-structured table
    hash-bucketed by `key` (`state.lsm`).

    Layout under `root/`:
      `_refindex.json` — {n_buckets}
      `bucket=<b>/*.parquet` — base entries
      `_delta/<seq>-<window_id>.parquet` — one file per window: the new
        entries of its changed owners and one tombstone (`__del`, null
        key) per changed owner, sorted by key
      `_windows/<wid>.json` — per-window manifest, the commit point
    """

    def __init__(self, root: str):
        self.root = root
        with open(os.path.join(root, _IDX_MANIFEST)) as f:
            self.n_buckets = int(json.load(f)["n_buckets"])
        self._windows = os.path.join(root, "_windows")
        self.log = lsm.DeltaLog(root, os.path.join(root, "_delta"),
                                self._windows)

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls, root: str, ways: ray.data.Dataset,
        relations: ray.data.Dataset, n_buckets: int = 64,
    ) -> "RefIndex":
        """One-time index build (the DB's CREATE INDEX): one
        distributed explode+write pass over ways and relations.

        Files are written by a KEYED partition write — each bucket
        lands in exactly ONE file regardless of how many input blocks
        the sources arrive in. (The r4 hive write produced one file
        per block x bucket: an index auto-built from a 192-block
        `store.read` carried ~20 files/bucket, and every per-window
        `owners_of` paid ~20 file opens per touched bucket — measured
        30 s vs 18 s on the 4-window backfill bench.)"""
        from oluray.stages import joins

        os.makedirs(root, exist_ok=True)
        entries = explode_ways_entries(ways).union(
            explode_relations_entries(relations)
        )
        nb = n_buckets

        def tag(t: pa.Table, _nb=nb) -> pa.Table:
            keys = t["key"].to_numpy(zero_copy_only=False)
            return t.append_column("__b", pa.array(lsm.bucket_of(keys, _nb)))

        def write_part(df: "pd.DataFrame") -> "pd.DataFrame":
            import pandas as _pd

            out_b, out_rows = [], []
            for b, g in df.groupby("__b", sort=False):
                d = lsm.bucket_dir(root, int(b))
                os.makedirs(d, exist_ok=True)
                t = pa.Table.from_pandas(
                    g.drop(columns="__b"), preserve_index=False
                ).select(SCHEMA.names).cast(SCHEMA)
                pq.write_table(t, os.path.join(d, "part-0.parquet"))
                out_b.append(int(b))
                out_rows.append(len(g))
            return _pd.DataFrame({"b": out_b, "rows": out_rows})

        joins.partitioned_map(
            entries.map_batches(tag, batch_format="pyarrow"), ["__b"],
            write_part, num_partitions=min(n_buckets, 32),
        ).count()  # consume: the writes ARE the output
        os.makedirs(os.path.join(root, "_windows"), exist_ok=True)
        with open(os.path.join(root, _IDX_MANIFEST), "w") as f:
            json.dump({"n_buckets": n_buckets}, f)
        return cls(root)

    # -- reads ----------------------------------------------------------

    def _view(self) -> tuple[pa.Table, dict[str, np.ndarray]] | None:
        """(live delta entries, tombstoned owner ids per otype) over
        the live deltas; None when no delta is live."""
        return self.log.view(_delta_view)

    def read(self) -> ray.data.Dataset:
        """Full streaming read: the base minus the entries of
        tombstoned owners, plus the live delta entries."""
        lsm.recover(self.root)
        files = lsm.bucket_files(self.root)
        ds = (ray.data.read_parquet(files, columns=SCHEMA.names) if files
              else ray.data.from_arrow(SCHEMA.empty_table()))
        view = self._view()
        if view is None:
            return ds
        ents, dead = view
        ref = ray.put(dead)

        def drop_dead(t: pa.Table) -> pa.Table:
            return t.filter(pc.invert(_owned_by(t, ray.get(ref))))

        return ds.map_batches(drop_dead, batch_format="pyarrow").union(
            ray.data.from_arrow(ents))

    def owners_of(self, keys, ktypes: tuple[str, ...],
                  otype, exclude=None,
                  limit: int | None = None) -> "object":
        """Distinct owner ids (as a size-probed `closure.KeySet`) of
        entries with `key in keys`, `ktype in ktypes`, the given
        `otype`, minus `exclude` — i.e. the J1/J2/J3 reverse queries
        answered from the index. `otype` may also be a tuple of owner
        kinds, with `exclude` a tuple of the same length: the matching
        entries are then read once and one KeySet per owner kind is
        returned, in order. Broadcast key sets read only the buckets
        the keys hash to; dataset-backed sets (backfill) fall back to a
        full index scan + distributed semi-join."""
        from oluray.stages.closure import (
            DEFAULT_BROADCAST_KEY_LIMIT, KeySet, semi_join, wrap_keys,
        )

        lim = limit if limit is not None else DEFAULT_BROADCAST_KEY_LIMIT
        ks = keys if isinstance(keys, KeySet) else wrap_keys(keys, lim)
        tset = pa.array(list(ktypes), pa.string())

        def of_ktypes(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t["ktype"], value_set=tset))

        if ks.is_broadcast:
            hits = self._entries(ks.to_array(), of_ktypes)
        else:
            hits = semi_join(
                self.read().map_batches(of_ktypes, batch_format="pyarrow"),
                "key", ks, schema=SCHEMA,
            )
        if isinstance(otype, str):
            return _owners(hits, otype, exclude, lim)
        if not isinstance(hits, pa.Table):
            hits = hits.materialize()
        return tuple(_owners(hits, o, ex, lim) for o, ex in
                     zip(otype, exclude or (None,) * len(otype)))

    def _entries(self, ids: np.ndarray, match):
        """`match`ed live entries with key in `ids`, from the buckets
        the ids hash to and the live deltas: a driver table when the
        pruned buckets fit `LOCAL_READ_BYTES`, else a Dataset."""
        from oluray.stages.closure import broadcast_keys
        from oluray.state.snapshot import LOCAL_READ_BYTES

        if len(ids) == 0:
            return SCHEMA.empty_table()
        lsm.recover(self.root)
        view = self._view()
        ents, dead = view if view is not None else (SCHEMA.empty_table(), {})
        ents = match(ents.filter(
            pc.is_in(ents["key"], value_set=pa.array(ids, pa.int64()))))
        files = lsm.bucket_files(
            self.root, np.unique(lsm.bucket_of(ids, self.n_buckets)))
        if not files:
            return ents
        if sum(os.path.getsize(f) for f in files) <= LOCAL_READ_BYTES:
            # diff-proportional fast path: one driver scan of the
            # pruned buckets, zero Ray jobs (the reference's indexed
            # SPARQL lookup costs one round-trip too)
            t = lsm.read_files(files, SCHEMA)
            t = match(t.filter(
                pc.is_in(t["key"], value_set=pa.array(ids, pa.int64()))))
            return pa.concat_tables([t.filter(pc.invert(_owned_by(t, dead))), ents])
        ref = broadcast_keys(ids)
        dead_ref = ray.put(dead)

        def keep(t: pa.Table) -> pa.Table:
            t = match(t.filter(
                pc.is_in(t["key"], value_set=pa.array(ray.get(ref), pa.int64()))))
            return t.filter(pc.invert(_owned_by(t, ray.get(dead_ref))))

        ds = ray.data.read_parquet(files, columns=SCHEMA.names).map_batches(
            keep, batch_format="pyarrow")
        return ds.union(ray.data.from_arrow(ents)) if ents.num_rows else ds

    # -- window maintenance ----------------------------------------------

    def window_manifest(self, window_id: str) -> dict | None:
        return lsm.read_manifest(self._windows, window_id)

    def stage_window(
        self, window_id: str,
        changed_owners: dict[str, np.ndarray],
        new_entries: "pa.Table | ray.data.Dataset",
    ) -> str:
        """Append a window's index delta to the log, uncommitted:
        `new_entries` (SCHEMA-shaped, the exploded payload rows of the
        created/modified owners, a driver table or a Dataset) plus one
        tombstone per id of `changed_owners` (otype -> owner ids,
        create+modify+delete). Re-staging replaces an uncommitted
        delta. Returns the delta file name."""
        new = lsm.as_table(new_entries, SCHEMA)
        tombs = [
            pa.table({
                "key": pa.nulls(len(ids), pa.int64()),
                "ktype": pa.nulls(len(ids), pa.string()),
                "owner": pa.array(np.asarray(ids, np.int64)),
                "otype": pa.array([otype] * len(ids), pa.string()),
            }, schema=SCHEMA)
            for otype, ids in changed_owners.items()
        ]
        delta = pa.concat_tables(
            [lsm.with_flag(new, False)]
            + [lsm.with_flag(t, True) for t in tombs]
        ).sort_by([("key", "ascending"), ("owner", "ascending")])
        return self.log.append(window_id, delta)

    def apply_window(self, window_id: str) -> dict:
        """Commit the staged delta: write the window manifest, then
        compact if `lsm` bounds are passed. Manifest-gated. The
        manifest's `touched_buckets` are the buckets of the new
        entries' keys; `rows_after` the rows of every file written, as
        in `SnapshotStore.apply_window`."""
        done = self.window_manifest(window_id)
        if done is not None:
            return done
        name = self.log.pending(window_id)
        if name is None:
            raise FileNotFoundError(
                f"refindex delta for {window_id} missing — "
                "stage_window must run before apply_window"
            )
        t0 = time.perf_counter()
        delta = self.log.table(name)
        dead = delta[lsm.DELETED].to_numpy(zero_copy_only=False)
        keys = delta["key"].to_numpy(zero_copy_only=False)[~dead]
        man = {
            "window_id": window_id,
            "touched_buckets": np.unique(
                lsm.bucket_of(keys, self.n_buckets)).tolist(),
            "deleted": int(dead.sum()),
            "inserted": int(len(keys)),
            "rows_after": {f"_delta/{name}": delta.num_rows},
            "seconds": time.perf_counter() - t0,
            "finished_at": time.time(),
        }
        lsm.write_manifest(self._windows, man)  # the commit point
        if self.log.compaction_due():
            man["compaction"] = self.compact()
            man["rows_after"].update(man["compaction"]["rows_after"])
            lsm.write_manifest(self._windows, man)
        return man

    def compact(self) -> dict:
        """Fold every live delta into the buckets: drop the entries of
        tombstoned owners from every bucket, add the live delta
        entries to the buckets their keys hash to
        (`lsm.DeltaLog.compact`); returns the cost record."""
        view = self._view()
        if view is None:
            return self.log.compact(SCHEMA, [], None)
        ents, dead = view
        eb = lsm.bucket_of(ents["key"].to_numpy(zero_copy_only=False),
                           self.n_buckets)

        def fold(b: int, rows: pa.Table) -> pa.Table | None:
            stale = _owned_by(rows, dead)
            add = ents.filter(pa.array(eb == b))
            if not add.num_rows and not pc.any(stale).as_py():
                return None
            return pa.concat_tables([rows.filter(pc.invert(stale)), add])

        return self.log.compact(SCHEMA, range(self.n_buckets), fold)


def _delta_view(t: pa.Table) -> tuple[pa.Table, dict[str, np.ndarray]]:
    """Concatenated deltas (with `lsm.SEQ`) -> (live entries,
    tombstoned owner ids per otype). An owner's live entries are those
    of the newest delta that tombstones it (`diff.latest_per_key`);
    older ones, base entries included, are dead."""
    from oluray.stages.diff import latest_per_key

    tomb = t.filter(t[lsm.DELETED]).select(["otype", "owner", lsm.SEQ])
    last = latest_per_key(tomb, ["otype", "owner"], [(lsm.SEQ, "descending")])
    ents = t.filter(pc.invert(t[lsm.DELETED])).join(
        last, keys=["otype", "owner", lsm.SEQ], join_type="inner",
    ).select(SCHEMA.names).cast(SCHEMA)
    dead = {
        o: np.unique(last.filter(pc.equal(last["otype"], o))["owner"]
                     .to_numpy(zero_copy_only=False)).astype(np.int64)
        for o in pc.unique(last["otype"]).to_pylist()
    }
    return ents, dead


def _owned_by(t: pa.Table, dead: dict[str, np.ndarray]) -> pa.Array:
    """Mask of `t`'s entries whose (otype, owner) is in `dead`."""
    m = pa.array(np.zeros(t.num_rows, dtype=bool))
    for otype, ids in dead.items():
        m = pc.or_(m, pc.and_(
            pc.equal(t["otype"], otype),
            pc.is_in(t["owner"], value_set=pa.array(ids, pa.int64())),
        ))
    return m


def _owners(hits, otype: str, exclude, lim: int):
    """Distinct owners of kind `otype` among `hits` (a driver table or
    a Dataset of entries), minus `exclude`, as a `closure.KeySet`."""
    from oluray.stages.closure import (
        KeySet, anti_join, distinct_keys, wrap_keys,
    )

    ex = None if exclude is None else (
        exclude if isinstance(exclude, KeySet) else wrap_keys(exclude, lim))
    owner_schema = pa.schema([("owner", pa.int64())])
    if isinstance(hits, pa.Table):
        owners = np.unique(
            hits.filter(pc.equal(hits["otype"], otype))["owner"]
            .to_numpy(zero_copy_only=False)).astype(np.int64)
        if ex is None or ex.is_broadcast:
            if ex is not None:
                owners = owners[~np.isin(owners, ex.to_array())]
            return KeySet.from_array(owners, lim)
        # dataset-backed exclusion: a distributed anti-join of the hits
        hits = ray.data.from_arrow(pa.table({"owner": pa.array(owners, pa.int64())}))
    else:
        def of_otype(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["otype"], otype)).select(["owner"])

        hits = hits.map_batches(of_otype, batch_format="pyarrow")
    if ex is not None:
        hits = anti_join(hits, "owner", ex, schema=owner_schema)
    return distinct_keys(hits, "owner", limit=lim)
