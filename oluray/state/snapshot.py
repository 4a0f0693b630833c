"""Bucket-pruned, log-structured persistent snapshot store for the
continuous loop.

The reference keeps its snapshot in a remote SPARQL store and updates
it IN PLACE per 1024-id batch (`/root/reference/src/osm/
OsmChangeHandler.cpp:493-575` — delete triples of changed ids, insert
the new ones); only the touched elements move. The r1-r3 Ray loop
instead re-materialized the WHOLE nodes/ways/relations snapshot every
window — correct, but a full-rewrite-per-micro-batch at 100 TB: a
minutely diff of ~10^4 elements would re-pin ~10^12 rows per window.

`SnapshotStore` keeps each kind as a log-structured bucketed table
(`state.lsm`): a base hash-bucketed by id, plus one delta file per
committed window holding that window's upserts and id tombstones,
sorted by id. A window writes only those delta files — it reads and
rewrites no bucket and starts no Ray task — so its write cost is the
diff. `lookup` and `read` merge the base with the deltas, the newest
delta row per id winning (`diff.latest_per_key`, the merge's
latest-wins rule); `lookup` opens only the buckets its ids hash to (a
backfill-sized key set falls back to a streaming semi-join).
Compaction folds the deltas back into the buckets they hash to once
`lsm.MAX_DELTA_FILES` or `lsm.MAX_DELTA_FRACTION` is passed.

Idempotence contract (same as the resumable sink, `checkpoint.py`):
the window manifest is the commit point. A window that crashed before
it re-runs to the same delta files; a committed one short-circuits.
Compaction runs after the commit and is crash-safe on its own
(`state.lsm`).
"""

from __future__ import annotations

import glob as _glob
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from oluray.state import lsm

_STORE_MANIFEST = "_store.json"

# pruned point-reads at or below this many file bytes run as ONE
# driver pq scan (+ vectorized filter) instead of a Ray job per
# consumer — a minutely window's touched buckets are diff-proportional
# by construction; larger reads keep the distributed path
LOCAL_READ_BYTES = 64 << 20


class SnapshotStore:
    """On-disk snapshot of `kinds` tables, each a log-structured table
    hash-bucketed by `id` (`state.lsm`).

    Layout under `root/`:
      `_store.json` — {n_buckets, hash, kinds: {kind: [col names]}}
      `<kind>/bucket=<b>/*.parquet` — base rows
      `_delta/<kind>/<seq>-<window_id>.parquet` — one file per window
        that changed the kind: its upserts and id tombstones (`__del`),
        sorted by id
      `_windows/<window_id>.json` — per-window manifest, the commit
        point: the buckets the window's changed ids hash to, row
        counts, the rows of every file written, wall time, and the
        cost of any compaction the window ran
    """

    def __init__(self, root: str):
        self.root = root
        with open(os.path.join(root, _STORE_MANIFEST)) as f:
            m = json.load(f)
        self.n_buckets = int(m["n_buckets"])
        self.kinds: dict[str, list[str]] = m["kinds"]
        self._schemas: dict[str, pa.Schema] = {}
        self._windows = os.path.join(root, "_windows")
        self._logs = {
            kind: lsm.DeltaLog(os.path.join(root, kind),
                               os.path.join(root, "_delta", kind),
                               self._windows)
            for kind in self.kinds
        }

    # -- construction ------------------------------------------------

    @classmethod
    def create(
        cls, root: str, tables: dict[str, ray.data.Dataset],
        n_buckets: int = 64,
    ) -> "SnapshotStore":
        """Bulk-load the initial snapshot: ONE distributed pass per
        kind tags each row with its id bucket and writes hive dirs.
        This is the only snapshot-sized write the store ever does."""
        os.makedirs(root, exist_ok=True)
        kinds: dict[str, list[str]] = {}
        for kind, ds in tables.items():
            kind_dir = os.path.join(root, kind)
            os.makedirs(kind_dir, exist_ok=True)
            cols = [c for c in ds.schema().names]
            kinds[kind] = cols
            nb = n_buckets

            def tag(t: pa.Table, _nb=nb) -> pa.Table:
                ids = t["id"].to_numpy(zero_copy_only=False)
                return t.append_column(
                    "__b", pa.array(lsm.bucket_of(ids, _nb))
                )

            ds.map_batches(tag, batch_format="pyarrow").write_parquet(
                kind_dir, partition_cols=["__b"]
            )
            # normalize ray's `__b=<k>` hive dirs to the store layout
            for d in _glob.glob(os.path.join(kind_dir, "__b=*")):
                b = int(os.path.basename(d).split("=", 1)[1])
                os.replace(d, lsm.bucket_dir(kind_dir, b))
            if not lsm.bucket_files(kind_dir):
                # empty kind (e.g. a snapshot with no relations): a
                # zero-row TYPED file in bucket 0 keeps schema() and
                # every read path working
                from oluray.stages.joins import _arrow_schema

                bd = lsm.bucket_dir(kind_dir, 0)
                os.makedirs(bd, exist_ok=True)
                pq.write_table(
                    _arrow_schema(ds).empty_table(),
                    os.path.join(bd, "empty.parquet"),
                )
        os.makedirs(os.path.join(root, "_windows"), exist_ok=True)
        with open(os.path.join(root, _STORE_MANIFEST), "w") as f:
            json.dump(
                {"n_buckets": n_buckets, "hash": "splitmix64",
                 "kinds": kinds}, f,
            )
        return cls(root)

    # -- reads -------------------------------------------------------

    def schema(self, kind: str) -> pa.Schema:
        if kind not in self._schemas:
            files = lsm.bucket_files(os.path.join(self.root, kind))
            if not files:
                raise ValueError(f"store has no data for kind {kind!r}")
            self._schemas[kind] = pq.read_schema(files[0]).remove_metadata()
        return self._schemas[kind]

    def _view(self, kind: str) -> pa.Table | None:
        """The newest delta row per id over the live deltas of `kind`
        (upserts and tombstones, with `__del` and `__seq`), sorted by
        id; None when no delta is live."""
        from oluray.stages.diff import latest_per_key

        return self._logs[kind].view(
            lambda t: latest_per_key(t, ["id"], [(lsm.SEQ, "descending")]))

    def read(self, kind: str, columns: list[str] | None = None) -> ray.data.Dataset:
        """Lazy streaming read of `kind`: every live bucket (swap
        artifacts excluded), minus the ids the live deltas name, plus
        their newest upserts. Column pruning pushes into the scan."""
        kind_dir = os.path.join(self.root, kind)
        lsm.recover(kind_dir)
        cols = columns or self.kinds[kind]
        out_schema = self._project(kind, cols)
        view = self._view(kind)
        scan = cols if view is None or "id" in cols else ["id"] + cols
        files = lsm.bucket_files(kind_dir)
        ds = (ray.data.read_parquet(files, columns=scan) if files else
              ray.data.from_arrow(self._project(kind, scan).empty_table()))
        if view is None:
            return ds
        ref = ray.put(view["id"].to_numpy(zero_copy_only=False))

        def drop_shadowed(t: pa.Table) -> pa.Table:
            shadowed = pc.is_in(t["id"], value_set=pa.array(ray.get(ref)))
            return t.filter(pc.invert(shadowed)).select(cols)

        ups = view.filter(pc.invert(view[lsm.DELETED])).select(cols)
        return ds.map_batches(drop_shadowed, batch_format="pyarrow").union(
            ray.data.from_arrow(ups.cast(out_schema)))

    def _project(self, kind: str, cols: list[str]) -> pa.Schema:
        sch = self.schema(kind)
        return pa.schema([sch.field(c) for c in cols])

    def lookup(self, kind: str, keys,
               columns: list[str] | None = None) -> ray.data.Dataset:
        """Point read: rows of `kind` whose id is in `keys`. The live
        deltas answer the ids they name; the rest are read from ONLY
        the buckets they hash to — the write path's diff-proportional
        cost carried to reads (a minutely diff touches a handful of
        buckets; the other ~all of a 100 TB snapshot never leaves
        storage). `keys` is a `closure.KeySet` or array-like; a
        dataset-backed KeySet (backfill windows beyond the broadcast
        budget) falls back to a full streaming read + distributed
        semi-join — correct at any size, pruned when small. Reads
        that fit `lookup_table` come back as its table, wrapped."""
        from oluray.stages.closure import broadcast_keys, semi_join, wrap_keys

        ks = wrap_keys(keys)
        t = self.lookup_table(kind, ks, columns)
        if t is not None:
            return ray.data.from_arrow(t)
        cols = columns or self.kinds[kind]
        if not ks.is_broadcast:
            return semi_join(self.read(kind, columns=cols), "id", ks,
                             schema=self._project(kind, cols))
        ids, ups, files = self._point_read(kind, ks.to_array(), cols)
        ds = ray.data.read_parquet(files, columns=cols)
        ref = broadcast_keys(ids)

        def keep(t: pa.Table) -> pa.Table:
            kv = ray.get(ref)
            return t.filter(
                pc.is_in(t["id"], value_set=pa.array(kv, pa.int64()))
            )

        ds = ds.map_batches(keep, batch_format="pyarrow")
        return ds.union(ray.data.from_arrow(ups)) if ups.num_rows else ds

    def lookup_table(self, kind: str, keys,
                     columns: list[str] | None = None) -> pa.Table | None:
        """`lookup` on the driver: one pq scan of the buckets the ids
        hash to plus one vectorized filter, no Ray job. None when the
        keys are dataset-backed or those buckets pass
        `LOCAL_READ_BYTES` (`lookup` then streams them)."""
        from oluray.stages.closure import wrap_keys

        ks = wrap_keys(keys)
        if not ks.is_broadcast:
            return None
        cols = columns or self.kinds[kind]
        ids, ups, files = self._point_read(kind, ks.to_array(), cols)
        if not files:
            return ups
        if sum(os.path.getsize(f) for f in files) > LOCAL_READ_BYTES:
            return None
        t = lsm.read_files(files, self._project(kind, cols))
        mask = pc.is_in(t["id"], value_set=pa.array(ids, pa.int64()))
        return pa.concat_tables([t.filter(mask), ups])

    def _point_read(self, kind: str, ids: np.ndarray, cols: list[str]):
        """(the ids the live deltas do not name, the upserts they hold
        for `ids` in `cols`, the bucket files the other ids hash to)."""
        kind_dir = os.path.join(self.root, kind)
        lsm.recover(kind_dir)
        ups = self._project(kind, cols).empty_table()
        view = self._view(kind)
        if view is not None and len(ids):
            v = view.filter(pc.is_in(view["id"], value_set=pa.array(ids, pa.int64())))
            ids = np.setdiff1d(ids, v["id"].to_numpy(zero_copy_only=False))
            ups = v.filter(pc.invert(v[lsm.DELETED])).select(cols).cast(ups.schema)
        files = lsm.bucket_files(
            kind_dir, np.unique(lsm.bucket_of(ids, self.n_buckets)))
        return ids, ups, files

    # -- window commit -----------------------------------------------

    def window_manifest(self, window_id: str) -> dict | None:
        return lsm.read_manifest(self._windows, window_id)

    def apply_window(
        self,
        window_id: str,
        changes: dict[str, tuple["object", "pa.Table | ray.data.Dataset"]],
    ) -> dict:
        """Commit one window's delete+insert as ONE delta file per
        changed kind: `changes[kind] = (changed_keys, inserts)` where
        `changed_keys` is a `closure.KeySet` (or array-like) of ALL
        changed ids (create+modify+delete) and `inserts` the
        create/modify rows (a `pa.Table` or Dataset) in the kind's
        snapshot schema. Changed ids without an insert become
        tombstones. No bucket is read or rewritten.

        The manifest lists per kind the buckets the changed ids hash
        to (`touched_buckets`), `inserted` upserts, `deleted`
        tombstones, and `rows_after`: the rows of every file this
        window wrote — its delta file, plus each bucket a compaction
        rewrote. A compaction's cost is also recorded on its own under
        `compaction`. Idempotent: re-applying a finished window is a
        no-op (manifest short-circuit), re-applying a crashed one
        writes the same delta again."""
        done = self.window_manifest(window_id)
        if done is not None:
            return done

        from oluray.stages.closure import wrap_keys

        t0 = time.perf_counter()
        stats: dict[str, dict] = {}
        for kind, (keys, inserts) in changes.items():
            schema = self.schema(kind)
            ids = np.unique(np.asarray(wrap_keys(keys).to_array(), np.int64))
            ins = lsm.as_table(inserts, schema)
            dead = np.setdiff1d(ids, ins["id"].to_numpy(zero_copy_only=False))
            tombs = pa.table({
                f.name: pa.array(dead, f.type) if f.name == "id"
                else pa.nulls(len(dead), f.type) for f in schema
            })
            delta = pa.concat_tables([
                lsm.with_flag(ins, False), lsm.with_flag(tombs, True),
            ]).sort_by("id")
            rows_after = {}
            if delta.num_rows:
                name = self._logs[kind].append(window_id, delta)
                rows_after[f"_delta/{kind}/{name}"] = delta.num_rows
            stats[kind] = {
                "touched_buckets": np.unique(
                    lsm.bucket_of(ids, self.n_buckets)).tolist(),
                "inserted": ins.num_rows,
                "deleted": len(dead),
                "rows_after": rows_after,
            }

        man = {
            "window_id": window_id,
            "n_buckets": self.n_buckets,
            "kinds": stats,
            "seconds": time.perf_counter() - t0,
            "finished_at": time.time(),
        }
        lsm.write_manifest(self._windows, man)  # the commit point
        compaction = {kind: self.compact(kind) for kind in self.kinds
                      if self._logs[kind].compaction_due()}
        if compaction:
            for kind, c in compaction.items():
                k = stats.setdefault(kind, {"touched_buckets": [], "inserted": 0,
                                            "deleted": 0, "rows_after": {}})
                k["rows_after"].update(c["rows_after"])
            man["compaction"] = compaction
            lsm.write_manifest(self._windows, man)
        return man

    def compact(self, kind: str) -> dict:
        """Fold every live delta of `kind` into the buckets its ids
        hash to (`lsm.DeltaLog.compact`); returns the cost record."""
        log = self._logs[kind]
        schema = self.schema(kind)
        view = self._view(kind)
        if view is None:
            return log.compact(schema, [], None)
        vb = lsm.bucket_of(view["id"].to_numpy(zero_copy_only=False),
                           self.n_buckets)

        def fold(b: int, rows: pa.Table) -> pa.Table | None:
            v = view.filter(pa.array(vb == b))
            keep = rows.filter(pc.invert(pc.is_in(
                rows["id"], value_set=v["id"].combine_chunks())))
            ups = v.filter(pc.invert(v[lsm.DELETED]))
            if keep.num_rows == rows.num_rows and not ups.num_rows:
                return None
            return pa.concat_tables([keep, ups.select(schema.names).cast(schema)])

        return log.compact(schema, np.unique(vb).tolist(), fold)
