"""Bucket-pruned persistent snapshot store for the continuous loop.

The reference keeps its snapshot in a remote SPARQL store and updates
it IN PLACE per 1024-id batch (`/root/reference/src/osm/
OsmChangeHandler.cpp:493-575` — delete triples of changed ids, insert
the new ones); only the touched elements move. The r1-r3 Ray loop
instead re-materialized the WHOLE nodes/ways/relations snapshot every
window — correct, but a full-rewrite-per-micro-batch at 100 TB: a
minutely diff of ~10^4 elements would re-pin ~10^12 rows per window.

`SnapshotStore` restores the reference's point-update semantics in a
Ray-native shape: each kind lives on disk hash-bucketed by id
(splitmix64, the engine's one partitioner — `oluray/stages/joins.py`),
and a window's delete+insert routes its changed ids to their buckets
and rewrites ONLY those buckets. Untouched buckets are never read for
the write path and never rewritten; `apply_update`'s context READS
are `lookup` point reads that open only the buckets their ids hash to
(a backfill-sized key set falls back to a streaming semi-join);
writes scale with the DIFF.

Idempotence contract (same as the resumable sink, `checkpoint.py`):
a bucket rewrite is `(live ∖ changed_ids) ∪ inserts` — re-applying
the same window to an already-updated bucket is a fixpoint, so crash
recovery is "re-run the window's touched buckets". The swap itself is
the two-rename protocol (`live -> .old`, `tmp -> live`, rm `.old`)
with the same recovery sweep compaction uses: a crash between the
renames leaves `.old` as the only copy and the sweep restores it.
"""

from __future__ import annotations

import glob as _glob
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

_STORE_MANIFEST = "_store.json"
_BUCKET_PREFIX = "bucket="
_TMP_SUFFIX = ".apply-tmp"
_OLD_SUFFIX = ".old"

# pruned point-reads at or below this many file bytes run as ONE
# driver pq scan (+ vectorized filter) instead of a Ray job per
# consumer — a minutely window's touched buckets are diff-proportional
# by construction; larger reads keep the distributed path
LOCAL_READ_BYTES = 64 << 20


def _bucket_of(ids: np.ndarray, n_buckets: int) -> np.ndarray:
    from oluray.stages.joins import _mix64

    return (_mix64(ids.astype(np.int64)) % np.uint64(n_buckets)).astype(
        np.int64
    )


def _bucket_dir(kind_dir: str, b: int) -> str:
    return os.path.join(kind_dir, f"{_BUCKET_PREFIX}{b}")


def _recover_bucket(kind_dir: str, b: int) -> None:
    """Crash-recovery for one bucket's two-rename swap: restore `.old`
    when the live dir is missing (crash between renames), discard it
    when live exists (swap completed), discard incomplete tmp."""
    live = _bucket_dir(kind_dir, b)
    old = live + _OLD_SUFFIX
    tmp = live + _TMP_SUFFIX
    if os.path.exists(old):
        if not os.path.exists(live):
            os.replace(old, live)
        else:
            shutil.rmtree(old)
    if os.path.exists(tmp):
        shutil.rmtree(tmp)


def _write_bucket_atomic(kind_dir: str, b: int, table: pa.Table) -> None:
    live = _bucket_dir(kind_dir, b)
    tmp = live + _TMP_SUFFIX
    old = live + _OLD_SUFFIX
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    pq.write_table(table, os.path.join(tmp, "data.parquet"))
    if os.path.exists(live):
        os.replace(live, old)
    os.replace(tmp, live)
    if os.path.exists(old):
        shutil.rmtree(old)


def _read_bucket(kind_dir: str, b: int, schema: pa.Schema) -> pa.Table:
    live = _bucket_dir(kind_dir, b)
    if not os.path.isdir(live):
        return schema.empty_table()
    files = sorted(_glob.glob(os.path.join(live, "*.parquet")))
    if not files:
        return schema.empty_table()
    return pa.concat_tables(
        [pq.read_table(f).cast(schema) for f in files]
    )


class SnapshotStore:
    """On-disk snapshot of `kinds` tables, hash-bucketed by `id`.

    Layout under `root/`:
      `_store.json` — {n_buckets, hash, kinds: {kind: [col names]}}
      `<kind>/bucket=<b>/*.parquet` — live data
      `_windows/<window_id>.json` — per-window apply manifest with the
        touched-bucket list (lineage: untouched buckets provably not
        rewritten) + row counts + wall time
      `_stage/<window_id>/...` — staged per-bucket deletes/inserts,
        removed once the window manifest lands
    """

    def __init__(self, root: str):
        self.root = root
        with open(os.path.join(root, _STORE_MANIFEST)) as f:
            m = json.load(f)
        self.n_buckets = int(m["n_buckets"])
        self.kinds: dict[str, list[str]] = m["kinds"]
        self._schemas: dict[str, pa.Schema] = {}

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
                    "__b", pa.array(_bucket_of(ids, _nb))
                )

            ds.map_batches(tag, batch_format="pyarrow").write_parquet(
                kind_dir, partition_cols=["__b"]
            )
            # normalize ray's `__b=<k>` hive dirs to the store layout
            for d in _glob.glob(os.path.join(kind_dir, "__b=*")):
                b = int(os.path.basename(d).split("=", 1)[1])
                os.replace(d, _bucket_dir(kind_dir, b))
            if not _glob.glob(os.path.join(kind_dir, "*", "*.parquet")):
                # empty kind (e.g. a snapshot with no relations): a
                # zero-row TYPED file in bucket 0 keeps schema() and
                # every read path working
                from oluray.stages.joins import _arrow_schema

                bd = _bucket_dir(kind_dir, 0)
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
            files = sorted(
                _glob.glob(os.path.join(self.root, kind, "*", "*.parquet"))
            )
            if not files:
                raise ValueError(f"store has no data for kind {kind!r}")
            self._schemas[kind] = pq.read_schema(files[0]).remove_metadata()
        return self._schemas[kind]

    def read(self, kind: str, columns: list[str] | None = None) -> ray.data.Dataset:
        """Lazy streaming read of every live bucket of `kind` (swap
        artifacts excluded). Column pruning pushes into the scan."""
        self._recover_all(kind)
        dirs = sorted(
            d for d in _glob.glob(
                os.path.join(self.root, kind, f"{_BUCKET_PREFIX}*")
            )
            if not d.endswith((_OLD_SUFFIX, _TMP_SUFFIX))
        )
        cols = columns or self.kinds[kind]
        files = sorted(
            f for d in dirs for f in _glob.glob(os.path.join(d, "*.parquet"))
        )
        if not files:
            sch = self.schema(kind)
            return ray.data.from_arrow(
                pa.schema([sch.field(c) for c in cols]).empty_table()
            )
        return ray.data.read_parquet(files, columns=cols)

    def lookup(self, kind: str, keys,
               columns: list[str] | None = None) -> ray.data.Dataset:
        """Point read: rows of `kind` whose id is in `keys`, reading
        ONLY the buckets those ids hash to — the read-side analog of
        the write path's bucket pruning (a minutely diff touches a
        handful of buckets; the other ~all of a 100 TB snapshot never
        leaves storage). `keys` is a `closure.KeySet` or array-like; a
        dataset-backed KeySet (backfill windows beyond the broadcast
        budget) falls back to a full streaming read + distributed
        semi-join — correct at any size, pruned when small."""
        from oluray.stages.closure import (
            KeySet, broadcast_keys, semi_join, wrap_keys,
        )

        ks = keys if isinstance(keys, KeySet) else wrap_keys(keys)
        cols = columns or self.kinds[kind]
        sch = self.schema(kind)
        out_schema = pa.schema([sch.field(c) for c in cols])
        if not ks.is_broadcast:
            return semi_join(self.read(kind, columns=cols), "id", ks,
                             schema=out_schema)
        ids = ks.to_array()
        if len(ids) == 0:
            return ray.data.from_arrow(out_schema.empty_table())
        self._recover_all(kind)
        kind_dir = os.path.join(self.root, kind)
        bl = np.unique(_bucket_of(ids, self.n_buckets))
        files = sorted(
            f for b in bl
            for f in _glob.glob(os.path.join(_bucket_dir(kind_dir, int(b)),
                                             "*.parquet"))
        )
        if not files:
            return ray.data.from_arrow(out_schema.empty_table())
        if sum(os.path.getsize(f) for f in files) <= LOCAL_READ_BYTES:
            # diff-proportional fast path: the touched buckets fit a
            # single driver read — one pq scan + one vectorized filter
            # instead of a Ray job PER CONSUMER of the (lazy) lookup.
            # The result is a materialized small table, so downstream
            # overlays never re-read the files either.
            t = pa.concat_tables(
                [pq.read_table(f, columns=cols) for f in files]
            ).cast(out_schema)
            mask = pc.is_in(t["id"], value_set=pa.array(ids, pa.int64()))
            return ray.data.from_arrow(t.filter(mask))
        ds = ray.data.read_parquet(files, columns=cols)
        ref = broadcast_keys(ids)

        def keep(t: pa.Table) -> pa.Table:
            kv = ray.get(ref)
            return t.filter(
                pc.is_in(t["id"], value_set=pa.array(kv, pa.int64()))
            )

        return ds.map_batches(keep, batch_format="pyarrow")

    def _recover_all(self, kind: str) -> None:
        kind_dir = os.path.join(self.root, kind)
        for d in _glob.glob(
            os.path.join(kind_dir, f"{_BUCKET_PREFIX}*{_OLD_SUFFIX}")
        ) + _glob.glob(
            os.path.join(kind_dir, f"{_BUCKET_PREFIX}*{_TMP_SUFFIX}")
        ):
            base = os.path.basename(d)
            b = int(
                base[len(_BUCKET_PREFIX):]
                .removesuffix(_OLD_SUFFIX)
                .removesuffix(_TMP_SUFFIX)
            )
            _recover_bucket(kind_dir, b)

    # -- window apply ------------------------------------------------

    def window_manifest(self, window_id: str) -> dict | None:
        p = os.path.join(self.root, "_windows", f"{window_id}.json")
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return json.load(f)

    def apply_window(
        self,
        window_id: str,
        changes: dict[str, tuple["object", ray.data.Dataset]],
    ) -> dict:
        """Apply one window's delete+insert, rewriting ONLY buckets
        that hold a changed id. `changes[kind] = (changed_keys,
        inserts)` where `changed_keys` is a `closure.KeySet` (or
        array-like) of ALL changed ids (create+modify+delete) and
        `inserts` the create/modify rows in the kind's snapshot
        schema. Idempotent: re-applying a finished window is a no-op
        (manifest short-circuit), re-applying a crashed one re-runs
        its touched buckets to the same fixpoint."""
        done = self.window_manifest(window_id)
        if done is not None:
            return done

        from oluray.stages.closure import wrap_keys

        t0 = time.perf_counter()
        stage_root = os.path.join(self.root, "_stage", window_id)
        touched: dict[str, list[int]] = {}
        stats: dict[str, dict] = {}
        nb = self.n_buckets

        for kind, (keys, inserts) in changes.items():
            ks = wrap_keys(keys)
            kind_dir = os.path.join(self.root, kind)
            schema = self.schema(kind)
            cols = self.kinds[kind]
            kind_stage = os.path.join(stage_root, kind)

            # 1. stage inserts per bucket (diff-sized write). Staging
            # is itself idempotent: rebuilt from scratch on re-entry.
            if os.path.exists(kind_stage):
                shutil.rmtree(kind_stage)

            if ks.is_broadcast:
                # the changed-id set is broadcast-sized, so the insert
                # payload is too (same window): stage it with ONE
                # driver pull + numpy bucket split instead of a Ray
                # write job per kind (3 jobs/window saved)
                batches = list(inserts.iter_batches(batch_format="pyarrow"))
                it = (pa.concat_tables(
                    [pa.Table.from_batches([b]) if isinstance(
                        b, pa.RecordBatch) else b for b in batches]
                ) if batches else schema.empty_table())
                if it.num_rows:
                    bk = _bucket_of(
                        it["id"].to_numpy(zero_copy_only=False), nb
                    )
                    for b in np.unique(bk):
                        d = os.path.join(kind_stage, f"__b={int(b)}")
                        os.makedirs(d, exist_ok=True)
                        pq.write_table(
                            it.filter(pa.array(bk == b)),
                            os.path.join(d, "part.parquet"),
                        )
            else:
                def tag(t: pa.Table, _nb=nb) -> pa.Table:
                    ids = t["id"].to_numpy(zero_copy_only=False)
                    return t.append_column(
                        "__b", pa.array(_bucket_of(ids, _nb))
                    )

                inserts.map_batches(
                    tag, batch_format="pyarrow"
                ).write_parquet(kind_stage, partition_cols=["__b"])

            # 2. changed ids per bucket. The changed set is diff-sized
            # by construction (one window of edits); even the backfill
            # path's dataset-backed KeySet groups to at most n_buckets
            # driver rows here.
            if ks.is_broadcast:
                ids = ks.to_array()
            else:
                ids = np.unique(np.concatenate([
                    b["__key"].to_numpy(zero_copy_only=False)
                    for b in ks.key_dataset().iter_batches(
                        batch_format="pyarrow")
                ] or [np.array([], np.int64)])).astype(np.int64)
            bkt = _bucket_of(ids, nb)
            order = np.argsort(bkt, kind="stable")
            ids, bkt = ids[order], bkt[order]
            starts = np.flatnonzero(np.r_[True, bkt[1:] != bkt[:-1]])
            per_bucket = {
                int(bkt[s]): ids[s:e]
                for s, e in zip(starts, np.r_[starts[1:], len(ids)])
            } if len(ids) else {}
            touched[kind] = sorted(per_bucket)

            # 3. per-bucket rewrite — Ray tasks over the touched
            # buckets only (diff-proportional fan-out; each task does
            # one bucket-local anti-join + append + atomic swap)
            @ray.remote
            def rewrite(b: int, changed: np.ndarray, _kind_dir=kind_dir,
                        _stage=kind_stage, _schema=schema, _cols=cols):
                _recover_bucket(_kind_dir, b)
                live = _read_bucket(_kind_dir, b, _schema)
                keep = live.filter(
                    pc.invert(pc.is_in(
                        live["id"], value_set=pa.array(changed, pa.int64())
                    ))
                )
                ins_dir = os.path.join(_stage, f"__b={b}")
                parts = [keep]
                n_ins = 0
                if os.path.isdir(ins_dir):
                    ins = pa.concat_tables([
                        pq.read_table(f)
                        for f in sorted(_glob.glob(
                            os.path.join(ins_dir, "*.parquet")))
                    ])
                    ins = ins.select(_cols).cast(_schema)
                    n_ins = ins.num_rows
                    parts.append(ins)
                new = pa.concat_tables(parts)
                _write_bucket_atomic(_kind_dir, b, new)
                return (b, live.num_rows - keep.num_rows, n_ins,
                        new.num_rows)

            results = ray.get([
                rewrite.remote(b, per_bucket[b]) for b in touched[kind]
            ])
            stats[kind] = {
                "touched_buckets": touched[kind],
                "deleted": int(sum(r[1] for r in results)),
                "inserted": int(sum(r[2] for r in results)),
                "rows_after": {str(r[0]): int(r[3]) for r in results},
            }

        man = {
            "window_id": window_id,
            "n_buckets": nb,
            "kinds": stats,
            "seconds": time.perf_counter() - t0,
            "finished_at": time.time(),
        }
        # manifest write is the commit point; staging is garbage after
        tmp = os.path.join(self.root, "_windows", f".{window_id}.tmp")
        with open(tmp, "w") as f:
            json.dump(man, f)
        os.replace(
            tmp, os.path.join(self.root, "_windows", f"{window_id}.json")
        )
        if os.path.exists(stage_root):
            shutil.rmtree(stage_root)
        return man
