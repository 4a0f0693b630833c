"""Resumable partitioned output: per-partition checkpoint manifest.

The reference's resume story is coarse: re-derive the replication
cursor from the target DB's max timestamp and reprocess the whole diff
window (`/root/reference/src/osm/OsmUpdater.cpp:101-115`,
`src/osm/OsmDataFetcher.cpp:145-175`); idempotence comes from
delete-before-insert per window (`src/osm/OsmChangeHandler.cpp:101-103`).

Here resume is per-partition: output is a directory per partition key
(coarse cell / key range), each written ATOMICALLY (tmp dir + rename),
plus a JSON manifest recording, per partition: status, row count,
wall seconds, rows/sec (lineage + throughput metrics per the north
rule). A rerun with the same window id skips finished partitions —
the delete-then-insert idempotence of the reference expressed as
"replace the partition directory".
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field


@dataclass
class Manifest:
    path: str
    window_id: str
    partitions: dict[str, dict] = field(default_factory=dict)

    @property
    def file(self) -> str:
        return os.path.join(self.path, "_manifest.json")

    @classmethod
    def load_or_create(cls, path: str, window_id: str) -> "Manifest":
        os.makedirs(path, exist_ok=True)
        f = os.path.join(path, "_manifest.json")
        if os.path.exists(f):
            with open(f) as fh:
                data = json.load(fh)
            if data.get("window_id") == window_id:
                return cls(path, window_id, data.get("partitions", {}))
        # new window: previous partitions are stale (delete-then-insert
        # per window, like the reference's idempotent modify)
        return cls(path, window_id, {})

    def save(self) -> None:
        tmp = self.file + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(
                {"window_id": self.window_id, "partitions": self.partitions}, fh,
                indent=1, sort_keys=True,
            )
        os.replace(tmp, self.file)

    def is_done(self, part: str) -> bool:
        return self.partitions.get(part, {}).get("status") == "done"

    def mark_done(self, part: str, rows: int, seconds: float,
                  lineage: dict | None = None, save: bool = True) -> None:
        """`save=False` lets a caller marking many partitions at once
        batch the manifest write (one atomic replace instead of O(P)
        full-file rewrites)."""
        self.partitions[part] = {
            "status": "done",
            "rows": rows,
            "seconds": round(seconds, 3),
            "rows_per_sec": round(rows / seconds, 1) if seconds > 0 else None,
            "lineage": lineage or {},
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        if save:
            self.save()


def _dir_key(dirname: str) -> str:
    """Hive partition dir basename -> the partition VALUE: pyarrow
    URL-encodes special characters into the dir name ('a b' ->
    'part=a%20b'), so manifest keys must be the decoded value or the
    resume filter never matches the column (duplicate rows on resume).
    Null partition values are rejected — a resumable sink keyed on
    null has no usable identity."""
    from urllib.parse import unquote

    key = dirname.split("=", 1)[1]
    if key == "__HIVE_DEFAULT_PARTITION__":
        raise ValueError(
            "partition column contains nulls — the resumable sink "
            "needs a non-null partition key per row"
        )
    return unquote(key)


def _recover_compaction(out_dir: str, part_col: str) -> None:
    """Shared crash-recovery sweep for the compaction swap protocol.

    `compact_partitions` swaps a partition in two renames (live ->
    `.old`, tmp -> live); a crash between them leaves `part=<k>.old`
    as the ONLY copy of the data. EVERY entry point that walks
    `part=*` dirs must run this sweep FIRST — restore `.old` when the
    live dir is missing, discard it when the live dir exists (swap
    completed), and discard incomplete `.compact-tmp` output —
    otherwise a later cleanup pass can delete `.old` as "stale"
    (its derived key `<k>.old` is never in the manifest) and the
    manifest's done-mark filters those rows out of any rewrite:
    silent permanent loss (ADVICE r3, high)."""
    import glob as _glob

    for old in _glob.glob(os.path.join(out_dir, f"{part_col}=*.old")):
        final = old[: -len(".old")]
        if not os.path.exists(final):
            os.replace(old, final)
        else:
            shutil.rmtree(old)
    for tmp in _glob.glob(os.path.join(out_dir, f"{part_col}=*.compact-tmp")):
        shutil.rmtree(tmp)  # incomplete compaction output: discard


def _is_swap_artifact(dirname: str) -> bool:
    """True for compaction-protocol suffix dirs that must never be
    treated as partition dirs by cleanup / footer-count walks."""
    return dirname.endswith(".old") or dirname.endswith(".compact-tmp")


def write_partition(table, out_dir: str, part: str,
                    part_col: str = "part") -> str:
    """Atomically (re)write one partition directory of parquet,
    `<part_col>=<part>` (`part` as it appears in the dir name)."""
    import pyarrow.parquet as pq

    final = os.path.join(out_dir, f"{part_col}={part}")
    tmp = final + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    pq.write_table(table, os.path.join(tmp, "data.parquet"))
    if os.path.exists(final):
        shutil.rmtree(final)  # delete-then-insert: replace stale partition
    os.replace(tmp, final)
    return final


def write_partitioned_resumable(
    ds, out_dir: str, window_id: str, part_col: str = "part",
) -> Manifest:
    """Resumable partitioned sink: hive-style `part=<value>/` dirs plus
    a manifest that makes the write idempotent per window. `ds` is a
    Ray Dataset, written by `ds.write_parquet(partition_cols=
    [part_col])` — workers write in parallel, no driver-side row
    funnel — or a driver `pa.Table`, written on the driver one
    partition at a time (no Ray Data execution):

    1. stale cleanup: any on-disk partition dir NOT marked done in the
       current window's manifest is deleted (delete-then-insert — the
       reference's idempotence, `src/osm/OsmChangeHandler.cpp:101-103`);
    2. rows whose partition is already done are filtered out BEFORE
       the write (broadcast key set, no shuffle);
    3. a Dataset is written in one distributed write, then
       per-partition row counts come from the parquet footers; a table
       writes each not-done partition with `write_partition` (atomic
       tmp dir + rename, same dir names and file columns as the
       distributed write) and counts its rows from the table. Each
       partition is checkpointed with lineage + throughput metrics.
    """
    import glob as _glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    man = Manifest.load_or_create(out_dir, window_id)
    man.save()
    done_parts = {p for p in man.partitions if man.is_done(p)}

    # 0. recover any interrupted compaction swap BEFORE touching dirs
    # (else the stale sweep below deletes `part=<k>.old` — the only
    # copy after a mid-swap crash — while the manifest still filters
    # <k>'s rows out of the rewrite: silent loss. ADVICE r3 high.)
    _recover_compaction(out_dir, part_col)

    # 1. delete-then-insert: remove stale (not-done) partition dirs
    for d in _glob.glob(os.path.join(out_dir, f"{part_col}=*")):
        if _is_swap_artifact(os.path.basename(d)):
            continue  # handled by the recovery sweep, never "stale"
        key = _dir_key(os.path.basename(d))
        if key not in done_parts:
            shutil.rmtree(d)

    if isinstance(ds, pa.Table):
        for key, rows, seconds in _write_table_partitions(
                ds, out_dir, part_col, done_parts):
            man.mark_done(
                key, rows, seconds,
                lineage={"window_id": window_id, "partition": key},
                save=False,  # one atomic manifest write below, not O(P)
            )
        man.save()
        return man

    # 2. skip finished partitions (broadcast filter). Manifest keys are
    # hive-dir strings; they are cast to the partition column's NATIVE
    # Arrow type per batch — an earlier version int()'d them and broke
    # on any non-integer partition value (ADVICE r1)
    if done_parts:
        import ray as _ray

        done_ref = _ray.put(sorted(done_parts))

        def not_done(t: pa.Table) -> pa.Table:
            keys = pa.array(_ray.get(done_ref), pa.string()).cast(t[part_col].type)
            mask = pc.invert(pc.is_in(t[part_col], value_set=keys))
            return t.filter(mask)

        ds = ds.map_batches(not_done, batch_format="pyarrow")

    # 3. parallel write + checkpoint from the footers
    t0 = time.perf_counter()
    ds.write_parquet(out_dir, partition_cols=[part_col])
    wall = max(time.perf_counter() - t0, 1e-9)
    new_parts: dict[str, int] = {}
    for d in _glob.glob(os.path.join(out_dir, f"{part_col}=*")):
        if _is_swap_artifact(os.path.basename(d)):
            continue
        key = _dir_key(os.path.basename(d))
        if key in done_parts:
            continue
        rows = sum(
            pq.ParquetFile(f).metadata.num_rows
            for f in _glob.glob(os.path.join(d, "*.parquet"))
        )
        new_parts[key] = rows
    total_rows = sum(new_parts.values())
    for key, rows in new_parts.items():
        # wall time attributed pro-rata (partitions are written
        # concurrently inside one distributed write)
        frac = rows / total_rows if total_rows else 0.0
        man.mark_done(
            key, rows, wall * frac,
            lineage={"window_id": window_id, "partition": key},
            save=False,  # one atomic manifest write below, not O(P)
        )
    man.save()
    return man


def _write_table_partitions(table, out_dir: str, part_col: str,
                            done_parts: set[str]):
    """Steps 2-3 of `write_partitioned_resumable` for a driver table:
    yields (key, rows, seconds) per partition written. Keys are the
    partition values as Arrow casts them to strings — the values the
    distributed write names its hive dirs by, URL-encoded in the dir
    name as there — and the files leave the partition column out, as
    hive files do."""
    from urllib.parse import quote

    import numpy as np
    import pyarrow.compute as pc

    if table.num_rows == 0:
        return
    keys = pc.cast(table[part_col], "string")
    if keys.null_count:
        raise ValueError(
            "partition column contains nulls — the resumable sink "
            "needs a non-null partition key per row"
        )
    order = pc.sort_indices(keys)  # stable: rows keep their order
    rows = table.drop_columns([part_col]).take(order)
    keys = keys.take(order).to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    for s, e in zip(starts, np.r_[starts[1:], len(keys)]):
        key = str(keys[s])
        if key in done_parts:
            continue
        t0 = time.perf_counter()
        write_partition(rows.slice(s, e - s), out_dir, quote(key, safe=""),
                        part_col)
        yield key, int(e - s), time.perf_counter() - t0


def compact_partitions(
    out_dir: str,
    window_id: str,
    part_col: str = "part",
    max_files: int = 1,
) -> dict[str, dict]:
    """Small-file compaction for the resumable sink: rewrite every
    DONE partition that holds more than `max_files` parquet files into
    one file, in parallel, without changing a single row. A streaming
    write at high concurrency legitimately leaves one file per
    producing task; at 100 TB that's the classic many-small-files tax
    on every later scan. Compaction is the standard follow-up pass
    (Iceberg/Delta `rewrite_data_files`), expressed here over the
    manifest's own partition inventory.

    Crash-safe swap per partition: compacted data lands in
    `part=<k>.compact-tmp/`, the live dir is renamed to
    `part=<k>.old/`, tmp renamed live, then `.old` removed — and a
    recovery sweep at the start restores `.old` if a previous run died
    between the renames (the live dir is then missing). Row counts are
    verified from the parquet footers BEFORE the swap; a mismatch
    aborts that partition and leaves the original untouched.

    Runs one Ray task per partition (`from_items -> map_batches`,
    batch_size=1): partition dirs are independent, so compaction
    parallelism = partition count, same as the write itself. The
    driver only sees per-partition (files_before, files_after, rows)
    rows. Returns that summary dict and stamps `compacted_files` into
    each partition's manifest entry."""
    import glob as _glob

    import pyarrow.parquet as pq
    import ray
    import ray.data

    man = Manifest.load_or_create(out_dir, window_id)

    # recovery sweep: a crash between the two renames leaves `.old`
    # with no live dir — restore it (data was verified pre-swap)
    _recover_compaction(out_dir, part_col)

    todo = []
    for d in sorted(_glob.glob(os.path.join(out_dir, f"{part_col}=*"))):
        if _is_swap_artifact(os.path.basename(d)):
            continue
        key = _dir_key(os.path.basename(d))
        if not man.is_done(key):
            continue
        files = _glob.glob(os.path.join(d, "*.parquet"))
        if len(files) > max_files:
            todo.append({"dir": d, "key": key})
    if not todo:
        return {}

    def compact(batch):
        import pandas as pd

        rows_out = []
        for d in batch["dir"]:
            files = sorted(_glob.glob(os.path.join(d, "*.parquet")))
            n_before = sum(
                pq.ParquetFile(f).metadata.num_rows for f in files
            )
            table = pq.read_table(d)
            if table.num_rows != n_before:  # pre-swap verification
                rows_out.append((os.path.basename(d), len(files), -1,
                                 n_before))
                continue
            tmp = d + ".compact-tmp"
            if os.path.exists(tmp):
                shutil.rmtree(tmp)
            os.makedirs(tmp)
            pq.write_table(table, os.path.join(tmp, "data.parquet"))
            old = d + ".old"
            os.replace(d, old)
            os.replace(tmp, d)
            shutil.rmtree(old)
            rows_out.append((os.path.basename(d), len(files), 1, n_before))
        return pd.DataFrame(
            rows_out, columns=["part", "files_before", "files_after",
                               "rows"])

    res = ray.data.from_items(todo).map_batches(
        compact, batch_size=1, batch_format="pandas"
    ).to_pandas()  # one summary row per partition — tiny by definition

    summary: dict[str, dict] = {}
    for _, r in res.iterrows():
        key = _dir_key(r["part"])
        summary[key] = {
            "files_before": int(r["files_before"]),
            "files_after": int(r["files_after"]),
            "rows": int(r["rows"]),
        }
        if int(r["files_after"]) > 0:
            man.partitions[key]["compacted_files"] = int(r["files_after"])
    man.save()
    return summary
