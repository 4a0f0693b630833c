"""Log-structured bucketed parquet tables: the storage layer under
`SnapshotStore` (one table per kind) and `RefIndex`.

A table is a BASE of hash buckets, `bucket=<b>/*.parquet` keyed by
splitmix64 of the table's key (the engine's one partitioner,
`oluray/stages/joins.py`), plus a DELTA LOG: one parquet file per
committed window, sorted by key and named `<seq>-<window_id>.parquet`,
so listing the log gives commit order. A window writes only its delta
file; no bucket is read or rewritten. The table's owner merges the
base with the deltas on read, the newest delta winning, after the
log-structured merge-tree (O'Neil et al., Acta Inf. 1996).

A delta file is live once its window's manifest
(`_windows/<window_id>.json`, the owner's commit point) exists. A file
whose window has no manifest is an uncommitted orphan: reads skip it
and the next append deletes it.

Compaction folds every live delta into the buckets once a read would
open more than `MAX_DELTA_FILES` delta files or the deltas outgrow
`MAX_DELTA_FRACTION` of the base bytes. Its crash safety is that of
`checkpoint.compact_partitions`:

- each bucket is swapped by two renames (`live -> .old`, `tmp ->
  live`, then `.old` removed), and a recovery sweep restores `.old`
  when a crash left no live dir;
- the deltas are retired oldest first, and only after every bucket
  swapped. A delta fixes the state of every key it names, so replaying
  it over a bucket that already holds it is a fixpoint; a crash
  mid-retirement leaves the newest deltas, which replay in order over
  the folded base to the same state.
"""

from __future__ import annotations

import glob as _glob
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# compaction bounds: a read opens at most this many delta files of a
# table, and the deltas stay within this share of the base's bytes
MAX_DELTA_FILES = 16
MAX_DELTA_FRACTION = 0.1

DELETED = "__del"  # tombstone flag column of a delta file
SEQ = "__seq"  # a delta row's commit order, added on read

_BUCKET_PREFIX = "bucket="
_TMP_SUFFIX = ".apply-tmp"
_OLD_SUFFIX = ".old"
_SEQ_DIGITS = 10
_EXT = ".parquet"


# -- buckets -----------------------------------------------------------


def bucket_of(ids: np.ndarray, n_buckets: int) -> np.ndarray:
    from oluray.stages.joins import _mix64

    return (_mix64(np.asarray(ids).astype(np.int64))
            % np.uint64(n_buckets)).astype(np.int64)


def bucket_dir(table_dir: str, b: int) -> str:
    return os.path.join(table_dir, f"{_BUCKET_PREFIX}{b}")


def bucket_files(table_dir: str, buckets=None) -> list[str]:
    """Parquet files of the live buckets (of `buckets`, default all),
    swap artifacts excluded."""
    if buckets is None:
        dirs = [d for d in _glob.glob(os.path.join(table_dir, f"{_BUCKET_PREFIX}*"))
                if not d.endswith((_OLD_SUFFIX, _TMP_SUFFIX))]
    else:
        dirs = [bucket_dir(table_dir, int(b)) for b in buckets]
    return sorted(f for d in dirs for f in _glob.glob(os.path.join(d, "*.parquet")))


def _recover_bucket(table_dir: str, b: int) -> None:
    """Crash recovery for one bucket's two-rename swap: restore `.old`
    when the live dir is missing (crash between renames), discard it
    when live exists (swap completed), discard an incomplete tmp."""
    live = bucket_dir(table_dir, b)
    old = live + _OLD_SUFFIX
    tmp = live + _TMP_SUFFIX
    if os.path.exists(old):
        if not os.path.exists(live):
            os.replace(old, live)
        else:
            shutil.rmtree(old)
    if os.path.exists(tmp):
        shutil.rmtree(tmp)


def recover(table_dir: str) -> None:
    """The recovery sweep over every bucket a swap left artifacts of."""
    for d in _glob.glob(os.path.join(table_dir, f"{_BUCKET_PREFIX}*{_OLD_SUFFIX}")) + \
            _glob.glob(os.path.join(table_dir, f"{_BUCKET_PREFIX}*{_TMP_SUFFIX}")):
        base = os.path.basename(d)
        b = base[len(_BUCKET_PREFIX):].removesuffix(_OLD_SUFFIX).removesuffix(_TMP_SUFFIX)
        _recover_bucket(table_dir, int(b))


def write_bucket(table_dir: str, b: int, table: pa.Table) -> None:
    live = bucket_dir(table_dir, b)
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


def read_files(files: list[str], schema: pa.Schema) -> pa.Table:
    """The `schema` columns of parquet files as one table.
    `ParquetFile.read` skips the dataset discovery `pq.read_table` pays
    per file: a point read over 64 node buckets of the benchmark store
    takes 0.035 s instead of 0.11 s."""
    if not files:
        return schema.empty_table()
    return pa.concat_tables([
        pq.ParquetFile(f).read(columns=schema.names, use_threads=False).cast(schema)
        for f in files
    ])


def read_bucket(table_dir: str, b: int, schema: pa.Schema) -> pa.Table:
    return read_files(bucket_files(table_dir, [b]), schema)


# -- windows -----------------------------------------------------------


def read_manifest(windows_dir: str, window_id: str) -> dict | None:
    p = os.path.join(windows_dir, f"{window_id}.json")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def write_manifest(windows_dir: str, man: dict) -> None:
    """Atomically (re)write a window manifest: the commit point."""
    os.makedirs(windows_dir, exist_ok=True)
    tmp = os.path.join(windows_dir, f".{man['window_id']}.tmp")
    with open(tmp, "w") as f:
        json.dump(man, f)
    os.replace(tmp, os.path.join(windows_dir, f"{man['window_id']}.json"))


def as_table(rows, schema: pa.Schema) -> pa.Table:
    """A driver `pa.Table` or a Dataset of `schema`-shaped rows as one
    driver table of `schema`. A materialized Dataset is unwrapped
    without a Ray Data execution."""
    from oluray.stages.closure import local_table

    t = rows if isinstance(rows, pa.Table) else local_table(rows)
    if t is None:
        # shuffle outputs can carry zero-row, zero-column blocks
        parts = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
                 for b in rows.iter_batches(batch_format="pyarrow") if b.num_rows]
        t = pa.concat_tables(parts) if parts else None
    if t is None or t.num_rows == 0:
        return schema.empty_table()
    return t.select(schema.names).cast(schema)


def with_flag(t: pa.Table, deleted: bool) -> pa.Table:
    return t.append_column(DELETED, pa.array(np.full(t.num_rows, deleted)))


# -- the delta log -----------------------------------------------------


class DeltaLog:
    """The delta files of the bucketed table under `table_dir`, kept in
    `log_dir`; `windows_dir` holds the owner's window manifests.
    Delta tables are cached by file name (files never change once
    written), and so is the owner's merged view of the live set."""

    def __init__(self, table_dir: str, log_dir: str, windows_dir: str):
        self.table_dir = table_dir
        self.dir = log_dir
        self.windows_dir = windows_dir
        self._tables: dict[str, pa.Table] = {}
        self._view_key: tuple[str, ...] | None = None
        self._view = None

    @staticmethod
    def _window_of(name: str) -> str:
        return name[_SEQ_DIGITS + 1:-len(_EXT)]

    def _names(self) -> list[str]:
        try:
            names = os.listdir(self.dir)
        except FileNotFoundError:
            return []
        return sorted(n for n in names if n.endswith(_EXT) and not n.startswith("."))

    def _committed(self, name: str) -> bool:
        return os.path.exists(
            os.path.join(self.windows_dir, f"{self._window_of(name)}.json"))

    def live(self) -> list[str]:
        """Committed delta file names, oldest first."""
        return [n for n in self._names() if self._committed(n)]

    def pending(self, window_id: str) -> str | None:
        """The appended, not yet committed delta file of `window_id`."""
        return next((n for n in self._names() if self._window_of(n) == window_id
                     and not self._committed(n)), None)

    def append(self, window_id: str, table: pa.Table) -> str:
        """Write `table` as the log's next file, after deleting every
        uncommitted file (a crashed window's, this one's included). It
        is live once `window_id`'s manifest lands."""
        os.makedirs(self.dir, exist_ok=True)
        for n in os.listdir(self.dir):
            if n.startswith(".") or not self._committed(n):
                os.remove(os.path.join(self.dir, n))
        names = self._names()
        seq = int(names[-1][:_SEQ_DIGITS]) + 1 if names else 1
        name = f"{seq:0{_SEQ_DIGITS}d}-{window_id}{_EXT}"
        tmp = os.path.join(self.dir, f".{name}.tmp")
        pq.write_table(table, tmp)
        os.replace(tmp, os.path.join(self.dir, name))
        self._tables[name] = table
        return name

    def table(self, name: str) -> pa.Table:
        if name not in self._tables:
            self._tables[name] = pq.read_table(os.path.join(self.dir, name))
        return self._tables[name]

    def view(self, build):
        """`build(rows)` over the live deltas' rows, each with its
        file's `SEQ`; None when no delta is live. Rebuilt only when
        the live set changes."""
        names = tuple(self.live())
        if not names:
            return None
        if names != self._view_key:
            self._tables = {n: t for n, t in self._tables.items() if n in names}
            rows = pa.concat_tables([
                self.table(n).append_column(
                    SEQ, pa.array(np.full(self.table(n).num_rows, int(n[:_SEQ_DIGITS]))))
                for n in names
            ])
            self._view, self._view_key = build(rows), names
        return self._view

    def compaction_due(self) -> bool:
        names = self.live()
        if len(names) > MAX_DELTA_FILES:
            return True
        delta = sum(os.path.getsize(os.path.join(self.dir, n)) for n in names)
        base = sum(os.path.getsize(f) for f in bucket_files(self.table_dir))
        return delta > MAX_DELTA_FRACTION * base

    def compact(self, schema: pa.Schema, buckets, fold) -> dict:
        """Fold the live deltas into the buckets: `fold(b, rows)`
        returns bucket `b`'s new rows, or None when the deltas leave
        it unchanged; `buckets` are the candidates. Returns the cost
        record: deltas folded, rows of each bucket written, seconds."""
        t0 = time.perf_counter()
        names = self.live()
        written = {}
        for b in buckets:
            _recover_bucket(self.table_dir, int(b))
            new = fold(int(b), read_bucket(self.table_dir, int(b), schema))
            if new is not None:
                write_bucket(self.table_dir, int(b), new)
                written[f"{_BUCKET_PREFIX}{int(b)}"] = new.num_rows
        self.retire(names)
        return {"deltas": len(names), "rows_after": written,
                "seconds": time.perf_counter() - t0}

    def retire(self, names: list[str]) -> None:
        """Delete folded deltas, oldest first."""
        for n in sorted(names):
            os.remove(os.path.join(self.dir, n))
            self._tables.pop(n, None)
