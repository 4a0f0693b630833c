"""IO adapter: Lance preferred, Parquet fallback.

The north-rule input is a Lance table of image + caption pairs
(`BASELINE.json` input_hint: `read_lance` / `write_lance`). This
sandbox has no `lance` package, so every reader/writer here resolves
the format at call time:

- a path ending in `.lance` (or containing a Lance manifest) is read
  with `ray.data.read_lance` / written with `Dataset.write_lance`
  WHEN the `lance` package is importable;
- otherwise Parquet, same call shape.

On a real cluster with `pylance` installed, the flagship pipeline and
the resumable sink run against Lance datasets without a code change;
in this sandbox the Parquet fallback keeps everything testable.
"""

from __future__ import annotations

import os

import numpy as np
import ray.data


def lance_available() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def is_lance_path(path: str) -> bool:
    return path.endswith(".lance") or os.path.isdir(os.path.join(path, "_versions"))


def read_jsonl(path: str, columns: list[str] | None = None,
               **kw) -> ray.data.Dataset:
    """Distributed JSONL ingest (`ray.data.read_json` — one read task
    per file / block). JSON is a row-major TEXT format: there is no
    storage-level column pruning, so `columns` projects AFTER parse —
    fine for ingest, wrong as a steady-state 100 TB layout. The
    intended flow is read_jsonl -> (clean/typed) -> write_table to
    parquet/Lance once, then every later pass prunes at the read."""
    ds = ray.data.read_json(path, **kw)
    return ds.select_columns(columns) if columns else ds


def write_jsonl(ds: ray.data.Dataset, path: str, **kw) -> None:
    """One .json file per block (Ray's layout) — an export/interchange
    sink, not the scale layout (see read_jsonl)."""
    ds.write_json(path, **kw)


def read_csv(path: str, columns: list[str] | None = None,
             **kw) -> ray.data.Dataset:
    """Distributed CSV ingest (Arrow CSV parser per block, types
    inferred). Same ingest-only caveat as read_jsonl: projection
    happens after parse; convert to parquet/Lance for reuse."""
    ds = ray.data.read_csv(path, **kw)
    return ds.select_columns(columns) if columns else ds


def write_csv(ds: ray.data.Dataset, path: str, **kw) -> None:
    ds.write_csv(path, **kw)


def _fmt_of(path: str, fmt: str | None) -> str:
    if fmt:
        return fmt
    low = path.rstrip("/").lower()
    if low.endswith((".jsonl", ".json", ".ndjson")):
        return "jsonl"
    if low.endswith(".csv"):
        return "csv"
    if is_lance_path(path):
        return "lance"
    return "parquet"


def read_table(path: str, columns: list[str] | None = None,
               fmt: str | None = None, **kw) -> ray.data.Dataset:
    """Read a table, dispatching on path format (or explicit `fmt`:
    parquet | lance | jsonl | csv). Column pruning is pushed into the
    read for the columnar formats (at 100 TB, a read that loads all
    columns for a 2-column transform is wrong); for the row-major
    ingest formats it is a post-parse projection (see read_jsonl)."""
    f = _fmt_of(path, fmt)
    if f == "lance":
        if lance_available():
            return ray.data.read_lance(path, columns=columns, **kw)
        raise ImportError(
            f"{path} is a Lance dataset but the 'lance' package is not "
            "installed; install pylance or convert to parquet"
        )
    if f == "jsonl":
        return read_jsonl(path, columns=columns, **kw)
    if f == "csv":
        return read_csv(path, columns=columns, **kw)
    return ray.data.read_parquet(path, columns=columns, **kw)


def write_table(ds: ray.data.Dataset, path: str,
                fmt: str | None = None, **kw) -> None:
    """Write a Dataset, dispatching on path format (or explicit
    `fmt`)."""
    f = _fmt_of(path, fmt)
    if f == "lance":
        if lance_available():
            ds.write_lance(path, **kw)
            return
        raise ImportError(
            f"{path} targets Lance but the 'lance' package is not installed"
        )
    if f == "jsonl":
        write_jsonl(ds, path, **kw)
        return
    if f == "csv":
        write_csv(ds, path, **kw)
        return
    ds.write_parquet(path, **kw)


# ---------------------------------------------------------------------------
# bucketed tables: pre-shuffled storage for shuffle-free later joins
# ---------------------------------------------------------------------------

_BUCKET_MANIFEST = "_bucketed.json"


def write_bucketed(ds: ray.data.Dataset, out_dir: str, key: str,
                   n_buckets: int = 32) -> None:
    """Write `ds` hive-partitioned by hash bucket of `key` (splitmix64,
    the engine's one partitioner) plus a manifest recording the
    bucketing contract. The 'pick ONE partitioning key and reuse it'
    rule made durable: every later `bucketed_join` on the same
    (key hash, n_buckets) runs with ZERO exchange — each task reads
    one bucket of each side and merges locally."""
    import json

    import pandas as pd

    from oluray.stages.joins import _hash_series

    def tag(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.copy(deep=False)
        df["__bucket"] = (
            _hash_series(df[key]) % np.uint64(n_buckets)
        ).astype(np.int64)
        return df

    os.makedirs(out_dir, exist_ok=True)
    ds.map_batches(tag, batch_format="pandas").write_parquet(
        out_dir, partition_cols=["__bucket"]
    )
    with open(os.path.join(out_dir, _BUCKET_MANIFEST), "w") as f:
        json.dump({"key": key, "n_buckets": int(n_buckets),
                   "hash": "splitmix64"}, f)


def _bucket_manifest(d: str) -> dict:
    import json

    p = os.path.join(d, _BUCKET_MANIFEST)
    if not os.path.exists(p):
        raise ValueError(f"{d} is not a bucketed table (no {_BUCKET_MANIFEST})")
    with open(p) as f:
        return json.load(f)


def bucketed_join(
    left_dir: str, right_dir: str, how: str = "inner", suffix: str = "_r",
) -> ray.data.Dataset:
    """Shuffle-free join of two IDENTICALLY bucketed tables: the
    manifests must agree on (hash, n_buckets); each of the n_buckets
    tasks reads its bucket from BOTH sides and merges locally — no
    exchange, no broadcast, co-location comes from storage. Join keys
    may have different names per side (each manifest records its own).

    This is the classic bucketed-table join: pay the shuffle ONCE at
    write time, amortize it over every downstream join on that key."""
    import pandas as pd
    import pyarrow.parquet as pq

    lm = _bucket_manifest(left_dir)
    rm = _bucket_manifest(right_dir)
    if lm["n_buckets"] != rm["n_buckets"] or lm["hash"] != rm["hash"]:
        raise ValueError(
            f"bucket contracts differ: {lm} vs {rm} — re-bucket one side"
        )
    lkey, rkey = lm["key"], rm["key"]
    n = lm["n_buckets"]

    def _side_schema(d: str):
        for b in range(n):
            p = os.path.join(d, f"__bucket={b}")
            if os.path.isdir(p):
                return pq.ParquetDataset(p).schema
        return None

    def _typed_empty() -> "pd.DataFrame":
        # TYPED empty (r5): run the real merge on schema-derived empty
        # frames so a no-match bucket emits the exact output dtypes
        # instead of a schema-less pd.DataFrame() block
        ls, rs = _side_schema(left_dir), _side_schema(right_dir)
        if ls is None:
            return pd.DataFrame()
        lf = ls.empty_table().to_pandas()
        if rs is None:
            rf = pd.DataFrame({rkey: pd.Series([], dtype="int64")})
        else:
            rf = rs.empty_table().to_pandas()
        collide = (set(lf.columns) & set(rf.columns)) - {rkey}
        rf = rf.rename(columns={c: c + suffix for c in collide})
        return lf.merge(rf, how=how, left_on=lkey, right_on=rkey)

    def join_bucket(batch: "pd.DataFrame") -> "pd.DataFrame":
        frames = []
        for b in batch["bucket"]:
            ld = os.path.join(left_dir, f"__bucket={b}")
            rd = os.path.join(right_dir, f"__bucket={b}")
            lf = pq.read_table(ld).to_pandas() if os.path.isdir(ld) else None
            rf = pq.read_table(rd).to_pandas() if os.path.isdir(rd) else None
            if lf is None or len(lf) == 0:
                continue
            if rf is None or len(rf) == 0:
                if how == "left":
                    rf = pd.DataFrame({rkey: pd.Series([], dtype="int64")})
                else:
                    continue
            collide = (set(lf.columns) & set(rf.columns)) - {rkey}
            rf = rf.rename(columns={c: c + suffix for c in collide})
            frames.append(
                lf.merge(rf, how=how, left_on=lkey, right_on=rkey)
            )
        if not frames:
            return _typed_empty()
        return pd.concat(frames, ignore_index=True)

    ids = ray.data.from_items([{"bucket": b} for b in range(n)])
    return ids.map_batches(join_bucket, batch_format="pandas", batch_size=1)
