"""Driver contract for the oluray graft builder (Ray Data target).

- ``entry()`` — flagship pipeline on /root/testdata/sf0.001: apply a
  deterministic changeset-polygon window to images synthesized from
  the documents table; returns the assignments Dataset.
- ``queries()`` — one callable per implemented operator/pipeline from
  SURVEY.md §2 (+ the training-data ops); each takes ``sf_dir``.
- ``oracle_sql()`` — DuckDB-equivalent SQL per query (omitted for the
  genuinely non-SQL-expressible sketch/LSH/decode ops -> rows-only).

Ray is initialised by the driver before importing this module; nothing
here calls ``ray.init``/``ray.shutdown``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: images (synthesized deterministically from sf0.001
    documents) x changeset polygons -> assignments Dataset."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from oluray.pipelines import flagship
    from oluray.sources import fixtures

    sf_dir = "/root/testdata/sf0.001"
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        rows = {"image_id": [], "bytes": [], "w": [], "h": [], "fmt": [],
                "caption": [], "phash": []}
        from oluray.functions.imagecodec import encode

        for i in ids:
            i = int(i)
            w = h = fixtures.SIZES[i % len(fixtures.SIZES)]
            fmt = fixtures.FMTS[i % len(fixtures.FMTS)]
            px = fixtures._pixels(i, w, h, 42)
            rows["image_id"].append(f"img{i:08d}")
            rows["bytes"].append(encode(px, fmt))
            rows["w"].append(w)
            rows["h"].append(h)
            rows["fmt"].append(fmt)
            rows["caption"].append(fixtures.caption_for(i, 42))
            rows["phash"].append(fixtures.phash64(px))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"]),
                "bytes": pa.array(rows["bytes"], pa.binary()),
                "w": pa.array(rows["w"], pa.int32()),
                "h": pa.array(rows["h"], pa.int32()),
                "fmt": pa.array(rows["fmt"]),
                "caption": pa.array(rows["caption"]),
                "phash": pa.array(rows["phash"], pa.int64()),
            }
        )

    images = docs.map_batches(synth, batch_format="pyarrow", batch_size=256)
    # anchor polygons on the image footprint cluster so the window has
    # hits — probe phashes synthesized directly for ids 0..63 (a
    # take_batch here read whichever block finished first, so the
    # polygon window, and the row count, varied run to run)
    ph = np.array(
        [
            fixtures.phash64(
                fixtures._pixels(i, fixtures.SIZES[i % len(fixtures.SIZES)],
                                 fixtures.SIZES[i % len(fixtures.SIZES)], 42)
            )
            for i in range(64)
        ],
        dtype=np.int64,
    )
    lon, lat = fixtures.footprint_from_phash(ph)
    centers = [(float(lon[i]), float(lat[i])) for i in range(0, len(lon), 8)]
    polys = fixtures.make_change_polys(8, seed=42, span_deg=20.0, centers=centers[:6])
    return flagship.assignments_pipeline(images, polys, pip_res=7)


def queries() -> dict[str, Callable[[str], Any]]:
    from oluray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from oluray.pipelines.queries import ORACLE

    return dict(ORACLE)
