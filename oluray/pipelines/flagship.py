"""Flagship pipeline: apply a changeset window to the image table.

The end-to-end recomposition of the reference's run loop
(`/root/reference/src/osm/OsmChangeHandler.cpp:74-117`) on the
north-rule payload:

  images (Lance/Parquet) ──project (no bytes!)──► footprints
      ─► cell encode ─► PIP join vs changeset polygons (driver-built
      index, cell-cover prefilter) ─► nearest-feature dist (broadcast
      centroids, no shuffle) ─► tile cover explode ─► assignments,
      written as per-partition parquet with a checkpoint manifest
      (delete-then-insert per window = the reference's idempotence,
      `src/osm/OsmChangeHandler.cpp:101-103`).

Output schema (SURVEY.md §1.2): assignments(image_id, cell, poly_id,
op, dist_m, caption).

Scale contract: image `bytes` never enter this pipeline — only the
(image_id, phash, w, h, caption) projection streams through the
joins; bytes re-join (by image_id, within the already-partitioned
output cell) only in tile materialization (`materialize_tiles`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from oluray.functions import geo
from oluray.pipelines.stream import add_part
from oluray.sources.fixtures import footprint_from_phash
from oluray.stages.spatial import pip_join, tile_cover


def add_footprint(ds: ray.data.Dataset) -> ray.data.Dataset:
    """phash -> deterministic (lon, lat) footprint (FIXTURES.md §1)."""

    def fn(batch: pa.Table) -> pa.Table:
        lon, lat = footprint_from_phash(batch["phash"].to_numpy(zero_copy_only=False))
        return batch.append_column("lon", pa.array(lon)).append_column(
            "lat", pa.array(lat)
        )

    return ds.map_batches(fn, batch_format="pyarrow")


_CENT_ARRAYS: dict = {}


def _centroid_arrays(cent_ref):
    """Per-worker memo of the dict -> sorted-array conversion (the
    Python loop over all polygons would otherwise rerun per batch)."""
    key = cent_ref.hex()
    hit = _CENT_ARRAYS.get(key)
    if hit is None:
        cents = ray.get(cent_ref)  # {poly_id: (lon, lat)} — local
        ids = np.array(sorted(cents), dtype=np.int64)
        clon = np.array([cents[i][0] for i in ids])
        clat = np.array([cents[i][1] for i in ids])
        _CENT_ARRAYS.clear()
        hit = _CENT_ARRAYS[key] = (ids, clon, clat)
    return hit


def add_centroid_dist(batch: pa.Table, cent_ref) -> pa.Table:
    """dist_m from each assigned point to its polygon's centroid —
    broadcast centroid lookup (`ray.get` hits the local object store),
    vectorized take, NO shuffle. A stateless task stage, like the PIP
    join before it."""
    ids, clon, clat = _centroid_arrays(cent_ref)
    pid = batch["poly_id"].to_numpy(zero_copy_only=False)
    pos = np.searchsorted(ids, pid)
    d = geo.haversine_m(
        batch["lon"].to_numpy(zero_copy_only=False),
        batch["lat"].to_numpy(zero_copy_only=False),
        clon[pos],
        clat[pos],
    )
    return batch.append_column("dist_m", pa.array(np.round(d, 3)))


def poly_centroids(polys: pa.Table) -> dict[int, tuple[float, float]]:
    """Ring-vertex mean per polygon, vectorized over the flattened
    list column (per-ring segment means via reduceat — the old
    to_pylist() loop was driver-side O(total vertices) in Python;
    this runs once per window over the DIFF-sized polygon table, but
    cheap is cheap)."""
    ring = polys["ring"].combine_chunks()
    if ring.null_count:
        raise ValueError("poly_centroids: every polygon needs a ring")
    flat = pc.list_flatten(ring)
    offs = ring.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    # list_flatten re-bases the vertices; the offsets of a sliced
    # ListArray stay absolute
    offs -= offs[0]
    lon = flat.field("lon").to_numpy(zero_copy_only=False)
    lat = flat.field("lat").to_numpy(zero_copy_only=False)
    n = np.diff(offs).astype(np.float64)
    sum_lon = np.add.reduceat(lon, offs[:-1])
    sum_lat = np.add.reduceat(lat, offs[:-1])
    # reduceat on a zero-length segment returns the element AT the
    # offset — polygons always have >= 3 ring vertices, so n > 0
    ids = polys["poly_id"].to_numpy(zero_copy_only=False)
    return {
        int(i): (float(slon / c), float(slat / c))
        for i, slon, slat, c in zip(ids, sum_lon, sum_lat, n)
    }


def assignments_pipeline(
    images: ray.data.Dataset,
    polys: pa.Table,
    pip_res: int = 8,
    tile_res: int = 12,
    part_res: int = 2,
    batch_size: int = 32768,
) -> ray.data.Dataset:
    """images x changeset polygons -> assignments rows."""
    pts = add_footprint(
        images.select_columns(["image_id", "phash", "w", "h", "caption"])
    )
    hits = pip_join(
        pts, polys, res=pip_res, id_col="image_id", batch_size=batch_size,
        carry_cols=("caption", "w", "h"),
    )
    cent_ref = ray.put(poly_centroids(polys))
    hits = hits.map_batches(
        add_centroid_dist,
        fn_kwargs=dict(cent_ref=cent_ref),
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    # raster->vector: THE tile_cover operator (single implementation,
    # kept in lockstep with the SQL oracle) carrying the assignment
    # payload, then a coarse partition cell for the resumable sink
    tiles = tile_cover(
        hits, tile_res, id_col="image_id",
        carry_cols=("poly_id", "op", "dist_m", "caption"),
    )
    return tiles.map_batches(add_part, fn_kwargs={"part_res": part_res},
                             batch_format="pyarrow", batch_size=batch_size)


def run_window(
    images: ray.data.Dataset,
    polys: pa.Table,
    out_dir: str,
    window_id: str,
    **kw,
):
    """Apply one changeset window and persist resumable output."""
    from oluray.state.checkpoint import write_partitioned_resumable

    ds = assignments_pipeline(images, polys, **kw)
    return write_partitioned_resumable(ds, out_dir, window_id, part_col="part")


def materialize_tiles(
    images: ray.data.Dataset,
    assignments,
    out_dir: str,
    window_id: str,
    num_partitions: int = 64,
):
    """Tile materialization: the bytes re-join this module's header
    promises. Joins image `bytes` onto the window's assignments and
    writes a `part=<cell>/` blobs sidecar through the same resumable
    sink, so a consumer of one output partition has metadata rows AND
    pixel payloads locally.

    The scale contract, made concrete rather than honored by omission:

    - bytes are keyed per DISTINCT (image_id, part) — an image whose
      footprint covers k tiles inside one coarse partition is stored
      once, not k times (the tile-cover explode multiplies metadata
      rows, never payloads);
    - each blob crosses the wire exactly once: object store -> the
      hash partition of its image_id (`joins.hash_join` moves every
      row once, neither side broadcast) -> its `part=` dir;
    - bytes never enter the upstream PIP / distance / tile-cover
      stages — `assignments` here is typically the READ-BACK of
      `run_window`'s pruned-column output (pass the output dir), so
      materialization is independently resumable and re-runs touch no
      geometry at all.

    `assignments`: a Dataset with (image_id, part) columns, or the
    path of a `run_window` output directory to read back (pruned to
    exactly those two columns)."""
    from oluray.stages import joins
    from oluray.state.checkpoint import write_partitioned_resumable

    # the `part` type differs by input kind: run_window's in-memory
    # output carries int64 cells, but the hive-partitioned READ-BACK
    # decodes `part=` directory names as string — take the true type
    # from parquet metadata (free) in the path case
    part_type = pa.int64()
    if isinstance(assignments, str):
        assignments = ray.data.read_parquet(
            assignments, columns=["image_id", "part"]
        )
        sch = assignments.schema()
        part_type = dict(zip(sch.names, sch.types))["part"]
    pairs = joins.distinct(
        assignments.select_columns(["image_id", "part"]),
        ["image_id", "part"], num_partitions=num_partitions,
    )
    # static schema hints: both sides are lazy (images a synth/read
    # lineage, pairs a distinct-shuffle output) and hash_join would
    # otherwise ds.schema()-probe each — an extra partial execution
    # just to learn types that the run_window contract fixes
    _IMAGES = pa.schema(
        [("image_id", pa.string()), ("bytes", pa.binary()),
         ("fmt", pa.string()), ("w", pa.int32()), ("h", pa.int32())]
    )
    _PAIRS = pa.schema([("image_id", pa.string()), ("part", part_type)])
    blobs = joins.hash_join(
        images.select_columns(["image_id", "bytes", "fmt", "w", "h"]),
        pairs, on="image_id", num_partitions=num_partitions,
        left_schema=_IMAGES, right_schema=_PAIRS,
    )
    return write_partitioned_resumable(blobs, out_dir, window_id, part_col="part")
