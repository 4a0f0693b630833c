"""Spatial operators: cell encode, PIP join, kNN, tile cover.

The north rule's replacement for the reference's delegated geometry
step (`/root/reference/src/osm/Osm2ttl.cpp:38-109`): instead of
re-running osm2rdf on dummy-element XML, geometry work happens
in-engine as vectorized `map_batches` stages:

- `CellEncode` — point -> hierarchical cell id (stateless task).
- `pip_join` / `pip_anti` — the driver builds one `PolygonIndex` per
  call (a cell -> candidate-polygon CSR plus the flattened rings) and
  `ray.put`s it once; stateless tasks `ray.get` it zero-copy and per
  batch do candidate lookup + exact ray-casting refine. This is the
  ST4 analog (one prebuilt spatial index shared by every worker) and
  the J1-J6 closure re-expressed spatially: "which changed polygons
  affect this image footprint".
- `knn_join` — the same shape with a `KnnIndex` (cell-bucketed
  features plus a per-cell candidate CSR); k-ring expansion generates
  candidates, exact haversine refines. `knn_brute` is the small-side
  baseline (numpy broadcast matmul shape) used by the SQL oracle.
- `tile_cover` — raster->vector: each image's footprint bbox (scaled
  by decoded w x h) -> covering cell set, exploded to rows.

Partitioning assumption (documented per the build rules): polygons of
one changeset window fit comfortably in one broadcast object (the
reference's whole merged diff is held in ONE process heap,
`src/osm/OsmChangeHandler.cpp:56-72`); images stream. Dense-cell skew
is handled downstream by salted repartition (`oluray.stages.skew`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from oluray.functions import geo


def add_cell_column(
    ds: ray.data.Dataset, res: int, lon_col: str = "lon", lat_col: str = "lat",
    out_col: str = "cell",
) -> ray.data.Dataset:
    """Stateless vectorized cell encoding."""

    def fn(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        return batch.append_column(out_col, pa.array(geo.cell_encode(lon, lat, res)))

    return ds.map_batches(fn, batch_format="pyarrow")


class PolygonIndex:
    """Cell -> candidate-polygon index over one polygon table, built
    once on the driver and shipped to stateless tasks by `ray.put`.

    Every field is an array, so a task's `ray.get` maps it zero-copy:
    the rings flattened to (ring_lon, ring_lat, ring_offs), `poly_id`
    and `op` as Arrow columns, and the cell -> polygons index as CSR
    (sorted cell ids, offsets into a flat polygon-index array).

    The CSR comes from one `geo.polygon_covers` pass over all rings;
    for the benchmark's 256 polygons (10 degrees, res 8, ~8.4k
    (polygon, cell) pairs) the build takes ~5 ms on one pinned core.
    """

    def __init__(self, polys: pa.Table, res: int = 8):
        self.res = res
        self.ring_lon, self.ring_lat, self.ring_offs = _ring_arrays(polys["ring"])
        self.poly_id = polys["poly_id"].combine_chunks().cast(pa.int64())
        self.op = polys["op"].combine_chunks().cast(pa.string())
        # pairs come sorted by cell, then polygon: within a cell,
        # polygons stay in table order
        self.idx_polys, cells = geo.polygon_covers(
            self.ring_lon, self.ring_lat, self.ring_offs, res)
        self.idx_cells, starts = np.unique(cells, return_index=True)
        self.idx_offs = np.append(starts, len(cells)).astype(np.int64)

    def hits(self, lon: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, polygon indices) of every containment hit —
        the shared core of the join and the anti filter: cell-cover
        prefilter via CSR binary search, then exact ray-casting refine
        per candidate polygon."""
        cells = geo.cell_encode(lon, lat, self.res)
        # fully vectorized candidate generation: binary-search each
        # point's cell in the CSR index, expand to (row, poly) pairs
        pos = np.searchsorted(self.idx_cells, cells)
        pos_c = np.minimum(pos, len(self.idx_cells) - 1) if len(self.idx_cells) else pos
        valid = (
            (pos < len(self.idx_cells)) & (self.idx_cells[pos_c] == cells)
            if len(self.idx_cells)
            else np.zeros(len(cells), dtype=bool)
        )
        vrows = np.nonzero(valid)[0]
        vpos = pos[vrows]
        counts = self.idx_offs[vpos + 1] - self.idx_offs[vpos]
        pair_rows = np.repeat(vrows, counts)
        # flat poly indices per pair: offsets + within-cell position
        first = np.concatenate(([0], np.cumsum(counts)[:-1])) if len(counts) else counts
        k = (
            np.arange(int(counts.sum())) - np.repeat(first, counts)
            if len(counts)
            else np.array([], dtype=np.int64)
        )
        pair_polys = self.idx_polys[np.repeat(self.idx_offs[vpos], counts) + k]
        # refine per polygon (few polygons, vectorized over its points)
        out_rows: list[np.ndarray] = []
        out_poly: list[np.ndarray] = []
        order = np.argsort(pair_polys, kind="stable")
        sp = pair_polys[order]
        uniq, starts = np.unique(sp, return_index=True)
        bounds = np.append(starts, len(sp))
        for i, pi in enumerate(uniq.tolist()):
            idx = pair_rows[order[bounds[i] : bounds[i + 1]]]
            s, e = self.ring_offs[pi], self.ring_offs[pi + 1]
            inside = geo.point_in_polygon(
                lon[idx], lat[idx], self.ring_lon[s:e], self.ring_lat[s:e]
            )
            hit = idx[inside]
            if len(hit):
                out_rows.append(hit)
                out_poly.append(np.full(len(hit), pi, dtype=np.int64))
        if out_rows:
            return np.concatenate(out_rows), np.concatenate(out_poly)
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)


def _pip_join_batch(batch: pa.Table, index_ref, id_col, carry_cols) -> pa.Table:
    """One row per (point, containing polygon)."""
    index: PolygonIndex = ray.get(index_ref)
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    rows_idx, poly_idx = index.hits(lon, lat)
    rows, polys = pa.array(rows_idx), pa.array(poly_idx)
    cols = {
        id_col: pa.compute.take(batch[id_col], rows),
        "poly_id": pa.compute.take(index.poly_id, polys),
        "op": pa.compute.take(index.op, polys),
        "lon": pa.array(lon[rows_idx]),
        "lat": pa.array(lat[rows_idx]),
    }
    for c in carry_cols:
        cols[c] = pa.compute.take(batch[c], rows)
    return pa.table(cols)


def pip_join(
    points: ray.data.Dataset, polys: pa.Table, res: int = 8,
    id_col: str = "image_id", concurrency: int | None = None,
    batch_size: int = 32768, carry_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """points x polygons containment join (cell prefilter + exact PIP).

    The driver builds one `PolygonIndex` per call and `ray.put`s it;
    stateless tasks apply it batch by batch, emitting one row per
    (point, containing polygon) with `carry_cols` copied along.
    `concurrency`, if given, caps the number of concurrent tasks.
    """
    index_ref = ray.put(PolygonIndex(polys, res))
    return points.map_batches(
        _pip_join_batch,
        fn_kwargs=dict(index_ref=index_ref, id_col=id_col, carry_cols=carry_cols),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def _pip_anti_batch(batch: pa.Table, index_ref, lon_col, lat_col) -> pa.Table:
    index: PolygonIndex = ray.get(index_ref)
    lon = batch[lon_col].to_numpy(zero_copy_only=False)
    lat = batch[lat_col].to_numpy(zero_copy_only=False)
    inside = np.zeros(len(lon), dtype=bool)
    inside[index.hits(lon, lat)[0]] = True
    return batch.filter(pa.array(~inside))


def pip_anti(
    points: ray.data.Dataset, polys: pa.Table, res: int = 8,
    lon_col: str = "lon", lat_col: str = "lat", batch_size: int = 32768,
) -> ray.data.Dataset:
    """Spatial ANTI join: points contained by NO polygon. Pure
    per-batch filter against the broadcast polygon index — no shuffle
    and no hit-set collection: containment is decided row-locally, so
    the anti side never needs the join output (contrast a relational
    anti join, which must see the matched key set). All input columns
    pass through."""
    index_ref = ray.put(PolygonIndex(polys, res))
    return points.map_batches(
        _pip_anti_batch,
        fn_kwargs=dict(index_ref=index_ref, lon_col=lon_col, lat_col=lat_col),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


_RECT_KEY_SHIFT = 21  # cell key = cx * 2^21 + cy; valid while |cy| < 2^20


def _rect_cells(t: pa.Table, id_col: str, g: int, side: int) -> pa.Table:
    """Explode integer rectangles to their covering grid cells (PBSM
    replication): one row per (rect, cell) with the rect carried."""
    n = t.num_rows
    if n == 0:
        return pa.table(
            {"cellkey": pa.array([], pa.int64()), "side": pa.array([], pa.int64()),
             "rid": pa.array([], pa.int64()),
             "xmin": pa.array([], pa.int64()), "xmax": pa.array([], pa.int64()),
             "ymin": pa.array([], pa.int64()), "ymax": pa.array([], pa.int64())}
        )
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    xmin = t["xmin"].to_numpy(zero_copy_only=False).astype(np.int64)
    xmax = t["xmax"].to_numpy(zero_copy_only=False).astype(np.int64)
    ymin = t["ymin"].to_numpy(zero_copy_only=False).astype(np.int64)
    ymax = t["ymax"].to_numpy(zero_copy_only=False).astype(np.int64)
    cx0, cx1 = xmin // g, xmax // g
    cy0, cy1 = ymin // g, ymax // g
    nx, ny = cx1 - cx0 + 1, cy1 - cy0 + 1
    cnt = nx * ny
    total = int(cnt.sum())
    row = np.repeat(np.arange(n), cnt)
    first = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    k = np.arange(total) - np.repeat(first, cnt)
    ny_r = np.repeat(ny, cnt)
    cx = np.repeat(cx0, cnt) + k // ny_r
    cy = np.repeat(cy0, cnt) + k % ny_r
    return pa.table(
        {
            "cellkey": pa.array(cx * (1 << _RECT_KEY_SHIFT) + cy),
            "side": pa.array(np.full(total, side, dtype=np.int64)),
            "rid": pa.array(ids[row]),
            "xmin": pa.array(xmin[row]), "xmax": pa.array(xmax[row]),
            "ymin": pa.array(ymin[row]), "ymax": pa.array(ymax[row]),
        }
    )


def rect_intersect_join(
    a: ray.data.Dataset, b: ray.data.Dataset, cell_units: int,
    id_col: str = "id", num_partitions: int = 32,
) -> ray.data.Dataset:
    """LARGE-LARGE rectangle intersection join (closed rects, integer
    coordinates) — the bbox form of the spatial join: image-footprint
    envelopes x changeset-extent envelopes where neither side fits a
    broadcast. Inputs: Datasets with (id_col, xmin, xmax, ymin, ymax)
    int64 columns; output (a_id, b_id, inter_area) for every pair with
    closed-interval overlap on both axes (touching edges count, with
    inter_area 0).

    Shape: PBSM grid partitioning with REFERENCE-POINT dedup. Each
    rect is replicated to every `cell_units`-sized grid cell it
    overlaps; a candidate pair is tested in every shared cell but
    EMITTED only in the single cell containing its reference point
    (the intersection's min corner, max(xmin_a,xmin_b) /
    max(ymin_a,ymin_b)) — that corner lies inside both rects, so
    exactly one covered cell owns each pair and no pair-dedup shuffle
    is needed (Patel & DeWitt, SIGMOD'96). The exchange moves
    ~(rect extent / cell_units + 1)^2 small rows per rect; pick
    `cell_units` at or above the typical rect extent to keep that
    near 1. Dense-cell skew: same growth path as
    `distance_self_join` (split hot cells at a finer res; pair
    formation must see a whole cell, so salting does not apply).

    Key-space bound: |coord| // cell_units must stay below 2^20
    (composite int64 cell key) — microdegree coords at any
    cell_units >= 350 m satisfy it."""
    from oluray.stages import joins

    g = int(cell_units)
    rows_a = a.map_batches(
        lambda t: _rect_cells(t, id_col, g, 0), batch_format="pyarrow")
    rows_b = b.map_batches(
        lambda t: _rect_cells(t, id_col, g, 1), batch_format="pyarrow")

    empty = pd.DataFrame(
        {"a_id": pd.Series([], dtype="int64"),
         "b_id": pd.Series([], dtype="int64"),
         "inter_area": pd.Series([], dtype="int64")}
    )

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        A = df[df["side"] == 0]
        B = df[df["side"] == 1]
        if len(A) == 0 or len(B) == 0:
            return empty
        m = A.merge(B, on="cellkey", suffixes=("_a", "_b"))
        if len(m) == 0:
            return empty
        xa0 = m["xmin_a"].to_numpy(); xa1 = m["xmax_a"].to_numpy()
        xb0 = m["xmin_b"].to_numpy(); xb1 = m["xmax_b"].to_numpy()
        ya0 = m["ymin_a"].to_numpy(); ya1 = m["ymax_a"].to_numpy()
        yb0 = m["ymin_b"].to_numpy(); yb1 = m["ymax_b"].to_numpy()
        ok = (xa0 <= xb1) & (xb0 <= xa1) & (ya0 <= yb1) & (yb0 <= ya1)
        rx = np.maximum(xa0, xb0)
        ry = np.maximum(ya0, yb0)
        owner = (rx // g) * (1 << _RECT_KEY_SHIFT) + ry // g
        keep = ok & (owner == m["cellkey"].to_numpy())
        if not keep.any():
            return empty
        inter = ((np.minimum(xa1, xb1) - rx) * (np.minimum(ya1, yb1) - ry))
        return pd.DataFrame(
            {"a_id": m["rid_a"].to_numpy()[keep],
             "b_id": m["rid_b"].to_numpy()[keep],
             "inter_area": inter[keep].astype(np.int64)}
        )

    return joins.partitioned_map(
        rows_a.union(rows_b), ["cellkey"], emit,
        num_partitions=num_partitions, pre_repartition=False,
    )


def nn_join_planar(
    a: ray.data.Dataset, b: ray.data.Dataset, start_cell: int,
    num_partitions: int = 32, coord_span: int = 360_000_000,
) -> ray.data.Dataset:
    """LARGE-LARGE exact nearest-neighbor join in planar integer
    coordinates (web-mercator / pixel / microdegree space): for every
    A point, its closest B point by squared Euclidean distance, ties
    by lower B id. Neither side is broadcast — the geographic
    small-feature case is `knn_join`; this is the shape where the
    feature side is itself a corpus.

    Inputs: Datasets with (id, x, y) int64 columns. Output
    (a_id, b_id, d2) int64 — d2 exact (|coords| <= 2e8 keeps x^2+y^2
    far under int64), so the SQL mirror is bit-identical and the
    tie-break is deterministic.

    Shape: iterative grid escalation, each round fully distributed:

      round r (cell size g = start_cell * 2^r): B replicates into the
      3x3 neighborhood of its cell (<= 9 small rows per B point); the
      per-cell partition merge finds each unresolved A point's best
      candidate in its neighborhood; the candidate is PROVABLY the
      global NN iff best_d2 < margin^2, where margin = the point's
      integer distance to its own 3x3 box boundary (any exterior
      point differs by >= margin on one axis). Resolved rows are
      emitted; unresolved A points (empty neighborhood, or a best
      that an exterior point could still beat) go to round r+1 with
      the cell size doubled — the doubled box strictly contains the
      old one, so no cross-round state is carried.

    Rounds are bounded by log2(coord_span / start_cell): once g
    reaches the span the neighborhood covers the whole plane and every
    remaining point resolves by definition. Pick `start_cell` near the
    typical NN distance — each round costs one 9x-B-row exchange, and
    a too-fine round 1 resolves nothing while a too-coarse one packs
    the corpus into few cells (same dense-cell note as
    `distance_self_join`). The driver sees one unresolved-count scalar
    per round, never rows."""
    from oluray.stages import joins

    def _cells(t: pa.Table, g: int, side: int) -> pa.Table:
        n = t.num_rows
        ids = t["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = t["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t["y"].to_numpy(zero_copy_only=False).astype(np.int64)
        if side == 0:
            cell = (x // g) * (1 << _RECT_KEY_SHIFT) + y // g
            rep_i = np.arange(n)
        else:
            cx, cy = x // g, y // g
            off = np.array([-1, 0, 1], dtype=np.int64)
            ox, oy = np.meshgrid(off, off, indexing="ij")
            cell = ((cx[:, None] + ox.ravel()[None, :]) * (1 << _RECT_KEY_SHIFT)
                    + (cy[:, None] + oy.ravel()[None, :])).ravel()
            rep_i = np.repeat(np.arange(n), 9)
        m = len(rep_i)
        return pa.table(
            {"cell": pa.array(cell),
             "side": pa.array(np.full(m, side, dtype=np.int64)),
             "pid": pa.array(ids[rep_i]),
             "x": pa.array(x[rep_i]), "y": pa.array(y[rep_i])}
        )

    _OUT = ["a_id", "b_id", "d2"]
    empty_pd = pd.DataFrame({c: pd.Series([], dtype="int64") for c in _OUT})
    empty_un = pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in ["id", "x", "y"]})

    unresolved = a.select_columns(["id", "x", "y"])
    n_left = unresolved.count()
    if n_left == 0 or b.count() == 0:
        import ray.data as _rd
        return _rd.from_pandas(empty_pd)

    g = int(start_cell)
    resolved_parts: list[ray.data.Dataset] = []
    while n_left > 0:
        full_cover = g >= coord_span

        def emit(df: pd.DataFrame, g=g, full=full_cover) -> pd.DataFrame:
            A = df[df["side"] == 0]
            B = df[df["side"] == 1]
            if len(A) == 0:
                return pd.DataFrame(
                    {"a_id": pd.Series([], dtype="int64"),
                     "b_id": pd.Series([], dtype="int64"),
                     "d2": pd.Series([], dtype="int64"),
                     "x": pd.Series([], dtype="int64"),
                     "y": pd.Series([], dtype="int64"),
                     "ok": pd.Series([], dtype="bool")}
                )
            # INNER merge keeps every id an int64 end to end (a left
            # merge's NaN rows upcast ids to float64 — silent
            # corruption above 2^53, the same hazard joins.py guards);
            # neighborhood-less A rows are re-added below.
            m = A.merge(B, on="cell", suffixes=("_a", "_b"))
            if len(m):
                xa = m["x_a"].to_numpy(np.int64)
                ya = m["y_a"].to_numpy(np.int64)
                dx = xa - m["x_b"].to_numpy(np.int64)
                dy = ya - m["y_b"].to_numpy(np.int64)
                cand = pd.DataFrame(
                    {"a_id": m["pid_a"].to_numpy(np.int64),
                     "b_id": m["pid_b"].to_numpy(np.int64),
                     "d2": dx * dx + dy * dy, "x": xa, "y": ya}
                )
                cand = cand.sort_values(["a_id", "d2", "b_id"],
                                        kind="mergesort")
                best = cand.drop_duplicates("a_id", keep="first").copy()
                if full:
                    ok = np.ones(len(best), dtype=bool)
                else:
                    x0 = best["x"].to_numpy()
                    y0 = best["y"].to_numpy()
                    mx = g + np.minimum(x0 % g, g - (x0 % g))
                    my = g + np.minimum(y0 % g, g - (y0 % g))
                    margin = np.minimum(mx, my)
                    ok = best["d2"].to_numpy() < margin * margin
                best["ok"] = ok
            else:
                best = pd.DataFrame(
                    {"a_id": pd.Series([], dtype="int64"),
                     "b_id": pd.Series([], dtype="int64"),
                     "d2": pd.Series([], dtype="int64"),
                     "x": pd.Series([], dtype="int64"),
                     "y": pd.Series([], dtype="int64"),
                     "ok": pd.Series([], dtype="bool")}
                )
            lone = A[~A["pid"].isin(best["a_id"])]
            if len(lone):
                best = pd.concat(
                    [best,
                     pd.DataFrame(
                         {"a_id": lone["pid"].to_numpy(np.int64),
                          "b_id": np.int64(-1), "d2": np.int64(0),
                          "x": lone["x"].to_numpy(np.int64),
                          "y": lone["y"].to_numpy(np.int64),
                          "ok": False})],
                    ignore_index=True)
            return best

        a_rows = unresolved.map_batches(
            lambda t, g=g: _cells(t, g, 0), batch_format="pyarrow")
        b_rows = b.select_columns(["id", "x", "y"]).map_batches(
            lambda t, g=g: _cells(t, g, 1), batch_format="pyarrow")
        round_out = joins.partitioned_map(
            a_rows.union(b_rows), ["cell"], emit,
            num_partitions=num_partitions, pre_repartition=False,
        ).materialize()

        resolved_parts.append(
            round_out.map_batches(
                lambda df: df[df["ok"]][_OUT] if len(df)
                else empty_pd, batch_format="pandas"))
        unresolved = (
            round_out.map_batches(
                lambda df: df[~df["ok"]]
                .rename(columns={"a_id": "id"})[["id", "x", "y"]]
                if len(df) else empty_un,
                batch_format="pandas")
            .materialize()
        )
        n_left = unresolved.count()
        g *= 2

    out = resolved_parts[0]
    for p in resolved_parts[1:]:
        out = out.union(p)
    return out


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------


def knn_brute(
    lon: np.ndarray, lat: np.ndarray, feat_lon: np.ndarray, feat_lat: np.ndarray,
    k: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN by haversine against ALL features (small feature set,
    broadcast): returns (indices (n,k), dists (n,k)). Ties broken by
    lower feature index (stable argsort)."""
    n, m = len(lon), len(feat_lon)
    d = geo.haversine_m(
        np.repeat(lon, m), np.repeat(lat, m), np.tile(feat_lon, n), np.tile(feat_lat, n)
    ).reshape(n, m)
    idx = np.argsort(d, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(d, idx, axis=1)


_M_PER_DEG = np.pi * geo.EARTH_RADIUS_M / 180.0  # meters per degree of latitude


def _chunks(sizes: np.ndarray, budget: int = 1 << 19):
    """Consecutive (lo, hi) ranges over `sizes`, each summing to at most
    `budget` plus one item: bounds the memory of a vectorized pass that
    expands item i to `sizes[i]` rows."""
    cum = np.cumsum(sizes)
    cuts = np.searchsorted(cum, np.arange(budget, cum[-1], budget), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [len(sizes)])))
    return zip(bounds[:-1].tolist(), bounds[1:].tolist())


class KnnIndex:
    """Cell-bucketed feature index for exact nearest-feature assignment.

    Built once per `knn_join` call on the driver and shipped to stateless
    tasks by `ray.put`; every field is a numpy array, so a task's
    `ray.get` maps it zero-copy. Features (id, lon, lat) are bucketed
    by cell, as CSR over the sorted occupied cells (the IVF-style scale
    path). Per batch, points are grouped by cell; per cell the search
    (1) expands a square ring until any candidate is found, (2) takes
    the k-th best distance found as radius d, (3) converts d into an
    exact (lat-ring, lon-ring) rectangle — lon ring widened by
    1/cos(lat) for meridian convergence — and re-gathers candidates in
    that rectangle, so no nearer feature can hide outside the search
    box. Brute force fallback for tiny feature sets / isolated points.
    """

    MAX_PROBE_RING = 64

    def __init__(self, fid, flon, flat_, res: int = 6, k: int = 1):
        self.fid = np.asarray(fid, dtype=np.int64)
        self.flon = np.asarray(flon, dtype=np.float64)
        self.flat = np.asarray(flat_, dtype=np.float64)
        # k cannot exceed the feature count: every path (brute argsort,
        # per-cell candidates, CSR) yields min(k, n_features) ranks and
        # the output assembly sizes columns by self.k — an unclamped k
        # produced mismatched column lengths (r2 review)
        self.res, self.k = res, min(k, len(self.fid))
        self.n_grid = 1 << res
        self.cell_h_m = (180.0 / self.n_grid) * _M_PER_DEG
        self.cell_w_deg = 360.0 / self.n_grid
        cells = geo.cell_encode(self.flon, self.flat, res)
        self.bucket_feats = np.argsort(cells, kind="stable")
        self.bucket_cells, starts = np.unique(cells[self.bucket_feats],
                                              return_index=True)
        self.bucket_offs = np.append(starts, len(cells)).astype(np.int64)
        self.brute = len(self.fid) <= 64
        # k=1..k fast path: precompute, per GRID cell, a candidate set
        # guaranteed to contain every point-in-cell's true k nearest
        # (corner-distance bound), stored as CSR over flat cell index.
        # Only for small grids (res <= 8) — coarse IVF cells.
        # 3D unit vectors: kNN COMPARES by squared chord length
        # (monotonic in great-circle distance — ~6 flops/pair instead
        # of ~10 transcendentals); exact haversine only on winners
        rl = np.radians(self.flat)
        rg = np.radians(self.flon)
        # float64 truth + float32 working copies: the pair-array pass
        # (the bandwidth-bound hot loop) runs in float32, and any
        # point whose winner margin is within float32 noise is
        # re-selected in float64 (ADVICE r1 exactness without paying
        # double bandwidth on every pair — a pure-float64 pass
        # measured 2.1x slower on the 38.4M-point headline).
        self.fx = np.cos(rl) * np.cos(rg)
        self.fy = np.cos(rl) * np.sin(rg)
        self.fz = np.sin(rl)
        self.fx32 = self.fx.astype(np.float32)
        self.fy32 = self.fy.astype(np.float32)
        self.fz32 = self.fz.astype(np.float32)
        self.pre_offs = None
        if not self.brute and res <= 8:
            self._precompute_cell_candidates(cells)

    def _precompute_cell_candidates(self, cells: np.ndarray) -> None:
        """Per grid cell, the candidate features for every point in it,
        for all cells at once: (1) the smallest square ring holding at
        least k features; (2) D, the k-th smallest max-corner distance
        over that ring's features; (3) the (lat-ring, lon-ring)
        rectangle that covers D from every corner, widened by 1/cos(lat)
        for meridian convergence; (4) prune a feature f unless
        min_corner_dist(f) <= D + diag/2, since dist(f, cell) >=
        min_corner_dist(f) - diag/2. A rectangle holding fewer than k
        features falls back to all of them."""
        n, nf, k = self.n_grid, len(self.fid), self.k
        _, fx, fy = geo.cell_decode(cells)
        flat_cell = fy * n + fx
        grid_feats = np.argsort(flat_cell, kind="stable")
        grid_offs = np.searchsorted(flat_cell[grid_feats], np.arange(n * n + 1))
        # 2-D prefix sums of the per-cell feature counts over the grid
        # tiled three times in lon, so a lon-wrapped run is contiguous
        tiled = np.tile(np.diff(grid_offs).reshape(n, n), (1, 3))
        csum = np.zeros((n + 1, 3 * n + 1), dtype=np.int64)
        csum[1:, 1:] = tiled.cumsum(0).cumsum(1)

        def rect(cx, cy, rx, ry):
            # the distinct grid cells of `_gather_rect`'s rectangle:
            # rows [y_lo, y_hi], `width` columns from x0 (lon-wrapped)
            y_lo = np.maximum(cy - ry, 0)
            y_hi = np.minimum(cy + ry, n - 1)
            rx = np.minimum(rx, n // 2)
            return y_lo, y_hi, cx - rx + n, np.minimum(2 * rx + 1, n)

        def rect_count(cx, cy, rx, ry):
            y_lo, y_hi, x0, width = rect(cx, cy, rx, ry)
            x1 = x0 + width
            return (csum[y_hi + 1, x1] - csum[y_lo, x1]
                    - csum[y_hi + 1, x0] + csum[y_lo, x0])

        def rect_members(cx, cy, rx, ry):
            # CSR over the rectangles: each one's features, sorted by
            # index, as `_gather_rect` returns them
            y_lo, y_hi, x0, width = rect(cx, cy, rx, ry)
            rows = y_hi - y_lo + 1
            owner = np.repeat(np.arange(len(cx)), rows)
            y = y_lo[owner] + np.arange(len(owner)) - np.repeat(
                np.cumsum(rows) - rows, rows)
            a = x0[owner] % n
            b = a + width[owner]
            wrap = b > n  # the run crosses the antimeridian: split it
            owner = np.concatenate([owner, owner[wrap]])
            lo = np.concatenate([y * n + a, y[wrap] * n])
            hi = np.concatenate([y * n + np.minimum(b, n), y[wrap] * n + b[wrap] - n])
            start, cnt = grid_offs[lo], grid_offs[hi] - grid_offs[lo]
            pos = np.repeat(start - (np.cumsum(cnt) - cnt), cnt) + np.arange(cnt.sum())
            key = np.sort(np.repeat(owner, cnt) * nf + grid_feats[pos])
            owner = key // nf
            offs = np.zeros(len(cx) + 1, dtype=np.int64)
            offs[1:] = np.cumsum(np.bincount(owner, minlength=len(cx)))
            return offs, owner, key % nf

        cy, cx = np.divmod(np.arange(n * n, dtype=np.int64), n)
        lat0 = -90.0 + 180.0 * cy / n
        lat1 = lat0 + 180.0 / n
        lon0 = -180.0 + 360.0 * cx / n
        lon1 = lon0 + 360.0 / n
        corners = ((lon0, lat0), (lon0, lat1), (lon1, lat0), (lon1, lat1))

        def corner_dist(owner, f, reduce):
            return reduce(np.stack([
                geo.haversine_m(self.flon[f], self.flat[f], clon[owner], clat[owner])
                for clon, clat in corners
            ]), axis=0)

        # (1) ring search; n rows and n // 2 columns cover the grid
        ring = np.full(n * n, n, dtype=np.int64)
        todo = np.arange(n * n)
        for r in range(self.MAX_PROBE_RING + 1):
            found = rect_count(cx[todo], cy[todo], r, r) >= k
            ring[todo[found]] = r
            todo = todo[~found]
            if not len(todo):
                break
        # (2) D per cell
        D = np.empty(n * n)
        for lo, hi in _chunks(rect_count(cx, cy, ring, ring)):
            offs, owner, f = rect_members(cx[lo:hi], cy[lo:hi], ring[lo:hi], ring[lo:hi])
            dmax = corner_dist(owner + lo, f, np.max)
            D[lo:hi] = dmax[np.lexsort((dmax, owner))][offs[:-1] + k - 1]
        # (3) covering rectangle
        ry = np.ceil(D / self.cell_h_m).astype(np.int64) + 1
        lat_edge = np.minimum(
            89.0, np.maximum(np.abs(lat0), np.abs(lat1)) + ry * 180.0 / n)
        cosl = np.maximum(np.cos(np.radians(lat_edge)), 0.02)
        rx = np.ceil(D / (self.cell_w_deg * _M_PER_DEG * cosl)).astype(np.int64) + 1
        size = rect_count(cx, cy, rx, ry)
        few = size < k
        rx[few], ry[few], size[few] = n // 2, n, nf
        # (4) prune, where at least k features survive
        bound = D + geo.haversine_m(lon0, lat0, lon1, lat1) / 2.0
        kept_n = np.zeros(n * n, dtype=np.int64)
        kept = []
        for lo, hi in _chunks(size):
            offs, owner, cand = rect_members(cx[lo:hi], cy[lo:hi], rx[lo:hi], ry[lo:hi])
            keep = corner_dist(owner + lo, cand, np.min) <= bound[lo:hi][owner]
            n_keep = np.bincount(owner[keep], minlength=hi - lo)
            keep |= ~((np.diff(offs) > k) & (n_keep >= k))[owner]
            kept.append(cand[keep])
            kept_n[lo:hi] = np.bincount(owner[keep], minlength=hi - lo)
        self.pre_cands = np.concatenate(kept)
        self.pre_offs = np.zeros(n * n + 1, dtype=np.int64)
        self.pre_offs[1:] = np.cumsum(kept_n)

    def _knn_vectorized(self, lon: np.ndarray, lat: np.ndarray):
        """Fully vectorized exact kNN via the precomputed per-cell CSR."""
        n = self.n_grid
        _, x, y = geo.cell_decode(geo.cell_encode(lon, lat, self.res))
        flat_cell = y * n + x
        counts = self.pre_offs[flat_cell + 1] - self.pre_offs[flat_cell]
        npts = len(lon)
        pair_pt = np.repeat(np.arange(npts, dtype=np.int32), counts)
        first = np.concatenate(([0], np.cumsum(counts)[:-1]))
        kk = np.arange(int(counts.sum())) - np.repeat(first, counts)
        pair_f = self.pre_cands[np.repeat(self.pre_offs[flat_cell], counts) + kk].astype(
            np.int32
        )
        # squared chord comparison metric (monotonic with distance)
        rl = np.radians(lat)
        rg = np.radians(lon)
        cl = np.cos(rl)
        px = cl * np.cos(rg)
        py = cl * np.sin(rg)
        pz = np.sin(rl)
        seg_first = first
        if self.k == 1:
            # float32 pass over the pair arrays (half the bandwidth of
            # float64 — this loop dominates the stage)
            dx = px.astype(np.float32)[pair_pt] - self.fx32[pair_f]
            dy = py.astype(np.float32)[pair_pt] - self.fy32[pair_f]
            dz = pz.astype(np.float32)[pair_pt] - self.fz32[pair_f]
            d = dx * dx + dy * dy + dz * dz
            # sort-free segmented argmin: reduceats instead of a
            # 3-key lexsort over the pair array
            dmin = np.minimum.reduceat(d, seg_first)
            dmin_rep = np.repeat(dmin, counts)
            f_masked = np.where(d == dmin_rep, pair_f, np.iinfo(np.int64).max)
            fbest = np.minimum.reduceat(f_masked, seg_first)
            # exactness guard (ADVICE r1): any segment with >1
            # candidate inside the float32 noise band around the
            # minimum gets re-selected in float64. The band
            # over-covers the worst-case float32 chord error
            # (~eps32*sqrt(d) from the subtraction of unit vectors),
            # so a flip vs the float64 oracle cannot survive it.
            thresh = (
                np.float32(1e-5) * np.sqrt(dmin)
                + np.float32(4e-6) * dmin
                + np.float32(1e-10)
            )
            near = (d - dmin_rep) <= np.repeat(thresh, counts)
            n_near = np.add.reduceat(near, seg_first)
            amb = n_near > 1
            if amb.any():
                sub = np.repeat(amb, counts)
                sf = pair_f[sub]
                spt = pair_pt[sub]
                # re-rank ambiguous segments by the EXACT metric the
                # SQL oracle orders by — haversine with min feature id
                # on ties — mirroring the k>1 path (ADVICE r2: float64
                # chord can disagree with haversine on strict order at
                # ~1 ulp, and an exact-distance tie must fall to the
                # lower feature id, not the lower chord bits)
                hav = geo.haversine_m(
                    lon[spt], lat[spt], self.flon[sf], self.flat[sf]
                )
                sub_counts = counts[amb]
                sub_first = np.concatenate(([0], np.cumsum(sub_counts)[:-1]))
                hmin = np.minimum.reduceat(hav, sub_first)
                fmh = np.where(
                    hav == np.repeat(hmin, sub_counts), sf,
                    np.iinfo(np.int64).max,
                )
                fbest[amb] = np.minimum.reduceat(fmh, sub_first)
            idx = fbest.reshape(npts, 1)
        else:
            dx = px[pair_pt] - self.fx[pair_f]
            dy = py[pair_pt] - self.fy[pair_f]
            dz = pz[pair_pt] - self.fz[pair_f]
            d = dx * dx + dy * dy + dz * dz
            order = np.lexsort((pair_f, d, pair_pt))
            rank_in_seg = np.arange(len(order)) - np.repeat(seg_first, counts)
            # take k+1 by chord, then FINAL-rank those winners by the
            # exact haversine the brute-force/SQL oracle orders by —
            # chord and haversine are monotone twins but can disagree
            # on strict order at ~1 ulp, so the boundary member and
            # the rank order both get the exact-metric tie-break
            # (the k=1 path has its own ambiguity re-check)
            keep = rank_in_seg < self.k + 1
            kept = order[keep]
            kept_pt = pair_pt[kept]
            kept_f = pair_f[kept]
            hav = geo.haversine_m(
                lon[kept_pt], lat[kept_pt],
                self.flon[kept_f], self.flat[kept_f],
            )
            counts2 = np.minimum(counts, self.k + 1)
            first2 = np.concatenate(([0], np.cumsum(counts2)[:-1]))
            ord2 = np.lexsort((kept_f, hav, kept_pt))
            rank2 = np.arange(len(ord2)) - np.repeat(first2, counts2)
            idx = kept_f[ord2[rank2 < self.k]].reshape(npts, self.k)
        # exact haversine only on the winners (npts x k pairs)
        flat_idx = idx.ravel()
        dist = geo.haversine_m(
            np.repeat(lon, self.k), np.repeat(lat, self.k),
            self.flon[flat_idx], self.flat[flat_idx],
        ).reshape(npts, self.k)
        return idx, dist

    def _gather_rect(self, cx: int, cy: int, rx: int, ry: int) -> np.ndarray:
        """Feature indices in the cell rectangle |dx|<=rx (lon-wrapped),
        |dy|<=ry (lat-clamped) around (cx, cy)."""
        n = self.n_grid
        y_lo, y_hi = max(0, cy - ry), min(n - 1, cy + ry)
        rx = min(rx, n // 2)
        ys = np.arange(y_lo, y_hi + 1, dtype=np.int64)
        xs = (cx + np.arange(-rx, rx + 1, dtype=np.int64)) % n
        want = (np.int64(self.res) * np.int64(geo.RES_SHIFT)
                + ys[:, None] * np.int64(geo.Y_SHIFT) + xs[None, :]).ravel()
        pos = np.searchsorted(self.bucket_cells, want)
        ok = pos < len(self.bucket_cells)
        ok[ok] = self.bucket_cells[pos[ok]] == want[ok]
        start, stop = self.bucket_offs[pos[ok]], self.bucket_offs[pos[ok] + 1]
        if not len(start):
            return np.array([], dtype=np.int64)
        return np.unique(np.concatenate(
            [self.bucket_feats[a:b] for a, b in zip(start.tolist(), stop.tolist())]
        ))

    def _knn_cell(self, cx: int, cy: int, lon: np.ndarray, lat: np.ndarray):
        """Exact kNN for all points sharing one cell."""
        # phase 1: expand square ring until any candidate appears
        cand = np.array([], dtype=np.int64)
        ring = 0
        while ring <= self.MAX_PROBE_RING:
            cand = self._gather_rect(cx, cy, ring, ring)
            if len(cand) >= self.k:
                break
            ring += 1
        if len(cand) < self.k:
            cand = np.arange(len(self.fid))  # isolated: brute force
        m = len(cand)
        npts = len(lon)
        d = geo.haversine_m(
            np.repeat(lon, m), np.repeat(lat, m),
            np.tile(self.flon[cand], npts), np.tile(self.flat[cand], npts),
        ).reshape(npts, m)
        kk = min(self.k, m)
        part = np.argsort(d, axis=1, kind="stable")[:, :kk]
        dbest = np.take_along_axis(d, part, axis=1)
        if m < len(self.fid):
            # phase 2: exactness rectangle from the worst k-th distance
            d_max = float(dbest[:, -1].max())
            ry = int(np.ceil(d_max / self.cell_h_m)) + 1
            lat_edge = min(89.0, abs(lat).max() + (ry + 1) * 180.0 / self.n_grid)
            cosl = max(np.cos(np.radians(lat_edge)), 0.02)
            rx = int(np.ceil(d_max / (self.cell_w_deg * _M_PER_DEG * cosl))) + 1
            if rx > ring or ry > ring:
                cand2 = self._gather_rect(cx, cy, rx, ry)
                if len(cand2) > m:
                    m2 = len(cand2)
                    d = geo.haversine_m(
                        np.repeat(lon, m2), np.repeat(lat, m2),
                        np.tile(self.flon[cand2], npts), np.tile(self.flat[cand2], npts),
                    ).reshape(npts, m2)
                    kk = min(self.k, m2)
                    part = np.argsort(d, axis=1, kind="stable")[:, :kk]
                    dbest = np.take_along_axis(d, part, axis=1)
                    cand = cand2
        return cand[part], dbest

    def assign(self, batch: pa.Table, id_col: str) -> pa.Table:
        """One row per (point, rank) for the k nearest features."""
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        n = len(lon)
        idx = np.empty((n, self.k), dtype=np.int64)
        dist = np.empty((n, self.k), dtype=np.float64)
        if self.brute:
            idx, dist = knn_brute(lon, lat, self.flon, self.flat, self.k)
        elif self.pre_offs is not None:
            idx, dist = self._knn_vectorized(lon, lat)
        else:
            cells = geo.cell_encode(lon, lat, self.res)
            order = np.argsort(cells, kind="stable")
            sorted_cells = cells[order]
            uniq, starts = np.unique(sorted_cells, return_index=True)
            bounds = np.append(starts, n)
            for i, c in enumerate(uniq):
                pts = order[bounds[i] : bounds[i + 1]]
                _, cx, cy = geo.cell_decode(np.array([c]))
                fi, fd = self._knn_cell(int(cx[0]), int(cy[0]), lon[pts], lat[pts])
                idx[pts], dist[pts] = fi, fd
        reps = np.repeat(np.arange(n), self.k)
        return pa.table(
            {
                id_col: pa.compute.take(batch[id_col], pa.array(reps)),
                "feature_id": pa.array(self.fid[idx.ravel()]),
                "rank": pa.array(np.tile(np.arange(1, self.k + 1), n).astype(np.int64)),
                "dist_m": pa.array(np.round(dist.ravel(), 3)),
            }
        )


def _knn_join_batch(batch: pa.Table, index_ref, id_col) -> pa.Table:
    return ray.get(index_ref).assign(batch, id_col)


def knn_join(
    points: ray.data.Dataset, feature_ids, feat_lon, feat_lat, k: int = 1,
    res: int = 6, id_col: str = "image_id", batch_size: int = 32768,
) -> ray.data.Dataset:
    """Nearest-feature join: (id_col, feature_id, rank, dist_m) rows,
    k per point. The driver builds the `KnnIndex` once per call and
    `ray.put`s it; stateless tasks apply it batch by batch."""
    index_ref = ray.put(KnnIndex(feature_ids, feat_lon, feat_lat, res=res, k=k))
    return points.map_batches(
        _knn_join_batch,
        fn_kwargs=dict(index_ref=index_ref, id_col=id_col),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# raster <-> vector tile cover
# ---------------------------------------------------------------------------


def bbox_cells(
    lon: np.ndarray, lat: np.ndarray, halfw_deg: np.ndarray, halfh_deg: np.ndarray,
    res: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bbox -> covering cell explosion.

    Returns (row_idx, cells): one entry per (input row, covered cell),
    computed with pure integer arithmetic — no per-row Python loop.
    """
    n = float(1 << res)
    x0 = np.clip(np.floor((lon - halfw_deg + 180.0) / 360.0 * n), 0, n - 1).astype(np.int64)
    x1 = np.clip(np.floor((lon + halfw_deg + 180.0) / 360.0 * n), 0, n - 1).astype(np.int64)
    y0 = np.clip(np.floor((lat - halfh_deg + 90.0) / 180.0 * n), 0, n - 1).astype(np.int64)
    y1 = np.clip(np.floor((lat + halfh_deg + 90.0) / 180.0 * n), 0, n - 1).astype(np.int64)
    nx = x1 - x0 + 1
    ny = y1 - y0 + 1
    counts = nx * ny
    total = int(counts.sum())
    row_idx = np.repeat(np.arange(len(lon)), counts)
    # local index within each row's (nx x ny) grid
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    k = np.arange(total) - np.repeat(first, counts)
    nyr = ny[row_idx]
    dx = k // nyr
    dy = k % nyr
    cells = (
        np.int64(res) * np.int64(geo.RES_SHIFT)
        + (y0[row_idx] + dy) * np.int64(geo.Y_SHIFT)
        + (x0[row_idx] + dx)
    )
    return row_idx, cells


def tile_cover(
    ds: ray.data.Dataset, res: int, id_col: str = "image_id",
    lon_col: str = "lon", lat_col: str = "lat",
    w_col: str = "w", h_col: str = "h", deg_per_px: float = 1e-3,
    carry_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Raster->vector: map each image footprint (bbox centered on its
    point, sized w x h pixels at `deg_per_px`) onto its covering cell
    set at `res`; one output row per (image, cell). Vectorized: cells
    are enumerated with integer range arithmetic, no per-cell PIP.
    `carry_cols` replicate onto every emitted tile row (same contract
    as pip_join) — this is THE footprint/explode implementation; the
    flagship pipeline reuses it so the SQL oracle stays in lockstep.
    """

    def fn(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        w = batch[w_col].to_numpy(zero_copy_only=False).astype(np.float64)
        h = batch[h_col].to_numpy(zero_copy_only=False).astype(np.float64)
        row_idx, cells = bbox_cells(
            lon, lat, w * deg_per_px / 2.0, h * deg_per_px / 2.0, res
        )
        taken = pa.array(row_idx)
        cols = {
            id_col: pa.compute.take(batch[id_col], taken),
            "cell": pa.array(cells),
        }
        for c in carry_cols:
            cols[c] = pa.compute.take(batch[c], taken)
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# polygon-polygon spatial join
# ---------------------------------------------------------------------------


def _ring_arrays(col: pa.ChunkedArray | pa.ListArray):
    """Flatten a list<struct{lon,lat}> ring column to (lon, lat,
    offsets) numpy views. Offsets have len(rows)+1 entries."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    off = arr.offsets.to_numpy().astype(np.int64)
    vals = arr.values
    return (
        vals.field("lon").to_numpy(zero_copy_only=False),
        vals.field("lat").to_numpy(zero_copy_only=False),
        off,
    )


def _next_vertex(off: np.ndarray, n_flat: int) -> np.ndarray:
    """Index of each vertex's ring successor (wrap at segment end)."""
    nxt = np.arange(1, n_flat + 1, dtype=np.int64)
    if len(off) > 1:
        nxt[off[1:] - 1] = off[:-1]
    return nxt


def _pip_per_pair(px, py, rx, ry, off) -> np.ndarray:
    """Even-odd PIP, one (point, ring) test PER ROW: point i against
    ring segment i of the flattened (rx, ry, off) column. The same
    per-edge arithmetic as geo.point_in_polygon (horizontal edges
    skipped, strict x < xint), vectorized across ALL pairs' edges at
    once instead of looping points per polygon."""
    cnt = np.diff(off)
    nxt = _next_vertex(off, len(rx))
    rep = np.repeat(np.arange(len(px), dtype=np.int64), cnt)
    x1, y1 = rx, ry
    x2, y2 = rx[nxt], ry[nxt]
    X, Y = px[rep], py[rep]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = (y1 > Y) != (y2 > Y)
        xint = (x2 - x1) * (Y - y1) / (y2 - y1) + x1
        crs = cond & (y1 != y2) & (X < xint)
    out = np.zeros(len(px), dtype=bool)
    nz = cnt > 0
    if nz.any():
        out[nz] = np.bitwise_xor.reduceat(crs, off[:-1][nz])
    return out


def polygons_intersect_batch(ra: pa.ListArray, rb: pa.ListArray) -> np.ndarray:
    """Row-wise exact polygon-intersection verdicts for two aligned
    ring columns: intersect iff any edge pair properly crosses OR one
    polygon's first vertex lies inside the other (if no edge crosses,
    the polygons are disjoint or nested, so ONE vertex decides).

    Fully vectorized across the batch: the per-pair cartesian edge
    product is laid out flat with np.repeat bookkeeping — no Python
    loop over pairs, one orientation computation for every edge pair
    of every row at once."""
    ax, ay, ao = _ring_arrays(ra)
    bx, by, bo = _ring_arrays(rb)
    P = len(ao) - 1
    a_start, b_start = ao[:-1], bo[:-1]
    a_cnt, b_cnt = np.diff(ao), np.diff(bo)
    anxt = _next_vertex(ao, len(ax))
    bnxt = _next_vertex(bo, len(bx))

    m = a_cnt * b_cnt
    M = int(m.sum())
    pair_of = np.repeat(np.arange(P, dtype=np.int64), m)
    base = np.concatenate(([0], np.cumsum(m)[:-1]))
    t = np.arange(M, dtype=np.int64) - base[pair_of]
    ai = a_start[pair_of] + t // np.maximum(b_cnt[pair_of], 1)
    bi = b_start[pair_of] + t % np.maximum(b_cnt[pair_of], 1)

    p1x, p1y = ax[ai], ay[ai]
    p2x, p2y = ax[anxt[ai]], ay[anxt[ai]]
    q1x, q1y = bx[bi], by[bi]
    q2x, q2y = bx[bnxt[bi]], by[bnxt[bi]]
    # orient(a,b,c) = (bx-ax)(cy-ay) - (by-ay)(cx-ax), proper crossing
    # iff both segments strictly straddle each other (geo._segments_
    # intersect semantics)
    d1 = (q2x - q1x) * (p1y - q1y) - (q2y - q1y) * (p1x - q1x)
    d2 = (q2x - q1x) * (p2y - q1y) - (q2y - q1y) * (p2x - q1x)
    d3 = (p2x - p1x) * (q1y - p1y) - (p2y - p1y) * (q1x - p1x)
    d4 = (p2x - p1x) * (q2y - p1y) - (p2y - p1y) * (q2x - p1x)
    crossing = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))

    hit = np.zeros(P, dtype=bool)
    nz = m > 0
    if nz.any():
        hit[nz] = np.bitwise_or.reduceat(crossing, base[nz])
    # containment (nested, no crossings): first vertex decides
    ok = (a_cnt > 0) & (b_cnt > 0)
    if ok.any():
        sa = np.minimum(a_start, max(len(ax) - 1, 0))
        sb = np.minimum(b_start, max(len(bx) - 1, 0))
        pin_a = _pip_per_pair(ax[sa], ay[sa], bx, by, bo)
        pin_b = _pip_per_pair(bx[sb], by[sb], ax, ay, ao)
        hit |= (pin_a | pin_b) & ok
    return hit


def polygon_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_id: str = "a_id",
    right_id: str = "b_id",
    ring_col: str = "ring",
    res: int = 5,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Polygon ⋈ polygon intersection join, both sides LARGE:

      1. cover-explode each side to distinct (id, cell) rows at `res`
         (`geo.polygon_cover` — a strict superset of touched cells);
      2. ONE equi hash join on cell -> candidate id pairs, deduped by
         a hash-partitioned pair shuffle (a pair sharing k cells is
         emitted k times);
      3. ring payloads joined back onto the candidates (two hash
         joins — rings move once, only for candidates);
      4. exact vectorized verify (`polygons_intersect_batch`).

    Neither side is broadcast; every stage is a bounded exchange:
    cover rows ~ polygons x cells-per-polygon, candidates ~ true
    spatial locality. Pick `res` so a typical polygon covers a
    handful of cells; dense-cell skew shows up as a hot cell in
    stage 2 and is the documented salting point."""
    from oluray.stages import joins

    def explode(side_id: str):
        def fn(t: pa.Table) -> pa.Table:
            lon, lat, off = _ring_arrays(t[ring_col])
            ids = t[side_id].to_numpy(zero_copy_only=False)
            out_ids, out_cells = [], []
            for i in range(len(ids)):
                s, e = off[i], off[i + 1]
                if e - s < 3:
                    continue
                cells = geo.polygon_cover(lon[s:e], lat[s:e], res)
                out_ids.append(np.full(len(cells), ids[i], dtype=np.int64))
                out_cells.append(cells)
            if not out_ids:
                return pa.table(
                    {side_id: pa.array([], pa.int64()),
                     "cell": pa.array([], pa.int64())}
                )
            return pa.table(
                {side_id: pa.array(np.concatenate(out_ids)),
                 "cell": pa.array(np.concatenate(out_cells))}
            )

        return fn

    lcells = left.map_batches(explode(left_id), batch_format="pyarrow")
    rcells = right.map_batches(explode(right_id), batch_format="pyarrow")
    cand = joins.hash_join(
        lcells, rcells, on="cell", num_partitions=num_partitions,
        left_schema=pa.schema([(left_id, pa.int64()), ("cell", pa.int64())]),
        right_schema=pa.schema([(right_id, pa.int64()), ("cell", pa.int64())]),
    ).select_columns([left_id, right_id])
    cand = joins.pair_dedup(cand, [left_id, right_id], num_partitions)

    ring_t = pa.list_(
        pa.struct([("lon", pa.float64()), ("lat", pa.float64())])
    )
    with_a = joins.hash_join(
        cand, left.select_columns([left_id, ring_col]), on=left_id,
        num_partitions=num_partitions, suffix="_a",
        left_schema=pa.schema([(left_id, pa.int64()), (right_id, pa.int64())]),
        right_schema=pa.schema([(left_id, pa.int64()), (ring_col, ring_t)]),
    )
    with_ab = joins.hash_join(
        with_a, right.select_columns([right_id, ring_col]), on=right_id,
        num_partitions=num_partitions, suffix="_b",
        left_schema=pa.schema(
            [(left_id, pa.int64()), (right_id, pa.int64()), (ring_col, ring_t)]
        ),
        right_schema=pa.schema([(right_id, pa.int64()), (ring_col, ring_t)]),
    )

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {left_id: pa.array([], pa.int64()),
                 right_id: pa.array([], pa.int64())}
            )
        ra = t[ring_col].combine_chunks()
        rb = t[ring_col + "_b"].combine_chunks()
        hit = polygons_intersect_batch(ra, rb)
        keep = pa.array(hit)
        return pa.table(
            {left_id: t[left_id].filter(keep),
             right_id: t[right_id].filter(keep)}
        )

    return with_ab.map_batches(verify, batch_format="pyarrow")


def simplify_polys(
    ds: ray.data.Dataset, ring_col: str = "ring", eps_deg: float = 0.01,
) -> ray.data.Dataset:
    """Per-zoom detail reduction: Douglas-Peucker-simplify every ring
    (`geo.simplify_ring`, error bound eps_deg) before a coarse-zoom
    `polygon_cover` / `polygon_join` — vertex counts drop, covers are
    unchanged up to eps. Stateless map; offsets rebuilt vectorized
    from the per-ring keep masks."""

    def fn(t: pa.Table) -> pa.Table:
        lon, lat, off = _ring_arrays(t[ring_col])
        keep = np.zeros(len(lon), dtype=bool)
        for i in range(len(off) - 1):
            s, e = off[i], off[i + 1]
            keep[s:e] = geo.simplify_ring(lon[s:e], lat[s:e], eps_deg)
        counts = np.add.reduceat(keep.astype(np.int64), off[:-1]) \
            if len(off) > 1 else np.array([], dtype=np.int64)
        counts = np.where(np.diff(off) == 0, 0, counts)
        new_off = np.concatenate(([0], np.cumsum(counts)))
        ring = pa.ListArray.from_arrays(
            pa.array(new_off, pa.int32()),
            pa.StructArray.from_arrays(
                [pa.array(lon[keep]), pa.array(lat[keep])], ["lon", "lat"]
            ),
        )
        idx = t.schema.get_field_index(ring_col)
        return t.set_column(idx, ring_col, ring)

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# large-large distance self-join (all point pairs within R meters)
# ---------------------------------------------------------------------------


def _self_join_res(radius_m: float, max_abs_lat: float) -> int:
    """Finest grid resolution at which any two points within
    `radius_m` of each other (at |lat| <= max_abs_lat) sit in cells
    within Chebyshev distance 1 — i.e. cell spans dominate the
    radius's lat/lon reach, so the 3x3 neighborhood is a complete
    candidate set."""
    # lat reach in degrees: R along a meridian
    dlat = radius_m * 180.0 / (np.pi * geo.EARTH_RADIUS_M)
    # lon reach at the worst (highest) latitude, from the inverse
    # haversine with dlat = 0: sin(dlon/2) = sin(R/2Re) / cos(lat)
    s = np.sin(radius_m / (2.0 * geo.EARTH_RADIUS_M)) / np.cos(
        np.radians(max_abs_lat)
    )
    if s >= 1.0:
        return 0  # radius reaches around the pole cap: one-cell grid
    dlon = np.degrees(2.0 * np.arcsin(s))
    r_lat = int(np.floor(np.log2(180.0 / dlat))) if dlat > 0 else geo.MAX_RES
    r_lon = int(np.floor(np.log2(360.0 / dlon))) if dlon > 0 else geo.MAX_RES
    return max(0, min(geo.MAX_RES, r_lat, r_lon))


def distance_self_join(
    points: ray.data.Dataset,
    id_col: str,
    radius_m: float,
    max_abs_lat: float = 85.0,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Every unordered point pair within `radius_m` great-circle
    meters, both sides LARGE (the broadcast `radius join` shape in
    `queries.q_radius_join` covers the small-lookup case; this is the
    self-join where neither side fits anywhere).

    Shape: grid blocking + one-sided ghost replication.

    - res is chosen so the 3x3 cell neighborhood provably contains
      every partner (`_self_join_res`); points at |lat| > max_abs_lat
      must not exist in the input (web-mercator-clipped data).
    - each point is emitted ONCE as a "home" row in its own cell and
      as a GHOST row into the (<= 8, deduped) adjacent cells whose id
      is SMALLER than its home cell — so a cross-cell pair forms
      exactly once, in the smaller cell, and a same-cell pair forms
      once via the id ordering. No pair-dedup shuffle needed.
    - per cell partition: one pandas hash-merge (C-level) forms
      home x (home + ghost) candidates, one vectorized haversine
      filters to < radius_m. The exchange moves <= 5 copies of
      (id, lon, lat) per point — never bytes, never texts.

    Returns (ka, kb, dist_mm) with ka < kb; dist_mm is the
    exact-formula haversine rounded to integer millimeters (the SQL
    mirror computes the identical double, `geo.haversine_sql`).

    Skew note (100 TB contract): a dense city cell makes one fat
    merge; the growth path is res+1 on hot cells only (split the
    cell, keep this same ghost rule inside it) via
    `sketch.approx_heavy_hitters` over cell ids — same pattern as
    `skew.auto_salted_group_apply`, not wired here because pair
    formation must see ALL rows of a cell together.
    """
    from oluray.stages import joins

    res = _self_join_res(radius_m, max_abs_lat)

    def expand(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        home = geo.cell_encode(lon, lat, res)
        nbr = geo.k_ring(home, 1)  # (n, 9) incl. home
        src = np.repeat(np.arange(len(ids)), nbr.shape[1])
        tgt = nbr.ravel()
        ghost = tgt < np.repeat(home, nbr.shape[1])
        # pole-clamp duplicates: one (src, tgt) pair max
        order = np.lexsort((tgt, src))
        s_o, t_o = src[order], tgt[order]
        first = np.ones(len(s_o), dtype=bool)
        first[1:] = (s_o[1:] != s_o[:-1]) | (t_o[1:] != t_o[:-1])
        keep = first & ghost[order]
        g_src, g_tgt = s_o[keep], t_o[keep]
        out_ids = np.concatenate([ids, ids[g_src]])
        out_lon = np.concatenate([lon, lon[g_src]])
        out_lat = np.concatenate([lat, lat[g_src]])
        out_cell = np.concatenate([home, g_tgt])
        out_ghost = np.concatenate(
            [np.zeros(len(ids), dtype=bool), np.ones(len(g_src), dtype=bool)]
        )
        return pa.table(
            {
                "pid": pa.array(out_ids),
                "lon": pa.array(out_lon),
                "lat": pa.array(out_lat),
                "cell": pa.array(out_cell),
                "ghost": pa.array(out_ghost),
            }
        )

    expanded = points.map_batches(expand, batch_format="pyarrow")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "ka": pd.array([], dtype="int64"),
                "kb": pd.array([], dtype="int64"),
                "dist_mm": pd.array([], dtype="int64"),
            }
        )
        if len(df) == 0:
            return empty
        left = df[~df["ghost"]]
        m = left.merge(df, on="cell", suffixes=("_a", "_b"))
        # home x home once (id order) + home x ghost (cross-cell,
        # formed only in the smaller cell so exactly once)
        m = m[
            (~m["ghost_b"] & (m["pid_a"] < m["pid_b"])) | m["ghost_b"].to_numpy()
        ]
        if len(m) == 0:
            return empty
        d = geo.haversine_m(
            m["lon_a"].to_numpy(), m["lat_a"].to_numpy(),
            m["lon_b"].to_numpy(), m["lat_b"].to_numpy(),
        )
        hit = d < radius_m
        if not hit.any():
            return empty
        a = m["pid_a"].to_numpy()[hit]
        b = m["pid_b"].to_numpy()[hit]
        return pd.DataFrame(
            {
                "ka": np.minimum(a, b),
                "kb": np.maximum(a, b),
                "dist_mm": np.round(d[hit] * 1000.0).astype(np.int64),
            }
        )

    return joins.partitioned_map(
        expanded, ["cell"], pairs, num_partitions, pre_repartition=False
    )

# ---------------------------------------------------------------------------
# trajectory similarity: symmetric-Hausdorff self-join
# ---------------------------------------------------------------------------

_LON_L = 180 * 10**7  # lon extent in 1e-7-degree units
_ENV_SLACK = 4  # float->int quantization slack, units of 1e-7 deg


def _col_points(col) -> tuple[np.ndarray, np.ndarray]:
    """(flat float64 values, 0-based offsets) of a list-like column in
    any encoding Ray Data produces for per-track coordinate arrays:
    list / large_list / fixed_size_list, or the dense tensor extension
    a pandas object column of EQUAL-length numpy arrays collapses
    into. Slice-safe (list_flatten respects array offsets)."""
    import pyarrow.compute as _pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = arr.type
    if isinstance(t, (pa.ListType, pa.LargeListType, pa.FixedSizeListType)):
        flat = _pc.list_flatten(arr).to_numpy(zero_copy_only=False)
        lens = _pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        off = np.concatenate(([0], np.cumsum(lens.astype(np.int64))))
        return flat.astype(np.float64), off
    mat = np.asarray(arr.to_numpy(zero_copy_only=False), dtype=np.float64)
    if mat.ndim == 1:  # object vector of arrays (ragged fallback)
        lens = np.fromiter((len(v) for v in mat), dtype=np.int64,
                           count=len(mat))
        off = np.concatenate(([0], np.cumsum(lens)))
        flat = (np.concatenate(mat).astype(np.float64)
                if len(mat) else np.empty(0, np.float64))
        return flat, off
    n, k = mat.shape
    return mat.astype(np.float64).ravel(), (
        np.arange(n + 1, dtype=np.int64) * k)


def _pad_lists(col) -> tuple[np.ndarray, np.ndarray]:
    """list-like column -> (padded 2-d float64, bool mask of real
    entries), fully vectorized (no per-row Python)."""
    flat, off = _col_points(col)
    lens = off[1:] - off[:-1]
    n = len(lens)
    k = int(lens.max()) if n else 0
    out = np.zeros((n, k), dtype=np.float64)
    mask = np.zeros((n, k), dtype=bool)
    rows = np.repeat(np.arange(n), lens)
    cols = np.arange(len(flat)) - np.repeat(off[:-1], lens)
    out[rows, cols] = flat
    mask[rows, cols] = True
    return out, mask


def _reduceat_minmax(flat: np.ndarray, off: np.ndarray):
    starts = off[:-1]
    return (np.minimum.reduceat(flat, starts),
            np.maximum.reduceat(flat, starts))


def _track_candidates(
    tracks: ray.data.Dataset,
    tau_m: float,
    id_col: str,
    num_partitions: int,
    cell_units: int | None,
) -> ray.data.Dataset:
    """Completeness-preserving candidate-pair stage shared by the
    trajectory similarity joins (`hausdorff_self_join`,
    `frechet_self_join` — sound for Frechet because discrete Frechet
    >= symmetric Hausdorff: a coupling maps every point of A to a
    point of B within the coupling width, and vice versa).

    1. ENVELOPE PREFILTER: H(A,B) <= tau implies B is inside A's
       tau-dilated envelope, so candidate pairs come from
       `rect_intersect_join` (PBSM grid + reference-point dedup)
       between tau-EXPANDED envelopes (side a) and raw envelopes
       (side b), in 1e-7-degree integer coordinates.
       - lat dilation: tau * 180 / (pi * R) degrees (haversine >=
         R * |dlat| along a meridian).
       - lon dilation from the inverse haversine at the WORST
         latitude the partner can occupy (the track's lat range
         widened by the lat dilation): sin(dlon/2) =
         sin(tau/2R) / cos_min; if that exceeds 1 the dilated rect
         wraps the full lon range.
       - DATELINE: a dilated rect overhanging +/-180 also emits the
         overhang shifted by 360 deg, so cross-antimeridian pairs
         (haversine wraps; plain lon intervals don't) are kept. A
         degenerate raw envelope that itself straddles the dateline
         spans the full lon range — conservative, still sound — and
         the pair-distinct pass below absorbs any double emission.
    2. pair-distinct + u1 < u2 (tiny groupby over candidate ids).
    3. two `hash_join`s pull both point lists onto each candidate
       pair row: (u1, u2, lons_a, lats_a, lons, lats).

    Only (id, envelope) rows enter the all-to-all exchange; point
    lists move exactly twice (once per hash_join side). Candidate
    count scales with tau-ball density, not |tracks|^2. Skew: a hot
    grid cell is one fat merge — same growth path as
    `distance_self_join` (split hot cells at finer res).
    """
    from oluray.stages import joins

    tau_m = float(tau_m)
    dlat_deg = tau_m * 180.0 / (np.pi * geo.EARTH_RADIUS_M)
    dlat_units = int(np.ceil(dlat_deg * 1e7)) + _ENV_SLACK
    sin_half = np.sin(tau_m / (2.0 * geo.EARTH_RADIUS_M))
    if cell_units is None:
        # ~2x the lat dilation: equatorial rects cover a handful of
        # cells; the key-space bound (|coord|//g < 2^20) is safe for
        # any g >= 1717 at 1e-7-deg coords
        cell_units = max(int(np.ceil(2.2 * dlat_deg * 1e7)), 1717 * 4)

    def rects(t: pa.Table, expand: bool) -> pa.Table:
        cols = {"rid": pa.array([], pa.int64()),
                "xmin": pa.array([], pa.int64()), "xmax": pa.array([], pa.int64()),
                "ymin": pa.array([], pa.int64()), "ymax": pa.array([], pa.int64())}
        if t.num_rows == 0:
            return pa.table(cols)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lf, off = _col_points(t["lons"])
        yf, _ = _col_points(t["lats"])
        lon_mn, lon_mx = _reduceat_minmax(lf, off)
        lat_mn, lat_mx = _reduceat_minmax(yf, off)
        xmin = np.floor(lon_mn * 1e7).astype(np.int64) - _ENV_SLACK
        xmax = np.ceil(lon_mx * 1e7).astype(np.int64) + _ENV_SLACK
        ymin = np.floor(lat_mn * 1e7).astype(np.int64) - _ENV_SLACK
        ymax = np.ceil(lat_mx * 1e7).astype(np.int64) + _ENV_SLACK
        if not expand:
            return pa.table({"rid": pa.array(ids),
                             "xmin": pa.array(xmin), "xmax": pa.array(xmax),
                             "ymin": pa.array(ymin), "ymax": pa.array(ymax)})
        ymin_e = ymin - dlat_units
        ymax_e = ymax + dlat_units
        # worst-case cos over the partner's possible lat interval
        lo = np.maximum(ymin_e, -89.0 * 1e7) / 1e7
        hi = np.minimum(ymax_e, 89.0 * 1e7) / 1e7
        cos_min = np.minimum(np.cos(np.radians(lo)), np.cos(np.radians(hi)))
        # interval containing 0 has cos max at 0, min at an endpoint:
        # already covered; clamp away from the poles
        cos_min = np.maximum(cos_min, 1e-6)
        s = sin_half / cos_min
        full = s >= 1.0  # dilation wraps the whole lon range
        s = np.minimum(s, 1.0)
        dlon_units = (np.ceil(np.degrees(2.0 * np.arcsin(s)) * 1e7)
                      .astype(np.int64) + _ENV_SLACK)
        xmin_e = xmin - dlon_units
        xmax_e = xmax + dlon_units
        width_full = full | ((xmax_e - xmin_e) >= 2 * _LON_L)
        out_rid, out_x0, out_x1, out_y0, out_y1 = [], [], [], [], []
        # main rect, clamped to [-L, L] (with slack) when wrapping
        mx0 = np.where(width_full, -_LON_L - _ENV_SLACK,
                       np.maximum(xmin_e, -_LON_L - _ENV_SLACK))
        mx1 = np.where(width_full, _LON_L + _ENV_SLACK,
                       np.minimum(xmax_e, _LON_L + _ENV_SLACK))
        out_rid.append(ids); out_x0.append(mx0); out_x1.append(mx1)
        out_y0.append(ymin_e); out_y1.append(ymax_e)
        # dateline overhangs (disjoint from main by construction)
        over_r = (~width_full) & (xmax_e > _LON_L + _ENV_SLACK)
        if over_r.any():
            out_rid.append(ids[over_r])
            out_x0.append(np.full(over_r.sum(), -_LON_L - _ENV_SLACK, np.int64))
            out_x1.append(xmax_e[over_r] - 2 * _LON_L)
            out_y0.append(ymin_e[over_r]); out_y1.append(ymax_e[over_r])
        over_l = (~width_full) & (xmin_e < -_LON_L - _ENV_SLACK)
        if over_l.any():
            out_rid.append(ids[over_l])
            out_x0.append(xmin_e[over_l] + 2 * _LON_L)
            out_x1.append(np.full(over_l.sum(), _LON_L + _ENV_SLACK, np.int64))
            out_y0.append(ymin_e[over_l]); out_y1.append(ymax_e[over_l])
        return pa.table({"rid": pa.array(np.concatenate(out_rid)),
                         "xmin": pa.array(np.concatenate(out_x0)),
                         "xmax": pa.array(np.concatenate(out_x1)),
                         "ymin": pa.array(np.concatenate(out_y0)),
                         "ymax": pa.array(np.concatenate(out_y1))})

    dilated = tracks.map_batches(
        lambda t: rects(t, True), batch_format="pyarrow")
    raw = tracks.map_batches(
        lambda t: rects(t, False), batch_format="pyarrow")
    cand = rect_intersect_join(
        dilated, raw, cell_units=cell_units, id_col="rid",
        num_partitions=num_partitions)

    def order_pairs(t: pa.Table) -> pa.Table:
        a = t["a_id"].to_numpy(zero_copy_only=False)
        b = t["b_id"].to_numpy(zero_copy_only=False)
        keep = a < b
        return pa.table({"u1": pa.array(a[keep]), "u2": pa.array(b[keep])})

    cand = cand.map_batches(order_pairs, batch_format="pyarrow")

    def distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["u1", "u2"])

    cand = joins.partitioned_map(cand, ["u1", "u2"], distinct,
                                 num_partitions=num_partitions,
                                 pre_repartition=False)

    pair_schema = pa.schema([("u1", pa.int64()), ("u2", pa.int64())])
    track_schema = pa.schema([
        (id_col, pa.int64()),
        ("lons", pa.list_(pa.float64())), ("lats", pa.list_(pa.float64()))])
    j1 = joins.hash_join(cand, tracks, on="u1", right_on=id_col,
                         num_partitions=num_partitions,
                         left_schema=pair_schema, right_schema=track_schema)

    def ren_a(t: pa.Table) -> pa.Table:
        t = t.drop_columns([id_col]) if id_col in t.column_names else t
        return t.rename_columns(
            ["lons_a" if c == "lons" else "lats_a" if c == "lats" else c
             for c in t.column_names])

    j1 = j1.map_batches(ren_a, batch_format="pyarrow")
    j1_schema = pa.schema([
        ("u1", pa.int64()), ("u2", pa.int64()),
        ("lons_a", pa.list_(pa.float64())), ("lats_a", pa.list_(pa.float64()))])
    j2 = joins.hash_join(j1, tracks, on="u2", right_on=id_col,
                         num_partitions=num_partitions,
                         left_schema=j1_schema, right_schema=track_schema)
    return j2


def _pair_dist_tensor(t: pa.Table):
    """(P, Ka, Kb) haversine tensor + the two padding masks for a
    candidate-pair batch, identical per-element IEEE ops to the
    scalar formula (so rounded mm values match the SQL oracle)."""
    lon_a, m_a = _pad_lists(t["lons_a"])
    lat_a, _ = _pad_lists(t["lats_a"])
    lon_b, m_b = _pad_lists(t["lons"])
    lat_b, _ = _pad_lists(t["lats"])
    d = geo.haversine_m(lon_a[:, :, None], lat_a[:, :, None],
                        lon_b[:, None, :], lat_b[:, None, :])
    return d, m_a, m_b


def _emit_pairs(t: pa.Table, mm: np.ndarray, tau_mm: int,
                val_col: str) -> pa.Table:
    keep = mm <= tau_mm
    return pa.table({
        "u1": pa.array(t["u1"].to_numpy(zero_copy_only=False)[keep]),
        "u2": pa.array(t["u2"].to_numpy(zero_copy_only=False)[keep]),
        val_col: pa.array(mm[keep])})


def hausdorff_self_join(
    tracks: ray.data.Dataset,
    tau_m: float,
    id_col: str = "tid",
    num_partitions: int = 32,
    cell_units: int | None = None,
    verify_batch: int = 1024,
) -> ray.data.Dataset:
    """Trajectory similarity self-join: every unordered track pair
    whose SYMMETRIC Hausdorff distance (great-circle, meters) is
    within `tau_m`. Input: one row per track — (`id_col` int64,
    `lons` list<double>, `lats` list<double>), non-empty lists.
    Output: (u1, u2, haus_mm) with u1 < u2, haus_mm the exact
    max(h(A,B), h(B,A)) haversine rounded half-away to millimeters,
    filtered to haus_mm <= round(tau_m * 1000).

    Candidates come from the dilated-envelope prefilter
    (`_track_candidates`); VERIFY is a batched masked-padding kernel:
    min over one axis of the (P, Ka, Kb) tensor, max over the other,
    both directions — entirely vectorized numpy."""
    tau_mm = int(np.floor(float(tau_m) * 1000.0 + 0.5))
    cands = _track_candidates(tracks, tau_m, id_col, num_partitions,
                              cell_units)
    empty_out = pa.table({"u1": pa.array([], pa.int64()),
                          "u2": pa.array([], pa.int64()),
                          "haus_mm": pa.array([], pa.int64())})

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty_out
        d, m_a, m_b = _pair_dist_tensor(t)
        d_ab = np.where(m_b[:, None, :], d, np.inf).min(axis=2)
        h_ab = np.where(m_a, d_ab, -np.inf).max(axis=1)
        d_ba = np.where(m_a[:, :, None], d, np.inf).min(axis=1)
        h_ba = np.where(m_b, d_ba, -np.inf).max(axis=1)
        h = np.maximum(h_ab, h_ba)
        mm = (np.sign(h) * np.floor(np.abs(h) * 1000.0 + 0.5)).astype(np.int64)
        return _emit_pairs(t, mm, tau_mm, "haus_mm")

    return cands.map_batches(verify, batch_format="pyarrow",
                             batch_size=verify_batch)


def frechet_self_join(
    tracks: ray.data.Dataset,
    tau_m: float,
    id_col: str = "tid",
    num_partitions: int = 32,
    cell_units: int | None = None,
    verify_batch: int = 1024,
) -> ray.data.Dataset:
    """Discrete Frechet similarity self-join: every unordered track
    pair whose discrete Frechet (coupling) distance is within
    `tau_m` meters — the ORDER-AWARE sibling of
    `hausdorff_self_join` (a dog-walk coupling must traverse both
    tracks monotonically, so two tracks covering the same area in
    opposite directions are Frechet-far but Hausdorff-close).
    Output: (u1, u2, frechet_mm) with u1 < u2.

    The same dilated-envelope prefilter is COMPLETE here because
    discrete Frechet >= symmetric Hausdorff. VERIFY runs the classic
    DP — dp[i][j] = max(d[i][j], min(dp[i-1][j], dp[i][j-1],
    dp[i-1][j-1])) — vectorized ACROSS pairs: the (i, j) recurrence
    is sequential (Ka x Kb scalar steps) but each step operates on
    the whole P-pair batch at once, so per-pair cost is a handful of
    fused numpy ops. Ragged tracks: each pair's result is read off
    the DP at its own (na-1, nb-1) corner."""
    tau_mm = int(np.floor(float(tau_m) * 1000.0 + 0.5))
    cands = _track_candidates(tracks, tau_m, id_col, num_partitions,
                              cell_units)
    empty_out = pa.table({"u1": pa.array([], pa.int64()),
                          "u2": pa.array([], pa.int64()),
                          "frechet_mm": pa.array([], pa.int64())})

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty_out
        d, m_a, m_b = _pair_dist_tensor(t)
        P, ka, kb = d.shape
        na = m_a.sum(axis=1)  # real lengths (lists are left-packed)
        nb = m_b.sum(axis=1)
        res = np.empty(P, dtype=np.float64)
        prev = np.full((P, kb), np.inf)
        rows = np.arange(P)
        for i in range(ka):
            cur = np.empty((P, kb))
            di = d[:, i, :]
            # j = 0: only the straight-down predecessor (none at i=0:
            # prev is inf-initialized, max(d, inf) would be wrong, so
            # the start cell is just d[0][0])
            cur[:, 0] = di[:, 0] if i == 0 else np.maximum(di[:, 0],
                                                           prev[:, 0])
            for j in range(1, kb):
                # prev rows are +inf at i=0, so the three-way min
                # collapses to the left neighbor there — the general
                # formula is uniform
                best = np.minimum(np.minimum(cur[:, j - 1], prev[:, j]),
                                  prev[:, j - 1])
                cur[:, j] = np.maximum(di[:, j], best)
            hit = na - 1 == i
            if hit.any():
                res[hit] = cur[rows[hit], nb[hit] - 1]
            prev = cur
        mm = (np.sign(res) * np.floor(np.abs(res) * 1000.0 + 0.5)
              ).astype(np.int64)
        return _emit_pairs(t, mm, tau_mm, "frechet_mm")

    return cands.map_batches(verify, batch_format="pyarrow",
                             batch_size=verify_batch)
