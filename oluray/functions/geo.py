"""Vectorized geospatial kernels (pure numpy — no native geo libs).

These replace the reference's delegated geometry pipeline
(``src/osm/Osm2ttl.cpp:38-109`` hands geometry work to osm2rdf /
spatialjoin) with in-engine, vectorized kernels:

- a **hierarchical cell grid** ("geocell"): an equirectangular
  quadtree in the spirit of S2/H3 — resolution r splits the world into
  2^r x 2^r cells; cell ids pack (res, y, x) into one int64 with pure
  arithmetic so the encoding is reproducible in ANSI SQL
  (``res*2^58 + y*2^29 + x``);
- a **raster polygon cover** (:func:`polygon_covers`), the cell-cover
  prefilter: one numpy pass over all rings' edges, after Raptor;
- **ray-casting point-in-polygon** (even-odd rule), the exact-refine
  step behind the cell-cover prefilter;
- **haversine** great-circle distance;
- **k-ring** neighborhood expansion for kNN candidate generation.

Coordinates follow the reference's 7-decimal-place contract
(``src/osm/Node.cpp:27,44-51``): quantize to 1e-7 degrees before
encoding so goldens are stable.
"""

from __future__ import annotations

import numpy as np

# int64 packing: cell = res * 2^58 + y * 2^29 + x  (res <= 28 => fits int64,
# and every term is exact BIGINT arithmetic in SQL).
RES_SHIFT = 2**58
Y_SHIFT = 2**29
MAX_RES = 28

EARTH_RADIUS_M = 6371008.8  # IUGG mean Earth radius


# ---------------------------------------------------------------------------
# deterministic point derivation (fixture/key -> lon/lat), SQL-reproducible
# ---------------------------------------------------------------------------

_KNUTH = 3600000000  # lon microdegree span
_LAT_SPAN = 1700000000  # lat microdegree span (±85 like web-mercator clip)
_HASH_MULT = 2654435761  # Knuth multiplicative hash constant
_MOD32 = 4294967296


def derive_lonlat(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (lon, lat) from integer keys.

    Integer-exact (uint64) so the identical value is computable in
    DuckDB SQL via HUGEINT arithmetic — see :func:`derive_lonlat_sql`.
    lon in [-180, 180), lat in [-85, 85), quantized to 1e-7 degrees.
    """
    k = np.asarray(keys, dtype=np.uint64)
    h1 = (k * np.uint64(_HASH_MULT)) % np.uint64(_MOD32)
    # quadratic mix for lat: h1^2 mod 2^32 — NONLINEAR in k, so
    # (lon, lat) doesn't collapse onto a rank-1 lattice line
    h2 = (h1 * h1) % np.uint64(_MOD32)
    lon_u = (h1 * np.uint64(_KNUTH)) // np.uint64(_MOD32)
    lat_u = (h2 * np.uint64(_LAT_SPAN)) // np.uint64(_MOD32)
    lon = -180.0 + lon_u.astype(np.float64) / 1e7
    lat = -85.0 + lat_u.astype(np.float64) / 1e7
    return lon, lat


def derive_lonlat_sql(key_expr: str) -> tuple[str, str]:
    """SQL expressions computing exactly :func:`derive_lonlat` for
    non-negative keys. The inner product needs the HUGEINT cast too:
    key * 2654435761 overflows BIGINT for keys >= ~3.5e9 (real OSM
    node ids pass 11e9) even though the final value is mod 2^32."""
    h1 = f"((({key_expr})::HUGEINT * {_HASH_MULT}) % {_MOD32})"
    h2 = f"(({h1}::HUGEINT * {h1}) % {_MOD32})"
    lon = f"(-180.0 + (({h1}::HUGEINT * {_KNUTH}) // {_MOD32})::DOUBLE / 10000000.0)"
    lat = f"(-85.0 + (({h2}::HUGEINT * {_LAT_SPAN}) // {_MOD32})::DOUBLE / 10000000.0)"
    return lon, lat


def derive_units(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The INTEGER 1e-7-degree units underlying :func:`derive_lonlat`
    (lon_u in [0, 3.6e9), lat_u in [0, 1.7e9)) — for operators that
    need exact integer geometry (orientation tests, lattice binning)
    with a bit-exact SQL twin and no float in the compare path."""
    k = np.asarray(keys, dtype=np.uint64)
    h1 = (k * np.uint64(_HASH_MULT)) % np.uint64(_MOD32)
    h2 = (h1 * h1) % np.uint64(_MOD32)
    lon_u = ((h1 * np.uint64(_KNUTH)) // np.uint64(_MOD32)).astype(np.int64)
    lat_u = ((h2 * np.uint64(_LAT_SPAN)) // np.uint64(_MOD32)).astype(np.int64)
    return lon_u, lat_u


def derive_units_sql(key_expr: str) -> tuple[str, str]:
    """SQL expressions computing exactly :func:`derive_units`."""
    h1 = f"((({key_expr})::HUGEINT * {_HASH_MULT}) % {_MOD32})"
    h2 = f"(({h1}::HUGEINT * {h1}) % {_MOD32})"
    lon_u = f"((({h1}::HUGEINT * {_KNUTH}) // {_MOD32})::BIGINT)"
    lat_u = f"((({h2}::HUGEINT * {_LAT_SPAN}) // {_MOD32})::BIGINT)"
    return lon_u, lat_u


# ---------------------------------------------------------------------------
# cell grid
# ---------------------------------------------------------------------------


def cell_encode(lon: np.ndarray, lat: np.ndarray, res: int) -> np.ndarray:
    """Encode points into int64 cell ids at `res` (0..28).

    x = floor((lon+180)/360 * 2^res), y = floor((lat+90)/180 * 2^res),
    clamped to the grid. Mirrors :func:`cell_encode_sql` op-for-op so
    numpy and DuckDB produce bit-identical ids.
    """
    if not 0 <= res <= MAX_RES:
        raise ValueError(f"res must be in [0, {MAX_RES}], got {res}")
    n = float(1 << res)
    x = np.floor(((np.asarray(lon, dtype=np.float64) + 180.0) / 360.0) * n)
    y = np.floor(((np.asarray(lat, dtype=np.float64) + 90.0) / 180.0) * n)
    x = np.clip(x, 0, n - 1).astype(np.int64)
    y = np.clip(y, 0, n - 1).astype(np.int64)
    return np.int64(res) * np.int64(RES_SHIFT) + y * np.int64(Y_SHIFT) + x


def cell_xy_sql(lon_expr: str, lat_expr: str, res: int) -> tuple[str, str]:
    """SQL expressions for the raw grid (x, y) of :func:`cell_encode`
    at `res` — for oracles that work in grid coordinates directly."""
    n = 1 << res
    x = (
        f"LEAST(GREATEST(floor((({lon_expr} + 180.0) / 360.0) * {float(n)!r})::BIGINT,"
        f" 0), {n - 1})"
    )
    y = (
        f"LEAST(GREATEST(floor((({lat_expr} + 90.0) / 180.0) * {float(n)!r})::BIGINT,"
        f" 0), {n - 1})"
    )
    return x, y


def cell_encode_sql(lon_expr: str, lat_expr: str, res: int) -> str:
    """ANSI-SQL expression computing exactly :func:`cell_encode`."""
    x, y = cell_xy_sql(lon_expr, lat_expr, res)
    return f"({res} * {RES_SHIFT} + {y} * {Y_SHIFT} + {x})"


def cell_decode(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cell id -> (res, x, y)."""
    c = np.asarray(cell, dtype=np.int64)
    res = c // RES_SHIFT
    rem = c % RES_SHIFT
    y = rem // Y_SHIFT
    x = rem % Y_SHIFT
    return res, x, y


def cell_bounds(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lon_min, lat_min, lon_max, lat_max) of each cell."""
    res, x, y = cell_decode(cell)
    n = (np.int64(1) << res).astype(np.float64)
    lon0 = -180.0 + 360.0 * x / n
    lat0 = -90.0 + 180.0 * y / n
    return lon0, lat0, lon0 + 360.0 / n, lat0 + 180.0 / n


def cell_parent(cell: np.ndarray, parent_res: int) -> np.ndarray:
    """Ancestor cell id at a coarser resolution (hierarchy walk)."""
    res, x, y = cell_decode(cell)
    shift = res - parent_res
    if np.any(shift < 0):
        raise ValueError("parent_res coarser than cell res required")
    return (
        np.int64(parent_res) * np.int64(RES_SHIFT)
        + (y >> shift) * np.int64(Y_SHIFT)
        + (x >> shift)
    )


def k_ring(cell: np.ndarray, k: int) -> np.ndarray:
    """All cells within Chebyshev distance k of each input cell.

    Returns shape (len(cell), (2k+1)^2). x wraps around the
    antimeridian; y is clamped at the poles (duplicates possible at
    the clamp — harmless for candidate generation).
    """
    res, x, y = cell_decode(np.atleast_1d(cell))
    n = np.int64(1) << res  # per-cell grid size
    offs = np.arange(-k, k + 1, dtype=np.int64)
    dx, dy = np.meshgrid(offs, offs, indexing="ij")
    dx, dy = dx.ravel(), dy.ravel()
    nx = (x[:, None] + dx[None, :]) % n[:, None]  # wrap lon
    ny = np.clip(y[:, None] + dy[None, :], 0, (n - 1)[:, None])  # clamp lat
    return res[:, None] * np.int64(RES_SHIFT) + ny * np.int64(Y_SHIFT) + nx


# ---------------------------------------------------------------------------
# point-in-polygon (ray casting, even-odd)
# ---------------------------------------------------------------------------


def point_in_polygon(
    lon: np.ndarray, lat: np.ndarray, ring_lon: np.ndarray, ring_lat: np.ndarray
) -> np.ndarray:
    """Even-odd ray-casting PIP, vectorized over points.

    `ring_*` is the closed-or-open vertex list of one polygon (the
    closing edge is implied). Loops over edges (small), vectorizes
    over points (large). Horizontal edges contribute no crossings.
    The per-edge test mirrors :func:`pip_sql_expr` exactly so SQL
    oracles agree bit-for-bit.
    """
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    rx = np.asarray(ring_lon, dtype=np.float64)
    ry = np.asarray(ring_lat, dtype=np.float64)
    if rx[0] == rx[-1] and ry[0] == ry[-1] and len(rx) > 1:
        rx, ry = rx[:-1], ry[:-1]
    inside = np.zeros(lon.shape, dtype=bool)
    nv = len(rx)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(nv):
            x1, y1 = rx[i], ry[i]
            x2, y2 = rx[(i + 1) % nv], ry[(i + 1) % nv]
            if y1 == y2:
                continue
            cond = (y1 > lat) != (y2 > lat)
            xint = (x2 - x1) * (lat - y1) / (y2 - y1) + x1
            inside ^= cond & (lon < xint)
    return inside


def pip_sql_expr(
    ring_lon: list[float], ring_lat: list[float], lon_expr: str, lat_expr: str
) -> str:
    """SQL boolean expr: point inside polygon by the SAME ray-casting
    arithmetic as :func:`point_in_polygon` (same literals, same op
    order => identical IEEE doubles => identical verdicts)."""
    rx, ry = list(ring_lon), list(ring_lat)
    if rx[0] == rx[-1] and ry[0] == ry[-1] and len(rx) > 1:
        rx, ry = rx[:-1], ry[:-1]
    terms = []
    nv = len(rx)
    for i in range(nv):
        x1, y1 = rx[i], ry[i]
        x2, y2 = rx[(i + 1) % nv], ry[(i + 1) % nv]
        if y1 == y2:
            continue
        xint = f"(({x2!r} - {x1!r}) * (({lat_expr}) - {y1!r}) / ({y2!r} - {y1!r}) + {x1!r})"
        cond = (
            f"CASE WHEN (({y1!r} > ({lat_expr})) <> ({y2!r} > ({lat_expr})))"
            f" AND (({lon_expr}) < {xint}) THEN 1 ELSE 0 END"
        )
        terms.append(cond)
    return "((" + " + ".join(terms) + ") % 2 = 1)"


def polygon_bbox(ring_lon: np.ndarray, ring_lat: np.ndarray) -> tuple[float, float, float, float]:
    return (
        float(np.min(ring_lon)),
        float(np.min(ring_lat)),
        float(np.max(ring_lon)),
        float(np.max(ring_lat)),
    )


def bbox_cover(
    lon0: float, lat0: float, lon1: float, lat1: float, res: int
) -> np.ndarray:
    """Cell ids of every cell at `res` intersecting the bbox: the
    outer bound of a :func:`polygon_covers` cover. No antimeridian
    crossing (v0 contract — documented in FIXTURES.md §4)."""
    n = 1 << res
    x0 = int(np.clip(np.floor((lon0 + 180.0) / 360.0 * n), 0, n - 1))
    x1 = int(np.clip(np.floor((lon1 + 180.0) / 360.0 * n), 0, n - 1))
    y0 = int(np.clip(np.floor((lat0 + 90.0) / 180.0 * n), 0, n - 1))
    y1 = int(np.clip(np.floor((lat1 + 90.0) / 180.0 * n), 0, n - 1))
    xs = np.arange(x0, x1 + 1, dtype=np.int64)
    ys = np.arange(y0, y1 + 1, dtype=np.int64)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return (
        np.int64(res) * np.int64(RES_SHIFT)
        + gy.ravel() * np.int64(Y_SHIFT)
        + gx.ravel()
    )


def _segments_intersect(p1, p2, q1, q2) -> bool:
    """Scalar orientation-sign crossing test of two segments; the
    reference the tests check the vectorized kernels against."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


# A crossing this close to a grid line (in grid units) counts as on it:
# 2^(res-36) grid units is ~5e-9 degrees of longitude at every res,
# far below the 1e-7-degree coordinate quantum, and far above the
# rounding error of a crossing computed in grid units (~2^(res-50)).
_COVER_EPS_LOG2 = -36


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, k) for every integer k in [lo[i], hi[i]): the CSR expansion
    of per-row integer ranges (empty where hi <= lo)."""
    cnt = np.maximum(hi - lo, 0)
    i = np.repeat(np.arange(len(cnt), dtype=np.int64), cnt)
    k = np.arange(len(i), dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)
    return i, k


def _crossings(lo, hi, shift, a1, b1, a2, b2):
    """Where edge e, (a1, b1)-(a2, b2), meets the line a = k + shift
    for k in [lo[e], hi[e]): (edge, k, b at the crossing)."""
    e, k = _ranges(lo, hi)
    a = k + shift
    b = b1[e] + (a - a1[e]) * (b2[e] - b1[e]) / (a2[e] - a1[e])
    return e, k, b


def polygon_covers(
    ring_lon: np.ndarray, ring_lat: np.ndarray, ring_offs: np.ndarray, res: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cell cover at `res` of every ring of a flattened polygon table
    (ring i is vertices ring_offs[i]:ring_offs[i+1], closing edge
    implied; a repeated closing vertex is allowed). Returns (owner,
    cell): one row per distinct (ring, cell) pair, sorted by cell,
    then owner.

    Contract, for each ring:
    - every cell holding a point of the closed polygon, as
      :func:`cell_encode` assigns points to cells, is in the cover,
      so every cell holding an interior point is;
    - every cell in the cover meets the closed polygon up to epsilon
      (below), and lies in the polygon's :func:`bbox_cover`.

    One raster pass over all edges at once, in grid units
    (gx = (lon+180)/360 * 2^res, as :func:`cell_encode`), after
    Raptor's vector-raster join: the union of
    - endpoint cells: the cell of each vertex;
    - boundary cells: where an edge crosses or touches a vertical or
      horizontal grid line, the cells on both sides of the line. A
      crossing within epsilon = 2^(res-36) grid units (~5e-9 degrees)
      of the perpendicular grid line emits the cells on both sides of
      that line too: all four cells around a grid corner the boundary
      passes through, so rounding cannot drop one;
    - interior cells: per ring and cell row, the edges' crossings of
      the row's centre line under the half-open even-odd rule, sorted,
      and the cell centres between each pair of crossings filled.
    Cells are clipped to the ring's bbox cells, which are clipped to
    [0, 2^res - 1] as in :func:`cell_encode`.
    """
    if not 0 <= res <= MAX_RES:
        raise ValueError(f"res must be in [0, {MAX_RES}], got {res}")
    n = float(1 << res)
    eps = 2.0 ** (res + _COVER_EPS_LOG2)
    gx = ((np.asarray(ring_lon, dtype=np.float64) + 180.0) / 360.0) * n
    gy = ((np.asarray(ring_lat, dtype=np.float64) + 90.0) / 180.0) * n
    if not (np.isfinite(gx).all() and np.isfinite(gy).all()):
        raise ValueError("ring coordinates must be finite")
    offs = np.asarray(ring_offs, dtype=np.int64)
    sizes = np.diff(offs)
    owner = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    # each vertex's successor on its ring (wrap at the ring's end)
    starts = offs[:-1][sizes > 0]
    nxt = np.arange(1, len(gx) + 1, dtype=np.int64)
    nxt[offs[1:][sizes > 0] - 1] = starts
    x1, y1, x2, y2 = gx, gy, gx[nxt], gy[nxt]

    # bbox cells per ring, exactly as bbox_cover computes them
    def bbox(g):
        lo = np.zeros(len(sizes), dtype=np.int64)
        hi = np.zeros(len(sizes), dtype=np.int64)
        if len(starts):
            lo[sizes > 0] = np.clip(np.floor(np.minimum.reduceat(g, starts)), 0, n - 1)
            hi[sizes > 0] = np.clip(np.floor(np.maximum.reduceat(g, starts)), 0, n - 1)
        return lo, hi

    bx0, bx1 = bbox(gx)
    by0, by1 = bbox(gy)

    parts_o, parts_x, parts_y = [owner], [np.floor(gx)], [np.floor(gy)]

    def boundary(a1, b1, a2, b2, flip):
        # grid lines a = k with min(a) <= k <= max(a); no line is
        # crossed by an edge parallel to it
        lo = np.ceil(np.minimum(a1, a2)).astype(np.int64)
        hi = np.floor(np.maximum(a1, a2)).astype(np.int64) + 1
        hi[a1 == a2] = lo[a1 == a2]
        e, k, b = _crossings(lo, hi, 0.0, a1, b1, a2, b2)
        for da in (k - 1, k):
            for db in (np.floor(b - eps), np.floor(b + eps)):
                parts_o.append(owner[e])
                parts_x.append(db if flip else da)
                parts_y.append(da if flip else db)

    boundary(x1, y1, x2, y2, flip=False)
    boundary(y1, x1, y2, x2, flip=True)
    # interior: row j's centre line is y = j + 0.5; a vertex lies
    # above it iff j < t = ceil(y - 0.5). Deciding per vertex keeps the
    # crossing count of every (ring, row) even, whatever the rounding.
    t = np.ceil(gy - 0.5).astype(np.int64)
    t2 = t[nxt]
    e, j, xc = _crossings(np.minimum(t, t2), np.maximum(t, t2), 0.5, y1, x1, y2, x2)
    order = np.lexsort((xc, j, owner[e]))
    e, j, xc = e[order], j[order], xc[order]
    # consecutive crossings pair up within a (ring, row): fill the cell
    # centres i + 0.5 in [left, right)
    r, i = _ranges(np.ceil(xc[0::2] - 0.5).astype(np.int64),
                   np.ceil(xc[1::2] - 0.5).astype(np.int64))
    parts_o.append(owner[e[0::2]][r])
    parts_x.append(i)
    parts_y.append(j[0::2][r])

    own = np.concatenate(parts_o)
    x = np.clip(np.concatenate(parts_x), bx0[own], bx1[own]).astype(np.int64)
    y = np.clip(np.concatenate(parts_y), by0[own], by1[own]).astype(np.int64)
    # dedupe on one int64 key: the cell's rank among distinct cells,
    # then the owner
    cells, rank = np.unique(
        np.int64(res) * np.int64(RES_SHIFT) + y * np.int64(Y_SHIFT) + x,
        return_inverse=True,
    )
    nr = max(len(sizes), 1)
    key = np.unique(rank * nr + own)
    return key % nr, cells[key // nr]


def polygon_cover(ring_lon: np.ndarray, ring_lat: np.ndarray, res: int) -> np.ndarray:
    """Sorted cells at `res` covering one polygon ring: the one-ring
    case of :func:`polygon_covers`, with the same contract (every cell
    holding a point of the closed polygon; only cells meeting it, up
    to epsilon, within its bbox cover) — a safe prefilter for the
    exact :func:`point_in_polygon` refine."""
    rx = np.asarray(ring_lon, dtype=np.float64)
    _, cells = polygon_covers(rx, ring_lat, np.array([0, len(rx)]), res)
    return cells


# ---------------------------------------------------------------------------
# multipolygon ring assembly (OSM semantics: a multipolygon relation's
# outer boundary is stitched from member WAYS whose endpoints chain;
# ways may appear in either direction — osm2rdf does this assembly
# when the reference delegates area geometry to it,
# `/root/reference/src/osm/Osm2ttl.cpp:38-109`, area tracking
# `src/osm/OsmChangeHandler.cpp:166-197`)
# ---------------------------------------------------------------------------


def assemble_rings(
    segments: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stitch way segments into closed rings.

    `segments`: per member way, (node_ids, lon, lat) arrays in way
    order. Matching is by NODE ID (exact), not coordinates; a segment
    is appended forward or reversed depending on which endpoint meets
    the growing ring's tail. Closed ways (first id == last id) are
    rings on their own. Unclosable chains (broken geometry in the
    diff window) are dropped — the caller decides whether that is an
    error; OSM data routinely contains them mid-edit.

    Returns a list of (lon, lat) closed rings (first vertex NOT
    repeated at the end — the implied-closing-edge convention of
    :func:`point_in_polygon` / :func:`polygon_cover`)."""
    open_segs = [
        (np.asarray(i), np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
        for i, x, y in segments
        if len(i) >= 2
    ]
    rings: list[tuple[np.ndarray, np.ndarray]] = []
    while open_segs:
        ids, lon, lat = open_segs.pop(0)
        while ids[0] != ids[-1]:
            hit = None
            for j, (si, sx, sy) in enumerate(open_segs):
                if si[0] == ids[-1]:
                    hit = (j, si[1:], sx[1:], sy[1:])
                    break
                if si[-1] == ids[-1]:
                    hit = (j, si[::-1][1:], sx[::-1][1:], sy[::-1][1:])
                    break
            if hit is None:
                break  # unclosable chain — dropped below
            j, ai, ax, ay = hit
            open_segs.pop(j)
            ids = np.concatenate([ids, ai])
            lon = np.concatenate([lon, ax])
            lat = np.concatenate([lat, ay])
        if ids[0] == ids[-1] and len(ids) >= 4:
            rings.append((lon[:-1], lat[:-1]))
    return rings


# ---------------------------------------------------------------------------
# derived geometry: convex hull + minimum-area oriented bounding box
# (osm2rdf emits `convex_hull`, `envelope` and `obb` per element,
# `/root/reference/tests/data/node.ttl:33-37`; envelope lives in the
# update path's segmented min/max — these two cover the rest)
# ---------------------------------------------------------------------------


def convex_hull(lon: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convex hull via Andrew's monotone chain, CCW, first vertex not
    repeated. Degenerate inputs (<=2 distinct points, collinear sets)
    return the distinct extreme points. The per-point loop is fine at
    this call's granularity: one ELEMENT's members (a way/relation has
    tens to thousands of points), never a corpus."""
    pts = np.unique(np.stack([np.asarray(lon, np.float64),
                              np.asarray(lat, np.float64)], axis=1), axis=0)
    if len(pts) <= 2:
        return pts[:, 0], pts[:, 1]

    def chain(pp):
        h: list[np.ndarray] = []
        for p in pp:
            while len(h) >= 2 and np.cross(h[-1] - h[-2], p - h[-2]) <= 0:
                h.pop()
            h.append(p)
        return h[:-1]

    hull = np.array(chain(pts) + chain(pts[::-1]))
    return hull[:, 0], hull[:, 1]


def min_area_obb(lon: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-area oriented bounding box (planar, on lon/lat degrees
    like osm2rdf's): rotating-calipers over hull edge angles, all
    angles evaluated in ONE vectorized rotate/minmax. Returns the 4
    corners CCW (degenerate inputs collapse corners). Ties on area
    break toward the smallest angle so the result is deterministic."""
    hx, hy = convex_hull(lon, lat)
    if len(hx) == 1:
        return np.repeat(hx, 4), np.repeat(hy, 4)
    if len(hx) == 2:
        return hx[[0, 1, 1, 0]], hy[[0, 1, 1, 0]]
    pts = np.stack([hx, hy], axis=1)
    edges = np.diff(pts, axis=0, append=pts[:1])
    ang = np.unique(np.mod(np.arctan2(edges[:, 1], edges[:, 0]), np.pi / 2))
    cos, sin = np.cos(ang), np.sin(ang)
    # rotate points by -ang for every candidate angle at once: (k, n)
    rx = cos[:, None] * pts[:, 0] + sin[:, None] * pts[:, 1]
    ry = -sin[:, None] * pts[:, 0] + cos[:, None] * pts[:, 1]
    x0, x1 = rx.min(axis=1), rx.max(axis=1)
    y0, y1 = ry.min(axis=1), ry.max(axis=1)
    k = int(np.argmin((x1 - x0) * (y1 - y0)))
    cx = np.array([x0[k], x1[k], x1[k], x0[k]])
    cy = np.array([y0[k], y0[k], y1[k], y1[k]])
    return cos[k] * cx - sin[k] * cy, sin[k] * cx + cos[k] * cy


# ---------------------------------------------------------------------------
# haversine
# ---------------------------------------------------------------------------


def haversine_m(
    lon1: np.ndarray, lat1: np.ndarray, lon2: np.ndarray, lat2: np.ndarray
) -> np.ndarray:
    """Great-circle distance in meters. Mirrors :func:`haversine_sql`
    op-for-op (same formula/order) so rounded values match DuckDB."""
    rlat1 = np.radians(np.asarray(lat1, dtype=np.float64))
    rlat2 = np.radians(np.asarray(lat2, dtype=np.float64))
    dlat = np.radians(np.asarray(lat2, dtype=np.float64) - np.asarray(lat1, dtype=np.float64))
    dlon = np.radians(np.asarray(lon2, dtype=np.float64) - np.asarray(lon1, dtype=np.float64))
    s1 = np.sin(dlat / 2.0)
    s2 = np.sin(dlon / 2.0)
    a = s1 * s1 + np.cos(rlat1) * np.cos(rlat2) * (s2 * s2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(a, 1.0)))


def haversine_sql(lon1: str, lat1: str, lon2: str, lat2: str) -> str:
    """SQL expression for :func:`haversine_m` (meters)."""
    s1 = f"sin(radians(({lat2}) - ({lat1})) / 2.0)"
    s2 = f"sin(radians(({lon2}) - ({lon1})) / 2.0)"
    return (
        f"(2.0 * {EARTH_RADIUS_M!r} * asin(sqrt(LEAST("
        f"{s1} * {s1}"
        f" + cos(radians({lat1})) * cos(radians({lat2}))"
        f" * ({s2} * {s2}), 1.0))))"
    )


def morton_code(cell: np.ndarray) -> np.ndarray:
    """Z-order (Morton) code of each cell: x bits on even positions,
    y bits on odd. Sorting output by this code clusters spatially
    adjacent cells into the same Parquet row groups / blocks — the
    standard locality layout for tiled range scans (the reference
    stores per-element geometry unordered and pays a full scan per
    region query; a z-ordered sink answers it with block pruning).
    Mirrors :func:`morton_sql` op-for-op. Mixed resolutions are fine
    (higher bits beyond a cell's res are zero)."""
    res, x, y = cell_decode(cell)
    code = np.zeros_like(x)
    rmax = int(res.max()) if len(np.atleast_1d(res)) else 0
    for i in range(rmax):
        code |= (((x >> i) & 1) << (2 * i)) | (((y >> i) & 1) << (2 * i + 1))
    return code


def morton_sql(x_expr: str, y_expr: str, res: int) -> str:
    """SQL expression computing exactly :func:`morton_code` from x/y
    grid-coordinate expressions (keep them simple column refs — the
    expression repeats them 2*res times)."""
    terms = [
        f"((({x_expr} >> {i}) & 1) * {1 << (2 * i)})"
        f" + ((({y_expr} >> {i}) & 1) * {1 << (2 * i + 1)})"
        for i in range(res)
    ]
    return "(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# geometry simplification (per-zoom detail reduction before tile cover)
# ---------------------------------------------------------------------------


def simplify_ring(lon: np.ndarray, lat: np.ndarray,
                  eps_deg: float) -> np.ndarray:
    """Douglas-Peucker polyline simplification: boolean keep-mask over
    the vertices; every dropped vertex lies within `eps_deg`
    (perpendicular, planar degrees) of the simplified chain, and the
    two endpoints always survive. The classic tiling use: shed vertex
    detail below a zoom level's cell size before `polygon_cover` /
    tile materialization (eps ≈ cell width at that zoom).

    Iterative stack (no recursion-depth limit); the distance kernel is
    vectorized over each segment's span — per-ring work is
    O(n log n)-ish with numpy inner loops only."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    n = len(lon)
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    keep[0] = keep[-1] = True
    if n <= 2:
        return keep
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        ax, ay, bx, by = lon[a], lat[a], lon[b], lat[b]
        sx, sy = bx - ax, by - ay
        seg2 = sx * sx + sy * sy
        px = lon[a + 1 : b] - ax
        py = lat[a + 1 : b] - ay
        if seg2 == 0.0:
            d2 = px * px + py * py
        else:
            t = np.clip((px * sx + py * sy) / seg2, 0.0, 1.0)
            dx = px - t * sx
            dy = py - t * sy
            d2 = dx * dx + dy * dy
        i = int(np.argmax(d2))
        if d2[i] > eps_deg * eps_deg:
            m = a + 1 + i
            keep[m] = True
            stack.append((a, m))
            stack.append((m, b))
    return keep


# ---------------------------------------------------------------------------
# segment x polygon-boundary crossing (vector trajectory vs area)
# ---------------------------------------------------------------------------


def segments_cross_ring(
    x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray,
    ring_lon, ring_lat,
) -> np.ndarray:
    """True where segment (x1,y1)-(x2,y2) PROPERLY crosses any edge of
    the ring (closing edge implied; strict orientation-sign test, so
    vertex-touch / collinear-overlap do not count — measure-zero on
    float data). Loops over edges (small), vectorizes over segments
    (large); mirrors :func:`seg_cross_sql_expr` op-for-op so SQL
    oracles agree bit-for-bit."""
    x1 = np.asarray(x1, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    y2 = np.asarray(y2, dtype=np.float64)
    rx = np.asarray(ring_lon, dtype=np.float64)
    ry = np.asarray(ring_lat, dtype=np.float64)
    if rx[0] == rx[-1] and ry[0] == ry[-1] and len(rx) > 1:
        rx, ry = rx[:-1], ry[:-1]
    out = np.zeros(x1.shape, dtype=bool)
    nv = len(rx)
    for i in range(nv):
        ax, ay = rx[i], ry[i]
        bx, by = rx[(i + 1) % nv], ry[(i + 1) % nv]
        d1 = (bx - ax) * (y1 - ay) - (by - ay) * (x1 - ax)
        d2 = (bx - ax) * (y2 - ay) - (by - ay) * (x2 - ax)
        d3 = (x2 - x1) * (ay - y1) - (y2 - y1) * (ax - x1)
        d4 = (x2 - x1) * (by - y1) - (y2 - y1) * (bx - x1)
        out |= ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    return out


def seg_cross_sql_expr(
    ring_lon, ring_lat,
    x1: str, y1: str, x2: str, y2: str,
) -> str:
    """SQL boolean expr computing exactly :func:`segments_cross_ring`
    (same literals, same op order => identical IEEE doubles)."""
    rx, ry = list(ring_lon), list(ring_lat)
    if rx[0] == rx[-1] and ry[0] == ry[-1] and len(rx) > 1:
        rx, ry = rx[:-1], ry[:-1]
    terms = []
    nv = len(rx)
    for i in range(nv):
        ax, ay = rx[i], ry[i]
        bx, by = rx[(i + 1) % nv], ry[(i + 1) % nv]
        d1 = f"(({bx!r} - {ax!r}) * (({y1}) - {ay!r}) - ({by!r} - {ay!r}) * (({x1}) - {ax!r}))"
        d2 = f"(({bx!r} - {ax!r}) * (({y2}) - {ay!r}) - ({by!r} - {ay!r}) * (({x2}) - {ax!r}))"
        d3 = f"((({x2}) - ({x1})) * ({ay!r} - ({y1})) - (({y2}) - ({y1})) * ({ax!r} - ({x1})))"
        d4 = f"((({x2}) - ({x1})) * ({by!r} - ({y1})) - (({y2}) - ({y1})) * ({bx!r} - ({x1})))"
        terms.append(
            f"((({d1} > 0) <> ({d2} > 0)) AND (({d3} > 0) <> ({d4} > 0)))"
        )
    return "(" + " OR ".join(terms) + ")"


# ---------------------------------------------------------------------------
# Hilbert space-filling curve (xy -> d), SQL-reproducible
# ---------------------------------------------------------------------------

def hilbert_encode(gx: np.ndarray, gy: np.ndarray, order: int = 8) -> np.ndarray:
    """Hilbert-curve index d of grid cells (gx, gy) in a 2^order x
    2^order grid — the locality-preserving alternative to the
    Z-order (`zorder_cells`): consecutive d values are ALWAYS
    edge-adjacent cells (Z-order jumps at quadrant seams), which is
    why Hilbert keys shrink the range-query tile spread at scale.

    Canonical bit-twiddling transform (Wikipedia "Hilbert curve",
    public domain C): per bit-plane s, accumulate the quadrant digit
    (3*rx) XOR ry and rotate/flip the frame. Pure int64 numpy, no
    loop over rows (the loop is over `order` bit planes);
    :func:`hilbert_encode_sql` unrolls the identical steps so DuckDB
    reproduces it bit-for-bit."""
    n = 1 << order
    x = np.asarray(gx, dtype=np.int64).copy()
    y = np.asarray(gy, dtype=np.int64).copy()
    d = np.zeros_like(x)
    s = n >> 1
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        flip = (ry == 0) & (rx == 1)
        xf = np.where(flip, (n - 1) - x, x)
        yf = np.where(flip, (n - 1) - y, y)
        swap = ry == 0
        x, y = np.where(swap, yf, xf), np.where(swap, xf, yf)
        s >>= 1
    return d


def hilbert_encode_sql(gx_expr: str, gy_expr: str, order: int = 8,
                       key_col: str = "c_custkey",
                       src: str = "customer") -> str:
    """CTE chain computing exactly :func:`hilbert_encode` — one
    rotate/flip step per bit plane, unrolled (integer CASE arithmetic
    only, no floats). Returns a query with columns
    (key_col, gx, gy, hd)."""
    n = 1 << order
    parts = [
        f"p{n} AS (SELECT {key_col}, ({gx_expr})::BIGINT AS gx,"
        f" ({gy_expr})::BIGINT AS gy, ({gx_expr})::BIGINT AS x,"
        f" ({gy_expr})::BIGINT AS y, 0::BIGINT AS d FROM {src})"
    ]
    s = n >> 1
    prev = n
    while s > 0:
        rx = f"(CASE WHEN (x & {s}) > 0 THEN 1 ELSE 0 END)"
        ry = f"(CASE WHEN (y & {s}) > 0 THEN 1 ELSE 0 END)"
        parts.append(
            f"r{s} AS (SELECT {key_col}, gx, gy, x, y, d,"
            f" {rx} AS rx, {ry} AS ry FROM p{prev})"
        )
        digit = ("(CASE WHEN rx = 0 AND ry = 0 THEN 0"
                 " WHEN rx = 0 THEN 1 WHEN ry = 0 THEN 3 ELSE 2 END)")
        newx = (f"(CASE WHEN ry = 1 THEN x WHEN rx = 1"
                f" THEN {n - 1} - y ELSE y END)")
        newy = (f"(CASE WHEN ry = 1 THEN y WHEN rx = 1"
                f" THEN {n - 1} - x ELSE x END)")
        parts.append(
            f"p{s} AS (SELECT {key_col}, gx, gy, {newx} AS x,"
            f" {newy} AS y, d + {s * s} * {digit} AS d FROM r{s})"
        )
        prev = s
        s >>= 1
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT {key_col}, gx, gy, d AS hd FROM p{prev}")
