"""Geometry kernels vs brute force + DuckDB SQL-parity.

Mirrors the reference's pure-function unit-test layer
(`/root/reference/tests/sparql/QueryWriter.cpp:25-189` exact-string
tests -> here exact-value SQL-parity tests)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from oluray.functions import geo
from oluray.sources import fixtures


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute("create table t as select unnest(range(1, 20001)) as k")
    return c


def test_derive_lonlat_sql_parity(con):
    keys = np.arange(1, 20001, dtype=np.int64)
    lon, lat = geo.derive_lonlat(keys)
    assert lon.min() >= -180 and lon.max() < 180
    assert lat.min() >= -85 and lat.max() < 85
    ls, bs = geo.derive_lonlat_sql("k")
    r = con.sql(f"select {ls} lon, {bs} lat from t order by k").fetchnumpy()
    np.testing.assert_array_equal(r["lon"], lon)
    np.testing.assert_array_equal(r["lat"], lat)


def test_cell_encode_sql_parity(con):
    keys = np.arange(1, 20001, dtype=np.int64)
    lon, lat = geo.derive_lonlat(keys)
    for res in (0, 6, 12, 20):
        cells = geo.cell_encode(lon, lat, res)
        ls, bs = geo.derive_lonlat_sql("k")
        r = con.sql(
            f"select {geo.cell_encode_sql(ls, bs, res)} c from t order by k"
        ).fetchnumpy()
        np.testing.assert_array_equal(r["c"], cells)


def test_cell_roundtrip_and_hierarchy():
    lon = np.array([-179.9, -1.0, 0.0, 13.37, 179.9])
    lat = np.array([-84.9, -0.5, 0.0, 52.52, 84.9])
    cells = geo.cell_encode(lon, lat, 14)
    res, x, y = geo.cell_decode(cells)
    assert (res == 14).all()
    lo0, la0, lo1, la1 = geo.cell_bounds(cells)
    assert ((lo0 <= lon) & (lon < lo1)).all()
    assert ((la0 <= lat) & (lat < la1)).all()
    parents = geo.cell_parent(cells, 8)
    plo0, pla0, plo1, pla1 = geo.cell_bounds(parents)
    assert ((plo0 <= lon) & (lon < plo1)).all()
    # parent of parent == direct coarse encode
    np.testing.assert_array_equal(parents, geo.cell_encode(lon, lat, 8))


def test_k_ring_wraps_and_clamps():
    # cell at x=0: ring must wrap to x = n-1
    c = geo.cell_encode(np.array([-180.0 + 1e-9]), np.array([0.0]), 4)
    ring = geo.k_ring(c, 1)
    res, x, y = geo.cell_decode(ring[0])
    assert 15 in x.tolist() and 0 in x.tolist()
    # polar clamp keeps y in range
    c2 = geo.cell_encode(np.array([0.0]), np.array([89.99]), 4)
    _, _, y2 = geo.cell_decode(geo.k_ring(c2, 2)[0])
    assert y2.max() == 15


def test_pip_matches_sql_and_bruteforce(con):
    keys = np.arange(1, 20001, dtype=np.int64)
    lon, lat = geo.derive_lonlat(keys)
    polys = fixtures.make_change_polys(5, 42)
    ls, bs = geo.derive_lonlat_sql("k")
    total_hits = 0
    for row in polys.to_pylist():
        rx = [v["lon"] for v in row["ring"]]
        ry = [v["lat"] for v in row["ring"]]
        ins = geo.point_in_polygon(lon, lat, np.array(rx), np.array(ry))
        total_hits += int(ins.sum())
        expr = geo.pip_sql_expr(rx, ry, ls, bs)
        r = con.sql(f"select {expr} i from t order by k").fetchnumpy()["i"]
        np.testing.assert_array_equal(r, ins)
    assert total_hits > 0, "fixture polygons must contain some points"


def test_pip_concave():
    # concave "U" polygon: points in the notch are OUTSIDE
    rx = np.array([0.0, 10.0, 10.0, 7.0, 7.0, 3.0, 3.0, 0.0])
    ry = np.array([0.1, 0.2, 10.1, 10.2, 3.1, 3.2, 10.3, 10.4])
    assert geo.point_in_polygon(np.array([5.0]), np.array([8.0]), rx, ry)[0] == False  # noqa: E712
    assert geo.point_in_polygon(np.array([5.0]), np.array([1.5]), rx, ry)[0] == True  # noqa: E712
    assert geo.point_in_polygon(np.array([1.5]), np.array([8.0]), rx, ry)[0] == True  # noqa: E712


def test_polygon_cover_superset():
    polys = fixtures.make_change_polys(6, 7)
    rng = np.random.default_rng(0)
    lon = rng.uniform(-179, 179, 20000)
    lat = rng.uniform(-84, 84, 20000)
    for row in polys.to_pylist():
        rx = np.array([v["lon"] for v in row["ring"]])
        ry = np.array([v["lat"] for v in row["ring"]])
        ins = geo.point_in_polygon(lon, lat, rx, ry)
        for res in (4, 7):
            cover = set(geo.polygon_cover(rx, ry, res).tolist())
            pcells = geo.cell_encode(lon[ins], lat[ins], res)
            assert set(pcells.tolist()) <= cover


def oracle_cover(ring_lon, ring_lat, res):
    """Per-cell cover refine, the body `geo.polygon_cover` had before
    its raster kernel (minus its shortcut that returned a bbox of at
    most 4 cells whole): a bbox cell is kept if one of its corners is
    inside the polygon, a vertex is in it, or an edge crosses one of
    its sides."""
    rx = np.asarray(ring_lon, dtype=np.float64)
    ry = np.asarray(ring_lat, dtype=np.float64)
    cells = geo.bbox_cover(*geo.polygon_bbox(rx, ry), res)
    lon0, lat0, lon1, lat1 = geo.cell_bounds(cells)
    keep = np.zeros(len(cells), dtype=bool)
    for cx, cy in ((lon0, lat0), (lon0, lat1), (lon1, lat0), (lon1, lat1)):
        keep |= geo.point_in_polygon(cx, cy, rx, ry)
    for vx, vy in zip(rx, ry):
        keep |= (lon0 <= vx) & (vx < lon1) & (lat0 <= vy) & (vy < lat1)
    nv = len(rx)
    for idx in np.nonzero(~keep)[0]:
        corners = [(lon0[idx], lat0[idx]), (lon1[idx], lat0[idx]),
                   (lon1[idx], lat1[idx]), (lon0[idx], lat1[idx])]
        keep[idx] = any(
            geo._segments_intersect((rx[i], ry[i]), (rx[(i + 1) % nv], ry[(i + 1) % nv]),
                                    corners[j], corners[(j + 1) % 4])
            for i in range(nv) for j in range(4)
        )
    return np.sort(cells[keep])


def _grid_lon(k, res):
    return -180.0 + 360.0 * k / (1 << res)


def _grid_lat(k, res):
    return -90.0 + 180.0 * k / (1 << res)


def _cover_shapes(res, rng):
    """(name, lon, lat) rings: random convex and concave, slivers,
    edges on grid lines, vertices on cell corners, one-cell polygons,
    closed rings and polygons clamped at the grid's edges."""
    shapes = []
    for i in range(12):
        k = int(rng.integers(3, 9))
        ang = np.sort(rng.uniform(0, 2 * np.pi, k))
        rad = rng.uniform(0.3, 1.0, k) * rng.uniform(0.5, 25.0)
        if i % 3 == 1:  # concave star
            rad = np.where(np.arange(k) % 2 == 0, rad, rad * 0.35)
        cx, cy = rng.uniform(-150, 150), rng.uniform(-60, 60)
        shapes.append((f"random{i}", cx + rad * np.cos(ang), cy + rad * np.sin(ang)))
    a, b = rng.uniform(-40, 40, 2), rng.uniform(-40, 40, 2)
    shapes.append(("sliver", np.array([a[0], b[0], b[0] + 1e-7]),
                   np.array([a[1], b[1], b[1] + 1e-7])))
    shapes.append(("flat sliver", np.array([a[0], b[0], b[0]]),
                   np.array([a[1], a[1], a[1] + 1e-9])))
    k0 = 1 + int(rng.integers(0, 2))
    k1 = k0 + 2 + int(rng.integers(0, 3))
    gx = [_grid_lon(k + (1 << res) // 2, res) for k in (k0, k1)]
    gy = [_grid_lat(k + (1 << res) // 2, res) for k in (k0, k1)]
    shapes.append(("square on grid lines",
                   np.array([gx[0], gx[1], gx[1], gx[0]]),
                   np.array([gy[0], gy[0], gy[1], gy[1]])))
    shapes.append(("triangle on cell corners",
                   np.array([gx[0], gx[1], gx[0]]),
                   np.array([gy[0], gy[1], gy[1]])))
    mid = _grid_lon((1 << res) // 2 + k0 + 0.5, res), _grid_lat((1 << res) // 2 + k0 + 0.5, res)
    d = 0.1 * 180.0 / (1 << res)
    shapes.append(("inside one cell", mid[0] + np.array([-d, d, 0.0]),
                   mid[1] + np.array([-d, -d, d])))
    shapes.append(("closed ring", np.array([10.0, 30.0, 25.0, 10.0]),
                   np.array([-5.0, 2.0, 20.0, -5.0])))
    shapes.append(("clamped east/north", np.array([170.0, 180.0, 180.0, 165.0]),
                   np.array([80.0, 75.0, 90.0, 90.0])))
    shapes.append(("clamped west/south", np.array([-180.0, -170.0, -175.0, -180.0]),
                   np.array([-90.0, -90.0, -80.0, -70.0])))
    return shapes


def test_polygon_cover_contract_and_oracle():
    """`polygon_cover` holds the cell of every point of the closed
    polygon (interior samples, vertices, points along edges), stays in
    the bbox cover, and equals the per-cell oracle on fixture
    polygons."""
    rng = np.random.default_rng(17)
    for res in range(4, 11):
        for name, rx, ry in _cover_shapes(res, rng):
            cover = set(geo.polygon_cover(rx, ry, res).tolist())
            x0, y0, x1, y1 = geo.polygon_bbox(rx, ry)
            lon = rng.uniform(x0, x1, 4000)
            lat = rng.uniform(y0, y1, 4000)
            ins = geo.point_in_polygon(lon, lat, rx, ry)
            t = rng.uniform(0, 1, (len(rx), 8))
            ex = rx[:, None] + t * (np.roll(rx, -1)[:, None] - rx[:, None])
            ey = ry[:, None] + t * (np.roll(ry, -1)[:, None] - ry[:, None])
            pts = (np.r_[lon[ins], rx, ex.ravel()], np.r_[lat[ins], ry, ey.ravel()])
            need = set(geo.cell_encode(*pts, res).tolist())
            assert need <= cover, (res, name, need - cover)
            assert cover <= set(geo.bbox_cover(x0, y0, x1, y1, res).tolist()), (res, name)
    for seed in (1, 2, 3):
        for span in (10.0, 20.0):
            polys = fixtures.make_change_polys(12, seed, span_deg=span)
            for row in polys.to_pylist():
                rx = np.array([v["lon"] for v in row["ring"]])
                ry = np.array([v["lat"] for v in row["ring"]])
                for res in (4, 6, 8):
                    np.testing.assert_array_equal(
                        geo.polygon_cover(rx, ry, res), oracle_cover(rx, ry, res),
                        err_msg=f"seed {seed} span {span} poly {row['poly_id']} res {res}")


def test_polygon_cover_grid_corners():
    """The epsilon rule: where the boundary meets a grid corner (a
    vertex on it, or an edge through it), all four cells around the
    corner are in the cover, as far as they lie in the bbox cover —
    whichever way degrees-to-grid rounding falls."""
    rng = np.random.default_rng(23)
    for res in range(4, 11):
        n = 1 << res
        for _ in range(6):
            d = int(rng.integers(2, 6))
            a = int(rng.integers(0, n - d))
            b = int(rng.integers(0, n - d))
            for tri in (((0, 0), (d, d), (0, d)), ((0, 0), (d, 0), (d, d)),
                        ((0, d), (d, 0), (d, d)), ((0, 0), (d, 0), (0, d))):
                ix = np.array([a + p[0] for p in tri])
                iy = np.array([b + p[1] for p in tri])
                rx, ry = _grid_lon(ix, res), _grid_lat(iy, res)
                cover = set(geo.polygon_cover(rx, ry, res).tolist())
                bbox = set(geo.bbox_cover(*geo.polygon_bbox(rx, ry), res).tolist())
                for i in range(a, a + d + 1):
                    for j in range(b, b + d + 1):
                        on_edge = any(
                            (ix[(e + 1) % 3] - ix[e]) * (j - iy[e])
                            == (iy[(e + 1) % 3] - iy[e]) * (i - ix[e])
                            for e in range(3)
                        )
                        if not on_edge:
                            continue
                        around = {res * geo.RES_SHIFT + y * geo.Y_SHIFT + x
                                  for x in (i - 1, i) for y in (j - 1, j)}
                        assert around & bbox <= cover, (res, tri, a, b, i, j)


def test_polygon_covers_table_and_degenerate_rings():
    """The table kernel equals the one-ring cover per ring, pairs sorted
    by (cell, ring); an empty ring covers nothing; a non-finite
    coordinate is rejected."""
    polys = fixtures.make_change_polys(9, 5)
    rings = [(np.array([v["lon"] for v in r]), np.array([v["lat"] for v in r]))
             for r in polys["ring"].to_pylist()]
    rings.insert(2, (np.array([]), np.array([])))  # an empty ring
    lon = np.concatenate([r[0] for r in rings])
    lat = np.concatenate([r[1] for r in rings])
    offs = np.r_[0, np.cumsum([len(r[0]) for r in rings])]
    owner, cells = geo.polygon_covers(lon, lat, offs, 7)
    assert (np.diff(cells) >= 0).all()
    same = cells[1:] == cells[:-1]
    assert (np.diff(owner)[same] > 0).all()
    for i, (rx, ry) in enumerate(rings):
        want = geo.polygon_cover(rx, ry, 7) if len(rx) else np.array([], np.int64)
        np.testing.assert_array_equal(cells[owner == i], want)
    with pytest.raises(ValueError, match="finite"):
        geo.polygon_cover(np.array([0.0, 1.0, np.nan]), np.array([0.0, 0.0, 1.0]), 7)


def test_area_cells_matches_oracle_cover():
    """`update.area_cells` on the square multipolygon (two outer ways,
    one reversed) gives the oracle cover of the stitched ring."""
    from oluray.pipelines import update

    coords = {101: (10.0, 10.0), 102: (20.0, 10.0), 103: (20.0, 20.0),
              104: (10.0, 20.0)}
    rows = [(71, pos, nid, pos_r, *coords[nid])
            for pos, way in enumerate(([101, 102, 103], [101, 104, 103]))
            for pos_r, nid in enumerate(way)]
    df = pd.DataFrame(rows, columns=["rel_id", "pos", "node_id", "pos_r", "lon", "lat"])
    for res in (6, 8):
        got = update.area_cells(df, res)
        want = oracle_cover([10.0, 20.0, 20.0, 10.0], [10.0, 10.0, 20.0, 20.0], res)
        assert set(zip(got["rel_id"], got["ring_id"], got["cell"])) == \
            {(71, 0, c) for c in want.tolist()}


def test_haversine_known_values_and_sql(con):
    # quarter circumference: equator to pole
    d = geo.haversine_m(np.array([0.0]), np.array([0.0]), np.array([0.0]), np.array([90.0]))
    assert abs(d[0] - np.pi * geo.EARTH_RADIUS_M / 2) < 1.0
    keys = np.arange(1, 20001, dtype=np.int64)
    lon, lat = geo.derive_lonlat(keys)
    hn = geo.haversine_m(np.full_like(lon, 8.0), np.full_like(lat, 47.0), lon, lat)
    ls, bs = geo.derive_lonlat_sql("k")
    r = con.sql(
        f"select {geo.haversine_sql('8.0', '47.0', ls, bs)} d from t order by k"
    ).fetchnumpy()["d"]
    np.testing.assert_array_equal(np.round(r, 3), np.round(hn, 3))


def test_assemble_rings():
    # two open ways forming one square, second chained tail-to-tail
    segs = [
        (np.array([1, 2, 3]), np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0])),
        (np.array([1, 4, 3]), np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])),
    ]
    rings = geo.assemble_rings(segs)
    assert len(rings) == 1
    rx, ry = rings[0]
    assert len(rx) == 4  # closing vertex not repeated
    assert set(zip(rx, ry)) == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
    # an already-closed way is its own ring
    closed = [(np.array([7, 8, 9, 7]), np.array([0.0, 1.0, 0.5, 0.0]),
               np.array([0.0, 0.0, 1.0, 0.0]))]
    assert len(geo.assemble_rings(closed)) == 1
    # unclosable chain is dropped, not mis-stitched
    broken = [(np.array([1, 2]), np.array([0.0, 1.0]), np.array([0.0, 0.0]))]
    assert geo.assemble_rings(broken) == []
    # two disjoint rings come out separately
    two = [
        (np.array([7, 8, 9, 7]), np.array([0.0, 1.0, 0.5, 0.0]),
         np.array([0.0, 0.0, 1.0, 0.0])),
        (np.array([20, 21, 22, 20]), np.array([5.0, 6.0, 5.5, 5.0]),
         np.array([5.0, 5.0, 6.0, 5.0])),
    ]
    assert len(geo.assemble_rings(two)) == 2


def test_convex_hull_properties():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-10, 10, (200, 2))
    hx, hy = geo.convex_hull(pts[:, 0], pts[:, 1])
    # every input point inside or on the hull (cross-product test, CCW)
    h = np.stack([hx, hy], axis=1)
    for p in pts:
        for i in range(len(h)):
            a, b = h[i], h[(i + 1) % len(h)]
            assert np.cross(b - a, p - a) >= -1e-9
    # hull vertices are input points and strictly convex (no collinear)
    in_set = {tuple(q) for q in pts.round(12)}
    for v in h.round(12):
        assert tuple(v) in in_set
    for i in range(len(h)):
        a, b, c = h[i - 1], h[i], h[(i + 1) % len(h)]
        assert np.cross(b - a, c - b) > 0
    # degenerate: collinear and tiny inputs
    cx, cy = geo.convex_hull(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
    assert len(cx) == 2
    sx, sy = geo.convex_hull(np.array([3.0]), np.array([4.0]))
    assert (sx.tolist(), sy.tolist()) == ([3.0], [4.0])


def test_min_area_obb():
    rng = np.random.default_rng(10)
    # a rotated rectangle's OBB recovers (close to) its own area
    base = np.array([[0, 0], [4, 0], [4, 1], [0, 1]], dtype=float)
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    quad = base @ R.T + np.array([2.0, -3.0])
    ox, oy = geo.min_area_obb(quad[:, 0], quad[:, 1])
    area = 0.5 * abs(np.dot(ox, np.roll(oy, -1)) - np.dot(oy, np.roll(ox, -1)))
    assert abs(area - 4.0) < 1e-9
    # random cloud: obb contains all points and beats the axis bbox
    pts = rng.uniform(0, 5, (120, 2)) @ R.T
    ox, oy = geo.min_area_obb(pts[:, 0], pts[:, 1])
    obb = np.stack([ox, oy], axis=1)
    for p in pts:
        for i in range(4):
            a, b = obb[i], obb[(i + 1) % 4]
            assert np.cross(b - a, p - a) >= -1e-9
    oarea = 0.5 * abs(np.dot(ox, np.roll(oy, -1)) - np.dot(oy, np.roll(ox, -1)))
    barea = np.ptp(pts[:, 0]) * np.ptp(pts[:, 1])
    assert oarea <= barea + 1e-9


def test_simplify_ring_rdp():
    # collinear middle points vanish; a real corner survives
    lon = np.array([0.0, 1.0, 2.0, 3.0, 3.0])
    lat = np.array([0.0, 0.0, 0.0, 0.0, 5.0])
    keep = geo.simplify_ring(lon, lat, eps_deg=1e-9)
    assert keep.tolist() == [True, False, False, True, True]

    # error bound: every dropped vertex within eps of the kept chain
    rng = np.random.default_rng(23)
    t = np.linspace(0, 2 * np.pi, 200)
    lon2 = np.cos(t) + rng.normal(0, 0.004, 200)
    lat2 = np.sin(t) + rng.normal(0, 0.004, 200)
    eps = 0.05
    keep2 = geo.simplify_ring(lon2, lat2, eps)
    assert keep2[0] and keep2[-1]
    assert 2 < keep2.sum() < 200
    kept_idx = np.flatnonzero(keep2)
    for i in range(len(lon2)):
        if keep2[i]:
            continue
        j = np.searchsorted(kept_idx, i)
        a, b = kept_idx[j - 1], kept_idx[j]
        ax, ay, bx, by = lon2[a], lat2[a], lon2[b], lat2[b]
        sx, sy = bx - ax, by - ay
        tt = np.clip(((lon2[i] - ax) * sx + (lat2[i] - ay) * sy)
                     / max(sx * sx + sy * sy, 1e-300), 0, 1)
        d = np.hypot(lon2[i] - ax - tt * sx, lat2[i] - ay - tt * sy)
        assert d <= eps + 1e-12

    # degenerate inputs
    assert geo.simplify_ring(np.array([1.0]), np.array([2.0]), 0.1).tolist() == [True]
    assert geo.simplify_ring(np.array([]), np.array([]), 0.1).tolist() == []


def test_segments_cross_ring_cases():
    """Strict proper-crossing semantics: boundary cross true, fully
    inside/outside false, vertex-touch false; brute-force parity with
    shapely-free per-edge checks on random segments."""
    import numpy as np

    from oluray.functions import geo

    rx = np.array([0.0, 4.0, 4.0, 0.0])
    ry = np.array([0.0, 0.0, 4.0, 4.0])
    x1 = np.array([-1.0, 1.0, -2.0, -1.0, 2.0])
    y1 = np.array([2.0, 1.0, -2.0, -1.0, -1.0])
    x2 = np.array([2.0, 3.0, -1.0, 0.0, 2.0])
    y2 = np.array([2.0, 3.0, -1.0, -1.0, 5.0])
    # [crosses left edge, inside, outside, touches corner(0,0) collinear
    #  along y=-1? no: endpoint at vertex-adjacent — outside, vertical cross]
    got = geo.segments_cross_ring(x1, y1, x2, y2, rx, ry)
    assert got.tolist() == [True, False, False, False, True]

    # random brute-force parity with the scalar _segments_intersect
    rng = np.random.default_rng(3)
    sx1, sy1, sx2, sy2 = rng.uniform(-6, 8, (4, 300))
    got = geo.segments_cross_ring(sx1, sy1, sx2, sy2, rx, ry)
    ring = list(zip(rx, ry))
    for i in range(300):
        want = any(
            geo._segments_intersect(
                (sx1[i], sy1[i]), (sx2[i], sy2[i]),
                ring[j], ring[(j + 1) % 4])
            for j in range(4)
        )
        assert got[i] == want, i
