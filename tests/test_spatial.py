"""PIP join, kNN, tile cover vs brute-force oracles."""

import numpy as np
import pyarrow as pa
import ray.data

from oluray.functions import geo
from oluray.sources import fixtures
from oluray.stages import spatial


def _points(n=4000, seed=3):
    rng = np.random.default_rng(seed)
    lon = np.round(rng.uniform(-179, 179, n), 7)
    lat = np.round(rng.uniform(-84, 84, n), 7)
    ids = [f"p{i:06d}" for i in range(n)]
    return pa.table({"image_id": ids, "lon": lon, "lat": lat})


def _brute_pairs(pts: pa.Table, polys: pa.Table) -> set:
    """(image_id, poly_id) of every containment, by `point_in_polygon`
    over all points and polygons."""
    lon = pts["lon"].to_numpy()
    lat = pts["lat"].to_numpy()
    ids = pts["image_id"].to_pylist()
    expected = set()
    for row in polys.to_pylist():
        rx = np.array([v["lon"] for v in row["ring"]])
        ry = np.array([v["lat"] for v in row["ring"]])
        ins = geo.point_in_polygon(lon, lat, rx, ry)
        for i in np.nonzero(ins)[0]:
            expected.add((ids[i], row["poly_id"]))
    return expected


def test_pip_join_matches_bruteforce():
    pts = _points()
    polys = fixtures.make_change_polys(8, seed=42, span_deg=40.0)
    ds = ray.data.from_arrow(pts)
    got = spatial.pip_join(ds, polys, res=7, concurrency=2).to_pandas()
    got_pairs = set(zip(got["image_id"], got["poly_id"]))
    expected = _brute_pairs(pts, polys)
    assert got_pairs == expected
    assert len(expected) > 0
    # `concurrency` only caps the number of tasks: same rows without it
    cols = list(got.columns)
    uncapped = spatial.pip_join(ds, polys, res=7).to_pandas()
    assert (uncapped.sort_values(cols).reset_index(drop=True)
            .equals(got.sort_values(cols).reset_index(drop=True)))


def test_pip_join_empty_polygon_no_rows():
    pts = _points(500)
    polys = fixtures.make_change_polys(4, seed=42)  # poly 3 is tiny/mid-ocean
    ds = ray.data.from_arrow(pts)
    got = spatial.pip_join(ds, polys, res=7, concurrency=1).to_pandas()
    assert 3 not in set(got["poly_id"])  # empty-join tolerated (no error)


def test_polygon_index_matches_oracle_csr():
    """The raster-built index equals the CSR of per-polygon oracle
    covers (polygons in table order within a cell), with a tiny
    mid-ocean polygon among normal ones; the join rows match brute
    force at each resolution; a zero-row polygon table joins to 0
    rows."""
    from test_geo import oracle_cover

    pts = _points()
    polys = fixtures.make_change_polys(8, seed=42, span_deg=20.0)  # poly 3 is tiny
    ds = ray.data.from_arrow(pts)
    expected = _brute_pairs(pts, polys)
    assert expected
    rings = polys["ring"].to_pylist()
    for res in (5, 7, 8):
        covers = [oracle_cover([v["lon"] for v in r], [v["lat"] for v in r], res)
                  for r in rings]
        cells = np.concatenate(covers)
        owner = np.repeat(np.arange(len(covers)), [len(c) for c in covers])
        order = np.argsort(cells, kind="stable")
        want_cells, starts = np.unique(cells[order], return_index=True)
        index = spatial.PolygonIndex(polys, res)
        np.testing.assert_array_equal(index.idx_cells, want_cells)
        np.testing.assert_array_equal(index.idx_offs, np.append(starts, len(cells)))
        np.testing.assert_array_equal(index.idx_polys, owner[order])
        got = spatial.pip_join(ds, polys, res=res).to_pandas()
        assert set(zip(got["image_id"], got["poly_id"])) == expected, res
    empty = polys.slice(0, 0)
    index = spatial.PolygonIndex(empty, 8)
    assert len(index.idx_cells) == 0 and index.idx_offs.tolist() == [0]
    assert spatial.pip_join(ds, empty, res=8).count() == 0


def test_knn_bucketed_matches_bruteforce():
    rng = np.random.default_rng(11)
    nf = 300  # > brute threshold (64) => exercises the bucketed path
    fid = np.arange(nf, dtype=np.int64)
    flon = np.round(rng.uniform(-179, 179, nf), 7)
    flat_ = np.round(rng.uniform(-84, 84, nf), 7)
    pts = _points(1500, seed=5)
    ds = ray.data.from_arrow(pts)
    for k in (1, 3):
        got = (
            spatial.knn_join(ds, fid, flon, flat_, k=k, res=5)
            .to_pandas()
            .sort_values(["image_id", "rank"])
        )
        bi, bd = spatial.knn_brute(
            pts["lon"].to_numpy(), pts["lat"].to_numpy(), flon, flat_, k=k
        )
        ids = pts["image_id"].to_pylist()
        expected = {
            (ids[i], r + 1): (int(fid[bi[i, r]]), round(float(bd[i, r]), 3))
            for i in range(len(ids))
            for r in range(k)
        }
        got_map = {
            (row.image_id, row.rank): (row.feature_id, row.dist_m)
            for row in got.itertuples()
        }
        assert got_map == expected


def test_knn_index_same_in_small_chunks(monkeypatch):
    # the per-cell candidate precompute runs in memory-bounded chunks;
    # splitting it finer must not change the candidate CSR
    rng = np.random.default_rng(11)
    fid = np.arange(300, dtype=np.int64)
    flon = np.round(rng.uniform(-179, 179, 300), 7)
    flat_ = np.round(rng.uniform(-84, 84, 300), 7)
    whole = spatial.KnnIndex(fid, flon, flat_, res=5, k=3)
    chunks = spatial._chunks
    monkeypatch.setattr(spatial, "_chunks", lambda sizes: chunks(sizes, budget=64))
    split = spatial.KnnIndex(fid, flon, flat_, res=5, k=3)
    np.testing.assert_array_equal(split.pre_offs, whole.pre_offs)
    np.testing.assert_array_equal(split.pre_cands, whole.pre_cands)


def test_knn_join_reuses_index_while_features_stay(monkeypatch):
    """Two calls with the same features build the index once; moving
    one feature rebuilds it. Every result matches brute force."""
    builds = []

    class Counted(spatial.KnnIndex):
        def __init__(self, *a, **kw):
            builds.append(1)
            super().__init__(*a, **kw)

    monkeypatch.setattr(spatial, "KnnIndex", Counted)
    monkeypatch.setattr(spatial, "_KNN_MEMO", {})
    rng = np.random.default_rng(9)
    fid = np.arange(300, dtype=np.int64)
    flon = np.round(rng.uniform(-179, 179, 300), 7)
    flat_ = np.round(rng.uniform(-84, 84, 300), 7)
    pts = _points(800, seed=9)
    ds = ray.data.from_arrow(pts)

    def nearest(flon):
        got = (spatial.knn_join(ds, fid, flon, flat_, k=1, res=5)
               .to_pandas().set_index("image_id"))
        bi, bd = spatial.knn_brute(
            pts["lon"].to_numpy(), pts["lat"].to_numpy(), flon, flat_, k=1)
        for i, pid in enumerate(pts["image_id"].to_pylist()):
            assert got.loc[pid, "feature_id"] == fid[bi[i, 0]], pid
            assert got.loc[pid, "dist_m"] == round(float(bd[i, 0]), 3), pid

    nearest(flon)
    nearest(flon.copy())
    assert len(builds) == 1
    moved = flon.copy()
    moved[int(np.argmin(np.abs(moved)))] += 90.0
    nearest(moved)
    assert len(builds) == 2


def test_knn_high_latitude_exactness():
    # meridian convergence: nearest-by-meters != nearest-by-degrees
    fid = np.arange(100, dtype=np.int64)
    rng = np.random.default_rng(2)
    flon = np.round(rng.uniform(-179, 179, 100), 7)
    flat_ = np.round(rng.uniform(85, 89.9, 100), 7)  # near pole, force distortion
    pts = pa.table(
        {
            "image_id": [f"q{i}" for i in range(200)],
            "lon": np.round(rng.uniform(-179, 179, 200), 7),
            "lat": np.round(rng.uniform(84, 89.9, 200), 7),
        }
    )
    got = (
        spatial.knn_join(ray.data.from_arrow(pts), fid, flon, flat_, k=1, res=6)
        .to_pandas()
        .set_index("image_id")
    )
    bi, bd = spatial.knn_brute(pts["lon"].to_numpy(), pts["lat"].to_numpy(), flon, flat_, 1)
    for i, pid in enumerate(pts["image_id"].to_pylist()):
        assert got.loc[pid, "feature_id"] == fid[bi[i, 0]], pid


def test_tile_cover_counts():
    pts = pa.table(
        {
            "image_id": ["a", "b"],
            "lon": [0.0, 10.0],
            "lat": [0.0, 45.0],
            "w": pa.array([64, 32], pa.int32()),
            "h": pa.array([64, 32], pa.int32()),
        }
    )
    out = spatial.tile_cover(
        ray.data.from_arrow(pts), res=12, deg_per_px=1e-3
    ).to_pandas()
    # every covered cell must contain part of the bbox; the center
    # point's cell must be covered
    for row in pts.to_pylist():
        c = geo.cell_encode(np.array([row["lon"]]), np.array([row["lat"]]), 12)[0]
        cells = set(out[out["image_id"] == row["image_id"]]["cell"])
        assert c in cells
        assert len(cells) >= 1
    # 64px at 1e-3 deg/px = 0.064 deg; cell at res 12 = 0.0879 lon — 1-2 cells/axis
    assert out.groupby("image_id").size().max() <= 9


def test_add_cell_column():
    pts = _points(100)
    out = spatial.add_cell_column(ray.data.from_arrow(pts), 9).to_pandas()
    exp = geo.cell_encode(pts["lon"].to_numpy(), pts["lat"].to_numpy(), 9)
    np.testing.assert_array_equal(np.sort(out["cell"].to_numpy()), np.sort(exp))


def test_knn_k_exceeds_feature_count():
    """k larger than the feature set must clamp (min(k, n_features)
    ranks per point), not crash on mismatched column lengths."""
    import pyarrow as pa

    from oluray.stages import spatial

    pts = ray.data.from_arrow(
        pa.table(
            {"image_id": pa.array([1, 2], pa.int64()),
             "lon": pa.array([0.0, 10.0]), "lat": pa.array([0.0, 5.0])}
        )
    )
    out = spatial.knn_join(
        pts, np.array([7, 8, 9]), np.array([1.0, 2.0, 3.0]),
        np.array([1.0, 2.0, 3.0]), k=5, res=6,
    ).to_pandas()
    assert len(out) == 2 * 3  # 3 ranks per point, not 5
    assert sorted(out["rank"].unique()) == [1, 2, 3]


def test_polygons_intersect_batch_vs_brute():
    """Vectorized pairwise verdicts == per-pair loops over
    geo._segments_intersect + geo.point_in_polygon (crossing,
    nested-either-way, disjoint, shared-cell-but-disjoint cases)."""
    from oluray.sources import fixtures
    from oluray.stages import spatial as sp

    pa_ = fixtures.make_change_polys(12, seed=3)
    pb_ = fixtures.make_change_polys(12, seed=9)
    ra = pa_["ring"].combine_chunks()
    rb = pb_["ring"].combine_chunks()

    import itertools
    import pyarrow as pa

    # all 144 combinations as one aligned batch
    ia, ib = zip(*itertools.product(range(12), range(12)))
    ra_all = ra.take(pa.array(ia))
    rb_all = rb.take(pa.array(ib))
    got = sp.polygons_intersect_batch(ra_all, rb_all)

    def ring_np(r, i):
        v = r[i].as_py()
        return (np.array([p["lon"] for p in v]),
                np.array([p["lat"] for p in v]))

    exp = []
    for a, b in zip(ia, ib):
        ax, ay = ring_np(ra, a)
        bx, by = ring_np(rb, b)
        cross = False
        na, nb = len(ax), len(bx)
        for i in range(na):
            p1 = (ax[i], ay[i]); p2 = (ax[(i + 1) % na], ay[(i + 1) % na])
            for j in range(nb):
                q1 = (bx[j], by[j]); q2 = (bx[(j + 1) % nb], by[(j + 1) % nb])
                if geo._segments_intersect(p1, p2, q1, q2):
                    cross = True
                    break
            if cross:
                break
        inside = (bool(geo.point_in_polygon(ax[:1], ay[:1], bx, by)[0])
                  or bool(geo.point_in_polygon(bx[:1], by[:1], ax, ay)[0]))
        exp.append(cross or inside)
    assert got.tolist() == exp
    assert any(exp) and not all(exp)


def test_polygon_join_matches_bruteforce():
    from oluray.sources import fixtures
    from oluray.stages import spatial as sp

    import itertools
    import pyarrow as pa
    import ray.data as rd

    ta = fixtures.make_change_polys(10, seed=3)
    tb = fixtures.make_change_polys(10, seed=9)
    left = rd.from_arrow(
        pa.table({"a_id": ta["poly_id"], "ring": ta["ring"]})
    )
    right = rd.from_arrow(
        pa.table({"b_id": tb["poly_id"], "ring": tb["ring"]})
    )
    got = sp.polygon_join(left, right, res=4, num_partitions=4).to_pandas()
    gotset = set(zip(got["a_id"].astype(int), got["b_id"].astype(int)))

    ra = ta["ring"].combine_chunks()
    rb = tb["ring"].combine_chunks()
    ia, ib = zip(*itertools.product(range(10), range(10)))
    verdicts = sp.polygons_intersect_batch(
        ra.take(pa.array(ia)), rb.take(pa.array(ib))
    )
    want = {
        (int(ta["poly_id"][a].as_py()), int(tb["poly_id"][b].as_py()))
        for a, b, v in zip(ia, ib, verdicts) if v
    }
    assert gotset == want
    assert len(want) > 0


def test_cover_rows_matches_per_ring_cover():
    """`spatial.cover_rows` (polygon_join's explode, one
    `polygon_covers` call per batch) gives exactly the (polygon, cell)
    rows of the per-ring `polygon_cover` loop it replaced; rings under
    three vertices are skipped, and a sliced batch works."""
    polys = fixtures.make_change_polys(40, seed=6, span_deg=10.0)
    short = pa.table({"poly_id": pa.array([10_001, 10_002], pa.int64()),
                      "ring": pa.array([[{"lon": 1.0, "lat": 1.0}] * 2, []],
                                       polys["ring"].type)})
    t = pa.concat_tables([polys.select(["poly_id", "ring"]), short])
    for res in (4, 7):
        for batch in (t, t.slice(5, 30)):
            got = spatial.cover_rows(batch, "poly_id", "ring", res)
            want = [
                (pid, c)
                for pid, ring in zip(batch["poly_id"].to_pylist(),
                                     batch["ring"].to_pylist())
                if len(ring) >= 3
                for c in geo.polygon_cover(np.array([v["lon"] for v in ring]),
                                           np.array([v["lat"] for v in ring]),
                                           res).tolist()
            ]
            assert sorted(zip(got["poly_id"].to_pylist(),
                              got["cell"].to_pylist())) == sorted(want)
            assert got.schema.field("poly_id").type == pa.int64()
    empty = spatial.cover_rows(short, "poly_id", "ring", 5)
    assert empty.num_rows == 0 and empty.column_names == ["poly_id", "cell"]


def test_simplify_polys_stage():
    from oluray.sources import fixtures
    from oluray.stages import spatial as sp

    import pyarrow as pa
    import ray.data as rd

    t = fixtures.make_change_polys(6, seed=3)
    ds = rd.from_arrow(pa.table({"poly_id": t["poly_id"], "ring": t["ring"]}))
    out = sp.simplify_polys(ds, eps_deg=0.5).to_pandas()
    orig = t["ring"].combine_chunks()
    assert len(out) == 6
    for i, r in enumerate(out.sort_values("poly_id")["ring"]):
        n_orig = len(orig[i])
        assert 2 <= len(r) <= n_orig  # never grows, endpoints kept
    # with tiny eps nothing is dropped
    out2 = sp.simplify_polys(ds, eps_deg=1e-12).to_pandas()
    for i, r in enumerate(out2.sort_values("poly_id")["ring"]):
        assert len(r) == len(orig[i])


def test_distance_self_join_brute():
    """distance_self_join == brute-force all-pairs haversine, incl.
    antimeridian-straddling and near-pole points and a dense cluster
    (same-cell + cross-cell pairs)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from oluray.functions import geo
    from oluray.stages import spatial as sp

    rng = np.random.default_rng(7)
    lon = np.concatenate([
        rng.uniform(-180, 180, 120),
        rng.uniform(179.0, 180.0, 15),       # east of the seam
        rng.uniform(-180.0, -179.0, 15),     # west of the seam
        13.3 + rng.uniform(-0.5, 0.5, 40),   # dense cluster
        rng.uniform(-180, 180, 10),
    ])
    lat = np.concatenate([
        rng.uniform(-84.9, 84.9, 120),
        rng.uniform(-10, 10, 30),
        52.5 + rng.uniform(-0.5, 0.5, 40),
        rng.uniform(83.5, 84.9, 10),         # near the clip pole
    ])
    ids = np.arange(len(lon), dtype=np.int64)
    radius = 300_000.0
    ds = rd.from_arrow(pa.table({"k": pa.array(ids), "lon": pa.array(lon),
                                 "lat": pa.array(lat)})).repartition(5)
    got = sp.distance_self_join(ds, "k", radius).to_pandas()
    # exactly-once emission
    assert not got.duplicated(["ka", "kb"]).any()
    assert (got["ka"] < got["kb"]).all()
    d = geo.haversine_m(lon[:, None], lat[:, None], lon[None, :], lat[None, :])
    ii, jj = np.nonzero(np.triu(d < radius, k=1))
    want = set(zip(ii.tolist(), jj.tolist()))
    assert set(zip(got["ka"].tolist(), got["kb"].tolist())) == want
    assert len(want) > 50  # the fixture exercises real pair mass
    mm = {(a, b): m for a, b, m in zip(got["ka"], got["kb"], got["dist_mm"])}
    for (a, b), m in mm.items():
        assert m == int(np.round(d[a, b] * 1000.0))


def test_distance_self_join_empty_and_res():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from oluray.stages import spatial as sp

    # empty input -> empty typed output
    ds = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                 "lon": pa.array([], pa.float64()),
                                 "lat": pa.array([], pa.float64())}))
    out = sp.distance_self_join(ds, "k", 1000.0).to_pandas()
    # an empty groupby.map_groups yields zero rows (schema is not
    # preserved through an empty shuffle — engine-wide convention)
    assert len(out) == 0
    # res shrinks as the radius grows; enormous radius -> one cell
    assert sp._self_join_res(1_000.0, 85.0) > sp._self_join_res(500_000.0, 85.0)
    assert sp._self_join_res(20_000_000.0, 85.0) == 0
