"""End-to-end: images x changeset polygons -> assignments, vs a
brute-force O(n*m) pure-python oracle (FIXTURES.md §5)."""

import numpy as np
import pytest
import ray.data

from oluray.functions import geo, imagecodec
from oluray.pipelines import flagship
from oluray.sources import fixtures


def _oracle(images, polys, tile_res=12, deg_per_px=1e-3):
    lon, lat = fixtures.footprint_from_phash(images["phash"].to_numpy())
    ids = images["image_id"].to_pylist()
    caps = images["caption"].to_pylist()
    ws = images["w"].to_numpy()
    hs = images["h"].to_numpy()
    cents = flagship.poly_centroids(polys)
    rows = set()
    for p in polys.to_pylist():
        rx = np.array([v["lon"] for v in p["ring"]])
        ry = np.array([v["lat"] for v in p["ring"]])
        ins = geo.point_in_polygon(lon, lat, rx, ry)
        for i in np.nonzero(ins)[0]:
            cl, ca = cents[p["poly_id"]]
            d = round(
                float(
                    geo.haversine_m(
                        np.array([lon[i]]), np.array([lat[i]]),
                        np.array([cl]), np.array([ca]),
                    )[0]
                ),
                3,
            )
            # tile cover bbox
            n = float(1 << tile_res)
            hw, hh = ws[i] * deg_per_px / 2, hs[i] * deg_per_px / 2
            x0 = int(np.clip(np.floor((lon[i] - hw + 180) / 360 * n), 0, n - 1))
            x1 = int(np.clip(np.floor((lon[i] + hw + 180) / 360 * n), 0, n - 1))
            y0 = int(np.clip(np.floor((lat[i] - hh + 90) / 180 * n), 0, n - 1))
            y1 = int(np.clip(np.floor((lat[i] + hh + 90) / 180 * n), 0, n - 1))
            for x in range(x0, x1 + 1):
                for y in range(y0, y1 + 1):
                    cell = tile_res * geo.RES_SHIFT + y * geo.Y_SHIFT + x
                    rows.add((ids[i], cell, p["poly_id"], p["op"], d, caps[i]))
    return rows


def _anchored_polys(images, n, seed=42, span_deg=20.0):
    lon, lat = fixtures.footprint_from_phash(images["phash"].to_numpy())
    step = max(1, len(lon) // max(n - 2, 1))
    centers = [(lon[i], lat[i]) for i in range(0, len(lon), step)][: n - 2]
    return fixtures.make_change_polys(n, seed=seed, span_deg=span_deg, centers=centers)


def test_flagship_matches_oracle():
    images = fixtures.make_images(300, seed=42)
    polys = _anchored_polys(images, 10, span_deg=10.0)
    ds = ray.data.from_arrow(images)
    out = flagship.assignments_pipeline(ds, polys, pip_res=7,
                                        tile_res=12).to_pandas()
    got = set(
        zip(out["image_id"], out["cell"], out["poly_id"], out["op"], out["dist_m"],
            out["caption"])
    )
    expected = _oracle(images, polys)
    assert got == expected
    assert len(expected) > 0


def test_flagship_caption_and_pixels_roundtrip():
    # per-row invariant (north rule): captions survive the pipeline
    # verbatim (incl. XML-entity stress chars); pixel bytes decode to
    # the same content as the source table's
    images = fixtures.make_images(60, seed=1)
    polys = _anchored_polys(images, 6, span_deg=15.0)
    out = flagship.assignments_pipeline(
        ray.data.from_arrow(images), polys, pip_res=6
    ).to_pandas()
    caps = dict(zip(images["image_id"].to_pylist(), images["caption"].to_pylist()))
    blobs = dict(zip(images["image_id"].to_pylist(), images["bytes"].to_pylist()))
    fmts = dict(zip(images["image_id"].to_pylist(), images["fmt"].to_pylist()))
    assert len(out) > 0
    for row in out.itertuples():
        assert row.caption == caps[row.image_id]
    for iid in set(out["image_id"]):
        px = imagecodec.decode(blobs[iid], fmts[iid])
        i = int(iid[3:])
        src = fixtures._pixels(i, px.shape[1], px.shape[0], 1)
        if fmts[iid] == "png":
            np.testing.assert_array_equal(px, src)
        else:
            assert imagecodec.psnr_db(px, src) >= 40.0


def test_materialize_tiles_bytes_rejoin(tmp_path):
    """Tile materialization: blobs sidecar carries one bytes row per
    distinct (image_id, part) of the window's assignments; pixels
    decode from the MATERIALIZED partition (PSNR gate for the lossy
    format); a rerun skips every finished partition."""
    images = fixtures.make_images(80, seed=3)
    polys = _anchored_polys(images, 6, span_deg=15.0)
    ds = ray.data.from_arrow(images)
    adir = str(tmp_path / "assign")
    bdir = str(tmp_path / "blobs")
    flagship.run_window(ds, polys, adir, "w1", pip_res=6)
    man = flagship.materialize_tiles(ds, adir, bdir, "w1", num_partitions=8)

    assigns = ray.data.read_parquet(adir, columns=["image_id", "part"]).to_pandas()
    expect_pairs = set(
        assigns.drop_duplicates().itertuples(index=False, name=None)
    )
    blobs = ray.data.read_parquet(bdir).to_pandas()
    got_pairs = set(zip(blobs["image_id"], blobs["part"]))
    assert got_pairs == expect_pairs
    assert len(blobs) == len(got_pairs)  # bytes once per (image, part)

    # pixels decode from the materialized output itself
    src_fmt = dict(zip(images["image_id"].to_pylist(), images["fmt"].to_pylist()))
    for row in blobs.head(12).itertuples():
        px = imagecodec.decode(row.bytes, row.fmt)
        assert row.fmt == src_fmt[row.image_id]
        i = int(row.image_id[3:])
        src = fixtures._pixels(i, px.shape[1], px.shape[0], 3)
        if row.fmt == "png":
            np.testing.assert_array_equal(px, src)
        else:
            assert imagecodec.psnr_db(px, src) >= 40.0

    # resume: a second materialization run skips all finished partitions
    fins = {k: p["finished_at"] for k, p in man.partitions.items()}
    man2 = flagship.materialize_tiles(ds, adir, bdir, "w1", num_partitions=8)
    assert {k: p["finished_at"] for k, p in man2.partitions.items()} == fins


def test_poly_centroids_on_sliced_table():
    """A sliced polygon table keeps absolute list offsets while
    `list_flatten` re-bases the vertices; centroids must still be the
    per-ring vertex means."""
    polys = fixtures.make_change_polys(5, seed=7)
    got = flagship.poly_centroids(polys.slice(1))
    want = {
        p["poly_id"]: (np.mean([v["lon"] for v in p["ring"]]),
                       np.mean([v["lat"] for v in p["ring"]]))
        for p in polys.slice(1).to_pylist()
    }
    assert got.keys() == want.keys()
    for pid, (lon, lat) in want.items():
        assert got[pid] == (pytest.approx(lon), pytest.approx(lat))


def test_poly_centroids_rejects_null_ring():
    """A null ring is a zero-length segment: its 'centroid' would be a
    division by zero over a neighbour's vertex, so it is refused."""
    import pyarrow as pa

    polys = fixtures.make_change_polys(3, seed=7)
    rings = polys["ring"].to_pylist()
    rings[1] = None
    broken = polys.set_column(
        polys.schema.get_field_index("ring"), "ring",
        pa.array(rings, polys.schema.field("ring").type))
    with pytest.raises(ValueError, match="ring"):
        flagship.poly_centroids(broken)
