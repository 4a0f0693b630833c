"""OsmChange ingestion, XML codecs, and the full update pipeline,
mirroring the reference's unit-test layers
(`/root/reference/tests/util/XmlReader.cpp`, `tests/util/URLHelper.cpp`,
`tests/osm/{Node,Way,Relation}.cpp`) plus an end-to-end apply-update
check against a brute-force oracle."""

import gzip

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from oluray.functions import xmlcodec as xc
from oluray.sources import fixtures, osc


# --- XML codec (M6/M7) -----------------------------------------------------


def test_xml_encode_decode_roundtrip():
    s = 'a&b<c>d"e\'f\ng\rh\ti'
    enc = xc.xml_encode(s)
    assert "&" not in enc.replace("&amp;", "").replace("&lt;", "").replace(
        "&gt;", ""
    ).replace("&quot;", "").replace("&apos;", "").replace("&#10;", "").replace(
        "&#13;", ""
    ).replace("&#9;", "")
    assert xc.xml_decode(enc) == s


def test_sanitize_is_level_stable():
    once = xc.xml_encode("a&b")
    # already-encoded input stays single-encoded (reference behavior:
    # decode one level, re-encode — `src/util/XmlReader.cpp:122-137`)
    assert xc.sanitize(once) == once
    assert xc.sanitize("a&b") == once


# --- WKT + 7dp (M8) --------------------------------------------------------


def test_wkt_parse_and_format():
    lon, lat = xc.parse_wkt_point("POINT(13.3777049 52.5162746)")
    assert (lon, lat) == (13.3777049, 52.5162746)
    assert xc.wkt_point(13.3777049, 52.5162746) == "POINT(13.3777049 52.5162746)"
    assert xc.format_coord(1.5) == "1.5000000"  # exactly 7 dp
    with pytest.raises(ValueError):
        xc.parse_wkt_point("POINT(13.377)")


# --- canonical serializers (M9) --------------------------------------------


def test_node_way_relation_xml():
    n = xc.node_xml(1, 13.3777049, 52.5162746, ts_ms=1727704386000)
    assert 'lat="52.5162746"' in n and 'lon="13.3777049"' in n
    assert 'timestamp="2024-09-30T13:53:06Z"' in n
    w = xc.way_xml(2, [10, 20], [("highway", "a&b")])
    assert w.index('ref="10"') < w.index('ref="20"')  # position order
    assert 'v="a&amp;b"' in w
    r = xc.relation_xml(3, [{"ref": 2, "type": "way", "role": "outer"},
                            {"ref": 1, "type": "node", "role": ""}])
    assert r.index('ref="2"') < r.index('ref="1"')
    assert 'role=""' in r


# --- sequence/state helpers (M13/S2/O4) ------------------------------------


def test_seq_path_formatting():
    assert osc.seq_path(6291) == "000/006/291"
    assert osc.seq_path(123456789) == "123/456/789"
    with pytest.raises(ValueError):
        osc.seq_path(-1)
    with pytest.raises(ValueError):
        osc.seq_path(1234567890)


def test_parse_state():
    txt = "#Sat Sep 07\nsequenceNumber=6291\ntimestamp=2024-09-07T20\\:21\\:25Z\n"
    st = osc.parse_state(txt)
    assert st["sequence"] == 6291
    assert st["timestamp"] == "2024-09-07T20:21:25Z"
    with pytest.raises(ValueError):
        osc.parse_state("nonsense")


def test_sequence_for_timestamp():
    states = [
        {"sequence": s, "timestamp": f"2024-09-0{d}T00:00:00Z"}
        for s, d in [(1, 1), (2, 3), (3, 5), (4, 7)]
    ]
    assert osc.sequence_for_timestamp(states, "2024-09-04T00:00:00Z") == 2
    assert osc.sequence_for_timestamp(states, "2024-09-07T00:00:00Z") == 4
    with pytest.raises(ValueError):
        osc.sequence_for_timestamp(states, "2024-08-31T00:00:00Z")


# --- OsmChange parse (S5) + roundtrip --------------------------------------


def _sample_rows():
    tbl = fixtures.make_changes(8, seed=42)
    return tbl.to_pylist()


def test_osc_write_parse_roundtrip():
    rows = _sample_rows()
    xml = osc.write_osc(rows)
    back = osc.parse_osc_bytes(xml.encode())
    assert len(back) == len(rows)
    key = lambda r: (r["kind"], r["id"], r["version"], r["op"])
    for a, b in zip(sorted(rows, key=key), sorted(back, key=key)):
        assert (a["op"], a["kind"], a["id"], a["version"]) == (
            b["op"], b["kind"], b["id"], b["version"])
        pa_, pb = a["payload"], b["payload"]
        if pa_ and pa_.get("nd_refs"):
            assert pb["nd_refs"] == pa_["nd_refs"]
        if pa_ and pa_.get("tags"):
            assert dict(pb["tags"]) == dict(pa_["tags"])  # incl. XML entities
        if pa_ and pa_.get("members"):
            assert pb["members"] == pa_["members"]


def test_osc_gzip_and_read_osc(tmp_path):
    rows = _sample_rows()
    xml = osc.write_osc(rows).encode()
    (tmp_path / "001.osc").write_bytes(xml)
    (tmp_path / "002.osc.gz").write_bytes(gzip.compress(xml))
    ds = osc.read_osc([str(tmp_path / "001.osc"), str(tmp_path / "002.osc.gz")])
    assert ds.count() == 2 * len(rows)


def test_decompress_magic():
    assert osc.decompress(b"plain") == b"plain"
    assert osc.decompress(gzip.compress(b"xyz")) == b"xyz"
    import bz2

    assert osc.decompress(bz2.compress(b"xyz")) == b"xyz"


# --- full apply-update pipeline --------------------------------------------


def test_apply_update_end_to_end(store_windows):
    nodes, ways, rels = fixtures.make_snapshot(200, seed=42)
    changes = fixtures.make_changes(30, seed=42)
    store, idx = store_windows.store(nodes, ways, rels)
    _, out = store_windows.apply(store, idx, changes)
    # oracle: latest-wins per (kind, id)
    rows = changes.to_pylist()
    best: dict = {}
    for r in rows:
        k = (r["kind"], r["id"])
        cand = (r["version"], r["op"] == "delete", r["ts"])
        if k not in best or cand > (best[k]["version"], best[k]["op"] == "delete", best[k]["ts"]):
            best[k] = r
    node_gone = {i for (k, i), r in best.items() if k == "node" and r["op"] in ("modify", "delete")}
    node_new = {i: r for (k, i), r in best.items() if k == "node" and r["op"] in ("create", "modify")}
    snap_ids = set(nodes["id"].to_pylist())
    expected_node_ids = (snap_ids - node_gone) | set(node_new)
    got_nodes = store.read("nodes").to_pandas()
    assert set(got_nodes["id"]) == expected_node_ids
    assert not got_nodes["id"].duplicated().any()

    # modified nodes' new payload present
    for nid, r in node_new.items():
        row = got_nodes[got_nodes["id"] == nid].iloc[0]
        assert row["lon"] == r["payload"]["lon"]

    # impacted ways: reference-closure oracle on the NEW ways table
    new_ways = store.read("ways").to_pandas()
    mod_nodes = {i for (k, i), r in best.items() if k == "node" and r["op"] in ("modify", "delete")}
    way_in_cf = {i for (k, i), r in best.items() if k == "way"}
    oracle_ways = sorted(
        int(w["id"]) for _, w in new_ways.iterrows()
        if any(r in mod_nodes for r in (w["nd_refs"] if w["nd_refs"] is not None else []))
        and int(w["id"]) not in way_in_cf
    )
    assert out["impacted_ways"].tolist() == oracle_ways

    # geo delta covers created/modified nodes and touched ways, with
    # correct centroid for one checked way
    gd = out["geo_delta"].to_pandas()
    assert set(gd[gd["kind"] == "node"]["id"]) == set(node_new)
    touched = set(oracle_ways) | {i for (k, i), r in best.items() if k == "way" and r["op"] in ("create", "modify")}
    node_loc = {int(r["id"]): (r["lon"], r["lat"]) for _, r in got_nodes.iterrows()}
    way_rows = gd[gd["kind"] == "way"]
    assert set(way_rows["id"]) <= touched
    for _, wrow in way_rows.head(5).iterrows():
        refs = new_ways[new_ways["id"] == wrow["id"]]["nd_refs"].iloc[0]
        pts = [node_loc[r] for r in refs if r in node_loc]
        assert abs(np.mean([p[0] for p in pts]) - wrow["lon"]) < 1e-12

    # relation geometry recompute (r2): impacted + created/modified
    # relations get centroid delta rows computed from member node
    # locations and member way centroids, in member-position order,
    # missing members skipped (J7 missing-ok / J4 rel-of-rel skipped)
    new_rels = store.read("relations").to_pandas()
    rel_in_cf = {i for (k, i), r in best.items() if k == "relation"}
    touched_ways_all = touched
    oracle_rels = set()
    for _, rr in new_rels.iterrows():
        members = rr["members"] if rr["members"] is not None else []
        refs_n = {m["ref"] for m in members if m["type"] == "node"}
        refs_w = {m["ref"] for m in members if m["type"] == "way"}
        if int(rr["id"]) in rel_in_cf:
            continue
        if refs_n & mod_nodes or refs_w & touched_ways_all:
            oracle_rels.add(int(rr["id"]))
    assert set(out["impacted_relations"].tolist()) == oracle_rels
    rel_created_mod = {
        i for (k, i), r in best.items() if k == "relation" and r["op"] in ("create", "modify")
    }
    expected_rel_delta = set()
    way_refs_map = {
        int(w["id"]): (w["nd_refs"] if w["nd_refs"] is not None else [])
        for _, w in new_ways.iterrows()
    }

    def way_centroid(wid):
        pts = [node_loc[r] for r in way_refs_map.get(wid, []) if r in node_loc]
        if not pts:
            return None
        return (np.mean([p[0] for p in pts]), np.mean([p[1] for p in pts]))

    rel_oracle_cent = {}
    for _, rr in new_rels.iterrows():
        rid = int(rr["id"])
        if rid not in (oracle_rels | rel_created_mod):
            continue
        pts = []
        mem = rr["members"] if rr["members"] is not None else []
        for m in mem:  # already pos order
            if m["type"] == "node" and m["ref"] in node_loc:
                pts.append(node_loc[m["ref"]])
            elif m["type"] == "way":
                c = way_centroid(int(m["ref"]))
                if c is not None:
                    pts.append(c)
        if pts:
            expected_rel_delta.add(rid)
            rel_oracle_cent[rid] = (
                np.mean([p[0] for p in pts]), np.mean([p[1] for p in pts])
            )
    rel_rows = gd[gd["kind"] == "relation"]
    assert set(rel_rows["id"]) == expected_rel_delta
    for _, rrow in rel_rows.head(5).iterrows():
        exp_lon, exp_lat = rel_oracle_cent[int(rrow["id"])]
        assert abs(exp_lon - rrow["lon"]) < 1e-9
        assert abs(exp_lat - rrow["lat"]) < 1e-9

    counts = out["counts"].to_pandas()
    assert counts["count()"].sum() == len(best)


def test_apply_update_shuffle_path_matches_broadcast(store_windows):
    """broadcast_limit=0 runs the distributed composition with EVERY
    membership set through the hash-partitioned semi-join path (the
    100 TB backfill shape); the result — delta, impacted sets, counts,
    final store and index — must be identical to the driver
    composition's."""
    nodes, ways, rels = fixtures.make_snapshot(120, seed=7)
    changes = fixtures.make_changes(20, seed=7)
    store_bc, idx_bc = store_windows.store(nodes, ways, rels)
    store_sh, idx_sh = store_windows.store(nodes, ways, rels)
    _, bc = store_windows.apply(store_bc, idx_bc, changes)
    _, sh = store_windows.apply(store_sh, idx_sh, changes,
                                apply_kw={"broadcast_limit": 0})
    assert not sh["impacted_ways"].is_broadcast  # the probe actually flipped
    assert bc["impacted_ways"].tolist() == sh["impacted_ways"].tolist()
    assert bc["impacted_relations"].tolist() == sh["impacted_relations"].tolist()
    for key in ("nodes", "ways", "relations"):
        a = sorted(store_bc.read(key).to_pandas()["id"])
        b = sorted(store_sh.read(key).to_pandas()["id"])
        assert a == b, key
    ga = bc["geo_delta"].to_pandas().sort_values(["kind", "id"]).reset_index(drop=True)
    gb = sh["geo_delta"].to_pandas().sort_values(["kind", "id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ga, gb)
    ca = bc["counts"].to_pandas().sort_values(["op", "kind"]).reset_index(drop=True)
    cb = sh["counts"].to_pandas().sort_values(["op", "kind"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ca, cb)
    assert store_windows.contents(store_bc, idx_bc) == \
        store_windows.contents(store_sh, idx_sh)


def _no_node_upsert_window(case, ways):
    """A window with no created or modified node that still reaches
    ways or relations: every kernel's output of the node side is empty."""
    t0 = 1_700_000_000_000
    if case == "node_delete":  # the deleted node is a way member
        nid = ways["nd_refs"][0].as_py()[0]
        rows = [dict(op="delete", kind="node", id=nid, version=2, ts=t0,
                     payload=fixtures._payload())]
    elif case == "way_only":
        rows = [dict(op="modify", kind="way", id=5003, version=2, ts=t0,
                     payload=fixtures._payload(nd_refs=[1001, 1002, 99_003]))]
    else:
        rows = [dict(op="modify", kind="relation", id=7004, version=2, ts=t0,
                     payload=fixtures._payload(members=[
                         {"ref": 5001, "type": "way", "role": "outer"},
                         {"ref": 1003, "type": "node", "role": ""},
                     ], tags={"type": "multipolygon"}))]
    return pa.Table.from_pylist(rows, schema=fixtures.CHANGES_SCHEMA)


@pytest.mark.parametrize("case", ["node_delete", "way_only", "relation_only"])
def test_window_without_node_upserts_matches_shuffle_path(store_windows, case):
    """The driver composition's unions must keep every column's type
    when the node delta is empty; same result as the distributed one."""
    nodes, ways, rels = fixtures.make_snapshot(120, seed=7)
    changes = _no_node_upsert_window(case, ways)
    store_bc, idx_bc = store_windows.store(nodes, ways, rels)
    store_sh, idx_sh = store_windows.store(nodes, ways, rels)
    _, bc = store_windows.apply(store_bc, idx_bc, changes)
    _, sh = store_windows.apply(store_sh, idx_sh, changes,
                                apply_kw={"broadcast_limit": 0})
    sch = bc["geo_delta"].schema()
    assert sch.types[sch.names.index("kind")] == pa.string()
    ga = bc["geo_delta"].to_pandas()
    assert len(ga) > 0 and "node" not in set(ga["kind"])
    assert bc["impacted_ways"].tolist() == sh["impacted_ways"].tolist()
    assert bc["impacted_relations"].tolist() == sh["impacted_relations"].tolist()
    ga = ga.sort_values(["kind", "id"]).reset_index(drop=True)
    gb = sh["geo_delta"].to_pandas().sort_values(["kind", "id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ga, gb)
    ca = bc["counts"].to_pandas().sort_values(["op", "kind"]).reset_index(drop=True)
    cb = sh["counts"].to_pandas().sort_values(["op", "kind"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ca, cb)
    assert store_windows.contents(store_bc, idx_bc) == \
        store_windows.contents(store_sh, idx_sh)


def _square_multipolygon():
    """A 10x10-degree square multipolygon relation (71) of two outer
    ways, one stored in reverse, and a window modifying its corner
    node 101: (nodes, ways, relations, changes) Datasets."""
    coords = {101: (10.0, 10.0), 102: (20.0, 10.0), 103: (20.0, 20.0),
              104: (10.0, 20.0)}
    nodes = ray.data.from_arrow(pa.Table.from_pylist(
        [dict(id=i, lon=c[0], lat=c[1], tags=None, version=1, ts=1)
         for i, c in coords.items()]
        + [dict(id=999, lon=0.0, lat=0.0, tags=None, version=1, ts=1)],
        schema=fixtures.NODES_SCHEMA))
    ways = ray.data.from_arrow(pa.Table.from_pylist(
        [dict(id=51, nd_refs=[101, 102, 103], tags=None, version=1, ts=1),
         dict(id=52, nd_refs=[101, 104, 103], tags=None, version=1, ts=1)],
        schema=fixtures.WAYS_SCHEMA))
    rels = ray.data.from_arrow(pa.Table.from_pylist(
        [dict(id=71, members=[{"ref": 51, "type": "way", "role": "outer"},
                              {"ref": 52, "type": "way", "role": "outer"}],
              type="multipolygon", tags=[("type", "multipolygon")],
              version=1, ts=1)],
        schema=fixtures.RELATIONS_SCHEMA))
    changes = ray.data.from_arrow(pa.Table.from_pylist(
        [dict(op="modify", kind="node", id=101, version=2, ts=1000,
              payload=fixtures._payload(lon=10.0, lat=10.0))],
        schema=fixtures.CHANGES_SCHEMA))
    return nodes, ways, rels, changes


def _derived(store, idx, changes, **kw):
    """`update.derived_geometry` of one merged window over `store`."""
    from oluray.pipelines import update as upd
    from oluray.stages.diff import merge_latest_wins

    merged = merge_latest_wins(changes).materialize()
    return upd.derived_geometry(merged, store, idx, **kw)


def test_multipolygon_area_cover_and_envelope(store_windows):
    """A touched multipolygon relation's outer ring is assembled from
    member ways (one stored in reverse) and covered with cells; its
    geo_delta row carries the full member-extent envelope."""
    from oluray.functions import geo

    nodes, ways, rels, changes = _square_multipolygon()
    store, idx = store_windows.store(nodes, ways, rels)
    cover = _derived(store, idx, changes, area_res=6)["area_cover"].to_pandas()
    _, out = store_windows.apply(store, idx, changes)
    assert set(cover["rel_id"]) == {71}
    got_cells = set(cover["cell"])
    # O(n*m) oracle: every interior sample point's cell must be
    # covered, and the cover must stay within the ring's bbox cover
    gx, gy = np.meshgrid(np.linspace(10.5, 19.5, 12), np.linspace(10.5, 19.5, 12))
    pts_cells = set(geo.cell_encode(gx.ravel(), gy.ravel(), 6).tolist())
    assert pts_cells <= got_cells
    bbox_cells = set(geo.bbox_cover(10.0, 10.0, 20.0, 20.0, 6).tolist())
    assert got_cells <= bbox_cells
    # envelope: the relation row spans the full member extent; a way
    # row spans its own members
    gd = out["geo_delta"].to_pandas()
    rrow = gd[(gd["kind"] == "relation") & (gd["id"] == 71)].iloc[0]
    assert (rrow["min_lon"], rrow["max_lon"]) == (10.0, 20.0)
    assert (rrow["min_lat"], rrow["max_lat"]) == (10.0, 20.0)
    wrow = gd[(gd["kind"] == "way") & (gd["id"] == 51)].iloc[0]
    assert (wrow["min_lon"], wrow["max_lon"]) == (10.0, 20.0)
    assert (wrow["min_lat"], wrow["max_lat"]) == (10.0, 20.0)


def test_derived_geometry_shuffle_path_matches_driver(store_windows):
    """hull_delta and area_cover of the assembled-ring window agree
    exactly between the driver and the distributed composition."""
    nodes, ways, rels, changes = _square_multipolygon()
    store, idx = store_windows.store(nodes, ways, rels)
    drv = _derived(store, idx, changes, area_res=6)
    dist = _derived(store, idx, changes, area_res=6, broadcast_limit=0)
    for key, order in (("hull_delta", ["kind", "id"]),
                       ("area_cover", ["rel_id", "ring_id", "cell"])):
        a = drv[key].to_pandas().sort_values(order).reset_index(drop=True)
        b = dist[key].to_pandas().sort_values(order).reset_index(drop=True)
        assert len(a) > 0, key
        assert list(a.columns) == list(b.columns), key
        for c in a.columns:
            assert [np.asarray(v).tolist() for v in a[c]] == \
                [np.asarray(v).tolist() for v in b[c]], (key, c)


def test_hull_delta_way_and_relation(store_windows):
    """hull_delta: a way's hull is its member-node hull; a relation's
    hull spans FULL member-way geometry (all way nodes, not just way
    centroids)."""
    from oluray.functions import geo

    coords = {101: (10.0, 10.0), 102: (20.0, 10.0), 103: (20.0, 20.0),
              104: (10.0, 20.0), 105: (15.0, 14.0)}  # 105 interior
    nodes = ray.data.from_arrow(pa.Table.from_pylist(
        [dict(id=i, lon=c[0], lat=c[1], tags=None, version=1, ts=1)
         for i, c in coords.items()],
        schema=fixtures.NODES_SCHEMA))
    ways = ray.data.from_arrow(pa.Table.from_pylist(
        [dict(id=51, nd_refs=[101, 102, 105], tags=None, version=1, ts=1),
         dict(id=52, nd_refs=[103, 104], tags=None, version=1, ts=1)],
        schema=fixtures.WAYS_SCHEMA))
    rels = ray.data.from_arrow(pa.Table.from_pylist(
        [dict(id=71, members=[{"ref": 51, "type": "way", "role": ""},
                              {"ref": 52, "type": "way", "role": ""}],
              type=None, tags=None, version=1, ts=1)],
        schema=fixtures.RELATIONS_SCHEMA))
    changes = ray.data.from_arrow(pa.Table.from_pylist(
        [dict(op="modify", kind="node", id=101, version=2, ts=1000,
              payload=fixtures._payload(lon=10.0, lat=10.0))],
        schema=fixtures.CHANGES_SCHEMA))
    store, idx = store_windows.store(nodes, ways, rels)
    hd = _derived(store, idx, changes)["hull_delta"].to_pandas()
    hd = hd.set_index(["kind", "id"])
    w = hd.loc[("way", 51)]
    assert set(zip(w["hull_lon"], w["hull_lat"])) == {
        (10.0, 10.0), (20.0, 10.0), (15.0, 14.0)
    }
    r = hd.loc[("relation", 71)]
    # interior node 105 must NOT be a hull vertex; all 4 corners are
    assert set(zip(r["hull_lon"], r["hull_lat"])) == {
        (10.0, 10.0), (20.0, 10.0), (20.0, 20.0), (10.0, 20.0)
    }
    # obb of the square is the square itself (area 100)
    ox, oy = np.asarray(r["obb_lon"]), np.asarray(r["obb_lat"])
    area = 0.5 * abs(np.dot(ox, np.roll(oy, -1)) - np.dot(oy, np.roll(ox, -1)))
    assert abs(area - 100.0) < 1e-9


def test_derive_apply_roundtrip_nodes(store_windows):
    """Full producer-consumer round trip: snapshot pair -> derived
    changes -> canonical OsmChange XML -> parsed back -> one window
    applied to a store holding the old snapshot leaves exactly the new
    node set in the store."""
    import ray.data as rd

    from oluray.pipelines import update as U
    from oluray.sources import fixtures, osc

    nodes_t, ways_t, rels_t = fixtures.make_snapshot()
    old = nodes_t.to_pandas()
    # edits: move the first 5 nodes, delete 3, add 4 new ones
    new = old.copy()
    new.loc[new.index[:5], "lon"] = np.round(new["lon"].iloc[:5] + 0.25, 7)
    new = new[~new["id"].isin(old["id"].iloc[5:8])]
    add = pd.DataFrame({
        "id": np.arange(900_001, 900_005, dtype=np.int64),
        "lon": [1.1, 2.2, 3.3, 4.4], "lat": [0.5, 0.6, 0.7, 0.8],
    })
    for c in old.columns:
        if c not in add.columns:
            add[c] = old[c].iloc[:1].tolist() * 4 if len(old) else None
    new = pd.concat([new, add[old.columns.tolist()]], ignore_index=True)

    ch = U.derive_node_changes(
        rd.from_pandas(old), rd.from_pandas(new), ts_ms=1_700_000_000_000
    )
    rows = ch.take_all()
    ops = pd.Series([r["op"] for r in rows]).value_counts().to_dict()
    assert ops == {"modify": 5, "delete": 3, "create": 4}

    xml = osc.write_osc(rows)
    parsed = osc.parse_osc_bytes(xml.encode())
    changes = rd.from_arrow(
        pa.Table.from_pylist(parsed, schema=fixtures.CHANGES_SCHEMA)
    )
    store, idx = store_windows.store(nodes_t, ways_t, rels_t)
    store_windows.apply(store, idx, changes)
    got = (store.read("nodes").to_pandas()[["id", "lon", "lat"]]
           .sort_values("id").reset_index(drop=True))
    want = (new[["id", "lon", "lat"]]
            .sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
