"""Bucket-pruned persistent snapshot store (VERDICT r3 item 1): the
continuous window loop's scale-shaped snapshot — per window, ONLY
buckets holding a changed id are rewritten (the reference's in-place
point-update semantics, `src/osm/OsmChangeHandler.cpp:493-575`),
while the store loop must agree exactly with a pure-Python replay of
the same windows on geo deltas and the final snapshot."""

import glob
import gzip
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from oluray.sources import fixtures, osc, replication as rep
from oluray.state.snapshot import SnapshotStore


def _osc_doc(rows) -> bytes:
    return gzip.compress(osc.write_osc(rows).encode("utf-8"))


def _payload(**kw):
    base = {"lon": None, "lat": None, "nd_refs": None, "members": None,
            "tags": None}
    base.update(kw)
    return base


def _rich_mirror(tmp_path):
    """Replication mirror whose windows touch all three kinds: node
    moves on EXISTING snapshot nodes (so way/relation impact closure
    fires), a way modify, a relation modify, and a node delete."""
    root = tmp_path / "mirror"
    from oluray.functions import geo

    seqs = {
        3: [  # move two existing nodes
            _mk("modify", "node", 1000, lonlat=True),
            _mk("modify", "node", 1003, lonlat=True),
        ],
        4: [  # way edit + node create
            _mk("modify", "way", 5001, nd_refs=[1000, 1001, 1002]),
            _mk("create", "node", 55_000, lonlat=True),
        ],
        5: [  # relation edit + node delete
            _mk("modify", "relation", 7001,
                members=[{"ref": 5002, "type": "way", "role": "outer"},
                         {"ref": 1004, "type": "node", "role": ""}]),
            _mk("delete", "node", 99_001),
        ],
        6: [  # another node move hitting different ways
            _mk("modify", "node", 99_010, lonlat=True),
        ],
    }
    for i, (seq, rows) in enumerate(sorted(seqs.items())):
        p = root / osc.seq_path(seq)
        os.makedirs(p.parent, exist_ok=True)
        ts = f"2024-01-01T{i:02d}\\:00\\:00Z"
        (p.parent / (p.name + ".state.txt")).write_text(
            f"sequenceNumber={seq}\ntimestamp={ts}\n"
        )
        (p.parent / (p.name + ".osc.gz")).write_bytes(_osc_doc(rows))
    (root / "state.txt").write_text(
        "sequenceNumber=6\ntimestamp=2024-01-01T03\\:00\\:00Z\n"
    )
    return str(root)


def _mk(op, kind, eid, lonlat=False, nd_refs=None, members=None):
    from oluray.functions import geo

    payload = _payload(nd_refs=nd_refs, members=members)
    if lonlat:
        lon, lat = geo.derive_lonlat(np.array([eid + 7], dtype=np.int64))
        payload["lon"], payload["lat"] = float(lon[0]), float(lat[0])
    if kind == "relation" and members is not None:
        payload["tags"] = [("type", "route")]
    return {"op": op, "kind": kind, "id": eid, "version": 9,
            "ts": 1_700_000_000_000 + eid, "payload": payload}


def _snap_tables():
    return fixtures.make_snapshot(200, seed=11)


def _sorted_pdf(ds) -> pd.DataFrame:
    df = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    return (df.sort_values("id").reset_index(drop=True)
            .sort_index(axis=1))


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    # list/map columns -> comparable strings
    out = df.copy()
    for c in out.columns:
        if out[c].dtype == object:
            out[c] = out[c].astype(str)
    return out


def test_store_create_read_roundtrip(tmp_path):
    nodes_t, ways_t, rels_t = _snap_tables()
    store = SnapshotStore.create(
        str(tmp_path / "store"),
        {"nodes": ray.data.from_arrow(nodes_t),
         "ways": ray.data.from_arrow(ways_t),
         "relations": ray.data.from_arrow(rels_t)},
        n_buckets=16,
    )
    for kind, src in (("nodes", nodes_t), ("ways", ways_t),
                      ("relations", rels_t)):
        got = _norm(_sorted_pdf(store.read(kind)))
        exp = _norm(_sorted_pdf(src.to_pandas()))
        pd.testing.assert_frame_equal(got, exp, check_like=True)
    # column pruning works
    two = store.read("nodes", columns=["id", "lon"]).schema().names
    assert two == ["id", "lon"]


def test_store_loop_matches_oracle(tmp_path, replication_oracle):
    """(a) every geo-delta column of every window, and the final
    snapshot, match the pure-Python replication oracle on the same
    mirror."""
    from oluray.functions import geo
    from oluray.pipelines import stream

    mirror = _rich_mirror(tmp_path)
    client = rep.ReplicationClient(rep.LocalDirTransport(mirror))
    nodes_t, ways_t, rels_t = _snap_tables()
    store = SnapshotStore.create(
        str(tmp_path / "store"),
        {"nodes": ray.data.from_arrow(nodes_t),
         "ways": ray.data.from_arrow(ways_t),
         "relations": ray.data.from_arrow(rels_t)},
        n_buckets=16,
    )
    out = str(tmp_path / "geo_store")
    res = stream.run_replication_windows_store(
        store, client, out, sequence=3, window_size=2,
    )
    assert [w["window_id"] for w in res["windows"]] == [
        "w000000003_000000004", "w000000005_000000006",
    ]

    windows = [
        [r for s in range(w["first_seq"], w["last_seq"] + 1)
         for r in osc.parse_osc_bytes(osc.decompress(client.change_bytes(s)))]
        for w in res["windows"]
    ]
    exp_deltas, exp_snap = replication_oracle(nodes_t, ways_t, rels_t, windows)
    cols = ["kind", "id", "lon", "lat", "cell",
            "min_lon", "min_lat", "max_lon", "max_lat"]
    for w, exp in zip(res["windows"], exp_deltas):
        got = pq.read_table(f"{out}/{w['window_id']}").to_pandas()
        assert sorted(got.columns) == sorted(cols + ["part"])
        part = got.pop("part").astype(str).astype("int64").to_numpy()
        np.testing.assert_array_equal(
            part, geo.cell_parent(got["cell"].to_numpy(), 2))
        got = got.sort_values(["kind", "id"]).reset_index(drop=True)[cols]
        got["kind"] = got["kind"].astype(object)
        assert len(got) == w["rows"] > 0
        pd.testing.assert_frame_equal(got, exp[cols], check_exact=True)
    for kind in ("nodes", "ways", "relations"):
        got = _norm(_sorted_pdf(store.read(kind)))
        exp = _norm(_sorted_pdf(exp_snap[kind].to_pandas()))
        pd.testing.assert_frame_equal(got, exp, check_like=True)
    # pruning evidence rode back in the results
    assert all(isinstance(w["store_buckets"], dict) for w in res["windows"])


def test_store_apply_prunes_buckets(tmp_path):
    """(b) untouched buckets are not rewritten — manifest lists the
    touched set, and every other bucket dir's mtime is unchanged."""
    nodes_t, ways_t, rels_t = _snap_tables()
    store = SnapshotStore.create(
        str(tmp_path / "store"),
        {"nodes": ray.data.from_arrow(nodes_t),
         "ways": ray.data.from_arrow(ways_t),
         "relations": ray.data.from_arrow(rels_t)},
        n_buckets=16,
    )
    node_dirs = sorted(glob.glob(str(tmp_path / "store/nodes/bucket=*")))
    assert len(node_dirs) > 4  # enough buckets that pruning is visible
    before = {d: os.path.getmtime(d) for d in node_dirs}

    # a 2-node diff: delete 1000, move 1001
    changed = np.array([1000, 1001], dtype=np.int64)
    ins = nodes_t.to_pandas()
    ins = ins[ins["id"] == 1001].copy()
    ins["lon"] = 9.75
    ins_t = pa.Table.from_pandas(
        ins, schema=pa.Table.from_pandas(
            nodes_t.to_pandas(), schema=nodes_t.schema
        ).schema, preserve_index=False,
    )
    man = store.apply_window(
        "wtest", {"nodes": (changed, ray.data.from_arrow(ins_t))}
    )
    touched = man["kinds"]["nodes"]["touched_buckets"]
    assert 1 <= len(touched) <= 2  # 2 ids -> at most 2 of 16 buckets
    touched_dirs = {str(tmp_path / f"store/nodes/bucket={b}") for b in touched}
    for d in node_dirs:
        if d in touched_dirs:
            continue
        assert os.path.getmtime(d) == before[d], f"untouched {d} rewritten"
    # semantics: 1000 gone, 1001 moved, everything else intact
    after = _sorted_pdf(store.read("nodes"))
    assert (after["id"] == 1000).sum() == 0
    assert float(after.loc[after["id"] == 1001, "lon"].iloc[0]) == 9.75
    assert len(after) == nodes_t.num_rows - 1
    # durable manifest on disk names the touched buckets (lineage)
    on_disk = json.load(open(tmp_path / "store/_windows/wtest.json"))
    assert on_disk["kinds"]["nodes"]["touched_buckets"] == touched


def test_store_apply_idempotent_and_crash_recovery(tmp_path):
    nodes_t, ways_t, rels_t = _snap_tables()
    root = str(tmp_path / "store")
    store = SnapshotStore.create(
        root,
        {"nodes": ray.data.from_arrow(nodes_t)},
        n_buckets=8,
    )
    changed = np.array([1000, 99_001], dtype=np.int64)
    ins = nodes_t.slice(0, 1)  # re-insert node 1000 (same row)

    def apply():
        return store.apply_window(
            "w1", {"nodes": (changed, ray.data.from_arrow(ins))}
        )

    man1 = apply()
    state1 = _norm(_sorted_pdf(store.read("nodes")))

    # finished-window short-circuit
    man2 = apply()
    assert man2["finished_at"] == man1["finished_at"]

    # force a re-apply (crash before manifest landed): same fixpoint
    os.remove(os.path.join(root, "_windows", "w1.json"))
    apply()
    state2 = _norm(_sorted_pdf(store.read("nodes")))
    pd.testing.assert_frame_equal(state1, state2)

    # mid-swap crash: live renamed to .old, live missing -> recovery
    d = sorted(glob.glob(os.path.join(root, "nodes", "bucket=*")))[0]
    os.replace(d, d + ".old")
    state3 = _norm(_sorted_pdf(store.read("nodes")))  # read recovers
    assert os.path.exists(d) and not os.path.exists(d + ".old")
    pd.testing.assert_frame_equal(state1, state3)


def test_store_loop_resume_mid_window(tmp_path):
    """(c) crash BETWEEN the delta sink and the store apply of a
    window: re-running the loop from the same start is clean — done
    windows short-circuit, the interrupted one completes, and the
    final state matches an uninterrupted run."""
    from oluray.pipelines import stream

    mirror = _rich_mirror(tmp_path)
    nodes_t, ways_t, rels_t = _snap_tables()

    def mk_store(name):
        return SnapshotStore.create(
            str(tmp_path / name),
            {"nodes": ray.data.from_arrow(nodes_t),
             "ways": ray.data.from_arrow(ways_t),
             "relations": ray.data.from_arrow(rels_t)},
            n_buckets=16,
        )

    # uninterrupted reference run
    ref_store = mk_store("store_ref")
    client = rep.ReplicationClient(rep.LocalDirTransport(mirror))
    stream.run_replication_windows_store(
        ref_store, client, str(tmp_path / "geo_ref"),
        sequence=3, window_size=2,
    )

    # interrupted run: crash in apply_window of the SECOND window
    crash_store = mk_store("store_crash")
    real_apply = crash_store.apply_window
    calls = {"n": 0}

    def flaky_apply(window_id, changes):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected crash mid-window")
        return real_apply(window_id, changes)

    crash_store.apply_window = flaky_apply
    out_dir = str(tmp_path / "geo_crash")
    with pytest.raises(RuntimeError, match="injected"):
        stream.run_replication_windows_store(
            crash_store, client, out_dir, sequence=3, window_size=2,
        )
    # second window's delta was already written, store apply was not
    assert crash_store.window_manifest("w000000005_000000006") is None

    # resume: same loop, same start — completes cleanly
    crash_store.apply_window = real_apply
    res = stream.run_replication_windows_store(
        crash_store, client, out_dir, sequence=3, window_size=2,
    )
    assert [w["window_id"] for w in res["windows"]] == [
        "w000000003_000000004", "w000000005_000000006",
    ]
    for kind in ("nodes", "ways", "relations"):
        got = _norm(_sorted_pdf(crash_store.read(kind)))
        exp = _norm(_sorted_pdf(ref_store.read(kind)))
        pd.testing.assert_frame_equal(got, exp, check_like=True)
    # and the delta dirs match the reference run's
    for wid in ("w000000003_000000004", "w000000005_000000006"):
        ta = pq.read_table(f"{tmp_path}/geo_ref/{wid}").to_pandas()
        tb = pq.read_table(f"{out_dir}/{wid}").to_pandas()
        assert len(ta) == len(tb)


# ---------------------------------------------------------------------------
# reverse-reference index (r4): diff-proportional impact closure
# ---------------------------------------------------------------------------


def _idx_entries_df(idx) -> pd.DataFrame:
    df = idx.read().to_pandas()
    return df.sort_values(["key", "ktype", "owner", "otype"]).reset_index(
        drop=True
    )


def test_ref_index_owners_match_closure_scan(tmp_path):
    """RefIndex.owners_of answers J1/J2/J3 identically to the
    full-scan closure operators over the same snapshot."""
    from oluray.stages import closure
    from oluray.state.refindex import RefIndex

    nodes_t, ways_t, rels_t = _snap_tables()
    idx = RefIndex.create(
        str(tmp_path / "idx"), ray.data.from_arrow(ways_t),
        ray.data.from_arrow(rels_t), n_buckets=16,
    )
    modified = np.arange(1000, 1030, dtype=np.int64)
    in_cf = np.array([5000, 5001], dtype=np.int64)
    exp_ways = closure.ways_to_update_geometry(
        ray.data.from_arrow(ways_t), modified, in_cf
    )
    got_ways = idx.owners_of(modified, ("node",), "way", exclude=in_cf)
    assert got_ways.tolist() == exp_ways.tolist()

    touched_w = np.union1d(np.asarray(exp_ways.to_array()), in_cf)
    rel_cf = np.array([7000], dtype=np.int64)
    exp_rels = closure.relations_to_update_geometry(
        ray.data.from_arrow(rels_t), modified, touched_w, rel_cf
    )
    got_rels = idx.owners_of(
        modified, ("node",), "relation", exclude=rel_cf
    ).union(idx.owners_of(touched_w, ("way",), "relation", exclude=rel_cf))
    assert sorted(got_rels.tolist()) == sorted(exp_rels.tolist())


def test_indexed_loop_matches_plain_store_loop(tmp_path):
    """The loop given an explicit RefIndex must produce byte-identical
    geo deltas and final snapshot vs the loop that builds its own
    co-located index, and the maintained index must equal a fresh
    rebuild from the final snapshot."""
    from oluray.pipelines import stream
    from oluray.state.refindex import RefIndex

    mirror = _rich_mirror(tmp_path)
    client = rep.ReplicationClient(rep.LocalDirTransport(mirror))
    nodes_t, ways_t, rels_t = _snap_tables()

    store_a = SnapshotStore.create(
        str(tmp_path / "store_a"),
        {"nodes": ray.data.from_arrow(nodes_t),
         "ways": ray.data.from_arrow(ways_t),
         "relations": ray.data.from_arrow(rels_t)}, n_buckets=16,
    )
    res_a = stream.run_replication_windows_store(
        store_a, client, str(tmp_path / "geo_a"), sequence=3, window_size=2,
    )

    store_b = SnapshotStore.create(
        str(tmp_path / "store_b"),
        {"nodes": ray.data.from_arrow(nodes_t),
         "ways": ray.data.from_arrow(ways_t),
         "relations": ray.data.from_arrow(rels_t)}, n_buckets=16,
    )
    idx = RefIndex.create(
        str(tmp_path / "idx"), ray.data.from_arrow(ways_t),
        ray.data.from_arrow(rels_t), n_buckets=16,
    )
    res_b = stream.run_replication_windows_store(
        store_b, client, str(tmp_path / "geo_b"), sequence=3, window_size=2,
        ref_index=idx,
    )

    assert [w["window_id"] for w in res_a["windows"]] == \
           [w["window_id"] for w in res_b["windows"]]
    for w in res_a["windows"]:
        wid = w["window_id"]
        ta = pq.read_table(f"{tmp_path}/geo_a/{wid}").to_pandas()
        tb = pq.read_table(f"{tmp_path}/geo_b/{wid}").to_pandas()
        key = ["kind", "id"]
        ta = ta.sort_values(key).reset_index(drop=True).sort_index(axis=1)
        tb = tb.sort_values(key).reset_index(drop=True).sort_index(axis=1)
        pd.testing.assert_frame_equal(ta, tb, check_like=True)
    for kind in ("nodes", "ways", "relations"):
        got = _norm(_sorted_pdf(store_b.read(kind)))
        exp = _norm(_sorted_pdf(store_a.read(kind)))
        pd.testing.assert_frame_equal(got, exp, check_like=True)
    # index lineage rode back + matches a rebuild from the final state
    assert all("index_buckets" in w for w in res_b["windows"]
               if w["rows"] or w["partitions"])
    from oluray.state.refindex import RefIndex as RI

    rebuilt = RI.create(
        str(tmp_path / "idx_rebuild"), store_b.read("ways"),
        store_b.read("relations"), n_buckets=16,
    )
    pd.testing.assert_frame_equal(
        _idx_entries_df(idx), _idx_entries_df(rebuilt)
    )


def test_indexed_loop_crash_between_store_and_index_apply(tmp_path):
    """Crash AFTER the snapshot store mutated but BEFORE the index
    applied: the durable staging (written pre-mutation) must let the
    re-run converge — the index ends exactly equal to a rebuild."""
    from oluray.pipelines import stream
    from oluray.stages.diff import merge_latest_wins
    from oluray.state.refindex import RefIndex

    mirror = _rich_mirror(tmp_path)
    client = rep.ReplicationClient(rep.LocalDirTransport(mirror))
    nodes_t, ways_t, rels_t = _snap_tables()
    store = SnapshotStore.create(
        str(tmp_path / "store"),
        {"nodes": ray.data.from_arrow(nodes_t),
         "ways": ray.data.from_arrow(ways_t),
         "relations": ray.data.from_arrow(rels_t)}, n_buckets=16,
    )
    idx = RefIndex.create(
        str(tmp_path / "idx"), ray.data.from_arrow(ways_t),
        ray.data.from_arrow(rels_t), n_buckets=16,
    )

    # manually run window w000000003_000000004 (seq 3-4, includes the
    # way 5001 modify) up to the crash point: stage + store.apply, NO
    # index apply
    wid = "w000000003_000000004"
    changes = rep.fetch_changes(client, 3, 4)
    merged = merge_latest_wins(changes.drop_columns(["seq"])).materialize()
    stream._commit_store(store, idx, merged, wid)
    assert idx.window_manifest(wid) is None  # crashed before idx apply

    # full re-run from scratch
    res = stream.run_replication_windows_store(
        store, client, str(tmp_path / "geo"), sequence=3, window_size=2,
        ref_index=idx,
    )
    assert idx.window_manifest(wid) is not None
    rebuilt = RefIndex.create(
        str(tmp_path / "idx_rebuild"), store.read("ways"),
        store.read("relations"), n_buckets=16,
    )
    pd.testing.assert_frame_equal(
        _idx_entries_df(idx), _idx_entries_df(rebuilt)
    )
    assert len(res["windows"]) >= 2


def test_store_loop_auto_index(tmp_path):
    """r5: the scan-closure regime is retired — a store loop called
    WITHOUT an explicit RefIndex builds one under `<store>/_refindex`,
    reuses it on the next call, and rebuilds when the store was moved
    by windows the co-located index never saw (external-index case)."""
    import json
    import os

    from oluray.pipelines import stream

    mirror = _rich_mirror(tmp_path)
    client = rep.ReplicationClient(rep.LocalDirTransport(mirror))
    nodes_t, ways_t, rels_t = _snap_tables()
    store = SnapshotStore.create(
        str(tmp_path / "store"),
        {"nodes": ray.data.from_arrow(nodes_t),
         "ways": ray.data.from_arrow(ways_t),
         "relations": ray.data.from_arrow(rels_t)},
        n_buckets=16,
    )
    idx_root = os.path.join(store.root, "_refindex")

    res = stream.run_replication_windows_store(
        store, client, str(tmp_path / "geo"), sequence=3, window_size=2,
    )
    # index was auto-built and maintained per window
    assert os.path.exists(os.path.join(idx_root, "_refindex.json"))
    assert all("index_buckets" in w for w in res["windows"]
               if w["partitions"] > 0)

    # second call re-runs the same windows against the committed store
    # and reuses the same index untouched
    mtime = os.path.getmtime(os.path.join(idx_root, "_refindex.json"))
    res2 = stream.run_replication_windows_store(
        store, client, str(tmp_path / "geo2"), sequence=3, window_size=2,
    )
    assert [w["window_id"] for w in res2["windows"]] == \
        [w["window_id"] for w in res["windows"]]
    assert os.path.getmtime(
        os.path.join(idx_root, "_refindex.json")) == mtime

    # staleness: simulate a store window the co-located index never saw
    fake = os.path.join(store.root, "_windows", "w_external.json")
    with open(fake, "w") as f:
        json.dump({"window_id": "w_external", "kinds": {}}, f)
    idx = stream._ensure_ref_index(store)
    with open(os.path.join(idx_root, "_refindex.json")) as f:
        m = json.load(f)
    # rebuilt manifest now records the external window as seen-at-build
    assert "w_external" in m["store_windows_at_build"]
    assert idx.n_buckets == store.n_buckets
