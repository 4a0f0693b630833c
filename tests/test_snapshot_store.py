"""Bucket-pruned persistent snapshot store (VERDICT r3 item 1): the
continuous window loop's scale-shaped snapshot — per window, no
untouched bucket is rewritten (the reference's in-place point-update
semantics, `src/osm/OsmChangeHandler.cpp:493-575`; a window appends
one delta file per kind, `state.lsm`), while the store loop must agree
exactly with a pure-Python replay of the same windows on geo deltas
and the final snapshot."""

import glob
import gzip
import inspect
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
    return _write_mirror(root, seqs)


def _write_mirror(root, seqs):
    """Replication mirror under `root` serving `seqs` (sequence ->
    change rows), its `state.txt` at the last sequence."""
    for i, (seq, rows) in enumerate(sorted(seqs.items())):
        p = root / osc.seq_path(seq)
        os.makedirs(p.parent, exist_ok=True)
        ts = f"2024-01-01T{i:02d}\\:00\\:00Z"
        (p.parent / (p.name + ".state.txt")).write_text(
            f"sequenceNumber={seq}\ntimestamp={ts}\n"
        )
        (p.parent / (p.name + ".osc.gz")).write_bytes(_osc_doc(rows))
    (root / "state.txt").write_text(
        f"sequenceNumber={max(seqs)}\n"
        f"timestamp=2024-01-01T{len(seqs) - 1:02d}\\:00\\:00Z\n"
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


@pytest.mark.parametrize("test", [
    test_store_loop_matches_oracle,
    test_store_apply_prunes_buckets,
    test_store_apply_idempotent_and_crash_recovery,
    test_store_loop_resume_mid_window,
    test_indexed_loop_matches_plain_store_loop,
    test_indexed_loop_crash_between_store_and_index_apply,
    test_store_loop_auto_index,
], ids=lambda t: t.__name__)
def test_store_windows_on_delta_log(test, request, monkeypatch):
    """The window tests above with compaction off: fixture kinds are a
    few KB, so under the default bounds every window compacts and
    their reads never merge a live delta. Here every window appends
    delta files and no window compacts, so the same assertions cover
    the delta-merge reads."""
    from oluray.state import lsm

    monkeypatch.setattr(lsm, "MAX_DELTA_FRACTION", float("inf"))
    monkeypatch.setattr(lsm, "MAX_DELTA_FILES", 1 << 30)
    calls = {"append": 0, "compact": 0}

    def counted(name):
        real = getattr(lsm.DeltaLog, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return real(*a, **kw)
        return wrapper

    for name in calls:
        monkeypatch.setattr(lsm.DeltaLog, name, counted(name))
    test(**{p: request.getfixturevalue(p)
            for p in inspect.signature(test).parameters})
    assert calls["append"] > 0 and calls["compact"] == 0


# ---------------------------------------------------------------------------
# delta log (`state.lsm`): per-window delta files, compaction, reopen
# ---------------------------------------------------------------------------


def _owners_probe(idx, wrap=lambda keys: keys):
    """Every owner query the window body makes, over all snapshot-range
    keys (passed through `wrap`): way and relation owners of nodes,
    relation owners of ways."""
    keys = np.r_[np.arange(1000, 1200), np.arange(5000, 5100),
                 np.arange(99_000, 99_200)].astype(np.int64)
    ways, rels = idx.owners_of(wrap(keys), ("node",), ("way", "relation"))
    return (sorted(ways.tolist()), sorted(rels.tolist()),
            sorted(idx.owners_of(wrap(keys), ("way",), "relation").tolist()))


def _dataset_keys(ids):
    """`ids` as a dataset-backed KeySet: the backfill read paths."""
    from oluray.stages import closure

    return closure.distinct_keys(
        ray.data.from_arrow(pa.table({"id": pa.array(ids, pa.int64())})),
        "id", limit=0)


def _swap_artifacts(*roots):
    return [p for r in roots for p in glob.glob(os.path.join(r, "**", "bucket=*"),
                                                 recursive=True)
            if p.endswith((".old", ".apply-tmp"))]


def _three_windows(store_windows):
    snap = fixtures.make_snapshot(150, seed=5)
    store, idx = store_windows.store(*snap)
    for i in range(3):
        store_windows.apply(store, idx, fixtures.make_changes(25, seed=10 + i),
                            window_id=f"w{i}")
    return store, idx


@pytest.mark.parametrize(
    "point", ["tmp_written", "between_renames", "before_retire", "mid_retire"])
def test_compaction_crash_points_converge(store_windows, monkeypatch, point):
    """A compaction interrupted after a bucket's tmp write, between its
    two renames, before the deltas are retired, or midway through
    retiring them: reads right after the crash, and the state after
    compaction is re-run, equal an uninterrupted compaction's."""
    from oluray.state import lsm
    from oluray.state.refindex import RefIndex

    # fixture kinds are a few KB, so any delta passes the default
    # fraction bound: lift it to keep the deltas live until compact()
    monkeypatch.setattr(lsm, "MAX_DELTA_FRACTION", float("inf"))
    ref_store, ref_idx = _three_windows(store_windows)
    ref_store.compact("nodes")
    ref_idx.compact()
    want = store_windows.contents(ref_store, ref_idx)
    want_owners = _owners_probe(ref_idx)

    store, idx = _three_windows(store_windows)
    assert store_windows.contents(store, idx) == want  # compaction is invisible
    real_replace, real_remove = os.replace, os.remove
    seen = {"n": 0}

    def nth(hit: bool) -> None:
        # crash on the SECOND matching call: one bucket (or delta) done
        seen["n"] += hit
        if hit and seen["n"] == 2:
            raise RuntimeError(f"injected crash at {point}")

    def replace(src, dst):
        nth((point == "tmp_written" and dst.endswith(".old"))
            or (point == "between_renames" and src.endswith(".apply-tmp")))
        return real_replace(src, dst)

    def remove(path):
        nth(point == "mid_retire" and "_delta" in path)
        return real_remove(path)

    def retire(self, names):
        raise RuntimeError(f"injected crash at {point}")

    for compact in (lambda: store.compact("nodes"), idx.compact):
        seen["n"] = 0
        with monkeypatch.context() as m:
            m.setattr(os, "replace", replace)
            m.setattr(os, "remove", remove)
            if point == "before_retire":
                m.setattr(lsm.DeltaLog, "retire", retire)
            with pytest.raises(RuntimeError, match="injected"):
                compact()
    if point == "mid_retire":
        assert len(store._logs["nodes"].live()) == 2  # the newest two
    assert store_windows.contents(store, idx) == want
    assert _owners_probe(idx) == want_owners

    # re-run: the committed window short-circuits, compaction finishes
    assert store.apply_window("w2", {}) == store.window_manifest("w2")
    store.compact("nodes")
    idx.compact()
    assert not store._logs["nodes"].live() and not idx.log.live()
    assert not _swap_artifacts(store.root, idx.root)
    assert store_windows.contents(store, idx) == want
    assert _owners_probe(idx) == want_owners
    again = SnapshotStore(store.root), RefIndex(idx.root)
    assert store_windows.contents(*again) == want


def test_delta_log_matches_oracle(tmp_path, monkeypatch, replication_oracle):
    """Four one-sequence windows that change the same ids again and
    again, against the pure-Python oracle: the store and index state
    with the deltas live (newest delta wins), after compaction, and
    reopened from disk; and a loop whose every window passes the
    delta-file bound, so each compacts inside `apply_window`."""
    from oluray.pipelines import stream
    from oluray.state import lsm
    from oluray.state.refindex import RefIndex

    ts = 1_700_000_000_000

    def node(op, eid, lon=None, lat=None):
        return {"op": op, "kind": "node", "id": eid, "version": 9,
                "ts": ts, "payload": _payload(lon=lon, lat=lat)}

    def way(eid, refs):
        return {"op": "modify", "kind": "way", "id": eid, "version": 9,
                "ts": ts, "payload": _payload(nd_refs=refs)}

    def rel(eid, members):
        return {"op": "modify", "kind": "relation", "id": eid, "version": 9,
                "ts": ts, "payload": _payload(members=members,
                                             tags=[("type", "route")])}

    # the same ids change in several windows: moves, delete then
    # re-create, and owners whose member lists change twice
    mirror = _write_mirror(tmp_path / "mirror", {
        3: [node("modify", 1000, 1.5, 2.5), way(5001, [1000, 1001, 1002]),
            rel(7001, [{"ref": 5002, "type": "way", "role": "outer"}])],
        4: [node("modify", 1000, 3.5, 4.5), node("delete", 1003),
            way(5001, [1004, 1005])],
        5: [node("create", 1003, 5.5, 6.5), way(5002, [1000, 99_010]),
            rel(7001, [{"ref": 1004, "type": "node", "role": ""},
                       {"ref": 5001, "type": "way", "role": "outer"}])],
        6: [node("delete", 1000), node("modify", 99_010, 7.5, 8.5)],
    })
    client = rep.ReplicationClient(rep.LocalDirTransport(mirror))
    nodes_t, ways_t, rels_t = _snap_tables()

    def run(name):
        store = SnapshotStore.create(
            str(tmp_path / name),
            {"nodes": ray.data.from_arrow(nodes_t),
             "ways": ray.data.from_arrow(ways_t),
             "relations": ray.data.from_arrow(rels_t)}, n_buckets=16,
        )
        idx = RefIndex.create(str(tmp_path / f"{name}_idx"),
                              store.read("ways"), store.read("relations"),
                              n_buckets=16)
        res = stream.run_replication_windows_store(
            store, client, str(tmp_path / f"{name}_geo"), sequence=3,
            window_size=1, ref_index=idx)
        return store, idx, res

    # fixture kinds are a few KB, so any delta passes the default
    # fraction bound: lift it to keep the deltas live
    monkeypatch.setattr(lsm, "MAX_DELTA_FRACTION", float("inf"))
    store, idx, res = run("logged")
    windows = [
        osc.parse_osc_bytes(osc.decompress(client.change_bytes(w["first_seq"])))
        for w in res["windows"]
    ]
    assert len(windows) == 4
    exp_deltas, exp_snap = replication_oracle(nodes_t, ways_t, rels_t, windows)
    cols = ["kind", "id", "lon", "lat", "cell",
            "min_lon", "min_lat", "max_lon", "max_lat"]
    for w, exp in zip(res["windows"], exp_deltas):
        got = pq.read_table(f"{tmp_path}/logged_geo/{w['window_id']}").to_pandas()
        got = got.sort_values(["kind", "id"]).reset_index(drop=True)[cols]
        got["kind"] = got["kind"].astype(object)
        pd.testing.assert_frame_equal(got, exp[cols], check_exact=True)
    exp_idx = RefIndex.create(
        str(tmp_path / "oracle_idx"), ray.data.from_arrow(exp_snap["ways"]),
        ray.data.from_arrow(exp_snap["relations"]), n_buckets=16)

    from oluray.state import snapshot

    def check(store, idx):
        for kind in ("nodes", "ways", "relations"):
            exp = _norm(_sorted_pdf(exp_snap[kind].to_pandas()))
            got = _norm(_sorted_pdf(store.read(kind)))
            pd.testing.assert_frame_equal(got, exp, check_like=True)
            ids = exp_snap[kind]["id"].to_numpy()
            ids = np.r_[ids, np.arange(ids.max() + 1, ids.max() + 50)]
            got = _norm(_sorted_pdf(store.lookup(kind, _dataset_keys(ids))))
            pd.testing.assert_frame_equal(got, exp, check_like=True)
            for local_bytes in (snapshot.LOCAL_READ_BYTES, 0):
                with monkeypatch.context() as m:  # driver / Dataset read
                    m.setattr(snapshot, "LOCAL_READ_BYTES", local_bytes)
                    got = _norm(_sorted_pdf(store.lookup(kind, ids)))
                    pd.testing.assert_frame_equal(got, exp, check_like=True)
                    assert _owners_probe(idx) == _owners_probe(exp_idx)
        pd.testing.assert_frame_equal(_idx_entries_df(idx),
                                      _idx_entries_df(exp_idx))
        assert _owners_probe(idx, _dataset_keys) == _owners_probe(exp_idx)

    assert store._logs["nodes"].live() and idx.log.live()
    check(store, idx)
    for kind in store.kinds:
        store.compact(kind)
    idx.compact()
    assert not idx.log.live()
    check(store, idx)
    check(SnapshotStore(store.root), RefIndex(idx.root))

    # every window past the bound: compaction inside the window commit
    monkeypatch.setattr(lsm, "MAX_DELTA_FILES", 0)
    store, idx, res = run("compacting")
    for w in res["windows"]:
        man = store.window_manifest(w["window_id"])
        assert "nodes" in man["compaction"]
        rows = man["kinds"]["nodes"]["rows_after"]
        assert any(k.startswith("bucket=") for k in rows)
        assert any(k.startswith("_delta/nodes/") for k in rows)
        assert "compaction" in idx.window_manifest(w["window_id"])
    assert not store._logs["nodes"].live() and not idx.log.live()
    check(store, idx)


def test_seg_stats_adds_members_in_order():
    """Each centroid equals a sequential in-order sum over the key's
    members, bit for bit, for segments of 1 to 40 rows given in any
    row order."""
    from oluray.pipelines.update import seg_stats

    rng = np.random.default_rng(0)
    lens = rng.integers(1, 41, 500)
    pts = rng.uniform(-90.0, 90.0, (int(lens.sum()), 2))
    df = pd.DataFrame({"k": np.repeat(np.arange(500), lens),
                       "pos": np.concatenate([np.arange(n) for n in lens]),
                       "lon": pts[:, 0], "lat": pts[:, 1]})
    got = seg_stats(df.sample(frac=1.0, random_state=1), "k")
    exp, off = [], 0
    for n in lens:
        sx = sy = 0.0
        for x, y in pts[off:off + n]:
            sx += x
            sy += y
        exp.append((sx / n, sy / n))
        off += n
    assert list(zip(got["lon"], got["lat"])) == exp


def test_way_centroid_adds_members_in_order(store_windows, replication_oracle):
    """A way centroid is the mean of its member locations added in
    member order, bit for bit: moving node 1000 to (1.5, 2.5) gives
    way 5004 a latitude sum that pairwise addition rounds differently
    in the last bit."""
    nodes_t, ways_t, rels_t = _snap_tables()
    row = {"op": "modify", "kind": "node", "id": 1000, "version": 9,
           "ts": 1_700_000_000_000, "payload": _payload(lon=1.5, lat=2.5)}
    store, idx = store_windows.store(nodes_t, ways_t, rels_t)
    _, out = store_windows.apply(
        store, idx, pa.Table.from_pylist([row], schema=fixtures.CHANGES_SCHEMA))
    (exp,), _ = replication_oracle(nodes_t, ways_t, rels_t, [[row]])

    def way_5004(df):
        df = df[(df["kind"] == "way") & (df["id"] == 5004)]
        return df[["lon", "lat", "min_lon", "min_lat", "max_lon",
                   "max_lat"]].reset_index(drop=True)

    assert len(way_5004(exp)) == 1
    pd.testing.assert_frame_equal(way_5004(out["geo_delta"].to_pandas()),
                                  way_5004(exp), check_exact=True)


def test_window_without_compaction_rewrites_no_bucket(store_windows, monkeypatch):
    """A window below the compaction bounds leaves every bucket dir of
    the store and the index untouched (same mtime, same files), writes
    one delta file per changed kind and one for the index, and its
    commit starts no `ray.remote` task."""
    from oluray.pipelines import stream
    from oluray.stages.diff import merge_latest_wins
    from oluray.state import lsm

    # fixture kinds are a few KB, so any delta passes the default
    # fraction bound: lift it to get windows below the bounds
    monkeypatch.setattr(lsm, "MAX_DELTA_FRACTION", float("inf"))
    store, idx = store_windows.store(*fixtures.make_snapshot(150, seed=3))

    def buckets():
        return {p: (os.stat(p).st_mtime_ns, sorted(os.listdir(p)))
                for r in (store.root, idx.root)
                for p in glob.glob(os.path.join(r, "**", "bucket=*"),
                                   recursive=True)}

    before = buckets()
    assert len(before) > 8
    store_windows.apply(store, idx, fixtures.make_changes(25, seed=3), "w1")

    def no_remote(*a, **kw):
        raise AssertionError("ray.remote called by a window commit")

    merged = merge_latest_wins(
        ray.data.from_arrow(fixtures.make_changes(25, seed=4))).materialize()
    with monkeypatch.context() as m:
        m.setattr(ray, "remote", no_remote)
        man = stream._commit_store(store, idx, merged, "w2")
        idx.apply_window("w2")
    assert buckets() == before
    assert "compaction" not in man
    for w in ("w1", "w2"):
        for kind in ("nodes", "ways", "relations"):
            (name,) = store.window_manifest(w)["kinds"][kind]["rows_after"]
            assert name.startswith(f"_delta/{kind}/")
    assert [n.split("-", 1)[1] for n in store._logs["nodes"].live()] == \
        ["w1.parquet", "w2.parquet"]
    assert len(idx.log.live()) == 2


def test_uncommitted_delta_is_invisible_until_rerun(store_windows, monkeypatch):
    """A window commit that crashes after writing its delta files but
    before its manifest lands: no read sees those files, in this
    process or after reopening, and the re-run replaces them and
    commits the same state as a clean commit."""
    from oluray.pipelines import stream
    from oluray.stages.diff import merge_latest_wins
    from oluray.state import lsm
    from oluray.state.refindex import RefIndex

    # fixture kinds are a few KB, so any delta passes the default
    # fraction bound: lift it to keep the deltas live
    monkeypatch.setattr(lsm, "MAX_DELTA_FRACTION", float("inf"))
    snap = fixtures.make_snapshot(150, seed=3)
    merged = merge_latest_wins(
        ray.data.from_arrow(fixtures.make_changes(25, seed=3))).materialize()
    clean = store_windows.store(*snap)
    stream._commit_store(*clean, merged, "w1")
    clean[1].apply_window("w1")

    store, idx = store_windows.store(*snap)
    before = store_windows.contents(store, idx)

    def crash(windows_dir, man):
        raise RuntimeError("injected crash before the manifest")

    with monkeypatch.context() as m:
        m.setattr(lsm, "write_manifest", crash)
        with pytest.raises(RuntimeError, match="injected"):
            stream._commit_store(store, idx, merged, "w1")
    assert store._logs["nodes"].pending("w1") and idx.log.pending("w1")
    assert store_windows.contents(store, idx) == before
    assert store_windows.contents(
        SnapshotStore(store.root), RefIndex(idx.root)) == before

    stream._commit_store(store, idx, merged, "w1")
    idx.apply_window("w1")
    assert os.listdir(store._logs["nodes"].dir) == store._logs["nodes"].live()
    assert len(idx.log.live()) == 1
    assert store_windows.contents(store, idx) == \
        store_windows.contents(*clean) != before
