"""The window body's Ray Data footprint and its two compositions: a
window of at most `closure.DRIVER_WINDOW_ROWS` rows runs on the
driver, a larger one (or a lazy input) runs as Ray Data dataflow, and
both commit the same store and index contents."""

import glob
import json
import logging
import os

import numpy as np
import ray.data

from oluray.sources import fixtures


class _ExecCounter(logging.Handler):
    """Counts Ray Data's "Starting execution of Dataset" log records —
    one per streaming execution."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("Starting execution of Dataset"):
            self.count += 1


def test_small_window_runs_at_most_one_ray_data_execution(store_windows):
    """Fetch-sized windows skip Ray Data, the geo-delta sink included."""
    nodes, ways, rels = fixtures.make_snapshot(200, seed=42)
    changes = fixtures.make_changes(30, seed=42)
    store, idx = store_windows.store(nodes, ways, rels)
    lg = logging.getLogger("ray.data")
    level, counter = lg.level, _ExecCounter()
    if lg.getEffectiveLevel() > logging.INFO:
        lg.setLevel(logging.INFO)
    lg.addHandler(counter)
    try:
        res, out = store_windows.apply(store, idx, changes)
    finally:
        lg.removeHandler(counter)
        lg.setLevel(level)
    assert res["rows"] == out["geo_delta"].count() > 0
    assert res["store_buckets"] and res["index_buckets"]
    assert counter.count == 0


def test_commit_store_paths_agree(store_windows):
    """The same window committed from a driver table and from a lazy
    Dataset (the distributed composition: Dataset staging writes,
    Dataset store inserts) leaves identical stores and indexes."""
    from oluray.pipelines import stream
    from oluray.stages.diff import merge_latest_wins

    snap = fixtures.make_snapshot(150, seed=3)
    changes = ray.data.from_arrow(fixtures.make_changes(25, seed=3))
    merged = merge_latest_wins(changes).materialize()
    lazy = merged.map_batches(lambda t: t, batch_format="pyarrow")
    pairs = []
    for m in (merged, lazy):
        store, idx = store_windows.store(*snap)
        stream._commit_store(store, idx, m, "w1")
        idx.apply_window("w1")
        pairs.append((store, idx))
    (sa, ia), (sb, ib) = pairs
    assert store_windows.contents(sa, ia) == store_windows.contents(sb, ib)


def test_driver_window_rows_selects_the_composition(monkeypatch):
    """The merged row count against `closure.DRIVER_WINDOW_ROWS` (and a
    lower `broadcast_limit`) picks the composition; a lazy input is
    never pulled to the driver."""
    from oluray.pipelines import update as upd
    from oluray.stages import closure
    from oluray.stages.diff import merge_latest_wins

    merged = merge_latest_wins(
        ray.data.from_arrow(fixtures.make_changes(25, seed=3))).materialize()
    n = merged.count()
    monkeypatch.setattr(closure, "DRIVER_WINDOW_ROWS", n)
    ops, frame = upd._ops_for(merged)
    assert isinstance(ops, upd._DriverOps) and frame.num_rows == n
    assert isinstance(upd._ops_for(merged, n - 1)[0], upd._DatasetOps)
    lazy = merged.map_batches(lambda t: t, batch_format="pyarrow")
    assert isinstance(upd._ops_for(lazy)[0], upd._DatasetOps)
    monkeypatch.setattr(closure, "DRIVER_WINDOW_ROWS", n - 1)
    ops, frame = upd._ops_for(merged)
    assert isinstance(ops, upd._DatasetOps) and frame is merged


def _feed(tmp_path, windows):
    """Replication mirror serving `windows` (lists of change rows) as
    sequences 1..n, and its client."""
    import gzip

    from oluray.sources import osc
    from oluray.sources import replication as rep

    root = tmp_path / "mirror"
    for seq, rows in enumerate(windows, start=1):
        p = root / osc.seq_path(seq)
        os.makedirs(p.parent, exist_ok=True)
        (p.parent / (p.name + ".state.txt")).write_text(
            f"sequenceNumber={seq}\ntimestamp=2024-01-01T{seq:02d}\\:00\\:00Z\n")
        (p.parent / (p.name + ".osc.gz")).write_bytes(
            gzip.compress(osc.write_osc(rows).encode("utf-8")))
    (root / "state.txt").write_text(
        f"sequenceNumber={len(windows)}\n"
        f"timestamp=2024-01-01T{len(windows):02d}\\:00\\:00Z\n")
    return rep.ReplicationClient(rep.LocalDirTransport(str(root)))


def _feed_windows():
    """Three windows of creates, modifies and deletes over the nodes,
    ways and relations of `fixtures.make_snapshot(200, seed=11)`."""
    return [fixtures.make_changes(20 + 5 * i, seed=20 + i).to_pylist()
            for i in range(3)]


def test_feed_window_starts_no_ray_data(store_windows, tmp_path, monkeypatch):
    """A driver-sized feed-loop window — fetch, merge, apply, sink and
    commit — runs with the Ray Data entry points patched to raise."""
    from oluray.pipelines import stream

    store, idx = store_windows.store(*fixtures.make_snapshot(200, seed=11))
    client = _feed(tmp_path, _feed_windows())

    def no_ray_data(*a, **kw):
        raise AssertionError("Ray Data called by a driver-sized window")

    with monkeypatch.context() as m:
        m.setattr(ray.data, "from_arrow", no_ray_data)
        m.setattr(ray.data, "read_parquet", no_ray_data)
        m.setattr(ray.data.Dataset, "materialize", no_ray_data)
        m.setattr(ray.data.Dataset, "write_parquet", no_ray_data)
        res = stream.run_replication_windows_store(
            store, client, str(tmp_path / "geo"), sequence=1, ref_index=idx)
    assert len(res["windows"]) == 3
    for w in res["windows"]:
        assert w["rows"] > 0 and w["partitions"] > 0
        assert store.window_manifest(w["window_id"]) is not None
        assert idx.window_manifest(w["window_id"]) is not None


def test_table_and_dataset_windows_agree(store_windows, tmp_path,
                                         monkeypatch, replication_oracle):
    """The same feed windows through the driver tables and through the
    distributed composition (`DRIVER_WINDOW_ROWS` 0) write the same
    geo-delta rows and sink partitions and leave the same store and
    index; both match the pure-Python replication oracle."""
    import pandas as pd
    import pyarrow.parquet as pq

    from oluray.functions import geo
    from oluray.pipelines import stream
    from oluray.sources import osc
    from oluray.stages import closure

    snap = fixtures.make_snapshot(200, seed=11)
    windows = _feed_windows()
    client = _feed(tmp_path, windows)
    runs = {}
    for name, limit in (("table", closure.DRIVER_WINDOW_ROWS), ("dataset", 0)):
        store, idx = store_windows.store(*snap)
        out = str(tmp_path / f"geo_{name}")
        with monkeypatch.context() as m:
            m.setattr(closure, "DRIVER_WINDOW_ROWS", limit)
            res = stream.run_replication_windows_store(
                store, client, out, sequence=1, ref_index=idx)
        deltas, sinks = [], []
        # the driver sink writes `data.parquet` per partition, Ray Data
        # names its files by write task
        files = {os.path.basename(f)
                 for f in glob.glob(f"{out}/*/part=*/*.parquet")}
        assert (files == {"data.parquet"}) == (name == "table"), files
        for w in res["windows"]:
            wdir = f"{out}/{w['window_id']}"
            deltas.append(pq.read_table(wdir).to_pandas()
                          .sort_values(["kind", "id"]).reset_index(drop=True))
            with open(f"{wdir}/_manifest.json") as f:
                sinks.append({k: p["rows"] for k, p in
                              json.load(f)["partitions"].items()})
        runs[name] = (deltas, sinks, store_windows.contents(store, idx))

    (d_t, s_t, c_t), (d_d, s_d, c_d) = runs["table"], runs["dataset"]
    assert s_t == s_d and all(s_t)
    assert c_t == c_d
    for a, b in zip(d_t, d_d):
        pd.testing.assert_frame_equal(a, b, check_exact=True)

    parsed = [osc.parse_osc_bytes(osc.decompress(client.change_bytes(s)))
              for s in range(1, len(windows) + 1)]
    exp_deltas, exp_snap = replication_oracle(*snap, parsed)
    cols = ["kind", "id", "lon", "lat", "cell",
            "min_lon", "min_lat", "max_lon", "max_lat"]
    for got, exp in zip(d_t, exp_deltas):
        part = got["part"].astype(str).astype("int64").to_numpy()
        np.testing.assert_array_equal(
            part, geo.cell_parent(got["cell"].to_numpy(), 2))
        got = got[cols].copy()
        got["kind"] = got["kind"].astype(object)
        pd.testing.assert_frame_equal(got, exp[cols], check_exact=True)
    for kind in ("nodes", "ways", "relations"):
        assert c_t[kind] == exp_snap[kind].sort_by("id").to_pylist(), kind
