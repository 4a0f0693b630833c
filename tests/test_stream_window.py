"""The window body's Ray Data footprint and its two compositions: a
window of at most `closure.DRIVER_WINDOW_ROWS` rows runs on the
driver, a larger one (or a lazy input) runs as Ray Data dataflow, and
both commit the same store and index contents."""

import logging

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
    """Fetch-sized windows skip Ray Data except for the geo-delta sink."""
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
    assert counter.count <= 1


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
