"""Latest-wins merge-dedup semantics vs the reference comparator
(`/root/reference/src/osm/OsmUpdater.cpp:119-168`)."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from oluray.sources import fixtures
from oluray.stages import diff


def _merged_df(tbl: pa.Table) -> pd.DataFrame:
    ds = ray.data.from_arrow(tbl)
    out = diff.merge_latest_wins(ds).to_pandas()
    return out.sort_values(["kind", "id"]).reset_index(drop=True)


def test_latest_version_wins():
    tbl = fixtures.make_changes(10, seed=42)
    out = _merged_df(tbl)
    # node 1000 appears at v1/v2/v3 (+ its base row): winner is max version
    row = out[(out["kind"] == "node") & (out["id"] == 1000)]
    assert len(row) == 1
    assert row["version"].iloc[0] == 3
    assert row["op"].iloc[0] == "delete"  # modify-then-delete: delete wins


def test_unique_per_kind_id():
    tbl = fixtures.make_changes(25, seed=42)
    out = _merged_df(tbl)
    assert not out.duplicated(subset=["kind", "id"]).any()


def test_deleted_tiebreak_at_equal_version():
    rows = [
        dict(op="modify", kind="node", id=1, version=5, ts=1000, payload=None),
        dict(op="delete", kind="node", id=1, version=5, ts=900, payload=None),
    ]
    tbl = pa.Table.from_pylist(rows, schema=fixtures.CHANGES_SCHEMA)
    out = _merged_df(tbl)
    # reference comparator: deleted sorts first at equal version
    assert out["op"].iloc[0] == "delete"


def test_ts_tiebreak_at_equal_version_and_flag():
    rows = [
        dict(op="modify", kind="node", id=1, version=5, ts=900, payload=None),
        dict(op="modify", kind="node", id=1, version=5, ts=1000, payload=None),
    ]
    tbl = pa.Table.from_pylist(rows, schema=fixtures.CHANGES_SCHEMA)
    out = _merged_df(tbl)
    assert out["ts"].iloc[0] == pd.Timestamp(1000, unit="ms")


def test_empty_diff_raises():
    empty = pa.Table.from_pylist([], schema=fixtures.CHANGES_SCHEMA)
    with pytest.raises(diff.EmptyDiffError):
        diff.merge_latest_wins(ray.data.from_arrow(empty))


def test_driver_merge_matches_shuffle_merge():
    """An in-memory input merges on the driver, a lazy one through the
    hash shuffle: same winners, same columns; both reject an empty
    diff."""
    tbl = fixtures.make_changes(25, seed=42)

    def rows(ds):
        t = pa.concat_tables(
            [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
             for b in ds.iter_batches(batch_format="pyarrow")])
        return t.sort_by([("kind", "ascending"), ("id", "ascending")])

    def lazy(t):
        return ray.data.from_arrow(t).map_batches(lambda b: b,
                                                  batch_format="pyarrow")

    drv = rows(diff.merge_latest_wins(ray.data.from_arrow(tbl)))
    shuf = rows(diff.merge_latest_wins(lazy(tbl)))
    assert drv.num_rows > 0
    assert sorted(drv.column_names) == sorted(shuf.column_names)
    assert drv.to_pylist() == shuf.select(drv.column_names).to_pylist()
    with pytest.raises(diff.EmptyDiffError):
        diff.merge_latest_wins(lazy(tbl.slice(0, 0)))


def test_classify_counts():
    tbl = fixtures.make_changes(12, seed=42)
    counts = diff.classify_counts(ray.data.from_arrow(tbl)).to_pandas()
    assert counts["count()"].sum() == tbl.num_rows
    assert set(counts["kind"]) <= {"node", "way", "relation"}


def test_multipolygon_predicate():
    tbl = fixtures.make_changes(5, seed=42)
    flagged = diff.is_multipolygon(tbl)
    by_id = {
        (r["kind"], r["id"]): r["is_multipolygon"] for r in flagged.to_pylist()
    }
    assert by_id[("relation", 7000)] is True
    assert by_id[("relation", 7001)] is False
