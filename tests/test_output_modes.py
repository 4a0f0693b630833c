"""FILE / DEBUG_FILE output modes (the reference's SparqlOutput
enum, `/root/reference/include/config/Config.h:55-63` +
`src/sparql/SparqlWrapper.cpp:46-110`): updates are written as a
deterministic artifact and NOT applied; reads still run."""

from __future__ import annotations

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from oluray.sources import fixtures


def _inputs(store_windows):
    nodes, ways, rels = fixtures.make_snapshot(200, seed=42)
    ch = fixtures.make_changes(60, seed=7)
    store, idx = store_windows.store(nodes, ways, rels)
    return store, idx, ch


def _bucket_files(store) -> dict:
    return {
        f: os.path.getmtime(f)
        for f in glob.glob(os.path.join(store.root, "*", "bucket=*", "*"))
    }


def test_file_mode_writes_and_does_not_apply(store_windows, tmp_path):
    store, idx, ch = _inputs(store_windows)
    before = _bucket_files(store)
    assert before
    res, out = store_windows.apply(
        store, idx, ch, output_mode="file", artifact_dir=str(tmp_path / "w1"),
    )
    man = out["update_artifact"]
    assert res["artifact"] == man
    assert man["mode"] == "file"
    assert man["delete_rows"] > 0 and man["insert_blocks"] > 0
    # artifact on disk, deterministic shape
    d = str(tmp_path / "w1")
    assert json.load(open(f"{d}/_update.json")) == man
    dels = pq.read_table(f"{d}/deletes.parquet").to_pandas()
    assert list(dels.columns) == ["kind", "id"]
    assert len(dels) == man["delete_rows"]
    text = open(f"{d}/inserts.ttl", encoding="utf-8").read()
    assert text.startswith("@prefix")
    assert "rdf:type osm:node ." in text
    # snapshot NOT mutated: no store or index window, no bucket rewritten
    assert store.window_manifest("w1") is None
    assert idx.window_manifest("w1") is None
    assert "store_buckets" not in res
    assert _bucket_files(store) == before
    # reads still ran
    assert out["geo_delta"].count() > 0
    # FILE mode leaves no query dumps
    assert not os.path.isdir(f"{d}/queries")


def test_debug_file_mode_dumps_query_sets(store_windows, tmp_path):
    store, idx, ch = _inputs(store_windows)
    d = str(tmp_path / "w2")
    _, out = store_windows.apply(
        store, idx, ch, output_mode="debug_file", artifact_dir=d,
    )
    man = out["update_artifact"]
    assert man["mode"] == "debug_file"
    assert man["query_sets"] == ["impacted_relations", "impacted_ways"]
    iw = pq.read_table(f"{d}/queries/impacted_ways.parquet").to_pandas()
    assert list(iw.columns) == ["id"]
    assert (iw["id"].to_numpy()[:-1] <= iw["id"].to_numpy()[1:]).all()


def test_file_mode_artifact_matches_endpoint_delta(store_windows, tmp_path):
    """Same window in both modes: identical geo_delta (reads are
    mode-independent), and re-running FILE mode overwrites with an
    identical artifact (deterministic)."""
    import pandas as pd

    store, idx, ch = _inputs(store_windows)
    d = str(tmp_path / "w3")
    _, out_f = store_windows.apply(store, idx, ch,
                                   output_mode="file", artifact_dir=d)
    first = open(f"{d}/inserts.ttl", encoding="utf-8").read()
    store_e, idx_e, _ = _inputs(store_windows)
    _, out_e = store_windows.apply(store_e, idx_e, ch)
    key = ["kind", "id"]
    a = out_f["geo_delta"].to_pandas().sort_values(key).reset_index(drop=True)
    b = out_e["geo_delta"].to_pandas().sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_like=True)
    # determinism: second run reproduces the bytes
    store_windows.apply(store, idx, ch, output_mode="file", artifact_dir=d)
    assert open(f"{d}/inserts.ttl", encoding="utf-8").read() == first


def test_output_mode_validation(store_windows, tmp_path):
    store, idx, ch = _inputs(store_windows)
    with pytest.raises(ValueError, match="output_mode"):
        store_windows.apply(store, idx, ch, output_mode="bogus")
    with pytest.raises(ValueError, match="output_dir"):
        store_windows.apply(store, idx, ch, output_mode="file")
