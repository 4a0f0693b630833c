"""Resumable partitioned output: manifest, skip-finished, idempotence."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from oluray.pipelines import flagship
from oluray.sources import fixtures
from oluray.state import checkpoint


def _run(tmp, window):
    images = fixtures.make_images(200, seed=42)
    lon, lat = fixtures.footprint_from_phash(images["phash"].to_numpy())
    centers = [(lon[i], lat[i]) for i in range(0, len(lon), 30)]
    polys = fixtures.make_change_polys(
        8, seed=42, span_deg=20.0, centers=centers[:6]
    )
    return flagship.run_window(
        ray.data.from_arrow(images), polys, str(tmp), window,
        pip_res=7,
    )


def test_write_and_manifest(tmp_path):
    man = _run(tmp_path / "out", "w1")
    assert len(man.partitions) > 0
    for part, info in man.partitions.items():
        assert info["status"] == "done"
        assert info["rows"] > 0
        assert info["rows_per_sec"] is None or info["rows_per_sec"] > 0
        assert info["lineage"]["window_id"] == "w1"
        pdir = os.path.join(tmp_path, "out", f"part={part}")
        assert os.path.isdir(pdir)
        n = sum(pq.ParquetFile(f).metadata.num_rows for f in glob.glob(pdir + "/*.parquet"))
        assert n == info["rows"]


def test_rerun_same_window_skips_partitions(tmp_path):
    out = tmp_path / "out"
    man1 = _run(out, "w1")
    stamp1 = {p: i["finished_at"] for p, i in man1.partitions.items()}
    rows1 = {p: i["rows"] for p, i in man1.partitions.items()}
    man2 = _run(out, "w1")  # same window: everything skipped
    assert {p: i["rows"] for p, i in man2.partitions.items()} == rows1
    # data identical after rerun (idempotent delete-then-insert)
    files = sorted(glob.glob(str(out / "part=*" / "*.parquet")))
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    assert total == sum(rows1.values())
    assert stamp1 == {p: i["finished_at"] for p, i in man1.partitions.items()}


def test_new_window_replaces(tmp_path):
    out = tmp_path / "out"
    _run(out, "w1")
    man2 = _run(out, "w2")  # new window: stale manifest discarded
    with open(out / "_manifest.json") as fh:
        data = json.load(fh)
    assert data["window_id"] == "w2"
    assert all(i["status"] == "done" for i in man2.partitions.values())


def test_partial_resume(tmp_path):
    out = tmp_path / "out"
    man = _run(out, "w1")
    # simulate a crash: drop one partition's data + mark it pending
    victim = sorted(man.partitions)[0]
    man.partitions[victim]["status"] = "pending"
    man.save()
    import shutil

    shutil.rmtree(out / f"part={victim}")
    man2 = _run(out, "w1")
    assert man2.is_done(victim)
    assert os.path.isdir(out / f"part={victim}")


def test_resume_with_encoded_string_partition_keys(tmp_path):
    """Hive dirs URL-encode special chars ('a b' -> part=a%20b); the
    manifest must store DECODED keys or the resume filter misses and
    rows get written twice. Same for Dataset and table input."""
    t = pa.table(
        {"v": pa.array([1, 2, 3, 4], pa.int64()),
         "part": pa.array(["a b", "a b", "c/d", "c/d"])}
    )
    for kind in SINK_INPUTS:
        out = str(tmp_path / f"enc_{kind}")
        man1 = checkpoint.write_partitioned_resumable(
            _sink_input(kind, t), out, "w1", part_col="part"
        )
        assert sorted(man1.partitions) == ["a b", "c/d"]
        assert sorted(os.listdir(out)) == [
            "_manifest.json", "part=a%20b", "part=c%2Fd"]
        rows1 = {p: i["rows"] for p, i in man1.partitions.items()}
        # rerun: everything must be SKIPPED (not duplicated)
        man2 = checkpoint.write_partitioned_resumable(
            _sink_input(kind, t), out, "w1", part_col="part"
        )
        assert {p: i["rows"] for p, i in man2.partitions.items()} == rows1
        total = sum(
            pq.ParquetFile(f).metadata.num_rows
            for f in glob.glob(os.path.join(out, "part=*", "*.parquet"))
        )
        assert total == 4  # no duplicate rows after the rerun


SINK_INPUTS = ("dataset", "table")


def _sink_input(kind, t):
    return ray.data.from_arrow(t) if kind == "dataset" else t


def _keyed(n=60, parts=4, scale=3):
    k = np.arange(n, dtype=np.int64)
    return pa.table({"k": k, "v": k * scale, "part": k % parts})


def _sink_rows(out):
    """(k, v) rows read back through the hive dirs, sorted by k."""
    return pq.read_table(out, columns=["k", "v"]).sort_by("k")


@pytest.mark.parametrize("kind", SINK_INPUTS)
def test_sink_partial_resume(tmp_path, kind):
    """A partition marked pending with its dir gone is rewritten on
    the re-run; the finished ones are skipped, and no row doubles."""
    out = str(tmp_path / "out")
    t = _keyed()
    man = checkpoint.write_partitioned_resumable(_sink_input(kind, t), out, "w1")
    assert {p: i["rows"] for p, i in man.partitions.items()} == \
        {"0": 15, "1": 15, "2": 15, "3": 15}
    stamps = {p: i["finished_at"] for p, i in man.partitions.items()}
    victim = sorted(man.partitions)[0]
    man.partitions[victim]["status"] = "pending"
    man.save()
    shutil.rmtree(os.path.join(out, f"part={victim}"))
    man2 = checkpoint.write_partitioned_resumable(_sink_input(kind, t), out, "w1")
    assert all(man2.is_done(p) for p in stamps)
    assert {p: i["finished_at"] for p, i in man2.partitions.items()
            if p != victim} == {p: s for p, s in stamps.items() if p != victim}
    assert _sink_rows(out).equals(t.select(["k", "v"]))


@pytest.mark.parametrize("kind", SINK_INPUTS)
def test_sink_removes_stale_partitions(tmp_path, kind):
    """A new window replaces the old one's partitions, and a partition
    dir its manifest does not mark done is deleted before the write."""
    out = str(tmp_path / "out")
    checkpoint.write_partitioned_resumable(_sink_input(kind, _keyed()), out, "w1")
    w2 = _keyed(20, parts=2, scale=5)
    man = checkpoint.write_partitioned_resumable(_sink_input(kind, w2), out, "w2")
    assert sorted(man.partitions) == ["0", "1"]
    assert sorted(d for d in os.listdir(out) if d.startswith("part=")) == \
        ["part=0", "part=1"]
    assert _sink_rows(out).equals(w2.select(["k", "v"]))
    # an orphan dir (a crashed writer's) is swept on the next run
    orphan = os.path.join(out, "part=7")
    os.makedirs(orphan)
    pq.write_table(pa.table({"k": [999], "v": [0]}),
                   os.path.join(orphan, "x.parquet"))
    checkpoint.write_partitioned_resumable(_sink_input(kind, w2), out, "w2")
    assert not os.path.exists(orphan)
    assert _sink_rows(out).equals(w2.select(["k", "v"]))


def test_table_sink_crash_at_kth_partition_reruns_without_duplicates(
        tmp_path, monkeypatch):
    """A table write that dies inside `write_partition` at the third
    partition (its tmp dir left behind) re-runs to the same rows, each
    once, with every partition done."""
    out = str(tmp_path / "out")
    t = _keyed(80, parts=5)
    real, calls = checkpoint.write_partition, []

    def crash_third(table, out_dir, part, part_col="part"):
        calls.append(part)
        if len(calls) == 3:
            os.makedirs(os.path.join(out_dir, f"{part_col}={part}.tmp"))
            raise OSError("write failed")
        return real(table, out_dir, part, part_col)

    monkeypatch.setattr(checkpoint, "write_partition", crash_third)
    with pytest.raises(OSError):
        checkpoint.write_partitioned_resumable(t, out, "w1")
    assert len(glob.glob(os.path.join(out, "part=*"))) == 3
    man = checkpoint.write_partitioned_resumable(t, out, "w1")
    assert sorted(man.partitions) == ["0", "1", "2", "3", "4"]
    assert all(man.is_done(p) for p in man.partitions)
    assert sum(i["rows"] for i in man.partitions.values()) == 80
    assert not glob.glob(os.path.join(out, "*.tmp"))
    assert _sink_rows(out).equals(t.select(["k", "v"]))


def test_run_job_entrypoint(tmp_path):
    """`tools/run_job.py` (the `ray job submit` entrypoint): runs a
    window from parquet paths, prints metrics, and a re-submission is
    a per-partition no-op."""
    import json
    import pyarrow.parquet as pq
    from oluray.sources import fixtures
    from tools.run_job import main

    images = fixtures.make_images(200, 7)
    lon, lat = fixtures.footprint_from_phash(images["phash"].to_numpy())
    centers = list(zip(lon.tolist(), lat.tolist()))[:4]
    polys = fixtures.make_change_polys(4, 7, centers=centers)
    img_path = str(tmp_path / "images.parquet")
    poly_path = str(tmp_path / "polys.parquet")
    pq.write_table(images, img_path)
    pq.write_table(polys, poly_path)
    out = str(tmp_path / "out")

    m1 = main(["--images", img_path, "--polys", poly_path,
               "--out", out, "--window-id", "wjob"])
    assert m1["rows"] > 0 and m1["partitions"] >= 1
    man1 = json.load(open(f"{out}/_manifest.json"))
    t1 = {k: v["finished_at"] for k, v in man1["partitions"].items()}

    m2 = main(["--images", img_path, "--polys", poly_path,
               "--out", out, "--window-id", "wjob"])
    man2 = json.load(open(f"{out}/_manifest.json"))
    assert {k: v["finished_at"] for k, v in man2["partitions"].items()} == t1
    assert m2["rows"] == m1["rows"]  # metrics read from the manifest


def _multi_file_sink(tmp):
    """A resumable write whose partitions each hold SEVERAL parquet
    files (many producing blocks), for compaction tests."""
    import numpy as np
    import pandas as pd

    df = pd.DataFrame({
        "k": np.arange(4000, dtype=np.int64),
        "v": np.arange(4000, dtype=np.int64) * 3,
        "part": (np.arange(4000) % 3).astype("int64"),
    })
    ds = ray.data.from_pandas(df).repartition(8)
    return checkpoint.write_partitioned_resumable(ds, str(tmp), "wc")


def test_compact_partitions_merges_files_and_preserves_rows(tmp_path):
    out = tmp_path / "out"
    _multi_file_sink(out)
    before = pq.read_table(str(out)).sort_by("k")
    n_files_before = {
        d: len(glob.glob(os.path.join(str(out), d, "*.parquet")))
        for d in os.listdir(str(out)) if d.startswith("part=")
    }
    assert any(n > 1 for n in n_files_before.values())

    summary = checkpoint.compact_partitions(str(out), "wc")
    assert summary  # something was compacted
    for key, info in summary.items():
        assert info["files_after"] == 1
        assert info["files_before"] > 1

    after = pq.read_table(str(out)).sort_by("k")
    assert after.equals(before)  # not a single row changed
    for d in os.listdir(str(out)):
        if d.startswith("part=") and not d.endswith((".old", ".compact-tmp")):
            assert len(glob.glob(os.path.join(str(out), d, "*.parquet"))) == 1
    man = json.load(open(os.path.join(str(out), "_manifest.json")))
    assert all(p.get("compacted_files") == 1
               for p in man["partitions"].values())

    # idempotent: second run is a no-op
    assert checkpoint.compact_partitions(str(out), "wc") == {}


def test_resume_write_recovers_interrupted_compaction(tmp_path):
    """ADVICE r3 (high): a crash between compaction's two renames
    leaves `part=<k>.old` as the ONLY copy; the manifest still marks
    <k> done, so a resumed `write_partitioned_resumable` filters <k>'s
    rows out of the rewrite AND its stale sweep used to rmtree the
    `.old` dir (key '<k>.old' is never in done_parts) — silent
    permanent loss through the sink's normal resume entry point. The
    writer must run the recovery sweep first and never treat swap
    artifacts as stale."""
    import pandas as pd

    out = tmp_path / "out"
    _multi_file_sink(out)
    before = pq.read_table(str(out)).sort_by("k")

    # mid-swap crash: live dir renamed away, .old is the only copy
    d = sorted(glob.glob(os.path.join(str(out), "part=*")))[0]
    os.replace(d, d + ".old")
    assert not os.path.exists(d)

    # resume through the WRITER (same window): rows for done partitions
    # are filtered out, so only recovery can bring <k>'s data back
    df = pd.DataFrame({
        "k": [99999], "v": [0], "part": pd.array([0], dtype="int64"),
    })
    checkpoint.write_partitioned_resumable(
        ray.data.from_pandas(df), str(out), "wc"
    )
    assert os.path.exists(d), ".old partition must be restored, not swept"
    assert not glob.glob(os.path.join(str(out), "part=*.old"))
    after = pq.read_table(str(out)).sort_by("k")
    # every original row survives (the injected row was filtered as done)
    assert after.equals(before)


def test_compact_partitions_crash_recovery(tmp_path):
    out = tmp_path / "out"
    _multi_file_sink(out)
    before = pq.read_table(str(out)).sort_by("k")
    # simulate a crash between the two renames: live dir moved to .old
    d = sorted(glob.glob(os.path.join(str(out), "part=*")))[0]
    os.replace(d, d + ".old")
    assert not os.path.exists(d)
    checkpoint.compact_partitions(str(out), "wc")
    # recovery restored the partition, then compaction ran over it
    assert os.path.exists(d)
    after = pq.read_table(str(out)).sort_by("k")
    assert after.equals(before)
