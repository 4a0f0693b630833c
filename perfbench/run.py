"""oluray benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of an oluray checkout. Workloads:

- `assign_window`: `flagship.run_window` over a parquet image
  projection against changeset polygons anchored on image footprints,
  followed by `spatial.knn_join` of the same images against point
  features. One window = both calls.
- `replication_minutely`: `stream.run_replication_windows_store` over
  a bucketed `SnapshotStore` + `RefIndex`, fed one small OsmChange
  sequence at a time by rewriting the mirror's `state.txt`.

Load is a closed loop with one client: each window starts after the
previous one commits. Inputs come from `--seed` only. The last stdout
line is one JSON object: `correct`, `attempted`, `failed`, `metrics`;
with `--trace 0` the end-to-end metrics, with `--trace 1` the
per-layer ones from a traced window (see README.md).

`--scale tiny` and `--corrupt 1` exist for `perfbench/smoke.py`.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

RAY_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20
# host CPUs each workload's process tree (this process, GCS, raylet, workers)
# is pinned to. Unpinned, Ray's parallel stages race for the host's
# CPUs and per-run medians spread 2-3x wider; these counts gave the
# steadiest window times.
PIN_CPUS = {"assign_window": 1, "replication_minutely": 2}

SCALES = {
    "full": dict(
        images=40_000, shards=8, polys=256, span_deg=10.0, features=4096,
        sample=256, nodes=250_000, ways=25_000, rels=2_500, buckets=64,
        minutely=dict(moves=50, creates=0, deletes=5, way_edits=5,
                      dup_frac=0.1),
    ),
    "tiny": dict(
        images=2_000, shards=2, polys=16, span_deg=10.0, features=256,
        sample=64, nodes=5_000, ways=500, rels=50, buckets=8,
        minutely=dict(moves=10, creates=0, deletes=2, way_edits=2,
                      dup_frac=0.1),
    ),
}

E2E = ("window_p50_s", "rows_per_s", "setup_s", "peak_rss_mb")
UNITS = {"window_p50_s": "s", "rows_per_s": "1/s", "setup_s": "s",
         "peak_rss_mb": "MiB"}
PER_LAYER = {
    "sources.fetch_parse_s": "s", "sources.change_rows": "count",
    "sources.transport_calls": "count",
    "sources.transport_failures": "count",
    "diff.merge_s": "s", "diff.rows_in": "count", "diff.rows_out": "count",
    "diff.dedup_ratio": "ratio",
    "update.apply_self_s": "s", "update.geo_delta_rows": "count",
    "stream.ray_executions_per_window": "count",
    "refindex.owners_of_s": "s", "refindex.maintain_s": "s",
    "refindex.touched_bucket_frac": "ratio",
    "snapshot.lookup_s": "s", "snapshot.apply_s": "s",
    "snapshot.touched_bucket_frac": "ratio", "snapshot.write_amp": "ratio",
    "checkpoint.write_s": "s", "checkpoint.rows": "count",
    "checkpoint.partitions": "count", "checkpoint.bytes": "bytes",
    "flagship.footprint_s": "s", "flagship.centroid_dist_s": "s",
    "spatial.pip_s": "s", "spatial.pip_hits_per_image": "ratio",
    "spatial.tile_s": "s", "spatial.tiles_per_hit": "ratio",
    "spatial.knn_s": "s",
    "geo.pip_ns_per_test": "ns", "geo.cell_encode_ns_per_point": "ns",
    "trace.overhead_frac": "ratio", "trace.uncovered_frac": "ratio",
    "check.failed_frac": "ratio",
}


class Run:
    """State shared by one benchmark invocation."""

    def __init__(self, args, work: str):
        import numpy as np

        self.args = args
        self.sz = SCALES[args.scale]
        self.work = work
        self.rng = np.random.default_rng(args.seed)
        self.attempted = 0
        self.failed = 0
        self.layer: dict[str, float] = {k: 0.0 for k in PER_LAYER}
        # kept after the run (the work dir is removed)
        self.spans_path = os.path.join(
            os.path.dirname(work), f"spans-{args.workload}-{args.seed}.json")

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)


def _table(ds):
    import pyarrow as pa
    import ray

    refs = ds.to_arrow_refs()
    parts = [t for t in ray.get(refs) if t.num_rows]
    if not parts:
        return ds.schema().base_schema.empty_table()
    return pa.concat_tables(parts)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(f) for f in
               glob.glob(os.path.join(path, "**", "*.parquet"),
                         recursive=True))


# ---------------------------------------------------------------------------
# assign_window
# ---------------------------------------------------------------------------


def assign_window(run: Run, execs) -> dict:
    import ray.data

    import gen
    from oluray.pipelines import flagship
    from oluray.sources.fixtures import footprint_from_phash
    from oluray.stages import spatial

    sz, rng, seconds = run.sz, run.rng, run.args.seconds
    t0 = time.perf_counter()
    imgs = gen.images(sz["images"], rng)
    shard_dir = os.path.join(run.work, "images")
    gen.write_shards(imgs, shard_dir, sz["shards"])
    polys = gen.change_polys(imgs, sz["polys"], sz["span_deg"], rng)
    feats = gen.features(sz["features"], rng)
    lon, lat = footprint_from_phash(imgs["phash"].to_numpy())
    sample = _assign_sample(imgs, lon, lat, polys, sz["sample"], rng)
    n_img = imgs.num_rows

    def once(i: int):
        out = os.path.join(run.work, "out", f"w{i}")
        a = time.perf_counter()
        flagship.run_window(ray.data.read_parquet(shard_dir), polys, out,
                            f"w{i}")
        b = time.perf_counter()
        knn = spatial.knn_join(
            flagship.add_footprint(ray.data.read_parquet(
                shard_dir, columns=["image_id", "phash"])),
            *feats).materialize()
        c = time.perf_counter()
        return out, knn, b - a, c - b

    # warm-up: worker start, imports, per-worker index caches; the
    # second window still ran slower than later ones
    once(-1)
    once(0)
    setup_s = time.perf_counter() - t0

    lat_s, t_start, i = [], time.perf_counter(), 0
    n_exec = execs.count
    while True:
        i += 1
        out, knn, ta, tk = once(i)
        lat_s.append(ta + tk)
        if run.args.trace or time.perf_counter() - t_start >= seconds:
            break
    run.layer["stream.ray_executions_per_window"] = \
        (execs.count - n_exec) / len(lat_s)
    _check_assign(run, out, knn, sample, polys, feats)

    if run.args.trace:
        _trace_assign(run, shard_dir, polys, feats, sample, lat_s[-1],
                      n_img, lon, lat)
    print(json.dumps({"window_s": lat_s}))
    return {
        "window_p50_s": (statistics.median(lat_s), len(lat_s)),
        "rows_per_s": (n_img * len(lat_s) / sum(lat_s), len(lat_s)),
        "setup_s": (setup_s, 1),
    }


def _assign_sample(imgs, lon, lat, polys, n, rng):
    """Half the sample from images inside some polygon's bbox (so the
    check sees hits), half uniformly at random."""
    import numpy as np
    import pyarrow.compute as pc

    ring = polys["ring"].combine_chunks()
    offs = ring.offsets.to_numpy()
    flat = pc.list_flatten(ring)
    rlon = flat.field("lon").to_numpy()
    rlat = flat.field("lat").to_numpy()
    x0 = np.minimum.reduceat(rlon, offs[:-1])
    x1 = np.maximum.reduceat(rlon, offs[:-1])
    y0 = np.minimum.reduceat(rlat, offs[:-1])
    y1 = np.maximum.reduceat(rlat, offs[:-1])
    near = np.zeros(len(lon), bool)
    for a, b, c, d in zip(x0, x1, y0, y1):
        near |= (lon >= a) & (lon <= b) & (lat >= c) & (lat <= d)
    cand = np.flatnonzero(near)
    k = min(n // 2, len(cand))
    pick = np.r_[rng.choice(cand, k, replace=False),
                 rng.choice(len(lon), n - k, replace=False)]
    return np.unique(pick)


def _check_assign(run: Run, out_dir, knn, sample, polys, feats) -> None:
    """(image_id, poly_id, cell) of the sample must equal brute-force
    PIP + bbox cells; each sample image's nearest feature must equal
    `knn_brute` (a different feature at the same distance is a tie)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from oluray.functions import geo
    from oluray.sources.fixtures import footprint_from_phash
    from oluray.stages import spatial

    shard = pq.read_table(os.path.join(run.work, "images"))
    smp = shard.take(pa.array(sample))
    ids = smp["image_id"].to_pylist()
    lon, lat = footprint_from_phash(smp["phash"].to_numpy())
    w = smp["w"].to_numpy().astype(np.float64)
    h = smp["h"].to_numpy().astype(np.float64)

    want: dict[str, set] = {i: set() for i in ids}
    row_idx, cells = spatial.bbox_cells(lon, lat, w * 1e-3 / 2, h * 1e-3 / 2,
                                        12)
    for pid, ring in zip(polys["poly_id"].to_pylist(),
                         polys["ring"].to_pylist()):
        inside = geo.point_in_polygon(
            lon, lat, np.array([v["lon"] for v in ring]),
            np.array([v["lat"] for v in ring]))
        for r, c in zip(row_idx.tolist(), cells.tolist()):
            if inside[r]:
                want[ids[r]].add((pid, c))

    got_t = pq.read_table(out_dir, columns=["image_id", "poly_id", "cell"],
                          filters=[("image_id", "in", ids)])
    rows = got_t.to_pylist()
    kt = _table(knn)
    krows = kt.filter(pc.is_in(kt["image_id"],
                               value_set=pa.array(ids))).to_pylist()
    if run.args.corrupt and rows:
        rows[0]["cell"] += 1
    if run.args.corrupt and krows:
        krows[0]["feature_id"] += 1
    got: dict[str, set] = {i: set() for i in ids}
    for r in rows:
        got[r["image_id"]].add((r["poly_id"], r["cell"]))
    bad = sum(got[i] != want[i] for i in ids)
    bad += len(rows) != len({(r["image_id"], r["poly_id"], r["cell"])
                             for r in rows})

    fid, flon, flat = feats
    idx, dist = spatial.knn_brute(lon, lat, flon, flat, 1)
    exp = {i: (int(fid[j]), float(d)) for i, j, d in
           zip(ids, idx[:, 0], dist[:, 0])}
    seen = set()
    for r in krows:
        f, d = exp[r["image_id"]]
        seen.add(r["image_id"])
        if r["feature_id"] != f and abs(r["dist_m"] - d) > 1e-3:
            bad += 1
    bad += len(set(ids) - seen)
    run.tally(2 * len(ids), bad)


def _trace_assign(run: Run, shard_dir, polys, feats, sample, untraced_s,
                  n_img, lon, lat) -> None:
    """One window decomposed in `assignments_pipeline`'s order, each
    step materialized inside its span; then direct `functions.geo`
    calls on the workload's own points and polygons."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    import probes
    from oluray.functions import geo
    from oluray.pipelines import flagship
    from oluray.stages import spatial
    from oluray.state.checkpoint import write_partitioned_resumable

    tr = probes.Tracer()
    tr.window = "traced"
    out = os.path.join(run.work, "out", "traced")
    t0 = time.perf_counter()
    with tr.span("flagship.footprint"):
        pts = flagship.add_footprint(ray.data.read_parquet(
            shard_dir, columns=["image_id", "phash", "w", "h", "caption"])
        ).materialize()
    with tr.span("spatial.pip"):
        hits = spatial.pip_join(
            pts, polys, res=8, id_col="image_id", concurrency=4,
            batch_size=32768, carry_cols=("caption", "w", "h"),
        ).materialize()
        n_hits = hits.count()
    with tr.span("flagship.centroid_dist"):
        cent_ref = ray.put(flagship.poly_centroids(polys))
        hits = hits.map_batches(
            flagship.add_centroid_dist, fn_kwargs=dict(cent_ref=cent_ref),
            batch_format="pyarrow", batch_size=32768).materialize()
    with tr.span("spatial.tile"):
        tiles = spatial.tile_cover(
            hits, 12, id_col="image_id",
            carry_cols=("poly_id", "op", "dist_m", "caption"),
        ).materialize()
        n_tiles = tiles.count()

    def add_part(batch: pa.Table) -> pa.Table:
        part = geo.cell_parent(batch["cell"].to_numpy(zero_copy_only=False), 2)
        return batch.append_column("part", pa.array(part))

    with tr.span("checkpoint.write"):
        man = write_partitioned_resumable(
            tiles.map_batches(add_part, batch_format="pyarrow",
                              batch_size=32768), out, "traced",
            part_col="part")
    with tr.span("spatial.knn"):
        knn = spatial.knn_join(
            flagship.add_footprint(ray.data.read_parquet(
                shard_dir, columns=["image_id", "phash"])),
            *feats).materialize()
    t1 = time.perf_counter()
    _check_assign(run, out, knn, sample, polys, feats)

    # direct geo calls: every polygon against a slice of the points
    n_pts = min(10_000, len(lon))
    rings = [(np.array([v["lon"] for v in r]), np.array([v["lat"] for v in r]))
             for r in polys["ring"].to_pylist()]
    a = time.perf_counter()
    for rx, ry in rings:
        geo.point_in_polygon(lon[:n_pts], lat[:n_pts], rx, ry)
    pip_ns = (time.perf_counter() - a) / (n_pts * len(rings)) * 1e9
    reps = 20
    a = time.perf_counter()
    for _ in range(reps):
        geo.cell_encode(lon, lat, 12)
    enc_ns = (time.perf_counter() - a) / (reps * len(lon)) * 1e9

    L = run.layer
    L["flagship.footprint_s"] = tr.total("flagship.footprint")
    L["spatial.pip_s"] = tr.total("spatial.pip")
    L["spatial.pip_hits_per_image"] = n_hits / n_img
    L["flagship.centroid_dist_s"] = tr.total("flagship.centroid_dist")
    L["spatial.tile_s"] = tr.total("spatial.tile")
    L["spatial.tiles_per_hit"] = n_tiles / max(n_hits, 1)
    L["spatial.knn_s"] = tr.total("spatial.knn")
    L["checkpoint.write_s"] = tr.total("checkpoint.write")
    L["checkpoint.rows"] = sum(p["rows"] for p in man.partitions.values())
    L["checkpoint.partitions"] = len(man.partitions)
    L["checkpoint.bytes"] = _dir_bytes(out)
    L["geo.pip_ns_per_test"] = pip_ns
    L["geo.cell_encode_ns_per_point"] = enc_ns
    L["trace.overhead_frac"] = (t1 - t0) / untraced_s - 1.0
    L["trace.uncovered_frac"] = 1.0 - tr.covered(t0, t1) / (t1 - t0)
    tr.dump(run.spans_path)


# ---------------------------------------------------------------------------
# replication workloads
# ---------------------------------------------------------------------------


def replication_minutely(run: Run, execs) -> dict:
    """The store-backed loop fed like a live feed: the mirror's
    `state.txt` advances one sequence per window."""
    import ray.data

    import gen
    import probes
    from oluray.pipelines import stream
    from oluray.sources.replication import ReplicationClient
    from oluray.state.refindex import RefIndex
    from oluray.state.snapshot import SnapshotStore

    sz, rng, seconds, trace = run.sz, run.rng, run.args.seconds, run.args.trace
    t0 = time.perf_counter()
    snap = gen.snapshot(sz["nodes"], sz["ways"], sz["rels"], rng)
    nodes, ways, rels = snap.tables()
    store = SnapshotStore.create(
        os.path.join(run.work, "store"),
        {"nodes": ray.data.from_arrow(nodes), "ways": ray.data.from_arrow(ways),
         "relations": ray.data.from_arrow(rels)},
        n_buckets=sz["buckets"])
    idx = RefIndex.create(os.path.join(run.work, "idx"), store.read("ways"),
                          store.read("relations"), n_buckets=sz["buckets"])
    # more sequences than the time budget can use; unused ones are cheap
    n_measured = 1 if trace else int(seconds // 4) + 1
    mirror = os.path.join(run.work, "mirror")
    fd = gen.feed(snap, mirror, n_measured + trace, rng=rng,
                  **sz["minutely"])
    transport = probes.CountingTransport(
        mirror, os.path.join(run.work, "transport.log"))
    client = ReplicationClient(transport)
    out_dir = os.path.join(run.work, "out")
    setup_s = time.perf_counter() - t0

    def call(seq: int) -> dict:
        gen.publish(fd, seq)
        (w,) = stream.run_replication_windows_store(
            store, client, out_dir, sequence=seq, ref_index=idx)["windows"]
        return w

    done = []  # (generator window, loop window dict)
    lat_s: list[float] = []
    n_exec, t_start = execs.count, time.perf_counter()
    for gw in fd.windows[:n_measured]:
        a = time.perf_counter()
        done.append((gw, call(gw.seq)))
        lat_s.append(time.perf_counter() - a)
        if time.perf_counter() - t_start >= seconds:
            break
    run.layer["stream.ray_executions_per_window"] = \
        (execs.count - n_exec) / len(lat_s)
    rows = [gw.change_rows for gw, _ in done]

    if trace:
        _trace_replication(run, store, call, fd.windows[-1], out_dir,
                           transport, lat_s[-1], done)
    _check_replication(run, store, done)
    print(json.dumps({"window_s": lat_s}))
    return {
        "window_p50_s": (statistics.median(lat_s), len(lat_s)),
        "rows_per_s": (sum(rows) / sum(lat_s), len(lat_s)),
        "setup_s": (setup_s, 1),
    }


def _trace_replication(run, store, call, gw, out_dir, transport,
                       untraced_s, done) -> None:
    """One more window with spans around each layer entry point; lazy
    results are materialized inside their span."""
    import probes
    from oluray.pipelines import stream
    from oluray.pipelines import update as upd
    from oluray.sources import replication as rep
    from oluray.stages import diff
    from oluray.state.refindex import RefIndex
    from oluray.state.snapshot import SnapshotStore

    tr = probes.Tracer()
    tr.window = f"w{gw.seq:09d}_{gw.seq:09d}"

    def mat(ds, sp):
        m = ds.materialize()
        sp["rows"] = m.count()
        return m

    def mat_delta(out, sp):
        out["geo_delta"] = mat(out["geo_delta"], sp)
        return out

    def sink_rows(man, sp):
        sp["rows"] = sum(p["rows"] for p in man.partitions.values())
        sp["partitions"] = len(man.partitions)
        return man

    tr.wrap(rep, "fetch_changes", "sources.fetch_changes", mat)
    tr.wrap(diff, "merge_latest_wins", "diff.merge", mat)
    tr.wrap(upd, "apply_update", "update.apply", mat_delta)
    tr.wrap(stream, "write_partitioned_resumable", "checkpoint.write",
            sink_rows)
    tr.wrap(SnapshotStore, "lookup", "snapshot.lookup",
            lambda ds, sp: ds.materialize())
    tr.wrap(SnapshotStore, "apply_window", "snapshot.apply")
    tr.wrap(RefIndex, "owners_of", "refindex.owners_of")
    tr.wrap(RefIndex, "stage_window", "refindex.stage")
    tr.wrap(RefIndex, "apply_window", "refindex.apply")
    calls0, fails0 = transport.counts()
    t0 = time.perf_counter()
    try:
        lw = call(gw.seq)
    finally:
        tr.unwrap_all()
    t1 = time.perf_counter()
    done.append((gw, lw))
    calls1, fails1 = transport.counts()

    def info(name, key):
        return sum(s.info.get(key, 0) for s in tr.spans if s.name == name)

    wid = lw["window_id"]
    man = store.window_manifest(wid)
    nb = store.n_buckets
    kinds = man["kinds"].values()
    rewritten = sum(sum(k["rows_after"].values()) for k in kinds)
    changed = sum(max(k["inserted"], k["deleted"]) for k in kinds)
    L = run.layer
    L["sources.fetch_parse_s"] = tr.total("sources.fetch_changes")
    L["sources.change_rows"] = info("sources.fetch_changes", "rows")
    L["sources.transport_calls"] = calls1 - calls0
    L["sources.transport_failures"] = fails1 - fails0
    L["diff.merge_s"] = tr.total("diff.merge")
    L["diff.rows_in"] = info("sources.fetch_changes", "rows")
    L["diff.rows_out"] = info("diff.merge", "rows")
    L["diff.dedup_ratio"] = L["diff.rows_out"] / max(L["diff.rows_in"], 1)
    L["update.apply_self_s"] = tr.self_time("update.apply")
    L["update.geo_delta_rows"] = info("update.apply", "rows")
    L["refindex.owners_of_s"] = tr.total("refindex.owners_of")
    L["refindex.maintain_s"] = (tr.total("refindex.stage")
                                + tr.total("refindex.apply"))
    L["refindex.touched_bucket_frac"] = len(lw["index_buckets"]) / nb
    L["snapshot.lookup_s"] = tr.total("snapshot.lookup")
    L["snapshot.apply_s"] = tr.total("snapshot.apply")
    L["snapshot.touched_bucket_frac"] = (
        sum(len(k["touched_buckets"]) for k in kinds) / (nb * len(kinds)))
    L["snapshot.write_amp"] = rewritten / max(changed, 1)
    L["checkpoint.write_s"] = tr.total("checkpoint.write")
    L["checkpoint.rows"] = info("checkpoint.write", "rows")
    L["checkpoint.partitions"] = info("checkpoint.write", "partitions")
    L["checkpoint.bytes"] = _dir_bytes(os.path.join(out_dir, wid))
    L["trace.overhead_frac"] = (t1 - t0) / untraced_s - 1.0
    L["trace.uncovered_frac"] = 1.0 - tr.covered(t0, t1) / (t1 - t0)
    tr.dump(run.spans_path)


def _check_replication(run: Run, store, done) -> None:
    """Each window's geo-delta row count must equal the generator's
    recount; `store.lookup` of every changed id must return its latest
    version (and position, for nodes); deleted ids must be absent."""
    import numpy as np

    bad = sum(lw["rows"] != gw.expect_geo_rows for gw, lw in done)
    n = len(done)

    def latest(ids, *cols):
        # last occurrence per id across windows, in window order
        ids = np.concatenate(ids)
        cols = [np.concatenate(c) for c in cols]
        _, pos = np.unique(ids[::-1], return_index=True)
        pos = len(ids) - 1 - pos
        return (ids[pos], *[c[pos] for c in cols])

    gws = [gw for gw, _ in done]
    nid, nver, nlive, nlon, nlat = latest(
        [g.node_ids for g in gws], [g.node_ver for g in gws],
        [g.node_live for g in gws], [g.node_lon for g in gws],
        [g.node_lat for g in gws])
    wid, wver = latest([g.way_ids for g in gws], [g.way_ver for g in gws])

    got = _table(store.lookup("nodes", nid,
                              columns=["id", "version", "lon", "lat"]))
    g = {r["id"]: r for r in got.to_pylist()}
    if run.args.corrupt and g:
        g[next(iter(g))]["version"] += 1
    for i, v, live, x, y in zip(nid.tolist(), nver.tolist(), nlive.tolist(),
                                nlon.tolist(), nlat.tolist()):
        r = g.get(i)
        if not live:
            bad += r is not None
        elif (r is None or r["version"] != v or abs(r["lon"] - x) > 1e-9
              or abs(r["lat"] - y) > 1e-9):
            bad += 1
    got = _table(store.lookup("ways", wid, columns=["id", "version"]))
    gv = dict(zip(got["id"].to_pylist(), got["version"].to_pylist()))
    bad += sum(gv.get(i) != v for i, v in zip(wid.tolist(), wver.tolist()))
    run.tally(n + len(nid) + len(wid), bad)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


WORKLOADS = {
    "assign_window": assign_window,
    "replication_minutely": replication_minutely,
}


def _ray_temp_dir() -> str:
    """Ray's session dir inside the checkout when its unix socket
    paths fit the 107-byte limit, else a private temp dir."""
    d = os.path.join(ROOT, ".perfbench_work", f"r{os.getpid()}")
    return d if len(d) <= 40 else tempfile.mkdtemp(prefix="pbray")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "oluray", "__init__.py")):
        print("perfbench: run from the root of an oluray checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])

    import ray
    import ray.data

    import probes

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray_tmp = _ray_temp_dir()
    allowed = sorted(os.sched_getaffinity(0))
    pinned = allowed[-PIN_CPUS[args.workload]:]
    os.sched_setaffinity(0, pinned)  # inherited by every Ray process
    settings = {"ray_num_cpus": RAY_CPUS,
                "object_store_bytes": OBJECT_STORE_BYTES,
                "nproc": len(allowed), "pinned_cpus": pinned,
                "host_cpus": os.cpu_count(), "scale": args.scale,
                "workload": args.workload, "seed": args.seed}
    print(json.dumps({"settings": settings}), flush=True)

    try:
        ray.init(address="local", num_cpus=RAY_CPUS,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 _temp_dir=ray_tmp)
        from oluray.runtime import quiet_ray_empty_block_warnings

        ray.data.DataContext.get_current().enable_progress_bars = False
        quiet_ray_empty_block_warnings()
        execs = probes.RayExecCounter().install()
        rss = probes.RssSampler().start()
        run = Run(args, work)
        try:
            timings = WORKLOADS[args.workload](run, execs)
        finally:
            peak = rss.stop()
        timings["peak_rss_mb"] = (peak, 1)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)

    run.layer["check.failed_frac"] = run.failed / max(run.attempted, 1)
    if args.trace:
        metrics = {k: {"value": float(run.layer[k]), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(timings[k][0]), "unit": UNITS[k]}
                   for k in E2E}
        print(json.dumps({"samples": {k: timings[k][1] for k in E2E}}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
