"""The engine finishes with one logical Ray CPU.

Each case runs in a subprocess with its own `ray.init(num_cpus=1)`
(the session fixture's Ray has 4 CPUs) and a timeout, so a stage that
holds the only CPU slot while its upstream waits fails the test
instead of hanging the suite.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r'''
import gzip, json, os, sys

import numpy as np
import pyarrow.parquet as pq
import ray
import ray.data

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False

from oluray.functions import geo
from oluray.pipelines import flagship, stream
from oluray.sources import fixtures, osc, replication as rep
from oluray.stages import spatial
from oluray.state.snapshot import SnapshotStore

tmp = sys.argv[1]
counts = {}

# flagship window over parquet shards: the read runs as Ray tasks, so
# it competes with the joins for the one CPU slot
images = fixtures.make_images(400, 42).select(
    ["image_id", "phash", "w", "h", "caption"])
shards = os.path.join(tmp, "images")
os.makedirs(shards)
for i in range(2):
    pq.write_table(images.slice(i * 200, 200),
                   os.path.join(shards, f"{i}.parquet"))
lon, lat = fixtures.footprint_from_phash(images["phash"].to_numpy())
polys = fixtures.make_change_polys(
    4, seed=7, centers=list(zip(lon.tolist(), lat.tolist()))[:4])
out = os.path.join(tmp, "assign")
flagship.run_window(ray.data.read_parquet(shards), polys, out, "w1")
counts["assign_rows"] = pq.read_table(out).num_rows
w = images["w"].to_numpy().astype(np.float64)
h = images["h"].to_numpy().astype(np.float64)
row_idx, _ = spatial.bbox_cells(lon, lat, w * 1e-3 / 2, h * 1e-3 / 2, 12)
tiles = np.bincount(row_idx, minlength=len(lon))
want = 0
for ring in polys["ring"].to_pylist():
    inside = geo.point_in_polygon(
        lon, lat, np.array([v["lon"] for v in ring]),
        np.array([v["lat"] for v in ring]))
    want += int(tiles[inside].sum())
counts["assign_want"] = want

rng = np.random.default_rng(5)
fid = np.arange(100, dtype=np.int64)
flon = rng.uniform(-179, 179, 100)
flat_ = rng.uniform(-84, 84, 100)
knn = spatial.knn_join(
    flagship.add_footprint(
        ray.data.read_parquet(shards, columns=["image_id", "phash"])),
    fid, flon, flat_, k=1, res=4)
counts["knn_rows"] = knn.count()

# one store-backed replication window: three node creates
nodes_t, ways_t, rels_t = fixtures.make_snapshot(200, seed=11)
store = SnapshotStore.create(
    os.path.join(tmp, "store"),
    {"nodes": ray.data.from_arrow(nodes_t),
     "ways": ray.data.from_arrow(ways_t),
     "relations": ray.data.from_arrow(rels_t)},
    n_buckets=4,
)
rows = [{"op": "create", "kind": "node", "id": 900_000 + i, "version": 1,
         "ts": 1_700_000_000_000 + i,
         "payload": {"lon": 10.0 + i, "lat": 20.0 + i, "nd_refs": None,
                     "members": None, "tags": None}}
        for i in range(3)]
mirror = os.path.join(tmp, "mirror")
p = os.path.join(mirror, osc.seq_path(1))
os.makedirs(os.path.dirname(p))
with open(p + ".state.txt", "w") as f:
    f.write("sequenceNumber=1\ntimestamp=2024-01-01T00\\:00\\:00Z\n")
with open(p + ".osc.gz", "wb") as f:
    f.write(gzip.compress(osc.write_osc(rows).encode("utf-8")))
with open(os.path.join(mirror, "state.txt"), "w") as f:
    f.write("sequenceNumber=1\ntimestamp=2024-01-01T00\\:00\\:00Z\n")
client = rep.ReplicationClient(rep.LocalDirTransport(mirror))
res = stream.run_replication_windows_store(
    store, client, os.path.join(tmp, "geo"), sequence=1)
counts["windows"] = len(res["windows"])
counts["geo_rows"] = res["windows"][0]["rows"]
print(json.dumps(counts))
ray.shutdown()
'''


def test_engine_finishes_at_one_cpu(tmp_path):
    env = dict(os.environ, PYTHONPATH=ROOT)
    # a Ray started by this process must not be joined by the child
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counts["assign_rows"] == counts["assign_want"] > 0
    assert counts["knn_rows"] == 400
    assert counts["windows"] == 1
    assert counts["geo_rows"] == 3
