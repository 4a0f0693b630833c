"""Continuous replication consumption as checkpointed windows — the
reference's server main loop (`/root/reference/src/osm/OsmUpdater.cpp:38-116`:
fetch state -> decide start -> fetch+merge change files -> apply)
re-expressed as a sequence of windows over a PERSISTENT bucketed
snapshot (`state.snapshot.SnapshotStore`) and its reverse-reference
index (`state.refindex.RefIndex`).

Every window, from the feed loop (`run_replication_windows_store`) or
from local change files (`apply_changes_window`, the CLI's `--input`
path), runs the same body, `apply_merged_window`: diff-proportional
`update.update_window` -> resumable geo-delta sink -> index delta
staged -> store deltas committed -> index delta committed.

Resume semantics (what a crash mid-backfill costs): each window's
geometry output is written through the partitioned-resumable sink
under its own window directory, and the store and index commits are
manifest-gated per window, so a re-run with the same `out_dir` skips
the already-written partitions and the committed windows — geometry
rows land exactly once, and a half-applied window converges.

Scale notes: a feed window is fetched and parsed on the driver and
stays an Arrow table through merge, apply, geo-delta sink and commit
while its row count fits `closure.DRIVER_WINDOW_ROWS` — a minutely
window starts no Ray Data execution; larger windows (or lazy inputs)
run every step as Ray Data dataflow. A window writes one delta file
per changed store kind and one for the index, and rewrites no
bucket unless it passes a compaction bound
(`state.lsm`); geometry deltas are partitioned by coarse geo cell
(`geo.cell_parent`), the same key the flagship sink uses, so a failed
window resumes per spatial region.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from oluray.functions import geo
from oluray.pipelines import update as upd
from oluray.sources import replication as rep
from oluray.stages import closure
from oluray.stages.diff import EmptyDiffError
from oluray.state.checkpoint import write_partitioned_resumable


def add_part(t: pa.Table, part_res: int = 2) -> pa.Table:
    """Rows with a `cell` -> + `part`, the sink's partition key: the
    row's cell coarsened to `part_res` (geo deltas and assignments)."""
    part = geo.cell_parent(t["cell"].to_numpy(zero_copy_only=False), part_res)
    return t.append_column("part", pa.array(part))


def apply_merged_window(
    store,
    ref_index,
    merged: "pa.Table | ray.data.Dataset",
    out_dir: str,
    window_id: str,
    cell_res: int = 12,
    part_res: int = 2,
    output_mode: str = "endpoint",
    artifact_dir: str | None = None,
) -> dict:
    """The one window body: apply a latest-wins-merged window
    (`diff.merge_latest_wins_table`, or `merge_latest_wins`
    materialized) to `store` with `ref_index`, write its geo delta to
    `<out_dir>/<window_id>` through the resumable sink, then commit —
    stage the index delta, append the store's deltas (one file per
    changed kind, sorted by id; the store manifest records the buckets
    the changed ids hash to), commit the index delta. The reference's
    in-place point-update semantics (`src/osm/OsmChangeHandler.cpp:
    493-575`) made durable: write cost per window is O(diff), not
    O(snapshot), plus the amortized compaction (`state.lsm`).

    A `pa.Table` window passes through; a materialized one of at most
    `closure.DRIVER_WINDOW_ROWS` rows is unwrapped once
    (`closure.local_table`). From there on apply, sink, staging and
    commit pass driver tables and, in endpoint mode, start no Ray Data
    execution. A lazy or larger window runs them as Ray Data dataflow.

    Ordering contract: the geo-delta sink is consumed BEFORE the store
    commits (a distributed window's delta lineage lazily reads the
    store's bucket files, which a compaction may rewrite). Crash
    anywhere is safe: the sink skips finished partitions, the index
    delta is derived from the window alone and re-staged on re-run,
    and `apply_window` on the store and the index is gated by the
    window manifest.

    `output_mode` 'file'/'debug_file' writes the update to
    `artifact_dir` instead of committing it (store and index
    untouched), mirroring the reference's SparqlOutput semantics.

    Returns {window_id, partitions, rows} of the sink, plus
    `artifact` (file modes) or the touched `store_buckets` and
    `index_buckets` (endpoint mode)."""
    if not isinstance(merged, pa.Table):
        t = closure.local_table(merged, closure.DRIVER_WINDOW_ROWS)
        merged = merged if t is None else t
    out = upd.update_window(
        merged, store, ref_index, cell_res=cell_res,
        output_mode=output_mode, output_dir=artifact_dir,
    )
    delta = out["geo_delta"]
    if isinstance(delta, pa.Table):
        delta = add_part(delta, part_res)
    else:
        delta = delta.map_batches(
            add_part, fn_kwargs={"part_res": part_res}, batch_format="pyarrow")
    man = write_partitioned_resumable(
        delta, f"{out_dir}/{window_id}", window_id, part_col="part"
    )
    result = {
        "window_id": window_id,
        "partitions": len(man.partitions),
        "rows": sum(i["rows"] for i in man.partitions.values()),
    }
    if output_mode != "endpoint":
        result["artifact"] = out["update_artifact"]
        return result
    apply_man = _commit_store(store, ref_index, merged, window_id)
    result["store_buckets"] = {
        k: v["touched_buckets"] for k, v in apply_man["kinds"].items()
    }
    result["index_buckets"] = (
        ref_index.apply_window(window_id)["touched_buckets"]
    )
    return result


def run_replication_windows_store(
    store,
    client: "rep.ReplicationClient",
    out_dir: str,
    sequence: int = 0,
    timestamp: str | None = None,
    window_size: int = 1,
    cell_res: int = 12,
    part_res: int = 2,
    ref_index=None,
) -> dict | None:
    """Consume the replication feed from the decided start up to the
    server's latest state in windows of `window_size` sequences, each
    applied by `apply_merged_window`. Returns None when already up to
    date (the reference's early return, `OsmUpdater.cpp:68-75`), else
    {windows, start_sequence, latest_sequence}. Each window dict
    carries the store's and the index's touched-bucket lineage
    (`store_buckets`, `index_buckets`), so a 64-bucket store touching
    3 buckets on a minutely diff is visible evidence of pruning. A
    quiet window (valid change files, zero elements — maintenance
    gap) is recorded with zero rows and does not abort the loop.

    `ref_index`: a `state.refindex.RefIndex` built over the SAME
    snapshot; without one, the index co-located under the store root
    is loaded or built (`_ensure_ref_index`). A store+index pair must
    be kept in lockstep: always pass the index once it exists."""
    from oluray.stages.diff import merge_latest_wins, merge_latest_wins_table

    latest = client.latest_state()["sequence"]
    start = rep.decide_start_sequence(client, sequence, timestamp)
    if start > latest:
        return None
    if ref_index is None:
        ref_index = _ensure_ref_index(store)

    windows = []
    s = start
    while s <= latest:
        e = min(s + window_size - 1, latest)
        wid = f"w{s:09d}_{e:09d}"
        changes = rep.fetch_table(client, s, e)
        w = {"window_id": wid, "first_seq": s, "last_seq": e}
        try:
            if changes.num_rows <= closure.DRIVER_WINDOW_ROWS:
                merged = merge_latest_wins_table(changes)
            else:
                merged = merge_latest_wins(
                    ray.data.from_arrow(changes)).materialize()
        except EmptyDiffError:
            w.update(partitions=0, rows=0, store_buckets={})
        else:
            w.update(apply_merged_window(
                store, ref_index, merged, out_dir, wid,
                cell_res=cell_res, part_res=part_res,
            ))
        windows.append(w)
        s = e + 1

    return {
        "windows": windows,
        "start_sequence": start,
        "latest_sequence": latest,
    }


def apply_changes_window(
    store,
    changes: ray.data.Dataset,
    out_dir: str,
    window_id: str = "w1",
    cell_res: int = 12,
    part_res: int = 2,
    output_mode: str = "endpoint",
    artifact_dir: str | None = None,
) -> dict:
    """One-shot window apply over a persistent store — the CLI's
    `--input <dir>` path (the reference applies the merged local
    change dir in one pass, `/root/reference/src/osm/OsmUpdater.cpp:
    136-147`): latest-wins merge, then the replication loop's window
    body `apply_merged_window` with the store's co-located RefIndex.
    An element-free change set raises `diff.EmptyDiffError`."""
    from oluray.stages.diff import merge_latest_wins

    ref_index = _ensure_ref_index(store)
    merged = merge_latest_wins(changes).materialize()
    return apply_merged_window(
        store, ref_index, merged, out_dir, window_id,
        cell_res=cell_res, part_res=part_res,
        output_mode=output_mode, artifact_dir=artifact_dir,
    )


def _ensure_ref_index(store):
    """Load or build the store-co-located RefIndex (`<store>/_refindex`).

    The index is built once from the current snapshot (one
    distributed explode+write pass) and reused across calls, so impact
    closure never explodes the whole ways/relations tables per window
    (O(snapshot) — 50 s vs 17.7 s indexed in BENCH_r04).

    Crash safety: the build lands in `_refindex.build.tmp` and is
    atomically renamed; a half-built tmp dir or a manifest-less target
    dir is discarded and rebuilt. Staleness safety: the index manifest
    records which store windows existed at build time; if the store
    has since been mutated by windows the index never saw (e.g. a
    caller maintained their OWN external index), the co-located index
    is stale — it is dropped and rebuilt from the current snapshot.
    """
    import glob as _glob
    import json
    import os
    import shutil

    from oluray.state.refindex import RefIndex

    def _window_ids(root: str) -> set[str]:
        return {
            os.path.splitext(os.path.basename(p))[0]
            for p in _glob.glob(os.path.join(root, "_windows", "*.json"))
        }

    root = os.path.join(store.root, "_refindex")
    manifest = os.path.join(root, "_refindex.json")
    if os.path.exists(manifest):
        with open(manifest) as f:
            m = json.load(f)
        known = set(m.get("store_windows_at_build", [])) | _window_ids(root)
        if _window_ids(store.root) <= known:
            return RefIndex(root)
        shutil.rmtree(root)  # stale: store moved without this index
    elif os.path.isdir(root):
        shutil.rmtree(root)  # crashed mid-rename remnant
    tmp = root + ".build.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    idx = RefIndex.create(
        tmp, store.read("ways"), store.read("relations"),
        n_buckets=store.n_buckets,
    )
    with open(os.path.join(tmp, "_refindex.json"), "w") as f:
        json.dump(
            {"n_buckets": idx.n_buckets,
             "store_windows_at_build": sorted(_window_ids(store.root))},
            f,
        )
    os.replace(tmp, root)
    return RefIndex(root)


def _commit_store(store, ref_index, merged, wid: str) -> dict:
    """Stage the window's index delta (tombstones for the changed ways
    and relations, entries exploded from their new payloads — both
    from the window itself), then commit the store's deltas; returns
    the store's window manifest. The index commit is the caller's
    `ref_index.apply_window`."""
    from oluray.state import refindex as rix

    ops, frame = upd._ops_for(merged)
    changes = upd.window_changes(ops, frame)
    if ref_index.window_manifest(wid) is None:
        way_keys, ways = changes["ways"]
        rel_keys, rels = changes["relations"]
        ref_index.stage_window(
            wid,
            {"way": way_keys.to_array(), "relation": rel_keys.to_array()},
            ops.union(ops.map(ways, rix.way_entries),
                      ops.map(rels, rix.relation_entries)),
        )
    return store.apply_window(wid, changes)
