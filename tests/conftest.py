import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    from oluray.runtime import quiet_ray_empty_block_warnings

    quiet_ray_empty_block_warnings()
    yield
    ray.shutdown()


@pytest.fixture
def replication_oracle():
    return replication_windows_oracle


@pytest.fixture
def store_windows(tmp_path, monkeypatch):
    return StoreWindows(tmp_path, monkeypatch)


class StoreWindows:
    """Small `SnapshotStore` + `RefIndex` pairs under a tmp dir, and
    change windows run through `stream.apply_merged_window` — the
    window body the replication loop and the CLI's `--input` path
    share."""

    def __init__(self, root, monkeypatch):
        self.root = root
        self.monkeypatch = monkeypatch
        self.n = 0

    def store(self, nodes, ways, relations, n_buckets=8):
        """Snapshot tables or Datasets -> (store, index) over the same
        snapshot."""
        from oluray.state.refindex import RefIndex
        from oluray.state.snapshot import SnapshotStore

        self.n += 1
        store = SnapshotStore.create(
            str(self.root / f"store{self.n}"),
            {"nodes": _dataset(nodes), "ways": _dataset(ways),
             "relations": _dataset(relations)},
            n_buckets=n_buckets,
        )
        idx = RefIndex.create(
            str(self.root / f"idx{self.n}"), store.read("ways"),
            store.read("relations"), n_buckets=n_buckets,
        )
        return store, idx

    def apply(self, store, idx, changes, window_id="w1", apply_kw=None,
              **body_kw):
        """Latest-wins merge `changes` (a table or Dataset) and run it
        as one window; the geo delta lands in `<store root>.geo`.
        Returns (the body's result, `update_window`'s output with
        `geo_delta` as a Dataset and `counts` added, as `apply_update`
        returns them), materialized before the store commits.
        `apply_kw` reaches `update_window` only (e.g.
        `broadcast_limit`)."""
        from oluray.pipelines import stream
        from oluray.pipelines import update as upd
        from oluray.stages.diff import merge_latest_wins

        merged = merge_latest_wins(_dataset(changes)).materialize()
        real, seen = upd.update_window, {}

        def spy(window, *a, **kw):
            out = real(window, *a, **kw, **(apply_kw or {}))
            seen.update(out)
            seen["geo_delta"] = _dataset(out["geo_delta"]).materialize()
            seen["counts"] = upd.op_counts(window).materialize()
            return out

        with self.monkeypatch.context() as m:
            m.setattr(upd, "update_window", spy)
            res = stream.apply_merged_window(
                store, idx, merged, store.root + ".geo", window_id,
                **body_kw,
            )
        return res, seen


    @staticmethod
    def contents(store, idx) -> dict:
        """Every store kind's rows and the index entries as sorted
        Python rows, for exact comparison."""
        def rows(ds, *keys):
            t = pa.concat_tables([
                pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
                else b for b in ds.iter_batches(batch_format="pyarrow")
            ])
            return t.sort_by([(k, "ascending") for k in keys]).to_pylist()

        out = {k: rows(store.read(k), "id")
               for k in ("nodes", "ways", "relations")}
        out["index"] = rows(idx.read(), "key", "ktype", "owner", "otype")
        return out


def _dataset(t):
    import ray.data

    return ray.data.from_arrow(t) if isinstance(t, pa.Table) else t


def replication_windows_oracle(nodes, ways, relations, windows, cell_res=12):
    """Reference replication loop in plain Python/pandas, no Ray.

    `nodes`/`ways`/`relations` are snapshot tables in the fixture
    schemas; `windows` is a list of change-row lists (CHANGES_SCHEMA
    dicts, e.g. from `osc.parse_osc_bytes`), one list per window.
    Per window: latest-wins per (kind, id) — highest version, then
    delete, then newest ts — then delete every changed id and insert
    the created/modified payloads. The expected geo delta covers
    created/modified nodes, and the touched ways and relations:
    changed ones, plus unchanged ones that reference a modified or
    deleted node (relations also: a changed or impacted way). Way
    centroids are the in-order mean of their located member nodes;
    relation centroids the in-order mean over node-member locations
    and way-member centroids; envelopes span the member extents.
    Returns (one delta DataFrame per window sorted by (kind, id),
    {"nodes", "ways", "relations"} final tables)."""
    from oluray.functions import geo
    from oluray.sources.fixtures import (
        NODES_SCHEMA, RELATIONS_SCHEMA, WAYS_SCHEMA,
    )

    schemas = {"node": NODES_SCHEMA, "way": WAYS_SCHEMA,
               "relation": RELATIONS_SCHEMA}
    snap = {"node": nodes, "way": ways, "relation": relations}
    deltas = []
    for rows in windows:
        best: dict = {}
        for r in rows:
            k = (r["kind"], r["id"])
            rank = (r["version"], r["op"] == "delete", r["ts"])
            if k not in best or rank > best[k][0]:
                best[k] = (rank, r)
        best = {k: r for k, (_, r) in best.items()}

        def ids(kind, ops=("create", "modify", "delete")):
            return {i for (k, i), r in best.items()
                    if k == kind and r["op"] in ops}

        for kind, sch in schemas.items():
            ins = []
            for (k, i), r in sorted(best.items()):
                if k != kind or r["op"] == "delete":
                    continue
                p = r["payload"]
                row = {"id": i, "tags": p["tags"], "version": r["version"],
                       "ts": r["ts"]}
                if kind == "node":
                    row.update(lon=p["lon"], lat=p["lat"])
                elif kind == "way":
                    row["nd_refs"] = p["nd_refs"]
                else:
                    row["members"] = p["members"]
                    row["type"] = dict(p["tags"] or []).get("type")
                ins.append(row)
            old = snap[kind]
            keep = ~np.isin(old["id"].to_numpy(), list(ids(kind)))
            snap[kind] = pa.concat_tables([
                old.filter(pa.array(keep)),
                pa.Table.from_pylist(ins, schema=sch),
            ])

        loc = {i: (x, y) for i, x, y in zip(
            snap["node"]["id"].to_pylist(), snap["node"]["lon"].to_pylist(),
            snap["node"]["lat"].to_pylist())}
        way_refs = dict(zip(snap["way"]["id"].to_pylist(),
                            snap["way"]["nd_refs"].to_pylist()))
        rel_members = dict(zip(snap["relation"]["id"].to_pylist(),
                               snap["relation"]["members"].to_pylist()))
        moved = ids("node", ("modify", "delete"))
        way_cf, rel_cf = ids("way"), ids("relation")
        ways_geo = {w for w, refs in way_refs.items()
                    if w not in way_cf and moved & set(refs or [])}
        way_hit = ways_geo | way_cf
        rels_geo = {
            r for r, mem in rel_members.items()
            if r not in rel_cf and any(
                (m["type"] == "node" and m["ref"] in moved)
                or (m["type"] == "way" and m["ref"] in way_hit)
                for m in mem or [])
        }

        def stats(pts):
            """pts: (lon, lat, min_lon, min_lat, max_lon, max_lat) in
            member order -> sequential-sum centroid + envelope."""
            if not pts:
                return None
            sx = sy = 0.0
            for p in pts:
                sx += p[0]
                sy += p[1]
            return (sx / len(pts), sy / len(pts),
                    min(p[2] for p in pts), min(p[3] for p in pts),
                    max(p[4] for p in pts), max(p[5] for p in pts))

        def way_stats(w):
            return stats([loc[n] * 3 for n in way_refs.get(w) or []
                          if n in loc])

        out = []
        for i in sorted(ids("node", ("create", "modify"))):
            x, y = loc[i]
            out.append(("node", i, x, y, x, y, x, y))
        for w in sorted(ways_geo | ids("way", ("create", "modify"))):
            s = way_stats(w)
            if w in way_refs and s is not None:
                out.append(("way", w) + s)
        for r in sorted(rels_geo | ids("relation", ("create", "modify"))):
            pts = []
            for m in rel_members.get(r) or []:
                if m["type"] == "node" and m["ref"] in loc:
                    pts.append(loc[m["ref"]] * 3)
                elif m["type"] == "way":
                    s = way_stats(m["ref"])
                    if s is not None:
                        pts.append(s)
            s = stats(pts)
            if r in rel_members and s is not None:
                out.append(("relation", r) + s)
        df = pd.DataFrame(out, columns=["kind", "id", "lon", "lat",
                                        "min_lon", "min_lat",
                                        "max_lon", "max_lat"])
        df["id"] = df["id"].astype("int64")
        df["cell"] = geo.cell_encode(df["lon"].to_numpy(np.float64),
                                     df["lat"].to_numpy(np.float64), cell_res)
        deltas.append(df.sort_values(["kind", "id"]).reset_index(drop=True))
    return deltas, {"nodes": snap["node"], "ways": snap["way"],
                    "relations": snap["relation"]}
