"""Seeded, vectorized input generators for the benchmark.

Every generator is a pure function of its size arguments and a numpy
`Generator`, so the same `--seed` yields byte-identical inputs. The
program under test only ever sees the files and tables built here.

- `images`: the flagship projection (image_id, phash, w, h, caption)
  written as parquet shards; no pixel bytes.
- `change_polys`: changeset polygons anchored on image footprints,
  so the PIP join has hits.
- `features`: point features for the kNN join.
- `Snapshot` + `Feed`: an OSM snapshot (nodes/ways/relations tables)
  and a replication feed of OsmChange sequences over it, with the
  numpy state needed to recount each window's expected output.
"""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from oluray.sources import osc
from oluray.sources.fixtures import (
    NODES_SCHEMA,
    RELATIONS_SCHEMA,
    WAYS_SCHEMA,
    footprint_from_phash,
    make_change_polys,
)

SIZES = np.array([32, 64, 48], dtype=np.int32)
_WORDS = np.array(
    "harbor bridge skyline alley forest river plaza market tower garden "
    "meadow dune cliff".split()
)
T0_MS = 1_700_000_000_000


# ---------------------------------------------------------------------------
# flagship inputs
# ---------------------------------------------------------------------------


def images(n: int, rng: np.random.Generator) -> pa.Table:
    phash = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                         n, dtype=np.int64)
    side = SIZES[rng.integers(0, len(SIZES), n)]
    words = _WORDS[rng.integers(0, len(_WORDS), (n, 2))]
    ids = np.char.add("img", np.char.zfill(np.arange(n).astype(str), 8))
    caption = np.char.add(np.char.add(words[:, 0], " "), words[:, 1])
    return pa.table({
        "image_id": pa.array(ids.tolist(), pa.string()),
        "phash": pa.array(phash),
        "w": pa.array(side),
        "h": pa.array(side),
        "caption": pa.array(caption.tolist(), pa.string()),
    })


def write_shards(table: pa.Table, out_dir: str, n_shards: int) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_shards + 1).astype(int)
    paths = []
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        p = os.path.join(out_dir, f"shard-{i:03d}.parquet")
        pq.write_table(table.slice(a, b - a), p)
        paths.append(p)
    return paths


def change_polys(images_t: pa.Table, n: int, span_deg: float,
                 rng: np.random.Generator) -> pa.Table:
    """`n` changeset polygons from `fixtures.make_change_polys`, each
    anchored on the footprint of a randomly chosen image so the PIP
    join has hits."""
    pick = rng.choice(images_t.num_rows, n, replace=False)
    cx, cy = footprint_from_phash(images_t["phash"].to_numpy()[pick])
    cy = np.clip(cy, -80.0 + span_deg, 80.0 - span_deg)
    cx = np.clip(cx, -179.0 + span_deg, 179.0 - span_deg)
    seed = int(rng.integers(0, 2**31))
    return make_change_polys(n, seed, span_deg,
                             centers=list(zip(cx.tolist(), cy.tolist())))


def features(n: int, rng: np.random.Generator):
    """(ids, lon, lat) of `n` point features, ids ascending."""
    lon = np.round(rng.uniform(-180.0, 180.0, n), 7)
    lat = np.round(np.degrees(np.arcsin(rng.uniform(-0.98, 0.98, n))), 7)
    return np.arange(1, n + 1, dtype=np.int64) * 7, lon, lat


# ---------------------------------------------------------------------------
# snapshot + replication feed
# ---------------------------------------------------------------------------


@dataclass
class Snapshot:
    """Numpy state of the OSM snapshot as the feed evolves it.

    Node ids 1..n; the first `n_way_nodes` are referenced by ways and
    relations and never deleted, the rest are free-standing POIs (the
    only nodes a feed deletes, so no geometry loses a member). Way and
    relation ids are 1..n_ways / 1..n_rels."""

    lon: np.ndarray
    lat: np.ndarray
    node_ver: np.ndarray
    node_live: np.ndarray
    n_way_nodes: int
    way_refs: list  # per way: int64 array of node ids
    way_ver: np.ndarray
    rel_ways: list  # per relation: int64 array of member way ids
    rel_nodes: np.ndarray  # per relation: one node member id

    def tables(self) -> tuple[pa.Table, pa.Table, pa.Table]:
        n = len(self.lon)
        ids = np.arange(1, n + 1, dtype=np.int64)
        ts = pa.array(np.full(n, T0_MS - 1000, np.int64), pa.timestamp("ms"))
        nodes = pa.table({
            "id": ids, "lon": self.lon, "lat": self.lat,
            "tags": pa.nulls(n, NODES_SCHEMA.field("tags").type),
            "version": self.node_ver.astype(np.int64), "ts": ts,
        }, schema=NODES_SCHEMA)
        nw = len(self.way_refs)
        woffs = np.r_[0, np.cumsum([len(r) for r in self.way_refs])]
        ways = pa.table({
            "id": np.arange(1, nw + 1, dtype=np.int64),
            "nd_refs": pa.ListArray.from_arrays(
                pa.array(woffs.astype(np.int32)),
                pa.array(np.concatenate(self.way_refs))),
            "tags": pa.nulls(nw, WAYS_SCHEMA.field("tags").type),
            "version": self.way_ver.astype(np.int64),
            "ts": pa.array(np.full(nw, T0_MS - 1000, np.int64),
                           pa.timestamp("ms")),
        }, schema=WAYS_SCHEMA)
        nr = len(self.rel_ways)
        cnt = np.array([len(r) + 1 for r in self.rel_ways])
        roffs = np.r_[0, np.cumsum(cnt)]
        refs = np.concatenate([np.r_[w, nd] for w, nd in
                               zip(self.rel_ways, self.rel_nodes)])
        is_node = np.zeros(len(refs), bool)
        is_node[roffs[1:] - 1] = True
        kinds = np.where(is_node, "node", "way")
        roles = np.where(is_node, "", "outer")
        members = pa.ListArray.from_arrays(
            pa.array(roffs.astype(np.int32)),
            pa.StructArray.from_arrays(
                [pa.array(refs.astype(np.int64)),
                 pa.array(kinds.tolist(), pa.string()),
                 pa.array(roles.tolist(), pa.string())],
                names=["ref", "type", "role"]),
        )
        rels = pa.table({
            "id": np.arange(1, nr + 1, dtype=np.int64),
            "members": members,
            "type": pa.array(np.where(np.arange(nr) % 3 == 0, "multipolygon",
                                      "route").tolist(), pa.string()),
            "tags": pa.nulls(nr, RELATIONS_SCHEMA.field("tags").type),
            "version": np.ones(nr, np.int64),
            "ts": pa.array(np.full(nr, T0_MS - 1000, np.int64),
                           pa.timestamp("ms")),
        }, schema=RELATIONS_SCHEMA)
        return nodes, ways, rels


def snapshot(n_nodes: int, n_ways: int, n_rels: int,
             rng: np.random.Generator) -> Snapshot:
    n_way_nodes = int(n_nodes * 0.6)
    lon = np.round(rng.uniform(-179.0, 179.0, n_nodes), 7)
    lat = np.round(rng.uniform(-80.0, 80.0, n_nodes), 7)
    # ways are short polylines of nearby-in-id nodes
    k = rng.integers(2, 9, n_ways)
    start = rng.integers(1, n_way_nodes - 8, n_ways)
    way_refs = [np.arange(s, s + c, dtype=np.int64) for s, c in zip(start, k)]
    m = rng.integers(2, 6, n_rels)
    rel_ways = [rng.choice(n_ways, c, replace=False).astype(np.int64) + 1
                for c in m]
    rel_nodes = rng.integers(1, n_way_nodes + 1, n_rels).astype(np.int64)
    return Snapshot(
        lon=lon, lat=lat, node_ver=np.ones(n_nodes, np.int64),
        node_live=np.ones(n_nodes, bool), n_way_nodes=n_way_nodes,
        way_refs=way_refs, way_ver=np.ones(n_ways, np.int64),
        rel_ways=rel_ways, rel_nodes=rel_nodes,
    )


@dataclass
class Window:
    """One sequence of the feed plus what applying it must produce."""

    seq: int
    change_rows: int
    expect_geo_rows: int
    node_ids: np.ndarray  # every node id changed this sequence
    node_ver: np.ndarray  # ... and its version, liveness and position
    node_live: np.ndarray  # after the sequence
    node_lon: np.ndarray
    node_lat: np.ndarray
    way_ids: np.ndarray
    way_ver: np.ndarray


@dataclass
class Feed:
    root: str
    windows: list = field(default_factory=list)


def _ts(ms: int) -> str:
    return np.datetime_as_string(np.datetime64(ms, "ms"), unit="s") + "Z"


def _node_xml(ids, ver, lon, lat, ts) -> list[str]:
    return [f'<node id="{i}" version="{v}" timestamp="{ts}" '
            f'lat="{y:.7f}" lon="{x:.7f}"/>'
            for i, v, x, y in zip(ids.tolist(), ver.tolist(),
                                  lon.tolist(), lat.tolist())]


def _way_xml(ids, ver, refs, ts) -> list[str]:
    return [f'<way id="{i}" version="{v}" timestamp="{ts}">'
            + "".join(f'<nd ref="{r}"/>' for r in rr.tolist()) + "</way>"
            for i, v, rr in zip(ids.tolist(), ver.tolist(), refs)]


def _write_state(root: str, path: str, seq: int, ts: str) -> None:
    with open(os.path.join(root, path), "w") as f:
        f.write(f"#generated\nsequenceNumber={seq}\n"
                f"timestamp={ts.replace(':', chr(92) + ':')}\n")


def publish(feed: Feed, seq: int) -> None:
    """Advance the mirror's `state.txt` to `seq` (a live feed's tick)."""
    _write_state(feed.root, "state.txt", seq,
                 _ts(T0_MS + seq * 60_000))


def feed(snap: Snapshot, root: str, n_seqs: int, moves: int, creates: int,
         deletes: int, way_edits: int, dup_frac: float,
         rng: np.random.Generator) -> Feed:
    """Write `n_seqs` OsmChange sequences (1..n_seqs) to a replication
    mirror under `root`, mutating `snap` to the post-feed state.

    Per sequence: `moves` node modifies (a `dup_frac` share of them
    carry an earlier superseded version in the same file), `creates`
    new POI nodes, `deletes` POI deletes and `way_edits` way modifies
    whose new refs stay inside the way-node pool. Each window's
    expected geo-delta row count is recounted from the pre-window
    state: created+modified nodes, ways touched by a moved node or
    edited, and relations whose members were touched."""
    out = Feed(root=root)
    n_ways = len(snap.way_refs)
    w_off = np.r_[0, np.cumsum([len(r) for r in snap.way_refs])]
    w_flat = np.concatenate(snap.way_refs)
    w_owner = np.repeat(np.arange(n_ways), np.diff(w_off))
    r_off = np.r_[0, np.cumsum([len(r) for r in snap.rel_ways])]
    r_flat = np.concatenate(snap.rel_ways) - 1
    r_owner = np.repeat(np.arange(len(snap.rel_ways)), np.diff(r_off))
    for seq in range(1, n_seqs + 1):
        ts = _ts(T0_MS + seq * 60_000)
        n_now = len(snap.lon)
        live = np.flatnonzero(snap.node_live) + 1
        moved = np.sort(rng.choice(live, moves, replace=False))
        poi = live[(live > snap.n_way_nodes) & ~np.isin(live, moved)]
        dels = np.sort(rng.choice(poi, min(deletes, len(poi)), replace=False))
        new_ids = np.arange(n_now + 1, n_now + creates + 1, dtype=np.int64)
        edited = np.sort(rng.choice(n_ways, way_edits, replace=False)) + 1

        # expected geo-delta rows, from the PRE-window state
        hit_way = np.zeros(n_ways, bool)
        hit_way[w_owner[np.isin(w_flat, np.r_[moved, dels])]] = True
        hit_way[edited - 1] = True
        touched_rel = np.zeros(len(snap.rel_ways), bool)
        touched_rel[r_owner[hit_way[r_flat]]] = True
        touched_rel |= np.isin(snap.rel_nodes, np.r_[moved, dels])
        expect = moves + creates + int(hit_way.sum()) + int(touched_rel.sum())

        # node moves (+ superseded duplicates), creates, deletes
        i = moved - 1
        dup = np.sort(rng.choice(moved, int(round(moves * dup_frac)),
                                 replace=False))
        snap.lon[i] = np.round(np.clip(
            snap.lon[i] + rng.uniform(-0.01, 0.01, moves), -179.9, 179.9), 7)
        snap.lat[i] = np.round(np.clip(
            snap.lat[i] + rng.uniform(-0.01, 0.01, moves), -84.0, 84.0), 7)
        stale_ver = snap.node_ver[dup - 1] + 1
        snap.node_ver[i] += 1 + np.isin(moved, dup)
        c_lon = np.round(rng.uniform(-179.0, 179.0, creates), 7)
        c_lat = np.round(rng.uniform(-80.0, 80.0, creates), 7)
        snap.lon = np.r_[snap.lon, c_lon]
        snap.lat = np.r_[snap.lat, c_lat]
        snap.node_ver = np.r_[snap.node_ver, np.ones(creates, np.int64)]
        snap.node_live = np.r_[snap.node_live, np.ones(creates, bool)]
        snap.node_ver[dels - 1] += 1
        snap.node_live[dels - 1] = False

        # way edits: a fresh run of way-pool nodes
        k = rng.integers(2, 9, way_edits)
        start = rng.integers(1, snap.n_way_nodes - 8, way_edits)
        new_refs = [np.arange(s, s + c, dtype=np.int64)
                    for s, c in zip(start, k)]
        for w, r in zip(edited, new_refs):
            snap.way_refs[w - 1] = r
        snap.way_ver[edited - 1] += 1
        if way_edits:
            w_off = np.r_[0, np.cumsum([len(r) for r in snap.way_refs])]
            w_flat = np.concatenate(snap.way_refs)
            w_owner = np.repeat(np.arange(n_ways), np.diff(w_off))

        parts = ['<?xml version="1.0" encoding="UTF-8"?>',
                 '<osmChange version="0.6" generator="perfbench">',
                 "<create>"]
        parts += _node_xml(new_ids, np.ones(creates, np.int64), c_lon, c_lat, ts)
        parts.append("</create><modify>")
        # superseded versions first; latest-wins must drop them
        di = dup - 1
        parts += _node_xml(dup, stale_ver, snap.lon[di] + 0.5,
                           snap.lat[di], ts)
        parts += _node_xml(moved, snap.node_ver[i], snap.lon[i],
                           snap.lat[i], ts)
        parts += _way_xml(edited, snap.way_ver[edited - 1], new_refs, ts)
        parts.append("</modify><delete>")
        parts += [f'<node id="{d}" version="{v}" timestamp="{ts}"/>'
                  for d, v in zip(dels.tolist(),
                                  snap.node_ver[dels - 1].tolist())]
        parts.append("</delete></osmChange>")
        path = os.path.join(root, osc.seq_path(seq) + ".osc.gz")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(gzip.compress("\n".join(parts).encode(), compresslevel=1))
        _write_state(root, osc.seq_path(seq) + ".state.txt", seq, ts)
        touched = np.r_[moved, new_ids, dels]
        out.windows.append(Window(
            seq=seq,
            change_rows=creates + len(dup) + moves + way_edits + len(dels),
            expect_geo_rows=expect,
            node_ids=touched,
            node_ver=snap.node_ver[touched - 1].copy(),
            node_live=snap.node_live[touched - 1].copy(),
            node_lon=snap.lon[touched - 1].copy(),
            node_lat=snap.lat[touched - 1].copy(),
            way_ids=edited,
            way_ver=snap.way_ver[edited - 1].copy(),
        ))
    return out
