"""Impact-closure joins (J1-J9 analogs) vs brute-force python oracle."""

import numpy as np
import pyarrow as pa
import ray.data

from oluray.sources import fixtures
from oluray.stages import closure


def _snapshot():
    nodes, ways, rels = fixtures.make_snapshot(200, seed=42)
    return nodes, ways, rels


def test_explode_way_refs_positions():
    _, ways, _ = _snapshot()
    out = closure.explode_way_refs(ray.data.from_arrow(ways)).to_pandas()
    raw = ways.to_pylist()
    expected = [
        (w["id"], ref, pos)
        for w in raw
        for pos, ref in enumerate(w["nd_refs"])
    ]
    got = list(zip(out["way_id"], out["node_id"], out["pos"]))
    assert sorted(got) == sorted(expected)


def test_ways_to_update_geometry_matches_oracle():
    nodes, ways, rels = _snapshot()
    modified = np.arange(1000, 1020)
    in_changefile = np.array([5000, 5001])
    got = closure.ways_to_update_geometry(
        ray.data.from_arrow(ways), modified, in_changefile
    )
    oracle = sorted(
        w["id"]
        for w in ways.to_pylist()
        if any(r in set(modified.tolist()) for r in w["nd_refs"])
        and w["id"] not in set(in_changefile.tolist())
    )
    assert got.tolist() == oracle
    assert len(oracle) > 0


def test_relations_to_update_geometry_matches_oracle():
    nodes, ways, rels = _snapshot()
    modified_nodes = np.arange(1000, 1030)
    touched_ways = np.array([5003, 5007, 5011])
    in_change = np.array([7000])
    got = closure.relations_to_update_geometry(
        ray.data.from_arrow(rels), modified_nodes, touched_ways, in_change
    )
    mn, tw, ic = set(modified_nodes.tolist()), set(touched_ways.tolist()), {7000}
    oracle = sorted(
        r["id"]
        for r in rels.to_pylist()
        if r["id"] not in ic
        and any(
            (m["type"] == "node" and m["ref"] in mn)
            or (m["type"] == "way" and m["ref"] in tw)
            for m in r["members"]
        )
    )
    assert got.tolist() == oracle


def test_relations_referencing_relations_matches_oracle():
    """J4 rel-of-rel reverse reference (the catalog's `rel_of_rel`;
    apply_update never runs it, as the reference keeps it disabled;
    `src/sparql/QueryWriter.cpp:223-240`)."""
    from oluray.sources.fixtures import RELATIONS_SCHEMA

    rng = np.random.default_rng(9)
    rels = []
    for ri in range(30):
        rid = 7000 + ri
        members = [
            {"ref": 7000 + int(rng.integers(0, 30)), "type": "relation",
             "role": "subarea"},
            {"ref": 5000 + int(rng.integers(0, 40)), "type": "way",
             "role": "outer"},
        ]
        rels.append(dict(id=rid, members=members, type="route", tags=None,
                         version=1, ts=1_690_000_000_000 + ri))
    rels_t = pa.Table.from_pylist(rels, schema=RELATIONS_SCHEMA)
    targets = np.array([7003, 7011, 7020])
    exclude = np.array([7001, 7002])
    got = closure.relations_referencing_relations(
        ray.data.from_arrow(rels_t), targets, exclude
    )
    tg, ex = set(targets.tolist()), set(exclude.tolist())
    oracle = sorted(
        r["id"]
        for r in rels
        if r["id"] not in ex
        and any(m["type"] == "relation" and m["ref"] in tg
                for m in r["members"])
    )
    assert got.tolist() == oracle
    assert len(oracle) > 0
    # way members referencing the same ids must NOT count: every
    # relation-typed ref is in 7000..7029, so querying the way id
    # space must return nothing even though way members hit it
    none = closure.relations_referencing_relations(
        ray.data.from_arrow(rels_t), np.array([5000 + i for i in range(40)]),
    )
    assert none.tolist() == []


def test_keyset_limit_zero_forces_shuffle_path():
    """distinct_keys(limit=0) must stay a distributed Dataset (no
    driver broadcast array) and the semi/anti filters must match the
    broadcast path exactly — the 100 TB backfill-window contract
    (VERDICT r3 item 6)."""
    _, ways, _ = _snapshot()
    ds = ray.data.from_arrow(ways)
    exploded = closure.explode_way_refs(ds)
    ks = closure.distinct_keys(exploded, "node_id", limit=0)
    assert not ks.is_broadcast
    assert ks.arr is None  # no broadcast array was ever built
    modified = np.arange(1000, 1020)
    bcast = closure.semi_join(
        exploded, "node_id", closure.broadcast_keys(modified)
    ).to_pandas()
    shuf = closure.semi_join(
        exploded, "node_id",
        closure.KeySet(ds=ray.data.from_arrow(
            pa.table({"k": pa.array(modified, pa.int64())})), col="k",
            count=len(modified), limit=0),
        schema=closure.EXPLODED_WAYS_SCHEMA,
    ).to_pandas()
    key = ["way_id", "node_id", "pos"]
    assert sorted(map(tuple, bcast[key].values.tolist())) == sorted(
        map(tuple, shuf[key].values.tolist())
    )


def test_way_member_nodes_distinct():
    _, ways, _ = _snapshot()
    ids = np.array([5000, 5001, 5002])
    got = closure.way_member_nodes(ray.data.from_arrow(ways), ids)
    oracle = sorted(
        {r for w in ways.to_pylist() if w["id"] in set(ids.tolist()) for r in w["nd_refs"]}
    )
    assert got.tolist() == oracle


def test_relation_member_refs_split_by_type():
    _, _, rels = _snapshot()
    ids = np.array([7000, 7001, 7002])
    n_ids, w_ids = closure.relation_member_refs(ray.data.from_arrow(rels), ids)
    sel = [r for r in rels.to_pylist() if r["id"] in set(ids.tolist())]
    on = sorted({m["ref"] for r in sel for m in r["members"] if m["type"] == "node"})
    ow = sorted({m["ref"] for r in sel for m in r["members"] if m["type"] == "way"})
    assert n_ids.tolist() == on
    assert w_ids.tolist() == ow


def test_node_locations_missing_ok():
    nodes, _, _ = _snapshot()
    asked = np.array([1000, 1001, 123456789])  # last one missing
    got = closure.node_locations(ray.data.from_arrow(nodes), asked).to_pandas()
    assert sorted(got["id"]) == [1000, 1001]  # fewer rows than asked is fine


def test_reconstruct_ways_sorted_by_pos():
    # shuffled member rows must come back position-sorted (J8,
    # reference re-sorts GROUP_CONCAT output by pos,
    # src/osm/OsmDataFetcher.cpp:281-330)
    rows = [
        dict(way_id=1, node_id=30, pos=2),
        dict(way_id=1, node_id=10, pos=0),
        dict(way_id=2, node_id=7, pos=0),
        dict(way_id=1, node_id=20, pos=1),
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    out = closure.reconstruct_ways(ds).to_pandas().sort_values("way_id")
    assert out[out["way_id"] == 1]["nd_refs"].iloc[0] == [10, 20, 30]
    assert out[out["way_id"] == 2]["nd_refs"].iloc[0] == [7]


def test_reconstruct_relations_sorted_by_pos():
    rows = [
        dict(rel_id=9, ref=5, type="way", role="outer", pos=1),
        dict(rel_id=9, ref=3, type="node", role="", pos=0),
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    out = closure.reconstruct_relations(ds).to_pandas()
    members = out["members"].iloc[0]
    assert [m["ref"] for m in members] == [3, 5]
    assert members[0]["role"] == ""
