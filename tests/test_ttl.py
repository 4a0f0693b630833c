"""TTL triple layer: S8 reader, M10 splitter, M11 namespace/id, M12
link predicates, ST2 relevant-triple filter (order-free), and the
sequential-cursor cross-check against the reference algorithm
(`/root/reference/src/osm/OsmChangeHandler.cpp:595-656`,
`src/util/TtlHelper.cpp`)."""

import bz2
import gzip

import numpy as np
import pyarrow as pa
import pytest

from oluray.functions import ttl as ttlf
from oluray.stages import ttl as ttls

# ---------------------------------------------------------------------------
# fixture TTL text — osm2rdf ordering: each linked block (geometry
# subject / member blank node) directly follows its element's lines
# ---------------------------------------------------------------------------

TTL_TEXT = """\
@prefix osmnode: <https://www.openstreetmap.org/node/> .
@prefix geo: <http://www.opengis.net/ont/geosparql#> .
osmnode:1 rdf:type osm:node .
osmnode:1 osmkey:name "A &amp; B &quot;Caf&#233;&quot;" .
osmnode:1 geo:hasGeometry osm2rdfgeom:osm_node_1 .
osm2rdfgeom:osm_node_1 geo:asWKT "POINT(13.0000000 52.0000000)"^^geo:wktLiteral .
osmnode:2 rdf:type osm:node .
osmnode:2 geo:hasCentroid osm2rdfgeom:osm_node_centroid_2 .
osm2rdfgeom:osm_node_centroid_2 geo:asWKT "POINT(1.0000000 2.0000000)"^^geo:wktLiteral .
osmnode:99 rdf:type osm:node .
osmnode:99 geo:hasGeometry osm2rdfgeom:osm_node_99 .
osm2rdfgeom:osm_node_99 geo:asWKT "POINT(9.0000000 9.0000000)"^^geo:wktLiteral .
osmway:10 rdf:type osm:way .
osmway:10 osmway:node osmnode:1 .
osmway:10 geo:hasGeometry osm2rdfgeom:osm_wayarea_10 .
osm2rdfgeom:osm_wayarea_10 geo:asWKT "POLYGON((0 0,1 1,1 0,0 0))"^^geo:wktLiteral .
osmway:88 rdf:type osm:way .
osmway:88 geo:hasGeometry osm2rdfgeom:osm_wayarea_88 .
osm2rdfgeom:osm_wayarea_88 geo:asWKT "POLYGON((5 5,6 6,6 5,5 5))"^^geo:wktLiteral .
osmrel:7 rdf:type osm:relation .
osmrel:7 osmrel:member _:b0 .
_:b0 osm2rdfmember:id osmway:10 .
osmrel:7 osmrel:member _:b1 .
_:b1 osm2rdfmember:id osmnode:2 .
otherns:5 some:pred "unrelated" .
"""

NODE_IDS = np.array([1, 2], dtype=np.int64)
WAY_IDS = np.array([10], dtype=np.int64)
REL_IDS = np.array([7], dtype=np.int64)


def _data_lines():
    return [
        ln for ln in TTL_TEXT.splitlines() if ln and not ln.startswith("@")
    ]


def reference_sequential_filter(lines, node_ids, way_ids, rel_ids):
    """The reference's single-cursor sequential algorithm
    (`OsmChangeHandler.cpp:595-656`): keep a line if its subject is an
    element in the matching insert set (then remember the link object
    of a link-predicate line), or if its subject equals the current
    link. Ground truth for the order-free distributed filter."""
    sets = {
        "node": set(node_ids.tolist()),
        "way": set(way_ids.tolist()),
        "relation": set(rel_ids.tolist()),
    }
    kept, links = [], set()
    for ln in lines:
        tbl = ttlf.split_triples(pa.array([ln]))
        s, p, o = (tbl[c][0].as_py() for c in ("s", "p", "o"))
        owner = None
        for ot, pfx in ttlf.NAMESPACE_PREFIX.items():
            if s.startswith(pfx):
                owner = ot
                break
        if owner is not None:
            eid = ttlf.id_from_subject(pa.array([s]), owner)[0].as_py()
            if eid in sets[owner]:
                kept.append((s, p, o))
                if ttlf.link_predicate_mask(pa.array([p]), owner)[0].as_py():
                    links.add(o)
        elif s in links:
            kept.append((s, p, o))
    return sorted(kept)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_split_triples_roundtrip():
    tbl = ttlf.split_triples(pa.array(_data_lines()))
    assert tbl.column_names == ["s", "p", "o"]
    # greedy object capture keeps spaces + trailing typed literal
    row = {
        tbl["s"][i].as_py(): tbl["o"][i].as_py() for i in range(len(tbl))
    }
    assert row["osm2rdfgeom:osm_node_1"] == (
        '"POINT(13.0000000 52.0000000)"^^geo:wktLiteral'
    )
    assert row["otherns:5"] == '"unrelated"'


def test_split_triples_raises_like_reference():
    with pytest.raises(ttlf.TtlError, match="Cant split triple"):
        ttlf.split_triples(pa.array(["osmnode:1 rdf:type osm:node"]))  # no " ."


def test_id_from_subject_geometry_namespaces():
    # TtlHelper.cpp:62-82 alternatives
    subs = pa.array(
        ["osmnode:7", "osm2rdfgeom:osm_node_centroid_8", "osm2rdfgeom:osm_node_9"]
    )
    assert ttlf.id_from_subject(subs, "node").to_pylist() == [7, 8, 9]
    subs = pa.array(["osmway:3", "osm2rdfgeom:osm_wayarea_4"])
    assert ttlf.id_from_subject(subs, "way").to_pylist() == [3, 4]
    subs = pa.array(["osmrel:5", "osm2rdfgeom:osm_relarea_6"])
    assert ttlf.id_from_subject(subs, "relation").to_pylist() == [5, 6]
    with pytest.raises(ttlf.TtlError, match="Cant get id"):
        ttlf.id_from_subject(pa.array(["osmnode:abc"]), "node")
    lax = ttlf.id_from_subject(pa.array(["osmnode:abc"]), "node", strict=False)
    assert lax.to_pylist() == [None]


def test_link_predicate_mask():
    preds = pa.array(["osmway:node", "geo:hasGeometry", "osmkey:name"])
    assert ttlf.link_predicate_mask(preds, "way").to_pylist() == [
        True, True, False,
    ]
    assert ttlf.link_predicate_mask(preds, "node").to_pylist() == [
        False, True, False,
    ]
    assert ttlf.link_predicate_mask(
        pa.array(["osmrel:member"]), "relation"
    ).to_pylist() == [True]


def test_element_lines_emitters():
    lines = ttlf.element_lines(
        "node", [5], lon=[13.0], lat=[52.0], tags={"name": ["x"]}
    )
    flat = [a[0].as_py() for a in lines]
    assert flat == [
        "osmnode:5 rdf:type osm:node .",
        'osmnode:5 osmkey:name "x" .',
        "osmnode:5 geo:hasGeometry osm2rdfgeom:osm_node_5 .",
        'osm2rdfgeom:osm_node_5 geo:asWKT "POINT(13.0000000 52.0000000)"'
        "^^geo:wktLiteral .",
    ]
    # emitted lines parse back through the splitter
    ttlf.split_triples(pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in lines]))
    member = ttlf.way_member_lines([10], [1])
    assert member[0].as_py() == "osmway:10 osmway:node osmnode:1 ."


# ---------------------------------------------------------------------------
# S8 reader
# ---------------------------------------------------------------------------


def test_read_ttl_plain_gz_bz2(tmp_path):
    p = tmp_path / "a.ttl"
    p.write_text(TTL_TEXT)
    pg = tmp_path / "b.ttl.gz"
    pg.write_bytes(gzip.compress(TTL_TEXT.encode()))
    pb = tmp_path / "c.ttl.bz2"
    pb.write_bytes(bz2.compress(TTL_TEXT.encode()))
    want = sorted(_data_lines())
    for path in (p, pg, pb):
        got = sorted(
            r["line"] for r in ttls.read_ttl(str(path)).take_all()
        )
        assert got == want, path
    # mixed plain + compressed in one call
    both = ttls.read_ttl([str(p), str(pg)])
    assert both.count() == 2 * len(want)


# ---------------------------------------------------------------------------
# ST2 filter
# ---------------------------------------------------------------------------


def _run_filter(**kw):
    lines = pa.array(_data_lines())
    import ray.data

    ds = ray.data.from_arrow(pa.table({"line": lines}))
    triples = ttls.parse_triples(ds)
    out = ttls.filter_relevant_triples(
        triples, NODE_IDS, WAY_IDS, REL_IDS, **kw
    )
    return sorted((r["s"], r["p"], r["o"]) for r in out.take_all())


def _expected():
    exp = reference_sequential_filter(
        _data_lines(), NODE_IDS, WAY_IDS, REL_IDS
    )
    # the engine decodes osmkey: literals on read
    # (OsmChangeHandler.cpp:609-612)
    from oluray.functions.xmlcodec import xml_decode

    return sorted(
        (s, p, xml_decode(o) if p.startswith("osmkey:") else o)
        for s, p, o in exp
    )


def test_filter_matches_sequential_reference_broadcast():
    got = _run_filter()
    exp = _expected()
    assert got == exp
    subjects = {s for s, _, _ in got}
    # non-inserted elements and their geometry blocks are dropped
    assert "osmnode:99" not in subjects
    assert "osm2rdfgeom:osm_node_99" not in subjects
    assert "osmway:88" not in subjects
    assert "otherns:5" not in subjects
    # linked blocks of kept elements survive (geometry, blank nodes)
    assert "osm2rdfgeom:osm_wayarea_10" in subjects
    assert "_:b0" in subjects and "_:b1" in subjects
    # osmkey literal got decoded
    names = [o for s, p, o in got if p == "osmkey:name"]
    assert names == ['"A & B "Caf&#233;""']


def test_filter_shuffle_path_identical():
    # broadcast_limit=0 forces every id set AND the link-subject keys
    # through the hash-partitioned joins.semi_join path
    assert _run_filter(broadcast_limit=0, num_partitions=4) == _expected()


def test_filter_empty_sets():
    empty = np.array([], dtype=np.int64)
    import ray.data

    ds = ray.data.from_arrow(pa.table({"line": pa.array(_data_lines())}))
    out = ttls.filter_relevant_triples(
        ttls.parse_triples(ds), empty, empty, empty
    )
    assert out.take_all() == []


def test_write_ttl_shards_splits_mixed_kind_batch(tmp_path):
    """A batch holding blocks of several kinds writes one shard per
    kind, each named after the kind of every block inside it."""
    import os

    import ray.data

    ids = [1, 2, 10, 3, 11, 100]
    kinds = ["node", "node", "way", "node", "way", "relation"]
    ns = {"node": "osmnode", "way": "osmway", "relation": "osmrel"}
    blocks = pa.table({
        "kind": kinds,
        "id": pa.array(ids, pa.int64()),
        "text": [f"{ns[k]}:{i} rdf:type osm:{k} ." for k, i in zip(kinds, ids)],
    })
    d = str(tmp_path / "shards")
    assert ttls.write_ttl_shards(ray.data.from_arrow(blocks), d) == len(ids)
    seen = []
    for name in sorted(os.listdir(d)):
        if not name.startswith("part-"):
            continue
        kind = name.split("-")[1]
        lines = open(os.path.join(d, name)).read().splitlines()
        assert all(ln.startswith(f"{ns[kind]}:") for ln in lines), name
        seen += lines
    assert sorted(seen) == sorted(blocks["text"].to_pylist())
