"""XML entity escape/unescape + canonical element serializers.

Reimplements (NOT ports) the reference's XML plumbing:

- `xml_encode` / `xml_decode` — escape/unescape of `& " ' < > \\n \\r
  \\t` (`/root/reference/src/util/XmlReader.cpp:141-205`). Vectorized
  over pandas string Series for batch use; scalar helpers for tests.
- sanitize — re-encode already-encoded values
  (`src/util/XmlReader.cpp:122-137`): decode first, then encode, so
  double-escaping collapses to one level.
- canonical serializers for node / way / relation rows
  (`src/osm/Node.cpp:27-51`, `src/osm/Way.cpp:37-68`,
  `src/osm/Relation.cpp:27-67`): nd refs in position order, tags in
  stored order, optional `timestamp="...Z"`, coordinates with exactly
  7 decimal places (the reference's precision contract).
- WKT point parse/serialize (`src/osm/Node.cpp:20-51`).
"""

from __future__ import annotations

import re

# decode longest-first so &amp;lt; decodes in two passes like the
# reference's sequential replace chain
_ENCODE = [
    ("&", "&amp;"),
    ('"', "&quot;"),
    ("'", "&apos;"),
    ("<", "&lt;"),
    (">", "&gt;"),
    ("\n", "&#10;"),
    ("\r", "&#13;"),
    ("\t", "&#9;"),
]
_DECODE = [(e, c) for c, e in _ENCODE[1:]] + [("&amp;", "&")]  # &amp; LAST


def xml_encode(s: str) -> str:
    for ch, ent in _ENCODE:
        s = s.replace(ch, ent)
    return s


def xml_decode(s: str) -> str:
    for ent, ch in _DECODE:
        s = s.replace(ent, ch)
    return s


def sanitize(s: str) -> str:
    """Re-encode a possibly-already-encoded value exactly once."""
    return xml_encode(xml_decode(s))


def xml_encode_series(s):
    """Vectorized pandas variant."""
    for ch, ent in _ENCODE:
        s = s.str.replace(ch, ent, regex=False)
    return s


def xml_decode_series(s):
    """Vectorized pandas variant of `xml_decode` (same entity order:
    `&amp;` last, so double-encoded input decodes exactly one layer)."""
    for ent, ch in _DECODE:
        s = s.str.replace(ent, ch, regex=False)
    return s


def xml_decode_arrow(arr):
    """Arrow-native `xml_decode` (same `&amp;`-last entity order)."""
    import pyarrow.compute as pc

    for ent, ch in _DECODE:
        arr = pc.replace_substring(arr, pattern=ent, replacement=ch)
    return arr


# ---------------------------------------------------------------------------
# WKT point (the reference's geometry literal format)
# ---------------------------------------------------------------------------

_WKT_RE = re.compile(r"^POINT\s*\(\s*(-?\d+(?:\.\d+)?)\s+(-?\d+(?:\.\d+)?)\s*\)$")


def parse_wkt_point(wkt: str) -> tuple[float, float]:
    """'POINT(lon lat)' -> (lon, lat); raises ValueError on malformed
    input like the reference (`src/osm/Node.cpp:20-24`)."""
    m = _WKT_RE.match(wkt.strip())
    if not m:
        raise ValueError(f"malformed WKT point: {wkt!r}")
    return float(m.group(1)), float(m.group(2))


def format_coord(v: float) -> str:
    """Exactly 7 decimal places (`src/osm/Node.cpp:27,44-51`)."""
    return f"{v:.7f}"


def wkt_point(lon: float, lat: float) -> str:
    return f"POINT({format_coord(lon)} {format_coord(lat)})"


# ---------------------------------------------------------------------------
# canonical element XML (golden-fixture serialization)
# ---------------------------------------------------------------------------


def _ts_attr(ts_ms) -> str:
    """Accepts epoch-ms int or a datetime (Arrow to_pylist yields
    datetimes for timestamp columns)."""
    if ts_ms is None:
        return ""
    import datetime

    if isinstance(ts_ms, datetime.datetime):
        dt = ts_ms if ts_ms.tzinfo else ts_ms.replace(tzinfo=datetime.timezone.utc)
        # normalize to UTC before appending the literal 'Z' — a
        # tz-aware non-UTC datetime would otherwise serialize its
        # local wall time labeled as UTC (r2 review)
        dt = dt.astimezone(datetime.timezone.utc)
    else:
        dt = datetime.datetime.fromtimestamp(ts_ms / 1000.0, tz=datetime.timezone.utc)
    return f' timestamp="{dt.strftime("%Y-%m-%dT%H:%M:%S")}Z"'


def _tags_xml(tags) -> str:
    if not tags:
        return ""
    items = tags.items() if isinstance(tags, dict) else tags
    return "".join(
        f'\n\t<tag k="{xml_encode(str(k))}" v="{xml_encode(str(v))}"/>'
        for k, v in items
    )


def _ver_attr(version) -> str:
    return f' version="{version}"' if version is not None else ""


def node_xml(id: int, lon: float, lat: float, tags=None, ts_ms=None,
             version=None) -> str:
    """Canonical node XML with 7-dp coords."""
    body = _tags_xml(tags)
    head = f'<node id="{id}"{_ver_attr(version)}{_ts_attr(ts_ms)}'
    if lon is not None and lat is not None:
        head += f' lat="{format_coord(lat)}" lon="{format_coord(lon)}"'
    if body:
        return f"{head}>{body}\n</node>"
    return f"{head}/>"


def way_xml(id: int, nd_refs, tags=None, ts_ms=None, version=None) -> str:
    """Canonical way XML: nd refs in position order, then tags."""
    nds = "".join(f'\n\t<nd ref="{r}"/>' for r in nd_refs)
    return (
        f'<way id="{id}"{_ver_attr(version)}{_ts_attr(ts_ms)}>'
        f"{nds}{_tags_xml(tags)}\n</way>"
    )


def relation_xml(id: int, members, tags=None, ts_ms=None, version=None) -> str:
    """Canonical relation XML: members in position order with roles."""
    mems = "".join(
        f'\n\t<member type="{m["type"]}" ref="{m["ref"]}"'
        f' role="{xml_encode(m.get("role", ""))}"/>'
        for m in members
    )
    return (
        f'<relation id="{id}"{_ver_attr(version)}{_ts_attr(ts_ms)}>'
        f"{mems}{_tags_xml(tags)}\n</relation>"
    )
