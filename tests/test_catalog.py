"""Engine queries of the catalog: each of the paper's operators
(latest-wins, change counts, impact closure, reference index, store
lookup, member/relation geometry, PIP / kNN / tile assignment, TTL
filter and emit) against its DuckDB oracle at sf0.001, with the gate's
comparator (sorted columns, rows sorted by all columns, string-exact
values)."""

import glob
import os
import re

import duckdb
import pandas as pd
import pytest

from oluray.pipelines.queries import ORACLE, QUERIES
from test_io import SF  # the sf0.001 test tables

ENGINE_QUERIES = (
    "latest_wins", "change_counts",
    "impact_closure", "impact_closure_shuffle", "closure_2hop", "rel_of_rel",
    "ref_index_owners", "store_lookup",
    "member_collect", "refs_distinct", "max_ts", "tag_enrich",
    "rel_centroid", "rel_envelope", "delete_set",
    "cell_encode", "pip_join", "knn_assign", "tile_cover",
    "ttl_filter", "ttl_emit", "ttl_emit_ways", "ttl_emit_rels",
)
TESTS = os.path.dirname(os.path.abspath(__file__))
CATALOG_MD = os.path.join(os.path.dirname(TESTS), "CATALOG.md")
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _to_pandas(result) -> pd.DataFrame:
    return result if isinstance(result, pd.DataFrame) else result.to_pandas()


def test_every_engine_query_has_an_oracle():
    assert set(ENGINE_QUERIES) <= set(QUERIES) & set(ORACLE)


@pytest.mark.parametrize("name", ENGINE_QUERIES)
def test_query_matches_oracle(con, name):
    got = _to_pandas(QUERIES[name](SF))
    exp = con.sql(ORACLE[name]).df()
    cols = sorted(got.columns)
    assert cols == sorted(exp.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    e = exp[cols].sort_values(cols).reset_index(drop=True)
    assert g.shape == e.shape
    assert (g.astype(str).values == e.astype(str).values).all()


def test_every_catalog_query_is_named_by_a_test():
    """Each catalog entry is reached by some test: its registry key as a
    quoted string or its function's name appears in a tests/ file."""
    src = "".join(open(p).read() for p in glob.glob(f"{TESTS}/*.py"))
    untested = sorted(
        k for k, fn in QUERIES.items()
        if f'"{k}"' not in src and f"'{k}'" not in src
        and not re.search(rf"\b{fn.__name__}\b", src))
    assert untested == []


def test_catalog_md_has_one_row_per_query():
    rows = re.findall(r"^\| `([^`]+)` \| (oracle|rows-only) \|",
                      open(CATALOG_MD).read(), re.M)
    assert sorted(name for name, _ in rows) == sorted(QUERIES)
    assert dict(rows) == {k: "oracle" if k in ORACLE else "rows-only"
                          for k in QUERIES}
