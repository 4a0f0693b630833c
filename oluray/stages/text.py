"""Text-analysis operators over the `documents` table.

Large-scale training-data-pipeline stages, each a vectorized
`map_batches` transform (stateful ones are callable classes so regex
compilation happens once per actor):

- token counting (whitespace split — SQL-parity with
  `string_split(text, ' ')`)
- quality signals as EXACT integer counts (alpha/digit/space/punct) —
  integers, not ratios, so SQL oracles hash-match bit-for-bit
- language-ID: marker-word counting + deterministic argmax (the
  n-gram-heuristic family, expressible in SQL via replace-length
  counting)
- document fingerprinting: rolling polynomial hash over tokens
  (not SQL-expressible; verified by pytest oracle)
- context-length chunking (overlapping token windows) and stopword
  scrubbing — map-side, one Arrow gather + binary_join per batch
- balanced sharding (LPT round-robin) via a histogram-offset global
  row_number — no global sort, driver footprint bounded by the
  token-LENGTH histogram, not the corpus
- greedy next-fit sequence packing per hash partition (the
  pre-tokenization packing pass; order-sequential by definition)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# marker words per language, with surrounding spaces so they match as
# whole words mid-string; counting is non-overlapping left-to-right in
# both pandas (`str.count`) and SQL (`replace`-length difference)
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": (" the ", " and ", " of "),
    "de": (" der ", " und ", " die "),
    "fr": (" le ", " et ", " les "),
    "es": (" el ", " y ", " los "),
}
_LANG_ORDER = ("en", "de", "fr", "es")  # deterministic tie-break order


class TokenCount:
    """n_tokens = number of ' '-separated fields (SQL:
    `length(string_split(text, ' '))`) — consecutive spaces yield
    empty fields in BOTH engines, by construction."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["text"].str.count(" ", flags=0).fillna(0).astype("int64") + 1
        return pd.DataFrame({"doc_id": batch["doc_id"], "n_tokens": n})


class QualityCounts:
    """Exact integer quality signals: length, alpha, digit, space."""

    def __init__(self):
        import re

        self.alpha = re.compile(r"[A-Za-z]")
        self.digit = re.compile(r"[0-9]")
        self.space = re.compile(r" ")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_chars": t.str.len().astype("int64"),
                "n_alpha": t.str.count(self.alpha).astype("int64"),
                "n_digit": t.str.count(self.digit).astype("int64"),
                "n_space": t.str.count(self.space).astype("int64"),
            }
        )


class LangId:
    """Predict language by marker-word counts, deterministic argmax
    (first language in _LANG_ORDER with the max count wins)."""

    def __init__(self):
        import re

        self.patterns = {
            lang: [re.compile(re.escape(m)) for m in ms]
            for lang, ms in LANG_MARKERS.items()
        }

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"].str.lower()
        counts = {}
        for lang in _LANG_ORDER:
            c = None
            for p in self.patterns[lang]:
                cc = t.str.count(p)
                c = cc if c is None else c + cc
            counts[lang] = c.astype("int64")
        arr = np.stack([counts[lang].to_numpy() for lang in _LANG_ORDER])
        pred_idx = np.argmax(arr, axis=0)  # first max wins (ties -> _LANG_ORDER)
        pred = np.array(_LANG_ORDER)[pred_idx]
        out = {"doc_id": batch["doc_id"], "pred_lang": pred}
        for lang in _LANG_ORDER:
            out[f"n_{lang}"] = counts[lang]
        return pd.DataFrame(out)


def langid_sql(text_expr: str = "lower(text)") -> str:
    """SQL expression block computing the same marker counts +
    argmax; returns a SELECT-list fragment (pred_lang, n_en, ...)."""
    count_exprs = {}
    for lang, ms in LANG_MARKERS.items():
        parts = [
            f"((length({text_expr}) - length(replace({text_expr}, '{m}', ''))) / {len(m)})"
            for m in ms
        ]
        count_exprs[lang] = "(" + " + ".join(parts) + ")::BIGINT"
    e = count_exprs
    pred = (
        f"CASE WHEN {e['en']} >= {e['de']} AND {e['en']} >= {e['fr']} AND {e['en']} >= {e['es']} THEN 'en' "
        f"WHEN {e['de']} >= {e['fr']} AND {e['de']} >= {e['es']} THEN 'de' "
        f"WHEN {e['fr']} >= {e['es']} THEN 'fr' ELSE 'es' END"
    )
    cols = [f"{pred} AS pred_lang"]
    for lang in _LANG_ORDER:
        cols.append(f"{e[lang]} AS n_{lang}")
    return ", ".join(cols)


_FP_BASE = np.uint64(1099511628211)  # FNV-ish multiplier
_FP_OFFSET = np.uint64(14695981039346656037)


_LONG_TOKEN = 64  # padded-matrix width cap


def _fnv1a_bytes(data: bytes) -> np.uint64:
    h = _FP_OFFSET
    with np.errstate(over="ignore"):
        for b in data:
            h = (h ^ np.uint64(b)) * _FP_BASE
    return h


def token_hashes_many(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """FNV-1a per ' '-token for a whole batch of texts, vectorized.

    Returns (flat_hashes, counts): all token hashes concatenated in
    text order, plus tokens-per-text. Tokens up to 64 bytes (the vast
    majority of natural text) go through a padded byte matrix
    processed column-by-column; LONGER tokens (base64 blobs, minified
    JS, megabyte URLs in web scrapes) are hashed individually — a
    single padded matrix sized by the longest token would allocate
    O(n_tokens x longest_token) and OOM on one degenerate row.
    Bit-identical output either way.
    """
    counts = np.fromiter((t.count(" ") + 1 for t in texts), dtype=np.int64,
                         count=len(texts))
    toks: list[bytes] = []
    for t in texts:
        toks.extend(s.encode("utf-8", "surrogatepass") for s in t.split(" "))
    n = len(toks)
    if n == 0:
        return np.empty(0, dtype=np.uint64), counts
    lens = np.fromiter(map(len, toks), dtype=np.int64, count=n)
    h = np.full(n, _FP_OFFSET, dtype=np.uint64)
    long_idx = np.flatnonzero(lens > _LONG_TOKEN)
    for i in long_idx:
        h[i] = _fnv1a_bytes(toks[i])
    short_mask = lens <= _LONG_TOKEN
    short_lens = np.minimum(lens, _LONG_TOKEN)
    maxlen = int(short_lens.max()) if short_mask.any() else 0
    if maxlen == 0:
        return h, counts
    mat = np.frombuffer(
        b"".join(
            (t[:maxlen] if len(t) > maxlen else t).ljust(maxlen, b"\x00")
            for t in toks
        ),
        dtype=np.uint8,
    ).reshape(n, maxlen)
    with np.errstate(over="ignore"):  # uint64 wraparound is the hash
        for j in range(maxlen):
            mask = short_mask & (lens > j)
            h[mask] = (h[mask] ^ mat[mask, j].astype(np.uint64)) * _FP_BASE
    return h, counts


class Fingerprint:
    """Rolling polynomial document fingerprint over token hashes
    (order-sensitive; a reordered document fingerprints differently).
    """

    MOD = np.uint64((1 << 61) - 1)
    MULT = np.uint64(31)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].tolist()
        flat, counts = token_hashes_many(texts)
        # replicate r1's numpy-scalar recurrence exactly with Python
        # ints (≈10x faster than np.uint64 scalar ops): each step is
        # wrap-mod-2^64 of (acc*31 + h%M), then mod M — the wraparound
        # IS part of the fingerprint definition (deterministic), so it
        # is preserved rather than "fixed".
        M = int(self.MOD)
        M64 = (1 << 64) - 1
        hm = (flat % self.MOD).tolist()
        fps = np.empty(len(texts), dtype=np.int64)
        pos = 0
        for i, c in enumerate(counts):
            acc = 0
            for h in hm[pos : pos + c]:
                acc = ((acc * 31 + h) & M64) % M
            fps[i] = acc
            pos += c
        return pd.DataFrame({"doc_id": batch["doc_id"], "fingerprint": fps})


# ---------------------------------------------------------------------------
# Corpus-scale vocabulary / TF-IDF / contamination operators
# ---------------------------------------------------------------------------
#
# Tokenization convention shared with the SQL oracles: lowercase, then
# split on runs of non-[a-z]; empty fields dropped. Identical to
# DuckDB's `string_split_regex(lower(text), '[^a-z]+')` + empty filter.
#
# Scale assumption (documented, load-bearing): `docs` is one row per
# document with map/read lineage, so a document's tokens never straddle
# a block boundary — per-block tf / per-doc distinct are globally
# correct WITHOUT a doc_id shuffle. Only term-keyed aggregates
# (df/cf) and the term join shuffle, and they move (term, count)
# pairs, never text.

_TERM_SPLIT = r"[^a-z]+"


def _explode_terms(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, term) rows, one per token occurrence, order preserved
    (C-level split + explode — no Python loop over rows)."""
    s = batch["text"].str.lower().str.split(_TERM_SPLIT, regex=True)
    out = pd.DataFrame({"doc_id": batch["doc_id"], "term": s}).explode(
        "term", ignore_index=True
    )
    out = out[(out["term"].notna()) & (out["term"] != "")]
    return out.reset_index(drop=True)


def explode_terms(docs) -> "ray.data.Dataset":
    """Token stream Dataset (doc_id, term) — the shared front of the
    vocabulary / tf-idf / contamination family."""
    return docs.map_batches(_explode_terms, batch_format="pandas")


def vocab_stats(docs, num_partitions: int = 64) -> "ray.data.Dataset":
    """(term, df, cf): document frequency + collection frequency.

    Per-block combiner emits (term, df_partial, cf_partial) — correct
    because whole documents live in one block (see module note) — so
    the term shuffle moves one row per distinct term per block, never
    the token stream."""
    from oluray.stages import joins

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        tok = _explode_terms(batch)
        g = tok.groupby("term", sort=False)
        cf = g.size()
        df = tok.drop_duplicates(["doc_id", "term"]).groupby(
            "term", sort=False
        ).size()
        return pd.DataFrame(
            {"term": cf.index, "df": df.reindex(cf.index).to_numpy(),
             "cf": cf.to_numpy()}
        )

    def agg(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("term", as_index=False)[["df", "cf"]].sum()
        g["df"] = g["df"].astype("int64")
        g["cf"] = g["cf"].astype("int64")
        return g

    return joins.grouped_agg(docs.map_batches(combine, batch_format="pandas"),
                             ["term"], agg, num_partitions=num_partitions,
                             pre_repartition=False)


def doc_tf(docs) -> "ray.data.Dataset":
    """(doc_id, term, tf) — computed entirely map-side (doc-in-block
    invariant), no shuffle."""

    def tf(batch: pd.DataFrame) -> pd.DataFrame:
        tok = _explode_terms(batch)
        g = tok.groupby(["doc_id", "term"], sort=False, as_index=False).size()
        g = g.rename(columns={"size": "tf"})
        g["tf"] = g["tf"].astype("int64")
        return g

    return docs.map_batches(tf, batch_format="pandas")


def tfidf_topk(docs, k: int = 3, num_partitions: int = 64) -> "ray.data.Dataset":
    """Top-k terms per document ranked by tf/df descending (a
    monotone tf-idf surrogate whose float ordering is reproducible
    bit-for-bit across engines — one IEEE division, no libm), term
    ascending on ties. Output (doc_id, term, tf, df) — integers only.

    Shape: map-side tf ⋈ (hash-partitioned) df by term, then a
    doc_id-partitioned top-k. Both shuffles move (ids, term, counts)
    rows; document text never leaves the first map."""
    from oluray.stages import joins

    tf = doc_tf(docs)
    df = vocab_stats(docs, num_partitions).drop_columns(["cf"])
    joined = joins.hash_join(tf, df, on="term", num_partitions=num_partitions)

    def topk(part: pd.DataFrame) -> pd.DataFrame:
        part = part.copy(deep=False)
        part["score"] = part["tf"].to_numpy(np.float64) / part["df"].to_numpy(
            np.float64
        )
        part = part.sort_values(
            ["doc_id", "score", "term"], ascending=[True, False, True],
            kind="mergesort",
        )
        out = part.groupby("doc_id", sort=False).head(k)
        return out[["doc_id", "term", "tf", "df"]].reset_index(drop=True)

    # per-block top-k combiner first (same algebraic bound as
    # joins.group_topk): the doc_id exchange then moves <= k rows per
    # (block, doc) instead of the full tf ⋈ df join output
    combined = joined.map_batches(topk, batch_format="pandas",
                                  batch_size=65536)
    return joins.partitioned_map(combined, ["doc_id"], topk,
                                 num_partitions=num_partitions)


def doc_trigrams(docs) -> "ray.data.Dataset":
    """Distinct word-trigram shingles per document: (doc_id, tri).
    Vectorized shift-concat over the exploded token stream (tokens of
    one doc are contiguous post-explode); distinct is per-block-final
    by the doc-in-block invariant."""

    def tri(batch: pd.DataFrame) -> pd.DataFrame:
        tok = _explode_terms(batch)
        if len(tok) < 3:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "tri": pd.Series([], dtype="object")})
        t0 = tok["term"].to_numpy(dtype=object)
        d = tok["doc_id"].to_numpy()
        ok = d[:-2] == d[2:]
        tri = t0[:-2][ok] + " " + t0[1:-1][ok] + " " + t0[2:][ok]
        out = pd.DataFrame({"doc_id": d[:-2][ok], "tri": tri})
        return out.drop_duplicates(ignore_index=True)

    return docs.map_batches(tri, batch_format="pandas")


class QualityModel:
    """Batched model inference, the actor-pool pattern: "model load"
    (weights + compiled feature regexes) happens ONCE per actor in
    __init__, scoring is a vectorized logistic over exact integer
    features per batch. The model is a deterministic linear+sigmoid so
    a SQL oracle reproduces it bit-for-bit at e6 rounding (exp deltas
    across libms are ~1 ulp, 8 orders below the rounding step)."""

    BIAS, W_ALPHA, W_SPACE, W_CHARS = -2.0, 0.01, -0.005, 0.002

    def __init__(self):
        import re

        self.alpha = re.compile(r"[A-Za-z]")
        self.space = re.compile(r" ")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"]
        a = t.str.count(self.alpha).to_numpy(np.float64)
        s = t.str.count(self.space).to_numpy(np.float64)
        c = t.str.len().to_numpy(np.float64)
        z = self.BIAS + self.W_ALPHA * a + self.W_SPACE * s + self.W_CHARS * c
        score = 1000000.0 / (1.0 + np.exp(-z))
        e6 = (np.sign(score) * np.floor(np.abs(score) + 0.5)).astype(np.int64)
        return pd.DataFrame({"doc_id": batch["doc_id"], "score_e6": e6})


def event_entropy(events, num_partitions: int = 64) -> "ray.data.Dataset":
    """Per-user Shannon entropy of the event-type mix — the
    distribution-skew signal a sampling pipeline reads before
    rebalancing. Emitted as entropy_e6 = SUM of per-type
    round(1e6 * (c/n) * log2(n/c)) INTEGER terms: each term is
    rounded before the sum, so the aggregate is addition-order-free
    and hash-matches SQL regardless of either engine's sum order.

    One shuffle: per-block (user, type) count combiner, hash
    partition by USER only (all of a user's types co-locate), then
    per-partition count -> n -> terms -> grouped sum, all
    vectorized."""
    from oluray.stages import joins

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], sort=False).size()
        return g.rename("c").reset_index()

    def ent(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], as_index=False)["c"].sum()
        c = g["c"].to_numpy(np.float64)
        n = g.groupby("user_id")["c"].transform("sum").to_numpy(np.float64)
        term = 1000000.0 * (c / n) * np.log2(n / c)
        g["t_e6"] = (np.sign(term) * np.floor(np.abs(term) + 0.5)).astype(
            np.int64
        )
        out = g.groupby("user_id", as_index=False).agg(
            entropy_e6=("t_e6", "sum"), n_types=("event_type", "size")
        )
        out["entropy_e6"] = out["entropy_e6"].astype("int64")
        out["n_types"] = out["n_types"].astype("int64")
        return out

    counted = events.map_batches(combine, batch_format="pandas",
                                 batch_size=65536)
    return joins.partitioned_map(counted, ["user_id"], ent, num_partitions,
                                 pre_repartition=False)


def _split_tokens(col) -> tuple[pa.Array, np.ndarray]:
    """Whitespace-split a string column with the C++ Arrow kernel,
    returning (list-of-tokens array, int64 list offsets). SQL parity
    with `string_split(text, ' ')`: consecutive spaces yield empty
    tokens, the empty string yields one empty token — every document
    therefore has >= 1 token."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    toks = pc.split_pattern(arr, " ")
    return toks, toks.offsets.to_numpy().astype(np.int64)


def _multi_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated aranges [s, s+len) — the vectorized gather-index
    builder (no Python loop over segments)."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    before = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return np.repeat(starts, lens) + (
        np.arange(total, dtype=np.int64) - np.repeat(before, lens)
    )


def chunk_tokens_batch(t: pa.Table, chunk: int = 32,
                       stride: int = 24) -> pa.Table:
    """Fixed-size overlapping token chunking — the canonical
    training-data windowing op (context-length chunks with overlap
    `chunk - stride`). Entirely map-side: one output row per chunk,
    (doc_id, chunk_id, chunk_text, n_tokens).

    Vectorization: the per-chunk token slices are built as one gather
    over the flat token buffer (`_multi_arange` indices + Arrow
    `take`), re-listed with fresh offsets, and re-joined by the C++
    `binary_join` kernel — no Python loop over rows or chunks.
    Chunk `c` of a doc with n tokens covers tokens
    [c*stride, min(c*stride + chunk, n)); SQL parity:
    `generate_series(1, n, stride)` starts with inclusive list
    slicing."""
    if stride <= 0 or chunk <= 0:
        raise ValueError("chunk and stride must be positive")
    ids = t["doc_id"].combine_chunks()
    toks, offs = _split_tokens(t["text"])
    n = np.diff(offs)
    n_chunks = (n - 1) // stride + 1
    did = np.repeat(np.arange(len(n), dtype=np.int64), n_chunks)
    total = int(n_chunks.sum())
    # empty batch: cumsum([]) has no [0] seed to trim, repeat would
    # broadcast-fail on shapes (1,) vs (0,)
    if len(n_chunks):
        before = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
    else:
        before = np.empty(0, dtype=np.int64)
    cid = np.arange(total, dtype=np.int64) - np.repeat(before, n_chunks)
    a = cid * stride
    lens = np.minimum(a + chunk, n[did]) - a
    gather = _multi_arange(offs[:-1][did] + a, lens)
    vals = toks.values.take(pa.array(gather, pa.int64()))
    new_offs = np.concatenate(([0], np.cumsum(lens)))
    lists = pa.LargeListArray.from_arrays(pa.array(new_offs, pa.int64()), vals)
    return pa.table({
        "doc_id": ids.take(pa.array(did, pa.int64())),
        "chunk_id": pa.array(cid, pa.int64()),
        "chunk_text": pc.binary_join(lists, pa.scalar(" ")),
        "n_tokens": pa.array(lens, pa.int64()),
    })


def stopword_scrub_batch(t: pa.Table, stopwords: tuple) -> pa.Table:
    """Stopword removal (text cleaning): drop exact-match stopword
    tokens, re-join the survivors, count removals. Map-side only;
    the filter is Arrow `is_in` over the flat token buffer, the
    rebuild a fresh-offset list + `binary_join` — no per-row Python.
    SQL parity: `list_filter(string_split(text,' '), t -> t NOT IN
    (...))` with COALESCE('') for all-stopword docs (DuckDB's
    array_to_string of an empty list is NULL; Arrow's join is '')."""
    ids = t["doc_id"].combine_chunks()
    toks, offs = _split_tokens(t["text"])
    n = np.diff(offs)
    keep = pc.invert(pc.is_in(toks.values,
                              value_set=pa.array(list(stopwords))))
    keep_np = keep.to_numpy(zero_copy_only=False)
    if len(n):
        kept = np.add.reduceat(keep_np, offs[:-1]).astype(np.int64)
    else:
        kept = np.empty(0, dtype=np.int64)
    vals = toks.values.filter(keep)
    new_offs = np.concatenate(([0], np.cumsum(kept)))
    lists = pa.LargeListArray.from_arrays(pa.array(new_offs, pa.int64()), vals)
    return pa.table({
        "doc_id": ids,
        "clean_text": pc.binary_join(lists, pa.scalar(" ")),
        "n_removed": pa.array(n - kept, pa.int64()),
    })


def balanced_shards(docs, n_shards: int = 8,
                    num_partitions: int = 64) -> "ray.data.Dataset":
    """Balanced corpus sharding (LPT round-robin): global rank by
    (n_tokens DESC, doc_id), shard = (rank-1) % n_shards — longest-
    processing-time order round-robined so shard token totals are
    near-equal. SQL: `row_number() OVER (ORDER BY n DESC, doc_id)`.

    Scale: NO global sort. The global row number decomposes as
    offset(n_tokens) + rank-within-equal-n, because rows sort first
    by n_tokens: the offset table is a token-LENGTH histogram
    (cardinality bounded by max doc length, ~10^5 distinct values
    even at 100 TB — driver-safe by construction, unlike a doc-id
    collect), and the within-group rank is `joins.group_rank`
    hash-partitioned on n_tokens (doc_id unique => rank ==
    row_number)."""
    from oluray.stages import joins

    tok = docs.map_batches(TokenCount, batch_format="pandas",
                           concurrency=(1, 4))

    def hist_combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("n_tokens", as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    def hist_sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("n_tokens", as_index=False)["cnt"].sum()

    def hist_sum_safe(df: pd.DataFrame) -> pd.DataFrame:
        # an empty corpus reaches the partitioned agg as a
        # column-less empty frame; emit the typed empty histogram
        if "n_tokens" not in df.columns:
            return pd.DataFrame({"n_tokens": pd.Series([], dtype="int64"),
                                 "cnt": pd.Series([], dtype="int64")})
        return hist_sum(df)

    hist = joins.grouped_agg(
        tok, ["n_tokens"], hist_sum_safe, num_partitions=8,
        combine_fn=hist_combine, pre_repartition=False,
    ).to_pandas()
    if len(hist) == 0 or "n_tokens" not in hist.columns:
        import ray.data as _rd

        return _rd.from_pandas(pd.DataFrame({
            "doc_id": pd.Series([], dtype="int64"),
            "shard": pd.Series([], dtype="int64"),
        }))
    hist = hist.sort_values("n_tokens", ascending=False).reset_index(drop=True)
    # offset[n] = number of rows with n_tokens strictly greater than n
    max_n = int(hist["n_tokens"].max()) if len(hist) else 0
    offset = np.zeros(max_n + 1, dtype=np.int64)
    offs_desc = np.concatenate(([0], np.cumsum(hist["cnt"].to_numpy())[:-1]))
    offset[hist["n_tokens"].to_numpy(np.int64)] = offs_desc

    ranked = joins.group_rank(tok, ["n_tokens"], [("doc_id", True)],
                              num_partitions=num_partitions)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        nt = df["n_tokens"].to_numpy(np.int64)
        glob = offset[nt] + df["rank"].to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "shard": ((glob - 1) % n_shards).astype("int64"),
        })

    return ranked.map_batches(assign, batch_format="pandas")


def pack_bins(docs, capacity: int = 512,
              num_partitions: int = 16) -> "ray.data.Dataset":
    """Greedy next-fit sequence packing: within each hash partition
    of doc_id, walk docs in doc_id order and open a new bin whenever
    the next doc would overflow `capacity` tokens — the standard
    pre-tokenization packing pass before training-batch assembly.
    Output (doc_id, n_tokens, part, bin): (part, bin) is the packed
    sequence id; a doc longer than capacity gets a bin of its own.

    Scale notes: packing is ORDER-SEQUENTIAL by definition, so the
    parallel unit is the partition — the per-partition walk is the
    one deliberate Python loop (O(rows/partition), no allocation in
    the loop); raise num_partitions to bound it. Only (doc_id,
    n_tokens) rows shuffle, never text."""
    from oluray.stages import joins

    tok = docs.map_batches(TokenCount, batch_format="pandas",
                           concurrency=(1, 4))

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="mergesort").reset_index(drop=True)
        w = df["n_tokens"].to_numpy(np.int64)
        bins = np.empty(len(w), dtype=np.int64)
        b, cur = 0, 0
        for i in range(len(w)):
            if cur > 0 and cur + w[i] > capacity:
                b += 1
                cur = 0
            bins[i] = b
            cur += w[i]
        out = df.copy(deep=False)
        out["part"] = joins.partition_codes(df, ["doc_id"], num_partitions)
        out["bin"] = bins
        return out

    return joins.partitioned_map(tok, ["doc_id"], pack, num_partitions,
                                 pre_repartition=False)


def contamination(docs, eval_mod: int = 97,
                  num_partitions: int = 64) -> "ray.data.Dataset":
    """Benchmark-contamination scan: for every train document (doc_id
    % eval_mod != 0), the number of its distinct word trigrams that
    appear in ANY eval document (doc_id % eval_mod == 0). Rows with
    zero overlap are omitted (semi-join shape).

    Scale: shingles are hash-partitioned by trigram for the semi join
    (eval shingle set is a Dataset, never a driver broadcast), then
    per-doc counts are a combiner-summed grouped aggregate — the
    only things shuffled are (doc_id, tri) key rows and partial
    counts."""
    from oluray.stages import joins

    tri = doc_trigrams(docs)

    def is_eval(df: pd.DataFrame, flip: bool) -> pd.DataFrame:
        m = (df["doc_id"] % eval_mod == 0)
        return df[~m if flip else m]

    ev = joins.distinct(
        tri.map_batches(lambda d: is_eval(d, False), batch_format="pandas"),
        ["tri"], num_partitions,
    )
    train = tri.map_batches(lambda d: is_eval(d, True), batch_format="pandas")
    hit = joins.semi_join(train, ev, on="tri", num_partitions=num_partitions)

    def count_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", as_index=False)["n_shared"].sum()
        g["n_shared"] = g["n_shared"].astype("int64")
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False).size().rename("n_shared")
        return g.reset_index()

    return joins.grouped_agg(hit, ["doc_id"], count_part,
                             num_partitions=num_partitions,
                             combine_fn=combine, pre_repartition=False)


# ---------------------------------------------------------------------------
# edit-distance-1 fuzzy join (entity resolution / record linkage)
# ---------------------------------------------------------------------------


def _ed1_verify(pa_names: np.ndarray, pb_names: np.ndarray) -> np.ndarray:
    """Vectorized Levenshtein<=1 check for candidate pairs.

    Equal lengths: byte-mismatch count <= 1. Length diff 1: the
    shorter must equal the longer with ONE char removed — find the
    first mismatch position p, then compare long[k + (k>=p)] against
    short[k] via one gather (O(pairs x maxlen), no Python loop over
    pairs). Length diff >= 2 can't happen for FastSS candidates but
    is rejected anyway."""
    n = len(pa_names)
    if n == 0:
        return np.zeros(0, dtype=bool)
    la = np.fromiter((len(s) for s in pa_names), np.int64, n)
    lb = np.fromiter((len(s) for s in pb_names), np.int64, n)
    maxlen = int(max(la.max(), lb.max()))
    A = np.zeros((n, maxlen), np.uint8)
    B = np.zeros((n, maxlen), np.uint8)
    for i, s in enumerate(pa_names):
        b = s.encode("utf-8", "surrogatepass")
        A[i, : len(b)] = np.frombuffer(b, np.uint8)
    for i, s in enumerate(pb_names):
        b = s.encode("utf-8", "surrogatepass")
        B[i, : len(b)] = np.frombuffer(b, np.uint8)
    # byte lengths (re-derive: unicode len != byte len for non-ascii)
    la = (A != 0).sum(axis=1)
    lb = (B != 0).sum(axis=1)
    # NOTE: padded-zero trick assumes no NUL bytes in names (true for
    # any printable identifier); lengths from the pad boundary
    ok = np.zeros(n, dtype=bool)
    same = la == lb
    if same.any():
        ok[same] = (A[same] != B[same]).sum(axis=1) <= 1
    diff1 = np.abs(la - lb) == 1
    if diff1.any():
        idx = np.flatnonzero(diff1)
        a_long = (la[idx] > lb[idx])[:, None]
        lo = np.where(a_long, B[idx], A[idx])  # shorter
        hi = np.where(a_long, A[idx], B[idx])
        slen = np.minimum(la[idx], lb[idx])
        neq = lo != hi
        # first mismatch position (slen if prefixes agree through lo)
        p = np.where(neq.any(axis=1), neq.argmax(axis=1), slen)
        k = np.arange(maxlen - 1)
        gather = k[None, :] + (k[None, :] >= p[:, None])
        shifted = np.take_along_axis(hi, gather, axis=1)
        match = (shifted == lo[:, : maxlen - 1]) | (
            k[None, :] >= slen[:, None]
        )
        ok[idx] = match.all(axis=1)
    return ok


def fuzzy_pairs_ed1(
    ds: "ray.data.Dataset",
    key_col: str,
    name_col: str,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """All pairs of rows whose names are within Levenshtein distance 1
    (FastSS deletion-neighborhood blocking — never all-pairs):

    1. each row emits its name plus every single-char-deletion
       variant as block keys (fan-out = name length, deduped);
    2. candidate pairs form ONLY inside a block-key hash partition
       (two strings with ed<=1 always share a variant: equal ->
       the name itself; substitution at i -> both emit del_i;
       indel -> the shorter IS a deletion of the longer);
    3. each candidate is verified exactly (`_ed1_verify`, one
       vectorized gather), then `joins.pair_dedup` drops the
       cross-block duplicates.

    Output volume is the TRUE pair count — quadratic in duplicate-
    name mass (same invariant as the minhash pair family: cost scales
    with real matches, not corpus size)."""
    import ray.data  # noqa: F401  (type only)

    from oluray.stages import joins

    def variants(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        names = t[name_col].to_pylist()
        out_k: list[int] = []
        out_n: list[str] = []
        out_v: list[str] = []
        for kid, s in zip(keys, names):
            vs = {s}
            vs.update(s[:i] + s[i + 1:] for i in range(len(s)))
            out_k.extend([int(kid)] * len(vs))
            out_n.extend([s] * len(vs))
            out_v.extend(vs)
        return pa.table({"kid": pa.array(out_k, pa.int64()),
                         "name": pa.array(out_n, pa.string()),
                         "block": pa.array(out_v, pa.string())})

    blocks = ds.map_batches(variants, batch_format="pyarrow",
                            batch_size=8192)

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"ka": np.array([], np.int64),
                                 "kb": np.array([], np.int64)})
        df = df.sort_values(["block", "kid"], kind="mergesort")
        b = df["block"].to_numpy()
        kid = df["kid"].to_numpy(np.int64)
        names = df["name"].to_numpy()
        n = len(df)
        new_seg = np.empty(n, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = b[1:] != b[:-1]
        seg_id = np.cumsum(new_seg) - 1
        seg_end = np.zeros(seg_id[-1] + 1, dtype=np.int64)
        np.maximum.at(seg_end, seg_id, np.arange(n) + 1)
        c = seg_end[seg_id] - 1 - np.arange(n)
        total = int(c.sum())
        if total == 0:
            return pd.DataFrame({"ka": np.array([], np.int64),
                                 "kb": np.array([], np.int64)})
        left = np.repeat(np.arange(n), c)
        cum = np.concatenate(([0], np.cumsum(c)))
        right = left + 1 + (np.arange(total) - np.repeat(cum[:-1], c))
        ia, ib = kid[left], kid[right]
        keep = ia != ib
        left, right = left[keep], right[keep]
        ia, ib = ia[keep], ib[keep]
        # same-block duplicate (kid-pair emitted twice from repeated
        # variants) is cheap to pre-thin here before the verify
        lo = np.minimum(ia, ib)
        hi = np.maximum(ia, ib)
        seen = pd.DataFrame({"lo": lo, "hi": hi, "l": left, "r": right})
        seen = seen.drop_duplicates(["lo", "hi"])
        okm = _ed1_verify(names[seen["l"].to_numpy()],
                          names[seen["r"].to_numpy()])
        return pd.DataFrame({"ka": seen["lo"].to_numpy()[okm],
                             "kb": seen["hi"].to_numpy()[okm]})

    cand = joins.partitioned_map(blocks, ["block"], emit,
                                 num_partitions=num_partitions,
                                 pre_repartition=False)
    return joins.pair_dedup(cand, ("ka", "kb"),
                            num_partitions=num_partitions)


def heavy_terms(docs, k: int = 200,
                num_partitions: int = 32) -> "ray.data.Dataset":
    """EXACT corpus heavy hitters: every term whose collection
    frequency is >= 1/k of all token occurrences, with its exact
    count — WITHOUT shuffling the vocabulary (the classic 2-pass
    Misra-Gries-candidates + broadcast-recount plan; reference
    computes nothing like this, it is a training-data op).

    Pass 1 (one streaming scan): each block emits the terms that are
    locally heavy (cnt_b * k >= ntok_b) plus one sentinel row
    (term='', cnt=ntok_b) carrying the block's token total. The
    pigeonhole argument makes the union a SUPERSET of the global
    heavy set: if cnt * k >= ntok globally and every block had
    cnt_b * k < ntok_b, summing the strict inequalities over blocks
    contradicts the global one. Driver state is <= (k+1) rows per
    block — bounded by k x #blocks, never by vocabulary size.

    Pass 2 (one streaming scan): the candidate terms are broadcast
    (ray.put, read once per task), each block counts ONLY candidate
    occurrences, and a tiny grouped sum + the exact global threshold
    filter produce the answer. Shuffle volume = candidates x blocks
    count rows; the token stream never moves.

    Empty terms from the splitter are dropped on both passes, so ''
    is free to use as the sentinel key."""
    import ray
    import ray.data

    from oluray.stages import joins

    def pass1(batch: pd.DataFrame) -> pd.DataFrame:
        tok = _explode_terms(batch)
        ntok = len(tok)
        if ntok == 0:
            return pd.DataFrame({"term": pd.Series([], dtype="string"),
                                 "cnt": pd.Series([], dtype="int64")})
        vc = tok.groupby("term", sort=False).size()
        vc = vc[vc * k >= ntok]
        return pd.DataFrame(
            {"term": np.concatenate([vc.index.to_numpy(dtype=object),
                                     [""]]),
             "cnt": np.concatenate([vc.to_numpy(dtype=np.int64),
                                    [ntok]]).astype(np.int64)}
        )

    cand = docs.map_batches(pass1, batch_format="pandas").to_pandas()
    total = int(cand.loc[cand["term"] == "", "cnt"].sum())
    terms = pd.unique(cand.loc[cand["term"] != "", "term"])
    if total == 0 or len(terms) == 0:
        return ray.data.from_arrow(pa.table(
            {"term": pa.array([], pa.string()),
             "cnt": pa.array([], pa.int64())}))
    cand_ref = ray.put(set(terms.tolist()))

    def pass2(batch: pd.DataFrame) -> pd.DataFrame:
        tok = _explode_terms(batch)
        want = ray.get(cand_ref)
        tok = tok[tok["term"].isin(want)]
        vc = tok.groupby("term", sort=False).size()
        return pd.DataFrame({"term": vc.index.to_numpy(dtype=object),
                             "cnt": vc.to_numpy(dtype=np.int64)})

    partial = docs.map_batches(pass2, batch_format="pandas")

    def agg(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("term", as_index=False)["cnt"].sum()
        g["cnt"] = g["cnt"].astype("int64")
        return g[g["cnt"] * k >= total].reset_index(drop=True)

    return joins.grouped_agg(partial, ["term"], agg,
                             num_partitions=num_partitions,
                             pre_repartition=False)


def bpe_merges(docs, n_merges: int = 8,
               num_partitions: int = 16) -> pd.DataFrame:
    """Learn the first `n_merges` BPE merge rules over the corpus —
    the tokenizer-training op. Classic two-level plan:

    1. ONE distributed pass builds the (word, freq) vocabulary
       (`_explode_terms` + per-block combiner + hash-partitioned sum)
       — the only stage that touches the token stream.
    2. The merge loop runs over the VOCABULARY Dataset: each round a
       `map_batches` counts adjacent-symbol pairs weighted by word
       freq, a hash-partitioned grouped sum reduces them, the winning
       pair (max count, lexicographic tie-break) comes back as ONE
       row, and a broadcast `map_batches` rewrites the vocab symbols.
       The vocab materializes per round (one-round-deep lineage).

    This mirrors real BPE trainers: corpus-sized work happens once;
    the iteration is over the much smaller distinct-word table, which
    still lives in the object store as a Dataset (a 100 TB crawl's
    vocab is millions of rows — shuffleable, not driver-holdable).
    Driver state per round = one (pair, count) row.

    Symbols start as single characters; a merge joins two adjacent
    symbols into one. Returns pandas (rank, left, right, pair_count)
    — n_merges rows, deterministic for a given corpus.
    """
    import ray
    import ray.data

    from oluray.stages import joins

    def wc(batch: pd.DataFrame) -> pd.DataFrame:
        tok = _explode_terms(batch)
        g = tok.groupby("term", sort=False).size()
        return pd.DataFrame({"word": g.index.to_numpy(dtype=object),
                             "freq": g.to_numpy(dtype=np.int64)})

    def wsum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("word", as_index=False)["freq"].sum()
        g["freq"] = g["freq"].astype("int64")
        return g

    vocab = joins.grouped_agg(
        docs.map_batches(wc, batch_format="pandas"), ["word"], wsum,
        num_partitions=num_partitions, pre_repartition=False,
    )

    def to_syms(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"syms": [list(w) for w in df["word"]],
             "freq": df["freq"].to_numpy(dtype=np.int64)}
        )

    vocab = vocab.map_batches(to_syms, batch_format="pandas").materialize()

    def pair_counts(df: pd.DataFrame) -> pd.DataFrame:
        rows: dict[tuple[str, str], int] = {}
        for syms, f in zip(df["syms"], df["freq"]):
            f = int(f)
            for i in range(len(syms) - 1):
                k = (syms[i], syms[i + 1])
                rows[k] = rows.get(k, 0) + f
        if not rows:
            return pd.DataFrame({"left": pd.Series([], dtype="string"),
                                 "right": pd.Series([], dtype="string"),
                                 "cnt": pd.Series([], dtype="int64")})
        ks = list(rows)
        return pd.DataFrame(
            {"left": [k[0] for k in ks], "right": [k[1] for k in ks],
             "cnt": np.fromiter(rows.values(), np.int64, len(rows))}
        )

    def psum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["left", "right"], as_index=False)["cnt"].sum()
        g["cnt"] = g["cnt"].astype("int64")
        return g

    merges: list[tuple[int, str, str, int]] = []
    for rank in range(n_merges):
        counts = joins.grouped_agg(
            vocab.map_batches(pair_counts, batch_format="pandas"),
            ["left", "right"], psum,
            num_partitions=num_partitions, pre_repartition=False,
        )
        top = counts.sort(
            ["cnt", "left", "right"], descending=[True, False, False]
        ).limit(1).to_pandas()
        if len(top) == 0 or int(top.loc[0, "cnt"]) == 0:
            break
        lft, rgt, cnt = (str(top.loc[0, "left"]), str(top.loc[0, "right"]),
                         int(top.loc[0, "cnt"]))
        merges.append((rank, lft, rgt, cnt))

        def apply(df: pd.DataFrame, _l: str = lft, _r: str = rgt
                  ) -> pd.DataFrame:
            out = []
            for syms in df["syms"]:
                syms = list(syms)
                i, res = 0, []
                while i < len(syms):
                    if (i + 1 < len(syms) and syms[i] == _l
                            and syms[i + 1] == _r):
                        res.append(_l + _r)
                        i += 2
                    else:
                        res.append(syms[i])
                        i += 1
                out.append(res)
            return pd.DataFrame(
                {"syms": out, "freq": df["freq"].to_numpy(dtype=np.int64)})

        vocab = vocab.map_batches(apply, batch_format="pandas").materialize()

    return pd.DataFrame(merges,
                        columns=["rank", "left", "right", "pair_count"])


# ---------------------------------------------------------------------------
# passage-level exact dedup (the C4 / RefinedWeb line-dedup op)
# ---------------------------------------------------------------------------

PASSAGE_WIDTH = 8

_PASSAGE_KEY1 = "0123456789123456"
_PASSAGE_KEY2 = "6543210987654321"


def passage_digests_batch(t: pa.Table, width: int = PASSAGE_WIDTH) -> pa.Table:
    """Map-side explode of each document into NON-overlapping
    `width`-token passages, emitting only (doc_id, start, h1, h2):
    two independent 64-bit digests of the passage text, never the
    text itself. At 100 TB the first dedup shuffle therefore moves
    ~24 bytes per passage instead of the passage bytes — the digest
    pair makes a cross-passage collision (which would over-remove)
    a ~2^-128 event, so the SQL oracle that groups by the exact
    passage string still hash-matches.

    `start` is the 0-based token offset of the passage (SQL parity:
    `generate_series(1, n, width)` starts minus one)."""
    ch = chunk_tokens_batch(t, chunk=width, stride=width)
    txt = ch["chunk_text"].to_numpy(zero_copy_only=False)
    h1 = pd.util.hash_array(txt, hash_key=_PASSAGE_KEY1).view(np.int64)
    h2 = pd.util.hash_array(txt, hash_key=_PASSAGE_KEY2).view(np.int64)
    start = pc.multiply(ch["chunk_id"], pa.scalar(width, pa.int64()))
    return pa.table({
        "doc_id": ch["doc_id"],
        "start": start,
        "h1": pa.array(h1),
        "h2": pa.array(h2),
    })


def passage_dedup(docs, width: int = PASSAGE_WIDTH,
                  num_partitions: int = 32) -> "ray.data.Dataset":
    """Corpus-wide passage-level exact dedup (C4's three-sentence-span
    dedup / RefinedWeb's exact-substring pass, expressed at fixed
    token width): every distinct passage keeps its FIRST occurrence
    (global order by doc_id, then start) and every later occurrence —
    including repeats inside one document — is removed; each document
    is rebuilt from its kept passages in order.

    Scale shape (three stages, each bounded):
      1. digest explode — map-side, digests only (no passage text
         leaves the node);
      2. winner election — hash-partition by digest; removal rows
         (doc_id, start) are emitted ONLY for duplicates, so stage-2
         output traffic is proportional to duplicate mass, not corpus
         size;
      3. rebuild — documents and their removal rows co-partition by
         doc_id (one corpus-proportional shuffle); the passage
         re-explode + anti-join + rejoin runs vectorized per
         partition (Arrow gather + binary_join, no per-row Python).

    Output: (doc_id, clean_text, n_removed) — one row per input
    document; a document whose every passage was removed keeps an
    empty clean_text (SQL parity: COALESCE(string_agg(...), ''))."""
    import ray.data  # noqa: F401  (type only)

    from . import joins

    dig = docs.map_batches(
        lambda t: passage_digests_batch(t, width), batch_format="pyarrow"
    )

    def removals(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["h1", "h2", "doc_id", "start"],
                            kind="mergesort")
        dup = df.duplicated(["h1", "h2"], keep="first")
        return df.loc[dup, ["doc_id", "start"]]

    rem = joins.partitioned_map(dig, ["h1", "h2"], removals,
                                num_partitions, pre_repartition=False)

    # union schema: docs carry start=-1, removals carry text=''
    def tag_doc(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "text": t["text"],
            "start": pa.array(
                np.full(t.num_rows, -1, dtype=np.int64)),
        })

    def tag_rem(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
            "text": np.full(len(df), "", dtype=object),
            "start": df["start"].to_numpy(dtype=np.int64),
        })

    both = docs.map_batches(tag_doc, batch_format="pyarrow").union(
        rem.map_batches(tag_rem, batch_format="pandas"))

    out_schema = pa.schema([
        pa.field("doc_id", pa.int64()),
        pa.field("clean_text", pa.string()),
        pa.field("n_removed", pa.int64()),
    ])

    def rebuild(df: pd.DataFrame) -> pa.Table:
        d = df[df["start"] < 0]
        if len(d) == 0:
            return out_schema.empty_table()
        r = df[df["start"] >= 0]
        ch = chunk_tokens_batch(
            pa.table({
                "doc_id": pa.array(d["doc_id"].to_numpy(dtype=np.int64)),
                "text": pa.array(d["text"].to_numpy(dtype=object),
                                 pa.string()),
            }),
            chunk=width, stride=width,
        )
        cdf = pd.DataFrame({
            "doc_id": ch["doc_id"].to_numpy(zero_copy_only=False),
            "start": ch["chunk_id"].to_numpy(zero_copy_only=False) * width,
            "chunk_text": ch["chunk_text"].to_numpy(zero_copy_only=False),
        })
        m = cdf.merge(r.assign(rm=np.True_), on=["doc_id", "start"],
                      how="left")
        kept = m[m["rm"].isna()].sort_values(["doc_id", "start"],
                                             kind="mergesort")
        # vectorized per-doc rejoin: run-length list offsets over the
        # kept rows + the C++ binary_join kernel (no per-group Python)
        kid = kept["doc_id"].to_numpy(dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, kid[1:] != kid[:-1]])
        offs = np.concatenate((starts, [len(kid)])).astype(np.int64)
        lists = pa.LargeListArray.from_arrays(
            pa.array(offs, pa.int64()),
            pa.array(kept["chunk_text"].to_numpy(dtype=object),
                     pa.string()),
        )
        joined = pd.DataFrame({
            "doc_id": kid[starts] if len(kid) else np.empty(0, np.int64),
            "clean_text": pc.binary_join(
                lists, pa.scalar(" ")).to_numpy(zero_copy_only=False),
        })
        base = cdf.groupby("doc_id", as_index=False).size().rename(
            columns={"size": "n_total"})
        n_kept = kept.groupby("doc_id", as_index=False).size().rename(
            columns={"size": "n_kept"})
        out = base.merge(joined, on="doc_id", how="left").merge(
            n_kept, on="doc_id", how="left")
        out["clean_text"] = out["clean_text"].fillna("")
        out["n_removed"] = (
            out["n_total"] - out["n_kept"].fillna(0)).astype(np.int64)
        return _typed_table_text(out[["doc_id", "clean_text", "n_removed"]],
                                 out_schema)

    return joins.partitioned_map(both, ["doc_id"], rebuild,
                                 num_partitions)


def _typed_table_text(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    return pa.Table.from_pandas(df, schema=schema, preserve_index=False)


# ---------------------------------------------------------------------------
# duplicate n-gram repetition stats (the Gopher repetition filters)
# ---------------------------------------------------------------------------

def dup_ngram_stats_batch(t: pa.Table, n: int = 3) -> pa.Table:
    """Per-document duplicate-n-gram statistics (the Gopher /
    MassiveText repetition signals): over the document's token
    n-grams, count occurrences belonging to an n-gram that appears
    more than once, and the duplicate fraction scaled to e6.

    Entirely map-side — zero shuffle at any corpus size; the whole
    batch is processed as ONE flat token buffer: per-token 64-bit
    digest pairs, a rolling combine over `n` consecutive tokens,
    one lexsort over (doc, g1, g2), run-length counts, and a bincount
    scatter back to documents. No per-document Python loop.

    Documents with fewer than `n` tokens emit no row (SQL parity:
    the generate_series explode is empty). Output:
    (doc_id, n_grams, dup_occ, dup_frac_e6)."""
    ids = t["doc_id"].combine_chunks()
    toks, offs = _split_tokens(t["text"])
    nt = np.diff(offs)
    m = nt - (n - 1)
    m = np.where(m > 0, m, 0)
    flat = toks.values.to_numpy(zero_copy_only=False)
    th1 = pd.util.hash_array(flat, hash_key=_PASSAGE_KEY1)
    th2 = pd.util.hash_array(flat, hash_key=_PASSAGE_KEY2)
    idx = _multi_arange(offs[:-1], m)
    did = np.repeat(np.arange(len(nt), dtype=np.int64), m)
    g1 = np.zeros(len(idx), dtype=np.uint64)
    g2 = np.zeros(len(idx), dtype=np.uint64)
    P = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        for j in range(n):  # n is a small constant (3), not data-sized
            g1 = g1 * P + th1[idx + j]
            g2 = g2 * P + th2[idx + j]
    order = np.lexsort((g2, g1, did))
    sd, s1, s2 = did[order], g1[order], g2[order]
    new = np.r_[True, (sd[1:] != sd[:-1]) | (s1[1:] != s1[:-1])
                 | (s2[1:] != s2[:-1])]
    run_start = np.flatnonzero(new)
    run_len = np.diff(np.concatenate((run_start, [len(sd)])))
    dup = run_len > 1
    dup_occ = np.bincount(sd[run_start[dup]], weights=run_len[dup],
                          minlength=len(nt)).astype(np.int64)
    keep = m > 0
    n_grams = m[keep].astype(np.int64)
    occ = dup_occ[keep]
    frac = np.floor(1_000_000.0 * occ / n_grams + 0.5).astype(np.int64)
    return pa.table({
        "doc_id": ids.filter(pa.array(keep)),
        "n_grams": pa.array(n_grams),
        "dup_occ": pa.array(occ),
        "dup_frac_e6": pa.array(frac),
    })


class BpeApply:
    """Apply learned BPE merge rules (from :func:`bpe_merges`) to the
    token stream — the tokenizer-APPLY op that pairs with the trainer.
    The rule list is vocab-sized state handed to the constructor (the
    broadcast small side: at scale pass it via `fn_constructor_args`
    after one `ray.put`); each ACTOR memoizes word -> symbol-count
    across every batch it sees, so a word's merge walk runs once per
    actor, not once per occurrence (the Zipf head dominates real
    corpora). Emits (doc_id, n_bpe_tokens)."""

    def __init__(self, merges: list[tuple[str, str]]) -> None:
        self._merges = [(str(lft), str(rgt)) for lft, rgt in merges]
        self._memo: dict[str, int] = {}

    def _n_syms(self, word: str) -> int:
        got = self._memo.get(word)
        if got is not None:
            return got
        syms = list(word)
        for lft, rgt in self._merges:
            i, res = 0, []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == lft and syms[i + 1] == rgt:
                    res.append(lft + rgt)
                    i += 2
                else:
                    res.append(syms[i])
                    i += 1
            syms = res
            if len(syms) == 1:
                break
        self._memo[word] = len(syms)
        return len(syms)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        tok = _explode_terms(batch)
        if len(tok) == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "n_bpe_tokens": pd.Series([], dtype="int64")})
        uniq, inv = np.unique(tok["term"].to_numpy(dtype=object),
                              return_inverse=True)
        per_word = np.fromiter((self._n_syms(w) for w in uniq),
                               np.int64, len(uniq))
        tok = tok.assign(n=per_word[inv])
        g = tok.groupby("doc_id", as_index=False)["n"].sum().rename(
            columns={"n": "n_bpe_tokens"})
        g["n_bpe_tokens"] = g["n_bpe_tokens"].astype("int64")
        return g


# ---------------------------------------------------------------------------
# PII detection / redaction (r5) — the scrubbing pass every
# web-scale training-data pipeline runs before tokenization. Patterns
# are deliberately restricted to the Python-re ∩ RE2 common dialect
# (no backrefs / lookarounds), so the DuckDB oracle evaluates the
# IDENTICAL expressions (`ttl_emit`-style byte parity, verified on
# boundary cases in tests). Counting/replacing is vectorized pandas
# .str (compiled-once patterns); nothing shuffles — one map stage.
# ---------------------------------------------------------------------------

PII_PATTERNS: dict[str, str] = {
    # name -> (regex, placeholder) — declaration order IS the
    # redaction order (email first so its digits never half-match ip)
    "email": r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}",
    "ipv4": r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b",
    "phone": r"\b\d{3}-\d{3}-\d{4}\b",
}


def pii_stats(docs, text_col: str = "text",
              id_col: str = "doc_id") -> "ray.data.Dataset":
    """Per-doc PII match counts: (id, n_email, n_ipv4, n_phone,
    n_pii). Single vectorized map pass — run it BEFORE redaction to
    decide drop-vs-scrub per document."""
    import re as _re

    compiled = {k: _re.compile(v) for k, v in PII_PATTERNS.items()}

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({id_col: df[id_col]})
        total = np.zeros(len(df), dtype=np.int64)
        s = df[text_col].astype("string")
        for name, rx in compiled.items():
            n = s.str.count(rx).fillna(0).astype("int64").to_numpy()
            out[f"n_{name}"] = n
            total += n
        out["n_pii"] = total
        return out

    return docs.map_batches(fn, batch_format="pandas")


def pii_redact(docs, text_col: str = "text",
               id_col: str = "doc_id") -> "ray.data.Dataset":
    """Replace every PII match with `<NAME>` placeholders, in
    declaration order: (id, text) with the scrubbed text."""
    import re as _re

    compiled = [(k.upper(), _re.compile(v))
                for k, v in PII_PATTERNS.items()]

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].astype("string")
        for name, rx in compiled:
            s = s.str.replace(rx, f"<{name}>", regex=True)
        return pd.DataFrame({id_col: df[id_col],
                             text_col: s.astype(object)})

    return docs.map_batches(fn, batch_format="pandas")


# canonical-URL dedup (r5) — CommonCrawl-style: many crawl records
# point at one logical page through scheme/host case, default ports,
# fragments and trailing slashes. Canonicalization is a pure string
# map (pandas .str chains = RE2-parity regexes, same contract as the
# PII ops); the dedup itself is the exact-dedup shape: hash-partition
# on the canonical key, keep the minimum id per group.

_URL_STEPS: tuple[tuple[str, str], ...] = (
    # lowercase scheme+host (authority only — path case is significant)
    # handled separately below; these are the RE2-parity regex steps:
    (r"#.*$", ""),              # strip fragment
    (r":(443|80)(/|$)", r"\2"),  # strip default ports
    (r"/+$", ""),               # strip trailing slashes
)


def canonical_url(s: "pd.Series") -> "pd.Series":
    """Vectorized URL canonicalization: lowercase scheme://host,
    strip default port / fragment / trailing slash."""
    s = s.astype("string")
    # lowercase ONLY the scheme://host[:port] prefix
    head = s.str.extract(r"^([A-Za-z][A-Za-z0-9+.\-]*://[^/]*)",
                         expand=False)
    tail = s.str.slice(start=0).str.replace(
        r"^[A-Za-z][A-Za-z0-9+.\-]*://[^/]*", "", regex=True
    )
    s = head.str.lower().fillna("") + tail
    for pat, rep in _URL_STEPS:
        s = s.str.replace(pat, rep, regex=True)
    return s.astype(object)


def url_dedup(docs, url_col: str = "url",
              id_col: str = "doc_id", num_partitions: int = 32):
    """(canonical url, keep_id = min id, n_dups) — one canonical pass
    + one hash-partitioned group min (no driver state)."""
    from oluray.stages import joins

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col],
            "canon_url": canonical_url(df[url_col]),
        })

    rows = docs.map_batches(canon, batch_format="pandas")

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("canon_url", sort=False)[id_col]
        out = g.min().to_frame("keep_id")
        out["n_dups"] = g.size().astype("int64")
        out.index.name = "canon_url"
        return out.reset_index()

    return joins.partitioned_map(rows, ["canon_url"], agg,
                                 num_partitions=num_partitions)


def doc_repetition(docs, text_col: str = "text",
                   id_col: str = "doc_id") -> "ray.data.Dataset":
    """Gopher-style repetition signals per document: (id, n_words,
    n_distinct, top_word_frac_e6, distinct_frac_e6). A document whose
    most-frequent word dominates (or whose distinct ratio collapses)
    is boilerplate/spam-shaped and gets filtered before training.
    Fractions ship as integer micro-units (the engine-wide exactness
    convention — float division is done identically by the oracle).
    One vectorized explode+groupby per batch; no cross-batch shuffle
    (documents never split across rows)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].astype("string")
        toks = s.str.split(r"\s+", regex=True)
        tok = toks.explode().dropna()
        tok = tok[tok.str.len() > 0]
        ids = df[id_col]
        frame = pd.DataFrame({id_col: ids.loc[tok.index], "w": tok})
        g = frame.groupby([id_col, "w"], sort=False).size()
        per_doc = g.groupby(level=0)
        n_words = per_doc.sum()
        top = per_doc.max()
        n_distinct = per_doc.size()
        out = pd.DataFrame({
            id_col: n_words.index.to_numpy(),
            "n_words": n_words.to_numpy(dtype=np.int64),
            "n_distinct": n_distinct.to_numpy(dtype=np.int64),
        })
        out["top_word_frac_e6"] = (
            top.to_numpy(dtype=np.int64) * 1_000_000 // out["n_words"]
        ).astype("int64")
        out["distinct_frac_e6"] = (
            out["n_distinct"] * 1_000_000 // out["n_words"]
        ).astype("int64")
        # empty/whitespace-only docs: zero words, zero fractions
        empty = ids[~ids.isin(out[id_col])]
        if len(empty):
            pad = pd.DataFrame({
                id_col: empty.to_numpy(),
                "n_words": np.zeros(len(empty), np.int64),
                "n_distinct": np.zeros(len(empty), np.int64),
                "top_word_frac_e6": np.zeros(len(empty), np.int64),
                "distinct_frac_e6": np.zeros(len(empty), np.int64),
            })
            out = pd.concat([out, pad], ignore_index=True)
        return out

    return docs.map_batches(fn, batch_format="pandas")
