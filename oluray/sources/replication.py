"""Replication-server fetch loop (S1, network mode) with an
injectable transport and an explicit retry policy.

Re-expresses (does NOT port) the reference's HTTP plumbing:

- state.txt fetch + parse — `src/osm/OsmDataFetcher.cpp:46-79`
- per-sequence change-file fetch — `src/osm/OsmDataFetcher.cpp:81-105`
- walk-backward timestamp -> sequence cursor —
  `src/osm/OsmDataFetcher.cpp:163-175` (here a binary search: state
  timestamps are monotone in sequence, so O(log n) probes replace the
  reference's one-by-one walk)
- start-sequence decision + fetch loop —
  `src/osm/OsmUpdater.cpp:38-116,170-185`

One deliberate deviation: the reference performs every HTTP GET
exactly once and aborts the whole run on a transient failure; every
fetch here retries with exponential backoff (`retries`, `backoff_s`).

Change files are downloaded serially on the driver, as the reference
does (`OsmUpdater::fetchChangeFiles`): `fetch_table` makes plain
`change_bytes` calls, parses on the driver and hands the window on as
one Arrow table (`fetch_changes` wraps it as an in-memory Dataset). (An earlier fan-out parsed slices in a Ray
actor pool; for a window of one or a few small files it cost two pool
start-ups per window and, at one CPU, held the slot its own input
needed. From a local mirror on 4 CPUs, catch-up windows of 60 and
1440 minutely-sized sequences fetch and parse serially in 0.12 s and
2.7 s, against 2.5 s and 5.1 s in the pool. A remote server adds one
round trip per sequence, which was not measured.)

The sandbox has no network, so the default transport is local-dir
(a mirror laid out exactly like a replication server); `HttpTransport`
is provided for real deployments and covered by an injectable-fake
test, never a live call.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import pyarrow as pa

from oluray.sources import osc
from oluray.sources.fixtures import CHANGES_SCHEMA


class FetchError(IOError):
    """A fetch failed after exhausting its retry budget."""


@dataclass
class LocalDirTransport:
    """Serves `<root>/<path>` from the local filesystem — a replication
    mirror directory (`000/000/123.osc.gz`, `000/000/123.state.txt`,
    `state.txt`)."""

    root: str

    def __call__(self, path: str) -> bytes:
        full = os.path.join(self.root, path)
        try:
            with open(full, "rb") as f:
                return f.read()
        except OSError as e:
            raise FetchError(f"{full}: {e}") from e


@dataclass
class HttpTransport:
    """urllib GET against a real replication server. Unused in the
    sandbox (no network); kept import-light."""

    base_url: str
    timeout_s: float = 30.0

    def __call__(self, path: str) -> bytes:
        import urllib.request

        url = f"{self.base_url.rstrip('/')}/{path}"
        try:
            with urllib.request.urlopen(url, timeout=self.timeout_s) as r:
                return r.read()
        except Exception as e:  # URLError, HTTPError, socket.timeout
            raise FetchError(f"{url}: {e}") from e


@dataclass
class ReplicationClient:
    """Sequence-addressed access to a replication feed through any
    transport callable `path -> bytes` (raising `FetchError`)."""

    transport: object
    retries: int = 3
    backoff_s: float = 0.2

    def _get(self, path: str) -> bytes:
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                return self.transport(path)
            except FetchError as e:
                last = e
                if attempt < self.retries:
                    time.sleep(self.backoff_s * (2**attempt))
        raise FetchError(
            f"{path}: exhausted {self.retries} retries ({last})"
        ) from last

    # -- states ------------------------------------------------------------
    def latest_state(self) -> dict:
        return osc.parse_state(self._get("state.txt").decode("utf-8"))

    def state(self, seq: int) -> dict:
        return osc.parse_state(
            self._get(f"{osc.seq_path(seq)}.state.txt").decode("utf-8")
        )

    def state_for_timestamp(self, timestamp: str, min_seq: int = 0) -> dict:
        """Largest-sequence state with state.timestamp <= timestamp
        (the reference walks back one sequence at a time; binary
        search gives the same answer in O(log n) probes).

        Real replication servers PRUNE old sequences, so a probe below
        the retention horizon 404s; a missing state file is treated as
        "older than everything retained" (search higher). If the
        answer itself was pruned, the earliest RETAINED state is
        returned — starting there replays at-most-extra windows, which
        latest-wins merging makes harmless; starting later would skip
        edits."""
        latest = self.latest_state()
        if latest["timestamp"] is not None and latest["timestamp"] <= timestamp:
            return latest
        lo, hi, best = min_seq, latest["sequence"] - 1, None
        saw_too_new = False
        while lo <= hi:
            mid = (lo + hi) // 2
            try:
                st = self.state(mid)
            except FetchError:
                lo = mid + 1  # pruned: everything at/below mid is gone
                continue
            if st["timestamp"] is not None and st["timestamp"] <= timestamp:
                best, lo = st, mid + 1
            else:
                saw_too_new = True
                hi = mid - 1
        if best is not None:
            return best
        if saw_too_new:
            # everything retained is newer than the target: `lo`
            # converged to the first retained sequence (the pruned/
            # retained boundary) — the earliest possible start
            return self.state(min(lo, latest["sequence"]))
        raise ValueError(f"no replication state at or before {timestamp}")

    # -- change files ------------------------------------------------------
    def change_bytes(self, seq: int) -> bytes:
        return self._get(f"{osc.seq_path(seq)}.osc.gz")


def decide_start_sequence(
    client: ReplicationClient,
    sequence: int = 0,
    timestamp: str | None = None,
) -> int:
    """`OsmUpdater::decideStartSequenceNumber`: an explicit sequence
    wins; else resolve the (caller-supplied) timestamp. The reference's
    third source — latest node timestamp from the SPARQL store — is the
    caller's job here (pass it as `timestamp`); there is no RDF store."""
    if sequence > 0:
        return sequence
    if timestamp is None:
        raise ValueError("need a start sequence or a timestamp")
    return client.state_for_timestamp(timestamp)["sequence"]


def fetch_table(client: ReplicationClient, start_seq: int,
                end_seq: int) -> pa.Table:
    """[start_seq, end_seq] inclusive -> `changes` table (+ `seq`
    column), fetched and parsed on the driver in sequence order.
    Retries happen in `ReplicationClient._get`; an exhausted budget
    raises `FetchError` here."""
    schema = CHANGES_SCHEMA.append(pa.field("seq", pa.int64()))
    rows: list[dict] = []
    for seq in range(start_seq, end_seq + 1):
        for r in osc.parse_osc_bytes(client.change_bytes(seq)):
            r["seq"] = seq
            rows.append(r)
    return pa.Table.from_pylist(rows, schema=schema)


def fetch_changes(client: ReplicationClient, start_seq: int,
                  end_seq: int) -> "ray.data.Dataset":
    """`fetch_table` as an in-memory Dataset."""
    import ray.data

    return ray.data.from_arrow(fetch_table(client, start_seq, end_seq))
