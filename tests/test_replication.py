"""Replication-server fetch loop (S1 network mode): injectable
transport, retry policy, timestamp cursor, distributed fetch, full
network-mode update — mirroring `src/osm/OsmUpdater.cpp:38-116` and
`src/osm/OsmDataFetcher.cpp:46-105,163-175` behavior without a
network (local-dir mirror + fakes)."""

import gzip
import os
from dataclasses import dataclass, field

import numpy as np
import pytest

from oluray.sources import fixtures, osc, replication as rep


def _osc_doc(rows) -> bytes:
    return gzip.compress(osc.write_osc(rows).encode("utf-8"))


def _node(op, nid, lon, lat, ts):
    return {
        "op": op, "kind": "node", "id": nid, "version": 2,
        "ts": ts,
        "payload": {"lon": lon, "lat": lat, "nd_refs": None,
                    "members": None, "tags": None},
    }


def _mirror(tmp_path, n_seq=6, first_seq=3):
    """Replication-layout dir: state.txt + NNN/NNN/NNN.{osc.gz,state.txt}."""
    root = tmp_path / "mirror"
    for i in range(n_seq):
        seq = first_seq + i
        p = root / osc.seq_path(seq)
        os.makedirs(p.parent, exist_ok=True)
        ts = f"2024-01-01T{i:02d}\\:00\\:00Z"
        (p.parent / (p.name + ".state.txt")).write_text(
            f"sequenceNumber={seq}\ntimestamp={ts}\n"
        )
        (p.parent / (p.name + ".osc.gz")).write_bytes(
            _osc_doc([_node("modify", 100 + seq, 1.0 + seq, 2.0, i * 3600_000)])
        )
    last = first_seq + n_seq - 1
    (root / "state.txt").write_text(
        f"sequenceNumber={last}\ntimestamp=2024-01-01T{n_seq - 1:02d}\\:00\\:00Z\n"
    )
    return str(root)


def test_local_transport_states(tmp_path):
    client = rep.ReplicationClient(rep.LocalDirTransport(_mirror(tmp_path)))
    latest = client.latest_state()
    assert latest["sequence"] == 8
    st = client.state(5)
    assert st["sequence"] == 5
    assert st["timestamp"] == "2024-01-01T02:00:00Z"


def test_state_for_timestamp_binary_search(tmp_path):
    client = rep.ReplicationClient(rep.LocalDirTransport(_mirror(tmp_path)))
    # mid-window timestamp -> largest state at-or-before it
    st = client.state_for_timestamp("2024-01-01T03:30:00Z", min_seq=3)
    assert st["sequence"] == 6
    # at-or-after the newest -> latest, no per-seq probes needed
    assert client.state_for_timestamp("2024-01-02T00:00:00Z")["sequence"] == 8
    # older than everything retained -> earliest retained state
    # (replaying extra windows is harmless under latest-wins; skipping
    # edits would not be)
    assert (
        client.state_for_timestamp("2023-12-31T00:00:00Z", min_seq=3)["sequence"]
        == 3
    )


def test_state_for_timestamp_pruned_history(tmp_path):
    """Replication servers prune old sequences; probes below the
    retention horizon must be treated as 'older', not abort the
    search (default min_seq=0 probes sequence 3 on this mirror)."""
    client = rep.ReplicationClient(
        rep.LocalDirTransport(_mirror(tmp_path, n_seq=4, first_seq=5)),
        retries=0,
    )
    # answer exists among retained states
    st = client.state_for_timestamp("2024-01-01T01:30:00Z")
    assert st["sequence"] == 6
    # answer itself pruned -> earliest retained
    assert client.state_for_timestamp("2020-01-01T00:00:00Z")["sequence"] == 5


@dataclass
class _Flaky:
    """Fails the first `fail_n` calls per path, then delegates."""

    inner: rep.LocalDirTransport
    fail_n: int
    calls: dict = field(default_factory=dict)

    def __call__(self, path: str) -> bytes:
        c = self.calls.get(path, 0)
        self.calls[path] = c + 1
        if c < self.fail_n:
            raise rep.FetchError(f"transient: {path}")
        return self.inner(path)


def test_retry_policy(tmp_path):
    root = _mirror(tmp_path)
    ok = rep.ReplicationClient(
        _Flaky(rep.LocalDirTransport(root), fail_n=2), retries=3, backoff_s=0.0
    )
    assert ok.latest_state()["sequence"] == 8  # 2 failures absorbed

    bad = rep.ReplicationClient(
        _Flaky(rep.LocalDirTransport(root), fail_n=2), retries=1, backoff_s=0.0
    )
    with pytest.raises(rep.FetchError, match="exhausted"):
        bad.latest_state()
    # the reference performs each GET once and aborts on failure
    # (`src/osm/OsmDataFetcher.cpp:81-105` has no retry) — retries=0
    # reproduces that
    once = rep.ReplicationClient(
        _Flaky(rep.LocalDirTransport(root), fail_n=1), retries=0
    )
    with pytest.raises(rep.FetchError):
        once.latest_state()


def test_fetch_changes_distributed_parse(tmp_path):
    client = rep.ReplicationClient(rep.LocalDirTransport(_mirror(tmp_path)))
    ds = rep.fetch_changes(client, 4, 7)
    df = ds.to_pandas()
    assert sorted(df["seq"].unique()) == [4, 5, 6, 7]
    assert sorted(df["id"]) == [104, 105, 106, 107]
    assert (df["op"] == "modify").all()
    # empty range short-circuits with the right schema
    empty = rep.fetch_changes(client, 9, 8)
    assert empty.count() == 0 and "seq" in empty.schema().names


def test_fetch_changes_retries_then_raises(tmp_path):
    """A change file that fails once is retried inside the client;
    without a retry budget `fetch_changes` itself raises FetchError."""
    root = _mirror(tmp_path)
    ok = rep.ReplicationClient(
        _Flaky(rep.LocalDirTransport(root), fail_n=1), retries=1, backoff_s=0.0
    )
    df = rep.fetch_changes(ok, 4, 7).to_pandas()
    assert sorted(df["id"]) == [104, 105, 106, 107]
    once = rep.ReplicationClient(
        _Flaky(rep.LocalDirTransport(root), fail_n=1), retries=0
    )
    with pytest.raises(rep.FetchError, match="exhausted"):
        rep.fetch_changes(once, 4, 7)


def test_decide_start_sequence(tmp_path):
    client = rep.ReplicationClient(rep.LocalDirTransport(_mirror(tmp_path)))
    assert rep.decide_start_sequence(client, sequence=7) == 7
    assert (
        rep.decide_start_sequence(client, timestamp="2024-01-01T03:30:00Z") == 6
    )
    with pytest.raises(ValueError):
        rep.decide_start_sequence(client)


def test_run_replication_windows_and_resume(tmp_path, store_windows):
    """Multi-window continuous update over the store (the reference's
    server loop): each window writes its geo delta resumably; a re-run
    skips the finished windows' partitions and store commits."""
    import glob
    import json

    import pyarrow.parquet as pq

    from oluray.pipelines import stream

    client = rep.ReplicationClient(rep.LocalDirTransport(_mirror(tmp_path)))
    store, idx = store_windows.store(*fixtures.make_snapshot(200, seed=11))
    out_dir = str(tmp_path / "geo")

    res = stream.run_replication_windows_store(
        store, client, out_dir, sequence=3, window_size=3, ref_index=idx,
    )
    assert [wi["window_id"] for wi in res["windows"]] == [
        "w000000003_000000005", "w000000006_000000008",
    ]
    assert all(wi["rows"] > 0 for wi in res["windows"])
    # every fetched diff node landed in the final snapshot
    final_nodes = store.read("nodes").to_pandas()
    for seq in range(3, 9):
        assert (final_nodes["id"] == 100 + seq).sum() == 1

    # window outputs on disk match the manifests
    rows1, stamps = {}, {}
    for wi in res["windows"]:
        files = glob.glob(f"{out_dir}/{wi['window_id']}/part=*/*.parquet")
        rows1[wi["window_id"]] = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        assert rows1[wi["window_id"]] == wi["rows"]
        man = json.load(open(f"{out_dir}/{wi['window_id']}/_manifest.json"))
        stamps[wi["window_id"]] = {
            p: i["finished_at"] for p, i in man["partitions"].items()
        }
    store_stamps = {
        wi["window_id"]: store.window_manifest(wi["window_id"])["finished_at"]
        for wi in res["windows"]
    }

    # re-run same windows: all partitions and store commits skipped
    res2 = stream.run_replication_windows_store(
        store, client, out_dir, sequence=3, window_size=3, ref_index=idx,
    )
    assert [wi["rows"] for wi in res2["windows"]] == [
        rows1[wi["window_id"]] for wi in res2["windows"]
    ]
    for wi in res2["windows"]:
        man = json.load(open(f"{out_dir}/{wi['window_id']}/_manifest.json"))
        got = {p: i["finished_at"] for p, i in man["partitions"].items()}
        assert got == stamps[wi["window_id"]]  # nothing rewritten
        assert store.window_manifest(wi["window_id"])["finished_at"] == \
            store_stamps[wi["window_id"]]

    # up to date -> None (the reference's early return,
    # `src/osm/OsmUpdater.cpp:68-75`)
    assert stream.run_replication_windows_store(
        store, client, out_dir, sequence=9, ref_index=idx,
    ) is None


def test_run_replication_windows_quiet_window(tmp_path, store_windows):
    """A valid-but-empty change file (maintenance gap) is skipped,
    not fatal (EmptyDiffError would otherwise abort the loop)."""
    from oluray.pipelines import stream

    root = tmp_path / "mirror"
    for seq, rows in ((3, [_node("modify", 103, 4.0, 2.0, 0)]), (4, [])):
        p = root / osc.seq_path(seq)
        os.makedirs(p.parent, exist_ok=True)
        (p.parent / (p.name + ".state.txt")).write_text(
            f"sequenceNumber={seq}\ntimestamp=2024-01-01T0{seq}\\:00\\:00Z\n"
        )
        (p.parent / (p.name + ".osc.gz")).write_bytes(_osc_doc(rows))
    (root / "state.txt").write_text(
        "sequenceNumber=4\ntimestamp=2024-01-01T04\\:00\\:00Z\n"
    )
    client = rep.ReplicationClient(rep.LocalDirTransport(str(root)))
    store, idx = store_windows.store(*fixtures.make_snapshot(60, seed=11))
    res = stream.run_replication_windows_store(
        store, client, str(tmp_path / "geo"), sequence=3, window_size=1,
        ref_index=idx,
    )
    assert len(res["windows"]) == 2
    assert res["windows"][0]["rows"] > 0
    assert res["windows"][1] == {
        "window_id": "w000000004_000000004", "first_seq": 4, "last_seq": 4,
        "partitions": 0, "rows": 0, "store_buckets": {},
    }
    assert store.window_manifest("w000000004_000000004") is None
    assert (store.read("nodes").to_pandas()["id"] == 103).sum() == 1
