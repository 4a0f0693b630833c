"""CLI front-end (`python -m oluray`) — flag surface and validation
mirror the reference (`/root/reference/src/config/Config.cpp:32-180`);
driven in-process via `oluray.cli.main` (the session owns Ray)."""

from __future__ import annotations

import gzip
import json
import os

import pytest

from oluray import cli
from oluray.sources import osc


@pytest.fixture()
def store_dir(ray_session, tmp_path):
    """Store bootstrapped from an .osm snapshot through the CLI
    itself (--init-osm needs a change input too, so this uses a
    trivially empty-effect change dir? No — bootstrap happens before
    the window; use a real change dir)."""
    return str(tmp_path / "store")


def _write_osm(path: str) -> None:
    with open(path, "w") as f:
        f.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n<osm version="0.6">\n'
            + "".join(
                f' <node id="{i}" version="1" '
                f'timestamp="2024-01-01T00:00:0{i % 10}Z" '
                f'lat="{40 + i * 0.001:.7f}" lon="{7 + i * 0.001:.7f}"/>\n'
                for i in range(1, 8)
            )
            + ' <way id="100" version="1" timestamp="2024-01-02T00:00:00Z">'
            + "".join(f'<nd ref="{i}"/>' for i in range(1, 5))
            + '<tag k="highway" v="primary"/></way>\n</osm>\n'
        )


def _write_change_dir(d: str) -> None:
    os.makedirs(d, exist_ok=True)
    rows = [
        {"op": "modify", "kind": "node", "id": 2, "version": 2,
         "ts": 1_700_000_000_000,
         "payload": {"lon": 7.5, "lat": 40.5, "nd_refs": None,
                     "members": None, "tags": None}},
        {"op": "create", "kind": "node", "id": 99, "version": 1,
         "ts": 1_700_000_001_000,
         "payload": {"lon": 8.0, "lat": 41.0, "nd_refs": None,
                     "members": None, "tags": None}},
    ]
    with open(os.path.join(d, "001.osc.gz"), "wb") as f:
        f.write(gzip.compress(osc.write_osc(rows).encode()))


def test_cli_validation(tmp_path, capsys):
    # neither / both of input & file-server (Config.cpp:121-125)
    assert cli.main([str(tmp_path / "s")]) == cli.EXIT_BAD_ARGS
    assert cli.main([str(tmp_path / "s"), "-i", "x", "-f", "y"]) \
        == cli.EXIT_BAD_ARGS
    # input must exist and be a directory
    assert cli.main([str(tmp_path / "s"), "-i", str(tmp_path / "nope")]) \
        == cli.EXIT_BAD_ARGS
    p = tmp_path / "afile"
    p.write_text("x")
    assert cli.main([str(tmp_path / "s"), "-i", str(p)]) == cli.EXIT_BAD_ARGS
    # file mode needs an artifact path
    d = tmp_path / "ch"
    d.mkdir()
    assert cli.main([str(tmp_path / "s"), "-i", str(d), "-o", "file"]) \
        == cli.EXIT_BAD_ARGS


def test_cli_input_dir_end_to_end(ray_session, store_dir, tmp_path, capsys):
    osm = str(tmp_path / "snap.osm")
    _write_osm(osm)
    chd = str(tmp_path / "changes")
    _write_change_dir(chd)

    rc = cli.main([store_dir, "-i", chd, "--init-osm", osm])
    assert rc == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    w = out["windows"][0]
    assert w["rows"] > 0 and w["store_buckets"]
    # the store was committed: node 2 moved, node 99 exists
    from oluray.state.snapshot import SnapshotStore

    store = SnapshotStore(store_dir)
    nodes = store.read("nodes").to_pandas().set_index("id")
    assert nodes.loc[2, "lon"] == pytest.approx(7.5)
    assert 99 in nodes.index
    # geo output landed under <store>/_geo (content-derived window id)
    assert any(d.startswith("cli-")
               for d in os.listdir(os.path.join(store_dir, "_geo")))


def test_cli_file_mode_no_commit(ray_session, store_dir, tmp_path, capsys):
    osm = str(tmp_path / "snap.osm")
    _write_osm(osm)
    chd = str(tmp_path / "changes")
    _write_change_dir(chd)
    art = str(tmp_path / "artifact")

    rc = cli.main([store_dir, "-i", chd, "--init-osm", osm,
                   "-o", "file", "--sparql-output-file", art])
    assert rc == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    w = out["windows"][0]
    assert w["artifact"]["mode"] == "file"
    assert os.path.exists(os.path.join(art, "inserts.ttl"))
    # NOT committed: node 2 still at its snapshot position, no node 99
    from oluray.state.snapshot import SnapshotStore

    nodes = SnapshotStore(store_dir).read("nodes").to_pandas()
    assert 99 not in set(nodes["id"])
    assert "store_buckets" not in w


def _write_mirror(mirror: str) -> None:
    """Local replication mirror holding one sequence that moves node 3."""
    rows = [
        {"op": "modify", "kind": "node", "id": 3, "version": 2,
         "ts": 1_700_000_002_000,
         "payload": {"lon": 9.0, "lat": 42.0, "nd_refs": None,
                     "members": None, "tags": None}},
    ]
    p = os.path.join(mirror, osc.seq_path(1))
    os.makedirs(os.path.dirname(p), exist_ok=True)
    with open(p + ".state.txt", "w") as f:
        f.write("sequenceNumber=1\ntimestamp=2024-01-01T00\\:00\\:00Z\n")
    with open(p + ".osc.gz", "wb") as f:
        f.write(gzip.compress(osc.write_osc(rows).encode()))
    with open(os.path.join(mirror, "state.txt"), "w") as f:
        f.write("sequenceNumber=1\ntimestamp=2024-01-01T00\\:00\\:00Z\n")


def test_cli_replication_mode(ray_session, tmp_path, capsys):
    """--file-server over a local replication mirror: bootstraps,
    consumes to latest, second run reports up-to-date."""
    osm = str(tmp_path / "snap.osm")
    _write_osm(osm)
    mirror = str(tmp_path / "mirror")
    _write_mirror(mirror)

    store_dir = str(tmp_path / "store")
    # replication mode cannot bootstrap and consume in one arg set
    # with --input absent; --init-osm works with -f too
    rc = cli.main([store_dir, "-f", mirror, "--init-osm", osm,
                   "-s", "1"])
    assert rc == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(out["windows"]) == 1
    from oluray.state.snapshot import SnapshotStore

    nodes = SnapshotStore(store_dir).read("nodes").to_pandas().set_index("id")
    assert nodes.loc[3, "lon"] == pytest.approx(9.0)

    rc = cli.main([store_dir, "-f", mirror, "-s", "2"])
    assert rc == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out.get("up_to_date") is True


@pytest.mark.parametrize("mode", ["file", "debug_file"])
def test_cli_file_server_rejects_file_modes(ray_session, tmp_path, mode):
    """The replication loop always commits, so a file mode ("write the
    update, do not apply it") with --file-server is an argument error,
    not a silent commit."""
    osm = str(tmp_path / "snap.osm")
    _write_osm(osm)
    mirror = str(tmp_path / "mirror")
    _write_mirror(mirror)
    store_dir = str(tmp_path / "store")
    rc = cli.main([store_dir, "-f", mirror, "--init-osm", osm, "-s", "1",
                   "-o", mode, "--sparql-output-file",
                   str(tmp_path / "artifact")])
    assert rc == cli.EXIT_BAD_ARGS
    assert not os.path.exists(store_dir)


def test_cli_second_change_set_applies(ray_session, tmp_path, capsys):
    """A SECOND --input run with DIFFERENT changes must commit (the
    window id is content-derived, not a fixed label that the first
    run's manifest would short-circuit)."""
    osm = str(tmp_path / "snap.osm")
    _write_osm(osm)
    chd = str(tmp_path / "changes")
    _write_change_dir(chd)
    store_dir = str(tmp_path / "store")
    assert cli.main([store_dir, "-i", chd, "--init-osm", osm]) == cli.EXIT_OK
    capsys.readouterr()

    chd2 = str(tmp_path / "changes2")
    os.makedirs(chd2)
    rows = [
        {"op": "create", "kind": "node", "id": 777, "version": 1,
         "ts": 1_700_000_005_000,
         "payload": {"lon": 5.0, "lat": 45.0, "nd_refs": None,
                     "members": None, "tags": None}},
    ]
    with open(os.path.join(chd2, "002.osc.gz"), "wb") as f:
        f.write(gzip.compress(osc.write_osc(rows).encode()))
    assert cli.main([store_dir, "-i", chd2]) == cli.EXIT_OK
    capsys.readouterr()
    from oluray.state.snapshot import SnapshotStore

    nodes = SnapshotStore(store_dir).read("nodes").to_pandas()
    assert 777 in set(nodes["id"])  # second window actually committed
    assert 99 in set(nodes["id"])   # first window's effect preserved


def test_cli_empty_change_file(ray_session, tmp_path, capsys):
    """Element-free change files error cleanly (exit 1), mirroring
    the reference's empty-diff abort."""
    osm = str(tmp_path / "snap.osm")
    _write_osm(osm)
    chd = str(tmp_path / "empty_changes")
    os.makedirs(chd)
    with open(os.path.join(chd, "001.osc.gz"), "wb") as f:
        f.write(gzip.compress(osc.write_osc([]).encode()))
    store_dir = str(tmp_path / "store")
    rc = cli.main([store_dir, "-i", chd, "--init-osm", osm])
    assert rc == 1
    assert "no elements" in capsys.readouterr().err
