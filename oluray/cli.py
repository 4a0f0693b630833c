"""`python -m oluray` — the reference CLI's flag surface over the Ray
engine (`/root/reference/apps/osm-live-updates.cpp:27-41`,
`src/config/Config.cpp:32-180`).

Mapping of the reference's surface:

- positional SPARQL endpoint URI  -> positional STORE directory (the
  engine's database is a `SnapshotStore`; created on first run via
  `--init-osm`)
- `-i/--input <dir>`              -> same: local dir of .osc[.gz]
  change files, applied oldest-to-newest in ONE merged window
  (`OsmUpdater.cpp:136-147`)
- `-f/--file-server <uri>`        -> replication mirror directory
  (this sandbox has no network; the transport is the local-dir
  replication layout `NNN/NNN/NNN.osc.gz` + state files)
- `-s/--sequence-number N`        -> start sequence
- `-t/--timestamp TS`             -> start timestamp
- `-o/--sparql-output MODE`       -> endpoint | file | debug_file
  (`Config.h:55-63`); file modes write the update artifact via
  `--sparql-output-file` instead of committing; they apply to
  `--input` only (with `--file-server` they are rejected, exit 2)
- exactly-one-of input/file-server, input-must-be-a-directory and
  mode validations mirror `Config.cpp:121-146` (exit code 2)

Engine-side additions: `--out` (geo-delta sink dir, the engine's
product), `--window-size`, `--cell-res`, `--init-osm` (bootstrap the
store from an .osm snapshot file), `--num-cpus` (local Ray width).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_BAD_ARGS = 2  # the reference's INCORRECT_ARGUMENTS family


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m oluray",
        description="Keep a geo snapshot store up to date from "
                    "OsmChange diffs (Ray-Data engine).",
    )
    p.add_argument("store", help="snapshot-store directory (the database)")
    p.add_argument("-i", "--input",
                   help="directory with .osc[.gz] change files")
    p.add_argument("-f", "--file-server",
                   help="replication mirror directory (local transport)")
    p.add_argument("-s", "--sequence-number", type=int, default=0)
    p.add_argument("-t", "--timestamp", default=None)
    p.add_argument("-o", "--sparql-output", default="endpoint",
                   choices=["endpoint", "file", "debug_file"])
    p.add_argument("--sparql-output-file", default=None,
                   help="artifact dir for file/debug_file modes")
    p.add_argument("--out", default=None,
                   help="geo-delta output dir (default <store>/_geo)")
    p.add_argument("--window-size", type=int, default=1)
    p.add_argument("--cell-res", type=int, default=12)
    p.add_argument("--init-osm", default=None,
                   help="bootstrap the store from an .osm snapshot file")
    p.add_argument("--num-cpus", type=int, default=None)
    return p


def _fail(msg: str) -> int:
    print(msg, file=sys.stderr)
    return EXIT_BAD_ARGS


def _bootstrap_store(store_dir: str, osm_path: str):
    import pyarrow as pa
    import ray.data

    from oluray.pipelines.update import (
        _payload_nodes, _payload_relations, _payload_ways,
    )
    from oluray.sources import osc
    from oluray.sources.fixtures import CHANGES_SCHEMA
    from oluray.state.snapshot import SnapshotStore

    with open(osm_path, "rb") as f:
        rows = osc.parse_osm_bytes(f.read())
    merged = ray.data.from_arrow(pa.Table.from_pylist(rows, CHANGES_SCHEMA))
    return SnapshotStore.create(store_dir, {
        "nodes": _payload_nodes(merged),
        "ways": _payload_ways(merged),
        "relations": _payload_relations(merged),
    })


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    # the reference's EITHER-input-OR-file-server contract
    # (`Config.cpp:121-125`)
    if (args.input is None) == (args.file_server is None):
        return _fail(
            "You have to EITHER provide the path to a directory with "
            "the change files you want to process (--input) or the "
            "replication source where the osm change files are "
            "located (--file-server)"
        )
    if args.input is not None:
        if not os.path.exists(args.input):
            return _fail(f"Input does not exist: {args.input}")
        if not os.path.isdir(args.input):
            return _fail(f"Input is not a directory: {args.input}")
    if args.sparql_output != "endpoint" and not args.sparql_output_file:
        return _fail(
            f"--sparql-output {args.sparql_output} requires "
            "--sparql-output-file"
        )
    # the replication loop always commits to the store; a file mode
    # ("write the update, do not apply it") is only served for --input
    if args.sparql_output != "endpoint" and args.file_server is not None:
        return _fail(
            f"--sparql-output {args.sparql_output} is only supported "
            "with --input, not with --file-server"
        )

    import ray

    if not ray.is_initialized():
        kw = {"num_cpus": args.num_cpus} if args.num_cpus else {}
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR", **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from oluray.runtime import quiet_ray_empty_block_warnings

    quiet_ray_empty_block_warnings()

    from oluray.pipelines import stream
    from oluray.sources import osc, replication as rep
    from oluray.state.snapshot import SnapshotStore

    if os.path.exists(os.path.join(args.store, "_store.json")):
        store = SnapshotStore(args.store)
        if args.init_osm:
            return _fail(f"store already exists: {args.store}")
    elif args.init_osm:
        store = _bootstrap_store(args.store, args.init_osm)
    else:
        return _fail(
            f"{args.store} is not a snapshot store — bootstrap one "
            "with --init-osm <snapshot.osm>"
        )

    out_dir = args.out or os.path.join(args.store, "_geo")
    if args.input is not None:
        files = sorted(
            os.path.join(args.input, f)
            for f in os.listdir(args.input)
            if f.endswith((".osc", ".osc.gz", ".osc.bz2"))
        )
        if not files:
            return _fail(f"no .osc files in {args.input}")
        # content-derived window id: re-running the SAME input stays
        # idempotent (store.apply_window manifest short-circuit), a
        # DIFFERENT change set gets a fresh window instead of being
        # silently swallowed by the previous run's manifest
        import hashlib

        h = hashlib.sha1()
        for p in files:
            h.update(os.path.basename(p).encode())
            with open(p, "rb") as fh:
                h.update(hashlib.sha1(fh.read()).digest())
        wid = f"cli-{h.hexdigest()[:12]}"
        from oluray.stages.diff import EmptyDiffError

        try:
            res = stream.apply_changes_window(
                store, osc.read_osc(files), out_dir,
                window_id=wid, cell_res=args.cell_res,
                output_mode=args.sparql_output,
                artifact_dir=args.sparql_output_file,
            )
        except EmptyDiffError:
            # the reference errors on an element-free change file
            # (`OsmChangeHandler.cpp:192-196`)
            print("Change files contain no elements", file=sys.stderr)
            return 1
        print(json.dumps({"windows": [res]}, default=str))
        return EXIT_OK

    client = rep.ReplicationClient(rep.LocalDirTransport(args.file_server))
    res = stream.run_replication_windows_store(
        store, client, out_dir,
        sequence=args.sequence_number, timestamp=args.timestamp,
        window_size=args.window_size, cell_res=args.cell_res,
    )
    if res is None:
        print(json.dumps({"windows": [], "up_to_date": True}))
        return EXIT_OK
    print(json.dumps(
        {"windows": res["windows"],
         "start_sequence": res["start_sequence"],
         "latest_sequence": res["latest_sequence"]}, default=str,
    ))
    return EXIT_OK
