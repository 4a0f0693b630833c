"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of an oluray checkout. Each workload runs at the
tiny scale twice: once clean (every output check must pass) and once
traced with `--corrupt 1`, which alters one output row before the
checks read it (the checks must then report failures). Exits 0 when
both hold for every workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import E2E, PER_LAYER, WORKLOADS  # noqa: E402


def result(workload: str, trace: int, corrupt: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny",
           "--corrupt", str(corrupt)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload}: exit code {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main() -> int:
    bad = []
    for w in WORKLOADS:
        clean = result(w, trace=0, corrupt=0)
        ok = (clean["correct"] and clean["failed"] == 0
              and clean["attempted"] > 0 and set(clean["metrics"]) == set(E2E)
              and all(m["value"] > 0 for m in clean["metrics"].values()))
        print(f"{w} clean: attempted={clean['attempted']} "
              f"failed={clean['failed']} {'ok' if ok else 'FAIL'}")
        bad += [] if ok else [f"{w} clean"]

        broken = result(w, trace=1, corrupt=1)
        frac = broken["metrics"]["check.failed_frac"]["value"]
        ok = (not broken["correct"] and broken["failed"] > 0 and frac > 0
              and set(broken["metrics"]) == set(PER_LAYER))
        print(f"{w} corrupted: attempted={broken['attempted']} "
              f"failed={broken['failed']} failed_frac={frac:.4g} "
              f"{'ok' if ok else 'FAIL'}")
        bad += [] if ok else [f"{w} corrupted"]
    if bad:
        print("smoke test failed: " + ", ".join(bad))
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
