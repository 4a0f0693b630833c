"""Regenerate CATALOG.md from the driver-contract registry
docstrings of the checkout this script lives in:
python tools/gen_catalog.py"""
import inspect
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    sys.path.insert(0, ROOT)
    import __ray_entry__ as e

    q, o = e.queries(), e.oracle_sql()
    rows = []
    for name in sorted(q):
        fn = q[name]
        doc = inspect.getdoc(fn) or ""
        first = doc.split(". ")[0].replace("\n", " ").strip()
        if len(first) > 160:
            first = first[:157] + "..."
        mod = fn.__module__.rsplit(".", 1)[-1]
        kind = "oracle" if name in o else "rows-only"
        rows.append((name, kind, mod, first))

    with open(os.path.join(ROOT, "CATALOG.md"), "w") as f:
        f.write("# Query catalog\n\n")
        f.write(f"{len(q)} driver-contract queries: "
                f"{len(o)} DuckDB-oracle hash-exact, "
                f"{len(q) - len(o)} rows-only (each brute-/property-"
                f"verified in pytest). Generated from the registry "
                f"docstrings (`python tools/gen_catalog.py`).\n\n")
        f.write("| query | check | module | summary |\n"
                "|---|---|---|---|\n")
        for name, kind, mod, first in rows:
            first = first.replace("|", "\\|")
            f.write(f"| `{name}` | {kind} | {mod} | {first} |\n")
    print(f"CATALOG.md: {len(rows)} rows")


if __name__ == "__main__":
    main()
