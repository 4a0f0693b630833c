"""Static import check over the package, `__ray_entry__.py` and
`tools/`: every `import oluray.X` / `from oluray.X import Y` — including
the lazy ones inside function bodies — names a module that exists and a
name that module defines. A lazy import of a deleted module otherwise
fails only when its caller runs. Pure `ast`; nothing is imported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources() -> list[Path]:
    return (sorted((ROOT / "oluray").rglob("*.py"))
            + [ROOT / "__ray_entry__.py"]
            + sorted((ROOT / "tools").glob("*.py")))


def _module_path(mod: str) -> Path | None:
    base = ROOT.joinpath(*mod.split("."))
    for p in (base.with_suffix(".py"), base / "__init__.py"):
        if p.is_file():
            return p
    return None


def _top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                names |= {n.id for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def _defines(mod: str, name: str) -> bool:
    if _module_path(f"{mod}.{name}") is not None:  # submodule
        return True
    path = _module_path(mod)
    return path is not None and name in _top_level_names(path)


def _problems(source: str, label: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
            pairs = []
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            mods = [node.module]
            pairs = [(node.module, a.name) for a in node.names]
        else:
            continue
        where = f"{label}:{node.lineno}"
        for m in mods:
            if m.split(".")[0] == "oluray" and _module_path(m) is None:
                out.append(f"{where}: no module {m}")
        for m, name in pairs:
            if (m.split(".")[0] == "oluray" and _module_path(m) is not None
                    and not _defines(m, name)):
                out.append(f"{where}: {m} does not define {name}")
    return out


def test_every_oluray_import_resolves():
    problems = [p for src in _sources()
                for p in _problems(src.read_text(), str(src.relative_to(ROOT)))]
    assert not problems, "\n".join(problems)


def test_check_sees_lazy_imports():
    source = ("def f():\n"
              "    from oluray.stages import no_such_stage\n"
              "    import oluray.no_such_module\n"
              "    from oluray.functions.geo import no_such_name\n"
              "    from oluray.no_such_package import x\n"
              "    from oluray.stages import closure\n")
    assert _problems(source, "probe") == [
        "probe:2: oluray.stages does not define no_such_stage",
        "probe:3: no module oluray.no_such_module",
        "probe:4: oluray.functions.geo does not define no_such_name",
        "probe:5: no module oluray.no_such_package",
    ]
