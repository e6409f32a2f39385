"""Every definition in `src/rscong` is run by something outside the tests.

The roots are `rscong.cli.main`, the names the benchmark's workloads and
tracer look up (`bench/workloads.py`, `bench/spans.py`) and the fixture
generator `tools/gen_level3_fixtures.py`.  Reachability is by bare name: a
reached definition reaches every top-level function, class, method and
constant of the package whose name it mentions, as a variable, an attribute
or a `from . import` name.  The one exception is `self.<name>` inside a class
that defines a method of that name: it reaches only that method.  A reached
class reaches its decorators, bases, class-level statements and dunder
methods; its other methods are reached by name like functions.  Oracles the
tests compare the library against belong in `tests/`, not in the library.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rscong"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned_names(stmt) -> list[str]:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    names = []
    for t in targets:
        elts = t.elts if isinstance(t, ast.Tuple) else [t]
        names += [e.id for e in elts if isinstance(e, ast.Name)]
    return names


def _mentions(nodes, own: dict[str, str] | None = None) -> set[str]:
    """Names, attributes and `from . import` names mentioned in `nodes`.

    `own` maps the method names of the enclosing class to their qualified
    names; `self.<name>` mentions the qualified name where it has one.
    """
    own = own or {}
    out: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                on_self = isinstance(sub.value, ast.Name) and sub.value.id == "self"
                out.add(own.get(sub.attr, sub.attr) if on_self else sub.attr)
            elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module is None:
                out.update(alias.name for alias in sub.names)
    return out


def _methods(cls: ast.ClassDef) -> list:
    return [stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not _is_dunder(stmt.name)]


def _class_body_mentions(cls: ast.ClassDef, own: dict[str, str]) -> set[str]:
    nodes = [*cls.decorator_list, *cls.bases, *cls.keywords]
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_dunder(stmt.name):
                nodes.append(stmt)
        else:
            nodes.append(stmt)
    return _mentions(nodes, own)


def library_definitions() -> dict[str, list[tuple[str, set[str]]]]:
    """Reach key -> [(qualified name, keys its body mentions)].

    A key is a bare name; a method is also under its qualified name, the key
    `self.<name>` in its own class mentions.
    """
    defs: dict[str, list[tuple[str, set[str]]]] = {}

    def add(name, qual, mentions):
        defs.setdefault(name, []).append((qual, mentions))

    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(stmt.name, f"{mod}.{stmt.name}", _mentions([stmt]))
            elif isinstance(stmt, ast.ClassDef):
                own = {item.name: f"{mod}.{stmt.name}.{item.name}" for item in _methods(stmt)}
                add(stmt.name, f"{mod}.{stmt.name}", _class_body_mentions(stmt, own))
                for item in _methods(stmt):
                    mentions = _mentions([item], own)
                    add(item.name, own[item.name], mentions)
                    add(own[item.name], own[item.name], mentions)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for name in _assigned_names(stmt):
                    add(name, f"{mod}.{name}", _mentions([stmt.value]))
    return defs


def root_names() -> set[str]:
    names = {"main"}  # rscong.cli.main, the console script
    for rel in ("bench/workloads.py", "bench/spans.py", "tools/gen_level3_fixtures.py"):
        tree = ast.parse((ROOT / rel).read_text())
        names |= _mentions([tree])
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        for node in tree.body:  # the tracer's table names patched attributes as strings
            if isinstance(node, ast.Assign) and "TRACED" in _assigned_names(node):
                names |= {attr for _, _, attr in ast.literal_eval(node.value)}
    return names


def unreached() -> list[str]:
    defs = library_definitions()
    seen: set[str] = set()
    todo = list(root_names())
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _, mentions in defs.get(name, ()):
            todo.extend(mentions - seen)
    reached = {qual for key in seen for qual, _ in defs.get(key, ())}
    return sorted({qual for entries in defs.values() for qual, _ in entries} - reached)


def test_every_library_definition_is_reached_from_a_root():
    dead = unreached()
    assert not dead, f"{len(dead)} definitions only the tests use: " + ", ".join(dead)


def test_the_walk_finds_an_unreached_definition(tmp_path, monkeypatch):
    # the check above must be able to fail: an extra module with one function
    # nothing calls is reported under its qualified name
    pkg = tmp_path / "rscong"
    pkg.mkdir()
    for path in PACKAGE.glob("*.py"):
        (pkg / path.name).write_text(path.read_text())
    (pkg / "extra.py").write_text("def orphan_check():\n    return 1\n")
    # `Live.main` is reached through the root name `main`; the only caller of
    # `Dead.orphan_method` is `self.orphan_method` in `Live`, which reaches
    # `Live.orphan_method` alone
    (pkg / "extra_methods.py").write_text(
        "class Live:\n"
        "    def main(self):\n        return self.orphan_method()\n"
        "    def orphan_method(self):\n        return 1\n"
        "class Dead:\n"
        "    def orphan_method(self):\n        return 2\n")
    monkeypatch.setitem(globals(), "PACKAGE", pkg)
    dead = unreached()
    assert "extra.orphan_check" in dead
    assert "extra_methods.Dead.orphan_method" in dead
    assert "extra_methods.Live.orphan_method" not in dead
