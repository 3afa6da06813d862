"""The package holds only what the commands and the benchmark run.

Every top-level name of src/zmclab/*.py must be reachable from cli.main, or
named in bench/*.py, by the names each definition mentions; a name that
only the tests use belongs in a tests/ helper. Dunder names (module
metadata) are exempt.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zmclab"


def _module_graph():
    """module -> (its top-level definitions by name, and the (module, name)
    each name bound by `from .m import name` stands for)."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs, imported = {}, {}
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            defs[node.id] = stmt
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    imported[alias.asname or alias.name] = (stmt.module, alias.name)
        graph[path.stem] = (defs, imported)
    return graph


def _mentions(module, stmt, graph):
    """The (module, name) definitions a statement mentions by name,
    resolved in its own module first, then through its imports."""
    defs, imported = graph[module]
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            if node.id in defs:
                yield module, node.id
            elif node.id in imported:
                yield imported[node.id]


def _bench_names():
    """Every identifier written in bench/*.py, strings and comments included
    (the traced layers are dotted strings such as "numerics.rk4_step")."""
    return {
        word
        for path in (ROOT / "bench").glob("*.py")
        for word in re.findall(r"[A-Za-z_]\w*", path.read_text())
    }


def unreached_names():
    graph = _module_graph()
    bench = _bench_names()
    todo = [("cli", "main")] + [
        (module, name) for module, (defs, _) in graph.items() for name in defs if name in bench
    ]
    reached = set()
    while todo:
        module, name = todo.pop()
        defs = graph[module][0]
        if (module, name) in reached or name not in defs:
            continue
        reached.add((module, name))
        todo.extend(_mentions(module, defs[name], graph))
    return sorted(
        f"{module}.{name}"
        for module, (defs, _) in graph.items()
        for name in defs
        if (module, name) not in reached and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_package_name_is_reached_by_a_command_or_the_benchmark():
    unreached = unreached_names()
    assert not unreached, f"reached neither from cli.main nor named in bench/: {unreached}"
