"""The package's modules import one another without a cycle and read no private name of
one another, and the package exports each public name from the module that defines it."""

import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import steerability

PACKAGE = Path(__file__).parents[1] / "src" / "steerability"


def _relative_imports(path: Path) -> set[str]:
    """Sibling modules named by `from .x import ...` and `from . import x, y` in path."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_module_graph_is_acyclic():
    graph = {path.stem: _relative_imports(path) for path in PACKAGE.glob("*.py")}
    assert set().union(*graph.values()) <= set(graph)  # every import names a module
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def _private_reads(path: Path) -> list[str]:
    """`x._name` reads in path of a sibling module x imported by `from . import x`."""
    tree = ast.parse(path.read_text())
    siblings = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    return [
        f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in siblings
        and node.attr.startswith("_") and not node.attr.startswith("__")
    ]


def test_no_module_reads_a_private_name_of_another():
    reads = [read for path in sorted(PACKAGE.glob("*.py")) for read in _private_reads(path)]
    assert not reads, "private reads: " + ", ".join(reads)


def test_each_public_name_is_exported_from_its_home():
    # `from .m import name` in __init__ must name the module that defines each callable,
    # so every public function and class has one home and no module re-exports another's
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    strays = [
        f"{alias.name} from .{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if callable(obj := getattr(steerability, alias.asname or alias.name))
        and obj.__module__ != f"steerability.{node.module}"
    ]
    assert not strays, "exported away from home: " + ", ".join(strays)


def test_cli_import_loads_no_thread_pool_or_logging():
    # setup_s times a fresh `import steerability.cli`; concurrent.futures would add about
    # 6 ms to it, most of it in the logging module it imports
    code = "import sys, steerability.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert fresh.stdout == "[]\n"
