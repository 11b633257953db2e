"""The package's modules import one another without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

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
