"""Every name a `qlct` module imports from a sibling module is used there.

No linter runs on this package, so a moved function would otherwise leave
stale `from .mod import name` lines behind. A name imported only so that
other code can look it up on the module (the benchmark tracer wraps such
bindings) carries `# noqa: F401` on its import line; `__all__` counts as
a use."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qlct"


def unused_imports(source: str) -> list[str]:
    """Names bound by a relative `from ... import` in source that no other
    line of it reads, skipping imports marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level > 0):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused += [f"line {node.lineno}: {alias.asname or alias.name}"
                   for alias in node.names if (alias.asname or alias.name) not in used]
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_sibling_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_sibling_import_is_caught():
    source = ("from .gabor import translation_grid, forward_grid\n"
              "from .quat import qmul  # noqa: F401\n"
              "from . import report\n"
              "__all__ = ['report']\n"
              "def f(grid):\n"
              "    return translation_grid(grid)\n")
    assert unused_imports(source) == ["line 1: forward_grid"]
