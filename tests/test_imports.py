"""Every name a `qlct` module imports from a sibling module is used there.

No linter runs on this package, so a moved function would otherwise leave
stale `from .mod import name` lines behind. A name imported only so that
other code can look it up on the module (the benchmark tracer wraps such
bindings) carries `# noqa: F401` on its import line and must be one of
the tracer's `BINDINGS`; `__all__` counts as a use."""

import ast
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import tracing  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src" / "qlct"


def _kept_alive(node, lines) -> bool:
    return any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])


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
        if _kept_alive(node, lines):
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


def kept_alive_imports(source: str) -> list[str]:
    """Names bound by a relative `from ... import` marked `# noqa: F401`."""
    lines = source.splitlines()
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0 and _kept_alive(node, lines)
            for alias in node.names]


def test_every_kept_alive_import_is_a_traced_binding():
    # such an import exists only for the tracer to wrap, so one it no
    # longer lists is dead
    traced = {binding for bindings in tracing.BINDINGS.values() for binding in bindings}
    kept = [(f"qlct.{path.stem}", name) for path in sorted(SRC.glob("*.py"))
            for name in kept_alive_imports(path.read_text())]
    assert kept
    assert [binding for binding in kept if binding not in traced] == []
