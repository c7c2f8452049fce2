"""Every name a `qlct` module imports from a sibling module is used there,
and every name a module defines is read by the program or the benchmark.

No linter runs on this package, so a moved function would otherwise leave
stale `from .mod import name` lines behind. A name imported only so that
other code can look it up on the module (the benchmark tracer wraps such
bindings) carries `# noqa: F401` on its import line and must be one of
the tracer's `BINDINGS`; `__all__` counts as a use. Code that only tests
read belongs in `tests/` (reference implementations in `oracles.py`), so
`__init__.py` and the tests are no readers of a module's names."""

import ast
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import tracing  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src" / "qlct"
BENCH = SRC.parent.parent / "bench"


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


def fft_reads(source: str) -> list[str]:
    """`scipy.fft.<name>` for each name source reads off `scipy.fft`, and
    each import that binds scipy.fft or its names under another name: the
    tracer replaces module attributes, so it never sees a copied name, and
    this check cannot tell which names an alias reads."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and (node.value.value.id, node.value.attr) == ("scipy", "fft")):
            reads.append(f"scipy.fft.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("scipy", "scipy.fft"):
            reads += [f"from {node.module} import {alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            reads += [f"import {alias.name} as {alias.asname}" for alias in node.names
                      if alias.name == "scipy.fft" and alias.asname]
    return reads


def untraced_ffts(sources: list[str]) -> list[str]:
    """The `fft_reads` of the sources that are no ("scipy.fft", name)
    binding of the tracer."""
    traced = {f"{module}.{attr}" for bindings in tracing.BINDINGS.values()
              for module, attr in bindings if module == "scipy.fft"}
    return [read for source in sources for read in fft_reads(source) if read not in traced]


def test_every_fft_the_package_calls_is_traced():
    # so `lct1d.fft.*` counts every FFT a transform makes
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert {"scipy.fft.fft", "scipy.fft.ifft"} <= {r for s in sources for r in fft_reads(s)}
    assert untraced_ffts(sources) == []


def test_an_untraced_fft_is_caught():
    sources = ["import scipy.fft\n"
               "def f(g, forward):\n"
               "    fft = scipy.fft.fft if forward else scipy.fft.ifft\n"
               "    return fft(scipy.fft.fft2(g), axis=-1)\n",
               "from scipy.fft import rfft\nfrom scipy import fft\nimport scipy.fft as sf\n"]
    assert untraced_ffts(sources) == ["scipy.fft.fft2", "from scipy.fft import rfft",
                                      "from scipy import fft", "import scipy.fft as sf"]


def environment_reads(source: str) -> list[str]:
    """`line N: os.environ` (or `os.getenv`) for each read of the process
    environment in source, `from os import` forms included."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ("environ", "getenv")):
            reads.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"line {node.lineno}: os.{alias.name}" for alias in node.names
                      if alias.name in ("environ", "getenv")]
    return reads


def test_only_the_cli_reads_the_environment():
    # a run setting has one reader, which checks it before any command runs
    reads = {path.name: environment_reads(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert reads.pop("cli.py")
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_an_environment_read_is_caught():
    source = ("import os\nfrom os import getenv\n"
              "def f():\n"
              "    return os.environ.get('X'), getenv('Y'), os.path.sep\n")
    assert environment_reads(source) == ["line 2: os.getenv", "line 4: os.environ"]


def defined_names(source: str) -> list[str]:
    """The functions, classes and assigned names at the top level of source."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def read_names(source: str, strings: bool = False) -> set[str]:
    """Names source reads: loaded names, attributes and relative imports,
    and with strings every string constant (the tracer names its bindings
    as strings)."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level > 0:
            reads |= {alias.name for alias in node.names}
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def unread_names(modules: dict[str, str], bench: list[str]) -> list[str]:
    """`module.name` for each name the modules define that neither they
    nor the bench sources read."""
    reads = set().union(*map(read_names, modules.values()),
                        *(read_names(source, strings=True) for source in bench))
    return [f"{module}.{name}" for module, source in modules.items()
            for name in defined_names(source) if name not in reads]


def test_every_defined_name_has_a_reader():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    bench = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert unread_names(modules, bench) == []


def test_an_unread_helper_is_caught():
    modules = {"a": "X: int = 1\ndef used():\n    return X\ndef helper():\n    pass\n",
               "b": "from .a import used\nclass Traced:\n    pass\nY = Z = 2\n"}
    bench = ["BINDINGS = [('qlct.b', 'Traced')]\nprint(b.Y)\n"]
    assert unread_names(modules, bench) == ["a.helper", "b.Z"]


def _dotted(func) -> str:
    """`open`, `np.savetxt`, `fh.write_text`: the called name as written."""
    if isinstance(func, ast.Attribute):
        return f"{_dotted(func.value)}.{func.attr}"
    return func.id if isinstance(func, ast.Name) else "?"


def _may_write(call) -> bool:
    """Whether an `open` call's mode may write: any mode but a constant
    with no w, a, x or +."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


class _FileWrites(ast.NodeVisitor):
    """The file writes of a module that do not go through `replacing`."""

    #: writer -> (position, keyword) of the file it writes
    TARGETS = {"np.savetxt": (0, "fname"), "numpy.savetxt": (0, "fname"),
               "json.dump": (1, "fp")}

    def __init__(self):
        self.found, self.handles, self.in_helper = [], [], False

    def visit_FunctionDef(self, node):
        outer, self.in_helper = self.in_helper, self.in_helper or node.name == "replacing"
        self.generic_visit(node)
        self.in_helper = outer

    def visit_With(self, node):
        bound = [item.optional_vars.id for item in node.items
                 if isinstance(item.context_expr, ast.Call)
                 and _dotted(item.context_expr.func).split(".")[-1] == "replacing"
                 and isinstance(item.optional_vars, ast.Name)]
        self.handles += bound
        self.generic_visit(node)
        del self.handles[len(self.handles) - len(bound):]

    def visit_Call(self, node):
        name = _dotted(node.func)
        if name in ("open", "io.open") and _may_write(node) and not self.in_helper:
            self.found.append(f"line {node.lineno}: {name}")
        elif name.split(".")[-1] in ("write_text", "write_bytes"):
            self.found.append(f"line {node.lineno}: {name}")
        elif name in self.TARGETS:
            at, key = self.TARGETS[name]
            target = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == key), None)
            if not (isinstance(target, ast.Name) and target.id in self.handles):
                self.found.append(f"line {node.lineno}: {name}")
        self.generic_visit(node)


def unguarded_writes(source: str) -> list[str]:
    """`line N: <call>` for each call in source that writes a file past
    `signal.replacing`: an `open` that may write, outside `replacing`
    itself; a `write_text` or `write_bytes`; and an `np.savetxt` or
    `json.dump` aimed at anything but a handle that an enclosing
    `with replacing(...) as fh` binds."""
    visitor = _FileWrites()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_every_file_is_written_through_the_helper():
    # so every output is whole or absent, never cut short
    writes = {path.name: unguarded_writes(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in writes.items() if lines} == {}
    helpers = [path.name for path in sorted(SRC.glob("*.py"))
               if "replacing" in defined_names(path.read_text())]
    assert helpers == ["signal.py"]


def test_a_write_past_the_helper_is_caught():
    source = ("import json\nimport numpy as np\nfrom .signal import replacing\n"
              "def opener(path, mode):\n"
              "    return open(path, mode)\n"
              "def f(path, d, a):\n"
              "    with open(path) as fh, open(path, 'rb'), open(path, mode='r'):\n"
              "        pass\n"
              "    with open(path, 'wb') as fh:\n"
              "        json.dump(d, fh)\n"
              "    with replacing(path, 'w') as fh, replacing(path) as out:\n"
              "        json.dump(d, fh)\n"
              "        np.savetxt(out, a)\n"
              "        np.savetxt(path, a)\n"
              "    np.savetxt(fname=fh, X=a)\n"
              "    open(path, mode='r+')\n"
              "    path.write_bytes(b'')\n")
    assert unguarded_writes(source) == [
        "line 5: open", "line 9: open", "line 10: json.dump", "line 14: np.savetxt",
        "line 15: np.savetxt", "line 16: open", "line 17: path.write_bytes"]
