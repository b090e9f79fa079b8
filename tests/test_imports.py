"""Every imported name is used: read as a name somewhere in its module, or
listed in the module's ``__all__``. Covers the package, the tests and the
tools; ``from __future__`` imports are exempt.

Each layer loads only the layers below it, in a fresh interpreter."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(
    list((ROOT / "src" / "assignlab").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "tools").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nprint(sys.argv)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# the package's modules each import loads besides itself: operators, then
# assignments, then compatibility and dynamics; the search loads _seeds only
# when it runs
LAYERS = {
    "assignlab": set(),
    "assignlab.operators": set(),
    "assignlab.assignments": {"assignlab.operators"},
    "assignlab.compatibility": {"assignlab.assignments", "assignlab.operators"},
    "assignlab.dynamics": {"assignlab.assignments", "assignlab.operators"},
}


@pytest.mark.parametrize("module", LAYERS)
def test_a_layer_loads_only_the_layers_below_it(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    check = (f"import sys, {module}; "
             "print(*(m for m in sys.modules if m.startswith('assignlab.')))")
    out = subprocess.run([sys.executable, "-c", check], env=env,
                         capture_output=True, text=True, check=True)
    assert set(out.stdout.split()) - {module} == LAYERS[module]
