"""Every name a btk module imports is used there, or is a site that the
benchmark's traced run patches (perfbench/layers.py's _sites); every btk
module but the CLI serves another through a name that one reads; and no btk
module reads the environment."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import btk

SRC = Path(btk.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"
# __init__ imports every name in order to export it
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
#: os attributes through which a module would read an environment variable
ENVIRON_READS = {"environ", "environb", "getenv", "getenvb"}

# (module, name) imported only so that the traced run can patch it there
PATCH_ONLY = {
    ("btk.measures", "kernel_at_points"),
    ("btk.toeplitz", "radial_log_moments"),
}


def _imported(tree: ast.AST) -> dict:
    """Each name that a module imports -> the btk module it comes from, or None."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update({a.asname or a.name.split(".")[0]: None for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = node.module if node.level == 1 else None
            names.update({a.asname or a.name: source for a in node.names})
    return names


def _read_names(tree: ast.AST) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _unused_imports(path: Path) -> set:
    """Names imported anywhere in the module at path and read nowhere in it."""
    tree = ast.parse(path.read_text())
    return set(_imported(tree)) - _read_names(tree)


def _unserved_modules(paths) -> set:
    """Stems of the modules at paths from which no other of them imports a name it reads."""
    served = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        read = _read_names(tree)
        served |= {src for name, src in _imported(tree).items()
                   if src not in (None, path.stem) and name in read}
    return {p.stem for p in paths} - served


def _environ_reads(path: Path) -> set:
    """Line numbers at which the module at path names os.environ or os.getenv."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRON_READS:
            lines.add(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and ENVIRON_READS & {a.name for a in node.names}):
            lines.add(node.lineno)
    return lines


@pytest.fixture(scope="module")
def patch_sites():
    """(module name, attribute) of every module site in _sites()."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        layers = importlib.import_module("layers")
        return {(owner.__name__, attr)
                for _, owners, _ in layers._sites() for owner, attr in owners
                if isinstance(owner, types.ModuleType)}


def test_every_import_is_used_or_patched(patch_sites):
    unused = {(f"btk.{p.stem}", name) for p in MODULES for name in _unused_imports(p)}
    assert unused == PATCH_ONLY
    assert PATCH_ONLY <= patch_sites


def test_unused_import_check_can_fail(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nimport math\nimport numpy as np\n"
                    "from .basis import kernel, kernel_norm_sq as kns\n\n"
                    "def f(x: np.ndarray):\n    return kernel(x)\n")
    assert _unused_imports(path) == {"math", "kns"}


def test_every_module_serves_another():
    # a module that only __init__'s export or a patch site imports is dead code;
    # the CLI is the entry point, which no module imports
    assert _unserved_modules(MODULES) == {"cli"}


def test_unserved_module_check_can_fail(tmp_path):
    (tmp_path / "a.py").write_text("def f():\n    return 1\n")
    (tmp_path / "b.py").write_text("from .a import f\n\ndef g():\n    return 2\n")
    (tmp_path / "c.py").write_text("from .b import g\n\nx = g()\n")
    # b imports f but never reads it, so a serves no one; nothing imports c
    assert _unserved_modules(sorted(tmp_path.glob("*.py"))) == {"a", "c"}


def test_no_module_reads_the_environment():
    # btk takes its settings from arguments only: no environment knobs
    reads = {p.name: _environ_reads(p) for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_environment_check_can_fail(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nfrom os import getenv as ge\n\n"
                    "def f():\n    return os.environ.get('X'), ge('Y')\n")
    assert _environ_reads(path) == {2, 5}
