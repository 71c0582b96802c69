"""Modules of the package reach one another only through public names,
every module-level name is used, and numpy is the only third-party
package that importing gptest loads.

Every module under ``src/gptest`` is parsed with ``ast``; a module fails
if it imports a leading-underscore name from another package module
(``from .mod import _name``) or reads one off an imported package module
(``mod._name``).  Dunder names such as ``__version__`` are public.  The
package fails if a module-level function, class or constant is read
nowhere in the package outside its own definition and is not exported
in ``gptest.__all__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gptest"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    """'a.b.c' for a chain of attribute reads on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def private_uses(source: str) -> list[str]:
    """Cross-module uses of private package names in one module's source."""
    tree = ast.parse(source)
    modules = set()  # names under which package modules are bound
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "gptest":
                continue
            origin = "." * node.level + (node.module or "")
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: from {origin} import {alias.name}")
                elif node.module in (None, "gptest"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "gptest":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if _dotted(node.value) in modules:
                found.append(f"line {node.lineno}: {_dotted(node)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_names_across_modules(path):
    assert private_uses(path.read_text()) == []


def test_package_found():
    assert {"engine", "nuisance", "scores"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize(
    "source",
    [
        "from .nuisance import crossfit, _with_intercept\n",
        "from gptest.scores import _need\n",
        "from . import scores as sc\nsc._clip_prob(p, 0.1)\n",
        "from gptest import scores\nscores._need(e, 'h')\n",
        "import gptest.scores\ngptest.scores._need(e, 'h')\n",
    ],
    ids=["relative-import", "absolute-import", "alias-attribute", "module-attribute",
         "dotted-attribute"],
)
def test_detector_flags_private_use(source):
    assert len(private_uses(source)) == 1


@pytest.mark.parametrize(
    "source",
    [
        "from .nuisance import crossfit, with_intercept\n",
        "from . import scores as sc\nsc.evaluate_score(d, e, s)\n",
        "from dataclasses import _MISSING_TYPE\n",
        "import numpy as np\nnp._NoValue\n",
        "from . import __version__\n",
        "class A:\n    def f(self):\n        return self._x\n",
    ],
    ids=["public-import", "public-attribute", "other-package-import",
         "other-package-attribute", "dunder", "own-attribute"],
)
def test_detector_allows_public_and_local_use(source):
    assert private_uses(source) == []


def _definitions(tree):
    """(name, statement) for each function, class and constant a module
    defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _reads(statement) -> set[str]:
    """Every name a statement reads, as a plain name or as an attribute."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced_names(sources: dict[str, str]) -> list[str]:
    """'module.name' for each top-level definition in ``sources`` (module
    stem to source, ``__init__`` included) that no other top-level
    statement reads and ``__init__.__all__`` does not list."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    exported = set()
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    reads = [(statement, _reads(statement)) for tree in trees.values() for statement in tree.body]
    found = []
    for module, tree in trees.items():
        defined = {}
        for name, statement in _definitions(tree):
            defined.setdefault(name, []).append(statement)
        for name, own in defined.items():
            if name in exported or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(name in names for statement, names in reads if statement not in own):
                found.append(f"{module}.{name}")
    return sorted(found)


def test_every_module_level_name_is_used():
    assert unreferenced_names({path.stem: path.read_text() for path in MODULES}) == []


def test_detector_flags_unused_names():
    sources = {
        "__init__": "from .m import f\n__all__ = ['f']\n__version__ = '0'\n",
        "m": "def f():\n    return h\n\ndef g():\n    return g()\n\nX, h = 1, 2\n",
    }
    assert unreferenced_names(sources) == ["m.X", "m.g"]


def test_import_loads_no_scipy():
    """``import gptest, gptest.cli`` in a fresh interpreter loads no scipy
    module: numpy is the only runtime dependency."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    probe = ("import sys, gptest, gptest.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
