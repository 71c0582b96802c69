"""Modules of the package reach one another only through public names.

Every module under ``src/gptest`` is parsed with ``ast``; a module fails
if it imports a leading-underscore name from another package module
(``from .mod import _name``) or reads one off an imported package module
(``mod._name``).  Dunder names such as ``__version__`` are public.
"""

import ast
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
