"""Every public function, class and method of the library has a caller.

The library holds no code that only tests call: each public module-level
function or class of ``src/pancha``, and each public method of such a
class, must be used by name somewhere in ``src/`` or ``perfbench/``
outside its own definition.  ``__init__.py`` only re-exports, and an
import is not a use, so neither counts.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pancha"


def _public_definitions(tree):
    """(name, node) for every public module-level def or class and every
    public method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def _uses(tree):
    """(identifier, is_attribute, line) for every name read and every
    attribute accessed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, node.lineno


def _sources():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return {path: ast.parse(path.read_text(), str(path))
            for path in files if path.name != "__init__.py"}


def test_every_public_name_has_a_caller():
    sources = _sources()
    uses = {path: list(_uses(tree)) for path, tree in sources.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualified, node in _public_definitions(sources[path]):
            method = "." in qualified  # reached only as an attribute
            name = qualified.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ident == name and (attr or not method)
                       and not (where == path and line in own)
                       for where, found in uses.items()
                       for ident, attr, line in found):
                unused.append(f"{path.stem}.{qualified}")
    assert not unused, f"public names nothing in src/ or perfbench/ uses: {unused}"
