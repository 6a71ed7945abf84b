"""Every public function and class of the package is used by it or exported.

A public module-level definition in ``src/subsetci`` must be referenced by
library code outside its own body (elsewhere in its module, or from another
module through ``from .module import name`` or ``module.name``), or be listed
in ``subsetci.__all__``.  Code that only tests or benchmarks call belongs in
``tests/`` or ``bench/``.
"""

import ast
import pathlib

import subsetci

PACKAGE = pathlib.Path(subsetci.__file__).parent

# Public names that only callers outside the package use, with the reason.
KEPT = {}


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def _names_used(nodes):
    return {node.id for root in nodes for node in ast.walk(root)
            if isinstance(node, ast.Name)}


def _imported_from(tree, module):
    """Names that ``tree`` takes from the sibling ``module``."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == module):
            out.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == module):
            out.add(node.attr)
    return out


def _unused_public_definitions():
    modules = _modules()
    unused = []
    for module, tree in modules.items():
        elsewhere = set().union(*(_imported_from(other, module)
                                  for name, other in modules.items()
                                  if name != module))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            rest = [other for other in tree.body if other is not node]
            if not (node.name in elsewhere or node.name in _names_used(rest)
                    or node.name in subsetci.__all__):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_definition_is_used_or_exported():
    assert sorted(set(_unused_public_definitions()) - set(KEPT)) == []


def test_kept_names_are_needed():
    # an entry that the package itself uses again, or that no longer
    # exists, is stale
    assert sorted(KEPT) == sorted(set(_unused_public_definitions()) & set(KEPT))
