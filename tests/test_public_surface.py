"""Every public function and class of the package is used by it or exported.

A public module-level definition in ``src/subsetci`` must be referenced by
library code outside its own body (elsewhere in its module, or from another
module through ``from .module import name`` or ``module.name``), or be listed
in ``subsetci.__all__``.  Code that only tests or benchmarks call belongs in
``tests/`` or ``bench/``.

The benchmark scripts call the library too: every name they take from it must
exist, or every benchmark run fails.
"""

import ast
import importlib
import pathlib

import subsetci

PACKAGE = pathlib.Path(subsetci.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

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


def _bench_contract():
    """Every dotted name the benchmark scripts take from ``subsetci``: each
    imported module or name, and each attribute read from one of them."""
    wanted = set()
    for script in ("run.py", "record_reference.py"):
        tree = ast.parse((BENCH / script).read_text())
        local = {}  # the name an import binds -> the dotted name it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                local.update((alias.asname or alias.name, alias.name)
                             for alias in node.names
                             if alias.name.split(".")[0] == "subsetci")
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "subsetci"):
                local.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                             for alias in node.names)
        wanted.update(local.values())
        wanted.update(f"{local[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id in local)
    return wanted


def _lookup(dotted):
    """The module or attribute named ``dotted``, or None where it is missing."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        owner, _, attr = dotted.rpartition(".")
        return getattr(_lookup(owner), attr, None) if owner else None


def test_every_name_the_benchmark_takes_exists():
    contract = _bench_contract()
    # the oracle's single-target path and the replication clock are read
    assert {"subsetci.geometry.selection_event", "subsetci.harness.rep_stream",
            "subsetci.truncnorm.truncated_cdf"} <= contract
    assert sorted(name for name in contract if _lookup(name) is None) == []
