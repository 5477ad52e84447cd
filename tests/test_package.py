"""Every public name of the package is defined and used.

A name that ``brillouin/__init__`` imports, or that a module lists in
``__all__``, stays in the package only if something uses it: another
function of the package, an acceptance criterion or a planned ROADMAP
item.  A name only the other tests call belongs in ``tests/oracles.py``.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brillouin"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

#: names no command reaches yet, each with the ROADMAP item that plans its use
PLANNED = {
    "analyticity_probe": "item 6: the planet's swept measure, probed at the peak",
    "ProbeReport": "item 6: the probe's report",
    "gaussian_window": "item 20: the Fourier-space limit of the paper's abstract",
    "oscillatory_J": "item 9: the peak-local grid",
    "potential_direct": "item 9: the peak-local grid",
}


def _exported(tree):
    """The ``__all__`` list of a parsed module, empty without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _reads(node):
    """The names read under ``node``, as a bare name or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def test_every_public_name_is_defined_and_used():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    public = {(alias.asname or alias.name, "brillouin") for node in modules["__init__"].body
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    public |= {(name, f"brillouin.{module}") for module, tree in modules.items()
               for name in _exported(tree)}
    # each top-level statement of the package outside __init__, with the
    # name it defines (a use inside a name's own definition does not count)
    statements = [(getattr(node, "name", None), _reads(node))
                  for module, tree in modules.items() if module != "__init__"
                  for node in tree.body]
    acceptance = _reads(ast.parse(ACCEPTANCE.read_text()))

    undefined, unused = [], []
    for name, module in sorted(public):
        if not hasattr(importlib.import_module(module), name):
            undefined.append(f"{module}.{name}")
        if not (name in PLANNED or name in acceptance
                or any(name in reads for defines, reads in statements if defines != name)):
            unused.append(f"{module}.{name}")
    assert not undefined, f"exported but not defined: {undefined}"
    assert not unused, (f"used by no package function, no acceptance criterion and no PLANNED "
                        f"item (move each to tests/oracles.py or delete it): {unused}")
