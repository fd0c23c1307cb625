"""The layer order of ttpsim's modules: every import points down, and none hides in a body.

The package is built in the paper's order: errors, the field-provider
contract, the providers, the phase-space law (kinetics), trajectories
(integrate), ensembles and verification, the CLI, and the package itself.
The guard walks ``src/ttpsim`` with ``ast``.  It fails on an import inside a
function or class body, and on an import whose target does not rank strictly
below the importer, so modules of one layer may not import each other.  A
strict order over module-level imports leaves no import cycle.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ttpsim"

# lowest first; "" is the package __init__
LAYERS = (("errors",), ("fields",), ("fields.analytic", "fields.grid"), ("kinetics",),
          ("integrate",), ("ensemble", "verify"), ("cli",), ("",))
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}
BODIES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _targets(node, package, modules):
    """The ttpsim modules that one import statement names, relative to the package."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.level == 0:
        names = [node.module]
    else:
        base = package.split(".") if package else []
        base = base[:len(base) - node.level + 1]
        if node.module:
            base += node.module.split(".")
        prefix = ".".join(base)
        # "from . import verify" names the module verify; "from . import FieldProvider" the package
        return [t if t in modules else prefix
                for t in (".".join(base + [a.name]) for a in node.names)]
    return [n.removeprefix("ttpsim").lstrip(".") for n in names
            if n == "ttpsim" or n.startswith("ttpsim.")]


def layer_violations(src):
    """One line per import in ``src`` that is inside a body or does not point down."""
    files = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    faults = []
    for module, path in files.items():
        tree = ast.parse(path.read_text(), str(path))
        nested = {id(n) for body in ast.walk(tree) if isinstance(body, BODIES)
                  for n in ast.walk(body) if isinstance(n, (ast.Import, ast.ImportFrom))}
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            why = ["inside a function or class body"] if id(node) in nested else []
            for target in _targets(node, package, files):
                if module not in RANK or target not in RANK:
                    why.append(f"{module or 'ttpsim'} -> {target or 'ttpsim'} is outside LAYERS")
                elif RANK[target] >= RANK[module]:
                    why.append(f"{module or 'ttpsim'} -> {target or 'ttpsim'} does not point down")
            if why:
                faults.append(f"{path.relative_to(src)}:{node.lineno}: {'; '.join(why)}")
    return faults


def test_imports_follow_the_layer_order():
    assert layer_violations(SRC) == []
