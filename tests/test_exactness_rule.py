"""The exactness rule: no BLAS or LAPACK call reaches an output.

Which kernel OpenBLAS picks (``OPENBLAS_CORETYPE`` chooses one per process)
decides how ``@``, ``.dot`` and the other BLAS-backed numpy products round,
so an output built from them depends on the CPU.  Outputs are built from
Python floats and elementwise numpy in a written order instead.  The guard
walks ``src/ttpsim`` with ``ast`` and fails on any BLAS-backed construct;
the kernel test reruns the golden cases and the exact-symmetry tests in
child processes under three other kernels.  On a host whose BLAS ignores the
variable, the children still run every case.
"""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.regenerate import CASES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ttpsim"

# attributes whose numpy function, or array method, calls BLAS or LAPACK
BLAS_ATTRIBUTES = frozenset(("dot", "vdot", "vecdot", "matmul", "matvec", "vecmat", "linalg",
                             "polyfit", "tensordot", "inner", "cov", "corrcoef"))


def _blas_construct(node):
    """What makes ``node`` a BLAS or LAPACK call, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES:
        return f".{node.attr}"
    if (isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", ""))
            == "einsum" and any(k.arg == "optimize" for k in node.keywords)):
        return "einsum(optimize=...)"
    if isinstance(node, ast.ImportFrom) and (
            "linalg" in (node.module or "") or any(a.name in BLAS_ATTRIBUTES for a in node.names)):
        return f"from {node.module} import"
    return None


def blas_sites(source):
    """(enclosing class and function, line, construct) of each BLAS-bound construct in source."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if what := _blas_construct(child):
                found.append((".".join(scope), child.lineno, what))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


@pytest.mark.parametrize("source", [
    "a @ b", "a @= b", "x.dot(y)", "np.dot(x, y)", "np.vecdot(a, b)", "np.matmul(a, b)",
    "np.linalg.norm(v)", "np.polyfit(x, y, 1)", "np.tensordot(a, b)", "np.inner(a, b)",
    "np.einsum('ij,j', a, b, optimize=True)", "from numpy.linalg import norm",
    "from numpy import dot", "np.vdot(a, b)", "np.cov(x)", "np.corrcoef(x)",
    "np.matvec(A, x)", "np.vecmat(x, A)", "from numpy import cov"])
def test_the_guard_sees_each_blas_construct(source):
    assert len(blas_sites(f"class K:\n    def f(self):\n        {source}\n")) == 1


@pytest.mark.parametrize("source", ["np.einsum('ij,j', a, b)", "a * b", "dot3(a, b)",
                                    "cross(a, b)", "c.sum()", "np.sqrt(v)"])
def test_the_guard_passes_elementwise_code(source):
    assert blas_sites(source) == []


def test_no_blas_call_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for scope, line, what in blas_sites(path.read_text(encoding="utf-8")):
            found.append(f"{name}:{line} in {scope or '<module>'}: {what}")
    assert found == []


# --- the outputs under other OpenBLAS kernels -----------------------------------

SYMMETRY_TESTS = tuple(
    f"tests/test_integrate.py::{name}" for name in (
        "test_symmetry_maps_the_run_bit_for_bit",
        "test_quarter_turn_maps_the_ensemble_moments_bit_for_bit"))


@functools.cache
def _outcomes(kernel):
    """{test id: PASSED, FAILED or ERROR} of the golden and symmetry tests under ``kernel``."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "tests/test_golden.py::test_golden_case", *SYMMETRY_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    outcomes = {}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            outcomes[rest.split(" - ")[0]] = word
    return outcomes


def _kernel_cases():
    for kernel in ("Haswell", "Nehalem", "Prescott"):
        for name in sorted(CASES):
            yield pytest.param(kernel, f"tests/test_golden.py::test_golden_case[{name}]",
                               id=f"{kernel}-{name}")
        for test in SYMMETRY_TESTS:
            yield pytest.param(kernel, test, id=f"{kernel}-{test.rpartition('::')[2]}")


@pytest.mark.parametrize("kernel, test", _kernel_cases())
def test_outputs_do_not_depend_on_the_blas_kernel(kernel, test):
    # a golden id names one case; a symmetry test name covers each of its cases
    got = {k: v for k, v in _outcomes(kernel).items() if k == test or k.startswith(test + "[")}
    assert got and set(got.values()) == {"PASSED"}, got
