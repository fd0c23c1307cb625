"""The exactness rule: no BLAS or LAPACK call, and no SIMD-dispatched numpy ufunc
whose rounding varies with the CPU, reaches an output.

Which kernel OpenBLAS picks (``OPENBLAS_CORETYPE`` chooses one per process)
decides how ``@``, ``.dot`` and the other BLAS-backed numpy products round,
and which SIMD level numpy dispatches to (``NPY_DISABLE_CPU_FEATURES`` caps
it per process) decides how ``np.exp``, ``np.log`` and the other ufuncs of
``SIMD_UFUNCS`` round, so an output built from them depends on the CPU.
Outputs are built from Python floats and elementwise numpy in a written
order instead.  The guard walks ``src/ttpsim`` with ``ast`` and fails on any
such construct; the rerun tests run the golden cases, the exact-symmetry tests
and the seed-direction test in child processes under three other BLAS kernels
and two lower numpy SIMD levels.  ``np.sin`` and ``np.cos`` are outside
``SIMD_UFUNCS``: their float64 loops gave libm's numbers at all three levels
(numpy 2.4.6, x86-64), and the seed-direction test, which seeds through them
and compares with ``math``, pins that.  On a host whose BLAS or CPU ignores
the variable, the children still run every case.
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
# numpy float64 ufuncs whose results differ between the X86_V4, X86_V3 and X86_V2 loops
SIMD_UFUNCS = frozenset(("exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "tan", "arcsin",
                         "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh", "cbrt", "power"))
NUMPY = ("np", "numpy")


def _blas_construct(node):
    """What makes ``node`` a BLAS or LAPACK call, or a SIMD-dispatched ufunc, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES:
        return f".{node.attr}"
    if (isinstance(node, ast.Attribute) and node.attr in SIMD_UFUNCS
            and isinstance(node.value, ast.Name) and node.value.id in NUMPY):
        return f"{node.value.id}.{node.attr}"
    if (isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", ""))
            == "einsum" and any(k.arg == "optimize" for k in node.keywords)):
        return "einsum(optimize=...)"
    if isinstance(node, ast.ImportFrom) and (
            "linalg" in (node.module or "") or any(a.name in BLAS_ATTRIBUTES for a in node.names)
            or node.module in NUMPY and any(a.name in SIMD_UFUNCS for a in node.names)):
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


@pytest.mark.parametrize("name", sorted(SIMD_UFUNCS))
def test_the_guard_sees_each_simd_ufunc(name):
    for source in (f"np.{name}(x)", f"numpy.{name}(x)", f"from numpy import {name}",
                   f"from numpy import sqrt, {name} as f"):
        assert len(blas_sites(source)) == 1, source


@pytest.mark.parametrize("name", sorted(SIMD_UFUNCS))
def test_the_guard_passes_the_same_name_outside_numpy(name):
    for source in (f"math.{name}(x)", f"from math import {name}", f"{name}(x)",
                   f"rng.{name}(x)", f"np.random.{name}(x)"):
        assert blas_sites(source) == [], source


def test_no_blas_call_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for scope, line, what in blas_sites(path.read_text(encoding="utf-8")):
            found.append(f"{name}:{line} in {scope or '<module>'}: {what}")
    assert found == []


# --- the outputs under other OpenBLAS kernels and numpy SIMD levels ------------------

RERUN_TESTS = (
    "tests/test_integrate.py::test_symmetry_maps_the_run_bit_for_bit",
    "tests/test_integrate.py::test_quarter_turn_maps_the_ensemble_moments_bit_for_bit",
    "tests/test_ensemble.py::test_seed_directions_are_cos_e1_plus_sin_e2")


# NPY_DISABLE_CPU_FEATURES of each lower numpy SIMD level: every feature above it
SIMD_LEVELS = {"X86_V3": "AVX512_SPR AVX512_ICL X86_V4",
               "X86_V2": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}


@functools.cache
def _outcomes(variable, value):
    """{test id: PASSED, FAILED or ERROR} of the golden and RERUN_TESTS tests with
    the environment variable ``variable`` set to ``value``."""
    env = dict(os.environ, **{variable: value})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "tests/test_golden.py::test_golden_case", *RERUN_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    outcomes = {}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            outcomes[rest.split(" - ")[0]] = word
    return outcomes


def _rerun_cases(settings):
    for setting in settings:
        for name in sorted(CASES):
            yield pytest.param(setting, f"tests/test_golden.py::test_golden_case[{name}]",
                               id=f"{setting}-{name}")
        for test in RERUN_TESTS:
            yield pytest.param(setting, test, id=f"{setting}-{test.rpartition('::')[2]}")


def _assert_passed(variable, value, test):
    # a golden id names one case; a RERUN_TESTS name covers each of its cases
    got = {k: v for k, v in _outcomes(variable, value).items()
           if k == test or k.startswith(test + "[")}
    assert got and set(got.values()) == {"PASSED"}, got


@pytest.mark.parametrize("kernel, test", _rerun_cases(("Haswell", "Nehalem", "Prescott")))
def test_outputs_do_not_depend_on_the_blas_kernel(kernel, test):
    _assert_passed("OPENBLAS_CORETYPE", kernel, test)


@pytest.mark.parametrize("level, test", _rerun_cases(SIMD_LEVELS))
def test_outputs_do_not_depend_on_the_numpy_simd_level(level, test):
    _assert_passed("NPY_DISABLE_CPU_FEATURES", SIMD_LEVELS[level], test)
