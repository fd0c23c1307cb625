"""Golden-output cases for the command-line interface.

Each directory beside this file is one case: ``run.cfg`` (with ``{out}``
and, for gridded fields, ``{grid}`` filled in at run time) plus every file
the CLI wrote for it.  ``tests/test_golden.py`` reruns each case through
``ttpsim.cli.main`` and compares the outputs byte for byte.  After an
intended change to the numbers, rewrite the outputs with

    PYTHONPATH=src python tests/golden/regenerate.py [CASE ...]

(every case when none is named) and record in CHANGES.md which files moved
and by how much.
"""

import contextlib
import io
import math
import os
import sys
import tempfile

import numpy as np

from ttpsim import TaylorGreenField, write_grid
from ttpsim.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = "run.cfg"

# case directory -> (subcommand, extra arguments)
CASES = {
    "simulate_uniform": ("simulate", []),
    "simulate_uniform_gradient": ("simulate", []),
    "simulate_rigid_rotation": ("simulate", []),
    # a non-tangent n0 projected onto the isobaric cylinder before the run
    "simulate_rigid_rotation_projected": ("simulate", []),
    "simulate_taylor_green": ("simulate", []),
    "simulate_lamb_oseen": ("simulate", []),
    "simulate_grid": ("simulate", []),
    # the same grid, trilinear: the path crosses a y face, where grad p1hat jumps
    "simulate_grid_trilinear": ("simulate", []),
    "ensemble_lamb_oseen": ("ensemble", []),
    # every particle leaves the domain before t_end: the stats stop with a reason
    "ensemble_uniform_gradient_stopped": ("ensemble", []),
    # some particles leave the domain, the rest reach t_end
    "ensemble_uniform_gradient_partial": ("ensemble", []),
    # rk4_naive with a huge step: the state stops being finite after 3 steps
    "simulate_taylor_green_non_finite": ("simulate", []),
    # the tricubic interpolant of a narrow pressure ridge dips below zero mid-run
    "simulate_grid_negative_pressure": ("simulate", []),
    "verify_rigid_rotation": ("verify", ["--points", "50", "--seed", "3"]),
    # time-dependent, with a Hessian that varies in space
    "verify_taylor_green": ("verify", ["--points", "50", "--seed", "3"]),
    # no gradient anywhere: the pointwise studies skip or keep no point, and the
    # position errors sit at the rounding floor
    "verify_uniform": ("verify", ["--points", "20", "--seed", "3"]),
}


def write_taylor_green_grid(path):
    """8^3 grid of steady Taylor-Green spanning one period per axis."""
    h = 2.0 * math.pi / 7.0
    write_grid(path, TaylorGreenField(), (0.0, 0.0, 0.0), (h, h, h), (8, 8, 8))


def write_ridge_grid(path):
    """12^3 nodes on the unit cube: V = x_hat, p1hat = 1e-3 + exp(-((x - 0.5)/0.06)^2) + 0.01 y.

    The ridge of ``test_negative_pressure_mid_run_terminates_early``, as a
    TTPGRID file with 17 significant digits.
    """
    x = np.linspace(0.0, 1.0, 12)
    Z, Y, X = np.meshgrid(x, x, x, indexing="ij")  # raveled, x runs fastest
    p1 = 1e-3 + np.exp(-((X - 0.5) / 0.06) ** 2) + 0.01 * Y
    h = format(x[1] - x[0], ".17g")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"TTPGRID 1\ndims 12 12 12\norigin 0 0 0\nspacing {h} {h} {h}\n"
                 "fields V p1hat\n")
        ones, zeros = np.ones(p1.size), np.zeros(p1.size)
        np.savetxt(fh, np.column_stack((ones, zeros, zeros, p1.ravel())), fmt="%.17g")


# case directory -> writer of its grid file, for configs with a {grid} placeholder
GRIDS = {"simulate_grid": write_taylor_green_grid,
         "simulate_grid_trilinear": write_taylor_green_grid,
         "simulate_grid_negative_pressure": write_ridge_grid}


def run_case(name, workdir):
    """Run one case inside workdir; return {output file name: bytes}."""
    command, extra = CASES[name]
    out = os.path.join(workdir, "out")
    grid = os.path.join(workdir, "case.grid")
    with open(os.path.join(HERE, name, CONFIG), encoding="ascii") as fh:
        template = fh.read()
    if "{grid}" in template:
        GRIDS[name](grid)
    cfg = os.path.join(workdir, CONFIG)
    with open(cfg, "w", encoding="ascii") as fh:
        fh.write(template.format(out=out, grid=grid))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, cfg, *extra])
    if code != 0:
        raise RuntimeError(f"golden case {name} exited with code {code}")
    return {f: _read(os.path.join(out, f)) for f in sorted(os.listdir(out))}


def expected(name):
    """{output file name: bytes} as committed for one case."""
    d = os.path.join(HERE, name)
    return {f: _read(os.path.join(d, f)) for f in sorted(os.listdir(d)) if f != CONFIG}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def regenerate(names):
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(name, tmp)
        d = os.path.join(HERE, name)
        for f in expected(name):
            os.remove(os.path.join(d, f))
        for f, data in outputs.items():
            with open(os.path.join(d, f), "wb") as fh:
                fh.write(data)
        print(f"{name}: {', '.join(outputs)}")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or CASES)
