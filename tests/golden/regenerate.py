"""Golden-output cases for the command-line interface.

Each directory beside this file is one case: ``run.cfg`` (with ``{out}``
and, for gridded fields, ``{grid}`` filled in at run time) plus every file
the CLI wrote for it.  ``tests/test_golden.py`` reruns each case through
``ttpsim.cli.main`` and compares the outputs byte for byte.  After an
intended change to the numbers, rewrite the outputs with

    PYTHONPATH=src python tests/golden/regenerate.py

and record in CHANGES.md which files moved and by how much.
"""

import contextlib
import io
import math
import os
import tempfile

from ttpsim import TaylorGreenField, write_grid
from ttpsim.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = "run.cfg"

# case directory -> (subcommand, extra arguments)
CASES = {
    "simulate_uniform": ("simulate", []),
    "simulate_uniform_gradient": ("simulate", []),
    "simulate_rigid_rotation": ("simulate", []),
    "simulate_taylor_green": ("simulate", []),
    "simulate_lamb_oseen": ("simulate", []),
    "simulate_grid": ("simulate", []),
    "ensemble_lamb_oseen": ("ensemble", []),
    "verify_rigid_rotation": ("verify", ["--points", "50", "--seed", "3"]),
}


def write_case_grid(path):
    """8^3 grid of steady Taylor-Green spanning one period per axis."""
    h = 2.0 * math.pi / 7.0
    write_grid(path, TaylorGreenField(), (0.0, 0.0, 0.0), (h, h, h), (8, 8, 8))


def run_case(name, workdir):
    """Run one case inside workdir; return {output file name: bytes}."""
    command, extra = CASES[name]
    out = os.path.join(workdir, "out")
    grid = os.path.join(workdir, "case.grid")
    with open(os.path.join(HERE, name, CONFIG), encoding="ascii") as fh:
        template = fh.read()
    if "{grid}" in template:
        write_case_grid(grid)
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


def regenerate():
    for name in CASES:
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
    regenerate()
