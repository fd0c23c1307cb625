"""Workload inputs, generated from the seed before any timing starts.

Each workload is one ttpsim CLI job: a config file (and, for ``grid``, a
TTPGRID file written here with numpy, not with ttpsim) plus the argv that
``ttpsim.cli.main`` receives.  The same seed gives byte-identical inputs.
"""

import math
import os
import random

import numpy as np

NAMES = ("trajectory", "ensemble", "grid", "verify")

# "full" is what BENCHMARK.json measures; "tiny" is for the smoke test.  Jobs
# are kept short (0.1-0.6 s) so that a run holds many of them and the median
# over its jobs is steady.
SIZES = {
    "full": {
        "trajectory": {"steps": 2000},
        "ensemble": {"count": 1024, "steps": 10, "stride": 10},
        "grid": {"nodes": 24, "steps": 100},
        "verify": {"points": 1000, "steps": 500},
    },
    "tiny": {
        "trajectory": {"steps": 300},
        "ensemble": {"count": 16, "steps": 10, "stride": 5},
        "grid": {"nodes": 8, "steps": 60},
        "verify": {"points": 40, "steps": 500},
    },
}

TWO_PI = 2.0 * math.pi
BETA = 0.5


def taylor_green(x, y, z):
    """Closed-form steady Taylor-Green (A = k = p0 = 1): V, p1hat, grad p1hat.

    This is the harness's own oracle; it does not call ttpsim.
    """
    V = np.stack((np.sin(x) * np.cos(y) * np.cos(z), -np.cos(x) * np.sin(y) * np.cos(z),
                  np.zeros_like(x * y * z)), axis=-1)
    czz = np.cos(2 * z) + 2.0
    cxy = np.cos(2 * x) + np.cos(2 * y)
    p1 = 1.0 + (czz * cxy - 2.0) / 16.0
    grad = np.stack((-np.sin(2 * x) * czz, -np.sin(2 * y) * czz, -np.sin(2 * z) * cxy),
                    axis=-1) / 8.0
    return V, p1, grad


def _tg_point(rng, lo, hi):
    """A point in [lo, hi)^3 where the pressure gradient is well away from 0."""
    while True:
        r = [lo + (hi - lo) * rng.random() for _ in range(3)]
        _, _, g = taylor_green(*(np.float64(c) for c in r))
        if float(np.linalg.norm(g)) > 0.05:
            return r


def _vec(v):
    return " ".join(repr(float(c)) for c in v)


def write_tg_grid(path, nodes):
    """Steady Taylor-Green on nodes^3 points over [0, 2 pi]^3, TTPGRID 1 format."""
    h = TWO_PI / (nodes - 1)
    ax = np.arange(nodes) * h
    # file order is x fastest, then y, then z
    Z, Y, X = np.meshgrid(ax, ax, ax, indexing="ij")
    V, p1, _ = taylor_green(X, Y, Z)
    table = np.column_stack((V.reshape(-1, 3), p1.reshape(-1)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"TTPGRID 1\ndims {nodes} {nodes} {nodes}\norigin 0 0 0\n"
                 f"spacing {h!r} {h!r} {h!r}\nfields V p1hat\n")
        np.savetxt(fh, table, fmt="%.17g")


def generate(name, seed, size, workdir):
    """Write the inputs of one workload under ``workdir``; return its job spec.

    The spec holds the CLI argv, the output directory and what the gates
    expect (horizon, step count, particle count, seed point).
    """
    sz = SIZES[size][name]
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "out")
    cfg = os.path.join(workdir, "run.cfg")
    spec = {"workload": name, "seed": seed, "size": size, "outdir": out,
            "beta": BETA, "t0": 0.0}

    if name == "trajectory":
        dt = 1e-3
        r0 = _tg_point(rng, 0.0, TWO_PI)
        field = "name = taylor_green\nnu = 0.13"
        argv = ["simulate", cfg]
    elif name == "grid":
        dt = 1e-3
        # |V + u| <= 1.9 here, so the horizon below keeps the path inside the grid
        r0 = _tg_point(rng, math.pi - 1.2, math.pi + 1.2)
        grid = os.path.join(workdir, f"tg{sz['nodes']}.ttpgrid")
        write_tg_grid(grid, sz["nodes"])
        field = f"grid = {grid}\ninterpolation = tricubic"
        argv = ["simulate", cfg]
    elif name == "ensemble":
        dt = 1e-2
        r0 = _tg_point(rng, 0.0, TWO_PI)
        field = "name = taylor_green"
        argv = ["ensemble", cfg]
        spec.update(count=sz["count"], stride=sz["stride"])
    elif name == "verify":
        dt = 2e-3
        R = 0.6 + 0.8 * rng.random()
        th = TWO_PI * rng.random()
        r0 = [R * math.cos(th), R * math.sin(th), rng.random() - 0.5]
        field = "name = rigid_rotation"
        spec["beta"] = 1.0
        # ttpsim seeds numpy's generator, which takes no negative seed
        argv = ["verify", cfg, "--points", str(sz["points"]), "--seed", str(seed % 2**32)]
        spec["points"] = sz["points"]
    else:
        raise ValueError(f"unknown workload {name!r}")

    t_end = sz["steps"] * dt
    text = [f"[field]\n{field}\n",
            f"[particle]\nr0 = {_vec(r0)}\nbeta = {spec['beta']!r}\n"
            + ("" if name == "ensemble" else "auto_tangent = true\n"),
            f"[integrator]\ndt = {dt!r}\nt_end = {t_end!r}\n"]
    if name == "ensemble":
        text.append(f"[ensemble]\ncount = {sz['count']}\nsampling = equispaced_circle\n")
    text.append(f"[output]\ndirectory = {out}\n"
                + (f"stride = {sz['stride']}\n" if name == "ensemble" else ""))
    with open(cfg, "w", encoding="ascii") as fh:
        fh.write("\n".join(text))
    spec.update(argv=argv, r0=[float(c) for c in r0], dt=dt, t_end=t_end,
                steps=sz["steps"])
    return spec
