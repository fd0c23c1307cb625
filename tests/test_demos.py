"""Every demo script runs to completion against the current package, warning nothing."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    # the warning filters pyproject.toml gives pytest
    flags = ("UserWarning", "RuntimeWarning", "DeprecationWarning", "PendingDeprecationWarning",
             "FutureWarning")
    argv = [sys.executable, *(f"-Werror::{w}" for w in flags), str(demo)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
