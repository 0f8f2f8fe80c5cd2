"""Every demo script runs to completion as a standalone program."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mertens_sums

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(mertens_sums.__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(DEMOS / script)]
    if script == "remainder_sweep.py":
        argv.append(str(tmp_path / "remainder_sweep.csv"))  # keep the tree clean
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if script == "remainder_sweep.py":
        assert (tmp_path / "remainder_sweep.csv").read_text().startswith("k,x,S_k,P_k")
