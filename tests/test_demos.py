import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "measure_recovery":
        # the user-built profile phi = i p has no atoms, only continuous mass
        assert "continuous part flagged = True" in proc.stdout


def test_readme_typical_session_runs():
    # the README's example runs against the current API and gives what its
    # comments say: 4 pi, and atoms at 0, pi and 2 pi
    readme = (ROOT / "README.md").read_text()
    block = readme.split("A typical session:", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    assert abs(names["total"] - 4 * math.pi) <= 1e-6 * 4 * math.pi
    atoms = np.array([t for t, _ in names["fd"].atoms])
    assert atoms.shape == (3,)
    assert np.max(np.abs(atoms - [0.0, math.pi, 2 * math.pi])) <= 1e-4
