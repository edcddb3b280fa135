"""Smoke test of the benchmark's traced sample child, geobench/child.py.

A traced sample installs the tracer over geocount's modules by name, so a
renamed or retyped function the tracer wraps, a work counter that is not a
plain int (the record is JSON) or a missing import makes the child die, and
the benchmark run fail.  Here the child runs one tiny traced invocation of each
subcommand in a subprocess, as the benchmark runs it, and verify on a flat
torus and a warped product, so that every hook of the tracer is reached.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INVOCATIONS = [
    ["count", "--kind", "constant_curvature", "--c", "1", "--n", "3",
     "--T", "1:2:4", "--quad-order", "4"],
    ["herglotz", "--c", "0", "--n", "3"],
    ["verify", "--c", "1", "--n", "3"],
    ["gromov", "--c", "1", "--n", "3", "--K", "2", "--quad-order", "4"],
    ["growth", "--kind", "flat_torus", "--n", "2", "--basis", "1 0; 0 1",
     "--T", "1:10:10", "--quad-order", "8"],
    ["verify", "--kind", "flat_torus", "--n", "2", "--basis", "1 0; 0 1"],
    ["verify", "--kind", "warped_product", "--warp", "cosh", "--n", "3"],
]


def test_traced_child_runs_every_layer(tmp_path):
    record_path = tmp_path / "record.json"
    job = {"invocations": INVOCATIONS, "seed": 0, "trace": True,
           "work_dir": str(tmp_path), "record": str(record_path), "spans": None}
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "geobench" / "child.py"), str(job_path)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
    record = json.loads(record_path.read_text())
    assert len(record["runs"]) == len(INVOCATIONS)
    for argv, run in zip(INVOCATIONS, record["runs"]):
        assert run["crash"] is None, (argv, run["crash"])
        assert run["code"] == 0, argv
        assert run["problems"] == [], argv
        assert run["trace"]["self_s"]["cli.self_s"] > 0.0, argv
    counts = [run["trace"]["counts"] for run in record["runs"]]
    assert counts[0]["counting.dir_steps"] > 0
    assert counts[1]["herglotz.eval_calls"] > 0
    assert counts[2]["verify.checks"] > 0
    assert counts[2]["manifolds.quad_nodes"] > 0
    assert record["runs"][4]["trace"]["self_s"]["counting.growth_s"] > 0.0
    # the lattice oracle's hook, and propagate_jacobi's and the curvature
    # profile's off constant curvature
    assert counts[5]["counting.oracle_samples"] > 0
    for run_counts in counts[5:]:
        assert run_counts["flow.jacobi_steps"] > 0
        assert run_counts["manifolds.profile_calls"] > 0
