"""Self-test of the benchmark on a tiny configuration.

Usage: python3 geobench/selftest.py

Runs every workload of workloads.TINY untraced and traced, and checks that
  - each result names exactly the metrics of BENCHMARK.json, with their units;
  - the zero predictions hold: no Herglotz evaluations and no flow work on
    count-mix, no counting and no flow work on measure-scan;
  - the layer self times of each traced sample sum to its invocation time;
  - the probes lower ok_share without counting as failed operations;
and that run.py prints no result and exits non-zero when the geocount
sources are missing.  Exits 1 on the first failed check.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
from workloads import TINY

FLOW_WORK = ("flow.geodesic_steps", "flow.jacobi_steps", "flow.eval_at_calls",
             "flow.geodesic_s", "flow.jacobi_s")
ZERO = {"count-mix": ("herglotz.eval_calls",) + FLOW_WORK,
        "measure-scan": ("counting.dir_steps", "counting.curve_s") + FLOW_WORK}
NONZERO = {"count-mix": ("counting.dir_steps", "manifolds.quad_nodes"),
           "measure-scan": ("herglotz.eval_calls", "herglotz.stieltjes_evals"),
           "verify-mix": ("flow.geodesic_steps", "flow.errors", "verify.checks")}


def expect(ok: bool, what: str):
    if not ok:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok  {what}")


def run_tiny(name: str, trace: int) -> dict:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace)], TINY)
    expect(code == 0, f"{name} trace={trace} exits 0")
    return json.loads(text.getvalue().strip().splitlines()[-1])


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in TINY:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(name, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace} names the {section} metrics and units")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace} outputs pass their gates")
            detail = json.loads((run.OUT / f"{name}-seed5-trace{trace}.json").read_text())
            if trace == 0:
                probes = len(TINY[name]["probes"])
                share = len(TINY[name]["timed"]) / (len(TINY[name]["timed"]) + probes)
                expect(abs(result["metrics"]["ok_share"]["value"] - share) < 1e-12,
                       f"{name} ok_share is {share:.4f}")
                continue
            layers = detail["layers"]
            values = dict(layers["metrics"], **{"herglotz.stieltjes_evals":
                                                min(layers["stieltjes_evals"])})
            for key in ZERO.get(name, ()):
                expect(values[key] == 0, f"{name} {key} is 0")
            for key in NONZERO[name]:
                expect(values[key] > 0, f"{name} {key} is positive")
            expect(max(layers["self_sum_gap"]) < 0.01,
                   f"{name} layer self times sum to the invocation time "
                   f"(gap {max(layers['self_sum_gap']):.2e})")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                           "count-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without geocount sources run.py exits non-zero and prints no result")


if __name__ == "__main__":
    main()
