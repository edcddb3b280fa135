"""Calibrated benchmark of the geocount command line.

Usage:
    python3 geobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one client: one child interpreter at a time, BLAS
and OpenMP pools pinned to one thread.  A sample is a fresh child that
imports geocount.cli from the checkout's src/ and runs the workload's
invocations (workloads.py) in order, each with ``--seed N`` and a fresh
``--out`` directory; no state carries over between samples.  Samples start
until S seconds have passed, and at least MIN_SAMPLES run.

Every invocation is timed between two runs of the calibration kernel
(kernel.py); its calibrated time is wall / mean(kernel before, after) *
kernel.REFERENCE_S, i.e. seconds at the reference machine's speed.  Raw
seconds are kept in the detail record, not reported as metrics.

End-to-end metrics (--trace 0), from untraced samples:
    wall_ref_s   sum over timed invocations of the median calibrated time
    setup_s      median calibrated time from spawning a child until
                 geocount.cli is imported (at least MIN_SETUPS per run)
    peak_rss_mb  median over samples of the child's peak RSS
    ok_share     invocations that exit 0, pass their output gate (gates.py)
                 and write the same bytes as in the run's first sample,
                 divided by invocations attempted (probes included)

Per-layer metrics (--trace 1) come from traced samples that alternate with
untraced ones (tracing.py); self times use the same calibration.

``attempted`` counts invocations over all samples.  ``failed`` counts timed
invocations that are not ok, and probes that crash, exit with an
undocumented code, or write wrong or unrepeatable output; a probe that exits
with its documented failure code (3 or 4) lowers ok_share but is not a
failed operation.  ``correct`` is true when nothing failed.

The last stdout line is the result JSON; the detail record (per-invocation
raw and calibrated medians, IQRs, tails and sample counts, the kernel's own
spread, gate problems and provenance) goes to geobench/out/.
"""

import os

PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                              "NUMEXPR_NUM_THREADS")}
os.environ.update(PIN)  # before numpy loads, here and in every child

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import kernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
MIN_SAMPLES = 4
MIN_SETUPS = 9
CHILD_TIMEOUT_S = 120
DOCUMENTED_EXIT = (0, 2, 3, 4)

E2E_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "ok_share": "ratio"}
LAYER_UNITS = {
    "counting.curve_s": "s", "counting.dir_steps": "count",
    "counting.ns_per_dir_step": "ns", "counting.growth_s": "s",
    "counting.errors": "count", "counting.oracle_s": "s",
    "counting.oracle_samples": "count",
    "herglotz.stieltjes_s": "s", "herglotz.eval_calls": "count",
    "herglotz.ns_per_eval": "ns", "herglotz.checks_s": "s",
    "herglotz.errors": "count",
    "flow.geodesic_s": "s", "flow.geodesic_steps": "count", "flow.jacobi_s": "s",
    "flow.jacobi_steps": "count", "flow.ns_per_jacobi_step": "ns",
    "flow.eval_at_calls": "count", "flow.errors": "count",
    "manifolds.quadrature_s": "s", "manifolds.quad_nodes": "count",
    "manifolds.curvature_along_calls": "count", "manifolds.profile_calls": "count",
    "manifolds.errors": "count",
    "verify.self_s": "s", "verify.checks": "count", "verify.checks_failed": "count",
    "cli.self_s": "s", "cli.bytes_out": "bytes",
    "setup.numpy_s": "s", "setup.scipy_s": "s", "setup.geocount_s": "s",
    "trace.overhead_share": "ratio",
}
# (metric, time bucket, work counter) for the per-unit costs
PER_UNIT = (("counting.ns_per_dir_step", "counting.curve_s", "counting.dir_steps"),
            ("herglotz.ns_per_eval", "herglotz.stieltjes_s", "herglotz.stieltjes_evals"),
            ("flow.ns_per_jacobi_step", "flow.jacobi_s", "flow.jacobi_steps"))


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def calibrate(raw: float, before: float, after: float) -> float:
    return raw * kernel.REFERENCE_S / ((before + after) / 2.0)


def summary(values) -> dict:
    """Median, IQR, tail (maximum) and count of a list of samples."""
    values = sorted(values)
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": med, "iqr": q3 - q1, "tail": values[-1], "n": len(values)}


def spawn(invocations, seed: int, trace: bool = False, spans=None) -> dict:
    """Run one child sample and return its record plus parent-side set-up time."""
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        job = {"invocations": invocations, "seed": seed, "trace": trace,
               "work_dir": tmp, "record": str(Path(tmp) / "record.json"),
               "spans": None if spans is None else str(spans)}
        job_path = Path(tmp) / "job.json"
        job_path.write_text(json.dumps(job))
        before = kernel.kernel_seconds()
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(CHILD), str(job_path)],
                              cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
        record_path = Path(job["record"])
        if proc.returncode != 0 or not record_path.is_file():
            raise BenchError(f"sample child exited {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')[-2000:]}")
        record = json.loads(record_path.read_text())
    if not Path(record["geocount_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"geocount imported from {record['geocount_file']}, not {SRC}")
    record["setup_raw_s"] = record["imported_at"] - start
    record["setup_s"] = calibrate(record["setup_raw_s"], before, record["kernels"][0])
    return record


def import_times() -> dict:
    """Calibrated import self time of numpy, scipy and geocount (-X importtime)."""
    before = kernel.kernel_seconds()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import geocount.cli"],
                          cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    after = kernel.kernel_seconds()
    if proc.returncode != 0:
        raise BenchError(f"import of geocount.cli failed: {proc.stderr.decode()[-2000:]}")
    totals = {"numpy": 0.0, "scipy": 0.0, "geocount": 0.0}
    for line in proc.stderr.decode().splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            top = fields[2].strip().split(".")[0]
            if top in totals:
                totals[top] += int(fields[0]) * 1e-6
    return {f"setup.{name}_s": calibrate(sec, before, after)
            for name, sec in totals.items()}


def _outcomes(samples, n_timed: int):
    """(ok, failed) per sample and invocation, and the run's gate problems."""
    reference = [run["sha256"] for run in samples[0]["runs"]]
    table, problems = [], set()
    for rec in samples:
        row = []
        for i, run in enumerate(rec["runs"]):
            repeat = run["sha256"] == reference[i]
            ok = run["code"] == 0 and not run["problems"] and repeat
            if i < n_timed:
                failed = not ok
            else:
                failed = (not repeat or run["code"] not in DOCUMENTED_EXIT
                          or (run["code"] == 0 and not ok))
            row.append((ok, failed))
            if failed:
                problems.update(run["problems"] or [f"exit {run['code']}"])
                if not repeat:
                    problems.add(f"invocation {i}: output bytes differ between samples")
                if run["crash"]:
                    problems.add(run["crash"])
        table.append(row)
    return table, sorted(problems)


def _invocation_times(samples, i: int):
    raw, cal = [], []
    for rec in samples:
        wall = rec["runs"][i]["wall"]
        raw.append(wall)
        cal.append(calibrate(wall, rec["kernels"][i], rec["kernels"][i + 1]))
    return raw, cal


def _wall_ref(samples, n_timed: int) -> float:
    return sum(statistics.median(_invocation_times(samples, i)[1]) for i in range(n_timed))


def _layers(rec) -> dict:
    """Calibrated self times and counters of one traced sample."""
    values = dict.fromkeys(LAYER_UNITS, 0.0)
    values["herglotz.stieltjes_evals"] = 0
    invocation_s = self_s = 0.0
    for i, run in enumerate(rec["runs"]):
        scale = calibrate(1.0, rec["kernels"][i], rec["kernels"][i + 1])
        invocation_s += run["wall"] * scale
        for bucket, sec in run["trace"]["self_s"].items():
            values[bucket] += sec * scale
            self_s += sec * scale
        for name, count in run["trace"]["counts"].items():
            values[name] += count
        values["cli.bytes_out"] += run["bytes_out"]
    for metric, seconds, work in PER_UNIT:
        values[metric] = values[seconds] * 1e9 / values[work] if values[work] else 0.0
    values["self_sum_gap"] = abs(self_s - invocation_s) / invocation_s
    return values


def measure(workload: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the samples of one workload; returns the result and the detail record."""
    invocations = workload["timed"] + workload["probes"]
    n_timed = len(workload["timed"])
    spawn([], seed)  # warm-up: compiles bytecode, not measured
    spans = OUT / f"{name}-seed{seed}-spans.json" if trace else None
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while (len(plain) < MIN_SAMPLES - trace or len(traced) < 2 * trace
           or time.monotonic() < deadline):
        use_trace = trace and len(traced) < len(plain)
        rec = spawn(invocations, seed, use_trace, spans if use_trace else None)
        (traced if use_trace else plain).append(rec)
    setups = [rec["setup_s"] for rec in plain + traced]
    raw_setups = [rec["setup_raw_s"] for rec in plain + traced]
    while len(setups) < MIN_SETUPS:
        rec = spawn([], seed)
        setups.append(rec["setup_s"])
        raw_setups.append(rec["setup_raw_s"])

    table, problems = _outcomes(plain + traced, n_timed)
    attempted = sum(len(row) for row in table)
    ok = sum(o for row in table for o, _ in row)
    failed = sum(f for row in table for _, f in row)
    wall_ref = _wall_ref(plain, n_timed)
    metrics = {
        "wall_ref_s": wall_ref,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in plain),
        "ok_share": ok / attempted,
    }
    units = E2E_UNITS
    detail = {"invocations": [], "layers": None}
    if trace:
        per_sample = [_layers(rec) for rec in traced]
        layer = {k: statistics.median(s[k] for s in per_sample) for k in LAYER_UNITS}
        imports = [import_times() for _ in range(3)]
        for key in ("setup.numpy_s", "setup.scipy_s", "setup.geocount_s"):
            layer[key] = statistics.median(t[key] for t in imports)
        layer["trace.overhead_share"] = _wall_ref(traced, n_timed) / wall_ref - 1.0
        detail["layers"] = {"metrics": layer,
                            "self_sum_gap": [s["self_sum_gap"] for s in per_sample],
                            "stieltjes_evals": [s["herglotz.stieltjes_evals"] for s in per_sample]}
        metrics, units = layer, LAYER_UNITS

    for i, argv in enumerate(invocations):
        raw, cal = _invocation_times(plain, i)
        detail["invocations"].append({
            "argv": argv, "timed": i < n_timed,
            "exit_codes": sorted({rec["runs"][i]["code"] for rec in plain + traced}, key=str),
            "ok": sum(row[i][0] for row in table), "attempted": len(table),
            "raw_s": summary(raw), "calibrated_s": summary(cal)})
    kernels = [k for rec in plain + traced for k in rec["kernels"]]
    detail.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "samples": len(plain), "traced_samples": len(traced),
        "wall_ref_s": wall_ref,
        "wall_raw_s": sum(statistics.median(_invocation_times(plain, i)[0])
                          for i in range(n_timed)),
        "setup_s": summary(setups), "setup_raw_s": summary(raw_setups),
        "kernel_s": summary(kernels), "problems": problems,
        "provenance": provenance(seed, plain[0]),
    })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return {"result": result, "detail": detail}


def provenance(seed: int, record: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():  # a bare checkout must not report an enclosing repo
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            sha = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": record["numpy"],
            "scipy": record["scipy"], "cpu_count": os.cpu_count(),
            "thread_env": PIN, "seed": seed, "kernel_reference_s": kernel.REFERENCE_S}


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geocount" / "cli.py").is_file():
        print(f"geobench: no geocount sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = measure(workloads[args.workload], args.workload, args.seed,
                      args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"geobench: {exc}", file=sys.stderr)
        return 3
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out["detail"], indent=1, sort_keys=True) + "\n")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
