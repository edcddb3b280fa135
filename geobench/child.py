"""One benchmark sample: a fresh interpreter running a workload's invocations.

Usage: python3 geobench/child.py JOB.json

The parent writes JOB.json and sets PYTHONPATH to the checkout's src/.  The
child imports geocount.cli, notes the monotonic clock (the parent started
its clock just before spawning, so the difference is set-up time), then runs
each invocation in process, timing the calibration kernel right before and
right after each one.  Outputs are gated and hashed only after the last
invocation, so the timed loop does nothing else.  The record goes to the
path named in the job; nothing is printed.
"""

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from geocount import cli

IMPORTED_AT = time.monotonic()  # set-up ends here; the parent timed the spawn

import gates  # noqa: E402
import kernel  # noqa: E402


def _run(argv, seed, work_dir):
    out = Path(tempfile.mkdtemp(dir=work_dir))
    text = io.StringIO()
    crash = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        try:
            code = cli.main(argv + ["--seed", str(seed), "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error is a result to report, not a stop
            code = None
            crash = traceback.format_exc()
    wall = time.perf_counter() - start
    return {"wall": wall, "code": code, "crash": crash, "out": out,
            "text_bytes": len(text.getvalue().encode())}


def _settle(run, argv):
    """Gate and hash one invocation's outputs, then delete them."""
    out = run.pop("out")
    files = sorted(p for p in out.iterdir() if p.is_file())
    run["sha256"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    run["bytes_out"] = run.pop("text_bytes") + sum(p.stat().st_size for p in files)
    try:
        run["problems"] = gates.check(argv, out, run["code"])
    except Exception as exc:  # malformed output is a gate failure
        run["problems"] = [f"unreadable output: {exc!r}"]
    shutil.rmtree(out)


def main():
    job = json.loads(Path(sys.argv[1]).read_text())
    record = {"imported_at": IMPORTED_AT, "geocount_file": cli.__file__,
              "numpy": sys.modules["numpy"].__version__,
              "scipy": sys.modules["scipy"].__version__}
    kernels = [kernel.kernel_seconds()]
    runs = []
    tracer = None
    if job["trace"]:
        import tracing
        from geocount import counting, flow, herglotz, manifolds, verify
        tracer = tracing.Tracer()
        tracer.install({"counting": counting, "herglotz": herglotz, "flow": flow,
                        "manifolds": manifolds, "verify": verify, "cli": cli})
    for i, argv in enumerate(job["invocations"]):
        if tracer is not None:
            tracer.invocation = i
        runs.append(_run(argv, job["seed"], job["work_dir"]))
        kernels.append(kernel.kernel_seconds())
        if tracer is not None:
            runs[-1]["trace"] = tracer.take()
    for run, argv in zip(runs, job["invocations"]):
        _settle(run, argv)
    record["kernels"] = kernels
    record["runs"] = runs
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and job.get("spans"):
        Path(job["spans"]).write_text(json.dumps(tracer.spans))
    Path(job["record"]).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
