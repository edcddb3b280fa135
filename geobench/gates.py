"""Output gates: each invocation's files checked against closed forms.

A gate never imports geocount.  It reads the files an invocation wrote and
returns a list of problems; an empty list means the outputs are correct.
"""

import json
import math
from pathlib import Path

import numpy as np

CURVE_RTOL = 1e-3      # RK4 + trapezoid at step <= 0.01 is far inside this
ATOM_TOL = 1e-4        # the battery's own location tolerance
MASS_RTOL = 2e-2       # O(tau) Poisson smoothing of the mass extrapolant


def flags(argv) -> dict:
    """``--name value`` pairs of an invocation (the subcommand is argv[0])."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)
            if argv[i].startswith("--")}


def sphere_area(m: int) -> float:
    """Measure of the unit m-sphere in R^(m+1)."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def counting_total(c: float, n: int, T: float) -> float:
    """area(S^(n-1)) * integral_0^T s_c(sigma)^(n-1) dsigma in closed form.

    s_c = sin(a sigma)/a for c = a^2 > 0, sinh(a sigma)/a for c = -a^2 < 0,
    sigma for c = 0; powers of sin and sinh reduce by the usual recurrence.
    """
    k = n - 1
    if c == 0:
        return sphere_area(n - 1) * T ** n / n
    a = math.sqrt(abs(c))
    u = a * T
    if c > 0:
        lo, hi = u, 1.0 - math.cos(u)            # k = 0, 1 in units of 1/a
        for j in range(2, k + 1):
            lo, hi = hi, (-math.sin(u) ** (j - 1) * math.cos(u) + (j - 1) * lo) / j
    else:
        lo, hi = u, math.cosh(u) - 1.0
        for j in range(2, k + 1):
            lo, hi = hi, (math.sinh(u) ** (j - 1) * math.cosh(u) - (j - 1) * lo) / j
    return sphere_area(n - 1) * hi / a ** (k + 1)


def _curve_problems(path: Path, c: float, n: int) -> list:
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    T = np.array([float(r[0]) for r in rows])
    got = np.array([float(r[1]) for r in rows])
    want = np.array([counting_total(c, n, t) for t in T])
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    return [] if err <= CURVE_RTOL else [f"curve.csv off its closed form by {err:.3e}"]


def _growth_problems(path: Path, kind: str, c: float, n: int) -> list:
    growth = json.loads(path.read_text())["growth"]
    if kind == "flat_torus" or c == 0:
        want = ("polynomial", n)
    elif c > 0:
        want = ("polynomial", 1)
    else:
        want = ("exponential", (n - 1) * math.sqrt(-c))
    got_kind = growth["class"]
    if got_kind != want[0]:
        return [f"growth class {got_kind}, expected {want[0]}"]
    if got_kind == "polynomial" and growth["degree"] != want[1]:
        return [f"growth degree {growth['degree']}, expected {want[1]}"]
    if got_kind == "exponential" and abs(growth["rate"] / want[1] - 1.0) > 0.1:
        return [f"growth rate {growth['rate']:.4f}, expected ~{want[1]:.4f}"]
    return []


def _fatou_problems(path: Path, c: float, n: int) -> list:
    fatou = json.loads(path.read_text())
    a, b = fatou["interval"]
    period = math.pi / math.sqrt(c) if c > 0 else math.inf
    want = [k * period for k in range(int(math.floor(b / period)) + 1)] if c > 0 else [0.0]
    want = [t for t in want if a < t < b]
    atoms = fatou["atoms"]
    if len(atoms) != len(want):
        return [f"fatou.json has {len(atoms)} atoms, expected {len(want)}"]
    problems = []
    for atom, t in zip(atoms, want):
        if abs(atom["t"] - t) > ATOM_TOL:
            problems.append(f"atom at {atom['t']:.8f}, expected {t:.8f}")
        mass = np.array(atom["mass_matrix"])
        if float(np.max(np.abs(mass - math.pi * np.eye(n - 1)))) > MASS_RTOL * math.pi:
            problems.append(f"atom mass at {t:.6f} is not pi * Id")
    return problems


def _gromov_problems(path: Path, n: int) -> list:
    out = json.loads(path.read_text())
    volume = sphere_area(n)
    problems = []
    first_pass = None
    for chk in out["checks"]:
        ks = np.arange(1, len(chk["rhs"]) + 1)
        want = np.array([counting_total(1.0, n, chk["C"] * k) for k in ks]) / volume
        err = float(np.max(np.abs(np.array(chk["rhs"]) - want) / np.maximum(1.0, want)))
        if err > CURVE_RTOL:
            problems.append(f"gromov rhs at C={chk['C']} off its closed form by {err:.3e}")
        betti = (ks - 1) // (n - 1) + 1
        if list(betti) != list(chk["lhs"]):
            problems.append(f"gromov lhs at C={chk['C']} is not the Betti partial sum")
        holds = bool(np.all(betti <= want * (1 + 1e-6) + 1e-6))
        if holds != chk["holds"]:
            problems.append(f"gromov verdict at C={chk['C']} disagrees with the closed form")
        if chk["holds"] and first_pass is None:
            first_pass = chk["C"]
    if out["minimal_passing_C"] != first_pass:
        problems.append("minimal_passing_C is not the first passing constant")
    return problems


def _report_problems(path: Path) -> list:
    report = json.loads(path.read_text())
    return [] if report["all_passed"] else [f"{path.name}: failed {report['failed']}"]


def check(argv, out: Path, exit_code) -> list:
    """Problems with the outputs of one invocation that exited ``exit_code``."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    run = json.loads((out / "run.json").read_text())
    missing = [name for name in run["outputs"] if not (out / name).is_file()]
    if run["exit_code"] != 0 or missing:
        return [f"run.json exit_code {run['exit_code']}, missing {missing}"]
    command, opts = argv[0], flags(argv)
    kind = opts.get("kind", "constant_curvature")
    c, n = float(opts.get("c", "1")), int(opts["n"])
    problems = []
    if command in ("count", "growth"):
        problems += _curve_problems(out / "curve.csv", 0.0 if kind == "flat_torus" else c, n)
        if command == "growth" or (out / "growth.json").is_file():
            problems += _growth_problems(out / "growth.json", kind, c, n)
    elif command == "herglotz":
        problems += _report_problems(out / "herglotz_report.json")
        if c >= 0:
            problems += _fatou_problems(out / "fatou.json", c, n)
    elif command == "verify":
        problems += _report_problems(out / "verify_report.json")
    elif command == "gromov":
        problems += _gromov_problems(out / "gromov.json", n)
    return problems
