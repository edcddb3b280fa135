"""Batch experiment runner: manifests, subcommands, reproducible outputs.

Manifest grammar (flat INI, parsed with configparser; flags mirror the keys
and override them)::

    [manifold]
    kind = constant_curvature      # constant_curvature | flat_torus | warped_product
    c = 1.0                        # constant_curvature only
    n = 2
    basis = 1 0; 0 1               # flat_torus only, rows separated by ';'
    warp = one_plus_r2             # warped_product only (see warp catalog)

    [task]
    name = count                   # count | growth | herglotz_verify | lemma_suite | gromov

    [parameters]
    T = 1:30:30                    # comma list "1,2,5" or range "start:stop:count"
    quad_scheme = product_gauss    # product_gauss | monte_carlo
    quad_order = 64
    step = 0.001
    seed = 0
    tau_schedule = 0.1,0.01,0.001
    K = 50                         # growth-inequality depth
    c_grid = 0.5,1,2,5,10          # constants tried by the gromov task
    out = outdir

Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 verification failure.  Outputs are byte-identical for identical manifests
and seeds; every output file embeds the resolved-manifest hash and the
library version.
"""

import argparse
import configparser
import functools
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, counting, verify
from . import manifolds as mf
from .errors import (CatalogError, ConfigurationError, GeocountError,
                     InputError)

TASKS = ("count", "growth", "herglotz_verify", "lemma_suite", "gromov")
SUBCOMMAND_TASK = {
    "count": "count",
    "growth": "growth",
    "herglotz": "herglotz_verify",
    "verify": "lemma_suite",
    "gromov": "gromov",
}


# ---------------------------------------------------------------------------
# manifest parsing
# ---------------------------------------------------------------------------

MAX_T_VALUES = 10_000  # length of a T range; the cutoffs share one propagation


def _parse_values(text: str) -> np.ndarray:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError(
                f"cli.parse_manifest: parameter T='{text}' ranges need start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if not 1 <= count <= MAX_T_VALUES:
            raise InputError(f"cli.parse_manifest: parameter T='{text}' needs a "
                             f"count between 1 and {MAX_T_VALUES}")
        if not math.isfinite(stop - start):  # before linspace computes that span
            raise InputError(f"cli.parse_manifest: parameter T='{text}' needs a "
                             "finite start and stop")
        return np.linspace(start, stop, count)
    return np.array([float(v) for v in text.split(",") if v.strip()])


def _parse_floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _parse_basis(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([[float(v) for v in r.split()] for r in rows])


@dataclass
class ExperimentManifest:
    """Resolved, validated description of one batch run."""

    task: str
    kind: str
    n: int
    c: float = 1.0
    basis: np.ndarray | None = None
    warp: str = "one_plus_r2"
    T_values: np.ndarray = field(default_factory=lambda: np.linspace(1, 30, 30))
    quad_scheme: str = ""
    quad_order: int = 0
    step: float = 0.0
    seed: int = 0
    tau_schedule: tuple = (1e-1, 1e-2, 1e-3)
    K: int = 50
    c_grid: tuple = (0.5, 1.0, 2.0, 5.0, 10.0)
    out_dir: str = "out"

    def spec(self) -> mf.ManifoldSpec:
        if self.kind == "constant_curvature":
            return mf.constant_curvature(self.c, self.n)
        if self.kind == "flat_torus":
            basis = self.basis if self.basis is not None else np.eye(self.n)
            return mf.flat_torus(basis)
        if self.kind == "warped_product":
            return mf.warped_product(self.warp, self.n)
        raise InputError(f"cli: parameter kind='{self.kind}' unknown")

    def canonical_text(self) -> str:
        items = {
            "task.name": self.task,
            "manifold.kind": self.kind,
            "manifold.n": self.n,
            "manifold.c": self.c,
            "manifold.basis": (None if self.basis is None
                               else ";".join(" ".join(format(v, ".17g") for v in row)
                                             for row in self.basis)),
            "manifold.warp": self.warp,
            "parameters.T": ",".join(format(v, ".17g") for v in self.T_values),
            "parameters.quad_scheme": self.quad_scheme,
            "parameters.quad_order": self.quad_order,
            "parameters.step": format(self.step, ".17g"),
            "parameters.seed": self.seed,
            "parameters.tau_schedule": ",".join(format(v, ".17g")
                                                for v in self.tau_schedule),
            "parameters.K": self.K,
            "parameters.c_grid": ",".join(format(v, ".17g") for v in self.c_grid),
        }
        return "\n".join(f"{k}={v}" for k, v in sorted(items.items()))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def validate(self):
        if self.task not in TASKS:
            raise InputError(f"cli.run_manifest: parameter task='{self.task}' "
                             f"not one of {TASKS}")
        if self.n < 2:
            raise InputError(f"cli.run_manifest: parameter n={self.n} must be >= 2")
        if not (math.isfinite(self.step) and self.step > 0):
            raise InputError(f"cli.run_manifest: parameter step={self.step} "
                             "must be positive and finite")
        if self.quad_order < 1:
            raise InputError(f"cli.run_manifest: parameter quad_order="
                             f"{self.quad_order} must be >= 1")
        if self.seed < 0:
            raise InputError(f"cli.run_manifest: parameter seed={self.seed} must be >= 0")
        T = self.T_values
        if not (len(T) and np.all(np.isfinite(T)) and np.all(T > 0)
                and np.all(np.diff(T) > 0)):
            raise InputError("cli.run_manifest: parameter T must be a nonempty, "
                             "strictly increasing list of positive finite reals")
        if not all(0 < t < math.inf for t in self.tau_schedule):
            raise InputError("cli.run_manifest: parameter tau_schedule must be "
                             "positive and finite")
        if self.K < 1:
            raise InputError(f"cli.run_manifest: parameter K={self.K} must be >= 1")
        self.spec()


def parse_manifest(path) -> dict:
    """Flat section.key -> string dictionary from an INI manifest file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise InputError(f"cli.parse_manifest: parameter manifest='{path}' not readable")
    raw = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            raw[f"{section}.{key}"] = value.strip()
    return raw


def build_manifest(raw: dict, task: str | None = None) -> ExperimentManifest:
    """Typed manifest from raw strings; ``task`` (the subcommand) wins.

    Text that does not parse raises InputError naming its key.
    """

    def get(key, default, parse=str):
        text = raw.get(key, default)
        try:
            return parse(text)
        except InputError:
            raise
        except ValueError as exc:
            raise InputError(
                f"cli.build_manifest: parameter {key}='{text}' is malformed: {exc}"
            ) from None

    n = get("manifold.n", "2", int)
    manifest = ExperimentManifest(
        task=task or get("task.name", "count"),
        kind=get("manifold.kind", "constant_curvature"),
        n=n,
        c=get("manifold.c", "1.0", float),
        basis=get("manifold.basis", None, _parse_basis) if "manifold.basis" in raw else None,
        warp=get("manifold.warp", "one_plus_r2"),
        seed=get("parameters.seed", "0", int),
        K=get("parameters.k", raw.get("parameters.K", "50"), int),
        out_dir=get("parameters.out", "out"),
    )
    if "parameters.t" in raw:
        manifest.T_values = get("parameters.t", None, _parse_values)
    manifest.quad_scheme = get(
        "parameters.quad_scheme",
        "product_gauss" if n <= 4 else "monte_carlo")
    default_order = "64" if n == 2 else ("16" if n == 3 else "8")
    if manifest.quad_scheme == "monte_carlo":
        default_order = "4096"
    manifest.quad_order = get("parameters.quad_order", default_order, int)
    default_step = "0.001" if manifest.task == "count" else "0.01"
    manifest.step = get("parameters.step", default_step, float)
    if "parameters.tau_schedule" in raw:
        manifest.tau_schedule = get("parameters.tau_schedule", None, _parse_floats)
    if "parameters.c_grid" in raw:
        manifest.c_grid = get("parameters.c_grid", None, _parse_floats)
    manifest.validate()
    return manifest


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload: dict, meta: dict):
    """``payload`` under the run's ``meta`` (manifest hash and version)."""
    body = {**meta, **payload}
    path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")


def emit_report(results: list, quiet: bool = False) -> dict:
    """One line per check (name, residual, tolerance, PASS/FAIL) plus a
    machine-readable summary; empty results make an empty passing report."""
    lines = []
    for chk in results:
        status = "PASS" if chk["passed"] else "FAIL"
        lines.append(
            f"{status}  {chk['name']}  residual={chk['residual']:.3e}  "
            f"tolerance={chk['tolerance']:.3e}")
    text = "\n".join(lines)
    if not quiet and text:
        print(text)
    failed = [chk["name"] for chk in results if not chk["passed"]]
    return {
        "checks": results,
        "n_checks": len(results),
        "n_failed": len(failed),
        "failed": failed,
        "all_passed": not failed,
    }


def run_manifest(manifest: ExperimentManifest, quiet: bool = False) -> int:
    """Execute one manifest; writes artifacts into its output directory.

    Returns the process exit code (0 ok, 4 when a verification check fails);
    validation and numerical errors propagate as exceptions for ``main`` to
    encode.
    """
    manifest.validate()
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = manifest.spec()
    meta = {"manifest_sha256": manifest.sha256(), "version": __version__}
    exit_code = 0
    outputs = []

    if manifest.task in ("count", "growth"):
        x = mf.canonical_point(spec)
        quad = mf.unit_sphere_quadrature(
            manifest.n, manifest.quad_scheme, manifest.quad_order, manifest.seed)
        curve = counting.berger_bott_curve(
            spec, x, manifest.T_values, quad, manifest.step)
        curve.to_csv(out / "curve.csv", meta)
        outputs.append("curve.csv")
        report = None
        try:
            report = counting.classify_growth(curve)
        except InputError:
            if manifest.task == "growth":
                raise
        if report is not None:
            _write_json(out / "growth.json",
                        {"manifold": spec.label, "growth": report.to_dict()}, meta)
            outputs.append("growth.json")
            if not quiet:
                kindinfo = (f"degree={report.degree}" if report.kind == "polynomial"
                            else f"rate={report.rate:.4f}")
                print(f"{spec.label}: {report.kind} ({kindinfo}), "
                      f"residual={report.fit_residual:.3e}")

    elif manifest.task == "herglotz_verify":
        if spec.kind != mf.CONSTANT_CURVATURE:
            raise InputError(
                "cli.run_manifest: herglotz_verify needs kind=constant_curvature "
                f"(closed forms), got '{spec.kind}'")
        checks, fatou = verify.herglotz_battery(
            manifest.c, manifest.n, manifest.seed, manifest.tau_schedule)
        summary = emit_report(checks, quiet)
        _write_json(out / "herglotz_report.json", summary, meta)
        outputs.append("herglotz_report.json")
        if fatou is not None:
            _write_json(out / "fatou.json", fatou, meta)
            outputs.append("fatou.json")
        if not summary["all_passed"]:
            exit_code = 4

    elif manifest.task == "lemma_suite":
        checks = verify.lemma_battery(spec, manifest.seed)
        summary = emit_report(checks, quiet)
        _write_json(out / "verify_report.json", summary, meta)
        outputs.append("verify_report.json")
        if not summary["all_passed"]:
            exit_code = 4

    elif manifest.task == "gromov":
        if spec.kind != mf.CONSTANT_CURVATURE or spec.c != 1.0:
            raise InputError(
                "cli.run_manifest: gromov needs kind=constant_curvature with "
                "c=1 (the unit round sphere)")
        result = counting.search_gromov_constant(
            manifest.n, manifest.K, manifest.c_grid,
            quad_order=manifest.quad_order, step=manifest.step,
            seed=manifest.seed)
        payload = {
            "n": result["n"], "K": result["K"], "c_grid": result["c_grid"],
            "minimal_passing_C": result["minimal_passing_C"],
            "checks": [chk.to_dict() for chk in result["checks"]],
        }
        _write_json(out / "gromov.json", payload, meta)
        outputs.append("gromov.json")
        if not quiet:
            print(f"minimal passing C on grid {result['c_grid']}: "
                  f"{result['minimal_passing_C']}")
        if result["minimal_passing_C"] is None:
            exit_code = 4

    _write_json(out / "run.json", {
        "task": manifest.task,
        "manifold": spec.label,
        "outputs": sorted(outputs),
        "exit_code": exit_code,
    }, meta)
    return exit_code


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--manifest", help="INI manifest path")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--quiet", action="store_true", help="suppress report lines")
    p.add_argument("--kind", choices=("constant_curvature", "flat_torus",
                                      "warped_product"))
    p.add_argument("--c", type=float, help="constant curvature value")
    p.add_argument("--n", type=int, help="manifold dimension")
    p.add_argument("--basis", help="torus lattice basis, rows ';'-separated")
    p.add_argument("--warp", help="warp catalog name")
    p.add_argument("--T", help="cutoff list '1,2,5' or range 'start:stop:count'")
    p.add_argument("--quad-scheme", choices=("product_gauss", "monte_carlo"))
    p.add_argument("--quad-order", type=int)
    p.add_argument("--step", type=float)
    p.add_argument("--tau-schedule", help="comma list, strictly decreasing")
    p.add_argument("--K", type=int, help="growth-inequality depth")
    p.add_argument("--c-grid", help="comma list of constants for gromov")


def _flags_to_raw(args: argparse.Namespace) -> dict:
    mapping = {
        "kind": "manifold.kind", "c": "manifold.c", "n": "manifold.n",
        "basis": "manifold.basis", "warp": "manifold.warp",
        "T": "parameters.t", "quad_scheme": "parameters.quad_scheme",
        "quad_order": "parameters.quad_order", "step": "parameters.step",
        "seed": "parameters.seed", "tau_schedule": "parameters.tau_schedule",
        "K": "parameters.k",
        "c_grid": "parameters.c_grid", "out": "parameters.out",
    }
    raw = {}
    for attr, key in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            raw[key] = str(value)
    return raw


# a dash-led number in plain or exponent notation: -1, -0.5, -1e-06, -2.5E+3
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _attach_negative_values(argv: list) -> list:
    """Join a long flag and a negative number after it: '--c', '-1e-06'
    becomes '--c=-1e-06'.

    argparse reads a dash-led item as an option unless it looks like a
    negative number without an exponent, so '--c -1e-06' would leave --c
    without its value.
    """
    out = []
    for item in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_NUMBER.fullmatch(item)):
            out[-1] += "=" + item
        else:
            out.append(item)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the interpreter:
    parse_args leaves it unchanged, so repeated ``main`` calls share it."""
    parser = argparse.ArgumentParser(
        prog="geocount",
        description="Geodesic counting, Jacobi propagation and Herglotz "
                    "verification pipelines on model manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags are built once and shared by every subparser
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common)
    for name, help_text in (
            ("count", "counting curve over a list of cutoffs"),
            ("growth", "counting curve plus growth classification"),
            ("herglotz", "closed-form function checks and measure recovery"),
            ("verify", "identity and inequality suite for one manifold"),
            ("gromov", "Betti partial sums vs the counting integral"),
    ):
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))

    try:
        raw = parse_manifest(args.manifest) if args.manifest else {}
        raw.update(_flags_to_raw(args))
        manifest = build_manifest(raw, task=SUBCOMMAND_TASK[args.command])
        return run_manifest(manifest, quiet=args.quiet)
    except (InputError, ConfigurationError, CatalogError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except GeocountError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
