"""Batch experiment runner: manifests, subcommands, reproducible outputs.

Manifest grammar (flat INI, parsed with configparser).  The subcommand names
the task.  A key whose comment starts with [subcommands] is read by those
alone, any other key by all five; a subcommand takes the flags of the keys it
reads, and a flag overrides its key.  Keys a subcommand does not read are
still parsed, validated and hashed::

    [manifold]
    kind = constant_curvature      # constant_curvature | flat_torus | warped_product
    c = 1.0                        # constant_curvature only
    n = 2
    basis = 1 0; 0 1               # [count growth verify] flat_torus, rows ';'-separated
    warp = one_plus_r2             # [count growth verify] warped_product (warp catalog)

    [parameters]
    T = 1:30:30                    # [count growth] list "1,2,5" or range "start:stop:count"
    quad_scheme = product_gauss    # [count growth] product_gauss | monte_carlo
    quad_order = 64                # [count growth gromov]
    step = 0.001                   # [count growth gromov]
    seed = 0
    tau_schedule = 0.1,0.01,0.001  # [herglotz]
    K = 50                         # [gromov] growth-inequality depth
    c_grid = 0.5,1,2,5,10          # [gromov] constants tried
    out = outdir

herglotz and gromov read kind (and gromov c) only to refuse every manifold
but their own.  Exit codes: 0 success, 2 validation error, 3 numerical
failure, 4 verification failure.  Outputs are byte-identical for identical
manifests and seeds; every output file embeds the resolved-manifest hash and
the library version.
"""

import argparse
import functools
import hashlib
import json
import math
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
# Nothing here uses scipy.  geobench/child.py reads sys.modules["scipy"].__version__,
# so the bare package (about 6 ms, no submodules) stays imported until the child
# reads importlib.metadata instead (ROADMAP item 8); then this line goes.
import scipy  # noqa: F401

from . import __version__, counting, verify
from . import manifolds as mf
from .errors import (CatalogError, ConfigurationError, GeocountError,
                     InputError)

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


_format_float = "{:.17g}".format


def _format_floats(values) -> str:
    return ",".join(map(_format_float, values))


def _format_basis(basis) -> str:
    return "None" if basis is None else ";".join(
        " ".join(map(_format_float, row)) for row in basis)


# subcommand -> (task, help line)
_TASKS = {
    "count": ("count", "counting curve over a list of cutoffs"),
    "growth": ("growth", "counting curve plus growth classification"),
    "herglotz": ("herglotz_verify", "closed-form function checks and measure recovery"),
    "verify": ("lemma_suite", "identity and inequality suite for one manifold"),
    "gromov": ("gromov", "Betti partial sums vs the counting integral"),
}
_ALL, _CURVES = tuple(_TASKS), ("count", "growth")

# flag -> its row, in help order: the manifest key as hashed (the INI key is
# that lower-cased, as configparser folds case), the ExperimentManifest field,
# the parser of the key's text, the formatter for the canonical text (None:
# not hashed), the subcommands that take the flag and read the key, argparse
# keywords; --manifest and --quiet steer the run and have no key
_Flag = namedtuple("_Flag", "key field parse format commands kwargs")
FLAGS = {
    "manifest": _Flag(None, None, None, None, _ALL, {"help": "INI manifest path"}),
    "out": _Flag("parameters.out", "out_dir", str, None, _ALL,
                 {"help": "output directory"}),
    "seed": _Flag("parameters.seed", "seed", int, str, _ALL,
                  {"type": int, "help": "RNG seed (default 0)"}),
    "quiet": _Flag(None, None, None, None, _ALL,
                   {"action": "store_true", "help": "suppress report lines"}),
    "kind": _Flag("manifold.kind", "kind", str, str, _ALL,
                  {"choices": ("constant_curvature", "flat_torus", "warped_product")}),
    "c": _Flag("manifold.c", "c", float, str, _ALL,
               {"type": float, "help": "constant curvature value"}),
    "n": _Flag("manifold.n", "n", int, str, _ALL,
               {"type": int, "help": "manifold dimension"}),
    "basis": _Flag("manifold.basis", "basis", _parse_basis, _format_basis,
                   _CURVES + ("verify",),
                   {"help": "torus lattice basis, rows ';'-separated"}),
    "warp": _Flag("manifold.warp", "warp", str, str, _CURVES + ("verify",),
                  {"help": "warp catalog name"}),
    "T": _Flag("parameters.T", "T_values", _parse_values, _format_floats, _CURVES,
               {"help": "cutoff list '1,2,5' or range 'start:stop:count'"}),
    "quad_scheme": _Flag("parameters.quad_scheme", "quad_scheme", str, str, _CURVES,
                         {"choices": ("product_gauss", "monte_carlo")}),
    "quad_order": _Flag("parameters.quad_order", "quad_order", int, str,
                        _CURVES + ("gromov",), {"type": int}),
    "step": _Flag("parameters.step", "step", float, _format_float,
                  _CURVES + ("gromov",), {"type": float}),
    "tau_schedule": _Flag("parameters.tau_schedule", "tau_schedule", _parse_floats,
                          _format_floats, ("herglotz",),
                          {"help": "comma list, strictly decreasing"}),
    "K": _Flag("parameters.K", "K", int, str, ("gromov",),
               {"type": int, "help": "growth-inequality depth"}),
    "c_grid": _Flag("parameters.c_grid", "c_grid", _parse_floats, _format_floats,
                    ("gromov",), {"help": "comma list of constants for gromov"}),
}

# subcommand -> (task, help line, flags): the flags of the keys its task reads
SUBCOMMANDS = {name: (task, help_text,
                      tuple(flag for flag, row in FLAGS.items() if name in row.commands))
               for name, (task, help_text) in _TASKS.items()}
TASKS = tuple(task for task, _ in _TASKS.values())


@dataclass
class ExperimentManifest:
    """Resolved description of one batch run."""

    task: str
    kind: str = "constant_curvature"
    n: int = 2
    c: float = 1.0
    basis: np.ndarray | None = None
    warp: str = "one_plus_r2"
    T_values: np.ndarray = field(default_factory=lambda: np.linspace(1, 30, 30))
    quad_scheme: str | None = None
    quad_order: int | None = None
    step: float | None = None
    seed: int = 0
    tau_schedule: tuple = (1e-1, 1e-2, 1e-3)
    K: int = 50
    c_grid: tuple = (0.5, 1.0, 2.0, 5.0, 10.0)
    out_dir: str = "out"

    def __post_init__(self):
        # the three defaults that depend on n, the scheme and the task
        if self.quad_scheme is None:
            self.quad_scheme = "product_gauss" if self.n <= 4 else "monte_carlo"
        if self.quad_order is None:
            self.quad_order = (4096 if self.quad_scheme == "monte_carlo"
                               else 64 if self.n == 2 else 16 if self.n == 3 else 8)
        if self.step is None:
            self.step = 0.001 if self.task == "count" else 0.01

    def canonical_text(self) -> str:
        items = [("task.name", self.task)] + [
            (row.key, row.format(getattr(self, row.field)))
            for row in FLAGS.values() if row.format is not None]
        return "\n".join(f"{k}={v}" for k, v in sorted(items))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def validate(self) -> mf.ManifoldSpec:
        """Refuse out-of-range values; the spec of the manifold otherwise."""
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
        if self.kind == "constant_curvature":
            return mf.constant_curvature(self.c, self.n)
        if self.kind == "flat_torus":
            basis = np.eye(self.n) if self.basis is None else self.basis
            if basis.shape != (self.n, self.n):
                raise InputError(
                    f"cli.run_manifest: parameter basis has shape {basis.shape}, "
                    f"but n={self.n} asks for a {self.n} x {self.n} basis")
            return mf.flat_torus(basis)
        if self.kind == "warped_product":
            return mf.warped_product(self.warp, self.n)
        raise InputError(f"cli: parameter kind='{self.kind}' unknown")


def parse_manifest(path) -> dict:
    """Flat section.key -> string dictionary from an INI manifest file."""
    import configparser  # only --manifest reads INI text

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise InputError(f"cli.parse_manifest: parameter manifest='{path}' not readable")
    raw = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            raw[f"{section}.{key}"] = value.strip()
    return raw


def build_manifest(raw: dict, task: str) -> ExperimentManifest:
    """Manifest of ``task`` from raw strings: the INI keys of FLAGS present in
    ``raw`` are parsed, the other fields keep their defaults, and other keys
    are ignored.  Text that does not parse raises InputError naming its key
    (the first in FLAGS); values are checked by ``ExperimentManifest.validate``.
    """
    fields = {}
    for row in FLAGS.values():
        key = row.key and row.key.lower()  # None for --manifest and --quiet
        if key in raw:
            try:
                fields[row.field] = row.parse(raw[key])
            except InputError:
                raise
            except ValueError as exc:
                raise InputError(
                    f"cli.build_manifest: parameter {key}='{raw[key]}' is "
                    f"malformed: {exc}") from None
    return ExperimentManifest(task, **fields)


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
    spec = manifest.validate()
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
        if manifest.task == "growth":
            report = counting.classify_growth(curve)
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
        result = counting.search_gromov_constant(
            spec, manifest.K, manifest.c_grid,
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


def _add_flags(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with the flags of subcommand ``name``, in help order."""
    for flag in SUBCOMMANDS[name][2]:
        parser.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag].kwargs)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand ``name`` alone, kept for the interpreter.  It
    is the subparser that ``_parser`` builds for ``name``, so its help, usage
    and error messages are the same bytes."""
    return _add_flags(argparse.ArgumentParser(prog=f"geocount {name}"), name)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The full parser, all five subparsers under ``geocount``, built on first
    use and kept for the interpreter.  ``main`` needs it only for top-level
    help and errors: when no subcommand is named, or the named one's parser
    leaves arguments it does not know."""
    parser = argparse.ArgumentParser(
        prog="geocount",
        description="Geodesic counting, Jacobi propagation and Herglotz "
                    "verification pipelines on model manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in SUBCOMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """What ``_parser().parse_args(argv)`` returns, or exits with; the full
    parser is built only when the named subcommand's parser cannot decide."""
    if argv and argv[0] in SUBCOMMANDS:
        args, unknown = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not unknown:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))
    task, _, flags = SUBCOMMANDS[args.command]

    try:
        raw = parse_manifest(args.manifest) if args.manifest else {}
        for flag in flags:
            key, value = FLAGS[flag].key, getattr(args, flag)
            if key is not None and value is not None:
                raw[key.lower()] = str(value)
        return run_manifest(build_manifest(raw, task), quiet=args.quiet)
    except (InputError, ConfigurationError, CatalogError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except GeocountError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
