import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geocount import cli

SPHERE_MANIFEST = """
[manifold]
kind = constant_curvature
c = 1.0
n = 2

[task]
name = count

[parameters]
T = 1:30:30
quad_order = 64
step = 0.01
seed = 0
out = {out}
"""


def _write(tmp_path, text, name="manifest.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _main_under_1gib(argv):
    """Run the CLI in a child process under a 1 GiB address-space limit, so a
    regression fails with MemoryError instead of taking the machine's memory."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from geocount import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


class TestManifestParsing:
    def test_range_and_list_values(self):
        assert np.allclose(cli._parse_values("1:30:30"), np.linspace(1, 30, 30))
        assert np.allclose(cli._parse_values("1, 2, 5"), [1.0, 2.0, 5.0])

    def test_basis_rows(self):
        basis = cli._parse_basis("2 0; 1 3")
        assert np.allclose(basis, [[2.0, 0.0], [1.0, 3.0]])

    def test_manifest_roundtrip(self, tmp_path):
        path = _write(tmp_path, SPHERE_MANIFEST.format(out=tmp_path / "o"))
        raw = cli.parse_manifest(path)
        manifest = cli.build_manifest(raw, task="count")
        assert manifest.kind == "constant_curvature"
        assert manifest.n == 2
        assert manifest.step == 0.01
        assert len(manifest.T_values) == 30

    def test_inline_comments_stripped(self, tmp_path):
        path = _write(tmp_path, (
            "[manifold]\nkind = constant_curvature  # the round sphere\n"
            "n = 2\n[parameters]\nstep = 0.01 ; fast\n"))
        raw = cli.parse_manifest(path)
        assert raw["manifold.kind"] == "constant_curvature"
        assert raw["parameters.step"] == "0.01"

    def test_seed_defaults_to_zero(self):
        manifest = cli.build_manifest({"manifold.kind": "constant_curvature",
                                       "manifold.n": "2"}, task="count")
        assert manifest.seed == 0

    def test_hash_ignores_output_path(self):
        m1 = cli.build_manifest({"manifold.n": "2", "parameters.out": "a"},
                                task="count")
        m2 = cli.build_manifest({"manifold.n": "2", "parameters.out": "b"},
                                task="count")
        assert m1.sha256() == m2.sha256()
        m3 = cli.build_manifest({"manifold.n": "2", "parameters.seed": "1"},
                                task="count")
        assert m1.sha256() != m3.sha256()


class TestRunner:
    def test_count_task_writes_curve_and_growth(self, tmp_path):
        out = tmp_path / "out"
        path = _write(tmp_path, SPHERE_MANIFEST.format(out=out))
        code = cli.main(["count", "--manifest", str(path), "--quiet"])
        assert code == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest_sha256=")
        assert lines[1].startswith("# version=")
        assert lines[2] == "T,value"
        assert len(lines) == 3 + 30
        growth = json.loads((out / "growth.json").read_text())
        assert growth["growth"]["class"] == "polynomial"
        assert growth["growth"]["degree"] == 1
        run = json.loads((out / "run.json").read_text())
        assert run["task"] == "count"
        assert run["exit_code"] == 0

    def test_torus_flags_only_no_manifest(self, tmp_path):
        out = tmp_path / "o2"
        code = cli.main([
            "growth", "--kind", "flat_torus", "--n", "2",
            "--basis", "1 0; 0 1", "--T", "1:30:30", "--step", "0.01",
            "--out", str(out), "--quiet"])
        assert code == 0
        growth = json.loads((out / "growth.json").read_text())
        assert growth["growth"]["degree"] == 2

    def test_flag_overrides_manifest(self, tmp_path):
        out = tmp_path / "o3"
        path = _write(tmp_path, SPHERE_MANIFEST.format(out=tmp_path / "ignored"))
        code = cli.main(["count", "--manifest", str(path), "--T", "1,2,3,4",
                         "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert len(lines) == 3 + 4

    def test_validation_errors_exit_2(self, tmp_path):
        # decreasing T list
        code = cli.main(["count", "--kind", "constant_curvature", "--n", "2",
                         "--T", "5,4,3", "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        # unknown warp
        code = cli.main(["verify", "--kind", "warped_product", "--n", "2",
                         "--warp", "bogus", "--out", str(tmp_path / "y"),
                         "--quiet"])
        assert code == 2
        # gromov needs the unit sphere
        code = cli.main(["gromov", "--kind", "flat_torus", "--n", "2",
                         "--out", str(tmp_path / "z"), "--quiet"])
        assert code == 2
        # text that does not parse, empty or non-finite lists, bad numbers
        for i, extra in enumerate([
                ["--T", "abc"], ["--T", "1:5:0"], ["--T", ",,"], ["--T", "inf"],
                ["--T", "nan"], ["--T", "1:5"], ["--T", "1:5:-2"], ["--T", "1:inf:3"],
                ["--step", "nan"], ["--step", "inf"], ["--c", "nan"], ["--c", "inf"],
                ["--seed", "-1"], ["--tau-schedule", "x"], ["--tau-schedule", "nan"],
                ["--c-grid", ""], ["--kind", "flat_torus", "--basis", "a b; c d"],
                ["--kind", "flat_torus", "--basis", "1 0; 0"],
                ["--kind", "flat_torus", "--basis", "1 0; 0 nan"]]):
            for task in ("count", "herglotz", "gromov"):
                code = cli.main([task, "--n", "2", *extra,
                                 "--out", str(tmp_path / f"t{i}{task}"), "--quiet"])
                assert code == 2, (task, extra)

    def test_range_with_infinite_end_refused_before_linspace(self, tmp_path, capsys):
        for text in ("1:inf:3", "-1e308:1e308:3", "nan:1:3"):
            code = cli.main(["count", "--n", "2", f"--T={text}",
                             "--out", str(tmp_path / "r"), "--quiet"])
            assert code == 2
            assert "needs a finite start and stop" in capsys.readouterr().err

    def test_interval_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["herglotz", "--interval", "-1,7", "--quiet"])
        assert exc.value.code == 2
        manifest = cli.build_manifest({"parameters.interval": "-1,7"},
                                      task="herglotz_verify")
        assert "interval" not in manifest.canonical_text()

    def test_step_cap_refuses_before_allocating(self, tmp_path, monkeypatch):
        linspace = np.linspace

        def guarded(start, stop, num=50, **kwargs):
            assert num <= 10**5, "allocated before the step cap was checked"
            return linspace(start, stop, num, **kwargs)
        monkeypatch.setattr(np, "linspace", guarded)
        code = cli.main(["count", "--n", "3", "--T", "1e6",
                         "--out", str(tmp_path / "s"), "--quiet"])
        assert code == 2

    def test_node_cap_refuses_before_leggauss(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the node cap was checked")
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        code = cli.main(["count", "--n", "3", "--quad-order", "100000000",
                         "--T", "1,2", "--out", str(tmp_path / "q"), "--quiet"])
        assert code == 2

    @pytest.mark.parametrize("n", [343, 400])
    def test_high_dimensional_sphere_counts(self, tmp_path, n):
        # the area of S^n overflowed math.gamma from n = 343 on (exit 1)
        code = cli.main(["count", "--n", str(n), "--out", str(tmp_path / "h"),
                         "--quiet"])
        assert code in (0, 2, 3)

    def test_direction_coordinates_capped_before_drawing(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the coordinate cap was checked")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        code = cli.main(["count", "--n", "400", "--quad-order", "100000",
                         "--T", "1,2", "--out", str(tmp_path / "q"), "--quiet"])
        assert code == 2

    @pytest.mark.parametrize("task,shape", [
        ("herglotz", "(100, 399, 399)"), ("verify", "(5001, 399, 401)")])
    def test_matrix_stacks_capped_before_allocating(self, tmp_path, task, shape):
        # herglotz --n 400 asked for 39 GiB (exit 1) and verify --n 400 grew
        # until it was killed
        proc = _main_under_1gib([task, "--n", "400", "--quiet",
                                 "--out", str(tmp_path / task)])
        assert proc.returncode == 2, proc.stderr
        assert f"a stack of shape {shape}" in proc.stderr

    def test_stieltjes_scan_capped_before_its_grid(self, tmp_path):
        # the scan evaluates no (m, k, k) stack, so stieltjes_invert checks
        # the size that stack would have before it builds the scan grid
        proc = _main_under_1gib(["herglotz", "--c", "1", "--n", "3",
                                 "--tau-schedule", "0.1,0.01,1e-6", "--quiet",
                                 "--out", str(tmp_path / "h")])
        assert proc.returncode == 2, proc.stderr
        assert ("herglotz.stieltjes_invert: a stack of shape (16566372, 2, 2)"
                in proc.stderr)
        # no n fits 16 566 372 scan points under the cap: the remedy is tau
        assert "use a smallest tau above 1e-06" in proc.stderr
        assert "smaller n" not in proc.stderr

    def test_negative_values_in_exponent_notation(self, tmp_path, capsys):
        # a dash-led value in exponent notation used to read as an option
        # ("expected one argument")
        attached = ["count", "--n", "2", "--T", "1,2", "--quiet"]
        assert cli.main(attached + ["--c=-1e-06", "--out", str(tmp_path / "a")]) == 0
        assert cli.main(attached + ["--c", "-1e-06", "--out", str(tmp_path / "b")]) == 0
        for name in ("curve.csv", "run.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
        assert cli.main(["count", "--n", "2", "--c", "-2.5E+3", "--T", "0.01,0.02",
                         "--out", str(tmp_path / "c"), "--quiet"]) == 0
        assert "c=-2500" in (tmp_path / "c" / "run.json").read_text()
        capsys.readouterr()
        for flag in ("--T", "--step"):
            for value in ("-1e-06", "-2.5E+3"):
                code = cli.main(["count", "--n", "2", flag, value,
                                 "--out", str(tmp_path / "d"), "--quiet"])
                err = capsys.readouterr().err
                assert code == 2 and "validation error" in err, (flag, value)
                assert "must be" in err and "expected one argument" not in err

    def test_missing_manifest_file(self, tmp_path):
        code = cli.main(["count", "--manifest", str(tmp_path / "nope.ini"),
                         "--quiet"])
        assert code == 2

    def test_gromov_failure_exits_4(self, tmp_path):
        out = tmp_path / "g"
        code = cli.main(["gromov", "--kind", "constant_curvature", "--c", "1",
                         "--n", "2", "--K", "10", "--c-grid", "0.5",
                         "--step", "0.01", "--quad-order", "16",
                         "--out", str(out), "--quiet"])
        assert code == 4
        payload = json.loads((out / "gromov.json").read_text())
        assert payload["minimal_passing_C"] is None
        assert payload["checks"][0]["first_failure_k"] == 1

    def test_gromov_records_minimal_constant(self, tmp_path):
        out = tmp_path / "g2"
        code = cli.main(["gromov", "--kind", "constant_curvature", "--c", "1",
                         "--n", "2", "--K", "20", "--c-grid", "0.5,5",
                         "--step", "0.02", "--quad-order", "16",
                         "--out", str(out), "--quiet"])
        assert code == 0
        payload = json.loads((out / "gromov.json").read_text())
        assert payload["minimal_passing_C"] == 5.0

    def test_herglotz_task(self, tmp_path):
        out = tmp_path / "h"
        code = cli.main(["herglotz", "--kind", "constant_curvature", "--c", "1",
                         "--n", "2", "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "herglotz_report.json").read_text())
        assert report["all_passed"]
        assert report["n_checks"] >= 8
        fatou = json.loads((out / "fatou.json").read_text())
        assert len(fatou["atoms"]) == 3
        assert abs(fatou["atoms"][1]["t"] - math.pi) < 1e-4

    def test_verify_task_warped(self, tmp_path):
        out = tmp_path / "v"
        code = cli.main(["verify", "--kind", "warped_product",
                         "--warp", "one_plus_r2", "--n", "3",
                         "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["all_passed"]
        names = [chk["name"] for chk in report["checks"]]
        assert any("gram-det identity" in name for name in names)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["count", "--kind", "constant_curvature", "--c", "1", "--n", "2",
                "--T", "1:12:12", "--step", "0.01", "--seed", "3", "--quiet"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        for name in ("curve.csv", "growth.json", "run.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestEmitReport:
    def test_empty_results_pass(self, capsys):
        summary = cli.emit_report([])
        assert summary["all_passed"] and summary["n_checks"] == 0
        assert capsys.readouterr().out == ""

    def test_lines_and_failures(self, capsys):
        checks = [
            {"name": "alpha", "residual": 1e-9, "tolerance": 1e-8, "passed": True},
            {"name": "beta", "residual": 0.05, "tolerance": 1e-2, "passed": False},
        ]
        summary = cli.emit_report(checks)
        out = capsys.readouterr().out
        assert "PASS  alpha" in out
        assert "FAIL  beta" in out
        assert summary["failed"] == ["beta"]


def test_cli_import_leaves_scipy_ndimage_out():
    # scipy.ndimage takes about 0.4 s to import and no code path needs it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = "import sys, geocount.cli; print('scipy.ndimage' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
