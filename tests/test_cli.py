import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from geocount import cli, herglotz
from geocount import manifolds as mf

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
    def test_count_writes_the_curve_and_growth_classifies_it(self, tmp_path):
        # only growth classifies: count writes no growth.json, even for a
        # curve that growth classifies
        out = tmp_path / "out"
        path = _write(tmp_path, SPHERE_MANIFEST.format(out=out))
        code = cli.main(["count", "--manifest", str(path), "--quiet"])
        assert code == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest_sha256=")
        assert lines[1].startswith("# version=")
        assert lines[2] == "T,value"
        assert len(lines) == 3 + 30
        assert not (out / "growth.json").exists()
        run = json.loads((out / "run.json").read_text())
        assert run["task"] == "count"
        assert run["exit_code"] == 0
        assert run["outputs"] == ["curve.csv"]
        code = cli.main(["growth", "--manifest", str(path), "--quiet"])
        assert code == 0
        growth = json.loads((out / "growth.json").read_text())
        assert growth["growth"]["class"] == "polynomial"
        assert growth["growth"]["degree"] == 1
        run = json.loads((out / "run.json").read_text())
        assert run["outputs"] == ["curve.csv", "growth.json"]

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

    def test_gromov_refuses_other_curvature(self, tmp_path, capsys):
        code = cli.main(["gromov", "--c", "2", "--n", "3",
                         "--out", str(tmp_path / "g"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "validation error: counting.search_gromov_constant: gromov needs")

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
        # text that does not parse, empty or non-finite lists, bad numbers,
        # each sent to the subcommands that take its flags (the others refuse
        # the flag itself, see test_subcommands_refuse_flags_they_do_not_take)
        for i, extra in enumerate([
                ["--T", "abc"], ["--T", "1:5:0"], ["--T", ",,"], ["--T", "inf"],
                ["--T", "nan"], ["--T", "1:5"], ["--T", "1:5:-2"], ["--T", "1:inf:3"],
                ["--step", "nan"], ["--step", "inf"], ["--c", "nan"], ["--c", "inf"],
                ["--seed", "-1"], ["--tau-schedule", "x"], ["--tau-schedule", "nan"],
                ["--c-grid", ""], ["--kind", "flat_torus", "--basis", "a b; c d"],
                ["--kind", "flat_torus", "--basis", "1 0; 0"],
                ["--kind", "flat_torus", "--basis", "1 0; 0 nan"]]):
            flags = {a[2:].replace("-", "_") for a in extra if a.startswith("--")}
            takers = [command for command, (_, _, taken) in cli.SUBCOMMANDS.items()
                      if flags <= set(taken)]
            assert takers, extra
            for command in takers:
                code = cli.main([command, "--n", "2", *extra, "--out",
                                 str(tmp_path / f"t{i}{command}"), "--quiet"])
                assert code == 2, (command, extra)

    def test_range_with_infinite_end_refused_before_linspace(self, tmp_path, capsys):
        for text in ("1:inf:3", "-1e308:1e308:3", "nan:1:3"):
            code = cli.main(["count", "--n", "2", f"--T={text}",
                             "--out", str(tmp_path / "r"), "--quiet"])
            assert code == 2
            assert "needs a finite start and stop" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count", "growth", "verify"])
    def test_torus_basis_of_another_dimension_is_refused(self, tmp_path, capsys,
                                                         command):
        # refused before anything is built or written, so no run can use a
        # torus of another dimension than the n its manifest hash records
        code = cli.main([command, "--kind", "flat_torus", "--n", "3",
                         "--basis", "1 0; 0 1", "--out", str(tmp_path / "o"),
                         "--quiet"])
        assert code == 2
        assert ("parameter basis has shape (2, 2), but n=3 asks for a 3 x 3 "
                "basis") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", sorted(cli.SUBCOMMANDS))
    def test_subcommands_refuse_flags_they_do_not_take(self, capsys, command):
        taken = cli.SUBCOMMANDS[command][2]
        refused = [flag for flag in cli.FLAGS if flag not in taken]
        assert refused
        for flag in refused:
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--" + flag.replace("_", "-"), "1", "--quiet"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err, flag

    def test_each_subcommand_takes_the_flags_of_its_keys(self):
        shared = {"manifest", "out", "seed", "quiet", "kind", "c", "n"}
        counting = shared | {"basis", "warp", "T", "quad_scheme", "quad_order", "step"}
        assert {command: set(flags) for command, (_, _, flags)
                in cli.SUBCOMMANDS.items()} == {
            "count": counting, "growth": counting,
            "herglotz": shared | {"tau_schedule"},
            "verify": shared | {"basis", "warp"},
            "gromov": shared | {"quad_order", "step", "K", "c_grid"}}
        assert sum(len(flags) for _, _, flags in cli.SUBCOMMANDS.values()) == 54

    def test_docstring_grammar_names_every_key_of_the_table(self):
        # the module docstring's manifest grammar lists each key of FLAGS,
        # tagged "# [subcommands]" unless all five subcommands read it
        block = cli.__doc__.split("::\n", 1)[1]
        grammar, section = {}, None
        for line in block.splitlines():
            if line and not line.startswith(" "):
                break
            if header := re.fullmatch(r"\s*\[(\w+)\]\s*", line):
                section = header[1]
            elif entry := re.fullmatch(r"\s*(\w+) = .*?(?:#\s*(?:\[([\w ]+)\])?.*)?",
                                       line):
                grammar[f"{section}.{entry[1]}"] = (tuple(entry[2].split()) if entry[2]
                                                    else tuple(cli.SUBCOMMANDS))
        assert grammar == {row.key: row.commands for row in cli.FLAGS.values()
                           if row.key is not None}

    @pytest.mark.parametrize("argv", [
        ["count", "--c", "1", "--n", "2", "--T", "1,2", "--step", "0.01"],
        ["growth", "--kind", "flat_torus", "--n", "2", "--T", "1:10:10",
         "--quad-order", "8"],
        ["herglotz", "--c", "0", "--n", "3"],
        ["verify", "--kind", "warped_product", "--warp", "cosh", "--n", "3"],
    ])
    def test_a_run_validates_once_and_builds_one_spec(self, tmp_path, monkeypatch,
                                                      argv):
        calls = {"validate": 0, "spec": 0}
        validate, spec_init = cli.ExperimentManifest.validate, mf.ManifoldSpec.__init__

        def counted_validate(self):
            calls["validate"] += 1
            return validate(self)

        def counted_init(self, *args, **kwargs):
            calls["spec"] += 1
            spec_init(self, *args, **kwargs)
        monkeypatch.setattr(cli.ExperimentManifest, "validate", counted_validate)
        monkeypatch.setattr(mf.ManifoldSpec, "__init__", counted_init)
        assert cli.main(argv + ["--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert calls == {"validate": 1, "spec": 1}

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

    @pytest.mark.parametrize("task,n,extra", [
        pytest.param("herglotz", "400", [], id="herglotz"),
        pytest.param("verify", "400", [], id="verify"),
        pytest.param("verify", "800", [], id="verify-800"),
        pytest.param("verify", "800", ["--kind", "warped_product", "--warp", "cosh"],
                     id="verify-warped-800"),
    ])
    def test_matrix_stacks_capped_before_allocating(self, tmp_path, task, n, extra):
        # herglotz --n 400 asked for 39 GiB (exit 1) and verify --n 400 grew
        # until it was killed; neither builds a k x k stack any more.  Both
        # pass every check.  herglotz inverts the scalar measure of phi, so
        # its continuous mass (the atoms' Poisson tails, 0.0129 at c = 1)
        # does not grow with k and stays below 0.05 * (b - a) = 0.414.
        # verify's determinant growth bound, whose sigma^798 overflows a
        # float from sigma = 2.44 on, compares the logs of its sides there.
        # verify --n 800 keeps no (m+1) x d sample arrays and builds its
        # frames with one reflection per normal; a warped product's frame is
        # checked once, at the base point, not once per metric row
        proc = _main_under_1gib([task, *extra, "--n", n, "--quiet",
                                 "--out", str(tmp_path / task)])
        assert proc.returncode == 0, proc.stderr
        assert "a stack of shape" not in proc.stderr
        name = "herglotz_report.json" if task == "herglotz" else "verify_report.json"
        report = json.loads((tmp_path / task / name).read_text())
        assert [c["name"] for c in report["checks"] if not c["passed"]] == []

    def test_stieltjes_scan_capped_before_its_grid(self, tmp_path):
        # stieltjes_invert counts the scan points before it builds the grid
        proc = _main_under_1gib(["herglotz", "--c", "1", "--n", "3",
                                 "--tau-schedule", "0.1,0.01,1e-6", "--quiet",
                                 "--out", str(tmp_path / "h")])
        assert proc.returncode == 2, proc.stderr
        assert ("herglotz.stieltjes_invert: a stack of shape (16566372,)"
                in proc.stderr)
        # the scan's size does not depend on n: the remedy is tau
        assert "use a smallest tau of at least 1.6566372270996399e-06" in proc.stderr
        assert "smaller n" not in proc.stderr

    def test_stieltjes_scan_cap_names_the_smallest_tau_that_fits(self, tmp_path):
        # the refusal named the refused tau ("use a smallest tau above
        # 0.0005"); it now names the smallest double tau whose grid fits,
        # and a schedule ending there runs
        argv = ["herglotz", "--c", "2e-6", "--n", "3", "--quiet"]
        proc = _main_under_1gib([*argv, "--tau-schedule", "0.1,0.01,0.0005",
                                 "--out", str(tmp_path / "refused")])
        assert proc.returncode == 2, proc.stderr
        tau = float(re.search(r"use a smallest tau of at least (\S+)\n",
                              proc.stderr).group(1))
        period = math.pi / math.sqrt(2e-6)
        interval = (-1.0, 2 * period + 1.0)  # the battery's, margin 1
        assert (herglotz._scan_grid(*interval, math.nextafter(tau, 0.0))[1]
                > herglotz.MAX_STACK_ENTRIES >= herglotz._scan_grid(*interval, tau)[1])
        proc = _main_under_1gib([*argv, "--tau-schedule", f"0.1,0.01,{tau!r}",
                                 "--out", str(tmp_path / "fits")])
        assert proc.returncode == 0, proc.stderr

    def test_stieltjes_scan_cap_says_when_no_schedule_fits(self, tmp_path):
        # at c = 1e-6 the battery's interval needs more than the cap at
        # every tau <= 1e-3; the refusal advised "a smallest tau above
        # 0.001", which tau_schedule refuses
        proc = _main_under_1gib(["herglotz", "--c", "1e-6", "--n", "3", "--quiet",
                                 "--out", str(tmp_path / "h")])
        assert proc.returncode == 2, proc.stderr
        assert ("more than the cap of 10000000; no tau_schedule fits: every "
                "smallest tau in (0, 1e-3] needs more grid points on an "
                "interval of length 6285.19") in proc.stderr
        assert "use a smallest tau" not in proc.stderr

    def test_gromov_cutoffs_capped_before_allocating(self, tmp_path):
        # the search asked np.arange for 10^9 cutoffs, 7.45 GiB (exit 1)
        proc = _main_under_1gib(["gromov", "--K", "1000000000", "--c-grid", "1e-9",
                                 "--quiet", "--out", str(tmp_path / "g")])
        assert proc.returncode == 2, proc.stderr
        assert ("asks for 1000000000 cutoffs, more than the cap of 100000; "
                "lower K or shorten c_grid") in proc.stderr

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

    @pytest.mark.parametrize("c", [1.0, 9.0, 10.0, 16.0, 25.0, 50.0, 100.0,
                                   200.0, 400.0])
    def test_herglotz_task(self, tmp_path, c):
        # below period 2 the interval ends halfway between atoms: a margin
        # of 1 put an end near an atom (c = 9) or took in atoms beyond the
        # three expected (c >= 16)
        out = tmp_path / "h"
        code = cli.main(["herglotz", "--kind", "constant_curvature", "--c", str(c),
                         "--n", "2", "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "herglotz_report.json").read_text())
        assert report["all_passed"]
        assert report["n_checks"] >= 8
        fatou = json.loads((out / "fatou.json").read_text())
        period = math.pi / math.sqrt(c)
        assert len(fatou["atoms"]) == 3
        assert abs(fatou["atoms"][1]["t"] - period) < 1e-4

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

    @pytest.mark.parametrize("seed", ["0", "1", "101"])
    def test_verify_sin_warp_stays_inside_its_domain(self, tmp_path, seed):
        # w = sin on (0, pi) from r0 = 1: the ray ends at r0 + 0.75 (pi - r0),
        # short of the pole at pi, where a ray of length 4 left the domain
        out = tmp_path / "v"
        code = cli.main(["verify", "--kind", "warped_product", "--warp", "sin",
                         "--n", "3", "--seed", seed, "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["all_passed"]
        assert all(chk["residual"] <= 1e-9 for chk in report["checks"])

    @pytest.mark.parametrize("seed", ["0", "1", "101"])
    @pytest.mark.parametrize("c,n", [("-1", "3"), ("-2", "3"), ("-4", "3"),
                                     ("1", "44")])
    def test_verify_identities_pass_for_c_below_0_and_large_n(self, tmp_path,
                                                                c, n, seed):
        # each exited 4: the centred differences cancelled for c < 0 (8.4e-7
        # at c = -2 against 1e-8) and their error rose with the k-th power
        out = tmp_path / "v"
        code = cli.main(["verify", "--c", c, "--n", n, "--seed", seed,
                         "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads((out / "verify_report.json").read_text())
        identities = [chk for chk in report["checks"] if "identity" in chk["name"]]
        assert len(identities) == 2
        assert all(chk["residual"] <= 1e-12 for chk in identities)

    @pytest.mark.parametrize("c", ["-9", "-25", "-100"])
    def test_verify_passes_at_large_negative_c(self, tmp_path, c):
        # exit 3 at c = -9 and -25: the unit-speed drift and the propagated
        # Jacobi check took absolute differences of terms near
        # cosh(5 sqrt|c|); both are now relative to the terms' size
        out = tmp_path / "v"
        code = cli.main(["verify", "--c", c, "--n", "3", "--out", str(out),
                         "--quiet"])
        assert code == 0
        assert json.loads((out / "verify_report.json").read_text())["all_passed"]

    @pytest.mark.parametrize("c", ["-3e4", "-1e5"])
    def test_verify_past_the_float_range_exits_3(self, tmp_path, capsys, c):
        # exit 1: the gates compared a nan drift with "> tol", let the
        # geodesic and the inf Jacobi system through, and the closed form's
        # math.cosh raised OverflowError in the battery
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["verify", "--c", c, "--n", "3", "--out",
                             str(tmp_path / "v"), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "the closed form leaves the float range at sigma=" in err
        assert not caught

    @pytest.mark.parametrize("c", ["1e-7", "1e-9", "1e-300"])
    def test_verify_passes_at_small_positive_c(self, tmp_path, c):
        # exit 2: the counting cutoff 2/sqrt(c) grew past the RK4 step cap as
        # c -> 0+; it is 2/max(1, sqrt(c)), short of the conjugate point
        out = tmp_path / "v"
        code = cli.main(["verify", "--c", c, "--n", "3", "--out", str(out),
                         "--quiet"])
        assert code == 0
        assert json.loads((out / "verify_report.json").read_text())["all_passed"]

    def test_verify_n_100_passes(self, tmp_path):
        # it exited 4 (gram-det 2.4e-8, the 99th power of a centred
        # difference); n = 400, past a float, runs under the memory cap above
        out = tmp_path / "v"
        code = cli.main(["verify", "--c", "1", "--n", "100", "--seed", "1",
                         "--out", str(out), "--quiet"])
        assert code == 0
        assert json.loads((out / "verify_report.json").read_text())["all_passed"]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["growth", "--kind", "constant_curvature", "--c", "1", "--n", "2",
                "--T", "1:12:12", "--step", "0.01", "--seed", "3", "--quiet"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        for name in ("curve.csv", "growth.json", "run.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# one of each subcommand, a --quiet run, a --manifest run and an argparse
# error; "{manifest}" stands for the path of SMALL_MANIFEST
REPEATED_RUNS = [
    ["count", "--c", "1", "--n", "2", "--T", "1:3:8", "--step", "0.01",
     "--quad-order", "8"],
    ["growth", "--kind", "flat_torus", "--n", "2", "--T", "1:10:10",
     "--quad-order", "8", "--quiet"],
    ["herglotz", "--c", "0", "--n", "3"],
    ["verify", "--kind", "warped_product", "--warp", "cosh", "--n", "3"],
    ["gromov", "--c", "1", "--n", "3", "--K", "2", "--quad-order", "4"],
    ["count", "--manifest", "{manifest}", "--T", "1,2,3"],
    ["count", "--kind", "sphere"],
]

SMALL_MANIFEST = """
[manifold]
kind = constant_curvature
c = -1.0
n = 3

[parameters]
quad_order = 4
step = 0.01
"""


def _in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's own exits
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}


class TestRepeatedMain:
    """Each subcommand's parser is built once per interpreter, and the full
    parser only for top-level help and errors; runs in one interpreter must
    write what a fresh interpreter writes."""

    def test_runs_repeat_in_one_interpreter_and_match_a_fresh_one(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        manifest = _write(tmp_path, SMALL_MANIFEST)
        argvs = [[str(manifest) if a == "{manifest}" else a for a in argv]
                 for argv in REPEATED_RUNS]
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        fresh = [subprocess.Popen(
            [sys.executable, "-m", "geocount.cli", *argv,
             "--out", str(tmp_path / f"fresh{i}")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for i, argv in enumerate(argvs)]
        runs = [[] for _ in argvs]
        for rep in range(2):
            for i, argv in enumerate(argvs):
                out = tmp_path / f"run{rep}_{i}"
                code, stdout, stderr = _in_process(argv + ["--out", str(out)], capsys)
                runs[i].append((code, stdout, stderr, _outputs(out)))
        for i, proc in enumerate(fresh):
            stdout, stderr = proc.communicate(timeout=300)
            runs[i].append((proc.returncode, stdout, stderr,
                            _outputs(tmp_path / f"fresh{i}")))
        codes = [run[0][0] for run in runs]
        assert codes == [0, 0, 0, 0, 0, 0, 2]
        assert "invalid choice: 'sphere'" in runs[-1][0][2]
        assert all(run[0][3] for run in runs[:-1])  # every good run wrote files
        for argv, run in zip(argvs, runs):
            assert run[1] == run[0] and run[2] == run[0], argv

    @pytest.mark.parametrize("command", ["", "count", "growth", "herglotz",
                                         "verify", "gromov"])
    def test_help_text_is_unchanged(self, capsys, monkeypatch, command):
        # cli_help_80/ holds the help printed at 80 columns; each subcommand
        # lists the flags of the keys its task reads
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = _in_process([command, "--help"] if command else ["--help"],
                                   capsys)
        expected = Path(__file__).with_name("cli_help_80") / f"{command or 'geocount'}.txt"
        assert code == 0
        assert out.encode() == expected.read_bytes()


class TestSubcommandParser:
    """main parses with the named subcommand's own parser; the full parser,
    built only for top-level help and errors, answers every argv the same."""

    def test_valid_runs_never_build_the_full_parser(self, tmp_path, capsys,
                                                    monkeypatch):
        def refuse():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(cli, "_parser", refuse)
        runs = REPEATED_RUNS[:5]
        assert sorted(argv[0] for argv in runs) == sorted(cli.SUBCOMMANDS)
        for i, argv in enumerate(runs):
            code, _, err = _in_process(argv + ["--out", str(tmp_path / f"o{i}")],
                                       capsys)
            assert code == 0, (argv, err)

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["bogus"], ["count", "--bogus", "1"],
        ["herglotz", "--c", "x"], ["gromov", "--K"], ["verify", "-h"]])
    def test_help_and_errors_equal_the_full_parsers(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        got = _in_process(argv, capsys)
        try:
            cli._parser().parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert got == (code, captured.out, captured.err)
        assert code is not None and (captured.out or captured.err)


class TestCountingGate:
    @pytest.mark.parametrize("argv", [
        ["count", "--c", "5e4", "--n", "3", "--T", "1:5:5", "--step", "0.01"],
        ["growth", "--c", "1e5", "--n", "3", "--T", "1:30:30"],
        ["count", "--c", "400", "--n", "3", "--step", "0.01"],
        ["growth", "--c", "4", "--n", "3", "--step", "0.05"],
    ])
    def test_inaccurate_step_exits_3_without_warnings(self, tmp_path, capsys, argv):
        # c = 5e4 used to exit 0 with a total 1e-3 of the closed form's, and
        # c = 1e5 overflowed |eta|^2; c = 400 and c = 4 at these steps are
        # refused since the gate came in
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv + ["--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "energy drift" in err and "nan" not in err
        assert "float range" not in err
        assert not caught

    def test_drift_is_taken_over_the_finite_samples(self, tmp_path, capsys):
        # h sqrt|kappa| = 0.1: the drift, 6.2e-8 before eta ~ sinh(100 sigma)
        # / 100 overflows its squares, read nan when it took those samples in
        code = cli.main(["count", "--c", "-1e4", "--n", "3", "--step", "0.001",
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        assert "energy drift 6.219e-08" in capsys.readouterr().err

    def test_overflow_at_an_accurate_step_is_named(self, tmp_path, capsys):
        # h sqrt|kappa| = 0.05 keeps the drift below 2e-9, but the exact
        # solution's squares leave the float range at sigma = 3.556
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["count", "--c", "-1e4", "--n", "3", "--step", "0.0005",
                             "--T", "1:4:4", "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "leaves the float range at sigma=3.556" in err
        assert "energy drift" not in err
        assert not caught


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


def _fresh_python(code, timeout=120):
    """stdout of ``code`` run in a fresh interpreter that imports geocount
    from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_submodules_out():
    # no code path uses scipy: importing the bare package first, geocount.cli
    # adds no scipy.* module (scipy.optimize took about 0.4 s to import)
    code = """if True:
        import sys
        import scipy
        before = set(sys.modules)
        import geocount.cli
        print(sorted(m for m in set(sys.modules) - before if m.startswith("scipy")))
    """
    assert _fresh_python(code) == "[]"


def test_invocations_load_no_module():
    # everything a run uses is loaded by import geocount.cli: numpy loads
    # numpy.random, numpy.polynomial and numpy.ma on first use, which would
    # put their import inside the first timed invocation
    code = """if True:
        import contextlib, io, shlex, sys, tempfile
        from geocount import cli
        before = set(sys.modules)
        codes = []
        for argv in %r:
            with tempfile.TemporaryDirectory() as out:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(cli.main(shlex.split(argv) + ["--out", out]))
        print(codes, sorted(set(sys.modules) - before))
    """ % [
        "count --c 1 --n 3 --T 1:2:4 --quad-order 4",
        "growth --c -1 --n 3 --T 0.5:5:10 --quad-order 4",
        "growth --kind flat_torus --n 2 --basis '1 0; 0 1' --T 1:10:10 --quad-order 8",
        "herglotz --c 1 --n 3",
        "gromov --c 1 --n 3 --K 2 --quad-order 4",
        "verify --c 1 --n 3",
        "verify --kind warped_product --warp cosh --n 3",
        "verify --kind flat_torus --n 2 --basis '1 0; 0 1'",
    ]
    assert _fresh_python(code, timeout=300) == "[0, 0, 0, 0, 0, 0, 0, 0] []"


def test_cli_import_leaves_configparser_and_csv_out():
    # only --manifest reads INI text, and curve.csv is written without the
    # csv module; the bare scipy package stays loaded, as the benchmark child
    # reads its version.  The hook records which geocount module asks for
    # either name
    code = """if True:
        import builtins, sys
        asked, real = [], builtins.__import__
        def hook(name, globals=None, *args):
            importer = (globals or {}).get("__name__", "")
            if importer.startswith("geocount") and name in ("configparser", "csv"):
                asked.append((importer, name))
            return real(name, globals, *args)
        builtins.__import__ = hook
        import geocount.cli
        print(asked, "configparser" in sys.modules, "scipy" in sys.modules)
    """
    assert _fresh_python(code) == "[] False True"


def test_subnormal_curvature_exits_2_without_runtime_warnings(tmp_path):
    # the sphere's squared radius 1/c overflowed in orthonormal_frame, a
    # RuntimeWarning, before the grid cap exited 2
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "geocount.cli",
         "verify", "--c=2.2250738585e-313", "--n", "2", "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("validation error: manifolds.constant_curvature: parameter "
                           "c=2.2250738585e-313: the squared radius 1/|c| overflows "
                           "a float\n")
