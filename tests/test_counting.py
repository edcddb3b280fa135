import csv
import json
import math
import warnings

import numpy as np
import pytest

import geocount as gc
from geocount import cli, verify
from geocount.errors import CatalogError, InputError
from matrix_forms import torus_count_monte_carlo


def _sphere_setup(n=2, order=64):
    spec = gc.constant_curvature(1.0, n)
    x = gc.canonical_point(spec)
    quad = gc.unit_sphere_quadrature(n, "product_gauss", order)
    return spec, x, quad


def _torus_setup(n=2, order=64):
    spec = gc.flat_torus(np.eye(n))
    x = gc.canonical_point(spec)
    quad = gc.unit_sphere_quadrature(n, "product_gauss", order)
    return spec, x, quad


def _batched_reference(spec, x, T, quad, step):
    """The counting integral in its general matrix form, as a reference.

    One RK4 per direction on (directions, k, k) and the square root of the
    Gram determinant det(H^T H) at every step; deliberately slow and literal.
    """
    dirs = quad.nodes @ gc.orthonormal_frame(spec, x)
    kappas = np.array([float(gc.curvature_along(spec, (x, th)).profile(0.0))
                       for th in dirs])
    grid = np.linspace(0.0, T, int(math.ceil(T / step - 1e-12)) + 1)
    k = spec.normal_dim
    B = quad.size
    H = np.zeros((B, k, k))
    DH = np.broadcast_to(np.eye(k), (B, k, k)).copy()
    kap = kappas.reshape(B, 1, 1)
    cum = np.zeros(B)
    prev = np.zeros(B)
    totals = np.zeros(len(grid))
    for j in range(len(grid) - 1):
        h = grid[j + 1] - grid[j]
        k1y, k1d = DH, -kap * H
        y2, d2 = H + 0.5 * h * k1y, DH + 0.5 * h * k1d
        k2y, k2d = d2, -kap * y2
        y3, d3 = H + 0.5 * h * k2y, DH + 0.5 * h * k2d
        k3y, k3d = d3, -kap * y3
        y4, d4 = H + h * k3y, DH + h * k3d
        k4y, k4d = d4, -kap * y4
        H = H + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        DH = DH + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d)
        dets = np.linalg.det(np.einsum("bji,bjk->bik", H, H))
        intg = np.sqrt(np.maximum(dets, 0.0))
        cum = cum + 0.5 * h * (prev + intg)
        prev = intg
        totals[j + 1] = np.sum(quad.weights * cum)
    return grid, totals


_VERIFY_BASIS = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]])


class TestTotals:
    def test_round_sphere_vs_antiderivative_oracle(self):
        # oracle: 2*pi * integral_0^pi sin = 2*pi*(1 - cos(pi)) = 4*pi
        spec, x, quad = _sphere_setup()
        total = gc.berger_bott_total(spec, x, math.pi, quad, 1e-3)
        assert abs(total - 4 * math.pi) <= 1e-4

    def test_torus_area_identity(self):
        spec, x, quad = _torus_setup()
        total = gc.berger_bott_total(spec, x, 5.0, quad, 1e-3)
        assert abs(total - math.pi * 25.0) <= 1e-3 * math.pi * 25.0

    def test_zero_cutoff(self):
        spec, x, quad = _torus_setup()
        assert gc.berger_bott_total(spec, x, 0.0, quad, 1e-3) == 0.0

    def test_curve_monotone_with_zero_start(self):
        spec, x, quad = _sphere_setup()
        T = np.concatenate([[0.0], np.linspace(0.5, 8.0, 16)])
        curve = gc.berger_bott_curve(spec, x, T, quad, 1e-2)
        assert curve.values[0] == 0.0
        assert np.all(np.diff(curve.values) >= 0)

    def test_curve_matches_pointwise_totals(self):
        spec, x, quad = _torus_setup()
        curve = gc.berger_bott_curve(spec, x, [1.0, 2.0, 4.0], quad, 1e-3)
        single = gc.berger_bott_total(spec, x, 2.0, quad, 1e-3)
        assert abs(curve.values[1] - single) < 1e-9

    @pytest.mark.parametrize("spec,scheme,order", [
        (gc.constant_curvature(1.0, 2), "product_gauss", 16),
        (gc.constant_curvature(-1.0, 3), "product_gauss", 4),
        (gc.constant_curvature(2.0, 5), "monte_carlo", 64),
        (gc.constant_curvature(-0.5, 5), "monte_carlo", 64),
        (gc.flat_torus(np.eye(2)), "product_gauss", 16),
        (gc.flat_torus(np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]])),
         "product_gauss", 4),
    ], ids=lambda v: v.label if isinstance(v, gc.ManifoldSpec) else str(v))
    def test_matches_batched_reference(self, spec, scheme, order):
        # k = 1, 2, 4 normal dimensions, both signs of c, and tori
        x = gc.canonical_point(spec)
        quad = gc.unit_sphere_quadrature(spec.n, scheme, order, seed=5)
        grid, totals = gc.counting._counting_cumulative(spec, x, 3.0, quad, 1e-2)
        ref_grid, ref = _batched_reference(spec, x, 3.0, quad, 1e-2)
        assert np.array_equal(grid, ref_grid)
        assert totals[0] == 0.0
        rel = np.abs(totals[1:] - ref[1:]) / np.abs(ref[1:])
        assert float(np.max(rel)) <= 1e-13

    @pytest.mark.parametrize("step", [1e-3, 1e-2])
    @pytest.mark.parametrize("c", [1.0, -1.0, 0.0, 4.0])
    def test_eta_alone_equals_both_solution_kernel(self, c, step):
        # the counting loop propagates eta only; T = 2.345 is no multiple of step
        spec = gc.constant_curvature(c, 3)
        x = gc.canonical_point(spec)
        quad = gc.unit_sphere_quadrature(3, "product_gauss", 4)
        grid, totals = gc.counting._counting_cumulative(spec, x, 2.345, quad, step)
        _, cols = gc.flow._fundamental_solutions(lambda s: np.full_like(s, c), grid)
        intg = np.abs(cols[:, 2]) ** 2
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * np.diff(grid) * (intg[:-1] + intg[1:]))))
        assert np.array_equal(grid, gc.flow._grid(2.345, step))
        assert np.array_equal(totals, np.sum(quad.weights) * cum)

    @pytest.mark.parametrize("step", [1e-3, 1e-2])
    @pytest.mark.parametrize("c", [4.0, 1.0, 0.0, -1.0, -9.0])
    def test_constant_eta_equals_the_sampled_profile(self, c, step):
        # -c handed to the kernel directly gives the bits of -c sampled at
        # every stage node of every step
        grid = gc.flow._grid(2.345, step)
        _, inputs = gc.flow._rk4_inputs(lambda s: np.full_like(s, c), grid)
        want = gc.flow._rk4(inputs)[:, 2:].T
        got = np.array(gc.counting._constant_eta(c, grid))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("c, step, drift", [
        (4.0, 0.05, r"8\.32\de-06"), (400.0, 0.01, r"2\.65\de-03"),
        (5e4, 0.01, r"1\.000e\+00")])
    def test_inaccurate_step_is_refused(self, c, step, drift):
        # the gate of propagate_jacobi's Wronskian, on the energy
        # eta'^2 + c eta^2 = 1 to T = 30 (c = 4 at step 0.05: h sqrt(c) = 0.1)
        spec = gc.constant_curvature(c, 3)
        quad = gc.unit_sphere_quadrature(3, "product_gauss", 4)
        with pytest.raises(gc.IntegrationFailureError,
                           match=f"energy drift {drift} of the Jacobi solution "
                                 "exceeds 1e-08"):
            gc.berger_bott_total(spec, gc.canonical_point(spec), 30.0, quad, step)

    def test_overflowing_total_is_refused(self):
        # c = -100: eta ~ sinh(10 T) / 10 is accurate but eta^4 passes 1e308
        spec = gc.constant_curvature(-100.0, 5)
        quad = gc.unit_sphere_quadrature(5, "monte_carlo", 64)
        with pytest.raises(gc.IntegrationFailureError, match="overflows"):
            gc.berger_bott_total(spec, gc.canonical_point(spec), 30.0, quad, 1e-3)

    def test_curve_equals_separate_totals_on_the_verify_basis(self):
        # the torus battery reads T = 1, 2, 5 off one curve: its grids to
        # T = 1 and 2 are prefixes of the grid to T = 5
        spec = gc.flat_torus(_VERIFY_BASIS)
        x = gc.canonical_point(spec)
        quad = gc.unit_sphere_quadrature(3, "product_gauss", 16)
        curve = gc.berger_bott_curve(spec, x, [1.0, 2.0, 5.0], quad, step=1e-3)
        assert list(curve.values) == [gc.berger_bott_total(spec, x, T, quad, step=1e-3)
                                      for T in (1.0, 2.0, 5.0)]

    def test_dimension_mismatch(self):
        spec, x, _ = _torus_setup(2)
        quad3 = gc.unit_sphere_quadrature(3, "product_gauss", 8)
        with pytest.raises(gc.ConfigurationError):
            gc.berger_bott_total(spec, x, 1.0, quad3, 1e-2)

    @pytest.mark.parametrize("spec", [
        gc.constant_curvature(1.0, 3),
        gc.constant_curvature(-1.0, 3),
        gc.flat_torus(np.eye(3)),
    ], ids=lambda spec: spec.label)
    def test_total_reads_only_the_weights(self, spec):
        # both kinds that count are homogeneous: |det H| is the same in every
        # direction, so the nodes (zero, permuted or not unit) cannot move it
        quad = gc.unit_sphere_quadrature(3, "product_gauss", 4)
        x = gc.canonical_point(spec)
        want = gc.berger_bott_total(spec, x, 1.0, quad, 1e-2)
        order = np.random.default_rng(0).permutation(quad.size)
        for nodes in (np.zeros_like(quad.nodes), quad.nodes[order], 1.1 * quad.nodes):
            other = gc.SphereQuadrature(nodes, quad.weights, 3, quad.scheme)
            assert gc.berger_bott_total(spec, x, 1.0, other, 1e-2) == want

    def test_warped_products_unsupported(self):
        spec = gc.warped_product("one_plus_r2", 3)
        quad = gc.unit_sphere_quadrature(3, "product_gauss", 8)
        with pytest.raises(gc.ConfigurationError):
            gc.berger_bott_total(spec, gc.canonical_point(spec), 1.0, quad, 1e-2)


class TestCountingCurveInvariants:
    def test_rejects_decreasing_values(self):
        with pytest.raises(InputError):
            gc.CountingCurve(np.array([1.0, 2.0]), np.array([2.0, 1.0]), "m", "oracle")

    def test_rejects_nonzero_at_origin(self):
        with pytest.raises(InputError):
            gc.CountingCurve(np.array([0.0, 1.0]), np.array([0.5, 1.0]), "m", "oracle")

    def test_rejects_unsorted_T(self):
        with pytest.raises(InputError):
            gc.CountingCurve(np.array([2.0, 1.0]), np.array([1.0, 2.0]), "m", "oracle")

    @pytest.mark.parametrize("seed", range(20))
    def test_csv_bytes_equal_the_csv_module_writer(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 40))
        scale = 10.0 ** rng.uniform(-300, 300, size=2)
        T = np.cumsum(rng.exponential(size=size)) * scale[0]
        values = np.cumsum(rng.exponential(size=size) * (rng.random(size) < 0.8)) * scale[1]
        if seed % 2:
            T, values = np.concatenate(([0.0], T)), np.concatenate(([0.0], values))
        metadata = {f"key{i}": rng.choice(["a b", "1,2", "x=y", "", "é", str(rng.random())])
                    for i in range(int(rng.integers(0, 4)))}
        curve = gc.CountingCurve(T, values, "m", "oracle")
        curve.to_csv(tmp_path / "curve.csv", metadata if metadata else None)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            for key, val in metadata.items():
                fh.write(f"# {key}={val}\n")
            writer = csv.writer(fh)
            writer.writerow(["T", "value"])
            for t, v in zip(curve.T, curve.values):
                writer.writerow([format(t, ".17g"), format(v, ".17g")])
        assert (tmp_path / "curve.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestSphereArcOracle:
    def test_frozen_examples(self):
        assert gc.count_sphere_arcs(math.pi / 2, 2 * math.pi) == 2
        assert gc.count_sphere_arcs(1.0, 0.5) == 0
        assert gc.count_sphere_arcs(1.0, 100.0) == 32

    def test_matches_enumeration(self):
        # independent oracle: enumerate arc lengths d+2k*pi and 2k*pi-d
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = float(rng.uniform(0.05, math.pi - 0.05))
            T = float(rng.uniform(0.1, 60.0))
            expect = sum(1 for k in range(100) if 2 * k * math.pi + d <= T)
            expect += sum(1 for k in range(1, 100) if 2 * k * math.pi - d <= T)
            assert gc.count_sphere_arcs(d, T) == expect

    def test_input_validation(self):
        with pytest.raises(InputError):
            gc.count_sphere_arcs(0.0, 1.0)
        with pytest.raises(InputError):
            gc.count_sphere_arcs(math.pi, 1.0)


_SKEW_2 = np.array([[1.0, 0.3], [-0.2, 0.8]])
_SKEW_4 = np.array([[1.0, 0.2, 0.0, 0.1], [0.0, 1.0, 0.3, 0.0],
                    [0.1, 0.0, 0.9, 0.0], [0.0, 0.0, 0.0, 1.2]])
_TORUS_RECORDS = ["Wronskian conservation",
                  "gram-det identity det(H^T H) det((-1/f)') = 1",
                  "counting total vs volume formula"]


class TestTorusVerify:
    """On a flat torus the counting total is checked against |B_T| alone: the
    lattice arc counts, integrated over targets, unfold to that volume."""

    @pytest.mark.parametrize("basis,T,samples,seed", [
        (_VERIFY_BASIS, 5.0, 4000, 0),
        (_VERIFY_BASIS, 5.0, 4000, 1),
        (_VERIFY_BASIS, 5.0, 4000, 7),
        (_VERIFY_BASIS, 5.0, 4000, 42),
        (np.eye(2), 1.0, 20000, 0),
        (np.eye(2), 2.0, 20000, 0),
        (np.eye(2), 5.0, 20000, 0),
        (np.eye(2), 10.0, 20000, 0),
        (_SKEW_2, 3.0, 20000, 5),
        (_SKEW_4, 1.5, 2000, 4),
    ])
    def test_lattice_count_unfolds_to_the_ball(self, basis, T, samples, seed):
        # the pairwise lattice count, integrated over targets, against the
        # exact |B_T| and the counting total, at criterion 2's 0.02.  T is at
        # least a cell across, so the Monte Carlo noise is about 1e-4 here
        n = len(basis)
        spec = gc.flat_torus(basis)
        quad = gc.unit_sphere_quadrature(n, "product_gauss", 64 if n == 2 else 16)
        total = gc.berger_bott_total(spec, gc.canonical_point(spec), T, quad, 1e-3)
        exact = gc.manifolds.sphere_surface_area(n - 1) * T**n / n
        lattice = torus_count_monte_carlo(basis, T, samples, seed)
        assert abs(lattice - exact) <= 0.02 * exact
        assert abs(total - lattice) <= 0.02 * lattice

    @pytest.mark.parametrize("basis", [
        np.eye(2), _SKEW_2, _VERIFY_BASIS, _SKEW_4, np.eye(5) + 0.1 * np.tri(5, k=-1),
    ], ids=["n2", "n2-skew", "n3", "n4", "n5"])
    def test_battery_passes_on_lattices(self, basis):
        checks = verify.lemma_battery(gc.flat_torus(basis))
        n = len(basis)
        assert [chk["name"] for chk in checks] == [
            *_TORUS_RECORDS, f"growth classified polynomial({n})"]
        assert all(chk["passed"] for chk in checks)

    @pytest.mark.parametrize("argv", [
        # about 2e8 lattice points within reach of T = 5
        ["--n", "3", "--basis", "1e-5 0 0; 0 1 0; 0 0 1"],
        # a row length that squares past the float range
        ["--n", "2", "--basis", "1e200 0; 0 1"],
        # the unit lattice in six dimensions: 3.9e7 points within reach
        ["--n", "6"],
    ], ids=["thin", "long-row", "n6"])
    def test_verify_enumerates_no_lattice(self, tmp_path, argv):
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["verify", "--kind", "flat_torus", *argv,
                             "--out", str(out), "--quiet"])
        assert code == 0 and not caught
        report = json.loads((out / "verify_report.json").read_text())
        assert report["all_passed"]
        assert "counting total vs volume formula" in [
            chk["name"] for chk in report["checks"]]

    def test_volume_record_fails_on_scaled_totals(self, monkeypatch, tmp_path):
        # totals 2e-3 too large, at every cutoff: the volume record (1e-3)
        # fails, the growth class does not move, and verify exits 4
        curve = gc.counting.berger_bott_curve

        def scaled(*args, **kwargs):
            got = curve(*args, **kwargs)
            return gc.CountingCurve(got.T, got.values * (1.0 + 2e-3),
                                    got.manifold, got.method)
        monkeypatch.setattr(gc.counting, "berger_bott_curve", scaled)
        checks = {chk["name"]: chk for chk in verify.lemma_battery(
            gc.flat_torus(_VERIFY_BASIS))}
        assert not checks["counting total vs volume formula"]["passed"]
        assert [name for name, chk in checks.items() if not chk["passed"]] == [
            "counting total vs volume formula"]
        code = cli.main(["verify", "--kind", "flat_torus", "--n", "3",
                         "--basis", "1 0 0; 0.5 1 0; 0 0 2",
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 4


class TestClassifyGrowth:
    def test_exact_power_law(self):
        T = np.arange(1.0, 31.0)
        report = gc.classify_growth(gc.CountingCurve(T, math.pi * T**2, "m", "oracle"))
        assert report.kind == "polynomial" and report.degree == 2

    def test_hyperbolic_curve_is_exponential(self):
        # oracle: integral of 2*pi*sinh from 0 to T
        T = np.arange(1.0, 31.0)
        vals = 2 * math.pi * (np.cosh(T) - 1.0)
        report = gc.classify_growth(gc.CountingCurve(T, vals, "m", "oracle"))
        assert report.kind == "exponential"
        assert abs(report.rate - 1.0) < 0.05

    def test_round_sphere_linear(self):
        spec, x, quad = _sphere_setup()
        curve = gc.berger_bott_curve(spec, x, np.arange(1.0, 31.0), quad, 1e-2)
        report = gc.classify_growth(curve)
        assert report.kind == "polynomial" and report.degree == 1

    def test_minimum_sample_count_classifies(self):
        T = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 9.0, 12.0])
        report = gc.classify_growth(gc.CountingCurve(T, T**2, "m", "oracle"))
        assert report.kind == "polynomial" and report.degree == 2

    @pytest.mark.parametrize("scale", [0.1, 10.0])
    def test_scaling_invariance(self, scale):
        T = np.arange(1.0, 31.0)
        base = gc.classify_growth(gc.CountingCurve(T, T**3, "m", "oracle"))
        scaled = gc.classify_growth(
            gc.CountingCurve(T, scale * T**3, "m", "oracle"))
        assert (base.kind, base.degree) == (scaled.kind, scaled.degree)

    def test_subnormal_cutoff_spans_its_decades_without_overflow(self):
        # max T / min T overflows for a subnormal min T; RuntimeWarnings are
        # errors under the test configuration
        T = np.concatenate([[5e-324], np.arange(1.0, 12.0)])
        report = gc.classify_growth(gc.CountingCurve(T, T**2, "m", "oracle"))
        assert report.kind == "polynomial" and report.degree == 2
        with pytest.raises(InputError):
            gc.classify_growth(gc.CountingCurve(
                np.linspace(1.0, 9.0, 12) * 1e307, np.arange(1.0, 13.0), "m", "oracle"))

    def test_preconditions(self):
        with pytest.raises(InputError):
            gc.classify_growth(gc.CountingCurve(
                np.arange(1.0, 7.0), np.arange(1.0, 7.0), "m", "oracle"))
        with pytest.raises(InputError):
            gc.classify_growth(gc.CountingCurve(
                np.linspace(1.0, 5.0, 12), np.linspace(1.0, 5.0, 12), "m", "oracle"))


class TestBettiSums:
    def test_catalog_values(self):
        assert gc.loop_space_betti_partial_sums("sphere", 2, 5) == 5
        assert gc.loop_space_betti_partial_sums("sphere", 3, 5) == 3
        for n in (2, 3, 4, 7):
            assert gc.loop_space_betti_partial_sums("sphere", n, 1) == 1

    def test_matches_degree_enumeration(self):
        for n in (2, 3, 5):
            for k in range(1, 40):
                expect = sum(1 for j in range(k) if j % (n - 1) == 0)
                assert gc.loop_space_betti_partial_sums("sphere", n, k) == expect

    def test_out_of_catalog(self):
        with pytest.raises(CatalogError):
            gc.loop_space_betti_partial_sums("projective_plane", 2, 3)
        with pytest.raises(InputError):
            gc.loop_space_betti_partial_sums("sphere", 1, 3)


def _gromov_check(K, C, **kwargs):
    """The inequality on the round 2-sphere at the one constant C."""
    sphere = gc.constant_curvature(1.0, 2)
    return gc.search_gromov_constant(sphere, K, [C], **kwargs)["checks"][0]


class TestGromov:
    def test_generous_constant_holds(self):
        chk = _gromov_check(20, 10.0, quad_order=32, step=2e-2)
        assert chk.holds and chk.first_failure_k is None

    def test_tiny_constant_fails(self):
        chk = _gromov_check(20, 0.1, quad_order=32, step=1e-3)
        assert not chk.holds
        assert chk.first_failure_k is not None

    def test_single_step_with_huge_constant(self):
        chk = _gromov_check(1, 50.0, quad_order=16, step=2e-2)
        assert chk.holds

    @pytest.mark.parametrize("c_grid", [(), (0.0, 1.0), (-1.0,)])
    def test_empty_or_nonpositive_grid_refused(self, c_grid):
        with pytest.raises(InputError, match="c_grid must be positive"):
            gc.search_gromov_constant(gc.constant_curvature(1.0, 2), 2, c_grid)

    @pytest.mark.parametrize("spec", [gc.constant_curvature(2.0, 3),
                                      gc.constant_curvature(-1.0, 2),
                                      gc.flat_torus(np.eye(2))],
                             ids=["c=2", "c=-1", "torus"])
    def test_only_the_unit_round_sphere(self, spec):
        with pytest.raises(InputError, match="unit round sphere"):
            gc.search_gromov_constant(spec, 2, (1.0,))

    def test_search_reports_minimal(self):
        res = gc.search_gromov_constant(gc.constant_curvature(1.0, 2), 20,
                                        (0.5, 5.0), quad_order=32, step=2e-2)
        assert res["minimal_passing_C"] == 5.0
        assert [chk.holds for chk in res["checks"]] == [False, True]


# (c, n, T, value): the counting total area(S^(n-1)) * integral_0^T |eta|^(n-1)
# at 40 digits (mpmath quadrature between the zeros of eta, offline),
# rounded to 17.  T is verify's cutoff 2 / sqrt(max(1, c)), and three longer
# cutoffs cross zeros of eta
_COUNTING_TOTALS = [
    (-4.0, 3, 2.0, 5.8216807352535922e+2),
    (-4.0, 41, 2.0, 1.7996954789465421e+36),
    (-4.0, 200, 2.0, 2.0198003153735449e+117),
    (-1.9863799781293743, 3, 2.0, 1.5121050911752633e+2),
    (-1.9863799781293743, 41, 2.0, 8.093846013903322e+21),
    (-1.9863799781293743, 200, 2.0, 2.1697331978047615e+45),
    (0.0, 3, 2.0, 3.3510321638291128e+1),
    (0.0, 41, 2.0, 3.0842728458760764e+3),
    (0.0, 200, 2.0, 8.9326999755308404e-49),
    (0.5, 3, 2.0, 2.239528785297136e+1),
    (0.5, 41, 2.0, 5.3402209994617074e-3),
    (0.5, 200, 2.0, 3.3362097466407452e-79),
    (1.0, 3, 2.0, 1.4943935773836984e+1),
    (1.0, 41, 2.0, 2.258678837266778e-8),
    (1.0, 200, 2.0, 1.9730196582898793e-107),
    (4.0, 3, 1.0, 1.867991971729623),
    (4.0, 41, 1.0, 1.0271282177503863e-20),
    (4.0, 200, 1.0, 1.2278131477058737e-167),
    (1.0, 3, 10.0, 5.9963750978980258e+1),
    (4.0, 200, 7.0, 4.943374178975985e-167),
    (0.5, 28, 20.0, 1.0348325812825661e+2),
]


class TestClosedFormIntegrandOracle:
    @pytest.mark.parametrize("c, n, T, value", _COUNTING_TOTALS)
    def test_oracle_equals_the_reference(self, c, n, T, value):
        # relative 1e-13: the quadrature itself is exact to ~1e-15 (halving
        # its panels below moves it less than 1e-14); |eta|^k and the area's
        # pi^(n/2) carry the float rounding of eta and pi about k-fold
        got = verify._oracle_counting_total(gc.constant_curvature(c, n), T)
        assert abs(got - value) <= 1e-13 * value

    @pytest.mark.parametrize("c, n, T, value", _COUNTING_TOTALS)
    def test_halving_the_panels_moves_less_than_1e_14(self, c, n, T, value):
        spec = gc.constant_curvature(c, n)
        k = n - 1
        width = 4.0 / max(4.0, k * math.sqrt(abs(c)), k / T)
        got = verify._oracle_counting_total(spec, T)
        assert abs(verify._oracle_counting_total(spec, T, 0.5 * width) - got) <= 1e-14 * got
