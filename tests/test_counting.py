import math
import warnings

import numpy as np
import pytest

import geocount as gc
from geocount import cli
from geocount.errors import CatalogError, InputError


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
    dirs = quad.nodes @ gc.tangent_frame(spec, x)
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


def _pairwise_oracle_reference(basis, T, samples, seed=0):
    """The torus Monte Carlo oracle that tests every target x lattice pair,
    as a reference for the sub-cell pruned oracle."""
    budget = 2_000_000
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    if T <= 0:
        return 0.0
    rng = np.random.default_rng(seed)
    binv = np.linalg.inv(basis)
    diam = float(np.sum(np.linalg.norm(basis, axis=1)))
    reach = T + diam
    bounds = [int(math.ceil(reach * np.linalg.norm(binv[:, i]))) + 1 for i in range(n)]
    axes = [np.arange(-b, b + 1) for b in bounds]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    vecs = mesh @ basis
    vecs = vecs[np.linalg.norm(vecs, axis=1) <= reach]

    total = 0
    chunk = max(1, budget // max(1, len(vecs)))
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        y = rng.random((take, n)) @ basis
        d2 = np.sum((y[:, None, :] + vecs[None, :, :]) ** 2, axis=2)
        total += int(np.count_nonzero(d2 <= T * T))
        done += take
    vol = abs(float(np.linalg.det(basis)))
    return vol * total / samples


class _FixedStream:
    """Stands in for a numpy Generator: random() hands out the given rows in
    order."""

    def __init__(self, rows):
        self.rows = rows
        self.pos = 0

    def random(self, shape):
        out = self.rows[self.pos:self.pos + shape[0]]
        self.pos += shape[0]
        return out


_VERIFY_BASIS = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]])
# passes flat_torus (det 1e-5), but its coefficient box at T = 5 has about
# 5e8 points
_THIN_BASIS = np.diag([1e-5, 1.0, 1.0])


class TestIntegrand:
    def test_round_sphere_unit_value(self):
        spec, x, _ = _sphere_setup(2)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 2.0, 1e-3)
        js = gc.propagate_jacobi(spec, traj)
        # linear interpolation between samples: O(step^2) at the maximum
        assert abs(gc.berger_bott_integrand(js, math.pi / 2) - 1.0) < 1e-6

    def test_flat_power_value(self):
        spec = gc.constant_curvature(0.0, 3)
        x = gc.canonical_point(spec)
        theta = gc.tangent_frame(spec, x)[0]
        traj = gc.integrate_geodesic(spec, x, theta, 3.0, 1e-3)
        js = gc.propagate_jacobi(spec, traj)
        assert abs(gc.berger_bott_integrand(js, 2.0) - 4.0) < 1e-8

    def test_vanishes_at_zero(self):
        spec = gc.warped_product("two_plus_cos", 3)
        x = gc.canonical_point(spec)
        traj = gc.integrate_geodesic(spec, x, np.array([1.0, 0, 0, 0]), 1.0, 1e-3)
        js = gc.propagate_jacobi(spec, traj)
        assert gc.berger_bott_integrand(js, 0.0) == 0.0


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
        _, inputs = gc.flow._rk4_inputs(lambda s: np.full_like(s, c), grid, 1)
        want = np.array(gc.flow._rk4(inputs, 1, 0.0, 1.0))
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
    def test_non_unit_direction_names_its_index(self, spec):
        quad = gc.unit_sphere_quadrature(3, "product_gauss", 4)
        nodes = quad.nodes.copy()
        nodes[5] *= 1.1
        bad = gc.SphereQuadrature(nodes, quad.weights, 3, quad.scheme)
        with pytest.raises(gc.IntegrationFailureError,
                           match=r"direction 5: manifolds: direction has metric "
                                 r"norm\^2 = 1\.21\d*, expected 1"):
            gc.berger_bott_total(spec, gc.canonical_point(spec), 1.0, bad, 1e-2)

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


class TestTorusLatticeOracle:
    def test_frozen_examples(self):
        eye = np.eye(2)
        zero = np.zeros(2)
        assert gc.count_torus_lattice(eye, zero, zero, 1.0) == 5
        assert gc.count_torus_lattice(eye, zero, np.array([0.5, 0.0]), 0.4) == 0
        assert gc.count_torus_lattice(eye, zero, zero, 2.0) == 13

    def test_skew_basis_vs_brute_force(self):
        basis = np.array([[1.0, 0.3], [-0.2, 0.8]])
        x = np.array([0.1, 0.05])
        y = np.array([0.4, -0.3])
        diff = y - x
        brute = 0
        for i in range(-20, 21):
            for j in range(-20, 21):
                if np.linalg.norm(diff + i * basis[0] + j * basis[1]) <= 3.0:
                    brute += 1
        assert gc.count_torus_lattice(basis, x, y, 3.0) == brute

    def test_monte_carlo_matches_disk_area(self):
        # each target contributes the lattice points of a disk: the mean
        # count times the cell volume is Vol(B_T)
        val = gc.torus_count_integral_oracle(np.eye(2), 5.0, 100000, seed=0)
        assert abs(val - math.pi * 25.0) <= 0.01 * math.pi * 25.0
        val1 = gc.torus_count_integral_oracle(np.eye(2), 1.0, 100000, seed=0)
        assert abs(val1 - math.pi) <= 0.02 * math.pi

    def test_monte_carlo_deterministic(self):
        a = gc.torus_count_integral_oracle(np.eye(2), 2.0, 5000, seed=11)
        b = gc.torus_count_integral_oracle(np.eye(2), 2.0, 5000, seed=11)
        assert a == b

    def test_chunk_budget_does_not_change_the_count(self, monkeypatch):
        # chunks draw consecutive rows of one random stream, so any budget
        # gives the same targets and the same integer count
        basis = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]])
        full = gc.torus_count_integral_oracle(basis, 2.0, 3000, seed=3)
        for budget in (1, 1000):  # one target per chunk; a few per chunk
            monkeypatch.setattr(gc.counting, "_ORACLE_PAIR_BUDGET", budget)
            assert gc.torus_count_integral_oracle(basis, 2.0, 3000, seed=3) == full

    def test_zero_cutoff_limit(self):
        assert gc.torus_count_integral_oracle(np.eye(2), 0.0, 100, seed=0) == 0.0

    def test_oracle_equivalence_with_integral(self):
        spec, x, quad = _torus_setup()
        for T in (1.0, 2.0, 5.0, 10.0):
            bb = gc.berger_bott_total(spec, x, T, quad, 1e-3)
            orc = gc.torus_count_integral_oracle(np.eye(2), T, 100000, seed=0)
            assert abs(bb - orc) / max(1.0, orc) <= 0.02


class TestOraclePruning:
    """The sub-cell pruned oracle counts exactly what the pairwise test
    counts: == on the returned float."""

    @pytest.mark.parametrize("basis,T,samples,seed", [
        (_VERIFY_BASIS, 5.0, 4000, 0),
        (_VERIFY_BASIS, 5.0, 4000, 1),
        (_VERIFY_BASIS, 5.0, 4000, 7),
        (_VERIFY_BASIS, 5.0, 4000, 42),
        (np.eye(2), 0.3, 20000, 0),
        (np.eye(2), 1.0, 20000, 0),
        (np.eye(2), 2.0, 20000, 0),
        (np.eye(2), 5.0, 20000, 0),
        (np.eye(2), 10.0, 20000, 0),
        (np.array([[1.0, 0.3], [-0.2, 0.8]]), 3.0, 20000, 5),
        (np.array([[1.0, 0.2, 0.0, 0.1], [0.0, 1.0, 0.3, 0.0],
                   [0.1, 0.0, 0.9, 0.0], [0.0, 0.0, 0.0, 1.2]]), 1.5, 2000, 4),
    ])
    def test_equals_pairwise_reference(self, basis, T, samples, seed):
        assert (gc.torus_count_integral_oracle(basis, T, samples, seed)
                == _pairwise_oracle_reference(basis, T, samples, seed))

    def test_sample_count_off_the_chunk_size(self, monkeypatch):
        monkeypatch.setattr(gc.counting, "_ORACLE_PAIR_BUDGET", 1000)
        # about 50 lattice vectors within T + diam: chunks of about 20 targets
        samples = 1013
        val = gc.torus_count_integral_oracle(np.eye(2), 2.0, samples, seed=9)
        assert val == _pairwise_oracle_reference(np.eye(2), 2.0, samples, seed=9)

    def test_cutoff_below_the_sub_cell_size(self):
        # sub-cells of the unit square are 1/22 wide, about 0.064 across:
        # no lattice vector is within T of a whole sub-cell
        basis, T = np.eye(2), 0.03
        vecs = np.array([[i, j] for i in range(-3, 4) for j in range(-3, 4)], float)
        m = gc.counting._oracle_cells_per_axis(basis)
        sure, _, lens, _ = gc.counting._oracle_cells(basis, vecs, T, T + 2.0, m)
        assert m == (22, 22) and not np.any(sure) and np.sum(lens) > 0
        assert (gc.torus_count_integral_oracle(basis, T, 5000, seed=2)
                == _pairwise_oracle_reference(basis, T, 5000, seed=2))

    def test_largest_coefficients_fall_in_the_last_sub_cell(self, monkeypatch):
        # the largest double below 1 times m rounds below m, for every m the
        # oracle can use (at most 2^9 sub-cells along one axis), so
        # floor(u*m) never leaves the grid
        top = np.nextafter(1.0, 0.0)
        for m in range(1, 2**9 + 1):
            assert int(top * m) == m - 1
        for basis in (np.eye(3), _VERIFY_BASIS, np.diag([0.01, 0.01, 1.0])):
            assert max(gc.counting._oracle_cells_per_axis(basis)) <= 2**9
        rows = np.array([[top, top], [top, 0.5], [0.0, top], [0.3, 0.7]])
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _FixedStream(rows))
        basis = np.array([[1.0, 0.3], [-0.2, 0.8]])
        for T in (0.5, 2.0):
            assert (gc.torus_count_integral_oracle(basis, T, len(rows))
                    == _pairwise_oracle_reference(basis, T, len(rows)))


    def test_thin_basis_equals_pairwise_reference(self):
        # 326 773 lattice vectors within reach, 172 sub-cells of 0.01 x 0.01
        # x 1/172: the shell is thin although the box is large
        basis = np.diag([0.01, 0.01, 1.0])
        assert (gc.torus_count_integral_oracle(basis, 1.0, 50, seed=0)
                == _pairwise_oracle_reference(basis, 1.0, 50, seed=0))

    @pytest.mark.parametrize("basis,expected", [
        (np.eye(2), (22, 22)),
        (np.eye(3), (8, 8, 8)),
        (np.eye(4), (4, 4, 4, 4)),
        (1.1 * np.eye(3), (8, 8, 8)),
        (_VERIFY_BASIS, (6, 6, 12)),
        (np.diag([0.01, 0.01, 1.0]), (1, 1, 172)),
        (np.diag([1e-3, 1.0, 1.0]), (1, 22, 22)),
    ])
    def test_sub_cells_per_axis(self, basis, expected):
        assert gc.counting._oracle_cells_per_axis(basis) == expected

    def test_sub_cells_per_axis_follow_the_row_norms(self):
        # sub-cells are about round: every edge |b_i| / m_i is shorter than
        # twice the shortest edge of an axis split more than once
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            for _ in range(50):
                basis = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2, 1, (n, 1))
                m = np.array(gc.counting._oracle_cells_per_axis(basis))
                edges = np.linalg.norm(basis, axis=1) / m
                split = m > 1
                assert np.prod(m) <= 2**9 and np.any(split)
                assert np.max(edges) < 2.0 * np.min(edges[split])

    def test_round_sub_cells_shrink_the_shell(self):
        # work counter in place of a time bound: the verify basis at T = 5
        # builds fewer shell indices than the cubic 8 x 8 x 8 split did
        basis, T = _VERIFY_BASIS, 5.0
        reach = T + float(np.sum(np.linalg.norm(basis, axis=1)))
        vecs = gc.counting._lattice_box(basis, reach, "test")
        vecs = vecs[np.linalg.norm(vecs, axis=1) <= reach]
        _, _, cube_lens, _ = gc.counting._oracle_cells(basis, vecs, T, reach, (8, 8, 8))
        m = gc.counting._oracle_cells_per_axis(basis)
        _, _, lens, flat = gc.counting._oracle_cells(basis, vecs, T, reach, m)
        assert np.sum(cube_lens) == 27_112
        assert len(flat) == np.sum(lens) <= 27_112

    def test_targets_on_the_sure_and_impossible_radii(self, monkeypatch):
        # Sub-cell (0, 0) of the unit square has centre c = (1, 1)/44 and
        # radius r = sqrt(2)/44, and its far corner lies on the ray through
        # c.  For v = (1, 1) the corner target is at |c + v| + r, for
        # v = (-1, -1) at |c + v| - r; cutoffs 1e-12 relative inside and
        # outside of these put the sub-cell 1e-12 T from the sure and the
        # impossible radius, where only the slack sends v to the pairwise test.
        u = np.nextafter(1.0 / 22.0, 0.0)
        rows = np.array([[u, u], [0.5, 0.5]])
        assert np.all((rows[0] * 22).astype(int) == 0)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _FixedStream(rows))
        for T in (math.sqrt(2.0) * (23.0 / 22.0) * (1.0 - 1e-12),
                  math.sqrt(2.0) * (21.0 / 22.0) * (1.0 + 1e-12)):
            assert (gc.torus_count_integral_oracle(np.eye(2), T, len(rows))
                    == _pairwise_oracle_reference(np.eye(2), T, len(rows)))


class TestLatticeBoxGuard:
    """The coefficient box is sized before it is built; these tests never
    build a large one."""

    def _forbid_meshgrid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("meshgrid called on an oversized box")
        monkeypatch.setattr(np, "meshgrid", refuse)

    def test_oracle_refuses_before_allocating(self, monkeypatch):
        self._forbid_meshgrid(monkeypatch)
        with pytest.raises(InputError, match="505401805 lattice points"):
            gc.torus_count_integral_oracle(_THIN_BASIS, 5.0, 20000, seed=0)

    def test_lattice_count_refuses_before_allocating(self, monkeypatch):
        self._forbid_meshgrid(monkeypatch)
        with pytest.raises(InputError, match="lattice points, more than the cap"):
            gc.count_torus_lattice(_THIN_BASIS, np.zeros(3), np.zeros(3), 5.0)

    def test_infinite_cutoff_is_an_input_error(self, monkeypatch):
        self._forbid_meshgrid(monkeypatch)
        with pytest.raises(InputError, match="not finite"):
            gc.count_torus_lattice(np.eye(2), np.zeros(2), np.zeros(2), math.inf)

    def test_eight_dimensions_are_refused(self, monkeypatch):
        # every axis of the box has at least 7 points from n = 2 on, and
        # 7^8 is above the cap: the oracle's shell sum runs for n <= 7 only
        self._forbid_meshgrid(monkeypatch)
        with pytest.raises(InputError, match="more than the cap"):
            gc.torus_count_integral_oracle(np.eye(8), 1e-3, 10)

    def test_basis_too_long_to_square_exits_2_without_warnings(self, tmp_path, capsys):
        # the row length 1e200 squares past the float range: the oracle's
        # reach is inf, which the box refuses, with no overflow warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["verify", "--kind", "flat_torus", "--n", "2",
                             "--basis", "1e200 0; 0 1",
                             "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert "the coefficient box for reach inf is not finite" in capsys.readouterr().err
        assert not caught

    def test_verify_exits_2(self, tmp_path, capsys):
        code = cli.main(["verify", "--kind", "flat_torus", "--n", "3",
                         "--basis", "1e-5 0 0; 0 1 0; 0 0 1",
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert "505401805 lattice points" in capsys.readouterr().err


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
