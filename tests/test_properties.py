"""Property tests: malformed input is refused with a validation error,
count/growth, verify and gromov runs over a bounded parameter box (space
forms, flat tori on random bases, warped products) end with a documented
exit code (0 ok, 2 validation, 3 numerical failure, 4 verification failure;
a RuntimeWarning is an error under the suite's warning filter), herglotz
runs for c in {0} U [1e-3, 400] pass every check, the certified Stieltjes
scan finds the peaks of the full-grid scan, and frames and geodesics at
random points pass their checks."""

import dataclasses
import math
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import geocount as gc
from geocount import cli, flow, herglotz
from geocount import manifolds as mf
from geocount.errors import (CatalogError, ConfigurationError, InputError,
                             IntegrationFailureError)
from geocount.herglotz import HerglotzMatrix
from geocount.manifolds import WARP_CATALOG
from matrix_forms import random_point

# every manifest key, as the INI spells it
INI_KEYS = tuple(row.key.lower() for row in cli.FLAGS.values() if row.key is not None)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(key=st.sampled_from(INI_KEYS),
       text=st.text(alphabet="0123456789.:,;- eEinfa", max_size=16))
def test_malformed_list_text_raises_only_validation_errors(key, text):
    raw = {"manifold.n": "2", key: text}
    if key == "manifold.basis":
        raw["manifold.kind"] = "flat_torus"
    try:
        cli.build_manifest(raw, task="count").validate()
    except (InputError, ConfigurationError, CatalogError):
        pass


@settings(derandomize=True, deadline=None, max_examples=60)
@given(task=st.sampled_from(["count", "growth"]),
       c=st.floats(-9.0, 9.0),
       n=st.sampled_from([2, 3, 4]),
       ends=st.lists(st.floats(0.0, 40.0), min_size=2, max_size=2),
       count=st.integers(1, 12),
       step=st.floats(1e-3, 0.5),
       order=st.integers(1, 12))
def test_count_and_growth_exit_with_a_documented_code(task, c, n, ends, count,
                                                      step, order):
    lo, hi = sorted(ends)
    with tempfile.TemporaryDirectory() as out:
        code = cli.main([task, f"--c={c!r}", "--n", str(n),
                         f"--T={lo!r}:{hi!r}:{count}",
                         f"--step={step!r}", "--quad-order", str(order),
                         "--out", out, "--quiet"])
    assert code in (0, 2, 3, 4)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(kind=st.one_of(
           st.builds(lambda c, n: [f"--c={c!r}", "--n", str(n)],
                     st.floats(-30.0, 30.0), st.integers(2, 60)),
           st.builds(lambda warp, n: ["--kind", "warped_product", "--warp", warp,
                                      "--n", str(n)],
                     st.sampled_from(sorted(WARP_CATALOG)), st.integers(2, 6))),
       seed=st.integers(0, 1000))
@example(kind=["--c=-25.0", "--n", "3"], seed=0)
def test_verify_exits_with_a_documented_code(kind, seed):
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(["verify", *kind, "--seed", str(seed), "--out", out,
                         "--quiet"])
    assert code in (0, 2, 3, 4)


def _basis_text(entries, n):
    return ";".join(" ".join(repr(v) for v in entries[i * n:(i + 1) * n])
                    for i in range(n))


# a flat torus on a random basis, as CLI flags; singular bases are refused
# (exit 2)
_TORI = st.integers(2, 4).flatmap(lambda n: st.builds(
    lambda entries: ["--kind", "flat_torus", "--n", str(n),
                     f"--basis={_basis_text(entries, n)}"],
    st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n)))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(task=st.sampled_from(["count", "growth"]),
       torus=_TORI,
       lo=st.floats(0.0, 20.0),
       span=st.floats(0.0, 20.0),
       count=st.integers(1, 12),
       step=st.floats(1e-3, 0.5),
       order=st.integers(1, 12))
def test_count_and_growth_on_random_tori_exit_with_a_documented_code(
        task, torus, lo, span, count, step, order):
    with tempfile.TemporaryDirectory() as out:
        code = cli.main([task, *torus, f"--T={lo!r}:{lo + span!r}:{count}",
                         f"--step={step!r}", "--quad-order", str(order),
                         "--out", out, "--quiet"])
    assert code in (0, 2, 3, 4)


@settings(derandomize=True, deadline=None, max_examples=5)
@given(torus=_TORI, seed=st.integers(0, 1000))
def test_verify_on_random_tori_exits_with_a_documented_code(torus, seed):
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(["verify", *torus, "--seed", str(seed), "--out", out,
                         "--quiet"])
    assert code in (0, 2, 3, 4)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(n=st.integers(2, 4), K=st.integers(1, 30),
       c_grid=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4),
       step=st.floats(1e-2, 0.1), order=st.integers(1, 12))
def test_gromov_on_the_unit_sphere_exits_with_a_documented_code(n, K, c_grid,
                                                                step, order):
    grid = ",".join(repr(c) for c in c_grid)
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(["gromov", "--c", "1", "--n", str(n), "--K", str(K),
                         f"--c-grid={grid}", f"--step={step!r}",
                         "--quad-order", str(order), "--out", out, "--quiet"])
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("task", ["count", "growth"])
@pytest.mark.parametrize("warp", sorted(WARP_CATALOG))
def test_count_and_growth_refuse_every_warp_with_exit_2(task, warp, capsys):
    # counting needs direction quadrature; a warped product has radial rays only
    with tempfile.TemporaryDirectory() as out:
        code = cli.main([task, "--kind", "warped_product", "--warp", warp,
                         "--n", "3", "--out", out, "--quiet"])
    assert code == 2
    assert "radial geodesics only" in capsys.readouterr().err


@pytest.mark.parametrize("warp", sorted(WARP_CATALOG))
def test_verify_every_warp_exits_with_a_documented_code(warp):
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(["verify", "--kind", "warped_product", "--warp", warp,
                         "--n", "3", "--out", out, "--quiet"])
    assert code in (0, 2, 3, 4)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(c=st.one_of(st.just(0.0), st.floats(1e-3, 400.0)),
       n=st.integers(2, 60))
@example(c=1.0, n=34)  # the first n whose k-copy trace crossed the mass bound
def test_herglotz_passes_every_check(c, n):
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(["herglotz", f"--c={c!r}", "--n", str(n), "--out", out,
                         "--quiet"])
    assert code == 0


def _full_grid_peaks(Fh, a, b, npts, tau, threshold):
    """The atom scan before the coarse pass: every point of the grid
    np.linspace(a, b, npts) built and evaluated."""
    im = herglotz._im_phi(Fh, np.linspace(a, b, npts), tau)
    mid = im[1:-1]
    return np.flatnonzero((mid > threshold / tau)
                          & (mid >= im[:-2]) & (mid >= im[2:])) + 1


def _scan_grid(a, length, tau):
    """(a, b, npts) of the grid stieltjes_invert scans at its smallest tau."""
    h = min(tau / 2.0, length / 2000.0)
    return a, a + length, int(math.ceil(length / h)) + 1


@settings(derandomize=True, deadline=None, max_examples=30)
@given(c=st.floats(0.0, 9.0),
       n=st.integers(2, 10),
       lead=st.floats(0.05, 2.0),
       length=st.floats(0.1, 3.0),
       tau=st.floats(2e-5, 1e-3),
       threshold=st.sampled_from([0.1, 1e-3, 3.0]))
def test_certified_scan_finds_the_full_grid_peaks(c, n, lead, length, tau, threshold):
    # the interval starts lead before the atom at 0 and may reach the next ones
    Gh = HerglotzMatrix.from_constant_curvature(c, n).neg_inverse_function()
    grid = _scan_grid(-lead, length, tau)
    want = _full_grid_peaks(Gh, *grid, tau, threshold)
    assert np.array_equal(herglotz._scan_peaks(Gh, *grid, tau, threshold), want)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(scale=st.floats(0.01, 300.0),
       a=st.floats(-2.0, 2.0),
       tau=st.floats(1e-4, 1e-3))
def test_certified_scan_on_a_constant_function(scale, a, tau):
    # Im F = scale * Id everywhere: either no grid point clears the threshold
    # or every interior point is a (flat) peak; a user-built profile
    Fh = HerglotzMatrix(profile=lambda z: np.full(z.shape, 1j * scale), dim=2,
                        pole_distance=lambda z: np.full(z.shape, np.inf))
    grid = _scan_grid(a, 0.05, tau)
    want = _full_grid_peaks(Fh, *grid, tau, 0.1)
    assert np.array_equal(herglotz._scan_peaks(Fh, *grid, tau, 0.1), want)


def _masked_grid_peaks(Fh, a, b, npts, tau, threshold):
    """The scan with the whole grid built: the coarse pass's skipped blocks
    stand at -inf, every other point is evaluated.  Returns the peaks and
    the mask of kept points."""
    grid = np.linspace(a, b, npts)
    h = (b - a) / (npts - 1)
    tau_c = max(0.5 * herglotz.SCAN_BLOCK * h, tau)
    centres = a + (herglotz.SCAN_BLOCK * np.arange(-(-npts // herglotz.SCAN_BLOCK))
                   + 0.5 * (herglotz.SCAN_BLOCK - 1)) * h
    skip = 6.0 * tau_c * herglotz._im_phi(Fh, centres, tau_c) < threshold
    kept = ~np.repeat(skip, herglotz.SCAN_BLOCK)[:npts]
    im = np.full(npts, -np.inf)
    im[kept] = herglotz._im_phi(Fh, grid[kept], tau)
    mid = im[1:-1]
    peaks = np.flatnonzero((mid > threshold / tau)
                           & (mid >= im[:-2]) & (mid >= im[2:])) + 1
    return peaks, kept


@settings(derandomize=True, deadline=None, max_examples=50)
@given(a=st.floats(-1e3, 1e3), length=st.floats(1e-6, 1e4), npts=st.integers(2, 5000))
def test_grid_points_are_those_of_linspace(a, length, npts):
    # the scan forms its points without the grid, with np.linspace's bits
    b = a + length
    assume(a < b)
    got = herglotz._linspace_at(a, b, npts, np.arange(npts))
    assert got.tobytes() == np.linspace(a, b, npts).tobytes()


def test_scan_of_the_kept_blocks_equals_the_masked_grid_scan():
    # Im phi = 1 + cos(freq sigma + phase) ignores tau: not Herglotz, and
    # from freq = 1e3 on it turns within a block (spacing 1e-5), so the
    # coarse pass keeps blocks next to skipped ones that hold peaks; a kept
    # block's end point there must be a peak exactly when it is with -inf
    # beyond it
    rng = np.random.default_rng(5)
    beside_skipped = 0
    for _ in range(60):
        freq = float(10.0 ** rng.uniform(3.0, 6.0))
        phase = float(rng.uniform(0.0, 2 * math.pi))
        def profile(z, freq=freq, phase=phase):
            return 1j * (1.0 + np.cos(freq * z.real + phase))

        Fh = HerglotzMatrix(profile=profile, dim=1,
                            pole_distance=lambda z: np.full(z.shape, np.inf))
        a = float(rng.uniform(-2.0, 2.0))
        npts = int(rng.integers(3, 3000))
        tau = float(rng.uniform(1e-4, 1e-3))
        b = a + 1e-5 * (npts - 1)
        want, kept = _masked_grid_peaks(Fh, a, b, npts, tau, 1.5 * tau)
        assert np.array_equal(herglotz._scan_peaks(Fh, a, b, npts, tau, 1.5 * tau), want)
        beside_skipped += int(np.sum(~kept[want - 1] | ~kept[want + 1]))
    assert beside_skipped > 0


_KINDS = ["sphere", "hyperboloid", "flat", "torus", *sorted(WARP_CATALOG)]


def _spec(kind, size, n):
    """A spec of the kind named; space forms have |c| = 10^size."""
    if kind in ("sphere", "hyperboloid"):
        return gc.constant_curvature((1.0 if kind == "sphere" else -1.0) * 10.0**size, n)
    if kind == "flat":
        return gc.constant_curvature(0.0, n)
    if kind == "torus":
        return gc.flat_torus(2.0 * np.eye(n))
    return gc.warped_product(kind, n)


@settings(derandomize=True, deadline=None, max_examples=29)
@given(kind=st.sampled_from(_KINDS), size=st.floats(-1.0, 2.0),
       n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
@example(kind="hyperboloid", size=1.4, n=57, seed=59)  # failed with Gram-Schmidt
def test_frames_at_random_points_are_orthonormal_and_normal(kind, size, n, seed):
    # Gram-Schmidt left defects up to 8e-9 on the hyperboloid
    spec = _spec(kind, size, n)
    x, theta = random_point(spec, np.random.default_rng(seed))
    g = mf.metric_diagonal(spec, x)
    model = []
    if spec.kind == mf.CONSTANT_CURVATURE and spec.c != 0:
        model = [x]
    elif spec.kind == mf.WARPED_PRODUCT:
        model = [np.concatenate(([0.0], x[1:]))]
    for normals in ([], [theta]):
        frame = gc.orthonormal_frame(spec, x, normals)
        assert frame.shape == (n - len(normals), len(x))
        assert np.max(np.abs((frame * g) @ frame.T - np.eye(len(frame)))) <= 1e-11
        for p in model + normals:
            size_p = math.sqrt(abs(np.sum(g * p * p)))
            assert np.max(np.abs((frame * g) @ p)) <= 1e-11 * size_p


@settings(derandomize=True, deadline=None, max_examples=29)
@given(size=st.floats(-1.0, 2.0), n=st.integers(2, 60),
       seed=st.integers(0, 2**32 - 1))
@example(size=1.4, n=57, seed=59)  # failed with Gram-Schmidt
def test_geodesics_at_random_hyperboloid_points_pass_their_checks(size, n, seed):
    # twenty e-folds of the scalars.  At six, Gram-Schmidt frames (1e-8
    # frame check) and an absolute unit-speed drift (1e-6) failed about one
    # point in five; at twenty, a frame normality taken against gamma' at
    # the samples, which grows like e^{sqrt|c| sigma}, failed every point
    c = -10.0**size
    spec = gc.constant_curvature(c, n)
    x, theta = random_point(spec, np.random.default_rng(seed))
    T = 20.0 / math.sqrt(-c)
    traj = gc.integrate_geodesic(spec, x, theta, T, T / 500)
    assert len(traj.sigma) == 501
    # the check still catches a point off the quadric
    with pytest.raises(IntegrationFailureError, match="unit-speed drift"):
        flow._check_trajectory(dataclasses.replace(traj, x0=1.001 * x))
