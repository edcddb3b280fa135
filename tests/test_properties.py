"""Property tests: malformed input is refused with a validation error,
count/growth and verify runs over a bounded parameter box end with a
documented exit code (0 ok, 2 validation, 3 numerical failure, 4
verification failure), herglotz runs for c in {0} U [1e-3, 400] pass every
check, and the certified Stieltjes scan finds the peaks of the full-grid
scan."""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geocount import cli, herglotz
from geocount.errors import CatalogError, ConfigurationError, InputError
from geocount.herglotz import HerglotzMatrix
from geocount.manifolds import WARP_CATALOG

LIST_KEYS = ("parameters.t", "parameters.tau_schedule", "parameters.c_grid",
             "manifold.basis")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(key=st.sampled_from(LIST_KEYS),
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


def _full_grid_peaks(Fh, grid, tau, threshold):
    """The atom scan before the coarse pass: every grid point evaluated."""
    im = herglotz._im_phi(Fh, grid, tau)
    mid = im[1:-1]
    return np.flatnonzero((mid > threshold / tau)
                          & (mid >= im[:-2]) & (mid >= im[2:])) + 1


def _scan_grid(a, length, tau):
    """The grid stieltjes_invert scans at its smallest tau."""
    h = min(tau / 2.0, length / 2000.0)
    return np.linspace(a, a + length, int(math.ceil(length / h)) + 1)


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
    want = _full_grid_peaks(Gh, grid, tau, threshold)
    assert np.array_equal(herglotz._scan_peaks(Gh, grid, tau, threshold), want)


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
    want = _full_grid_peaks(Fh, grid, tau, 0.1)
    assert np.array_equal(herglotz._scan_peaks(Fh, grid, tau, 0.1), want)
