"""Property tests: malformed input is refused with a validation error, and
count/growth runs over a bounded parameter box end with a documented exit
code (0 ok, 2 validation, 3 numerical failure, 4 verification failure)."""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from geocount import cli
from geocount.errors import CatalogError, ConfigurationError, InputError

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
        cli.build_manifest(raw, task="count")
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
