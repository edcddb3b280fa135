"""Per-layer tracing of geocount, installed from outside after import.

Public functions of each module are replaced by wrappers that record a span
(name, start, end, parent, invocation); the hot methods get counters only.
In manifolds only unit_sphere_quadrature gets a span and curvature_along a
counter: its other functions are geometry helpers called once per sample
point, whose time stays in the calling span.  The private counting loop,
_counting_cumulative, also gets a span, because its arguments give the
directions x steps of every counting call.  Nothing under src/ is edited.

Each span's self time (its duration minus that of its child spans) goes to
one bucket, so the buckets of an invocation sum to the duration of its root
span, ``cli.main``.

Work counters come from the arguments or results at the same boundaries,
and errors count exceptions that leave a layer (a span whose parent belongs
to another layer, or a counted call made from another layer).
"""

import functools
import inspect
import itertools
import math
import time
from collections import defaultdict

# Called on every scalar evaluation, so a span there would cost more than the
# work; their time stays in the calling span.
UNTRACED = {"herglotz.f_pole_distance", "herglotz.g_pole_distance"}
# layers whose escaping exceptions are counted (verify and cli only pass them on)
COUNTS_ERRORS = {"counting", "herglotz", "flow", "manifolds"}


def _bucket(layer: str, name: str) -> str:
    if layer == "counting":
        if name == "classify_growth":
            return "counting.growth_s"
        if name in ("count_sphere_arcs", "count_torus_lattice",
                    "torus_count_integral_oracle"):
            return "counting.oracle_s"
        return "counting.curve_s"
    if layer == "herglotz":
        return "herglotz.stieltjes_s" if name == "stieltjes_invert" else "herglotz.checks_s"
    if layer == "flow":
        return "flow.geodesic_s" if name == "integrate_geodesic" else "flow.jacobi_s"
    return {"manifolds": "manifolds.quadrature_s", "verify": "verify.self_s",
            "cli": "cli.self_s"}[layer]


def _grid_steps(T: float, step: float) -> int:
    # the arc-length grid of geocount.flow._grid
    return max(1, int(math.ceil(T / step - 1e-12)))


def _dir_steps(counts, args, result):
    _spec, _x, T, quad, step = args[:5]
    counts["counting.dir_steps"] += quad.size * _grid_steps(float(T), float(step))


def _oracle_samples(counts, args, result):
    counts["counting.oracle_samples"] += int(args[2])


def _geodesic_steps(counts, args, result):
    counts["flow.geodesic_steps"] += len(result.sigma) - 1


def _jacobi_steps(counts, args, result):
    counts["flow.jacobi_steps"] += (len(result.sigma) - 1) * max(
        1, round(result.trajectory.step / result.step))


def _quad_nodes(counts, args, result):
    counts["manifolds.quad_nodes"] += result.size


def _checks(counts, args, result):
    checks = result[0] if isinstance(result, tuple) else result
    counts["verify.checks"] += len(checks)
    counts["verify.checks_failed"] += sum(not chk["passed"] for chk in checks)


# counters taken when a span ends; ``args`` are the call's positional args
AFTER = {
    "counting._counting_cumulative": _dir_steps,
    "counting.torus_count_integral_oracle": _oracle_samples,
    "flow.integrate_geodesic": _geodesic_steps,
    "flow.propagate_jacobi": _jacobi_steps,
    "manifolds.unit_sphere_quadrature": _quad_nodes,
    "verify.herglotz_battery": _checks,
    "verify.lemma_battery": _checks,
}


class Tracer:
    """Spans and counters of one process; ``take`` hands them over per invocation."""

    def __init__(self):
        self.invocation = None
        self._ids = itertools.count()
        self.stack = []          # open spans: [span id, layer, bucket, child seconds]
        self.spans = []          # (id, name, start, end, parent id, invocation)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def take(self) -> dict:
        """Self seconds per bucket and counters since the last call."""
        out = {"self_s": dict(self.self_s), "counts": dict(self.counts)}
        self.self_s.clear()
        self.counts.clear()
        return out

    def span(self, fn, layer: str, name: str):
        bucket = _bucket(layer, name)
        after = AFTER.get(f"{layer}.{name}")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            sid = next(tracer._ids)
            frame = [sid, layer, bucket, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if layer in COUNTS_ERRORS and (parent is None or parent[1] != layer):
                    tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent[3] += end - start
                tracer.self_s[bucket] += end - start - frame[3]
                tracer.spans.append((sid, f"{layer}.{name}", start, end,
                                     None if parent is None else parent[0],
                                     tracer.invocation))
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def counter(self, fn, layer: str, metric: str, within=None):
        """Count calls of a hot callable; ``within`` = (bucket, metric) also
        counts the calls made while that bucket's span is innermost."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            if within is not None and tracer.stack and tracer.stack[-1][2] == within[0]:
                counts[within[1]] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                if not tracer.stack or tracer.stack[-1][1] != layer:
                    counts[f"{layer}.errors"] += 1
                raise

        return wrapper

    def install(self, modules: dict):
        """Wrap the public functions of ``modules`` ({layer: module})."""
        counting, herglotz = modules["counting"], modules["herglotz"]
        flow, manifolds = modules["flow"], modules["manifolds"]
        for layer, module in modules.items():
            if layer == "manifolds":
                continue
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")
                        and f"{layer}.{name}" not in UNTRACED):
                    setattr(module, name, self.span(obj, layer, name))
        # the counting loop itself: its arguments give directions x steps
        counting._counting_cumulative = self.span(
            counting._counting_cumulative, "counting", "_counting_cumulative")
        manifolds.unit_sphere_quadrature = self.span(
            manifolds.unit_sphere_quadrature, "manifolds", "unit_sphere_quadrature")
        manifolds.curvature_along = self.counter(
            manifolds.curvature_along, "manifolds", "manifolds.curvature_along_calls")
        manifolds.CurvatureFrameOperator.profile = self.counter(
            manifolds.CurvatureFrameOperator.profile, "manifolds",
            "manifolds.profile_calls")
        herglotz.HerglotzMatrix.__call__ = self.counter(
            herglotz.HerglotzMatrix.__call__, "herglotz", "herglotz.eval_calls",
            within=("herglotz.stieltjes_s", "herglotz.stieltjes_evals"))
        flow.JacobiSystem.eval_at = self.counter(
            flow.JacobiSystem.eval_at, "flow", "flow.eval_at_calls")
