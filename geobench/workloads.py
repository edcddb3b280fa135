"""The benchmark's workloads: geocount CLI invocations run in a fixed order.

Each sample runs every invocation of its workload once, appending
``--seed <seed> --out <fresh dir>``.  ``timed`` invocations make up
``wall_ref_s``; ``probes`` are valid invocations that fail at the seed commit
(exit 3 or 4).  Probes are not timed; they count only in ``ok_share``, so a
fix shows as a rise in ``ok_share`` rather than a rise in ``wall_ref_s``.
"""

import shlex


def _argv(lines):
    return [shlex.split(line) for line in lines]


WORKLOADS = {
    # Almost all time is the per-direction RK4 and Gram determinant of the
    # counting loop.  Varies the normal dimension k (1, 2, 4), the number of
    # directions (64, 512, 4096), the number of steps (500 to 4000) and the
    # sign of c; flow and herglotz do no work here.  T and K are smaller than
    # in the roadmap's table so that a run holds enough samples for a steady
    # median.
    "count-mix": {
        "timed": _argv([
            "count --kind constant_curvature --c 1 --n 3 --T 1:4:10",
            "growth --kind constant_curvature --c -1 --n 3 --T 0.5:5:10",
            "count --kind constant_curvature --c 1 --n 5 --T 1:5:10 --step 0.01",
            "growth --kind flat_torus --n 2 --basis '1 0; 0 1' --T 1:30:30",
            "gromov --c 1 --n 3 --K 4",
        ]),
        "probes": [],
    },
    # ~99% of the time is scalar HerglotzMatrix evaluations inside
    # stieltjes_invert; c = -1 runs only the checks path.  Counting and flow
    # do no work here.
    "measure-scan": {
        "timed": _argv([
            "herglotz --c 1 --n 3 --tau-schedule 0.1,0.01,0.001,0.0001",
            "herglotz --c 4 --n 3",
            "herglotz --c 0.5 --n 4",
            "herglotz --c 0 --n 3",
            "herglotz --c -1 --n 3",
        ]),
        "probes": [],
    },
    # Lemma batteries: ambient RK4 geodesics, Jacobi propagation, det-zero
    # refinement and warped-product profile calls; counting on short cutoffs;
    # the torus lattice oracle, the only large allocation of any workload.
    # The probe uses c = -2, not -1: the c = -1 battery passes at about one
    # seed in twenty, which would make ok_share depend on the seed, while
    # c = -2 fails the same identity checks at every seed tried.
    "verify-mix": {
        "timed": _argv([
            "verify --kind constant_curvature --c 1 --n 3",
            "verify --kind warped_product --warp one_plus_r2 --n 3",
            "verify --kind warped_product --warp cosh --n 3",
            "verify --kind flat_torus --n 3 --basis '1 0 0; 0.5 1 0; 0 0 2'",
        ]),
        "probes": _argv([
            "verify --c -2 --n 3",
            "verify --c -4 --n 3",
            "verify --kind warped_product --warp sin --n 3",
        ]),
    },
}

# Same subcommands, kinds and layers as WORKLOADS with far less work, for the
# self-test.
TINY = {
    "count-mix": {
        "timed": _argv([
            "count --kind constant_curvature --c 1 --n 3 --T 1:2:4 --quad-order 4",
            "growth --kind constant_curvature --c -1 --n 3 --T 0.5:5:10 --quad-order 4",
            "count --kind constant_curvature --c 1 --n 5 --T 1:2:4 --step 0.01 --quad-order 64",
            "growth --kind flat_torus --n 2 --basis '1 0; 0 1' --T 1:10:10 --quad-order 8",
            "gromov --c 1 --n 3 --K 2 --quad-order 4",
        ]),
        "probes": [],
    },
    "measure-scan": {
        "timed": _argv(["herglotz --c 0 --n 3", "herglotz --c -1 --n 3"]),
        "probes": [],
    },
    "verify-mix": {
        "timed": _argv(["verify --kind warped_product --warp cosh --n 3"]),
        "probes": _argv([
            "verify --c -4 --n 3",
            "verify --kind warped_product --warp sin --n 3",
        ]),
    },
}
