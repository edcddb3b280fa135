"""Run-to-run spread of the benchmark, raw beside calibrated.

Usage:
    python3 geobench/spread.py --workload NAME --seeds 10 [--first-seed 1] [--seconds 30]

Runs run.py once per seed, one run at a time, and prints for every
end-to-end metric the median of the runs and the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of that median.
The raw (uncalibrated) wall and set-up seconds from the detail records are
shown beside their calibrated counterparts.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _share(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    rows = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        detail = json.loads((HERE / "out" / f"{args.workload}-seed{seed}-trace0.json").read_text())
        values = {k: m["value"] for k, m in result["metrics"].items()}
        values["wall_raw_s"] = detail["wall_raw_s"]
        values["setup_raw_s"] = detail["setup_raw_s"]["median"]
        values["kernel_s"] = detail["kernel_s"]["median"]
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
        for k, v in values.items():
            rows.setdefault(k, []).append(v)
    print(f"{'metric':14s} {'median':>10s} {'IQR/median':>10s}")
    for k, values in rows.items():
        med, share = _share(values)
        print(f"{k:14s} {med:10.5g} {share:10.4f}")


if __name__ == "__main__":
    main()
