#!/usr/bin/env python3
"""Sweep the rehearsal memory budget on the blob benchmark.

For each budget, averages the final cumulative accuracy over the master
seeds; more memory should never hurt.
"""

import argparse

import numpy as np

from pbes.benchmark import BLOB_BUDGET_SWEEP, BLOB_SEEDS, final_avg_accuracy, run_mode
from pbes.sampling import SAMPLER_NAMES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budgets", type=int, nargs="+", default=list(BLOB_BUDGET_SWEEP))
    parser.add_argument("--seeds", type=int, default=len(BLOB_SEEDS))
    parser.add_argument("--sampler", default="pbes", choices=SAMPLER_NAMES)
    args = parser.parse_args()

    print(f"sampler={args.sampler}, {args.seeds} seeds per budget")
    print("budget  mean-avg-accuracy")
    for budget in args.budgets:
        values = [
            final_avg_accuracy(run_mode("method", seed, sampler=args.sampler, budget=budget))
            for seed in range(args.seeds)
        ]
        print(f"{budget:6d}  {np.mean(values):.4f} (min {np.min(values):.4f}, max {np.max(values):.4f})")


if __name__ == "__main__":
    main()
