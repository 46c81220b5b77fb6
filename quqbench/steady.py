"""Steadiness check: run workloads several times and compare each
end-to-end metric's spread with its bound in ``BENCHMARK.json``.

    python3 quqbench/steady.py --runs 10 [--sets 2] [--workloads serve-int-thread] [--first-seed 1]

Each run is a fresh ``run.py`` process of ``run_seconds`` with its own
seed (``first-seed``, ``first-seed + 1``, ...; a second set continues
from where the first stopped).  A set runs every workload in turn.  For
every metric of a set it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  A metric is ``ok`` when
the spread is within its bound and ``steady`` when it is below a third
of it.  With two sets it also prints how far the second set's median is
worse than the first's, as a share of the first; that too must stay
within the bound.

The exit code is 1 if a run failed or an output check did not hold, and
3 if a spread or a shift between sets exceeds its bound.
"""

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import WORKLOADS, load_benchmark_spec  # noqa: E402
from run import run_child  # noqa: E402


def verdict(share: float, bound: float) -> str:
    return "steady" if share < bound / 3 else ("ok" if share <= bound else "WIDE")


def spread_table(results: list[dict], metrics: list[dict]) -> tuple[dict, list[str], bool]:
    """Medians, report lines, and whether every spread is within its bound."""
    medians, lines, within = {}, [], True
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        medians[name] = median
        within &= spread <= bound
        lines.append(f"  {name:<16} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                     f"spread {100 * spread:5.1f}%  bound {100 * bound:4.0f}%  "
                     f"{verdict(spread, bound)}")
    return medians, lines, within


def shift_table(first: dict, second: dict, metrics: list[dict]) -> tuple[list[str], bool]:
    """How much worse the second set's medians are than the first's."""
    lines, within = [], True
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        change = second[name] / first[name] - 1.0
        worse = change if metric["better"] == "lower" else -change
        within &= worse <= bound
        lines.append(f"  {name:<16} {first[name]:12.4f} -> {second[name]:12.4f}  "
                     f"worse by {100 * worse:6.1f}%  bound {100 * bound:4.0f}%  "
                     f"{verdict(max(worse, 0.0), bound)}")
    return lines, within


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    spec = load_benchmark_spec()
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",")
    status = 0
    medians = {workload: [] for workload in workloads}
    seeds = itertools.count(args.first_seed)
    for number in range(1, args.sets + 1):
        for workload in workloads:
            results = []
            for seed in itertools.islice(seeds, args.runs):
                try:
                    result = run_child(workload, seed, seconds, 0)
                except (RuntimeError, subprocess.TimeoutExpired) as error:
                    print(f"{workload} seed {seed}: {error}")
                    status = 1
                    continue
                results.append(result)
                if not result["correct"]:
                    status = 1
            if len(results) < 2:
                continue
            shares = {r["failed"] / r["attempted"] for r in results}
            print(f"\nset {number}, {workload}: {len(results)} runs, {seconds:g} s each, "
                  f"failed share {sorted(shares)}", flush=True)
            found, lines, within = spread_table(results, spec["end_to_end"])
            medians[workload].append(found)
            print("\n".join(lines))
            print(json.dumps({"set": number, "workload": workload,
                              "runs": [r["metrics"] for r in results]}), flush=True)
            if not within and status == 0:
                status = 3
    for workload, found in medians.items():
        if len(found) == 2:
            print(f"\n{workload}: set 2 against set 1")
            lines, within = shift_table(found[0], found[1], spec["end_to_end"])
            print("\n".join(lines))
            if not within and status == 0:
                status = 3
    return status


if __name__ == "__main__":
    sys.exit(main())
