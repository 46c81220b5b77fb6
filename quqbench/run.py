"""Benchmark of the QUQ datapaths behind both serving topologies.

Run one workload (the form the result line is read from)::

    python3 quqbench/run.py --workload serve-int-thread --seed 1 --seconds 36 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it say how each figure was taken.  The exit code is
non-zero if any output check failed.

``--workload all`` runs every workload, each in its own fresh process,
and prints one table; with ``--trace 1`` it runs each workload both
untraced and traced and prints the tracing overhead.

Run it from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.
"""

import os

# One BLAS thread per process, set before NumPy loads: the scipy-openblas
# build otherwise starts one thread per core in every process, shards too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from multiprocessing import resource_tracker  # noqa: E402

from common import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Ceiling on one child run: a hang fails the run instead of the caller.
CHILD_TIMEOUT_S = 900
MIN_SECONDS = 16


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < MIN_SECONDS:
        parser.error(f"--seconds must be at least {MIN_SECONDS}: each of the "
                     "eight phases needs room for several batches")
    return args


def reap_processes() -> None:
    """Stop and wait for every process this run started.

    Shards left by a failed set-up are terminated.  The resource tracker
    that ``SharedMemory`` starts would otherwise outlive this process:
    closing its pipe ends it, and waiting for it means nothing of the run
    is left when the result line is read.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns its result line."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  [{workload}{' traced' if trace else ''}] {line}")
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def run_all(args) -> int:
    status = 0
    untraced, traced = {}, {}
    for workload in WORKLOADS:
        try:
            untraced[workload] = run_child(workload, args.seed, args.seconds, 0)
            if args.trace:
                traced[workload] = run_child(workload, args.seed, args.seconds, 1)
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print(f"{workload}: {error}")
            status = 1
    for workload, result in untraced.items():
        status |= 0 if result["correct"] else 1
        print(f"\n{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<28} {metric['value']:>12.4f} {metric['unit']}")
        if workload in traced:
            layers = traced[workload]["metrics"]
            for name, metric in layers.items():
                print(f"  {name:<28} {metric['value']:>12.4f} {metric['unit']}  (traced)")
            plain = result["metrics"]["images_per_s"]["value"]
            overhead = 1.0 - layers["trace.images_per_s"]["value"] / plain
            print(f"  tracing overhead: {100 * overhead:.1f}% of images_per_s")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from workloads import run_workload

    try:
        result, notes = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    finally:
        reap_processes()
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
