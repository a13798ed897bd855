"""netforge benchmark: end-to-end and per-layer cost of the two solvers.

    python3 bench/run.py --workload seven-sweep --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 1

Workloads (bench/README.md says why each exists):

* ``seven-sweep``  optimize on the seven-node benchmark, mu over 0 .. 1
* ``leaf-sweep``   optimize on seeded 400-node leaf meshes, mu over 0, 1, 2
* ``tree-search``  exhaustive spanning-tree search, gamma 0.5 and 1

A workload runs in one single-threaded process with BLAS pinned to one
thread (``--blas-threads default`` leaves the count to the library, for
informational runs).  With ``--trace 0`` it times whole jobs and prints the
end-to-end metrics; with ``--trace 1`` it runs each job untraced and traced,
replays the kernels, and prints the per-layer metrics.  Every job is
checked; a failed check, an exception or a diverged run counts as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``all`` runs each
workload in its own process and prefixes the metric names with the
workload.  The full record (environment, per-job rows, spans) goes to
``.bench_results/``.

Exits with status 2, printing no result, when the netforge sources are not
in ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("seven-sweep", "leaf-sweep", "tree-search")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", default="1",
                        help='BLAS threads to pin, or "default" to leave them unset')
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.blas_threads != "default" and not args.blas_threads.isdigit():
        parser.error('--blas-threads takes a positive count or "default"')
    return args


def pin_blas(threads: str) -> None:
    """Set the BLAS thread variables; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if threads == "default":
            os.environ.pop(var, None)
        else:
            os.environ[var] = threads


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--blas-threads", args.blas_threads]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print("\n".join(lines), flush=True)
            return proc.returncode
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netforge" / "__init__.py").is_file():
        print(f"bench: no netforge sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas(args.blas_threads)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import harness  # numpy, scipy and netforge load here: part of setup_s
    import_s = perf_counter() - start

    import netforge

    if Path(netforge.__file__).resolve().parent != (SRC / "netforge").resolve():
        print(f"bench: imported netforge from {netforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
