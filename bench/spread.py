"""Run-to-run spread of the end-to-end metrics, and a baseline record.

    python3 bench/spread.py --runs 10 --first-seed 100 --label "<commit>" --out bench/baseline.json

Runs ``bench/run.py`` once per seed and workload (one process at a time),
then reports for every end-to-end metric the median of the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
above a third of the metric's bound in BENCHMARK.json is flagged; setup_s is
exempt, since only its median is compared between commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", help="write the medians, quartiles and runs here")
    args = parser.parse_args(argv)

    doc = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed jobs", file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        env = json.loads((ROOT / ".bench_results" / f"{workload}-seed{seed}-trace0.json").read_text())
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            flagged += not ok
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": metric["bound"], "values": values}
            print(f"{workload:12s} {metric['name']:12s} median {median:12.6g} {metric['unit']:4s} "
                  f"spread {spread:7.4f} (bound/3 {metric['bound'] / 3:.4f}){'' if ok else '  <-- wide'}",
                  flush=True)
        doc["workloads"][workload] = {"environment": env["environment"], "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
