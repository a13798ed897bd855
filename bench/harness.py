"""Runs one workload: set-up, timed or traced jobs, checks, metrics, records.

Imported by run.py after it has pinned the BLAS threads and put the
checkout's ``src`` on the import path.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import checks
import workloads
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metrics every workload reports, with their units
E2E_UNITS = {
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics the traced run reports on every workload
LAYER_UNITS = {
    "spectral.spectral_decompose.us_p50": "us",
    "spectral.laplacian.us_p50": "us",
    "kirchhoff.solve_kirchhoff.us_p50": "us",
    "energy.energy.us_p50": "us",
    "optimizer.modified_energy.us_p50": "us",
    "optimizer.subgradient_step.us_p50": "us",
    "optimizer.optimize.iter_us_p50": "us",
    "optimizer.kernel_gap": "ratio",
    "optimizer.trace_ratio": "ratio",
    "optimizer.restarts": "count",
    "optimizer.best_multiplicity": "count",
    "io.write_trace_csv.ms_p50": "ms",
    "io.trace_csv_kb": "KB",
    "io.save_conductivities.ms_p50": "ms",
    "io.load_graph.ms_p50": "ms",
    "datasets.build_ms": "ms",
    "graph.support_components.us_p50": "us",
    "trees.is_loop_free.us_p50": "us",
    "trees.global_tree_search.us_per_tree": "us",
    "trees.enumerate_spanning_trees.us_per_tree": "us",
    "trees.tree_local_minimizer.us_p50": "us",
    "trace.overhead": "ratio",
    "self.io.ms_per_job": "ms",
    "self.job.ms_per_job": "ms",
}

#: kernels timed by the replay, reported as the median call in microseconds
REPLAY_KERNELS = (
    "spectral.spectral_decompose", "spectral.laplacian", "kirchhoff.solve_kirchhoff",
    "energy.energy", "optimizer.modified_energy", "optimizer.subgradient_step",
    "graph.support_components", "trees.is_loop_free", "trees.tree_local_minimizer",
)

#: input generation plus a warm-up job is repeated this often; setup_s
#: reports the import time plus the median repetition
SETUP_REPEATS = 3

#: candidate levels for job_ms_tail, the highest one with ten jobs beyond it
TAIL_LEVELS = (50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 99, 99.9)


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports at run time, if it is OpenBLAS."""
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def tail(values):
    """(value, level): the highest TAIL_LEVELS percentile with at least ten
    jobs beyond it (the median when there are fewer than twenty jobs)."""
    fits = [p for p in TAIL_LEVELS if len(values) * (1.0 - p / 100.0) >= 10.0]
    level = max(fits, default=50)
    return float(np.percentile(values, level)), level


class Bench:
    """One workload run: inputs, job execution with checks, and records."""

    def __init__(self, workload: str, seed: int, workdir: Path, tracer):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tr = tracer
        refs = json.loads((HERE / "references.json").read_text())
        self.seven_refs = refs["seven_node"]["F_ref"]
        self.tree_refs = refs["tree_search_seven_node"]["optimum"]
        self.graphs = None

    def setup(self) -> float:
        """Generate inputs and run one warm-up job; returns the seconds taken."""
        start = perf_counter()
        inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=self.workdir))
        self.graphs = workloads.build_inputs(self.tr, self.workload, self.seed, inputs)
        record, _, _ = self.attempt(NullTracer(), self.job(0))
        if record["failures"]:
            raise RuntimeError(f"warm-up job failed: {record['failures']}")
        return perf_counter() - start

    def job(self, i: int):
        return workloads.job_at(self.workload, self.graphs, self.seed, i)

    def attempt(self, tr, job):
        """Run and check one job.  Returns (record, net, result); net and
        result are None when the job raised."""
        outdir = Path(tempfile.mkdtemp(prefix="job-", dir=self.workdir)) / "out"
        record = {"index": job.index, "label": job.label, "traced": tr.enabled}
        net = result = None
        try:
            with tr.span("job"):
                start = perf_counter()
                net, result, summary, solver_s, work = workloads.run_job(tr, job, outdir)
                record["job_ms"] = (perf_counter() - start) * 1e3
            record.update(solver_s=solver_s, work=work)
            if job.config is None:
                fixed = job.graph.mesh_seed is None
                ref = self.tree_refs[repr(job.params.gamma)]["energy"] if fixed else None
                record["failures"] = checks.check_tree_job(net, job.params, result, outdir, ref)
            else:
                seven = self.workload == "seven-sweep"
                ref = self.seven_refs[repr(job.params.mu)] if seven else None
                record["failures"] = checks.check_optimizer_job(
                    net, job.params, result, outdir, summary, ref)
                if ref is not None:
                    record["F_excess"] = (result.best_F - ref["F"]) / abs(ref["F"])
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            record["failures"] = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(outdir.parent, ignore_errors=True)
        return record, net, result


def run_untraced(bench: Bench, seconds: float) -> list:
    """Whole rounds of jobs until ``seconds`` have passed: every mu (or
    gamma) then has the same share of the jobs in every run."""
    per_round = workloads.cycle_length(bench.workload)
    records, deadline, i = [], perf_counter() + seconds, 0
    while i == 0 or i % per_round or perf_counter() < deadline:
        record, _, _ = bench.attempt(NullTracer(), bench.job(i))
        records.append(record)
        i += 1
    return records


def run_traced(bench: Bench, seconds: float):
    """Each job runs untraced and traced (alternating which goes first); the
    first round of jobs is also replayed kernel by kernel.  Returns the
    records and the per-pair tracing overheads."""
    tr = bench.tr
    per_round = workloads.cycle_length(bench.workload)
    records, overheads, deadline, i = [], [], perf_counter() + seconds, 0
    while i < per_round or perf_counter() < deadline:
        job = bench.job(i)
        tr.job = i
        order = (False, True) if i % 2 == 0 else (True, False)
        pair = {traced: bench.attempt(tr if traced else NullTracer(), job) for traced in order}
        (plain, _, _), (traced_rec, net, result) = pair[False], pair[True]
        records += [plain, traced_rec]
        if not plain["failures"] and not traced_rec["failures"]:
            overheads.append(traced_rec["job_ms"] / plain["job_ms"] - 1.0)
        if i < per_round and result is not None:
            with tr.span("replay"):
                workloads.replay(tr, job, net, result, bench.seed, bench.workdir, extras=i == 0)
        i += 1
    return records, overheads


def e2e_metrics(records, setup_s: float, workload: str):
    """(gated metrics, report rows of (value, unit, samples)) of an untraced run."""
    ok = [r for r in records if not r["failures"]]
    times = [r["job_ms"] for r in ok]
    tail_ms, level = tail(times)
    work = sum(r["work"] for r in ok)
    rate = work / sum(r["solver_s"] for r in ok)
    metrics = {
        "job_ms_p50": statistics.median(times),
        "job_ms_tail": tail_ms,
        "work_per_s": rate,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n, jobs = len(records), f"n={len(ok)} jobs"
    beyond = sum(t > tail_ms for t in times)
    rate_name, rate_unit = (("trees_per_s", "trees/s") if workload == "tree-search"
                            else ("iters_per_s", "iterates/s"))
    report = {
        "job_ms_p50": (metrics["job_ms_p50"], "ms", jobs),
        "job_ms_tail": (tail_ms, "ms", f"p{level:g}, {jobs}, {beyond} beyond"),
        rate_name: (rate, rate_unit, f"{jobs}, {work} units"),
        "setup_s": (setup_s, "s", f"import + median of {SETUP_REPEATS} set-ups"),
        "fail_rate": ((n - len(ok)) / n, "fraction", f"{n - len(ok)} of {n} jobs"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB", "1 process"),
    }
    excess = [r["F_excess"] for r in ok if "F_excess" in r]
    if excess:
        report["F_excess_p50"] = (statistics.median(excess), "relative", f"n={len(excess)} jobs")
    return metrics, report


def _median_us(spans, per=None) -> float:
    return statistics.median((s["end"] - s["start"]) * 1e6 / (s[per] if per else 1) for s in spans)


def layer_metrics(tr: Tracer, overheads):
    """(per-layer metrics, self time per job of every layer) from the spans."""
    m = {f"{name}.us_p50": _median_us(tr.named(name)) for name in REPLAY_KERNELS}
    opt = tr.named("optimizer.optimize")
    m["optimizer.optimize.iter_us_p50"] = _median_us(opt, "work")
    m["optimizer.kernel_gap"] = m["optimizer.subgradient_step.us_p50"] / m["optimizer.optimize.iter_us_p50"]
    m["optimizer.trace_ratio"] = sum(s["records"] for s in opt) / sum(s["work"] for s in opt)
    m["optimizer.restarts"] = statistics.mean(s["restarts"] for s in opt)
    m["optimizer.best_multiplicity"] = statistics.mean(s["multiplicity"] for s in opt)
    for name in ("io.write_trace_csv", "io.save_conductivities", "io.load_graph"):
        m[f"{name}.ms_p50"] = _median_us(tr.named(name)) / 1e3
    m["io.trace_csv_kb"] = statistics.median(s["kb"] for s in tr.named("io.write_trace_csv"))
    m["datasets.build_ms"] = _median_us([s for s in tr.spans if s["name"].startswith("datasets.")]) / 1e3
    for name in ("trees.global_tree_search", "trees.enumerate_spanning_trees"):
        m[f"{name}.us_per_tree"] = _median_us(tr.named(name), "work")
    m["trace.overhead"] = statistics.median(overheads)

    own = tr.self_times()
    jobs = {i for i, s in enumerate(tr.spans) if s["name"] == "job"}
    self_ms = {"self.job.ms_per_job": sum(own[i] for i in jobs) * 1e3 / len(jobs)}
    for i, s in enumerate(tr.spans):
        if s["parent"] in jobs:
            key = f"self.{s['name'].split('.')[0]}.ms_per_job"
            self_ms[key] = self_ms.get(key, 0.0) + own[i] * 1e3 / len(jobs)
    m["self.io.ms_per_job"] = self_ms["self.io.ms_per_job"]
    m["self.job.ms_per_job"] = self_ms["self.job.ms_per_job"]
    return m, self_ms


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """Run one workload, print its report and return the result object."""
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_work"))
    tracer = Tracer() if trace else NullTracer()
    try:
        bench = Bench(workload, seed, workdir, tracer)
        setups = [bench.setup() for _ in range(SETUP_REPEATS)]
        setup_s = import_s + statistics.median(setups)
        if trace:
            records, overheads = run_traced(bench, seconds)
            metrics, self_ms = layer_metrics(tracer, overheads)
            units = LAYER_UNITS
            report = {name: (v, units[name], "") for name, v in metrics.items()}
            report.update({k: (v, "ms", "self time per job") for k, v in self_ms.items()})
        else:
            records = run_untraced(bench, seconds)
            metrics, report = e2e_metrics(records, setup_s, workload)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if r["failures"])
    env = environment()
    stem = results_dir / f"{workload}-seed{seed}-trace{int(trace)}"
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "import_s": import_s, "setup_runs_s": setups,
        "report": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in report.items()},
        "jobs": records,
    }
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")
    if trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))

    print(f"# {workload} seed={seed} trace={int(trace)}: numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']} {env['blas_version']} running "
          f"{env['blas_threads']} threads (OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, "
          f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']}), nproc {env['nproc']}")
    for name, (value, unit, samples) in report.items():
        print(f"{workload:12s} {name:44s} {value:14.6g} {unit:10s} {samples}")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
