"""Benchmark of `thermodual run`: end-to-end metrics, or per-layer metrics with --trace 1.

Usage (from the repository root):

    python3 benchmarks/run.py --workload exact --seed 1 --seconds 30 --trace 0

Each experiment of the workload (see workloads.py) goes through
`thermodual.cli.run_experiment`, the body of `thermodual run`, one at a time
with workers=1 (a closed loop with one client).  BLAS and OpenMP are pinned
to one thread before NumPy is imported.  One round runs every experiment
once; the benchmark repeats rounds for about --seconds and reports medians
over rounds.  Every experiment's artifacts pass the correctness gate in
checks.py, outside the timed section.

--trace 0 prints the end-to-end metrics of untraced rounds.  --trace 1
alternates untraced and traced rounds and prints per-layer metrics from the
traced ones (see tracer.py) plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans and a full result record go to .bench_out/ in the repository root.
"""

from __future__ import annotations

import os
import sys

# Python's per-process hash seed moves peak RSS on hqc-hessian by up to 20%
# between runs of one workload seed (about 130 vs 155 MB): it changes the
# order the allocator sees.  With a fixed hash seed, one workload seed gives
# one peak.  The interpreter reads the seed only at start, hence the re-exec.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

# before anything imports NumPy: one BLAS/OpenMP thread, the plain baseline
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import copy
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7

# (metric, unit); BENCHMARK.json lists the same names
END_TO_END = (
    ("setup_s", "s"),
    ("experiment_s", "s"),
    ("solve_s", "s"),
    ("iter_ms", "ms"),
    ("iterations", "count"),
    ("peak_rss_mb", "MB"),
)


def import_thermodual():
    """Import thermodual from this checkout's src/, never from anywhere else."""
    init = SRC / "thermodual" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a thermodual checkout")
    sys.path.insert(0, str(SRC))
    import thermodual

    if Path(thermodual.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported thermodual from {thermodual.__file__}, not {init}")
    return thermodual


def set_up(workload: str, seed: int, tiny: bool):
    """Cold import plus building each experiment's system and estimator once.

    Returns the seconds taken and the experiments, ready to run.
    """
    start = time.perf_counter()
    import_thermodual()
    from checks import ExperimentCase

    cases = [ExperimentCase(e["name"], e["config"])
             for e in workloads.experiments(workload, seed, tiny)]
    return time.perf_counter() - start, cases


def probe_setup(args) -> float:
    """Median set-up time over fresh interpreters, so each import is cold."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode; BLAS stays unknown
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "thermodual").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
        "python_hash_seed": os.environ["PYTHONHASHSEED"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


class Runner:
    """Runs rounds of a workload's experiments and gates every artifact set."""

    def __init__(self, work_dir: Path, tracer):
        from thermodual.cli import run_experiment

        self.run_experiment = run_experiment
        self.work_dir = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.experiment_id = 0

    def _one(self, case, out_dir: Path, traced: bool):
        config = copy.deepcopy(case.config)
        self.tracer.experiment = self.experiment_id
        self.experiment_id += 1
        self.tracer.active = traced
        start = time.perf_counter()
        try:
            if traced:
                code = self.tracer.call("cli.run_experiment", self.run_experiment,
                                        config, out_dir, workers=1)
            else:
                code = self.run_experiment(config, out_dir, workers=1)
        finally:
            wall = time.perf_counter() - start
            self.tracer.active = False
        return code, wall

    def round(self, cases, traced: bool) -> dict:
        """Run every case once; results[i] is None where case i failed."""
        from checks import gate, read_outputs

        done = {"traced": traced, "results": [], "span_lo": len(self.tracer.spans)}
        for case in cases:
            out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
            self.attempted += 1
            try:
                code, wall = self._one(case, out_dir, traced)
                reason = gate(case, code, out_dir)
                result = None if reason else {"experiment_s": wall, **read_outputs(out_dir)}
            except Exception as exc:  # a crash is a failed experiment, not a dead benchmark
                reason = f"raised {type(exc).__name__}: {exc}"
            if reason:
                self.failures.append(f"{case.name}: {reason}")
                result = None
            done["results"].append(result)
            shutil.rmtree(out_dir, ignore_errors=True)
        done["span_hi"] = len(self.tracer.spans)
        return done


def schedule(first_round_s: float, seconds: int, trace: bool) -> list[bool]:
    """Traced flags of the rounds after the first (untraced) one, filling ~seconds."""
    rounds = max(2, round(seconds / max(first_round_s, 1e-9)))
    return [trace and i % 2 == 0 for i in range(rounds - 1)]


def summed_medians(rounds, key) -> float:
    """Sum over experiments of each one's median over rounds.

    On a shared machine, bursts of interference slow single experiments;
    a per-experiment median drops them unless they hit most rounds.
    """
    total = 0.0
    for per_experiment in zip(*(r["results"] for r in rounds)):
        values = [result[key] for result in per_experiment if result]
        if values:
            total += statistics.median(values)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest experiments only (smoke test)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        print(f"{set_up(args.workload, args.seed, args.tiny)[0]!r}")
        return 0

    _, cases = set_up(args.workload, args.seed, args.tiny)
    _, warm_up = set_up(args.workload, args.seed, tiny=True)
    from checks import workers_mismatch
    from tracer import LAYER_METRICS, Tracer, install_thermodual_hooks, layer_metrics

    setup_s = probe_setup(args)
    env = environment()
    tracer = Tracer()
    if args.trace:
        install_thermodual_hooks(tracer)

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runner = Runner(work_dir, tracer)
        runner.round(warm_up, traced=False)  # untimed: first calls, lazy imports
        start = time.perf_counter()
        rounds = [runner.round(cases, traced=False)]
        for traced in schedule(time.perf_counter() - start, args.seconds, bool(args.trace)):
            rounds.append(runner.round(cases, traced))
        measured_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.uninstall()
        checks = {
            "same_csv_every_round": len({
                tuple(x and x["digest"] for x in r["results"]) for r in rounds
            }) == 1,
        }
        try:
            mismatch = workers_mismatch(runner.run_experiment,
                                        workloads.determinism_config(args.seed), work_dir)
        except Exception as exc:  # reported as a failed check, like a failed experiment
            mismatch = f"raised {type(exc).__name__}: {exc}"
        checks["same_csv_workers_1_and_2"] = mismatch is None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    solve_s = summed_medians(plain, "solve_s")
    iterations = summed_medians(plain, "iterations")
    end_to_end = {
        "setup_s": setup_s,
        "experiment_s": summed_medians(plain, "experiment_s"),
        "solve_s": solve_s,
        "iter_ms": 1000.0 * solve_s / iterations if iterations else 0.0,
        "iterations": iterations,
        "peak_rss_mb": peak_rss_mb,
    }
    shots_per_s = summed_medians(plain, "shots") / solve_s if solve_s else 0.0
    failed = len(runner.failures)
    correct = failed == 0 and all(checks.values())

    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        per_round = [layer_metrics(tracer.spans, r["span_lo"], r["span_hi"]) for r in traced]
        per_layer = {name: statistics.median(m[name] for m in per_round)
                     for name in per_round[0]}
        per_layer["shots.shots_per_s"] = shots_per_s
        untraced_s = end_to_end["experiment_s"]
        per_layer["trace.overhead_frac"] = (
            summed_medians(traced, "experiment_s") / untraced_s - 1.0 if untraced_s else 0.0
        )
        reported = LAYER_METRICS
        values = per_layer
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        reported = END_TO_END
        values = end_to_end

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in reported}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "rounds": len(rounds), "measured_s": measured_s,
        "failed_frac": failed / runner.attempted, "shots_per_s": shots_per_s,
        "checks": checks, "determinism": mismatch, "failures": runner.failures,
        "missing_hooks": tracer.missing, "metrics": metrics,
        "experiments": [case.name for case in cases],
        "rounds_detail": rounds,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} experiments x "
          f"{len(rounds)} rounds in {measured_s:.1f} s")
    for name, check_ok in checks.items():
        print(f"check {name}: {'PASS' if check_ok else 'FAIL'}")
    for failure in runner.failures:
        print(f"failed {failure}")
    if mismatch:
        print(f"determinism: {mismatch}")
    for name in tracer.missing:
        print(f"note: not traced, reads 0: {name}")
    print(f"failed_frac {failed / runner.attempted:.6g} fraction")
    print(f"shots_per_s {shots_per_s:.6g} 1/s")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
