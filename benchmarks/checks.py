"""Correctness gate and determinism checks of the benchmark.

The gate reads only the artifacts `thermodual run` writes, so it pins no CSV
bytes across commits:

- exact variants must converge, and every run's final error metric against
  the oracle reference must be at most epsilon + delta;
- sampled variants run a fixed iteration budget, so instead the final
  estimate mu.q + <H>_est - mu.<Q>_est must lie within a shot-noise
  tolerance of the same expression evaluated exactly on the thermal state at
  the final mu.  The tolerance is Bernstein's inequality for a sum of
  independent per-term shot means, at a false-alarm probability of 1e-12 per
  check, so an honest run fails it essentially never while a wrong
  probability in the shot path fails it at once.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from thermodual.cli import build_system, validate_config
from thermodual.gibbs import thermal_state
from thermodual.operators import Observable, expectation
from thermodual.optimize import ExactEstimator, OptimizerConfig
from thermodual.shots import ShotEstimator

_LOG_FALSE_ALARM = math.log(2e12)


class ExperimentCase:
    """One experiment's config, system and estimator, built once, outside timing."""

    def __init__(self, name: str, raw_config: dict):
        self.name = name
        self.config = validate_config(raw_config)
        solver = self.config["solver"]
        self.sampled = solver["variant"] in ("first_hqc", "second_hqc")
        self.system = build_system(self.config["model"])
        self.epsilon = float(solver["epsilon"])
        self.delta = OptimizerConfig(
            variant=solver["variant"], epsilon=self.epsilon, delta=solver.get("delta")
        ).resolved_delta()
        if self.sampled:
            self.estimator = ShotEstimator(
                self.system,
                master_seed=self.config["seed"],
                shots_per_iteration=int(solver["shots_per_iteration"]),
                hessian_samples_per_iteration=int(solver["hessian_samples_per_iteration"]),
                mode=solver["estimator_mode"],
            )
        else:
            self.estimator = ExactEstimator(self.system)


def _sampled_value_error(case: ExperimentCase, run: dict, temperature: float) -> str | None:
    system = case.system
    mu = np.asarray(run["final_mu"], dtype=float)
    q = np.asarray(system.targets, dtype=float)
    rho = thermal_state(system, mu, temperature).rho
    exact = float(mu @ q)
    variance = 0.0
    bound = 0.0
    n = case.estimator.shots_per_term
    for weight, obs in [(1.0, system.hamiltonian)] + [
        (-m, charge) for m, charge in zip(mu, system.charges)
    ]:
        exact += weight * expectation(obs, rho)
        for coeff, word in obs.terms:
            mean = min(1.0, abs(expectation(Observable(system.n_qubits, [(1.0, word)]), rho)))
            scaled = weight * coeff
            variance += scaled * scaled * (1.0 - mean * mean) / n
            bound = max(bound, 2.0 * abs(scaled) / n)
    linear = _LOG_FALSE_ALARM * bound / 3.0
    tolerance = linear + math.sqrt(linear * linear + 2.0 * _LOG_FALSE_ALARM * variance) + 1e-9
    deviation = abs(run["final_value"] - exact)
    if deviation > tolerance:
        return (
            f"run {run['run_id']}: final estimate {run['final_value']:.10g} is "
            f"{deviation:.3g} from the exact {exact:.10g} (tolerance {tolerance:.3g})"
        )
    return None


def gate(case: ExperimentCase, exit_code: int, out_dir: Path) -> str | None:
    """None if the experiment's artifacts pass, else the reason they do not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    summary = json.loads((out_dir / "summary.json").read_text())
    if case.sampled:
        for run in summary["runs"]:
            reason = _sampled_value_error(case, run, summary["temperature"])
            if reason:
                return reason
        return None
    if not summary["converged"]:
        return "did not converge"
    limit = case.epsilon + case.delta
    for run in summary["runs"]:
        err = run["final_error_metric"]
        if err is None or not err <= limit:
            return f"run {run['run_id']}: final error metric {err} exceeds {limit:g}"
    return None


def read_outputs(out_dir: Path) -> dict:
    """Solver wall time, iterations and shots from the artifacts, plus the CSV digest."""
    summary = json.loads((out_dir / "summary.json").read_text())
    with (out_dir / "runs.csv").open(newline="") as fh:
        shots = sum(int(row["shots_used"]) for row in csv.DictReader(fh))
    digest = hashlib.sha256()
    for name in ("runs.csv", "aggregate.csv"):
        path = out_dir / name
        digest.update(path.read_bytes() if path.exists() else b"-")
        digest.update(b"\0")
    return {
        "solve_s": sum(r["wall_time_s"] for r in summary["runs"]),
        "iterations": sum(r["iterations"] for r in summary["runs"]),
        "shots": shots,
        "digest": digest.hexdigest(),
    }


def workers_mismatch(run_experiment, raw_config: dict, work_dir: Path) -> str | None:
    """None if --workers 1 and --workers 2 write byte-identical CSVs."""
    config = validate_config(raw_config)
    outs = {}
    for workers in (1, 2):
        out = work_dir / f"workers{workers}"
        code = run_experiment(config, out, workers=workers)
        if code != 0:
            return f"workers={workers} exited with {code}"
        outs[workers] = out
    for name in ("runs.csv", "aggregate.csv"):
        if (outs[1] / name).read_bytes() != (outs[2] / name).read_bytes():
            return f"{name} differs between workers=1 and workers=2"
    return None
