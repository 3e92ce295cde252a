"""Experiment runner: configure a model and solver, run, emit plot-ready traces.

Subcommands:
  run     one experiment from a JSON config; writes runs.csv, aggregate.csv
          (for repeated runs), and summary.json into the output directory
  verify  self-check suites (formulas, gradients, codes, references)
  sweep   re-run one config across values of T, shots, or eta

Exit codes: 0 success, 2 config error (infeasible targets and an --out that
cannot be written included), 3 numerical-integrity error or failed
verification, 4 non-convergence under --strict, 5 model beyond the S^z
sector limit (12 qubits) or the dense limit (10 qubits), or more trace
records than MAX_TRACE_RECORDS.  CSV floats carry
17 significant digits so identical (config, seed) pairs reproduce artifacts
byte for byte, independent of --workers.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import inspect
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import encoding, models, oracle
from .errors import ConfigError, NumericalIntegrityError, ResourceError
from .gibbs import gradient, hessian_exact, log_partition, objective_f, smoothness_L, thermal_state
from .models import ThermoSystem
from .operators import term_expectations
from .optimize import ExactEstimator, OptimizerConfig, Trace, first_order_step_size, run_stack
from .oracle import (
    ReferenceEnergy,
    check_feasible,
    closeness_metrics,
    reference_energy,
    state_fidelity,
)
from .shots import ESTIMATOR_MODES, ShotEstimator, _pair_means, derive_stream_seed

SUMMARY_SCHEMA_VERSION = 2
_REP_TAG = 1 << 23
_SWEEP_TAG = 1 << 24
# trace records one solve may keep over all its repetitions, R x (max_iter + 2): far above any real
# config (the first_hqc defaults keep 5010), and low enough that the records fit in memory
MAX_TRACE_RECORDS = 10**7

# JSON types of the schema tables that have no Python type; a tuple lists the allowed strings
_VECTOR3 = "a list of 3 finite numbers"
_BUDGET = "an integer from 1 to 2^63 - 1"
_TYPE_NAMES = {
    bool: "a boolean", int: "an integer", float: "a finite number", str: "a string",
    dict: "a JSON object", list: "a list",
}

# every allowed key of each block with its JSON type; a bool is never taken for a number
_TOP = {
    "label": str, "model": dict, "solver": dict, "oracle": dict, "repetitions": int, "seed": int,
}
_MODELS = {
    "heisenberg": {
        "kind": str, "geometry": str, "n": int, "rows": int, "cols": int, "nnn": bool,
        "J": float, "lambda": float, "targets": _VECTOR3,
    },
    "stabilizer": {"kind": str, "code": str, "charges": list},
}
_CHARGE = {"word": str, "target": float}
_SOLVER = {
    "variant": str, "epsilon": float, "eta": float, "delta": float, "max_iter": int,
    "nesterov": bool, "hessian_regularization_floor": float, "temperature": float,
    "shots_per_iteration": _BUDGET, "hessian_samples_per_iteration": _BUDGET,
    "estimator_mode": ESTIMATOR_MODES, "warm_start": bool,
}
# the closed-form reference does not read iterations
_ORACLE = {"enable": bool, "iterations": int}

# solver keys the shot estimator takes, with its argument names
_ESTIMATOR_ARGS = {
    "shots_per_iteration": "shots_per_iteration",
    "hessian_samples_per_iteration": "hessian_samples_per_iteration",
    "estimator_mode": "mode",
}
# solver defaults come from the optimizer's fields and the shot estimator's signature
_SOLVER_DEFAULTS = {
    **{f.name: f.default for f in fields(OptimizerConfig)},
    **{
        key: inspect.signature(ShotEstimator).parameters[arg].default
        for key, arg in _ESTIMATOR_ARGS.items()
    },
    "warm_start": False,
}
# null means "use the variant's default"
_NULLABLE = {key for key, default in _SOLVER_DEFAULTS.items() if default is None}
# model keys build_heisenberg names differently
_HEISENBERG_ARGS = {"lambda": "lam"}
# sweep parameter -> the solver key it sets
_SWEEP_KEYS = {"T": "temperature", "shots": "shots_per_iteration", "eta": "eta"}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _fits(value, kind) -> bool:
    if isinstance(kind, tuple):
        return value in kind
    if kind in (int, _BUDGET):
        whole = isinstance(value, int) and not isinstance(value, bool)
        return whole and (kind is int or 1 <= value < 2**63)
    if kind is float:
        # NaN and the infinities, which json accepts, fail the comparison
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return is_number and abs(value) <= sys.float_info.max
    if kind is _VECTOR3:
        return isinstance(value, list) and len(value) == 3 and all(_fits(v, float) for v in value)
    return isinstance(value, kind)


def _check_block(block, schema: dict, where: str) -> dict:
    """The block itself, once every key is in the schema with a value of its type."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    for key, value in block.items():
        kind = schema[key]
        if not (value is None and key in _NULLABLE or _fits(value, kind)):
            name = f"one of {list(kind)}" if isinstance(kind, tuple) else _TYPE_NAMES.get(kind, kind)
            raise ConfigError(f"{where}.{key} must be {name}, got {value!r}")
    return block


def _optimizer(solver: dict) -> OptimizerConfig:
    return OptimizerConfig(**{f.name: solver[f.name] for f in fields(OptimizerConfig)})


def validate_config(raw: dict) -> dict:
    """Strict-schema validation; returns the config with defaults filled in."""
    _check_block(raw, _TOP, "config")
    if "model" not in raw or "solver" not in raw:
        raise ConfigError("config needs 'model' and 'solver' blocks")

    model = raw["model"]
    kind = model.get("kind")
    if kind not in list(_MODELS):
        raise ConfigError(f"model.kind must be one of {sorted(_MODELS)}")
    _check_block(model, _MODELS[kind], "model")
    if kind == "stabilizer":
        code = models.builtin_code(model.get("code", ""))
        if not model.get("charges"):
            raise ConfigError("stabilizer model needs a non-empty 'charges' list")
        for entry in model["charges"]:
            if set(_check_block(entry, _CHARGE, "model.charges[]")) != set(_CHARGE):
                raise ConfigError(f"model.charges[] needs 'word' and 'target', got {entry!r}")
            models.charge_word_from_string(code, entry["word"])

    solver = {**_SOLVER_DEFAULTS, **_check_block(raw["solver"], _SOLVER, "solver")}
    try:
        sampled = _optimizer(solver).is_sampled
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None

    repetitions = raw.get("repetitions", 5 if sampled else 1)
    if repetitions < 1:
        raise ConfigError("repetitions must be a positive integer")

    return {
        "label": raw.get("label", ""),
        "model": dict(model),
        "solver": solver,
        "oracle": {"enable": True, **_check_block(raw.get("oracle", {}), _ORACLE, "oracle")},
        "repetitions": repetitions,
        "seed": raw.get("seed", 0),
    }


def build_system(model: dict) -> ThermoSystem:
    """The model's system; Heisenberg keys left out take build_heisenberg's defaults."""
    if model["kind"] == "heisenberg":
        if "targets" not in model:
            raise ConfigError("heisenberg model needs 3 magnetization targets")
        return models.build_heisenberg(**{
            _HEISENBERG_ARGS.get(key, key): value for key, value in model.items() if key != "kind"
        })
    code = models.builtin_code(model["code"])
    spec = [
        (models.charge_word_from_string(code, entry["word"]), entry["target"])
        for entry in model["charges"]
    ]
    return models.build_stabilizer_system(code, spec)


def _logical_target_from_charges(system: ThermoSystem) -> encoding.LogicalTarget | None:
    """Full logical target when the charge words pin every coefficient."""
    code = system.code
    if code is None:
        return None
    words = dict(zip(system.charge_words, system.targets))
    needed = {w for w in encoding.all_words(code.k) if any(i != 0 for i in w)}
    if set(words) != needed:
        return None
    try:
        return encoding.LogicalTarget.from_coefficients(code.k, words)
    except ValueError:
        return None


def _warm_start_mu(system: ThermoSystem, temperature: float):
    code = system.code
    if code is None or code.k != 1:
        raise ConfigError("warm_start needs a stabilizer model encoding one qubit")
    table = dict(zip(system.charge_words, system.targets))
    if set(table) != {(1,), (2,), (3,)}:
        raise ConfigError("warm_start needs charges on the three logical axes")
    r = np.array([table[(1,)], table[(2,)], table[(3,)]])
    if np.linalg.norm(r) >= 1.0:
        raise ConfigError("warm_start targets must describe a strictly mixed state")
    return encoding.warm_start(r).chemical_potentials(temperature, system.charge_words)


@dataclass
class _Experiment:
    """What the repetitions of one experiment share; they differ only in their shot seed."""

    system: ThermoSystem
    optimizer: OptimizerConfig
    estimator: ExactEstimator | ShotEstimator
    mu0: np.ndarray | None
    seed: int
    reference_energy: float | None = None


def _prepare(system: ThermoSystem, solver: dict, seed: int, repetitions: int) -> _Experiment:
    """Build the solver's inputs once, or raise ConfigError for settings it would refuse.

    ResourceError refuses more than MAX_TRACE_RECORDS trace records, before anything is allocated.
    """
    try:
        optimizer = _optimizer(solver)
        records = repetitions * (optimizer.max_iter + 2)
        if records > MAX_TRACE_RECORDS:
            raise ResourceError(
                f"{repetitions} repetitions of max_iter {optimizer.max_iter} keep up to {records} trace records, "
                f"above the limit of {MAX_TRACE_RECORDS}"
            )
        if not optimizer.is_second_order:
            first_order_step_size(system, optimizer)
        if optimizer.is_sampled:
            args = {arg: solver[key] for key, arg in _ESTIMATOR_ARGS.items()}
            estimator = ShotEstimator(system, seed, **args)
        else:
            estimator = ExactEstimator(system)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    temperature = optimizer.resolved_temperature(system)
    mu0 = _warm_start_mu(system, temperature) if solver["warm_start"] else None
    return _Experiment(system, optimizer, estimator, mu0, seed)


def _run_chunk(task) -> list[tuple[Trace, float]]:
    """Repetitions of one experiment stepped together, each with the chunk's wall time over its size.

    Top-level so process pools can pickle it.
    """
    experiment, reps = task
    estimator = experiment.estimator.reseeded([derive_stream_seed(experiment.seed, rep, _REP_TAG) for rep in reps])
    start = time.perf_counter()
    traces = run_stack(
        experiment.system,
        experiment.optimizer,
        estimator,
        mu0=experiment.mu0,
        reference_energy=experiment.reference_energy,
    )
    wall = (time.perf_counter() - start) / len(reps)
    return [(trace, wall) for trace in traces]


def _map_repetitions(experiment: _Experiment, repetitions: int, workers: int):
    """Every repetition's trace and wall time, in order.

    First-order repetitions step together, in one contiguous chunk per
    worker; second-order ones run one at a time.
    """
    # a forked pool starts all its workers at the first submit, so it gets no more than it has tasks or cores
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, repetitions, cores)
    if experiment.optimizer.is_second_order:
        bounds = range(repetitions + 1)
    else:
        bounds = [repetitions * w // workers for w in range(workers + 1)]
    tasks = [(experiment, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    if workers <= 1:
        chunks = map(_run_chunk, tasks)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk, tasks))
    return [result for chunk in chunks for result in chunk]


def _fmt_floats(values) -> list[str]:
    """`_fmt` of a column of floats and Nones, in one pass."""
    return ["" if v is None else f"{v:.17g}" for v in values]


def _write_runs_csv(path: Path, traces: list[Trace], n_charges: int):
    """One row per record, each column formatted in one pass."""
    header = ["run_id", "iter", "f_estimate", "grad_norm", "error_metric"]
    header += [f"mu_{i}" for i in range(n_charges)]
    header += ["shots_used"]
    lines = [",".join(header)]
    for run_id, trace in enumerate(traces):
        records = trace.records
        mu = np.array([rec.mu for rec in records]).reshape(len(records), n_charges)
        columns = [
            [str(run_id)] * len(records),
            [str(rec.iteration) for rec in records],
            _fmt_floats([rec.f_estimate for rec in records]),
            _fmt_floats([rec.grad_norm for rec in records]),
            _fmt_floats([rec.error_metric for rec in records]),
            *(_fmt_floats(column) for column in mu.T.tolist()),
            [str(rec.shots_used) for rec in records],
        ]
        lines += map(",".join, zip(*columns))
    path.write_text("\n".join(lines) + "\n")


def _write_aggregate_csv(path: Path, traces: list[Trace]):
    """Mean and std over the runs at each iteration, each column computed over a stack of runs.

    The runs present at an iteration change only where one stops, so each
    stretch between stops is one (iteration, run) array per quantity, whose
    rows reduce the same values in the same order as one row alone.  A row
    with a missing error metric leaves its error columns empty.
    """
    header = [
        "iter", "n_runs",
        "f_estimate_mean", "f_estimate_std",
        "grad_norm_mean", "grad_norm_std",
        "error_metric_mean", "error_metric_std",
    ]
    lines = [",".join(header)]
    start = 0
    for stop in sorted({trace.iterations for trace in traces}):
        present = [trace.records for trace in traces if trace.iterations >= stop]
        span = range(start, stop)
        columns = [[str(it) for it in span], [str(len(present))] * len(span)]
        for name in ("f_estimate", "grad_norm", "error_metric"):
            values = [[getattr(records[it], name) for records in present] for it in span]
            missing = [None in row for row in values]
            stacked = np.array(values, dtype=float)
            for stat in (stacked.mean(axis=1), stacked.std(axis=1)):
                columns.append(_fmt_floats([None if gap else v for gap, v in zip(missing, stat.tolist())]))
        lines += map(",".join, zip(*columns))
        start = stop
    path.write_text("\n".join(lines) + "\n")


def _encoded_fidelity(system: ThermoSystem, trace: Trace) -> float | None:
    """F = p_code F(rho_L, sigma_L) of the final state with the encoded target, read off the logical frame.

    The target lies in the codespace, where H's word G_j has the eigenvalue e_j of the code's signed
    generator: p_code = prod_j (1 + e_j <G_j>)/2.  Each word L_i is a charge: rho_L = (I + sum_i <Q_i> L_i)/2^k.
    """
    target = _logical_target_from_charges(system)
    if target is None:
        return None
    state = thermal_state(system, trace.final_mu, trace.temperature)
    frame = state.blocks.logical
    signs = {g.letters: g.phase.real for g in system.code.stabilizer_generators}
    e = np.array([signs[word.letters] for _, word in system.hamiltonian.terms])
    p_code = float(np.prod((1.0 + e * state.term_means[state.blocks.term_slices[0]]) / 2.0))
    dim = 2**system.code.k
    rho_logical = (np.eye(dim) + np.tensordot(state.charge_means, frame.words, axes=1)) / dim
    return p_code * state_fidelity(rho_logical, target.to_matrix())


def _reference(system: ThermoSystem, oracle_block: dict) -> ReferenceEnergy | None:
    """Closed-form reference energy, None when disabled; infeasible targets raise either way."""
    if not oracle_block["enable"]:
        check_feasible(system)
        return None
    return reference_energy(system)


def _make_dir(path: Path):
    """Create a directory and its parents, or raise ConfigError when they cannot be made."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {path}: {exc.strerror}") from None


def run_experiment(config: dict, out_dir: Path, workers: int = 1, strict: bool = False) -> int:
    system = build_system(config["model"])
    experiment = _prepare(system, config["solver"], config["seed"], config["repetitions"])
    # after _prepare's step-size gate: a refused solver exits before any reference work
    reference = _reference(system, config["oracle"])
    if reference is not None:
        experiment.reference_energy = reference.value
    _make_dir(out_dir)

    results = _map_repetitions(experiment, config["repetitions"], workers)
    traces = [trace for trace, _ in results]

    _write_runs_csv(out_dir / "runs.csv", traces, system.n_charges)
    if len(traces) > 1:
        _write_aggregate_csv(out_dir / "aggregate.csv", traces)
    else:
        # an aggregate left by an earlier run with repetitions
        (out_dir / "aggregate.csv").unlink(missing_ok=True)

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "label": config["label"] or system.label,
        "variant": config["solver"]["variant"],
        "seed": config["seed"],
        "repetitions": config["repetitions"],
        "temperature": traces[0].temperature,
        "epsilon": config["solver"]["epsilon"],
        "reference_energy": experiment.reference_energy,
        "reference_method": None if reference is None else reference.method,
        # a closed form is exact; the key predates it
        "oracle_low_confidence": None if reference is None else False,
        "converged": all(trace.converged for trace in traces),
        "encoded_state_fidelity": _encoded_fidelity(system, traces[0]),
        "runs": [
            {
                "run_id": run_id,
                "converged": trace.converged,
                "iterations": trace.iterations,
                "final_value": trace.final_value,
                "final_grad_norm": trace.final_grad_norm,
                "final_error_metric": trace.final_error_metric,
                "final_mu": trace.final_mu.tolist(),
                "wall_time_s": wall,
            }
            for run_id, (trace, wall) in enumerate(results)
        ],
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    if strict and not summary["converged"]:
        return 4
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _random_system(rng: np.random.Generator) -> ThermoSystem:
    from .operators import Observable, PauliString

    def random_pauli_sum(terms: int) -> Observable:
        entries = []
        for _ in range(terms):
            letters = tuple(rng.integers(0, 4, size=3))
            entries.append((float(rng.uniform(-1, 1)), PauliString(letters)))
        return Observable(3, entries)

    hamiltonian = random_pauli_sum(6)
    charges = tuple(random_pauli_sum(int(rng.integers(2, 5))) for _ in range(3))
    targets = tuple(float(t) for t in rng.uniform(-0.3, 0.3, size=3))
    return ThermoSystem(hamiltonian, charges, targets, label="random")


def _verify_formulas(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    worst_direct = 0.0
    worst_identity = 0.0
    for _ in range(50):
        dim = 8
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = (raw + raw.conj().T) / 2
        for beta in (0.1, 1.0, 10.0):
            rep = closeness_metrics(H, beta)
            worst_direct = max(
                worst_direct,
                abs(rep.trace_distance - rep.trace_distance_closed),
                abs(rep.fidelity - rep.fidelity_closed),
                abs(rep.relative_entropy - rep.relative_entropy_closed),
                max(abs(v - rep.renyi_closed) for v in rep.renyi_petz.values()),
                max(abs(v - rep.renyi_closed) for v in rep.renyi_sandwiched.values()),
                max(abs(v - rep.renyi_closed) for v in rep.renyi_geometric.values()),
            )
            worst_identity = max(
                worst_identity,
                abs(rep.trace_distance_closed - (1.0 - rep.fidelity_closed)),
                abs(rep.relative_entropy_closed + np.log(rep.fidelity_closed)),
            )
    checks.append(("closeness direct vs closed <= 1e-10", worst_direct <= 1e-10, f"max {worst_direct:.2e}"))
    checks.append(("TD=1-F and D=-lnF <= 1e-12", worst_identity <= 1e-12, f"max {worst_identity:.2e}"))
    return checks


def _frame_gap(system: ThermoSystem, state, reference: ThermoSystem) -> float:
    """The largest gap of a frame state from the same state of a reference path, relative to max(1, |value|).

    It compares ln Z, the means, the Pauli-term means and the exact Hessian.
    A frame state, SU(2) or stabilizer, holds no levels to compare: only mu,
    T and its frame.  Both kinds are checked against the dense path.
    """
    other = thermal_state(reference, state.mu, state.temperature)

    def values(s):
        means = [s.energy, *s.charge_means]
        return ([log_partition(s)], means, s.term_means, hessian_exact(system, s).ravel())

    return max(
        float(np.max(np.abs(np.subtract(a, b)))) / max(1.0, float(np.max(np.abs(b))))
        for a, b in zip(values(state), values(other))
    )


def _pair_gap(system: ThermoSystem, state, reference: ThermoSystem, modes) -> float:
    """The largest gap of the sampled Hessian's pair coefficients and means from those of a reference path.

    It runs over the Pauli pairs of every entry (i, j) in each mode; pairs
    laid out differently count as an infinite gap.
    """
    other = thermal_state(reference, state.mu, state.temperature)
    gap = 0.0
    for mode in modes:
        frame, dense = _pair_means(system, state, mode), _pair_means(reference, other, mode)
        for i in range(system.n_charges):
            for j in range(i, system.n_charges):
                for a, b in zip(frame(i, j), dense(i, j)):
                    gap = max(gap, float(np.max(np.abs(a - b))) if a.shape == b.shape else np.inf)
    return gap


def _verify_gradients(seed: int):
    """Derivatives against central differences, and the Pauli-term means against the dense gather.

    The random systems take the dense path, the Heisenberg models the SU(2)
    closed form and the codes their logical frame, and both frames are also
    checked against the dense path: the codes with the three axis words of
    repetition3 and perfect5 and all 15 words of detect422.  So are the
    sampled Hessian's pair means, of the Heisenberg models in both modes on
    the dense path that keeps `conserved`, and of the codes in generic mode.
    The Heisenberg models are also checked against the dense path at their
    solver's default T = epsilon/(n ln 2), where most levels underflow.
    """
    rng = np.random.default_rng(seed)
    codes = {name: models.builtin_code(name) for name in ("repetition3", "perfect5", "detect422")}
    conserved = [
        models.build_heisenberg("line", n=4, nnn=True, targets=(0.5, -0.2, 0.3)),
        models.build_heisenberg("grid", rows=2, cols=3, nnn=True, targets=(0.3, 0.1, -0.4)),
        *(models.build_stabilizer_system(codes[name], [((a,), 0.1) for a in (1, 2, 3)])
          for name in ("repetition3", "perfect5")),
        models.build_stabilizer_system(
            codes["detect422"], [(w, 0.1) for w in encoding.all_words(2) if any(w)]
        ),
    ]
    checks = []
    worst_grad = 0.0
    worst_hess = 0.0
    worst_psd = -np.inf
    worst_bound = -np.inf
    worst_terms = 0.0
    worst_su2 = 0.0
    worst_frame = 0.0
    worst_pairs = 0.0
    for system in itertools.chain((_random_system(rng) for _ in range(25)), conserved):
        c = system.n_charges
        T = float(rng.uniform(0.5, 2.0))
        mu = rng.normal(scale=0.5, size=c)
        state = thermal_state(system, mu, T)
        dense = np.concatenate(
            [term_expectations(obs, state.rho) for obs in (system.hamiltonian, *system.charges)]
        )
        worst_terms = max(worst_terms, float(np.max(np.abs(state.term_means - dense))))
        if system.su2_symmetric:
            reference = replace(system, conserved=False, su2_symmetric=False)
            dense = replace(system, su2_symmetric=False)
            cold = thermal_state(system, mu, OptimizerConfig().resolved_temperature(system))
            for frame in (state, cold):
                worst_su2 = max(worst_su2, _frame_gap(system, frame, reference))
                worst_pairs = max(worst_pairs, _pair_gap(system, frame, dense, ESTIMATOR_MODES))
        elif system.code is not None:
            dense = replace(system, conserved=False)
            worst_frame = max(worst_frame, _frame_gap(system, state, dense))
            worst_pairs = max(worst_pairs, _pair_gap(system, state, dense, ("generic",)))
        g = gradient(system, state)
        for i in range(c):
            e = np.zeros(c)
            e[i] = 1e-5
            fd = (
                objective_f(system, thermal_state(system, mu + e, T))
                - objective_f(system, thermal_state(system, mu - e, T))
            ) / 2e-5
            worst_grad = max(worst_grad, abs(fd - g[i]))
        hess = hessian_exact(system, state)
        for i in range(c):
            e = np.zeros(c)
            e[i] = 1e-4
            fd = (
                gradient(system, thermal_state(system, mu + e, T))
                - gradient(system, thermal_state(system, mu - e, T))
            ) / 2e-4
            worst_hess = max(worst_hess, float(np.max(np.abs(fd - hess[:, i]))))
        eigs = np.linalg.eigvalsh(hess)
        worst_psd = max(worst_psd, float(eigs[-1]))
        worst_bound = max(
            worst_bound, float(np.max(np.abs(eigs))) - smoothness_L(system, T)
        )
    checks.append(("gradient matches central differences <= 1e-6", worst_grad <= 1e-6, f"max {worst_grad:.2e}"))
    checks.append(("hessian matches gradient differences <= 1e-5", worst_hess <= 1e-5, f"max {worst_hess:.2e}"))
    checks.append(("hessian negative semi-definite", worst_psd <= 1e-10, f"max eig {worst_psd:.2e}"))
    checks.append(("hessian norm within smoothness bound", worst_bound <= 1e-9, f"slack {worst_bound:.2e}"))
    checks.append((
        "Pauli term means match the dense gather from rho <= 1e-12",
        worst_terms <= 1e-12,
        f"max {worst_terms:.2e}",
    ))
    checks.append((
        "SU(2) closed form matches the dense path <= 1e-12", worst_su2 <= 1e-12, f"max {worst_su2:.2e}"
    ))
    checks.append((
        "logical frame matches the dense path <= 1e-12", worst_frame <= 1e-12, f"max {worst_frame:.2e}"
    ))
    checks.append((
        "Hessian pair means: frames match the dense path <= 1e-12", worst_pairs <= 1e-12, f"max {worst_pairs:.2e}"
    ))
    return checks


def _verify_codes(seed: int):
    checks = []
    for name in ("repetition3", "perfect5", "detect422"):
        try:
            code = models.builtin_code(name)
            projector = models.codespace_projector(code)
            trace_ok = abs(np.trace(projector).real - 2**code.k) <= 1e-9
            idem = float(np.max(np.abs(projector @ projector - projector)))
            system = models.build_stabilizer_system(
                code,
                [(w, 0.0) for w in encoding.all_words(code.k) if any(i != 0 for i in w)],
            )
            ok = trace_ok and idem <= 1e-12 and system.conserved
            checks.append((f"{name} invariants", ok, f"projector trace ok={trace_ok}, idem={idem:.2e}"))
        except Exception as exc:  # pragma: no cover - surfaced in the report
            checks.append((f"{name} invariants", False, repr(exc)))
    return checks


def _verify_references(seed: int):
    """Closed-form reference energies against the supergradient dual solve."""
    rng = np.random.default_rng(seed)

    def direction(norm):
        v = rng.normal(size=3)
        return norm * v / np.linalg.norm(v)

    systems = [
        models.build_heisenberg("line", n=6, nnn=True, targets=direction(rng.uniform(0.5, 5.0))),
        models.build_heisenberg("grid", rows=2, cols=3, nnn=True, targets=direction(rng.uniform(0.5, 5.0))),
    ]
    for name in ("repetition3", "perfect5", "detect422"):
        code = models.builtin_code(name)
        spec = []
        for qubit in range(code.k):
            for axis, target in enumerate(direction(rng.uniform(0.1, 0.9)), start=1):
                word = [0] * code.k
                word[qubit] = axis
                spec.append((tuple(word), target))
        systems.append(models.build_stabilizer_system(code, spec))
    checks = []
    for system in systems:
        closed = reference_energy(system)
        solved = oracle.dual_eigenvalue_solve(system, iterations=300)
        gap = abs(closed.value - solved.value)
        checks.append((
            f"{system.label} {closed.method} reference matches dual solve <= 1e-8",
            gap <= 1e-8,
            f"closed {closed.value:.12g}, dual {solved.value:.12g}, gap {gap:.2e}",
        ))
    return checks


def run_verify(suite: str, seed: int, out_path: Path | None) -> int:
    suites = {
        "formulas": _verify_formulas,
        "gradients": _verify_gradients,
        "codes": _verify_codes,
        "references": _verify_references,
    }
    if suite == "all":
        names = list(suites)
    elif suite in suites:
        names = [suite]
    else:
        raise ConfigError(f"unknown suite {suite!r}; choose from {sorted(suites)} or 'all'")
    if seed < 0:
        raise ConfigError(f"verify --seed must be non-negative, got {seed}")

    if out_path is not None:
        _make_dir(out_path.parent)
        if out_path.is_dir():
            raise ConfigError(f"cannot write the report to {out_path}: it is a directory")
    all_checks = []
    for name in names:
        for label, passed, detail in suites[name](seed):
            all_checks.append({"suite": name, "check": label, "passed": bool(passed), "detail": detail})

    for check in all_checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} [{check['suite']}] {check['check']} ({check['detail']})")

    ok = all(c["passed"] for c in all_checks)
    if out_path is not None:
        out_path.write_text(json.dumps({"passed": ok, "checks": all_checks}, indent=2) + "\n")
    print(f"{'OK' if ok else 'FAILED'}: {sum(c['passed'] for c in all_checks)}/{len(all_checks)} checks passed")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


def run_sweep(config: dict, parameter: str, values, out_dir: Path, workers: int = 1) -> int:
    if parameter not in _SWEEP_KEYS:
        raise ConfigError("sweep parameter must be one of T, shots, eta")
    for value in values:
        if not _fits(value, float):
            raise ConfigError(f"sweep values must be finite numbers, got {value!r}")
        if parameter == "shots" and not (float(value).is_integer() and value < 2**63):
            raise ConfigError(f"shots values must be integers below 2^63, got {value!r}")

    system = build_system(config["model"])
    # the targets are the same for every value, so infeasible ones reject the whole sweep
    reference = _reference(system, config["oracle"])
    _make_dir(out_dir)

    rows = []
    for v_index, value in enumerate(values):
        setting = int(value) if parameter == "shots" else float(value)
        solver = {**config["solver"], _SWEEP_KEYS[parameter]: setting}
        seed = derive_stream_seed(config["seed"], v_index, _SWEEP_TAG)
        try:
            experiment = _prepare(system, solver, seed, config["repetitions"])
            if reference is not None:
                experiment.reference_energy = reference.value
            results = _map_repetitions(experiment, config["repetitions"], workers)
        except ValueError as exc:
            rows.append([parameter, _fmt(value), "0", "rejected", "False", "0", "", "", "", "", str(exc)])
            continue
        for run_id, (trace, _) in enumerate(results):
            rows.append([
                parameter, _fmt(value), str(run_id), "ok", str(trace.converged),
                str(trace.iterations), _fmt(trace.final_value), _fmt(trace.final_grad_norm),
                _fmt(trace.final_error_metric), _fmt(_encoded_fidelity(system, trace)), "",
            ])

    header = [
        "parameter", "value", "run_id", "status", "converged", "iterations",
        "final_value", "final_grad_norm", "final_error_metric", "fidelity", "detail",
    ]
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        # quotes a free-text detail that holds a comma; other rows keep their bytes
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _load_config(path: str, seed_override: int | None) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file cannot be read: {path}: {exc}") from None
    config = validate_config(raw)
    if seed_override is not None:
        config["seed"] = seed_override
    return config


def _sweep_values(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"--values must be comma-separated numbers, got {text!r}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermodual",
        description="Constrained energy minimization via dual chemical-potential maximization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--strict", action="store_true")
    p_run.add_argument("--workers", type=int, default=1)

    p_verify = sub.add_parser("verify", help="run a self-check suite")
    p_verify.add_argument("suite", choices=["formulas", "gradients", "codes", "references", "all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="re-run a config across parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--parameter", required=True, choices=list(_SWEEP_KEYS))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=1)

    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "sweep") and args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        if args.command == "run":
            config = _load_config(args.config, args.seed)
            return run_experiment(config, Path(args.out), workers=args.workers, strict=args.strict)
        if args.command == "verify":
            out = Path(args.out) if args.out else None
            return run_verify(args.suite, args.seed, out)
        if args.command == "sweep":
            config = _load_config(args.config, args.seed)
            values = _sweep_values(args.values)
            return run_sweep(config, args.parameter, values, Path(args.out), workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"numerical integrity error: {exc}", file=sys.stderr)
        return 3
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
