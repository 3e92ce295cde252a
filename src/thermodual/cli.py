"""Experiment runner: configure a model and solver, run, emit plot-ready traces.

Subcommands:
  run     one experiment from a JSON config; writes runs.csv, aggregate.csv
          (for repeated runs), and summary.json into the output directory
  verify  self-check suites (formulas, gradients, codes, references)
  sweep   re-run one config across values of T, shots, or eta

Exit codes: 0 success, 2 config error (infeasible targets included), 3
numerical-integrity error or failed verification, 4 non-convergence under
--strict, 5 model beyond the dense size limit.  CSV floats carry 17
significant digits so identical (config, seed) pairs reproduce artifacts
byte for byte, independent of --workers.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import encoding, models, oracle
from .errors import ConfigError, NumericalIntegrityError, ResourceError
from .gibbs import gradient, hessian_exact, objective_f, smoothness_L, thermal_state
from .models import ThermoSystem
from .optimize import ExactEstimator, OptimizerConfig, first_order_step_size, run
from .oracle import (
    ReferenceEnergy,
    check_feasible,
    closeness_metrics,
    reference_energy,
    state_fidelity,
)
from .shots import ESTIMATOR_MODES, ShotEstimator, derive_stream_seed

SUMMARY_SCHEMA_VERSION = 2
_REP_TAG = 1 << 23
_SWEEP_TAG = 1 << 24

_MODEL_KEYS = {
    "heisenberg": {"kind", "geometry", "n", "rows", "cols", "nnn", "J", "lambda", "targets"},
    "stabilizer": {"kind", "code", "charges"},
}
_SOLVER_KEYS = {
    "variant", "epsilon", "eta", "delta", "max_iter", "nesterov",
    "backtrack_factor", "hessian_regularization_floor", "step_cap",
    "temperature", "shots_per_iteration", "hessian_samples_per_iteration",
    "estimator_mode", "warm_start",
}
# iterations and tolerance are still accepted and type-checked, but the
# closed-form reference reads neither
_ORACLE_KEYS = {"enable", "iterations", "tolerance"}
_TOP_KEYS = {"label", "model", "solver", "oracle", "repetitions", "seed"}

# JSON type of each typed field; a bool is not taken for a number
_VECTOR3 = "a list of 3 numbers"
_MODEL_TYPES = {
    "n": int, "rows": int, "cols": int, "nnn": bool, "J": float, "lambda": float,
    "targets": _VECTOR3,
}
_CHARGE_TYPES = {"word": str, "target": float}
_SOLVER_TYPES = {
    "epsilon": float, "eta": float, "delta": float, "max_iter": int, "nesterov": bool,
    "backtrack_factor": float, "hessian_regularization_floor": float, "step_cap": float,
    "temperature": float, "shots_per_iteration": int, "hessian_samples_per_iteration": int,
    "warm_start": bool,
}
_ORACLE_TYPES = {"enable": bool, "iterations": int, "tolerance": float}
# fields where null means "use the variant's default"
_NULLABLE = {"eta", "delta", "temperature", "nesterov"}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _require_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_types(block: dict, types: dict, where: str):
    for key, kind in types.items():
        if key not in block or (block[key] is None and key in _NULLABLE):
            continue
        value = block[key]
        if kind is bool or kind is str:
            ok = isinstance(value, kind)
        elif kind is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif kind is float:
            ok = _is_number(value)
        else:
            ok = isinstance(value, list) and len(value) == 3 and all(map(_is_number, value))
        if not ok:
            name = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
            raise ConfigError(f"{where}.{key} must be {name.get(kind, kind)}, got {value!r}")


def validate_config(raw: dict) -> dict:
    """Strict-schema validation; returns the config with defaults filled in."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "config")
    if "model" not in raw or "solver" not in raw:
        raise ConfigError("config needs 'model' and 'solver' blocks")

    model = dict(raw["model"])
    kind = model.get("kind")
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"model.kind must be one of {sorted(_MODEL_KEYS)}")
    _require_keys(model, _MODEL_KEYS[kind], "model")
    _require_types(model, _MODEL_TYPES, "model")
    if kind == "stabilizer":
        charges = model.get("charges")
        if not isinstance(charges, list) or not charges:
            raise ConfigError("stabilizer model needs a non-empty 'charges' list")
        code = models.builtin_code(model.get("code", ""))
        for entry in charges:
            if not isinstance(entry, dict) or not set(_CHARGE_TYPES) <= set(entry):
                raise ConfigError(f"model.charges[] needs 'word' and 'target', got {entry!r}")
            _require_keys(entry, set(_CHARGE_TYPES), "model.charges[]")
            _require_types(entry, _CHARGE_TYPES, "model.charges[]")
            models.charge_word_from_string(code, entry["word"])

    solver = dict(raw.get("solver", {}))
    _require_keys(solver, _SOLVER_KEYS, "solver")
    _require_types(solver, _SOLVER_TYPES, "solver")
    for key in ("shots_per_iteration", "hessian_samples_per_iteration"):
        if solver.get(key, 1) < 1:
            raise ConfigError(f"solver.{key} must be at least 1, got {solver[key]}")
    solver.setdefault("variant", "first_classical")
    solver.setdefault("epsilon", 0.1)
    solver.setdefault("max_iter", 1000)
    solver.setdefault("shots_per_iteration", 10_000)
    solver.setdefault("hessian_samples_per_iteration", 10_000_000)
    solver.setdefault("estimator_mode", "generic")
    solver.setdefault("warm_start", False)
    if solver["estimator_mode"] not in ESTIMATOR_MODES:
        raise ConfigError(f"solver.estimator_mode must be one of {list(ESTIMATOR_MODES)}")
    try:
        sampled = _optimizer_config(solver).is_sampled
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None

    oracle_block = dict(raw.get("oracle", {"enable": True}))
    _require_keys(oracle_block, _ORACLE_KEYS, "oracle")
    _require_types(oracle_block, _ORACLE_TYPES, "oracle")
    oracle_block.setdefault("enable", True)
    oracle_block.setdefault("iterations", 2000)
    oracle_block.setdefault("tolerance", 1e-6)

    _require_types(raw, {"repetitions": int, "seed": int}, "config")
    repetitions = raw.get("repetitions", 5 if sampled else 1)
    if repetitions < 1:
        raise ConfigError("repetitions must be a positive integer")

    return {
        "label": raw.get("label", ""),
        "model": model,
        "solver": solver,
        "oracle": oracle_block,
        "repetitions": repetitions,
        "seed": raw.get("seed", 0),
    }


def build_system(model: dict) -> ThermoSystem:
    if model["kind"] == "heisenberg":
        geometry = model.get("geometry", "line")
        targets = model.get("targets")
        if targets is None or len(targets) != 3:
            raise ConfigError("heisenberg model needs 3 magnetization targets")
        return models.build_heisenberg(
            geometry=geometry,
            n=model.get("n"),
            rows=model.get("rows"),
            cols=model.get("cols"),
            nnn=model.get("nnn", False),
            J=model.get("J", 1.0),
            lam=model.get("lambda", 0.5),
            targets=tuple(targets),
        )
    code = models.builtin_code(model["code"])
    spec = [
        (models.charge_word_from_string(code, entry["word"]), entry["target"])
        for entry in model["charges"]
    ]
    return models.build_stabilizer_system(code, spec)


def _optimizer_config(solver: dict) -> OptimizerConfig:
    return OptimizerConfig(
        variant=solver["variant"],
        epsilon=float(solver["epsilon"]),
        eta=solver.get("eta"),
        delta=solver.get("delta"),
        max_iter=int(solver["max_iter"]),
        nesterov=solver.get("nesterov"),
        backtrack_factor=float(solver.get("backtrack_factor", 0.5)),
        hessian_regularization_floor=float(solver.get("hessian_regularization_floor", 0.0)),
        step_cap=float(solver.get("step_cap", 1.0)),
        temperature=solver.get("temperature"),
    )


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


def _warm_start_mu(system: ThermoSystem, solver: dict, temperature: float):
    if not solver.get("warm_start"):
        return None
    code = system.code
    if code is None or code.k != 1:
        raise ConfigError("warm_start needs a stabilizer model encoding one qubit")
    table = dict(zip(system.charge_words, system.targets))
    if set(table) != {(1,), (2,), (3,)}:
        raise ConfigError("warm_start needs charges on the three logical axes")
    r = np.array([table[(1,)], table[(2,)], table[(3,)]])
    if np.linalg.norm(r) >= 1.0:
        raise ConfigError("warm_start targets must describe a strictly mixed state")
    _, warm = encoding.warm_start_state(code, r, temperature)
    return warm.chemical_potentials(temperature, system.charge_words)


def _make_estimator(system: ThermoSystem, solver: dict, sampled: bool, master_seed: int):
    if not sampled:
        return ExactEstimator(system)
    return ShotEstimator(
        system,
        master_seed=master_seed,
        shots_per_iteration=int(solver["shots_per_iteration"]),
        hessian_samples_per_iteration=int(solver["hessian_samples_per_iteration"]),
        mode=solver["estimator_mode"],
    )


def _run_repetition(payload: dict) -> dict:
    """One repetition; top-level so process pools can pickle it."""
    config = payload["config"]
    system = build_system(config["model"])
    solver = config["solver"]
    rep_seed = derive_stream_seed(config["seed"], payload["rep"], _REP_TAG, 0)
    opt_config = _optimizer_config(solver)
    temperature = opt_config.resolved_temperature(system)
    mu0 = _warm_start_mu(system, solver, temperature)
    estimator = _make_estimator(system, solver, opt_config.is_sampled, rep_seed)
    start = time.perf_counter()
    trace = run(
        system,
        system.targets,
        opt_config,
        estimator,
        mu0=mu0,
        reference_energy=payload.get("reference_energy"),
    )
    wall = time.perf_counter() - start
    return {
        "rep": payload["rep"],
        "converged": trace.converged,
        "iterations": trace.iterations,
        "final_value": trace.final_value,
        "final_grad_norm": trace.final_grad_norm,
        "final_error_metric": trace.final_error_metric,
        "final_mu": [float(x) for x in trace.final_mu],
        "temperature": trace.temperature,
        "wall_time_s": wall,
        "records": [
            {
                "iter": r.iteration,
                "f_estimate": r.f_estimate,
                "grad_norm": r.grad_norm,
                "error_metric": r.error_metric,
                "mu": [float(x) for x in r.mu],
                "shots_used": r.shots_used,
            }
            for r in trace.records
        ],
    }


def _map_repetitions(payloads, workers: int):
    if workers <= 1 or len(payloads) == 1:
        return [_run_repetition(p) for p in payloads]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_repetition, payloads))


def _write_runs_csv(path: Path, results, n_charges: int):
    header = ["run_id", "iter", "f_estimate", "grad_norm", "error_metric"]
    header += [f"mu_{i}" for i in range(n_charges)]
    header += ["shots_used"]
    lines = [",".join(header)]
    for result in results:
        for rec in result["records"]:
            row = [
                str(result["rep"]),
                str(rec["iter"]),
                _fmt(rec["f_estimate"]),
                _fmt(rec["grad_norm"]),
                _fmt(rec["error_metric"]),
            ]
            row += [_fmt(v) for v in rec["mu"]]
            row += [str(rec["shots_used"])]
            lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _write_aggregate_csv(path: Path, results):
    max_len = max(len(r["records"]) for r in results)
    header = [
        "iter", "n_runs",
        "f_estimate_mean", "f_estimate_std",
        "grad_norm_mean", "grad_norm_std",
        "error_metric_mean", "error_metric_std",
    ]
    lines = [",".join(header)]
    for it in range(max_len):
        rows = [r["records"][it] for r in results if it < len(r["records"])]
        fs = np.array([r["f_estimate"] for r in rows])
        gs = np.array([r["grad_norm"] for r in rows])
        errs = [r["error_metric"] for r in rows]
        have_err = all(e is not None for e in errs)
        es = np.array(errs, dtype=float) if have_err else None
        line = [
            str(it), str(len(rows)),
            _fmt(float(fs.mean())), _fmt(float(fs.std())),
            _fmt(float(gs.mean())), _fmt(float(gs.std())),
            _fmt(float(es.mean()) if have_err else None),
            _fmt(float(es.std()) if have_err else None),
        ]
        lines.append(",".join(line))
    path.write_text("\n".join(lines) + "\n")


def _encoded_fidelity(system: ThermoSystem, result: dict) -> float | None:
    target = _logical_target_from_charges(system)
    if target is None:
        return None
    final_state = thermal_state(system, np.array(result["final_mu"]), result["temperature"])
    reference = encoding.encoded_state(system.code, target)
    return state_fidelity(final_state.rho, reference)


def _reference(system: ThermoSystem, oracle_block: dict) -> ReferenceEnergy | None:
    """Closed-form reference energy, None when disabled; infeasible targets raise either way."""
    if not oracle_block["enable"]:
        check_feasible(system)
        return None
    return reference_energy(system)


def _check_step_size(system: ThermoSystem, solver: dict):
    """Reject a first-order step size the solver would refuse, before any work starts."""
    opt_config = _optimizer_config(solver)
    if opt_config.is_second_order:
        return
    try:
        first_order_step_size(system, opt_config)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None


def run_experiment(config: dict, out_dir: Path, workers: int = 1, strict: bool = False) -> int:
    system = build_system(config["model"])
    _check_step_size(system, config["solver"])
    reference = _reference(system, config["oracle"])
    energy = None if reference is None else reference.value

    payloads = [
        {"config": config, "rep": rep, "reference_energy": energy}
        for rep in range(config["repetitions"])
    ]
    results = _map_repetitions(payloads, workers)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_runs_csv(out_dir / "runs.csv", results, system.n_charges)
    if len(results) > 1:
        _write_aggregate_csv(out_dir / "aggregate.csv", results)

    fidelity = _encoded_fidelity(system, results[0])
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "label": config["label"] or system.label,
        "variant": config["solver"]["variant"],
        "seed": config["seed"],
        "repetitions": config["repetitions"],
        "temperature": results[0]["temperature"],
        "epsilon": config["solver"]["epsilon"],
        "reference_energy": energy,
        "reference_method": None if reference is None else reference.method,
        # a closed form is exact; the key predates it
        "oracle_low_confidence": None if reference is None else False,
        "converged": all(r["converged"] for r in results),
        "encoded_state_fidelity": fidelity,
        "runs": [
            {
                "run_id": r["rep"],
                "converged": r["converged"],
                "iterations": r["iterations"],
                "final_value": r["final_value"],
                "final_grad_norm": r["final_grad_norm"],
                "final_error_metric": r["final_error_metric"],
                "final_mu": r["final_mu"],
                "wall_time_s": r["wall_time_s"],
            }
            for r in results
        ],
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    if strict and not summary["converged"]:
        return 4
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _random_system(rng: np.random.Generator, n: int = 3, n_charges: int = 3) -> ThermoSystem:
    from .operators import Observable, PauliString

    def random_pauli_sum(terms: int) -> Observable:
        entries = []
        for _ in range(terms):
            letters = tuple(rng.integers(0, 4, size=n))
            entries.append((float(rng.uniform(-1, 1)), PauliString(letters)))
        return Observable(n, entries)

    hamiltonian = random_pauli_sum(6)
    charges = tuple(random_pauli_sum(int(rng.integers(2, 5))) for _ in range(n_charges))
    targets = tuple(float(t) for t in rng.uniform(-0.3, 0.3, size=n_charges))
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


def _verify_gradients(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    worst_grad = 0.0
    worst_hess = 0.0
    worst_psd = -np.inf
    worst_bound = -np.inf
    for k in range(25):
        system = _random_system(rng)
        T = float(rng.uniform(0.5, 2.0))
        mu = rng.normal(scale=0.5, size=3)
        state = thermal_state(system, mu, T)
        g = gradient(system, system.targets, state)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-5
            fd = (
                objective_f(system.targets, thermal_state(system, mu + e, T))
                - objective_f(system.targets, thermal_state(system, mu - e, T))
            ) / 2e-5
            worst_grad = max(worst_grad, abs(fd - g[i]))
        hess = hessian_exact(system, state)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-4
            fd = (
                gradient(system, system.targets, thermal_state(system, mu + e, T))
                - gradient(system, system.targets, thermal_state(system, mu - e, T))
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
        solved = oracle.dual_eigenvalue_solve(system, system.targets, iterations=300)
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

    all_checks = []
    for name in names:
        for label, passed, detail in suites[name](seed):
            all_checks.append({"suite": name, "check": label, "passed": bool(passed), "detail": detail})

    for check in all_checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} [{check['suite']}] {check['check']} ({check['detail']})")

    ok = all(c["passed"] for c in all_checks)
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps({"passed": ok, "checks": all_checks}, indent=2) + "\n")
    print(f"{'OK' if ok else 'FAILED'}: {sum(c['passed'] for c in all_checks)}/{len(all_checks)} checks passed")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


def run_sweep(config: dict, parameter: str, values, out_dir: Path, workers: int = 1) -> int:
    if parameter not in ("T", "shots", "eta"):
        raise ConfigError("sweep parameter must be one of T, shots, eta")

    system = build_system(config["model"])
    # the targets are the same for every value, so infeasible ones reject the whole sweep
    reference = _reference(system, config["oracle"])
    energy = None if reference is None else reference.value

    rows = []
    for v_index, value in enumerate(values):
        sub = json.loads(json.dumps(config))
        if parameter == "T":
            sub["solver"]["temperature"] = float(value)
        elif parameter == "shots":
            sub["solver"]["shots_per_iteration"] = int(value)
        else:
            sub["solver"]["eta"] = float(value)
        sub["seed"] = derive_stream_seed(config["seed"], v_index, _SWEEP_TAG, 0)

        payloads = [
            {"config": sub, "rep": rep, "reference_energy": energy}
            for rep in range(sub["repetitions"])
        ]
        try:
            results = _map_repetitions(payloads, workers)
        except (ValueError, ConfigError) as exc:
            rows.append({
                "parameter": parameter, "value": value, "run_id": 0, "status": "rejected",
                "converged": False, "iterations": 0, "final_value": None,
                "final_grad_norm": None, "final_error_metric": None, "fidelity": None,
                "detail": str(exc),
            })
            continue
        for result in results:
            rows.append({
                "parameter": parameter,
                "value": value,
                "run_id": result["rep"],
                "status": "ok",
                "converged": result["converged"],
                "iterations": result["iterations"],
                "final_value": result["final_value"],
                "final_grad_norm": result["final_grad_norm"],
                "final_error_metric": result["final_error_metric"],
                "fidelity": _encoded_fidelity(system, result),
                "detail": "",
            })

    out_dir.mkdir(parents=True, exist_ok=True)
    header = [
        "parameter", "value", "run_id", "status", "converged", "iterations",
        "final_value", "final_grad_norm", "final_error_metric", "fidelity", "detail",
    ]
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        # quotes a free-text detail that holds a comma; other rows keep their bytes
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                row["parameter"], _fmt(row["value"]), str(row["run_id"]), row["status"],
                str(row["converged"]), str(row["iterations"]), _fmt(row["final_value"]),
                _fmt(row["final_grad_norm"]), _fmt(row["final_error_metric"]),
                _fmt(row["fidelity"]), row["detail"],
            ])
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
    config = validate_config(raw)
    if seed_override is not None:
        config["seed"] = seed_override
    return config


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
    p_sweep.add_argument("--parameter", required=True, choices=["T", "shots", "eta"])
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=1)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _load_config(args.config, args.seed)
            return run_experiment(config, Path(args.out), workers=args.workers, strict=args.strict)
        if args.command == "verify":
            out = Path(args.out) if args.out else None
            return run_verify(args.suite, args.seed, out)
        if args.command == "sweep":
            config = _load_config(args.config, args.seed)
            values = [float(v) for v in args.values.split(",") if v.strip()]
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
