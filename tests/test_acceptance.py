"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and must not be loosened.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from thermodual.cli import main as cli_main
from thermodual.encoding import (
    LogicalTarget,
    logical_expectations,
    optimal_encoding_state,
    warm_start_state,
)
from thermodual.gibbs import (
    gradient,
    hessian_exact,
    objective_f,
    smoothness_L,
    thermal_state,
)
from thermodual.models import ThermoSystem, build_heisenberg, build_stabilizer_system, builtin_code
from thermodual.operators import Observable, PauliString
from thermodual.optimize import ExactEstimator, OptimizerConfig, run
from thermodual.oracle import closeness_metrics, dual_eigenvalue_solve
from thermodual.shots import hessian_fourier_quadrature

from conftest import random_pauli_observable


def report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"\nacceptance {number:02d}: {status} ({detail})")
    assert passed, f"criterion {number}: {detail}"


def bloch_system(code_name, r):
    code = builtin_code(code_name)
    return build_stabilizer_system(code, [((1,), r[0]), ((2,), r[1]), ((3,), r[2])])


def random_dense_hermitian_observable(rng, n):
    """A random dense Hermitian matrix expressed exactly as a Pauli sum."""
    dim = 2**n
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    G = (raw + raw.conj().T) / 2
    terms = []
    for letters in np.ndindex(*(4,) * n):
        word = PauliString(tuple(int(l) for l in letters))
        coeff = float(np.real(np.einsum("ij,ji->", word.to_dense(), G))) / dim
        terms.append((coeff, word))
    return Observable(n, terms)


def random_hermitian_system(rng, n=3, n_charges=3):
    hamiltonian = random_dense_hermitian_observable(rng, n)
    charges = tuple(
        random_pauli_observable(rng, n, int(rng.integers(2, 5)))
        for _ in range(n_charges)
    )
    targets = tuple(float(t) for t in rng.uniform(-0.3, 0.3, size=n_charges))
    return ThermoSystem(hamiltonian, charges, targets, label="random-dense")


@pytest.fixture(scope="module")
def heisenberg_references():
    cache = {}
    for key, kwargs in {
        "1d3": dict(geometry="line", n=3, targets=(1.0, 0.0, 1.0)),
        "1d5": dict(geometry="line", n=5, targets=(1.0, 0.0, 1.0)),
        "2d6": dict(geometry="grid", rows=2, cols=3, nnn=True, lam=0.5, targets=(0.5, 0.5, 0.5)),
    }.items():
        system = build_heisenberg(**kwargs)
        solution = dual_eigenvalue_solve(system, iterations=1500)
        cache[key] = (system, solution.value)
    return cache


def test_criterion_01_stabilizer_ground_energy():
    start = time.perf_counter()
    system = bloch_system("perfect5", (0.2, 0.0, 0.5))
    solution = dual_eigenvalue_solve(system, iterations=1000)
    oracle_ok = abs(solution.value - (-4.0)) <= 1e-3

    config = OptimizerConfig(variant="second_classical", epsilon=0.1, max_iter=300)
    trace = run(
        system, config, ExactEstimator(system),
        reference_energy=solution.value,
    )
    T = config.resolved_temperature(system)
    bound = system.n_qubits * T * math.log(2) + 1e-2
    output_ok = trace.converged and abs(trace.final_value - (-4.0)) <= bound
    elapsed = time.perf_counter() - start
    report(
        1,
        oracle_ok and output_ok and elapsed <= 30.0,
        f"E={solution.value:.6f}, output={trace.final_value:.6f}, "
        f"bound={bound:.3f}, {elapsed:.1f}s",
    )


def test_criterion_02_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(25):
        system = random_hermitian_system(rng)
        T = float(rng.uniform(0.1, 2.0))
        mu = rng.normal(scale=0.5, size=3)
        g = gradient(system, thermal_state(system, mu, T))
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-5
            fd = (
                objective_f(system, thermal_state(system, mu + e, T))
                - objective_f(system, thermal_state(system, mu - e, T))
            ) / 2e-5
            worst = max(worst, abs(fd - g[i]))
    report(2, worst <= 1e-6, f"max |grad - FD| = {worst:.2e}")


def test_criterion_03_hessian_correctness_and_concavity():
    rng = np.random.default_rng(303)
    worst_fd = 0.0
    # truncation error of the 1e-4 central difference scales like 1/T^3, so
    # the FD comparison draws T where the quoted tolerance is meaningful
    for _ in range(25):
        system = random_hermitian_system(rng)
        T = float(rng.uniform(0.5, 2.0))
        mu = rng.normal(scale=0.5, size=3)
        hess = hessian_exact(system, thermal_state(system, mu, T))
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-4
            fd = (
                gradient(system, thermal_state(system, mu + e, T))
                - gradient(system, thermal_state(system, mu - e, T))
            ) / 2e-4
            worst_fd = max(worst_fd, float(np.max(np.abs(fd - hess[:, i]))))

    worst_eig = -np.inf
    worst_slack = -np.inf
    for _ in range(100):
        system = random_hermitian_system(rng)
        T = float(rng.uniform(0.1, 2.0))
        mu = rng.normal(size=3)
        eigs = np.linalg.eigvalsh(hessian_exact(system, thermal_state(system, mu, T)))
        worst_eig = max(worst_eig, float(eigs[-1]))
        worst_slack = max(worst_slack, float(np.max(np.abs(eigs))) - smoothness_L(system, T))
    ok = worst_fd <= 1e-5 and worst_eig <= 1e-10 and worst_slack <= 0.0
    report(
        3, ok,
        f"FD={worst_fd:.2e}, max eig={worst_eig:.2e}, bound slack={worst_slack:.2e}",
    )


def test_criterion_04_fourier_form_equivalence():
    rng = np.random.default_rng(404)
    worst_quad = 0.0
    for _ in range(5):
        system = random_hermitian_system(rng, n=2, n_charges=2)
        T = float(rng.uniform(0.4, 1.5))
        mu = rng.normal(scale=0.5, size=2)
        state = thermal_state(system, mu, T)
        exact = hessian_exact(system, state)
        quad_form = hessian_fourier_quadrature(system, state)
        worst_quad = max(worst_quad, float(np.max(np.abs(quad_form - exact))))

    # generic mode reads eigenvectors, so the chain leaves its sectors for the dense path
    heis = replace(build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0)), su2_symmetric=False)
    worst_mode = 0.0
    for mu, T in (([0.3, -0.2, 0.1], 0.7), ([0.0, 0.4, -0.5], 1.1)):
        state = thermal_state(heis, np.array(mu), T)
        generic = hessian_fourier_quadrature(heis, state, mode="generic")
        extensive = hessian_fourier_quadrature(heis, state, mode="extensive")
        worst_mode = max(worst_mode, float(np.max(np.abs(generic - extensive))))
    ok = worst_quad <= 1e-3 and worst_mode <= 1e-6
    report(4, ok, f"quadrature vs exact={worst_quad:.2e}, generic vs extensive={worst_mode:.2e}")


def test_criterion_05_closeness_identities():
    rng = np.random.default_rng(505)
    worst_direct = 0.0
    worst_identity = 0.0
    for _ in range(50):
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
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
                abs(rep.relative_entropy_closed + math.log(rep.fidelity_closed)),
            )
    ok = worst_direct <= 1e-10 and worst_identity <= 1e-12
    report(5, ok, f"direct vs closed={worst_direct:.2e}, identities={worst_identity:.2e}")


def test_criterion_06_duality_identities(heisenberg_references):
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        system = random_hermitian_system(rng)
        T = float(rng.uniform(0.2, 2.0))
        mu = rng.normal(size=3)
        state = thermal_state(system, mu, T)
        from thermodual.gibbs import effective_hamiltonian

        A = effective_hamiltonian(system, mu)
        energy = float(np.real(np.einsum("ij,ji->", A, state.rho)))
        p = state.block_populations[state.block_populations > 0]
        entropy = float(-np.sum(p * np.log(p)))
        lhs = objective_f(system, state)
        rhs = float(mu @ np.array(system.targets)) + energy - T * entropy
        worst = max(worst, abs(lhs - rhs))
    identity_ok = worst <= 1e-10

    system, E = heisenberg_references["1d3"]
    sandwich_ok = True
    for T in (0.5, 0.2, 0.05):
        cfg = OptimizerConfig(variant="second_classical", temperature=T, max_iter=2000, delta=1e-9)
        trace = run(system, cfg, ExactEstimator(system))
        F_T = objective_f(system, thermal_state(system, trace.final_mu, T))
        slack = 2e-5
        sandwich_ok &= trace.converged and (E >= F_T - slack) and (
            F_T >= E - 3 * T * math.log(2) - slack
        )
    report(6, identity_ok and sandwich_ok, f"identity err={worst:.2e}, sandwich ok={sandwich_ok}")


def test_criterion_07_warm_start_and_closed_form_encoding():
    grad_ok = True
    iter_ok = True
    for name in ("repetition3", "perfect5"):
        code = builtin_code(name)
        r = np.array([0.2, 0.0, 0.5])
        system = bloch_system(name, r)
        cfg = OptimizerConfig(variant="second_classical", epsilon=0.1, max_iter=30)
        T = cfg.resolved_temperature(system)
        _, warm = warm_start_state(code, r, T)
        mu0 = warm.chemical_potentials(T, [(1,), (2,), (3,)])
        g = gradient(system, thermal_state(system, mu0, T))
        grad_ok &= float(np.linalg.norm(g)) <= 1e-8
        trace = run(system, cfg, ExactEstimator(system), mu0=mu0)
        iter_ok &= trace.converged and trace.iterations <= 1

    code = builtin_code("detect422")
    target = LogicalTarget.from_coefficients(2, {(1, 1): 0.9, (2, 2): -0.9, (3, 3): 0.9})
    rho = optimal_encoding_state(code, target, 0.1)
    exps = logical_expectations(code, rho)
    worst = max(abs(exps[w] - target.coefficient(w)) for w in exps)
    report(
        7,
        grad_ok and iter_ok and worst <= 1e-8,
        f"warm grad ok={grad_ok}, immediate stop={iter_ok}, k=2 expectations err={worst:.2e}",
    )


def test_criterion_08_solver_convergence_orderings(heisenberg_references):
    # (a) both classical solvers reach error <= 1e-3 on 1D n in {3, 5}
    reach_ok = True
    details = []
    for key in ("1d3", "1d5"):
        system, E = heisenberg_references[key]
        first = run(
            system,
            OptimizerConfig(variant="first_classical", epsilon=0.1, max_iter=30000),
            ExactEstimator(system), reference_energy=E,
        )
        second = run(
            system,
            OptimizerConfig(variant="second_classical", epsilon=0.1, max_iter=1000),
            ExactEstimator(system), reference_energy=E,
        )
        e1 = min(r.error_metric for r in first.records)
        e2 = min(r.error_metric for r in second.records)
        reach_ok &= e1 <= 1e-3 and e2 <= 1e-3
        details.append(f"{key}: 1st={e1:.1e}, 2nd={e2:.1e}")

    # (b) second order strictly fewer iterations on the 2D six-qubit model
    system, E = heisenberg_references["2d6"]
    first = run(
        system,
        OptimizerConfig(variant="first_classical", epsilon=0.1, max_iter=30000),
        ExactEstimator(system), reference_energy=E,
    )
    second = run(
        system,
        OptimizerConfig(variant="second_classical", epsilon=0.1, max_iter=1000),
        ExactEstimator(system), reference_energy=E,
    )
    ordering_2d = first.converged and second.converged and second.iterations < first.iterations
    details.append(f"2d6: 2nd {second.iterations} < 1st {first.iterations}")

    # (c) first-order iteration counts are monotone in system size
    counts = {}
    for n in (3, 5, 6):
        system = build_heisenberg("line", n=n, nnn=True, lam=0.5, targets=(1.0, 0.0, 1.0))
        trace = run(
            system,
            OptimizerConfig(variant="first_classical", epsilon=0.1, max_iter=60000),
            ExactEstimator(system),
        )
        assert trace.converged
        counts[n] = trace.iterations
    size_ok = counts[3] <= counts[5] <= counts[6]
    details.append(f"iters {counts}")
    report(8, reach_ok and ordering_2d and size_ok, "; ".join(details))


def test_criterion_09_shot_noise_convergence(tmp_path):
    start = time.perf_counter()
    config = {
        "label": "rep3-shots",
        "model": {
            "kind": "stabilizer",
            "code": "repetition3",
            "charges": [
                {"word": "1", "target": 0.2},
                {"word": "2", "target": 0.0},
                {"word": "3", "target": 0.5},
            ],
        },
        "solver": {
            "variant": "first_hqc", "epsilon": 0.1, "max_iter": 200,
            "shots_per_iteration": 10000,
        },
        "oracle": {"enable": True, "iterations": 800},
        "repetitions": 5,
        "seed": 909,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(path), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    finals = [r["final_error_metric"] for r in summary["runs"]]
    successes = sum(1 for e in finals if e is not None and e <= 0.1)
    agg_header = (out / "aggregate.csv").read_text().splitlines()[0]
    agg_ok = "error_metric_mean" in agg_header and "error_metric_std" in agg_header
    elapsed = time.perf_counter() - start
    ok = code == 0 and successes >= 4 and agg_ok and elapsed <= 300.0
    report(9, ok, f"{successes}/5 runs <= 0.1, aggregate ok={agg_ok}, {elapsed:.1f}s")


def test_criterion_10_deterministic_artifacts(tmp_path):
    config = {
        "model": {
            "kind": "stabilizer",
            "code": "repetition3",
            "charges": [
                {"word": "1", "target": 0.2},
                {"word": "2", "target": 0.0},
                {"word": "3", "target": 0.5},
            ],
        },
        "solver": {
            "variant": "first_hqc", "epsilon": 0.1, "max_iter": 80,
            "shots_per_iteration": 4000,
        },
        "oracle": {"enable": True, "iterations": 500},
        "repetitions": 5,
        "seed": 1010,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        assert cli_main([
            "run", "--config", str(path), "--out", str(out), "--workers", str(workers)
        ]) == 0
        outs[workers] = out
    runs_same = (outs[1] / "runs.csv").read_bytes() == (outs[8] / "runs.csv").read_bytes()
    agg_same = (outs[1] / "aggregate.csv").read_bytes() == (outs[8] / "aggregate.csv").read_bytes()
    report(10, runs_same and agg_same, f"runs.csv identical={runs_same}, aggregate identical={agg_same}")
