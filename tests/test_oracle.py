import math

import numpy as np
import pytest

from thermodual.gibbs import effective_hamiltonian, thermal_state
from thermodual.models import ThermoSystem, build_heisenberg, build_stabilizer_system, builtin_code
from thermodual.oracle import (
    beta_for_relative_entropy,
    beta_for_trace_distance,
    closeness_metrics,
    complementary_slackness_residual,
    dual_eigenvalue_solve,
    geometric_renyi,
    petz_renyi,
    relative_entropy,
    sandwiched_renyi,
    state_fidelity,
    trace_distance,
)



def perfect5_system():
    return build_stabilizer_system(
        builtin_code("perfect5"), [((1,), 0.2), ((2,), 0.0), ((3,), 0.5)]
    )


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


class TestDualSolve:
    def test_perfect5_ground_energy(self):
        system = perfect5_system()
        solution = dual_eigenvalue_solve(system, system.targets, iterations=1000)
        assert solution.value == pytest.approx(-4.0, abs=1e-3)
        assert not solution.low_confidence

    def test_no_charges_gives_minimum_eigenvalue(self):
        ham = build_heisenberg("line", n=3).hamiltonian
        system = ThermoSystem(ham, (), ())
        solution = dual_eigenvalue_solve(system, (), iterations=5)
        lam_min = np.linalg.eigvalsh(ham.to_dense())[0]
        assert solution.value == pytest.approx(lam_min, abs=1e-12)

    def test_heisenberg_low_temperature_bracket(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        solution = dual_eigenvalue_solve(system, system.targets, iterations=1500)
        from thermodual.gibbs import objective_f
        from thermodual.optimize import ExactEstimator, OptimizerConfig, run_second_order

        T = 1e-3 / (3 * math.log(2))
        cfg = OptimizerConfig(variant="second_classical", temperature=T, max_iter=3000, delta=1e-8)
        trace = run_second_order(system, system.targets, cfg, ExactEstimator(system))
        assert trace.converged
        F_T = objective_f(system.targets, thermal_state(system, trace.final_mu, T))
        assert F_T - 1e-5 <= solution.value <= F_T + 3 * T * math.log(2) + 1e-5

    def test_weak_duality_against_feasible_states(self):
        # encoded states of the repetition code are feasible by construction
        from thermodual.encoding import LogicalTarget, encoded_state

        code = builtin_code("repetition3")
        rng = np.random.default_rng(11)
        for _ in range(5):
            r = rng.uniform(-0.5, 0.5, size=3)
            system = build_stabilizer_system(
                code, [((1,), r[0]), ((2,), r[1]), ((3,), r[2])]
            )
            solution = dual_eigenvalue_solve(system, system.targets, iterations=400)
            rho = encoded_state(code, LogicalTarget.from_bloch(r))
            energy = float(
                np.real(np.einsum("ij,ji->", system.hamiltonian.to_dense(), rho))
            )
            assert energy >= solution.value - 1e-6

    def test_solution_invariants(self):
        system = perfect5_system()
        solution = dual_eigenvalue_solve(system, system.targets, iterations=500)
        A = effective_hamiltonian(system, solution.mu_star)
        lam_min = np.linalg.eigvalsh(A)[0]
        assert solution.value == pytest.approx(
            float(solution.mu_star @ np.array(system.targets) + lam_min), abs=1e-9
        )
        P = solution.ground_projector
        assert np.max(np.abs(P @ P - P)) < 1e-9
        assert np.trace(P).real == pytest.approx(solution.ground_multiplicity, abs=1e-9)


class TestClosenessMetrics:
    def test_beta_zero_forced_values(self, rng):
        H = random_hermitian(rng, 8)
        report = closeness_metrics(H, 0.0)
        d, d_g = report.dim, report.ground_dim
        assert report.trace_distance_closed == pytest.approx((d - d_g) / d, abs=1e-12)
        assert report.fidelity_closed == pytest.approx(d_g / d, abs=1e-12)

    def test_direct_matches_closed_forms(self, rng):
        for _ in range(50):
            H = random_hermitian(rng, 8)
            for beta in (0.1, 1.0, 10.0):
                rep = closeness_metrics(H, beta)
                assert abs(rep.trace_distance - rep.trace_distance_closed) < 1e-10
                assert abs(rep.fidelity - rep.fidelity_closed) < 1e-10
                assert abs(rep.relative_entropy - rep.relative_entropy_closed) < 1e-10
                for table in (rep.renyi_petz, rep.renyi_sandwiched, rep.renyi_geometric):
                    for value in table.values():
                        assert abs(value - rep.renyi_closed) < 1e-10

    def test_identity_relations(self, rng):
        for _ in range(10):
            H = random_hermitian(rng, 8)
            for beta in (0.1, 1.0, 10.0):
                rep = closeness_metrics(H, beta)
                assert abs(rep.trace_distance_closed - (1 - rep.fidelity_closed)) < 1e-12
                assert abs(rep.relative_entropy_closed + math.log(rep.fidelity_closed)) < 1e-12

    def test_renyi_equal_across_alphas(self, rng):
        H = random_hermitian(rng, 8)
        rep = closeness_metrics(H, 1.0, alphas=(0.5, 2.0, 3.0))
        values = list(rep.renyi_petz.values())
        assert max(values) - min(values) < 1e-10

    def test_degenerate_spectrum_returns_zeros(self):
        report = closeness_metrics(np.eye(4, dtype=complex) * 2.5, 1.0)
        assert report.trace_distance == 0.0
        assert report.fidelity == 1.0
        assert report.relative_entropy == 0.0

    def test_trace_distance_monotone_in_beta(self, rng):
        H = random_hermitian(rng, 8)
        values = [closeness_metrics(H, b).trace_distance_closed for b in np.linspace(0, 5, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_beta_inversions_round_trip(self, rng):
        H = random_hermitian(rng, 8)
        base = closeness_metrics(H, 1.0)
        gap, d, d_g = base.gap, base.dim, base.ground_dim
        # the inversions solve the bound expressions, so feed them back in
        for eps in (0.3, 0.05):
            beta = beta_for_trace_distance(eps, gap, d, d_g)
            bound = 1.0 / (1.0 + math.exp(beta * gap) * d_g / (d - d_g))
            assert bound == pytest.approx(eps, rel=1e-9)
            beta = beta_for_relative_entropy(eps, gap, d, d_g)
            bound = math.log(1.0 + math.exp(-beta * gap) * (d - d_g) / d_g)
            assert bound == pytest.approx(eps, rel=1e-9)

    def test_generic_metric_helpers_agree_on_commuting_pair(self, rng):
        # the matrix-level helpers (used on arbitrary states elsewhere)
        # reproduce the report values at moderate beta
        H = random_hermitian(rng, 8)
        beta = 1.0
        vals, vecs = np.linalg.eigh(H)
        w = np.exp(-beta * (vals - vals[0]))
        rho = (vecs * (w / w.sum())) @ vecs.conj().T
        ground = vecs[:, :1] @ vecs[:, :1].conj().T
        rep = closeness_metrics(H, beta)
        assert trace_distance(rho, ground) == pytest.approx(rep.trace_distance, abs=1e-10)
        assert state_fidelity(rho, ground) == pytest.approx(rep.fidelity, abs=1e-8)
        assert relative_entropy(ground, rho) == pytest.approx(rep.relative_entropy, abs=1e-8)
        for alpha in (0.5, 2.0, 3.0):
            assert petz_renyi(ground, rho, alpha) == pytest.approx(rep.renyi_petz[alpha], abs=1e-7)
            assert sandwiched_renyi(ground, rho, alpha) == pytest.approx(rep.renyi_sandwiched[alpha], abs=1e-7)
            assert geometric_renyi(ground, rho, alpha) == pytest.approx(rep.renyi_geometric[alpha], abs=1e-7)


class TestComplementarySlackness:
    def test_ground_projector_state(self):
        system = perfect5_system()
        solution = dual_eigenvalue_solve(system, system.targets, iterations=400)
        rho = solution.ground_projector / solution.ground_multiplicity
        assert complementary_slackness_residual(system, solution, rho) <= 1e-9

    def test_maximally_mixed_gapped_residual(self):
        system = perfect5_system()
        solution = dual_eigenvalue_solve(system, system.targets, iterations=400)
        dim = system.dimension
        rho = np.eye(dim, dtype=complex) / dim
        A = effective_hamiltonian(system, solution.mu_star)
        vals = np.linalg.eigvalsh(A)
        gap = vals[solution.ground_multiplicity] - vals[0]
        d_g = solution.ground_multiplicity
        lower = gap * (1 - d_g / dim) - 1e-9
        assert complementary_slackness_residual(system, solution, rho) >= lower

    def test_low_temperature_thermal_state_residual(self):
        system = perfect5_system()
        solution = dual_eigenvalue_solve(system, system.targets, iterations=400)
        T = 1e-3
        state = thermal_state(system, solution.mu_star, T)
        residual = complementary_slackness_residual(system, solution, state.rho)
        A = effective_hamiltonian(system, solution.mu_star)
        vals = np.linalg.eigvalsh(A)
        gap = vals[solution.ground_multiplicity] - vals[0]
        d_g = solution.ground_multiplicity
        dim = system.dimension
        # 1/(1 + e^{gap/T} d_g/(d-d_g)) <= e^{-gap/T} (d-d_g)/d_g, overflow-safe
        td_bound = math.exp(-gap / T) * (dim - d_g) / d_g
        norm = float(np.max(np.abs(vals)))
        assert residual <= 2 * td_bound * norm + 1e-9
