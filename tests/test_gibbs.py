import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from thermodual.gibbs import (
    effective_hamiltonian,
    gradient,
    hessian_exact,
    log_partition,
    objective_f,
    primal_free_energy,
    smoothness_L,
    thermal_state,
)
from thermodual.models import ThermoSystem, build_heisenberg, build_stabilizer_system, builtin_code, codespace_projector
from thermodual.operators import Observable, PauliString, expectation
from thermodual.oracle import dual_eigenvalue_solve, trace_distance

from conftest import random_system


def single_qubit_system(h_terms, q_terms):
    return ThermoSystem(
        Observable.from_strings(1, h_terms),
        tuple(Observable.from_strings(1, [t]) for t in q_terms),
        tuple(0.0 for _ in q_terms),
        label="single",
    )


class TestThermalState:
    def test_infinite_temperature_is_maximally_mixed(self):
        system = build_heisenberg("line", n=3)
        state = thermal_state(system, np.zeros(3), 1e6)
        assert np.max(np.abs(state.rho - np.eye(8) / 8)) < 1e-5

    def test_matches_dense_exponential(self, rng):
        system = random_system(rng)
        mu = rng.normal(size=3)
        A = effective_hamiltonian(system, mu)
        direct = scipy.linalg.expm(-A / 0.9)
        direct /= np.trace(direct).real
        state = thermal_state(system, mu, 0.9)
        assert np.max(np.abs(state.rho - direct)) < 1e-12

    def test_low_temperature_ground_space_bound(self):
        # repetition3 spectrum: gap 2, ground dim 2, total dim 8
        code = builtin_code("repetition3")
        system = build_stabilizer_system(code, [((1,), 0.0), ((2,), 0.0), ((3,), 0.0)])
        T = 0.01
        state = thermal_state(system, np.zeros(3), T)
        projector = codespace_projector(code)
        bound = 1.0 / (1.0 + math.exp(2.0 / T) * 2.0 / (8.0 - 2.0))
        assert trace_distance(state.rho, projector / 2.0) <= bound + 1e-12

    def test_shift_invariance(self):
        system = build_heisenberg("line", n=2)
        shifted = ThermoSystem(
            Observable(2, list(system.hamiltonian.terms) + [(7.0, PauliString.identity(2))]),
            system.charges,
            system.targets,
        )
        a = thermal_state(system, [0.1, 0.2, -0.3], 0.2).rho
        b = thermal_state(shifted, [0.1, 0.2, -0.3], 0.2).rho
        assert np.max(np.abs(a - b)) < 1e-12

    def test_state_invariants(self, rng):
        for _ in range(5):
            system = random_system(rng)
            state = thermal_state(system, rng.normal(size=3), float(rng.uniform(0.05, 2)))
            eigs = np.linalg.eigvalsh(state.rho)
            assert eigs[0] >= -1e-10
            assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-9)
            A = effective_hamiltonian(system, state.mu)
            assert np.max(np.abs(A @ state.rho - state.rho @ A)) < 1e-9

    def test_spectral_decomposition_invariants(self, rng):
        system = random_system(rng)
        state = thermal_state(system, rng.normal(size=3), 0.5)
        A = effective_hamiltonian(system, state.mu)
        spec = state.spectrum
        assert spec.reconstruction_error(A) < 1e-10
        V = spec.eigenvectors
        assert np.max(np.abs(V.conj().T @ V - np.eye(V.shape[0]))) < 1e-10
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)

    def test_rejects_nonpositive_temperature(self):
        system = build_heisenberg("line", n=2)
        with pytest.raises(ValueError):
            thermal_state(system, np.zeros(3), 0.0)


class TestLogPartition:
    def test_trivial_hamiltonian(self):
        system = ThermoSystem(Observable(3, []), (), (), label="free")
        state = thermal_state(system, [], 1.0)
        assert log_partition(state) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_single_qubit_closed_form(self):
        system = single_qubit_system([(-1.0, "Z")], [])
        assert log_partition(thermal_state(system, [], 1.0)) == pytest.approx(
            math.log(math.e + 1.0 / math.e), abs=1e-12
        )

    def test_matches_dense_exponential(self, rng):
        system = random_system(rng)
        mu = rng.normal(size=3)
        A = effective_hamiltonian(system, mu)
        direct = math.log(np.trace(scipy.linalg.expm(-A)).real)
        assert log_partition(thermal_state(system, mu, 1.0)) == pytest.approx(direct, abs=1e-10)


class TestObjective:
    def test_at_zero_mu(self, rng):
        system = random_system(rng)
        state = thermal_state(system, np.zeros(3), 0.7)
        assert objective_f(system, state) == pytest.approx(
            -0.7 * log_partition(state), abs=1e-12
        )

    def test_energy_entropy_identity(self, rng):
        # f(mu) = mu.q + Tr[(H - mu.Q) rho] - T S(rho)
        for _ in range(10):
            system = random_system(rng)
            mu = rng.normal(size=3)
            T = float(rng.uniform(0.2, 2.0))
            state = thermal_state(system, mu, T)
            A = effective_hamiltonian(system, mu)
            energy = float(np.real(np.einsum("ij,ji->", A, state.rho)))
            p = state.populations[state.populations > 0]
            entropy = float(-np.sum(p * np.log(p)))
            rhs = float(mu @ np.array(system.targets)) + energy - T * entropy
            assert objective_f(system, state) == pytest.approx(rhs, abs=1e-10)

    def test_concavity_along_segments(self, rng):
        system = random_system(rng)
        T = 0.8
        for _ in range(20):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            fa = objective_f(system, thermal_state(system, a, T))
            fb = objective_f(system, thermal_state(system, b, T))
            fm = objective_f(system, thermal_state(system, (a + b) / 2, T))
            assert fm >= (fa + fb) / 2 - 1e-10


class TestGradient:
    def test_zero_at_matching_targets(self, rng):
        system = random_system(rng)
        mu = np.zeros(3)
        state = thermal_state(system, mu, 0.5)
        system = replace(system, targets=tuple(expectation(qi, state.rho) for qi in system.charges))
        g = gradient(system, state)
        assert np.max(np.abs(g)) < 1e-12

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            system = random_system(rng)
            mu = rng.normal(scale=0.5, size=3)
            T = float(rng.uniform(0.1, 2.0))
            g = gradient(system, thermal_state(system, mu, T))
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1e-5
                fd = (
                    objective_f(system, thermal_state(system, mu + e, T))
                    - objective_f(system, thermal_state(system, mu - e, T))
                ) / 2e-5
                assert abs(fd - g[i]) < 1e-6


class TestHessian:
    def test_two_level_closed_form(self):
        # H = 0, Q = Z, T = 1, mu = 0: the only surviving term is the
        # diagonal population variance, giving exactly -1
        system = single_qubit_system([], [(1.0, "Z")])
        hess = hessian_exact(system, thermal_state(system, np.zeros(1), 1.0))
        assert hess[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_gradient_differences(self, rng):
        for _ in range(5):
            system = random_system(rng)
            mu = rng.normal(scale=0.5, size=3)
            T = float(rng.uniform(0.5, 2.0))
            hess = hessian_exact(system, thermal_state(system, mu, T))
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1e-4
                fd = (
                    gradient(system, thermal_state(system, mu + e, T))
                    - gradient(system, thermal_state(system, mu - e, T))
                ) / 2e-4
                assert np.max(np.abs(fd - hess[:, i])) < 1e-5

    def test_negative_semidefinite_and_bounded(self, rng):
        for _ in range(100):
            system = random_system(rng)
            mu = rng.normal(size=3)
            T = float(rng.uniform(0.1, 2.0))
            hess = hessian_exact(system, thermal_state(system, mu, T))
            eigs = np.linalg.eigvalsh(hess)
            assert eigs[-1] <= 1e-10
            assert np.max(np.abs(eigs)) <= smoothness_L(system, T) + 1e-9


class TestPrimalFreeEnergy:
    def test_pure_ground_state(self, rng):
        system = random_system(rng)
        vals, vecs = np.linalg.eigh(system.hamiltonian.to_dense())
        ground = np.outer(vecs[:, 0], vecs[:, 0].conj())
        assert primal_free_energy(system, ground, 0.3) == pytest.approx(vals[0], abs=1e-10)

    def test_maximally_mixed_free_hamiltonian(self):
        system = ThermoSystem(Observable(2, []), (), ())
        value = primal_free_energy(system, np.eye(4, dtype=complex) / 4, 0.7)
        assert value == pytest.approx(-0.7 * 2 * math.log(2), abs=1e-12)

    def test_thermal_state_attains_dual_value(self, rng):
        # at the converged mu*, Tr[H rho] - T S = mu*.q - T ln Z
        system = random_system(rng)
        T = 0.4
        mu = rng.normal(size=3)
        state = thermal_state(system, mu, T)
        system = replace(system, targets=tuple(expectation(qi, state.rho) for qi in system.charges))
        lhs = primal_free_energy(system, state.rho, T)
        rhs = objective_f(system, state)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSmoothness:
    def test_single_pauli_charge(self):
        system = single_qubit_system([(1.0, "Z")], [(1.0, "Z")])
        assert smoothness_L(system, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_heisenberg_three_sites(self):
        system = build_heisenberg("line", n=3)
        for T in (0.5, 1.0, 2.0):
            assert smoothness_L(system, T) == pytest.approx(54.0 / T, rel=1e-12)


class TestSandwichBound:
    def test_free_energy_brackets_minimum_energy(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        E = dual_eigenvalue_solve(system, iterations=1200).value
        from thermodual.optimize import ExactEstimator, OptimizerConfig, run

        for T in (0.5, 0.2, 0.05):
            cfg = OptimizerConfig(
                variant="second_classical", temperature=T, max_iter=2000, delta=1e-9
            )
            trace = run(system, cfg, ExactEstimator(system))
            assert trace.converged
            F_T = objective_f(system, thermal_state(system, trace.final_mu, T))
            slack = 2e-5
            assert E >= F_T - slack
            assert F_T >= E - 3 * T * math.log(2) - slack
