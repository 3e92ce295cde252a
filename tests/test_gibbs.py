import itertools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from thermodual.errors import NumericalIntegrityError
from thermodual.gibbs import (
    eigen_blocks,
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
from thermodual.encoding import all_words
from thermodual.operators import Observable, PauliString, expectation, term_expectations
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
        # a random system is one dense block; grid 2x3 nnn is assembled from its blocks
        for system in (random_system(rng), build_heisenberg("grid", rows=2, cols=3, nnn=True)):
            state = thermal_state(system, rng.normal(size=3), 0.5)
            A = effective_hamiltonian(system, state.mu)
            V = state.eigenvectors
            assert np.max(np.abs(A - (V * state.block_levels) @ V.conj().T)) < 1e-10
            assert np.max(np.abs(V.conj().T @ V - np.eye(V.shape[0]))) < 1e-10
            rebuilt = (V * state.block_populations) @ V.conj().T
            assert np.max(np.abs(rebuilt - state.rho)) < 1e-14

    def test_rejects_nonpositive_temperature(self):
        system = build_heisenberg("line", n=2)
        for T in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="temperature must be positive"):
                thermal_state(system, np.zeros(3), T)
            with pytest.raises(ValueError, match="temperature must be positive"):
                smoothness_L(system, T)


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
            p = state.block_populations[state.block_populations > 0]
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

    def test_keeps_pairs_whose_smaller_population_underflows(self):
        # at mu_z = 8 and T = 0.02 the levels one step down the Zeeman ladder sit
        # 16/T = 800 above the populated one, so their weights underflow to zero;
        # their logarithmic means with it do not, and give the x and y curvature
        system = build_heisenberg("line", n=4, nnn=True)
        mu, T = np.array([0.0, 0.0, 8.0]), 0.02
        state = thermal_state(system, mu, T)
        assert np.count_nonzero(state.block_populations) < system.dimension
        hess = hessian_exact(system, state)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-5
            fd = (
                gradient(system, thermal_state(system, mu + e, T))
                - gradient(system, thermal_state(system, mu - e, T))
            ) / 2e-5
            assert np.max(np.abs(fd - hess[:, i])) < 1e-6
        assert hess[0, 0] == pytest.approx(-0.5, abs=1e-9)

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


def _heisenberg_family():
    for n in range(2, 9):
        for nnn in (False, True) if n >= 3 else (False,):
            for J in (1.0, -1.5):
                yield f"line{n}-{'nnn' if nnn else 'nn'}-J{J}", dict(geometry="line", n=n, nnn=nnn, J=J)
    for rows, cols in ((2, 2), (2, 3)):
        yield f"grid{rows}x{cols}-nnn", dict(geometry="grid", rows=rows, cols=cols, nnn=True)


def _axes(k):
    """The 3k single-qubit logical words of k encoded qubits."""
    return [tuple(axis if q == qubit else 0 for q in range(k)) for qubit in range(k) for axis in (1, 2, 3)]


CODE_WORD_SETS = {
    "repetition3-axes": ("repetition3", _axes(1)),
    "repetition3-xz": ("repetition3", [(1,), (3,)]),
    "perfect5-axes": ("perfect5", _axes(1)),
    "perfect5-y": ("perfect5", [(2,)]),
    "detect422-axes": ("detect422", _axes(2)),
    "detect422-all": ("detect422", [w for w in itertools.product(range(4), repeat=2) if any(w)]),
    "detect422-pairs": ("detect422", [(1, 1), (2, 2), (3, 3)]),
}


def _builtin(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name in CODE_WORD_SETS:
        code, words = CODE_WORD_SETS[name]
        spec = [(w, float(t)) for w, t in zip(words, rng.uniform(-0.3, 0.3, size=len(words)))]
        return build_stabilizer_system(builtin_code(code), spec)
    kwargs = dict(_heisenberg_family())[name]
    return build_heisenberg(**kwargs, targets=tuple(rng.uniform(-1.0, 1.0, size=3)))


BUILTIN_NAMES = [name for name, _ in _heisenberg_family()] + list(CODE_WORD_SETS)


def _close(blocked, dense, relative=False):
    """Agreement to 1e-12, or to 1e-12 of the dense value's largest entry when relative and that exceeds 1."""
    gap = float(np.max(np.abs(np.asarray(blocked) - np.asarray(dense))))
    return gap <= 1e-12 * (max(1.0, float(np.max(np.abs(dense)))) if relative else 1.0)


class TestEigenspaceBlocks:
    """The blocked path of conserved systems against the dense path, its oracle."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matches_dense_path(self, name):
        system = _builtin(name)
        dense = replace(system, conserved=False)
        rng = np.random.default_rng(sum(map(ord, name)) + 1)
        default_T = 0.1 / (system.n_qubits * math.log(2))
        for T in (default_T, 1.0):
            mu = rng.normal(size=system.n_charges)
            a, b = thermal_state(system, mu, T), thermal_state(dense, mu, T)
            assert a.blocks.basis is not None and b.blocks.basis is None
            # ln Z grows like 1/T, so it is held to 1e-12 of its size
            assert _close(log_partition(a), log_partition(b), relative=True)
            assert _close(objective_f(system, a), objective_f(dense, b))
            assert _close(gradient(system, a), gradient(dense, b))
            assert _close(hessian_exact(system, a), hessian_exact(dense, b))
            assert _close(np.sort(a.block_levels), np.sort(b.block_levels))
            assert _close(a.rho, b.rho)
            assert _close(a.energy, b.energy)

    def test_degenerate_multiplets_share_a_block(self):
        # line 3: a spin-3/2 quadruplet and two spin-1/2 doublets, each exactly degenerate
        system = build_heisenberg("line", n=3)
        assert eigen_blocks(system).shapes == ((2, 2), (1, 4))
        dense = replace(system, conserved=False)
        for mu in ([0.0, 0.0, 0.0], [0.3, -0.1, 0.2]):
            a, b = thermal_state(system, mu, 0.2), thermal_state(dense, mu, 0.2)
            assert _close(a.rho, b.rho)
            assert _close(hessian_exact(system, a), hessian_exact(dense, b))

    def test_levels_merged_by_the_gap_tolerance_stay_exact(self):
        # levels 1 +- 5e-11 and -1 +- 5e-11 merge into two blocks, and each keeps its level:
        # at T = 1e-10 the populations within a pair differ by a factor e
        system = ThermoSystem(
            Observable.from_strings(2, [(5e-11, "ZI"), (1.0, "ZZ")]),
            (Observable.from_strings(2, [(1.0, "ZI")]), Observable.from_strings(2, [(1.0, "IZ")])),
            (0.0, 0.0),
            conserved=True,
        )
        assert eigen_blocks(system).shapes == ((2, 2),)
        T = 1e-10
        state = thermal_state(system, [0.0, 0.0], T)
        p = np.sort(state.block_populations)[::-1]
        assert p[0] / p[1] == pytest.approx(math.e, rel=1e-5)
        dense = thermal_state(replace(system, conserved=False), [0.0, 0.0], T)
        assert np.max(np.abs(state.rho - dense.rho)) < 1e-12
        assert log_partition(state) == pytest.approx(log_partition(dense), rel=1e-12)

    def test_charge_leaking_out_of_its_block_is_refused(self):
        # [H, Q] = 2e-13 passes the conservation check, but in the eigenbasis of H
        # the charge couples the levels +-0.01 by 1e-11
        system = ThermoSystem(
            Observable.from_strings(1, [(1e-2, "Z")]),
            (Observable.from_strings(1, [(1.0, "Z"), (1e-11, "X")]),),
            (0.0,),
            conserved=True,
        )
        with pytest.raises(NumericalIntegrityError, match="couples eigenspaces"):
            thermal_state(system, [0.1], 1.0)

    def test_blocks_are_built_once_and_not_pickled(self):
        system = build_heisenberg("line", n=6, nnn=True, targets=(0.5, 0.0, 0.5))
        before = pickle.dumps(system)
        state = thermal_state(system, [0.1, 0.2, 0.3], 0.3)
        hessian_exact(system, state)
        assert eigen_blocks(system) is state.blocks
        assert len(pickle.dumps(system)) == len(before)
        copy = pickle.loads(before)
        assert copy == system and copy._eigen_blocks is None
        again = thermal_state(copy, [0.1, 0.2, 0.3], 0.3)
        assert np.array_equal(again.rho, state.rho)


def _term_mean_system(name):
    """A built-in family (the codes with every logical word), or a random system without conserved charges."""
    if name == "random":
        return random_system(np.random.default_rng(5), n=3, n_charges=3)
    if name in ("repetition3", "perfect5", "detect422"):
        code = builtin_code(name)
        return build_stabilizer_system(code, [(w, 0.0) for w in all_words(code.k) if any(w)])
    heisenberg = {
        "line6-nnn": dict(geometry="line", n=6, nnn=True),
        "grid2x3-nnn": dict(geometry="grid", rows=2, cols=3, nnn=True),
        "line8": dict(geometry="line", n=8),
    }
    return build_heisenberg(**heisenberg[name])


class TestTermMeans:
    """The Pauli-term means the shot layer samples, against the dense gather from rho."""

    @pytest.mark.parametrize(
        "name", ["line6-nnn", "grid2x3-nnn", "line8", "repetition3", "perfect5", "detect422", "random"]
    )
    def test_match_the_dense_gather(self, name):
        system = _term_mean_system(name)
        assert system.conserved == (name != "random")
        rng = np.random.default_rng(sum(map(ord, name)))
        observables = (system.hamiltonian, *system.charges)
        for T in (0.1 / (system.n_qubits * math.log(2)), 1.0):
            state = thermal_state(system, rng.normal(size=system.n_charges), T)
            dense = np.concatenate([term_expectations(obs, state.rho) for obs in observables])
            assert state.term_means.shape == dense.shape
            assert np.max(np.abs(state.term_means - dense)) <= 1e-13
            # each observable's slice, weighted by its coefficients, is its mean
            parts = [state.term_means[part] for part in state.blocks.term_slices]
            sums = [obs.coefficients @ part for obs, part in zip(observables, parts)]
            assert np.max(np.abs(np.array(sums) - [state.energy, *state.charge_means])) <= 1e-12

    def test_projections_are_built_once_per_system(self):
        system = build_heisenberg("line", n=4, nnn=True)
        first = thermal_state(system, [0.1, 0.0, 0.2], 0.3)
        first.term_means
        second = thermal_state(system, [0.3, -0.2, 0.0], 0.3)
        assert second.blocks.term_operators is first.blocks.term_operators
