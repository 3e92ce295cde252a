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
        # only a dense-path state holds a spectrum: a random system, and grid 2x3 nnn off its sectors
        grid = build_heisenberg("grid", rows=2, cols=3, nnn=True)
        assert thermal_state(grid, np.zeros(3), 0.5).spectrum is None
        for system in (random_system(rng), replace(grid, su2_symmetric=False)):
            state = thermal_state(system, rng.normal(size=3), 0.5)
            A = effective_hamiltonian(system, state.mu)
            V = state.spectrum.eigenvectors
            assert np.max(np.abs(A - (V * state.spectrum.eigenvalues) @ V.conj().T)) < 1e-10
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
        # a sector's weight, and so the populations of its levels, underflow
        assert 0.0 in state._sectors[1]
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
        # max ||v.Q||^2 over unit v is ||Z||^2 = 1
        system = single_qubit_system([(1.0, "Z")], [(1.0, "Z")])
        assert smoothness_L(system, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_heisenberg_three_sites(self):
        # v.Q is |v| times a rotated 2S^z, of norm n = 3
        system = build_heisenberg("line", n=3)
        for T in (0.5, 1.0, 2.0):
            assert smoothness_L(system, T) == pytest.approx(9.0 / T, rel=1e-12)

    @pytest.mark.parametrize("name,bound", [
        # single-qubit logicals: the number of encoded qubits that carry a charge
        ("repetition3-axes", 1.0), ("repetition3-xz", 1.0), ("perfect5-y", 1.0), ("detect422-axes", 2.0),
        # other logical words: the sum of the squared norms, each 1
        ("detect422-pairs", 3.0), ("detect422-all", 15.0),
    ])
    def test_codes(self, name, bound):
        assert smoothness_L(_builtin(name), 0.5) == pytest.approx(bound / 0.5, rel=1e-12)


SMOOTHNESS_FAMILIES = {
    "heisenberg-line": lambda: build_heisenberg("line", n=6, nnn=True),
    "heisenberg-grid": lambda: build_heisenberg("grid", rows=2, cols=3, nnn=True),
    **{
        name: (lambda name=name: _builtin(f"{name}-axes"))
        for name in ("repetition3", "perfect5", "detect422")
    },
}


class TestSmoothnessSearch:
    @pytest.mark.parametrize("family", list(SMOOTHNESS_FAMILIES))
    def test_bounds_the_hessian_over_a_random_search(self, family):
        # the largest ratio found (shown by `pytest -s`) measures how loose the constant is
        system = SMOOTHNESS_FAMILIES[family]()
        rng = np.random.default_rng(sum(map(ord, family)))
        largest = 0.0
        for _ in range(200):
            T = float(np.exp(rng.uniform(np.log(0.02), np.log(20.0))))
            mu = rng.normal(size=system.n_charges) * float(rng.uniform(0.0, 3.0)) * T
            hess = hessian_exact(system, thermal_state(system, mu, T))
            largest = max(largest, float(np.max(np.abs(np.linalg.eigvalsh(hess)))) / smoothness_L(system, T))
        print(f"{family}: largest |eig H| / L = {largest:.4f}")
        assert 0.0 < largest <= 1.0


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


class TestEigenspaceBlocks:
    """The frame `eigen_blocks` gives each system: the S^z sectors or the logical frame, else the dense block."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_systems_take_their_own_frame(self, name):
        system = _builtin(name)
        blocks = eigen_blocks(system)
        assert (blocks.spin is not None) != (blocks.logical is not None)
        assert blocks.operators is None
        # a frame state holds only mu, T and its frame
        assert thermal_state(system, np.zeros(system.n_charges), 0.5).spectrum is None

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matches_dense_path(self, name):
        # without its flag a conserved system takes the dense block, and so the dense path's bits
        system = replace(_builtin(name), su2_symmetric=False, code=None)
        dense = replace(system, conserved=False)
        assert eigen_blocks(system).operators is not None
        rng = np.random.default_rng(sum(map(ord, name)) + 1)
        default_T = 0.1 / (system.n_qubits * math.log(2))
        for T in (default_T, 1.0):
            mu = rng.normal(size=system.n_charges)
            a, b = thermal_state(system, mu, T), thermal_state(dense, mu, T)
            assert log_partition(a) == log_partition(b)
            assert objective_f(system, a) == objective_f(dense, b)
            for value, want in (
                (gradient(system, a), gradient(dense, b)),
                (hessian_exact(system, a), hessian_exact(dense, b)),
                (a.spectrum.eigenvalues, b.spectrum.eigenvalues),
                (a.term_means, b.term_means),
                (a.rho, b.rho),
            ):
                assert np.array_equal(value, want)

    def test_blocks_are_built_once_and_not_pickled(self):
        # the sectors of a Heisenberg model, and the dense block of a system without conserved charges
        for system in (
            build_heisenberg("line", n=6, nnn=True, targets=(0.5, 0.0, 0.5)),
            random_system(np.random.default_rng(3), n=3, n_charges=3),
        ):
            before = pickle.dumps(system)
            state = thermal_state(system, [0.1, 0.2, 0.3], 0.3)
            hessian_exact(system, state)
            assert eigen_blocks(system) is state.blocks
            assert thermal_state(system, [0.3, -0.2, 0.0], 0.3).blocks is state.blocks
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


ROTATED_SYSTEMS = {
    "line5": dict(geometry="line", n=5),
    "line6-nnn": dict(geometry="line", n=6, nnn=True),
    "line8-nnn": dict(geometry="line", n=8, nnn=True),
    "grid2x3-nnn": dict(geometry="grid", rows=2, cols=3, nnn=True),
}


def _observed(system, state):
    """ln Z, the means, the Pauli-term means and the Hessian.

    A frame state holds no levels, so its sector levels are checked against
    the dense spectrum on their own (`TestSectors`).
    """
    return [log_partition(state), [state.energy, *state.charge_means], state.term_means, hessian_exact(system, state)]


def _relative_gap(value, reference) -> float:
    """max |value - reference|, relative to max(1, max |reference|)."""
    reference = np.asarray(reference)
    return float(np.max(np.abs(np.asarray(value) - reference))) / max(1.0, float(np.max(np.abs(reference))))


class TestRotatedFrame:
    """The closed form of SU(2)-symmetric systems, from their sectors, against the dense path."""

    @pytest.mark.parametrize("name", list(ROTATED_SYSTEMS))
    def test_matches_block_and_dense_paths(self, name):
        system = build_heisenberg(**ROTATED_SYSTEMS[name], targets=(0.4, -0.3, 0.5))
        dense = replace(system, conserved=False, su2_symmetric=False)
        assert eigen_blocks(system).spin is not None and eigen_blocks(dense).spin is None
        rng = np.random.default_rng(sum(map(ord, name)))
        tiny = rng.normal(size=3)
        for T in (0.1 / (system.n_qubits * math.log(2)), 0.3, 1.0):
            for mu in (np.zeros(3), 1e-9 * tiny / np.linalg.norm(tiny), rng.normal(size=3)):
                observed = _observed(system, thermal_state(system, mu, T))
                expected = _observed(dense, thermal_state(dense, mu, T))
                for value, want in zip(observed, expected, strict=True):
                    assert _relative_gap(value, want) <= 1e-12

    def test_hessian_keeps_its_digits_as_mu_vanishes(self):
        # at |mu| = 1e-9 a naive <z>/|mu| loses about six digits
        system = build_heisenberg("line", n=6, nnn=True)
        dense = replace(system, conserved=False, su2_symmetric=False)
        for T in (0.3, 1.0):
            for r in (1e-9, 1e-12, 0.0):
                mu = r * np.array([0.6, 0.0, 0.8])
                rotated = hessian_exact(system, thermal_state(system, mu, T))
                reference = hessian_exact(dense, thermal_state(dense, mu, T))
                assert float(np.max(np.abs(rotated - reference))) <= 1e-12 * float(np.max(np.abs(reference)))

    def test_isotropic_at_zero_mu(self):
        system = build_heisenberg("grid", rows=2, cols=3, nnn=True)
        state = thermal_state(system, np.zeros(3), 0.3)
        hess = hessian_exact(system, state)
        assert np.array_equal(hess, hess[0, 0] * np.eye(3)) and hess[0, 0] < 0.0
        assert np.array_equal(state.charge_means, np.zeros(3))

    def test_solves_make_no_eigensolve_once_the_blocks_exist(self, monkeypatch):
        # the sampled run reads the Pauli-term means, which come off the sector levels
        from thermodual.optimize import ExactEstimator, OptimizerConfig, run
        from thermodual.shots import ShotEstimator

        system = build_heisenberg("line", n=6, nnn=True, targets=(0.5, -0.8, 0.6))
        eigen_blocks(system)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        for variant, estimator in (
            ("first_classical", ExactEstimator(system)),
            ("second_classical", ExactEstimator(system)),
            ("first_hqc", ShotEstimator(system, 3)),
        ):
            trace = run(system, OptimizerConfig(variant=variant, max_iter=300), estimator)
            assert trace.iterations > 1
        assert calls == []

    def test_spin_levels_refuse_a_charge_that_is_not_twice_an_integer_spin(self):
        # 2S^z scaled by 0.9 commutes with H but has non-integer eigenvalues
        system = build_heisenberg("line", n=3)
        scaled = Observable(3, [(0.9 * c, word) for c, word in system.charges[2].terms])
        bad = replace(system, charges=(*system.charges[:2], scaled))
        with pytest.raises(NumericalIntegrityError, match="non-integer"):
            eigen_blocks(bad)


class _Refused:
    """Stands in for the sector levels: any use of it fails."""

    # binary operators with an ndarray defer to the methods below
    __array_ufunc__ = None

    def _refuse(self, *args):
        raise AssertionError("read the sector levels")

    __array__ = __len__ = __iter__ = __getitem__ = _refuse
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __matmul__ = __rmatmul__ = _refuse


class TestSectorSums:
    """SU(2) states from their n + 1 sector weights on the sums over each S^z sector at T."""

    @pytest.mark.parametrize("name", ["line6-nnn", "grid2x3-nnn"])
    def test_matches_dense_path(self, name):
        system = build_heisenberg(**ROTATED_SYSTEMS[name], targets=(0.4, -0.3, 0.5))
        dense = replace(system, conserved=False, su2_symmetric=False)
        direction = np.array([0.48, -0.6, 0.64])
        for T in (0.1 / (system.n_qubits * math.log(2)), 1.0):
            # at |mu| = 100 T the sectors at z and -z differ by e^{-200 z}, which underflows
            for size in (0.0, 1e-12, 0.7, 100.0 * T):
                state = thermal_state(system, size * direction, T)
                observed = _observed(system, state)
                expected = _observed(dense, thermal_state(dense, size * direction, T))
                for value, want in zip(observed, expected, strict=True):
                    assert _relative_gap(value, want) <= 1e-12
            assert 0.0 in state._sectors[1]

    def test_each_temperature_keeps_its_own_sums(self):
        system = build_heisenberg("line", n=6, nnn=True)
        mu = np.array([0.3, -0.2, 0.1])
        cold, warm = thermal_state(system, mu, 0.1), thermal_state(system, mu, 1.0)
        cold.term_means, warm.term_means
        spin = eigen_blocks(system).spin
        assert cold._sectors[0] is spin.sector_sums(0.1) and warm._sectors[0] is spin.sector_sums(1.0)
        assert thermal_state(system, -mu, 0.1)._sectors[0] is cold._sectors[0]
        assert cold._sectors[0].temperature == 0.1 and warm._sectors[0].temperature == 1.0
        # what a state reads does not depend on the temperatures summed before it
        for T, state in ((0.1, cold), (1.0, warm)):
            alone = thermal_state(build_heisenberg("line", n=6, nnn=True), mu, T)
            assert log_partition(state) == log_partition(alone)
            assert np.array_equal(state.term_means, alone.term_means)

    def test_evaluations_read_no_array_of_the_levels(self):
        # once the sums at T exist, the solvers read n + 1 sector weights
        from thermodual.optimize import ExactEstimator, OptimizerConfig, run
        from thermodual.shots import ShotEstimator

        system = build_heisenberg("grid", rows=2, cols=3, nnn=True, targets=(0.3, 0.1, -0.4))
        T = OptimizerConfig().resolved_temperature(system)
        spin = eigen_blocks(system).spin
        spin.sector_sums(T)
        # a frozen dataclass, as `eigen_blocks` caches on the frozen system
        object.__setattr__(spin, "sectors", _Refused())
        state = thermal_state(system, [0.2, -0.1, 0.3], T)
        state.energy, state.charge_means, state.term_means, log_partition(state), hessian_exact(system, state)
        for variant, estimator in (
            ("first_classical", ExactEstimator(system)),
            ("second_classical", ExactEstimator(system)),
            ("first_hqc", ShotEstimator(system, 3)),
        ):
            trace = run(system, OptimizerConfig(variant=variant, max_iter=100), estimator)
            assert trace.iterations > 1
        # the sums at another temperature read the levels
        with pytest.raises(AssertionError, match="sector levels"):
            spin.sector_sums(2.0 * T)


SECTOR_SYSTEMS = {
    **{name: kwargs for name, kwargs in _heisenberg_family()},
    "line10-nnn": dict(geometry="line", n=10, nnn=True),
}


class TestSectors:
    """The S^z sector build of SU(2)-symmetric systems against the dense path, its oracle."""

    @pytest.mark.parametrize("name", list(SECTOR_SYSTEMS))
    def test_matches_dense_path(self, name):
        system = build_heisenberg(**SECTOR_SYSTEMS[name], targets=(0.4, -0.3, 0.5))
        dense = replace(system, conserved=False, su2_symmetric=False)
        assert eigen_blocks(system).spin is not None and eigen_blocks(system).operators is None
        rng = np.random.default_rng(sum(map(ord, name)))
        tiny = rng.normal(size=3)
        T = 0.1 / (system.n_qubits * math.log(2))
        for mu in (np.zeros(3), 1e-9 * tiny / np.linalg.norm(tiny), rng.normal(size=3)):
            state, reference = thermal_state(system, mu, T), thermal_state(dense, mu, T)
            assert state.spectrum is None
            observed = (state.rho, *_observed(system, state))
            expected = (reference.rho, *_observed(dense, reference))
            for value, want in zip(observed, expected, strict=True):
                assert _relative_gap(value, want) <= 1e-12

    @pytest.mark.parametrize("name", list(SECTOR_SYSTEMS))
    def test_sector_levels_are_the_dense_spectrum(self, name):
        # the levels of all n + 1 sectors, the sectors at m and -m each counted, are the spectrum of H
        system = build_heisenberg(**SECTOR_SYSTEMS[name])
        levels = np.sort(np.concatenate([energies for _, _, energies in eigen_blocks(system).spin.sectors]))
        dense = np.linalg.eigvalsh(system.hamiltonian.to_dense())
        assert levels.shape == dense.shape
        assert float(np.max(np.abs(levels - dense) / np.maximum(1.0, np.abs(dense)))) <= 1e-12

    def test_builds_no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense matrix of the full space")

        monkeypatch.setattr(Observable, "to_dense", refuse)
        system = build_heisenberg("line", n=8, nnn=True, targets=(0.2, 0.1, -0.3))
        state = thermal_state(system, [0.3, -0.2, 0.1], 0.05)
        assert state.term_means.shape == (sum(len(obs.terms) for obs in (system.hamiltonian, *system.charges)),)
        assert smoothness_L(system, 0.05) == 64 / 0.05
        hessian_exact(system, state)

    def test_sizes_beyond_the_limits_are_refused(self):
        from thermodual.errors import ResourceError

        with pytest.raises(ResourceError, match="sector limit of 12"):
            eigen_blocks(build_heisenberg("line", n=13))
        state = thermal_state(build_heisenberg("line", n=11, nnn=True), [0.1, 0.2, 0.3], 0.1)
        assert np.isfinite(state.term_means).all() and np.isfinite(state.energy)
        with pytest.raises(ResourceError, match="dense limit of 10"):
            state.rho

    def test_hamiltonian_beyond_exchange_terms_is_refused(self):
        # (s0.s1)(s2.s3) commutes with every total spin, but it is no two-site exchange
        system = build_heisenberg("line", n=4)
        quartic = [
            (1.0, PauliString((a, a, b, b))) for a in (1, 2, 3) for b in (1, 2, 3)
        ]
        hamiltonian = Observable(4, [*system.hamiltonian.terms, *quartic])
        with pytest.raises(NumericalIntegrityError, match="not an exchange"):
            eigen_blocks(replace(system, hamiltonian=hamiltonian))


class TestLogicalFrame:
    """Stabilizer systems in their logical frame against the dense path, its oracle."""

    @pytest.mark.parametrize("name", list(CODE_WORD_SETS))
    def test_matches_dense_path(self, name):
        system = _builtin(name)
        dense = replace(system, conserved=False)
        assert eigen_blocks(system).logical is not None and eigen_blocks(system).operators is None
        rng = np.random.default_rng(sum(map(ord, name)) + 3)
        for T in (0.1, 0.5, 2.0):
            for size in (0.0, 1e-6, 1e-3, 0.3, 3.0):
                direction = rng.normal(size=system.n_charges)
                mu = size * direction / np.linalg.norm(direction)
                state, reference = thermal_state(system, mu, T), thermal_state(dense, mu, T)
                assert state.spectrum is None
                observed = (state.rho, *_observed(system, state))
                expected = (reference.rho, *_observed(dense, reference))
                for value, want in zip(observed, expected, strict=True):
                    assert np.max(np.abs(np.subtract(value, want))) <= 1e-12

    def test_signed_generators_and_logicals(self):
        # H = +ZZI - IZZ and a logical Z of phase -1, whose charges carry the coefficient -1
        from thermodual.models import StabilizerCode
        from thermodual.operators import parse_pauli

        code = StabilizerCode(
            "signed", 3, 1, (parse_pauli("-ZZI"), parse_pauli("IZZ")), (parse_pauli("XXX"),), (parse_pauli("-ZII"),)
        )
        system = build_stabilizer_system(code, [((1,), 0.1), ((2,), -0.2), ((3,), 0.3)])
        dense = replace(system, conserved=False)
        assert eigen_blocks(system).logical.signs.tolist() == [1.0, -1.0, -1.0]
        for mu, T in (([0.3, -0.5, 0.2], 0.4), ([0.0, 0.0, 0.0], 1.5), ([2.0, 1e-6, -1.0], 0.1)):
            state, reference = thermal_state(system, mu, T), thermal_state(dense, mu, T)
            observed = (state.rho, *_observed(system, state))
            expected = (reference.rho, *_observed(dense, reference))
            for value, want in zip(observed, expected, strict=True):
                assert np.max(np.abs(np.subtract(value, want))) <= 1e-12

    def test_hessian_keeps_its_digits_as_mu_vanishes(self):
        # t/|h| of each encoded qubit tends to 1/T; at |mu| = 0 the Hessian is -I/T exactly
        system = _builtin("detect422-axes")
        dense = replace(system, conserved=False)
        direction = np.linspace(-1.0, 1.0, 6)
        for T in (0.1, 1.0):
            for r in (1e-9, 1e-12, 1e-300, 0.0):
                mu = r * direction
                frame = hessian_exact(system, thermal_state(system, mu, T))
                reference = hessian_exact(dense, thermal_state(dense, mu, T))
                assert float(np.max(np.abs(frame - reference))) <= 1e-12 * float(np.max(np.abs(reference)))
        at_zero = hessian_exact(system, thermal_state(system, np.zeros(6), 0.5))
        assert np.array_equal(at_zero, -np.eye(6) / 0.5)

    def test_axis_charges_take_no_eigensolve(self, monkeypatch):
        # the first-order variants, the sampled one included, run on the closed form of each encoded qubit
        from thermodual.optimize import ExactEstimator, OptimizerConfig, run
        from thermodual.shots import ShotEstimator

        system = build_stabilizer_system(builtin_code("perfect5"), [((1,), 0.3), ((2,), -0.2), ((3,), 0.4)])
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _s=solver, **k: calls.append(1) or _s(*a, **k))
        for variant, estimator in (
            ("first_classical", ExactEstimator(system)),
            ("first_hqc", ShotEstimator(system, 3)),
        ):
            trace = run(system, OptimizerConfig(variant=variant, max_iter=300), estimator)
            assert trace.iterations > 1
        assert calls == []

    @pytest.mark.parametrize("name", ["detect422-all", "detect422-axes", "perfect5-axes"])
    def test_one_logical_eigensolve_per_state(self, monkeypatch, name):
        # axis charges take their means in closed form, other words from the one 2^k eigh that ln Z and the Hessian read
        system = _builtin(name)
        dim = 2**system.code.k
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: calls.append(a.shape) or eigh(a, *r, **k))
        state = thermal_state(system, np.linspace(-0.5, 0.5, system.n_charges), 0.4)
        state.term_means, state.energy
        assert calls == ([] if eigen_blocks(system).logical.axes is not None else [(dim, dim)])
        log_partition(state), hessian_exact(system, state)
        assert calls == [(dim, dim)]

    def test_built_on_the_first_state_and_dense_basis_on_first_read(self):
        from thermodual.shots import ShotEstimator, _pair_means

        system = build_stabilizer_system(builtin_code("repetition3"), [((1,), 0.1), ((3,), 0.2)])
        ShotEstimator(system, 1)
        assert system._eigen_blocks is None
        state = thermal_state(system, [0.2, -0.1], 0.5)
        blocks = eigen_blocks(system)
        state.term_means, state.energy, log_partition(state), hessian_exact(system, state)
        _pair_means(system, state, "generic")(0, 1)
        # the state keeps nothing of size 2^n, and the dense matrices wait for rho
        assert state.spectrum is None and state.block_populations is None
        assert not hasattr(blocks.logical, "syndromes")
        assert all(obs._dense is None for obs in blocks.observables)
        state.rho
        assert all(obs._dense is not None for obs in blocks.observables)
        assert thermal_state(system, [0.0, 0.3], 0.5).blocks.logical is blocks.logical

    def test_foreign_hamiltonian_or_charge_is_refused(self):
        system = _builtin("repetition3-axes")
        others = [
            replace(system, hamiltonian=Observable.from_strings(3, [(-1.0, "ZZI"), (-1.0, "ZIZ")])),
            replace(system, charges=(Observable.from_strings(3, [(2.0, "XXX")]), *system.charges[1:])),
        ]
        for other, match in zip(others, ("not a sum over the generators", "not the logical product")):
            with pytest.raises(NumericalIntegrityError, match=match):
                eigen_blocks(other)
