import numpy as np
import pytest
import scipy.linalg

from thermodual.encoding import (
    LogicalTarget,
    all_words,
    encoded_state,
    exponential_coefficients,
    exponential_to_mixture,
    logical_expectations,
    mixture_to_exponential,
    mixture_to_exponential_normalized,
    optimal_encoding_state,
    warm_start_state,
)
from thermodual.gibbs import gradient, primal_free_energy, thermal_state
from thermodual.models import build_stabilizer_system, builtin_code, codespace_projector
from thermodual.oracle import state_fidelity
from thermodual.optimize import ExactEstimator, OptimizerConfig, run


def bloch_system(code, r):
    return build_stabilizer_system(
        code, [((1,), r[0]), ((2,), r[1]), ((3,), r[2])]
    )


class TestCoordinateMaps:
    def test_origin_limit(self):
        mu, beta = mixture_to_exponential([0.0, 0.0, 0.0])
        assert np.array_equal(mu, np.zeros(3))
        assert beta == -1.0

    def test_half_z(self):
        mu, beta = mixture_to_exponential([0.0, 0.0, 0.5])
        assert np.allclose(mu, [0, 0, 0.5])
        assert beta == pytest.approx(np.arctanh(-0.5) / 0.5, abs=1e-15)
        assert beta == pytest.approx(-1.0986, abs=1e-4)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = rng.uniform(-1, 1, size=3)
            norm = np.linalg.norm(r)
            if norm >= 0.999:
                r = r / norm * 0.95
            mu, beta = mixture_to_exponential(r)
            assert np.max(np.abs(exponential_to_mixture(mu, beta) - r)) < 1e-12

    def test_pure_state_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            mixture_to_exponential([0.0, 0.0, 1.0])

    def test_normalized_variant(self):
        r = np.array([0.3, 0.0, 0.4])
        mu, beta = mixture_to_exponential_normalized(r)
        assert beta >= 0
        assert np.linalg.norm(mu) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(exponential_to_mixture(mu, beta) - r)) < 1e-12

    def test_both_variants_build_the_same_state(self):
        r = np.array([0.2, -0.1, 0.4])
        sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        reference = (np.eye(2) + sum(r[i] * sigma[i] for i in range(3))) / 2
        for mu, beta in (mixture_to_exponential(r), mixture_to_exponential_normalized(r)):
            exp = scipy.linalg.expm(-beta * sum(mu[i] * sigma[i] for i in range(3)))
            built = exp / np.trace(exp)
            assert np.max(np.abs(built - reference)) < 1e-12


class TestLogicalTarget:
    def test_from_bloch(self):
        target = LogicalTarget.from_bloch([0.2, 0.0, 0.5])
        assert target.coefficient((0,)) == 1.0
        assert target.coefficient((3,)) == 0.5

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ValueError):
            LogicalTarget.from_coefficients(1, {(1,): 1.5, (3,): 1.5})

    def test_identity_pinned(self):
        with pytest.raises(ValueError, match="identity"):
            LogicalTarget.from_coefficients(1, {(0,): 0.5})


class TestWarmStart:
    @pytest.mark.parametrize("name", ["repetition3", "perfect5"])
    def test_gradient_vanishes(self, name):
        code = builtin_code(name)
        r = np.array([0.2, 0.0, 0.5])
        T = 0.05
        system = bloch_system(code, r)
        rho, warm = warm_start_state(code, r, T)
        mu0 = warm.chemical_potentials(T, [(1,), (2,), (3,)])
        g = gradient(system, thermal_state(system, mu0, T))
        assert np.linalg.norm(g) <= 1e-9

    @pytest.mark.parametrize("name", ["repetition3", "perfect5"])
    def test_logical_expectations_exact(self, name):
        code = builtin_code(name)
        r = np.array([0.2, 0.0, 0.5])
        rho, _ = warm_start_state(code, r, 0.05)
        exps = logical_expectations(code, rho)
        assert exps[(1,)] == pytest.approx(0.2, abs=1e-9)
        assert exps[(2,)] == pytest.approx(0.0, abs=1e-9)
        assert exps[(3,)] == pytest.approx(0.5, abs=1e-9)

    def test_zero_target_is_plain_thermal_state(self):
        code = builtin_code("repetition3")
        rho, warm = warm_start_state(code, np.zeros(3), 0.2)
        system = bloch_system(code, np.zeros(3))
        plain = thermal_state(system, np.zeros(3), 0.2)
        assert np.max(np.abs(rho - plain.rho)) < 1e-12
        assert warm.beta == -1.0

    def test_requires_single_logical_qubit(self):
        code = builtin_code("detect422")
        with pytest.raises(ValueError, match="single"):
            warm_start_state(code, [0.1, 0.0, 0.0], 0.1)

    def test_second_order_stops_at_first_check(self):
        code = builtin_code("repetition3")
        r = np.array([0.2, 0.0, 0.5])
        T = 0.05
        system = bloch_system(code, r)
        _, warm = warm_start_state(code, r, T)
        mu0 = warm.chemical_potentials(T, [(1,), (2,), (3,)])
        cfg = OptimizerConfig(variant="second_classical", temperature=T, max_iter=50, delta=1e-6)
        trace = run(system, cfg, ExactEstimator(system), mu0=mu0)
        assert trace.converged
        assert trace.iterations == 1  # converged at the iteration-0 check


class TestOptimalEncodingState:
    def test_k1_reduces_to_warm_start(self):
        code = builtin_code("repetition3")
        r = [0.2, 0.0, 0.5]
        T = 0.05
        rho_general = optimal_encoding_state(code, LogicalTarget.from_bloch(r), T)
        rho_warm, _ = warm_start_state(code, r, T)
        assert np.max(np.abs(rho_general - rho_warm)) <= 1e-10

    def test_detect422_depolarized_bell(self):
        code = builtin_code("detect422")
        target = LogicalTarget.from_coefficients(
            2, {(1, 1): 0.9, (2, 2): -0.9, (3, 3): 0.9}
        )
        rho = optimal_encoding_state(code, target, 0.1)
        exps = logical_expectations(code, rho)
        for word, value in exps.items():
            assert value == pytest.approx(target.coefficient(word), abs=1e-8)

    def test_free_energy_beats_feasible_perturbations(self):
        # convex mixtures with other same-constraint states stay feasible, so
        # they probe uniqueness of the optimum within the constraint fiber
        code = builtin_code("repetition3")
        r = [0.3, -0.2, 0.1]
        target = LogicalTarget.from_bloch(r)
        T = 0.3
        system = bloch_system(code, r)
        rho_opt = optimal_encoding_state(code, target, T)
        base = primal_free_energy(system, rho_opt, T)
        anchors = [
            encoded_state(code, target),          # pure-codespace version
            optimal_encoding_state(code, target, 3.0),  # hotter same-constraint state
        ]
        rng = np.random.default_rng(8)
        for _ in range(1000):
            weights = rng.dirichlet((1.0, 1.0))
            anchor = weights[0] * anchors[0] + weights[1] * anchors[1]
            mix = float(rng.uniform(0.02, 1.0))
            candidate = (1 - mix) * rho_opt + mix * anchor
            exps = logical_expectations(code, candidate)
            for w, t in zip([(1,), (2,), (3,)], system.targets):
                assert exps[w] == pytest.approx(t, abs=1e-9)
            assert primal_free_energy(system, candidate, T) > base

    def test_rank_deficient_target_rejected(self):
        code = builtin_code("repetition3")
        target = LogicalTarget.from_bloch([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="mixed"):
            optimal_encoding_state(code, target, 0.1)

    def test_coefficient_solve_round_trip(self):
        rng = np.random.default_rng(4)
        r = rng.uniform(-0.4, 0.4, size=3)
        target = LogicalTarget.from_bloch(r)
        coeffs = exponential_coefficients(target)
        sigma = {
            (1,): np.array([[0, 1], [1, 0]], dtype=complex),
            (2,): np.array([[0, -1j], [1j, 0]]),
            (3,): np.diag([1.0 + 0j, -1.0]),
        }
        exponent = sum(coeffs[w] * sigma[w] for w in sigma)
        exp = scipy.linalg.expm(exponent)
        rebuilt = exp / np.trace(exp)
        assert np.max(np.abs(rebuilt - target.to_matrix())) < 1e-12


class TestEncodedState:
    def test_repetition3_plus_z_is_triple_zero(self):
        code = builtin_code("repetition3")
        rho = encoded_state(code, LogicalTarget.from_bloch([0.0, 0.0, 1.0]))
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_detect422_bell_rank_one(self):
        code = builtin_code("detect422")
        target = LogicalTarget.from_coefficients(
            2, {(1, 1): 1.0, (2, 2): -1.0, (3, 3): 1.0}
        )
        rho = encoded_state(code, target)
        eigs = np.linalg.eigvalsh(rho)
        assert np.sum(eigs > 1e-10) == 1
        exps = logical_expectations(code, rho)
        assert exps[(1, 1)] == pytest.approx(1.0, abs=1e-10)
        assert exps[(2, 2)] == pytest.approx(-1.0, abs=1e-10)
        assert exps[(3, 3)] == pytest.approx(1.0, abs=1e-10)

    def test_codespace_support(self):
        code = builtin_code("perfect5")
        rho = encoded_state(code, LogicalTarget.from_bloch([0.2, 0.0, 0.5]))
        projector = codespace_projector(code)
        assert np.max(np.abs(projector @ rho @ projector - rho)) <= 1e-12

    def test_fidelity_improves_as_temperature_drops(self):
        code = builtin_code("perfect5")
        r = [0.2, 0.0, 0.5]
        system = bloch_system(code, r)
        reference = encoded_state(code, LogicalTarget.from_bloch(r))
        fidelities = []
        for T in (1.0, 0.3, 0.1, 0.03):
            cfg = OptimizerConfig(variant="second_classical", temperature=T, max_iter=200, delta=1e-9)
            trace = run(system, cfg, ExactEstimator(system))
            assert trace.converged
            state = thermal_state(system, trace.final_mu, T)
            fidelities.append(state_fidelity(state.rho, reference))
        assert all(a <= b + 1e-12 for a, b in zip(fidelities, fidelities[1:]))
        # gap Delta = 2 for this system; fidelity is bounded below accordingly
        for T, fid in zip((1.0, 0.3, 0.1, 0.03), fidelities):
            assert fid >= 1.0 / (1.0 + np.exp(-2.0 / T) * (32 - 2) / 2) - 1e-6


class TestCodeGibbsStateIsThermalState:
    """The code-level Gibbs states are thermal states of the matching stabilizer system."""

    @pytest.mark.parametrize("name", ["repetition3", "perfect5"])
    def test_warm_start_bitwise(self, name):
        code = builtin_code(name)
        r, T = np.array([0.2, -0.3, 0.5]), 0.05
        rho, warm = warm_start_state(code, r, T)
        words = [(1,), (2,), (3,)]
        system = build_stabilizer_system(code, [(w, 0.0) for w in words])
        state = thermal_state(system, warm.chemical_potentials(T, words), T)
        assert np.array_equal(rho, state.rho)

    def test_optimal_encoding_detect422_bitwise(self):
        code = builtin_code("detect422")
        rng = np.random.default_rng(11)
        words = [w for w in all_words(2) if any(w)]
        target = LogicalTarget.from_coefficients(
            2, {w: float(v) for w, v in zip(words, rng.uniform(-0.05, 0.05, len(words)))}
        )
        T = 0.1
        rho = optimal_encoding_state(code, target, T)
        coeffs = exponential_coefficients(target)
        assert len(coeffs) == 15
        system = build_stabilizer_system(code, [(w, 0.0) for w in coeffs])
        state = thermal_state(system, np.array([T * c for c in coeffs.values()]), T)
        assert np.array_equal(rho, state.rho)
