import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom, chisquare

import thermodual.shots as shots
from thermodual.encoding import all_words
from thermodual.gibbs import ThermalState, hessian_exact, thermal_state
from thermodual.errors import NumericalIntegrityError
from thermodual.models import build_heisenberg, build_stabilizer_system, builtin_code
from thermodual.operators import PAULI_MATRICES, Observable, expectation, term_expectations
from thermodual.optimize import OptimizerConfig, run
from thermodual.shots import (
    ESTIMATOR_MODES,
    RngStream,
    ShotEstimator,
    derive_stream_seed,
    estimate_hessian,
    estimate_observable,
    hessian_fourier_quadrature,
    tent_characteristic,
    tent_density,
)

from conftest import random_density, random_system


def repetition_system(targets=(0.2, 0.0, 0.5)):
    code = builtin_code("repetition3")
    return build_stabilizer_system(
        code, [((1,), targets[0]), ((2,), targets[1]), ((3,), targets[2])]
    )


class TestStreamDerivation:
    def test_pure_and_distinct(self):
        seen = {}
        for iteration in range(24):
            for obs in range(24):
                seed = derive_stream_seed(987654321, iteration, obs)
                assert seed == derive_stream_seed(987654321, iteration, obs)
                assert seed not in seen, f"collision with {seen.get(seed)}"
                seen[seed] = (iteration, obs)

    def test_generators_reproducible(self):
        stream = RngStream(1234, iteration=5, obs_id=2)
        a = stream.generator().random(10)
        b = stream.generator().random(10)
        assert np.array_equal(a, b)
        c = stream.with_observable(3).generator().random(10)
        assert not np.array_equal(a, c)


def estimate_on(rho, obs, shots_per_term, stream):
    """A shot estimate of Tr[obs rho], with the term means gathered from a dense rho."""
    return estimate_observable(term_expectations(obs, rho), obs, shots_per_term, stream.generator())


class TestEstimateObservable:
    def test_deterministic_outcome(self):
        obs = Observable.from_strings(1, [(1.0, "Z")])
        rho = np.diag([1.0, 0.0]).astype(complex)
        for shots in (1, 10, 1000):
            value = estimate_on(rho, obs, shots, RngStream(1))
            assert value == 1.0

    def test_unbiased_within_confidence_interval(self, rng):
        system = build_heisenberg("line", n=3)
        rho = random_density(rng, 8)
        x_tot = system.charges[0]
        exact = expectation(x_tot, rho)
        shots = 400
        estimates = np.array([
            estimate_on(rho, x_tot, shots, RngStream(50, iteration=k))
            for k in range(200)
        ])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) <= 4 * se

    def test_variance_matches_binomial_formula(self, rng):
        rho = random_density(rng, 4)
        obs = Observable.from_strings(2, [(0.8, "XZ"), (-0.5, "ZY"), (0.3, "YI")])
        shots = 64
        predicted = sum(
            c**2 * (1.0 - expectation(Observable(2, [(1.0, w)]), rho) ** 2) / shots
            for c, w in obs.terms
        )
        estimates = np.array([
            estimate_on(rho, obs, shots, RngStream(7, iteration=k))
            for k in range(1000)
        ])
        observed = estimates.var(ddof=1)
        assert observed == pytest.approx(predicted, rel=0.2)

    def test_rejects_unnormalized_state(self):
        obs = Observable.from_strings(1, [(1.0, "Z")])
        with pytest.raises(NumericalIntegrityError):
            estimate_on(np.diag([2.0, 0.0]).astype(complex), obs, 10, RngStream(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_mean_that_is_not_finite(self, bad):
        obs = Observable.from_strings(2, [(1.0, "ZI"), (0.5, "IX")])
        with pytest.raises(NumericalIntegrityError, match="not a number in"):
            estimate_observable(np.array([0.2, bad]), obs, 10, RngStream(1).generator())

    def test_refuses_means_of_another_observable(self):
        obs = Observable.from_strings(2, [(1.0, "ZI"), (0.5, "IX")])
        with pytest.raises(ValueError, match="1 term means for 2 terms"):
            estimate_observable(np.array([0.2]), obs, 10, RngStream(1).generator())


class TestTentSampler:
    """The density of the interference-test times and its characteristic function."""

    def test_density_normalized(self):
        mass, _ = quad(lambda t: float(tent_density(t)), 0, 40, points=[0], limit=300)
        assert 2 * mass == pytest.approx(1.0, abs=1e-6)

    def test_tail_mass_below_cut(self):
        # p(t) ~ (4/pi) e^{-pi t} for large t, so the tail integrates to
        # (4/pi^2) e^{-12 pi} per side
        tail = 2 * (4 / np.pi**2) * np.exp(-12 * np.pi)
        assert tail <= 1e-15

    @pytest.mark.parametrize("omega", [0.0, 0.1, 1.0, 3.0, 7.5, -2.0])
    def test_characteristic_function_matches_quadrature(self, omega):
        value, _ = quad(
            lambda t: 2.0 * float(tent_density(t)) * np.cos(omega * t),
            0, 40, points=[0], limit=400, epsabs=1e-13, epsrel=1e-13,
        )
        assert float(tent_characteristic(omega)) == pytest.approx(value, abs=1.2e-12)


class TestHessianQuadrature:
    def test_matches_exact_on_random_two_qubit(self, rng):
        for _ in range(3):
            system = random_system(rng, n=2, n_charges=2, hamiltonian_terms=4)
            mu = rng.normal(scale=0.5, size=2)
            T = float(rng.uniform(0.4, 1.2))
            state = thermal_state(system, mu, T)
            exact = hessian_exact(system, state)
            quadrature = hessian_fourier_quadrature(system, state)
            assert np.max(np.abs(quadrature - exact)) <= 1e-3

    def test_extensive_matches_generic_on_heisenberg(self):
        # generic mode reads eigenvectors, so the system leaves its sectors for the dense path
        system = dataclasses.replace(build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0)), su2_symmetric=False)
        mu = np.array([0.3, -0.2, 0.1])
        T = 0.7
        state = thermal_state(system, mu, T)
        generic = hessian_fourier_quadrature(system, state, mode="generic")
        extensive = hessian_fourier_quadrature(system, state, mode="extensive")
        assert np.max(np.abs(generic - extensive)) <= 1e-6

    @pytest.mark.parametrize("name", ["heisenberg", "repetition3"])
    def test_generic_mode_refuses_a_frame_state(self, name):
        system = build_heisenberg("line", n=3) if name == "heisenberg" else repetition_system()
        state = thermal_state(system, np.full(system.n_charges, 0.2), 0.5)
        for call in (
            lambda: hessian_fourier_quadrature(system, state),
            lambda: shots._conjugated_charge(system, state, 0, 0.3, "generic"),
        ):
            with pytest.raises(ValueError, match="dense-path state"):
                call()

    def test_extensive_requires_extensive_charges(self):
        code = builtin_code("repetition3")
        system = build_stabilizer_system(code, [((1,), 0.0)])
        with pytest.raises(ValueError, match="extensive"):
            hessian_fourier_quadrature(
                system, thermal_state(system, np.zeros(1), 0.5), mode="extensive"
            )
        # the shot estimator refuses the mode when it is built, before any Hessian
        with pytest.raises(ValueError, match="not extensive"):
            ShotEstimator(system, 1, mode="extensive")

    def test_extensive_requires_conserved_system(self):
        heis = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        system = dataclasses.replace(heis, conserved=False)
        state = thermal_state(system, np.zeros(3), 0.5)
        with pytest.raises(ValueError, match="conserved"):
            estimate_hessian(system, state, 10, 10, RngStream(1), mode="extensive")
        with pytest.raises(ValueError, match="conserved"):
            hessian_fourier_quadrature(system, state, mode="extensive")


class TestHessianEstimate:
    def test_unbiased_against_exact(self):
        system = repetition_system()
        mu = np.array([0.3, -0.1, 0.2])
        T = 0.5
        state = thermal_state(system, mu, T)
        exact = hessian_exact(system, state)
        estimates = np.array([
            estimate_hessian(system, state, 400, 400, RngStream(12345, iteration=k))
            for k in range(50)
        ])
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        assert np.all(np.abs(mean - exact) <= 4 * se + 1e-12)

    def test_extensive_mode_unbiased(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        mu = np.array([0.2, 0.0, -0.1])
        T = 0.8
        state = thermal_state(system, mu, T)
        exact = hessian_exact(system, state)
        estimates = np.array([
            estimate_hessian(system, state, 500, 500, RngStream(7, iteration=k), mode="extensive")
            for k in range(30)
        ])
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        assert np.all(np.abs(mean - exact) <= 4 * se + 1e-12)

    def test_rejects_a_pair_mean_that_is_not_finite(self, monkeypatch):
        system = repetition_system()
        state = thermal_state(system, np.zeros(3), 0.5)
        nan_pairs = lambda i, j: (np.ones(1), np.full(1, np.nan))  # noqa: E731
        monkeypatch.setattr(shots, "_pair_means", lambda *args: nan_pairs)
        with pytest.raises(NumericalIntegrityError, match="outcome mean nan"):
            estimate_hessian(system, state, 10, 10, RngStream(1))

    def test_one_generator_per_hessian(self, monkeypatch):
        # the pairs of every entry and both factors of each are drawn in one call
        made = []
        generator = RngStream.generator
        monkeypatch.setattr(RngStream, "generator", lambda stream: made.append(stream) or generator(stream))
        for name, mode in (("repetition3", "generic"), ("detect422", "generic"), ("grid2x3", "extensive")):
            system, state = pinned_case(name)
            made.clear()
            estimate_hessian(system, state, 50, 50, RngStream(3, iteration=2), mode=mode)
            assert made == [RngStream(3, iteration=2, obs_id=shots.HESSIAN_ENTRY_BASE)]

    def test_exactly_symmetric(self):
        system = repetition_system()
        state = thermal_state(system, np.zeros(3), 0.5)
        est = estimate_hessian(system, state, 50, 50, RngStream(3))
        assert np.array_equal(est, est.T)

    def test_deterministic_given_stream(self):
        system = repetition_system()
        state = thermal_state(system, np.zeros(3), 0.5)
        a = estimate_hessian(system, state, 100, 100, RngStream(42, iteration=9))
        b = estimate_hessian(system, state, 100, 100, RngStream(42, iteration=9))
        assert np.array_equal(a, b)
        c = estimate_hessian(system, state, 100, 100, RngStream(42, iteration=10))
        assert not np.array_equal(a, c)


def pinned_case(name):
    """A system and its thermal state at a fixed, generic point."""
    if name == "grid2x3":
        system = build_heisenberg(
            "grid", rows=2, cols=3, nnn=True, lam=0.5, targets=(0.5, 0.2, -0.4)
        )
        mu, T = np.array([0.4, -0.3, 0.25]), 0.5
    elif name == "line5":
        system = build_heisenberg("line", n=5, nnn=True, targets=(0.3, -0.5, 0.2))
        mu, T = np.array([-0.35, 0.2, 0.5]), 0.45
    elif name == "random":
        # no conserved charges: the eigenvectors are the one dense block's
        system = random_system(np.random.default_rng(2505))
        mu, T = np.array([0.2, -0.4, 0.3]), 0.6
    elif name == "detect422":
        system = build_stabilizer_system(
            builtin_code(name), [(w, 0.1) for w in all_words(2) if any(w)]
        )
        mu, T = np.random.default_rng(422).normal(scale=0.5, size=15), 0.5
    else:
        system = build_stabilizer_system(
            builtin_code(name), [((1,), 0.3), ((2,), -0.2), ((3,), 0.4)]
        )
        mu, T = np.array([0.3, -0.2, 0.5]), 0.4
    return system, thermal_state(system, mu, T)


class TestExactLaw:
    """Per-pair interference means and binomial shot counts against their exact law."""

    @pytest.mark.parametrize(
        "name,mode",
        [("repetition3", "generic"), ("grid2x3", "generic"), ("grid2x3", "extensive"),
         ("random", "generic"), ("perfect5", "generic"), ("detect422", "generic"),
         ("line5", "generic"), ("line5", "extensive")],
    )
    def test_pair_means_sum_to_exact_hessian(self, name, mode):
        system, state = pinned_case(name)
        exact = hessian_exact(system, state)
        means = state.charge_means
        pairs = shots._pair_means(system, state, mode)
        for i in range(system.n_charges):
            for j in range(i, system.n_charges):
                coeffs, wbar = pairs(i, j)
                assert np.all(np.abs(wbar) <= 1.0 + 1e-12)
                target = -state.temperature * exact[i, j] + means[i] * means[j]
                assert abs(coeffs @ wbar - target) <= 1e-12

    def test_site_block_trace_matches_embedding(self, rng):
        n = 4
        mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        for site in range(n):
            block = shots._site_block(mat, site, n)
            for sigma in PAULI_MATRICES + (rng.normal(size=(2, 2)),):
                expected = np.einsum("ij,ji->", shots._embed_site(sigma, site, n), mat)
                assert np.einsum("ij,ji->", sigma, block) == pytest.approx(expected, abs=1e-12)

    def test_term_counts_follow_binomial_pmf(self):
        # every term of H and the charges: |<P>| from 0.3 to 0.99
        system, state = pinned_case("repetition3")
        rho = state.rho
        shots_per_term = 12
        words = [word for obs in (system.hamiltonian, *system.charges) for _, word in obs.terms]
        for word in words:
            obs = Observable(system.n_qubits, [(1.0, word)])
            p = (1.0 + expectation(obs, rho)) / 2.0
            counts = [
                round((estimate_on(rho, obs, shots_per_term, RngStream(31, k)) + 1.0)
                      * shots_per_term / 2.0)
                for k in range(4000)
            ]
            observed = np.bincount(counts, minlength=shots_per_term + 1)
            expected = len(counts) * binom.pmf(np.arange(shots_per_term + 1), shots_per_term, p)
            # pool the sparse tails into one cell
            keep = expected >= 5.0
            observed = np.append(observed[keep], observed[~keep].sum())
            expected = np.append(expected[keep], expected[~keep].sum())
            assert chisquare(observed, expected).pvalue > 1e-4, str(word)

    def test_hessian_entry_variance_matches_binomial_formula(self):
        # one Pauli term per charge, so entry (i, j) has one pair with
        # wbar = -T H_ij + <Q_i><Q_j>; the two factor estimates are independent
        system, state = pinned_case("repetition3")
        time_samples, shots_per_term, T = 30, 20, state.temperature
        exact = hessian_exact(system, state)
        m = state.charge_means
        wbar = -T * exact + np.outer(m, m)
        second = m**2 + (1.0 - m**2) / shots_per_term
        predicted = (
            (1.0 - wbar**2) / time_samples + np.outer(second, second) - np.outer(m, m) ** 2
        ) / T**2
        estimates = np.array([
            estimate_hessian(system, state, time_samples, shots_per_term, RngStream(8, k))
            for k in range(3000)
        ])
        se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        assert np.all(np.abs(estimates.mean(axis=0) - exact) <= 4 * se)
        assert estimates.var(axis=0, ddof=1) == pytest.approx(predicted, rel=0.12)


def frame_cases():
    """(id, system, the same system on the dense path, modes) of every frame the pair means read."""
    heisenberg = {
        "line4": dict(geometry="line", n=4), "line5": dict(geometry="line", n=5),
        "line6": dict(geometry="line", n=6), "grid2x3": dict(geometry="grid", rows=2, cols=3),
    }
    for name, geometry in heisenberg.items():
        system = build_heisenberg(**geometry, nnn=True, targets=(0.4, -0.3, 0.2))
        # the dense copy keeps `conserved`, which extensive mode needs
        yield name, system, dataclasses.replace(system, su2_symmetric=False), ESTIMATOR_MODES
    for name in ("repetition3", "perfect5", "detect422"):
        code = builtin_code(name)
        axes = [(tuple(a * (q == p) for p in range(code.k)), 0.1) for q in range(code.k) for a in (1, 2, 3)]
        system = build_stabilizer_system(code, axes)
        yield name, system, dataclasses.replace(system, conserved=False), ("generic",)
    system = build_stabilizer_system(builtin_code("detect422"), [(w, 0.1) for w in all_words(2) if any(w)])
    yield "detect422-words", system, dataclasses.replace(system, conserved=False), ("generic",)


FRAME_CASES = {name: case for name, *case in frame_cases()}


class TestFramePairMeans:
    """The pair means of the S^z sectors and the logical frame against the dense path."""

    @pytest.mark.parametrize("T", [0.3, 1.4])
    @pytest.mark.parametrize("where", ["zero", "near-zero", "random"])
    @pytest.mark.parametrize("name", list(FRAME_CASES))
    def test_frames_match_the_dense_path(self, name, where, T):
        system, dense, modes = FRAME_CASES[name]
        c = system.n_charges
        mu = {
            "zero": np.zeros(c), "near-zero": 1e-9 * np.eye(c)[0],
            "random": np.random.default_rng(c + len(name)).normal(scale=0.6, size=c),
        }[where]
        state, reference = thermal_state(system, mu, T), thermal_state(dense, mu, T)
        assert state.blocks.operators is None and reference.blocks.operators is not None
        for mode in modes:
            frame, oracle = shots._pair_means(system, state, mode), shots._pair_means(dense, reference, mode)
            for i in range(c):
                for j in range(i, c):
                    (coeffs, wbar), (dense_coeffs, dense_wbar) = frame(i, j), oracle(i, j)
                    assert np.array_equal(coeffs, dense_coeffs), (mode, i, j)
                    assert np.max(np.abs(wbar - dense_wbar)) <= 1e-12, (mode, i, j)

    @pytest.mark.parametrize("name", ["line6", "repetition3", "perfect5", "detect422", "detect422-words"])
    def test_hessian_builds_no_dense_matrix(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("the sampled Hessian read a dense matrix")

        monkeypatch.setattr(Observable, "to_dense", refuse)
        monkeypatch.setattr(ThermalState, "rho", property(refuse))
        system, _, modes = FRAME_CASES[name]
        state = thermal_state(system, np.full(system.n_charges, 0.2), 0.5)
        for mode in modes:
            estimate = ShotEstimator(system, 5, hessian_samples_per_iteration=20_000, mode=mode).hessian(state, 1)
            assert np.all(np.isfinite(estimate)) and np.array_equal(estimate, estimate.T)


class TestShotEstimator:
    def test_budget_split(self):
        system = repetition_system()
        estimator = ShotEstimator(system, 1, shots_per_iteration=10_000)
        # 2 Hamiltonian terms + 3 single-word charges = 5 measured terms
        assert estimator.shots_per_term == 2000
        cfg = OptimizerConfig(variant="first_hqc", max_iter=0)
        trace = run(system, cfg, estimator)
        assert trace.records[0].shots_used == 10_000
        # a positive budget below the term count still measures each term once
        assert ShotEstimator(system, 1, shots_per_iteration=3).shots_per_term == 1

    @pytest.mark.parametrize("budget", [
        {"shots_per_iteration": 0},
        {"shots_per_iteration": -50},
        {"hessian_samples_per_iteration": -5},
    ])
    def test_refuses_non_positive_budgets(self, budget):
        with pytest.raises(ValueError, match="must be at least 1"):
            ShotEstimator(repetition_system(), 1, **budget)

    def test_estimates_converge_with_budget(self, rng):
        system = repetition_system()
        state = thermal_state(system, np.array([0.1, 0.0, 0.2]), 0.5)
        exact = expectation(system.charges[2], state.rho)
        wide = ShotEstimator(system, 11, shots_per_iteration=100)
        tight = ShotEstimator(system, 11, shots_per_iteration=1_000_000)
        err_wide = abs(wide.estimate(state, 0, False)[0][2] - exact)
        err_tight = abs(tight.estimate(state, 0, False)[0][2] - exact)
        assert err_tight < max(err_wide, 5e-3)

    @pytest.mark.parametrize("name", ["repetition3", "grid2x3"])
    def test_energy_draws_follow_the_charges(self, name):
        # one generator per evaluation draws the charges first, so measuring H changes none
        system, state = pinned_case(name)
        estimator = ShotEstimator(system, 17, shots_per_iteration=500)
        charges, energy = estimator.estimate(state, 6, True)
        alone, none = estimator.estimate(state, 6, False)
        assert none is None and isinstance(energy, float)
        assert np.array_equal(charges, alone)
        assert not np.array_equal(charges, estimator.estimate(state, 7, False)[0])

    @pytest.mark.parametrize("energy", [False, True])
    @pytest.mark.parametrize("name", ["repetition3", "grid2x3"])
    def test_one_draw_equals_one_call_per_observable(self, name, energy):
        # the generator fills a vector of counts element by element
        system, state = pinned_case(name)
        estimator = ShotEstimator(system, 23, shots_per_iteration=500)
        means = [state.term_means[part] for part in state.blocks.term_slices]
        rng = RngStream(23, 5).generator()
        shots = estimator.shots_per_term
        charges = [estimate_observable(m, q, shots, rng) for m, q in zip(means[1:], system.charges)]
        energy_estimate = estimate_observable(means[0], system.hamiltonian, shots, rng) if energy else None
        got, got_energy = estimator.estimate(state, 5, energy)
        assert got.tolist() == charges and got_energy == energy_estimate

    @pytest.mark.parametrize("energy", [False, True])
    def test_an_evaluation_is_one_estimate_observable_call(self, monkeypatch, energy):
        # looked up on the module at each call, so a wrapper there sees every evaluation
        system, state = pinned_case("grid2x3")
        calls = []
        inner = shots.estimate_observable
        monkeypatch.setattr(shots, "estimate_observable", lambda m, obs, *a: calls.append(len(obs.terms)) or inner(m, obs, *a))
        ShotEstimator(system, 23).estimate(state, 5, energy)
        measured = system.charges + (system.hamiltonian,) * energy
        assert calls == [sum(len(q.terms) for q in measured)]

    @pytest.mark.parametrize("bad", [float("nan"), 1.5])
    def test_refuses_a_bad_mean_of_the_last_observable(self, bad):
        system, state = pinned_case("repetition3")
        means = np.array(state.term_means)
        # H's terms come first in term order and are drawn last
        means[state.blocks.term_slices[0].stop - 1] = bad
        state.__dict__["term_means"] = means
        estimator = ShotEstimator(system, 23)
        assert estimator.estimate(state, 0, False)[1] is None
        with pytest.raises(NumericalIntegrityError, match=str(bad)):
            estimator.estimate(state, 0, True)

    def test_hessian_uses_mode(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        state = thermal_state(system, np.zeros(3), 0.8)
        estimator = ShotEstimator(
            system, 5, hessian_samples_per_iteration=20_000, mode="extensive"
        )
        est = estimator.hessian(state, 0)
        assert est.shape == (3, 3)
        assert np.array_equal(est, est.T)


# Exact outputs of the shot layer for fixed seeds and small budgets.  Any
# change to the estimators must leave them bit for bit as they are: a
# rounding-level change in a probability moves a binomial count only when one
# of the sampler's uniform draws lands within that rounding of a threshold.
PINNED_OBSERVABLE = {
    ("repetition3", 11): [
        -2.0,
        0.45945945945945943,
        -0.45945945945945943,
        0.7837837837837838,
    ],
    ("repetition3", 20251018): [
        -2.0,
        0.45945945945945943,
        -0.29729729729729726,
        0.6756756756756757,
    ],
    ("perfect5", 11): [
        -3.945945945945946,
        0.45945945945945943,
        -0.45945945945945943,
        0.7837837837837838,
    ],
    ("perfect5", 20251018): [
        -4.0,
        0.45945945945945943,
        -0.29729729729729726,
        0.6756756756756757,
    ],
    ("grid2x3", 11): [
        -10.297297297297295,
        -0.108108108108108,
        0.05405405405405417,
        0.10810810810810811,
    ],
    ("grid2x3", 20251018): [
        -11.35135135135135,
        -0.2702702702702704,
        0.16216216216216228,
        0.05405405405405417,
    ],
}

PINNED_HESSIAN = {
    ("repetition3", "generic", 11): [
        [-1.2087971646601143, -0.13250762713203904, 0.31489259362609917],
        [-0.13250762713203904, -1.3393024886503324, -0.2222643760585225],
        [0.31489259362609917, -0.2222643760585225, -0.7811028352761703],
    ],
    ("repetition3", "generic", 20251018): [
        [-1.2708405905536653, -0.14929164842427725, 0.4715459301029726],
        [-0.14929164842427725, -1.3078709354794356, -0.21473794964291407],
        [0.4715459301029726, -0.21473794964291407, -0.7584749398196206],
    ],
    ("perfect5", "generic", 11): [
        [-1.2087971646601143, -0.13250762713203904, 0.31489259362609917],
        [-0.13250762713203904, -1.3393024886503324, -0.2222643760585225],
        [0.31489259362609917, -0.2222643760585225, -0.7811028352761703],
    ],
    ("perfect5", "generic", 20251018): [
        [-1.2708405905536653, -0.14929164842427725, 0.4715459301029726],
        [-0.14929164842427725, -1.3078709354794356, -0.21473794964291407],
        [0.4715459301029726, -0.21473794964291407, -0.7584749398196206],
    ],
    ("grid2x3", "generic", 11): [
        [0.7006208608340101, -0.42236089139323396, -0.3900554251625287],
        [-0.42236089139323396, -1.5275336815314704, 1.5565176885704453],
        [-0.3900554251625287, 1.5565176885704453, -0.8869556216146882],
    ],
    ("grid2x3", "extensive", 11): [
        [-1.2124226174268604, -0.5962739348714952, -0.47701194690166],
        [-0.5962739348714952, 1.515944579338095, 1.6434742103095765],
        [-0.47701194690166, 1.6434742103095765, 0.5913052479505295],
    ],
    ("grid2x3", "generic", 20251018): [
        [-2.042229338206007, 1.8128416253547062, -0.5358215773330646],
        [1.8128416253547062, -1.54203018567317, -0.17142419939556647],
        [-0.5358215773330646, -0.17142419939556647, -0.26293985143445997],
    ],
    ("grid2x3", "extensive", 20251018): [
        [1.2621184878809486, 1.5519720601373148, -0.8836476642895879],
        [1.5519720601373148, 1.5884045969355252, 0.08944536582182532],
        [-0.8836476642895879, 0.08944536582182532, 0.2587992790003216],
    ],
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name,seed", sorted(PINNED_OBSERVABLE))
    def test_estimate_observable(self, name, seed):
        # the term means of the state's blocks; H draws from stream id 1 << 20, charge k from id k
        system, state = pinned_case(name)
        observables = (system.hamiltonian, *system.charges)
        ids = [1 << 20, *range(system.n_charges)]
        means = [state.term_means[part] for part in state.blocks.term_slices]
        got = [
            estimate_observable(m, obs, 37, RngStream(seed, 3, k).generator())
            for m, obs, k in zip(means, observables, ids)
        ]
        assert got == PINNED_OBSERVABLE[(name, seed)]

    @pytest.mark.parametrize("name,mode,seed", sorted(PINNED_HESSIAN))
    def test_shot_estimator_hessian(self, name, mode, seed):
        system, state = pinned_case(name)
        estimator = ShotEstimator(system, seed, hessian_samples_per_iteration=20_000, mode=mode)
        assert estimator.hessian(state, 4).tolist() == PINNED_HESSIAN[(name, mode, seed)]
