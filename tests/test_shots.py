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

    def test_draws_do_not_depend_on_other_streams(self):
        # a stream's draws are the same alone, after other streams, and interleaved with them
        streams = [RngStream(77, iteration, obs) for iteration in (0, 1, 9) for obs in (0, 1, shots.HESSIAN_ENTRY_BASE)]
        alone = [stream.generator().binomial(1000, 0.3, size=6) for stream in streams]
        for start in range(len(streams)):
            order = streams[start:] + streams[:start]
            generators = [stream.generator() for stream in order]
            halves = [g.binomial(1000, 0.3, size=3) for g in generators]
            halves = [np.concatenate((h, g.binomial(1000, 0.3, size=3))) for h, g in zip(halves, generators)]
            for stream, drawn in zip(order, halves):
                assert np.array_equal(drawn, alone[streams.index(stream)])

    def test_no_two_streams_share_a_state(self):
        # over the grid of test_pure_and_distinct
        seen = {}
        for iteration in range(24):
            for obs in range(24):
                state = RngStream(987654321, iteration, obs).generator().bit_generator.state["state"]
                key = (state["state"], state["inc"])
                assert key not in seen, f"{(iteration, obs)} shares the PCG64 state of {seen.get(key)}"
                seen[key] = (iteration, obs)

    def test_generator_is_pcg64_of_the_splitmix64_words(self):
        # the words, from a splitmix64 written out here, seed PCG64 by its own routine
        mask = (1 << 64) - 1

        def splitmix64(x, count):
            words = []
            for _ in range(count):
                x = (x + 0x9E3779B97F4A7C15) & mask
                z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                words.append(z ^ (z >> 31))
            return words

        class Words(np.random.bit_generator.ISeedSequence):
            def __init__(self, words):
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                assert (n_words, np.dtype(dtype)) == (4, np.uint64)
                return np.array(self.words, dtype=np.uint64)

        for master, iteration, obs in ((0, 0, 0), (987654321, 7, 3), (2**64 - 1, 2**40, shots.HESSIAN_ENTRY_BASE)):
            stream = RngStream(master, iteration, obs)
            words = splitmix64(derive_stream_seed(master, iteration, obs), 4)
            reference = np.random.Generator(np.random.PCG64(Words(words)))
            generator = stream.generator()
            # PCG's stream increment is the last two words, shifted up one bit and made odd
            assert generator.bit_generator.state["state"]["inc"] == ((words[2] << 64 | words[3]) << 1 | 1) % 2**128
            assert generator.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(generator.binomial(1000, 0.4, size=20), reference.binomial(1000, 0.4, size=20))
            assert np.array_equal(generator.random(5), reference.random(5))
            # a 32-bit request: the low half of each word
            halves = [word & 0xFFFFFFFF for word in words[:3]]
            assert shots._stream_words()(np.array(words, dtype=np.uint64)).generate_state(3).tolist() == halves


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
        err_wide = abs(wide.estimate_rows((state,), [0], 0, False)[0][0, 2] - exact)
        err_tight = abs(tight.estimate_rows((state,), [0], 0, False)[0][0, 2] - exact)
        assert err_tight < max(err_wide, 5e-3)

    @pytest.mark.parametrize("name", ["repetition3", "grid2x3"])
    def test_energy_draws_follow_the_charges(self, name):
        # one generator per evaluation draws the charges first, so measuring H changes none
        system, state = pinned_case(name)
        estimator = ShotEstimator(system, 17, shots_per_iteration=500)
        charges, (energy,) = estimator.estimate_rows((state,), [0], 6, True)
        alone, none = estimator.estimate_rows((state,), [0], 6, False)
        assert none is None and isinstance(energy, float)
        assert np.array_equal(charges, alone)
        assert not np.array_equal(charges, estimator.estimate_rows((state,), [0], 7, False)[0])

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
        got, got_energies = estimator.estimate_rows((state,), [0], 5, energy)
        assert got.tolist() == [charges] and got_energies == ([energy_estimate] if energy else None)

    @pytest.mark.parametrize("name", ["perfect5", "grid2x3", "random"])
    def test_group_equals_one_call_per_observable(self, name):
        # H and every charge in one call, against one call each, in order, on the same generator
        system, state = pinned_case(name)
        observables = (system.hamiltonian, *system.charges)
        means = [state.term_means[part] for part in state.blocks.term_slices]
        rng = RngStream(31, 2).generator()
        each = [estimate_observable(m, obs, 29, rng) for m, obs in zip(means, observables)]
        group = estimate_observable(state.term_means, shots.ObservableGroup(observables), 29, RngStream(31, 2).generator())
        np.testing.assert_array_max_ulp(group, np.array(each), maxulp=0)

    @pytest.mark.parametrize("energy", [False, True])
    def test_an_evaluation_is_one_estimate_observable_call(self, monkeypatch, energy):
        # looked up on the module at each call, so a wrapper there sees every evaluation
        system, state = pinned_case("grid2x3")
        calls = []
        inner = shots.estimate_observable
        monkeypatch.setattr(shots, "estimate_observable", lambda m, obs, *a: calls.append(len(obs.terms)) or inner(m, obs, *a))
        ShotEstimator(system, 23).estimate_rows((state,), [0], 5, energy)
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
        assert estimator.estimate_rows((state,), [0], 0, False)[1] is None
        with pytest.raises(NumericalIntegrityError, match=str(bad)):
            estimator.estimate_rows((state,), [0], 0, True)

    @pytest.mark.parametrize("eval_index", [0, 63, 64, 200])
    @pytest.mark.parametrize("name", ["perfect5", "detect422", "grid2x3", "random"])
    def test_rows_draw_what_their_streams_draw(self, name, eval_index):
        # each row of a stack, across the blocks its stream words are derived in, against a call per row
        system, state = pinned_case(name)
        seeds = [5, 2**64 - 1, 2**40 + 17]
        stacked = ShotEstimator(system, seeds, shots_per_iteration=900)
        states = [thermal_state(system, state.mu * scale, state.temperature) for scale in (1.0, 0.5, -0.8)]
        charges, energies = stacked.estimate_rows(states, [0, 1, 2], eval_index, True)
        order, group = stacked._measured[True]
        for seed, row, charge, energy in zip(seeds, states, charges, energies):
            # the means of the same state built alone
            means = thermal_state(system, row.mu, row.temperature).term_means
            rng = RngStream(seed, eval_index).generator()
            expected = estimate_observable(means[order], group, stacked.shots_per_term, rng)
            assert charge.tolist() == expected[:-1].tolist() and energy == expected[-1]
        # a stack of the last two rows draws what they draw in the whole stack
        tail, _ = stacked.estimate_rows(states[1:], [1, 2], eval_index, False)
        assert np.array_equal(tail, charges[1:])

    @pytest.mark.parametrize("size", [1, 5, 12, 13, 40])
    def test_a_draw_per_value_matches_one_call_per_row(self, monkeypatch, size):
        # below SCALAR_DRAWS values a row takes one binomial call per value, on the same generator
        values = np.random.default_rng(size).uniform(-1.0, 1.0, (2, size))
        draw = lambda: shots._binomial_means(values, 37, [RngStream(3, k).generator() for k in range(2)])
        per_value = draw()
        monkeypatch.setattr(shots, "SCALAR_DRAWS", -1)
        assert np.array_equal(per_value, draw())

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
# A new stream set-up moves every draw, and so all of them.
PINNED_OBSERVABLE = {
    ("repetition3", 11): [
        -1.945945945945946,
        0.3513513513513513,
        -0.5135135135135135,
        0.8378378378378379,
    ],
    ("repetition3", 20251018): [
        -1.945945945945946,
        0.6216216216216217,
        0.08108108108108114,
        0.8378378378378379,
    ],
    ("perfect5", 11): [
        -3.945945945945946,
        0.3513513513513513,
        -0.5135135135135135,
        0.8378378378378379,
    ],
    ("perfect5", 20251018): [
        -3.891891891891892,
        0.6216216216216217,
        0.08108108108108114,
        0.8378378378378379,
    ],
    ("grid2x3", 11): [
        -10.162162162162161,
        0.05405405405405417,
        0.5945945945945946,
        0.05405405405405417,
    ],
    ("grid2x3", 20251018): [
        -11.108108108108103,
        0.5405405405405406,
        0.6486486486486488,
        0.4864864864864866,
    ],
}

PINNED_HESSIAN = {
    ("repetition3", "generic", 11): [
        [-1.2215531512116369, -0.21145397589877254, 0.3234944986088137],
        [-0.21145397589877254, -1.272856332638852, -0.34117390193024066],
        [0.3234944986088137, -0.34117390193024066, -0.7659202959930863],
    ],
    ("repetition3", "generic", 20251018): [
        [-1.194812597600326, -0.1791757303925018, 0.34320405554234296],
        [-0.1791757303925018, -1.4248763545671441, -0.381205527304184],
        [0.34320405554234296, -0.381205527304184, -0.7618976515265354],
    ],
    ("perfect5", "generic", 11): [
        [-1.2215531512116369, -0.21145397589877254, 0.3234944986088137],
        [-0.21145397589877254, -1.272856332638852, -0.34117390193024066],
        [0.3234944986088137, -0.34117390193024066, -0.7659202959930863],
    ],
    ("perfect5", "generic", 20251018): [
        [-1.194812597600326, -0.1791757303925018, 0.34320405554234296],
        [-0.1791757303925018, -1.4248763545671441, -0.381205527304184],
        [0.34320405554234296, -0.381205527304184, -0.7618976515265354],
    ],
    ("grid2x3", "generic", 11): [
        [0.3030989034233992, -2.14741337989977, -1.9130434782608685],
        [-2.14741337989977, -0.08074566308792208, 2.273291282519809],
        [-1.9130434782608685, 2.273291282519809, -1.2202852044295127],
    ],
    ("grid2x3", "extensive", 11): [
        [-0.13168370527225423, -1.9735003364215096, -1.6521739130434776],
        [-1.9735003364215096, -0.1677021848270518, 2.44720432599807],
        [-1.6521739130434776, 2.44720432599807, 0.518845230353098],
    ],
    ("grid2x3", "generic", 20251018): [
        [-4.28074431290126, -0.9416156783675332, -2.467907188168764],
        [-0.9416156783675332, -1.3606596111912475, 1.7345758051050562],
        [-2.467907188168764, 1.7345758051050562, -0.48074296271459455],
    ],
    ("grid2x3", "extensive", 20251018): [
        [3.1975165566639587, -0.8546591566284031, -2.3809506664296336],
        [-0.8546591566284031, 0.987166475765274, 1.5606627616267956],
        [-2.3809506664296336, 1.5606627616267956, 0.21490921119844783],
    ],
}


# (name, seed): the charge estimates and the energy estimate of one evaluation
# of one state, a stack of one, at 500 shots per iteration.  repetition3's 5
# terms are at most SCALAR_DRAWS, grid2x3's 51 are more.
PINNED_ONE_ROW = {
    ("repetition3", 11): ([0.3799999999999999, -0.24, 0.8], -2.0),
    ("repetition3", 20251018): ([0.56, -0.26, 0.74], -1.98),
    ("grid2x3", 11): ([0.0, -0.19999999999999996, 0.20000000000000018], -11.800000000000002),
    ("grid2x3", 20251018): ([0.7999999999999999, 0.19999999999999984, -0.4], -7.5),
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

    @pytest.mark.parametrize("name,seed", sorted(PINNED_ONE_ROW))
    def test_one_row_estimate(self, name, seed):
        system, state = pinned_case(name)
        estimator = ShotEstimator(system, seed, shots_per_iteration=500)
        charges, energies = estimator.estimate_rows((state,), [0], 3, True)
        assert (charges[0].tolist(), energies[0]) == PINNED_ONE_ROW[(name, seed)]
