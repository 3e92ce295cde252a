import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import thermodual.shots as shots
from thermodual.gibbs import hessian_exact, thermal_state
from thermodual.models import (
    HAMILTONIAN_OBS_ID,
    build_heisenberg,
    build_stabilizer_system,
    builtin_code,
)
from thermodual.operators import PAULI_MATRICES, Observable, expectation
from thermodual.optimize import OptimizerConfig, run_first_order
from thermodual.shots import (
    RngStream,
    ShotEstimator,
    TentSampler,
    channel_on_charge,
    derive_stream_seed,
    default_tent_sampler,
    estimate_hessian,
    estimate_observable,
    hessian_fourier_quadrature,
    sample_tent,
    tent_cdf,
    tent_density,
)

from conftest import random_density


def repetition_system(targets=(0.2, 0.0, 0.5)):
    code = builtin_code("repetition3")
    return build_stabilizer_system(
        code, [((1,), targets[0]), ((2,), targets[1]), ((3,), targets[2])]
    )


class TestStreamDerivation:
    def test_pure_and_distinct(self):
        seen = {}
        for iteration in range(8):
            for obs in range(8):
                for block in range(8):
                    seed = derive_stream_seed(987654321, iteration, obs, block)
                    assert seed == derive_stream_seed(987654321, iteration, obs, block)
                    assert seed not in seen, f"collision with {seen.get(seed)}"
                    seen[seed] = (iteration, obs, block)

    def test_generators_reproducible(self):
        stream = RngStream(1234, iteration=5, obs_id=2)
        a = stream.generator(3).random(10)
        b = stream.generator(3).random(10)
        assert np.array_equal(a, b)
        c = stream.generator(4).random(10)
        assert not np.array_equal(a, c)


class TestEstimateObservable:
    def test_deterministic_outcome(self):
        obs = Observable.from_strings(1, [(1.0, "Z")])
        rho = np.diag([1.0, 0.0]).astype(complex)
        for shots in (1, 10, 1000):
            value = estimate_observable(rho, obs, shots, RngStream(1))
            assert value == 1.0

    def test_unbiased_within_confidence_interval(self, rng):
        system = build_heisenberg("line", n=3)
        rho = random_density(rng, 8)
        x_tot = system.charges[0]
        exact = expectation(x_tot, rho)
        shots = 400
        estimates = np.array([
            estimate_observable(rho, x_tot, shots, RngStream(50, iteration=k))
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
            estimate_observable(rho, obs, shots, RngStream(7, iteration=k))
            for k in range(1000)
        ])
        observed = estimates.var(ddof=1)
        assert observed == pytest.approx(predicted, rel=0.2)

    def test_rejects_unnormalized_state(self):
        obs = Observable.from_strings(1, [(1.0, "Z")])
        from thermodual.errors import NumericalIntegrityError

        with pytest.raises(NumericalIntegrityError):
            estimate_observable(np.diag([2.0, 0.0]).astype(complex), obs, 10, RngStream(1))


class TestTentSampler:
    def test_density_normalized(self):
        mass, _ = quad(lambda t: float(tent_density(t)), 0, 40, points=[0], limit=300)
        assert 2 * mass == pytest.approx(1.0, abs=1e-6)

    def test_cdf_table_endpoints(self):
        sampler = default_tent_sampler()
        assert sampler.cdf[0] <= 1e-10
        assert 1.0 - sampler.cdf[-1] <= 1e-10

    def test_tail_mass_below_cut(self):
        # p(t) ~ (4/pi) e^{-pi t} for large t, so the tail integrates to
        # (4/pi^2) e^{-12 pi} per side
        tail = 2 * (4 / np.pi**2) * np.exp(-12 * np.pi)
        assert tail <= 1e-15
        assert 2 * (1.0 - tent_cdf(12.0)) <= 1e-15

    def test_kolmogorov_smirnov_against_table(self):
        sampler = default_tent_sampler()
        draws = sampler.sample(RngStream(99).generator(0), 100_000)
        draws = np.sort(draws)
        empirical = np.arange(1, len(draws) + 1) / len(draws)
        model = sampler.table_cdf(draws)
        ks = float(np.max(np.abs(empirical - model)))
        assert ks <= 0.01

    def test_symmetric_mean(self):
        sampler = default_tent_sampler()
        draws = sampler.sample(RngStream(123).generator(0), 1_000_000)
        sigma = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean()) <= 4 * sigma

    def test_single_draw(self):
        sampler = default_tent_sampler()
        value = sample_tent(sampler, RngStream(5).generator(0))
        assert -12.0 <= value <= 12.0

    def test_refinement_improves_center(self):
        coarse = TentSampler(base_knots=1 << 12, refine_knots=1 << 10)
        u = np.linspace(0.45, 0.55, 1001)
        t = np.interp(u, coarse.cdf, coarse.knots)
        # quantiles near the median must stay within the refined window
        assert np.max(np.abs(t)) < 0.05


class TestHessianQuadrature:
    def test_matches_exact_on_random_two_qubit(self, rng):
        from conftest import random_system

        for _ in range(3):
            system = random_system(rng, n=2, n_charges=2, hamiltonian_terms=4)
            mu = rng.normal(scale=0.5, size=2)
            T = float(rng.uniform(0.4, 1.2))
            state = thermal_state(system, mu, T)
            exact = hessian_exact(system, state)
            quadrature = hessian_fourier_quadrature(system, state)
            assert np.max(np.abs(quadrature - exact)) <= 1e-3

    def test_extensive_matches_generic_on_heisenberg(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        mu = np.array([0.3, -0.2, 0.1])
        T = 0.7
        state = thermal_state(system, mu, T)
        generic = hessian_fourier_quadrature(system, state, mode="generic")
        extensive = hessian_fourier_quadrature(system, state, mode="extensive")
        assert np.max(np.abs(generic - extensive)) <= 1e-6

    def test_channel_output_hermitian(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        mu = np.array([0.2, 0.1, -0.3])
        for mode in ("generic", "extensive"):
            out = channel_on_charge(system, thermal_state(system, mu, 0.5), 0, mode=mode)
            assert np.max(np.abs(out - out.conj().T)) <= 1e-10

    def test_extensive_requires_extensive_charges(self):
        code = builtin_code("repetition3")
        system = build_stabilizer_system(code, [((1,), 0.0)])
        with pytest.raises(ValueError, match="extensive"):
            hessian_fourier_quadrature(
                system, thermal_state(system, np.zeros(1), 0.5), mode="extensive"
            )

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


def dense_signal(A, b_rho, U):
    """Re Tr[U A U^dag B rho] with dense matrices."""
    return float(np.real(np.trace(U @ A @ U.conj().T @ b_rho)))


class TestSharedGrid:
    """The pruned shared-grid signals against the full sums and the dense time evolution.

    Pruning moves a signal by at most 1e-12.  Against the dense path the
    frequencies' rounding to 12 decimals adds up to 5e-13 |t| of phase per
    weight, whose magnitudes sum to at most 1 here, hence the |t| term.
    """

    T_SAMPLES = np.array([0.0, 0.013, -0.4, 1.7, -5.2, 11.9])

    @staticmethod
    def tolerance(t):
        return 1e-12 + 1e-12 * abs(t)

    @pytest.mark.parametrize("T", [0.5, 0.1 / (6 * np.log(2))])
    def test_generic_signals_match_dense(self, T):
        system = build_heisenberg("grid", rows=2, cols=3, nnn=True, lam=0.5)
        state = thermal_state(system, np.array([0.4, -0.3, 0.25]), T)
        V = state.spectrum.eigenvectors
        lam = state.spectrum.eigenvalues
        eig_terms = [
            [V.conj().T @ pv for pv in shots._pauli_rows(q, V)] for q in system.charges
        ]
        freqs, inverse = shots._eigen_frequencies(state)
        if T == 0.5:
            # pruning drops weights that are not exactly zero here
            pairs = shots._generic_pairs(system, state, 0, 1, eig_terms, freqs, inverse)
            dropped = [w[np.setdiff1d(np.arange(len(w)), shots._kept(w))] for _, _, w in pairs]
            assert max(np.max(np.abs(d)) for d in dropped) > 0.0
        for i, j in ((0, 1), (2, 2)):
            pairs = shots._generic_pairs(system, state, i, j, eig_terms, freqs, inverse)
            signals = shots._entry_signals(pairs, self.T_SAMPLES)
            angles = np.outer(self.T_SAMPLES, freqs)
            full = np.stack(
                [np.cos(angles) @ w.real + np.sin(angles) @ w.imag for _, _, w in pairs], axis=1
            )
            assert np.max(np.abs(signals - full)) <= 1e-12
            words = [
                (a.to_dense(), b.to_dense() @ state.rho)
                for _, a in system.charges[i].terms
                for _, b in system.charges[j].terms
            ]
            assert signals.shape == (len(self.T_SAMPLES), len(words))
            for row, t in enumerate(self.T_SAMPLES):
                U = (V * np.exp(-1j * lam * t / T)) @ V.conj().T
                for col, (A, b_rho) in enumerate(words):
                    assert abs(signals[row, col] - dense_signal(A, b_rho, U)) <= self.tolerance(t)

    def test_extensive_signals_match_dense(self):
        system = build_heisenberg("grid", rows=2, cols=3, nnn=True, lam=0.5)
        mu = np.array([0.4, -0.3, 0.25])
        T = 0.5
        state = thermal_state(system, mu, T)
        comps = shots._site_components(system)
        n = system.n_qubits
        for i, j in ((0, 2), (1, 1)):
            pairs = shots._extensive_pairs(system, state, i, j, comps)
            signals = shots._entry_signals(pairs, self.T_SAMPLES)
            b_rhos = [b.to_dense() @ state.rho for _, b in system.charges[j].terms]
            for row, t in enumerate(self.T_SAMPLES):
                col = 0
                for site in range(n):
                    scale = float(np.linalg.norm(comps[i, site], 2))
                    vals, vecs = np.linalg.eigh(np.tensordot(mu, comps[:, site], axes=(0, 0)))
                    local_u = (vecs * np.exp(1j * vals * t / T)) @ vecs.conj().T
                    u = shots._embed_site(local_u, site, n)
                    A = shots._embed_site(comps[i, site] / scale, site, n)
                    for b_rho in b_rhos:
                        value = dense_signal(A, b_rho, u)
                        assert abs(signals[row, col] - value) <= self.tolerance(t)
                        col += 1
            assert col == signals.shape[1]

    def test_site_block_trace_matches_embedding(self, rng):
        n = 4
        mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        for site in range(n):
            block = shots._site_block(mat, site, n)
            for sigma in PAULI_MATRICES + (rng.normal(size=(2, 2)),):
                expected = np.einsum("ij,ji->", shots._embed_site(sigma, site, n), mat)
                assert np.einsum("ij,ji->", sigma, block) == pytest.approx(expected, abs=1e-12)

    def test_pruning_bound(self):
        weights = np.array([3e-13, -4e-13j, 0.5, 2e-13, 0.0, 1e-3 + 1e-3j, 5e-13])
        kept = shots._kept(weights)
        dropped = np.setdiff1d(np.arange(len(weights)), kept)
        assert np.sum(np.abs(weights[dropped])) <= 1e-12
        # the smallest weight kept would push the dropped sum past the bound
        assert np.sum(np.abs(weights[dropped])) + np.min(np.abs(weights[kept])) > 1e-12
        assert list(kept) == sorted(kept)

    def test_pruning_matches_full_sort(self, rng):
        def by_full_sort(weights):
            mags = np.abs(weights)
            order = np.argsort(mags, kind="stable")
            dropped = np.searchsorted(np.cumsum(mags[order]), 1e-12, side="right")
            return np.sort(order[dropped:])

        for _ in range(500):
            size = int(rng.integers(1, 60))
            scale = 10.0 ** rng.uniform(-18, -10, size)
            weights = scale * rng.choice([0.0, 1.0, 1j, -1.0], size)
            assert np.array_equal(shots._kept(weights), by_full_sort(weights))


class TestShotEstimator:
    def test_budget_split(self):
        system = repetition_system()
        estimator = ShotEstimator(system, 1, shots_per_iteration=10_000)
        # 2 Hamiltonian terms + 3 single-word charges = 5 measured terms
        assert estimator.shots_per_term == 2000
        cfg = OptimizerConfig(variant="first_hqc", max_iter=0)
        trace = run_first_order(system, system.targets, cfg, estimator)
        assert trace.records[0].shots_used == 10_000

    def test_estimates_converge_with_budget(self, rng):
        system = repetition_system()
        state = thermal_state(system, np.array([0.1, 0.0, 0.2]), 0.5)
        exact = expectation(system.charges[2], state.rho)
        wide = ShotEstimator(system, 11, shots_per_iteration=100)
        tight = ShotEstimator(system, 11, shots_per_iteration=1_000_000)
        err_wide = abs(wide.expectation(state, 2, 0) - exact)
        err_tight = abs(tight.expectation(state, 2, 0) - exact)
        assert err_tight < max(err_wide, 5e-3)

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
# rounding-level change in a probability flips an outcome only when a uniform
# draw lands within that rounding of it.
PINNED_OBSERVABLE = {
    ("repetition3", 11): [
        -1.945945945945946,
        0.4594594594594595,
        -0.40540540540540543,
        0.7837837837837838,
    ],
    ("repetition3", 20251018): [
        -1.8918918918918919,
        0.24324324324324326,
        -0.4594594594594595,
        0.8918918918918919,
    ],
    ("perfect5", 11): [
        -3.945945945945946,
        0.4594594594594595,
        -0.40540540540540543,
        0.7837837837837838,
    ],
    ("perfect5", 20251018): [
        -3.8378378378378377,
        0.24324324324324326,
        -0.4594594594594595,
        0.8918918918918919,
    ],
    ("grid2x3", 11): [
        -11.162162162162158,
        -0.4324324324324325,
        -0.05405405405405406,
        -0.2702702702702703,
    ],
    ("grid2x3", 20251018): [
        -10.945945945945946,
        0.2702702702702703,
        -0.05405405405405406,
        0.5405405405405406,
    ],
}

PINNED_HESSIAN = {
    ("repetition3", "generic", 11): [
        [-1.2378165679811786, -0.11113529813532484, 0.5339172160725583],
        [-0.11113529813532484, -1.4446093442803405, -0.3216354548626252],
        [0.5339172160725583, -0.3216354548626252, -0.791109838197603],
    ],
    ("repetition3", "generic", 20251018): [
        [-1.2298361827903195, -0.19222897305768324, 0.5399160033447296],
        [-0.19222897305768324, -1.4486301775801917, -0.48203036780525815],
        [0.5399160033447296, -0.48203036780525815, -0.7777413358166024],
    ],
    ("perfect5", "generic", 11): [
        [-1.2378165679811786, -0.11113529813532484, 0.5339172160725583],
        [-0.11113529813532484, -1.4446093442803405, -0.3216354548626252],
        [0.5339172160725583, -0.3216354548626252, -0.791109838197603],
    ],
    ("perfect5", "generic", 20251018): [
        [-1.2298361827903195, -0.19222897305768324, 0.5399160033447296],
        [-0.19222897305768324, -1.4486301775801917, -0.48203036780525815],
        [0.5399160033447296, -0.48203036780525815, -0.7777413358166024],
    ],
    ("grid2x3", "generic", 11): [
        [-0.8306483371326088, 0.9453421935582593, 0.19876097870530587],
        [0.9453421935582593, -1.1196692942799344, -0.2310574436915905],
        [0.19876097870530587, -0.2310574436915905, -0.47950979222877543],
    ],
    ("grid2x3", "extensive", 11): [
        [0.12587340199782643, 0.5975161066017377, -0.6708042386859983],
        [0.5975161066017377, 0.010765488328762163, -0.40497048716985135],
        [-0.6708042386859983, -0.40497048716985135, 1.3465771642929636],
    ],
    ("grid2x3", "generic", 20251018): [
        [3.10558684738165, 1.893987843819408, 0.6757729256069651],
        [1.893987843819408, 0.46044965716510294, -2.0782523183830164],
        [0.6757729256069651, -2.0782523183830164, -3.8985469741191725],
    ],
    ("grid2x3", "extensive", 20251018): [
        [-0.1118044569661753, 1.8070313220802776, -0.19379229178433927],
        [1.8070313220802776, 2.286536613686842, -1.3826001444699734],
        [-0.19379229178433927, -1.3826001444699734, -2.681155669771346],
    ],
}


def pinned_case(name):
    """A system and its thermal state at a fixed, generic point."""
    if name == "grid2x3":
        system = build_heisenberg(
            "grid", rows=2, cols=3, nnn=True, lam=0.5, targets=(0.5, 0.2, -0.4)
        )
        mu, T = np.array([0.4, -0.3, 0.25]), 0.5
    else:
        system = build_stabilizer_system(
            builtin_code(name), [((1,), 0.3), ((2,), -0.2), ((3,), 0.4)]
        )
        mu, T = np.array([0.3, -0.2, 0.5]), 0.4
    return system, thermal_state(system, mu, T)


class TestPinnedOutputs:
    @pytest.mark.parametrize("name,seed", sorted(PINNED_OBSERVABLE))
    def test_estimate_observable(self, name, seed):
        system, state = pinned_case(name)
        ids = [HAMILTONIAN_OBS_ID, *range(system.n_charges)]
        got = [
            estimate_observable(state.rho, system.observable(k), 37, RngStream(seed, 3, k))
            for k in ids
        ]
        assert got == PINNED_OBSERVABLE[(name, seed)]

    @pytest.mark.parametrize("name,mode,seed", sorted(PINNED_HESSIAN))
    def test_shot_estimator_hessian(self, name, mode, seed):
        system, state = pinned_case(name)
        estimator = ShotEstimator(system, seed, hessian_samples_per_iteration=20_000, mode=mode)
        assert estimator.hessian(state, 4).tolist() == PINNED_HESSIAN[(name, mode, seed)]
