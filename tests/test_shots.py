import numpy as np
import pytest
from scipy.integrate import quad

from thermodual.gibbs import hessian_exact, thermal_state
from thermodual.models import build_heisenberg, build_stabilizer_system, builtin_code
from thermodual.operators import Observable, expectation
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
            exact = hessian_exact(system, mu, T)
            quadrature = hessian_fourier_quadrature(system, mu, T)
            assert np.max(np.abs(quadrature - exact)) <= 1e-3

    def test_extensive_matches_generic_on_heisenberg(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        mu = np.array([0.3, -0.2, 0.1])
        T = 0.7
        generic = hessian_fourier_quadrature(system, mu, T, mode="generic")
        extensive = hessian_fourier_quadrature(system, mu, T, mode="extensive")
        assert np.max(np.abs(generic - extensive)) <= 1e-6

    def test_channel_output_hermitian(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        mu = np.array([0.2, 0.1, -0.3])
        for mode in ("generic", "extensive"):
            out = channel_on_charge(system, mu, 0.5, 0, mode=mode)
            assert np.max(np.abs(out - out.conj().T)) <= 1e-10

    def test_extensive_requires_extensive_charges(self):
        code = builtin_code("repetition3")
        system = build_stabilizer_system(code, [((1,), 0.0)])
        with pytest.raises(ValueError, match="extensive"):
            hessian_fourier_quadrature(system, np.zeros(1), 0.5, mode="extensive")


class TestHessianEstimate:
    def test_unbiased_against_exact(self):
        system = repetition_system()
        mu = np.array([0.3, -0.1, 0.2])
        T = 0.5
        exact = hessian_exact(system, mu, T)
        estimates = np.array([
            estimate_hessian(system, mu, T, 400, 400, RngStream(12345, iteration=k))
            for k in range(50)
        ])
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        assert np.all(np.abs(mean - exact) <= 4 * se + 1e-12)

    def test_extensive_mode_unbiased(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        mu = np.array([0.2, 0.0, -0.1])
        T = 0.8
        exact = hessian_exact(system, mu, T)
        estimates = np.array([
            estimate_hessian(
                system, mu, T, 500, 500, RngStream(7, iteration=k), mode="extensive"
            )
            for k in range(30)
        ])
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        assert np.all(np.abs(mean - exact) <= 4 * se + 1e-12)

    def test_exactly_symmetric(self):
        system = repetition_system()
        est = estimate_hessian(system, np.zeros(3), 0.5, 50, 50, RngStream(3))
        assert np.array_equal(est, est.T)

    def test_deterministic_given_stream(self):
        system = repetition_system()
        a = estimate_hessian(system, np.zeros(3), 0.5, 100, 100, RngStream(42, iteration=9))
        b = estimate_hessian(system, np.zeros(3), 0.5, 100, 100, RngStream(42, iteration=9))
        assert np.array_equal(a, b)
        c = estimate_hessian(system, np.zeros(3), 0.5, 100, 100, RngStream(42, iteration=10))
        assert not np.array_equal(a, c)


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
