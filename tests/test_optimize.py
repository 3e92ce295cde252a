import math
from dataclasses import replace

import numpy as np
import pytest

from thermodual.gibbs import thermal_state
from thermodual.models import build_heisenberg, build_stabilizer_system, builtin_code
from thermodual.operators import expectation
from thermodual.optimize import (
    ExactEstimator,
    OptimizerConfig,
    error_metric,
    first_order_step_size,
    run,
)
from thermodual.oracle import dual_eigenvalue_solve
from thermodual.shots import ShotEstimator


def repetition_system(targets=(0.2, 0.0, 0.5)):
    code = builtin_code("repetition3")
    return build_stabilizer_system(
        code, [((1,), targets[0]), ((2,), targets[1]), ((3,), targets[2])]
    )


class TestConfig:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(variant="third_order")

    def test_delta_defaults(self):
        assert OptimizerConfig(variant="first_classical").resolved_delta() == 1e-4
        assert OptimizerConfig(variant="first_hqc").resolved_delta() == 1e-2

    def test_nesterov_defaults(self):
        assert OptimizerConfig(variant="first_classical").resolved_nesterov()
        assert not OptimizerConfig(variant="first_hqc").resolved_nesterov()
        assert not OptimizerConfig(variant="first_classical", nesterov=False).resolved_nesterov()

    def test_temperature_from_epsilon(self):
        system = build_heisenberg("line", n=3)
        cfg = OptimizerConfig(epsilon=0.1)
        assert cfg.resolved_temperature(system) == pytest.approx(0.1 / (3 * np.log(2)))

    def test_rejects_bad_values(self):
        for kwargs in (
            dict(eta=-1.0),
            dict(delta=0.0),
            dict(hessian_regularization_floor=-0.1),
            dict(temperature=-1.0),
            dict(epsilon=math.nan),
            dict(temperature=math.nan),
            dict(eta=math.nan),
            dict(delta=math.nan),
            dict(hessian_regularization_floor=math.nan),
        ):
            with pytest.raises(ValueError):
                OptimizerConfig(**kwargs)

    def test_first_order_step_size_gate(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        cfg = OptimizerConfig(variant="first_classical", epsilon=0.1, eta=1.0)
        with pytest.raises(ValueError, match="1/L"):
            run(system, cfg, ExactEstimator(system))


class TestFirstOrder:
    def test_matching_targets_converge_immediately(self):
        system = build_heisenberg("line", n=3)
        T = OptimizerConfig(epsilon=0.1).resolved_temperature(system)
        state = thermal_state(system, np.zeros(3), T)
        system = replace(system, targets=tuple(expectation(qi, state.rho) for qi in system.charges))
        cfg = OptimizerConfig(variant="first_classical", epsilon=0.1, max_iter=10)
        trace = run(system, cfg, ExactEstimator(system))
        assert trace.converged and trace.iterations == 1
        energy = expectation(system.hamiltonian, state.rho)
        assert trace.final_value == pytest.approx(energy, abs=1e-9)

    def test_converges_and_satisfies_constraints(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        cfg = OptimizerConfig(variant="first_classical", epsilon=0.3, max_iter=6000, delta=1e-5)
        trace = run(system, cfg, ExactEstimator(system))
        assert trace.converged
        T = cfg.resolved_temperature(system)
        state = thermal_state(system, trace.final_mu, T)
        for qi, target in zip(system.charges, system.targets):
            assert abs(target - expectation(qi, state.rho)) <= cfg.resolved_delta()

    def test_plain_ascent_monotone_objective(self):
        from thermodual.gibbs import objective_f

        system = repetition_system()
        cfg = OptimizerConfig(
            variant="first_classical", epsilon=0.5, max_iter=300, nesterov=False, delta=1e-6
        )
        trace = run(system, cfg, ExactEstimator(system))
        T = cfg.resolved_temperature(system)
        values = [
            objective_f(system, thermal_state(system, rec.mu, T)) for rec in trace.records
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_trace_shape_and_record_budget(self):
        system = repetition_system((0.9, 0.0, 0.0))
        cfg = OptimizerConfig(variant="first_classical", epsilon=0.5, max_iter=25, delta=1e-12)
        trace = run(system, cfg, ExactEstimator(system))
        assert not trace.converged
        assert trace.iterations <= cfg.max_iter + 1
        assert all(r.shots_used == 0 for r in trace.records)

    def test_output_tracks_reference_energy_window(self):
        # converged output sits between E - nT ln2 and E (up to solver slack)
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        E = dual_eigenvalue_solve(system, iterations=1200).value
        cfg = OptimizerConfig(variant="first_classical", epsilon=0.1, max_iter=20000)
        trace = run(system, cfg, ExactEstimator(system))
        assert trace.converged
        T = cfg.resolved_temperature(system)
        assert trace.final_value <= E + 1e-2
        assert trace.final_value >= E - 3 * T * np.log(2) - 1e-2

    def test_infeasible_targets_reported_not_raised(self):
        system = repetition_system((2.0, 0.0, 0.0))  # |<X>| <= 1 is unattainable
        cfg = OptimizerConfig(variant="first_classical", epsilon=0.5, max_iter=60)
        trace = run(system, cfg, ExactEstimator(system))
        assert not trace.converged
        assert trace.final_grad_norm > cfg.resolved_delta()

    def test_determinism_bitwise(self):
        system = repetition_system()
        cfg = OptimizerConfig(variant="first_hqc", epsilon=0.2, max_iter=40)
        traces = [
            run(
                system, cfg,
                ShotEstimator(system, 5, shots_per_iteration=500),
            )
            for _ in range(2)
        ]
        a, b = traces
        assert a.final_value == b.final_value
        assert all(
            np.array_equal(x.mu, y.mu) and x.f_estimate == y.f_estimate
            for x, y in zip(a.records, b.records)
        )


class TestSecondOrder:
    def test_warm_start_stops_at_first_check(self):
        from thermodual.encoding import warm_start_state

        code = builtin_code("repetition3")
        system = repetition_system()
        cfg = OptimizerConfig(variant="second_classical", epsilon=0.1, max_iter=30)
        T = cfg.resolved_temperature(system)
        _, warm = warm_start_state(code, [0.2, 0.0, 0.5], T)
        mu0 = warm.chemical_potentials(T, [(1,), (2,), (3,)])
        trace = run(system, cfg, ExactEstimator(system), mu0=mu0)
        assert trace.converged and trace.iterations == 1

    def test_each_accepted_step_increases_objective(self):
        from thermodual.gibbs import objective_f

        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        cfg = OptimizerConfig(variant="second_classical", epsilon=0.4, max_iter=100, delta=1e-8)
        trace = run(system, cfg, ExactEstimator(system))
        assert trace.converged
        T = cfg.resolved_temperature(system)
        values = [
            objective_f(system, thermal_state(system, r.mu, T)) for r in trace.records
        ]
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_fewer_iterations_than_first_order_on_2d_model(self):
        system = build_heisenberg(
            "grid", rows=2, cols=3, nnn=True, lam=0.5, targets=(0.5, 0.5, 0.5)
        )
        first = run(
            system,
            OptimizerConfig(variant="first_classical", epsilon=0.1, max_iter=30000),
            ExactEstimator(system),
        )
        second = run(
            system,
            OptimizerConfig(variant="second_classical", epsilon=0.1, max_iter=1000),
            ExactEstimator(system),
        )
        assert first.converged and second.converged
        assert second.iterations < first.iterations

    def test_sampled_variant_converges(self):
        # delta must sit above the shot-noise floor of the gradient estimate
        # (about 0.026 for 4000 shots per term on this system)
        system = repetition_system()
        cfg = OptimizerConfig(
            variant="second_hqc", epsilon=0.2, max_iter=40, delta=0.05,
            hessian_regularization_floor=0.1,
        )
        estimator = ShotEstimator(
            system, 3, shots_per_iteration=20_000, hessian_samples_per_iteration=500_000
        )
        trace = run(system, cfg, estimator)
        assert trace.converged

    def test_shots_used_counts_every_draw(self, monkeypatch):
        # candidate points measure only the charges, never the Hamiltonian terms
        import thermodual.shots as shots

        drawn = []
        binomial_means = shots._binomial_means

        def counted_trials(values, trials, stream):
            # one binomial draw of `trials` outcomes per Pauli term or Hessian pair
            drawn.append(len(values) * trials)
            return binomial_means(values, trials, stream)

        monkeypatch.setattr(shots, "_binomial_means", counted_trials)
        system = repetition_system()
        cfg = OptimizerConfig(variant="second_hqc", max_iter=12, delta=1e-12)
        estimator = ShotEstimator(
            system, 7, shots_per_iteration=10_000, hessian_samples_per_iteration=20_000
        )
        trace = run(system, cfg, estimator)
        # 5 terms: 2 Hamiltonian + 3 charges; the final evaluation is not recorded
        final_eval = 5 * estimator.shots_per_term
        per_iteration = final_eval + estimator.shots_per_hessian_eval
        assert max(r.shots_used for r in trace.records) > per_iteration  # candidates ran
        assert sum(r.shots_used for r in trace.records) == sum(drawn) - final_eval

    def test_variant_dispatch(self):
        system = repetition_system()
        cfg = OptimizerConfig(variant="second_classical", epsilon=0.3, max_iter=50)
        trace = run(system, cfg, ExactEstimator(system))
        assert trace.variant == "second_classical"


class TestStepRecords:
    """Step size and fallback flag of every record, which runs.csv does not carry."""

    def _records(self, system, cfg):
        trace = run(system, cfg, ExactEstimator(system))
        return [(r.step_size, r.fallback) for r in trace.records]

    def test_second_classical_fallbacks_and_backtracks(self):
        # backtracking halves eta to 1/64, and iteration 3 takes the safeguarded
        # gradient step; clean steps then double eta back to 1
        system = build_heisenberg("line", n=3, nnn=True, targets=(1.2, -0.4, 0.3))
        cfg = OptimizerConfig(variant="second_classical", epsilon=0.1)
        fallbacks = {3}
        etas = [1.0] * 5 + [2.0**-6] * 3 + [2.0**-k for k in range(5, 0, -1)] + [1.0] * 4
        assert self._records(system, cfg) == [
            (eta, m in fallbacks) for m, eta in enumerate(etas)
        ]

    def test_second_classical_remembers_the_backtracked_eta(self):
        # the capped step backtracks once, and clean steps double the kept eta back to 1
        system = build_heisenberg("line", n=5, targets=(-0.1, 1.5, 0.1))
        cfg = OptimizerConfig(variant="second_classical", epsilon=0.1)
        kept = 0.02025283334010032
        etas = [1.0] * 4 + [kept, kept] + [2.0**k * kept for k in range(1, 6)] + [1.0] * 4
        assert 32 * kept == 0.6480906668832103
        assert self._records(system, cfg) == [(eta, False) for eta in etas]

    def test_nesterov_keeps_its_fixed_step(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        cfg = OptimizerConfig(variant="first_classical", epsilon=0.3, max_iter=60)
        assert cfg.resolved_nesterov()
        eta = 0.002404491734814939
        assert first_order_step_size(system, cfg) == eta
        assert self._records(system, cfg) == [(eta, False)] * 61


class TestErrorMetric:
    def test_arithmetic(self):
        assert error_metric(-4.0, -3.9, np.array([0.03, 0.04])) == pytest.approx(0.15)

    def test_zero_at_exact_optimum(self):
        system = repetition_system()
        E = dual_eigenvalue_solve(system, iterations=500).value
        cfg = OptimizerConfig(variant="second_classical", epsilon=0.05, max_iter=100, delta=1e-10)
        trace = run(
            system, cfg, ExactEstimator(system), reference_energy=E
        )
        assert trace.converged
        assert trace.final_error_metric <= 1e-3

    def test_final_error_comes_from_a_fresh_estimate(self):
        # at 20 shots per term a run stops on estimates selected for a small gradient norm
        system = repetition_system()
        E = dual_eigenvalue_solve(system, iterations=500).value
        cfg = OptimizerConfig(variant="first_hqc", epsilon=0.1, max_iter=120)
        estimator = ShotEstimator(system, 11, shots_per_iteration=100)
        trace = run(system, cfg, estimator, reference_energy=E)
        # one evaluation per record, then the fresh one at the last point
        state = thermal_state(system, trace.final_mu, trace.temperature)
        charges, energy = estimator.estimate(state, trace.iterations, True)
        mu, q = trace.final_mu, np.asarray(system.targets, dtype=float)
        f_est = float(mu @ q + energy - mu @ charges)
        assert trace.final_value == f_est
        assert trace.final_error_metric == error_metric(E, f_est, q - charges)
        assert trace.final_error_metric != trace.records[-1].error_metric

    def test_window_means_non_increasing_after_burn_in(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        E = dual_eigenvalue_solve(system, iterations=1200).value
        cfg = OptimizerConfig(
            variant="first_classical", epsilon=0.3, max_iter=4000, nesterov=False, delta=1e-7
        )
        trace = run(
            system, cfg, ExactEstimator(system), reference_energy=E
        )
        errors = [r.error_metric for r in trace.records]
        tail = errors[len(errors) // 2 :]
        windows = [np.mean(tail[i : i + 10]) for i in range(0, len(tail) - 10, 10)]
        assert all(b <= a + 1e-12 for a, b in zip(windows, windows[1:]))
