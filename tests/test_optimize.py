import math
from dataclasses import replace

import numpy as np
import pytest

from thermodual.errors import NumericalIntegrityError
from thermodual.gibbs import hessian_exact, thermal_state
from thermodual.models import build_heisenberg, build_stabilizer_system, builtin_code
from thermodual.operators import expectation
from thermodual.optimize import (
    ExactEstimator,
    OptimizerConfig,
    error_metric,
    first_order_step_size,
    run,
    run_stack,
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
            # one binomial draw of `trials` outcomes per Pauli term or Hessian pair; a Hessian
            # passes one count per value
            drawn.append(int(np.sum(np.broadcast_to(trials, np.shape(values)))))
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

    @pytest.mark.parametrize(
        "geometry", [dict(geometry="line", n=6, nnn=True), dict(geometry="grid", rows=2, cols=3, nnn=True)]
    )
    def test_first_step_from_a_singlet_points_along_the_targets(self, geometry):
        # at mu = 0 the Hessian of an SU(2) system is exactly isotropic, however small,
        # so the Newton step is the gradient q scaled, not a direction set by rounding
        q = np.array([0.3, -0.5, 0.4])
        system = build_heisenberg(**geometry, targets=tuple(q))
        cfg = OptimizerConfig(variant="second_classical", max_iter=1)
        hess = hessian_exact(system, thermal_state(system, np.zeros(3), cfg.resolved_temperature(system)))
        assert np.array_equal(hess, hess[0, 0] * np.eye(3)) and hess[0, 0] < 0.0
        first = run(system, cfg, ExactEstimator(system)).final_mu
        cosine = float(first @ q) / (np.linalg.norm(first) * np.linalg.norm(q))
        assert cosine >= 1.0 - 1e-12

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

    # These second_classical paths cross a kink of the dual, where a rounding
    # change moves them: there the Hessian's eigenvalue along mu is rounding,
    # and its sign decides whether the Newton step ascends.  Line 5 at
    # (-0.1, 1.5, 0.1) takes other steps on the dense path than in the
    # rotated frame.  So the line 5 pin at those targets runs on the dense
    # path, the oracle, and the rotated frame of SU(2) systems has pins of
    # its own at targets whose steps the dense path shares up to rounding.

    def test_second_classical_remembers_the_backtracked_eta(self):
        # the capped step backtracks once, and clean steps double the kept eta back to 1
        system = build_heisenberg("line", n=5, targets=(-0.1, 1.5, 0.1))
        system = replace(system, conserved=False, su2_symmetric=False)
        cfg = OptimizerConfig(variant="second_classical", epsilon=0.1)
        kept = 0.02025283334009515
        etas = [1.0] * 4 + [kept, kept] + [2.0**k * kept for k in range(1, 6)] + [1.0] * 4
        assert 32 * kept == 0.6480906668830448
        assert self._records(system, cfg) == [(eta, False) for eta in etas]

    def test_second_classical_fallbacks_in_the_rotated_frame(self):
        # iteration 2 takes the safeguarded gradient step, later backtracking
        # halves eta to 1/8, and clean steps then double it back to 1
        system = build_heisenberg("line", n=3, nnn=True, targets=(1.3, 0.9, -1.5))
        cfg = OptimizerConfig(variant="second_classical", epsilon=0.1)
        fallbacks = {2}
        etas = [1.0] * 5 + [2.0**-3] * 2 + [2.0**-2, 2.0**-1] + [1.0] * 4
        assert self._records(system, cfg) == [
            (eta, m in fallbacks) for m, eta in enumerate(etas)
        ]

    def test_second_classical_backtracked_eta_in_the_rotated_frame(self):
        system = build_heisenberg("line", n=5, targets=(1.2, -0.8, 0.4))
        cfg = OptimizerConfig(variant="second_classical", epsilon=0.1)
        kept = 0.016398512779305558
        etas = [1.0] * 4 + [kept, kept] + [2.0**k * kept for k in range(1, 6)] + [1.0] * 4
        assert 32 * kept == 0.5247524089377779
        assert self._records(system, cfg) == [(eta, False) for eta in etas]

    def test_nesterov_keeps_its_fixed_step(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        cfg = OptimizerConfig(variant="first_classical", epsilon=0.3, max_iter=60)
        assert cfg.resolved_nesterov()
        # 0.9/L with L = n^2/T and T = 0.3/(3 ln 2)
        eta = 0.014426950408889637
        assert eta == pytest.approx(0.9 * 0.3 / (3 * math.log(2)) / 9, rel=1e-15)
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
        (charges,), (energy,) = estimator.estimate_rows((state,), [0], trace.iterations, True)
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


def _axis_code(name):
    return build_stabilizer_system(builtin_code(name), [((1,), 0.2), ((2,), -0.1), ((3,), 0.3)])


def _all_words_code():
    words = [(a, b) for a in range(4) for b in range(4) if a or b]
    return build_stabilizer_system(builtin_code("detect422"), [(w, 0.03 * (k % 5) - 0.06) for k, w in enumerate(words)])


LOCKSTEP_SYSTEMS = {
    "repetition3": lambda: _axis_code("repetition3"),
    "perfect5": lambda: _axis_code("perfect5"),
    "detect422-axes": lambda: build_stabilizer_system(
        builtin_code("detect422"),
        [((a, 0), t) for a, t in zip((1, 2, 3), (0.2, 0.0, 0.3))] + [((0, a), t) for a, t in zip((1, 2, 3), (0.1, 0.25, -0.2))],
    ),
    "detect422-all-words": _all_words_code,
    "line6": lambda: build_heisenberg("line", n=6, nnn=True, targets=(0.5, -0.3, 0.6)),
    "grid2x3": lambda: build_heisenberg("grid", rows=2, cols=3, nnn=True, targets=(0.3, 0.2, -0.4)),
}


def _same_trace(a, b):
    """Every record field and every final field, bit for bit."""
    assert a.iterations == b.iterations and a.converged == b.converged
    for x, y in zip(a.records, b.records):
        assert x.iteration == y.iteration and np.array_equal(x.mu, y.mu)
        assert (x.f_estimate, x.grad_norm, x.error_metric, x.step_size, x.shots_used, x.fallback) == (
            y.f_estimate, y.grad_norm, y.error_metric, y.step_size, y.shots_used, y.fallback
        )
    assert np.array_equal(a.final_mu, b.final_mu)
    assert (a.final_value, a.final_error_metric) == (b.final_value, b.final_error_metric)


class TestLockstep:
    """R repetitions stepped as one stack against each run alone."""

    SEEDS = [101, 2**64 - 3, 7]

    @pytest.mark.parametrize("variant", ["first_hqc", "first_classical"])
    @pytest.mark.parametrize("name", list(LOCKSTEP_SYSTEMS))
    def test_stack_matches_lone_runs(self, name, variant):
        system = LOCKSTEP_SYSTEMS[name]()
        cfg = OptimizerConfig(variant=variant, max_iter=25, delta=1e-12)
        assert cfg.resolved_nesterov() == (variant == "first_classical")
        if variant == "first_hqc":
            estimator = ShotEstimator(system, self.SEEDS, shots_per_iteration=3000)
            lone = [estimator.reseeded(seed) for seed in self.SEEDS]
        else:
            estimator = ExactEstimator(system, rows=len(self.SEEDS))
            lone = [ExactEstimator(system)] * len(self.SEEDS)
        stack = run_stack(system, cfg, estimator, reference_energy=-1.5)
        assert len(stack) == len(self.SEEDS)
        for trace, alone in zip(stack, lone):
            _same_trace(trace, run(system, cfg, alone, reference_energy=-1.5))
        if variant == "first_hqc":
            assert len({trace.final_value for trace in stack}) == len(self.SEEDS)

    def test_staggered_stops(self):
        # a reachable delta stops the rows at different iterations
        system = _axis_code("repetition3")
        cfg = OptimizerConfig(variant="first_hqc", epsilon=0.2, max_iter=300, delta=0.03)
        seeds = list(range(11, 17))
        stack = run_stack(system, cfg, ShotEstimator(system, seeds, shots_per_iteration=4000), reference_energy=-1.0)
        assert len({trace.iterations for trace in stack}) >= 3
        assert all(trace.converged for trace in stack)
        for seed, trace in zip(seeds, stack):
            _same_trace(trace, run(system, cfg, ShotEstimator(system, seed, shots_per_iteration=4000), reference_energy=-1.0))

    def test_second_order_takes_one_row(self):
        system = _axis_code("repetition3")
        with pytest.raises(ValueError, match="one row at a time"):
            run_stack(system, OptimizerConfig(variant="second_hqc"), ShotEstimator(system, [1, 2]))

    def test_a_bad_mean_in_one_row_is_refused(self, monkeypatch):
        import thermodual.shots as shots

        system = _axis_code("perfect5")
        estimator = ShotEstimator(system, [1, 2, 3])
        states = [thermal_state(system, np.full(3, 0.1 * k), 0.2) for k in range(3)]
        stacked = shots.stacked_term_means

        def one_bad_row(rows):
            means = stacked(rows)
            means[1, -1] = np.nan
            return means

        monkeypatch.setattr(shots, "stacked_term_means", one_bad_row)
        with pytest.raises(NumericalIntegrityError, match="outcome mean nan"):
            estimator.estimate_rows(states, [0, 1, 2], 4, True)
