"""One dual-ascent driver, `run`, for all four solver variants.

Each iteration estimates the charge expectations and the energy at the
current point, records them, and stops once the gradient-estimate norm falls
below delta; otherwise the variant's step rule picks the next point.  First
order ascends along the gradient with a fixed step (optionally with Nesterov
acceleration); second order solves the Newton system against the
(estimated) Hessian, with gradient-norm backtracking on the step size and,
for the sampled variant, a shift that forces the Hessian estimate negative
semi-definite.  The returned value is mu.q + H_est - sum_i mu_i Q_est_i,
evaluated with fresh estimates at the final point, and so is the final
error metric: the estimate that stopped the run is selected for a small
gradient norm, so its own error would be biased low.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .gibbs import (
    ThermalState,
    hessian_exact,
    objective_f,
    smoothness_L,
    thermal_state,
)
from .models import ThermoSystem

VARIANTS = ("first_classical", "second_classical", "first_hqc", "second_hqc")

# step sizes a second-order iteration tries when backtracking, and again in the fallback
MAX_BACKTRACKS = 30
# factor each second-order backtrack shrinks the step size by
BACKTRACK_FACTOR = 0.5
# largest move in mu-space of one second-order step
STEP_CAP = 1.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Solver settings; unset eta/delta/nesterov resolve to variant defaults."""

    variant: str = "first_classical"
    epsilon: float = 0.1
    eta: float | None = None
    delta: float | None = None
    max_iter: int = 1000
    nesterov: bool | None = None
    hessian_regularization_floor: float = 0.0
    temperature: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        # each check is written so that NaN fails it too
        if not self.epsilon > 0 and self.temperature is None:
            raise ValueError("epsilon must be positive")
        if self.temperature is not None and not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.eta is not None and not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.delta is not None and not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not self.hessian_regularization_floor >= 0:
            raise ValueError("hessian_regularization_floor must be >= 0")

    @property
    def is_second_order(self) -> bool:
        return self.variant in ("second_classical", "second_hqc")

    @property
    def is_sampled(self) -> bool:
        return self.variant in ("first_hqc", "second_hqc")

    def resolved_delta(self) -> float:
        if self.delta is not None:
            return self.delta
        return 1e-2 if self.is_sampled else 1e-4

    def resolved_nesterov(self) -> bool:
        if self.nesterov is not None:
            return self.nesterov
        return self.variant == "first_classical"

    def resolved_temperature(self, system: ThermoSystem) -> float:
        if self.temperature is not None:
            return self.temperature
        return self.epsilon / (system.n_qubits * math.log(2.0))


class Estimator(Protocol):
    """Expectation source: exact traces or simulated measurement."""

    def estimate(
        self, state: ThermalState, eval_index: int, energy: bool
    ) -> tuple[np.ndarray, float | None]:
        """The charge estimates, and the energy estimate when `energy` is set (else None)."""
        ...

    def hessian(self, state: ThermalState, eval_index: int) -> np.ndarray: ...

    shots_per_term: int  # shots drawn per measured Pauli term; 0 when exact

    @property
    def shots_per_hessian_eval(self) -> int: ...


class ExactEstimator:
    """Noiseless estimator reading the exact means of the thermal state."""

    shots_per_term = 0

    def __init__(self, system: ThermoSystem):
        self.system = system

    def estimate(
        self, state: ThermalState, eval_index: int, energy: bool
    ) -> tuple[np.ndarray, float | None]:
        # a fresh contiguous copy: `mu @ charges` on the strided view of the means
        # rounds differently and moves exact runs in their last digit
        return np.array(state.charge_means), (state.energy if energy else None)

    def hessian(self, state: ThermalState, eval_index: int) -> np.ndarray:
        return hessian_exact(self.system, state)

    @property
    def shots_per_hessian_eval(self) -> int:
        return 0


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    mu: np.ndarray
    f_estimate: float
    grad_norm: float
    error_metric: float | None
    step_size: float
    shots_used: int
    fallback: bool = False


@dataclass
class Trace:
    """Per-iteration optimizer records plus the final output value."""

    variant: str
    temperature: float
    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False
    final_mu: np.ndarray | None = None
    final_value: float | None = None
    final_error_metric: float | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_grad_norm(self) -> float:
        return self.records[-1].grad_norm


def error_metric(E_ref: float, f_estimate: float, grad_estimate) -> float:
    """|E_ref - f_estimate| + ||grad_estimate||_2."""
    return abs(E_ref - f_estimate) + float(np.linalg.norm(grad_estimate))


class _Evaluator:
    """Counts estimator calls so derived shot streams never collide, and the shots they draw."""

    def __init__(self, system, estimator, T, reference_energy):
        self.system = system
        self.q = np.asarray(system.targets, dtype=float)
        self.estimator = estimator
        self.T = T
        self.reference_energy = reference_energy
        self.eval_index = 0
        self._shots = 0  # drawn since the last drain_shots()
        self._charge_shots = estimator.shots_per_term * sum(len(q.terms) for q in system.charges)
        self._energy_shots = estimator.shots_per_term * len(system.hamiltonian.terms)

    def state(self, mu) -> ThermalState:
        return thermal_state(self.system, mu, self.T)

    def _estimate(self, state, energy: bool) -> tuple[np.ndarray, float | None]:
        """The estimator's charges (and energy) under a fresh evaluation index."""
        idx = self.eval_index
        self.eval_index += 1
        self._shots += self._charge_shots + (self._energy_shots if energy else 0)
        return self.estimator.estimate(state, idx, energy)

    def gradient_only(self, state) -> np.ndarray:
        return self.q - self._estimate(state, False)[0]

    def full(self, state):
        """The gradient and output-value estimates, and the error metric when a reference is set."""
        charges, h_val = self._estimate(state, True)
        grad = self.q - charges
        mu = state.mu
        f_est = float(mu @ self.q + h_val - mu @ charges)
        err = (
            error_metric(self.reference_energy, f_est, grad)
            if self.reference_energy is not None
            else None
        )
        return grad, f_est, err

    def hessian(self, state) -> np.ndarray:
        idx = self.eval_index
        self.eval_index += 1
        self._shots += self.estimator.shots_per_hessian_eval
        return self.estimator.hessian(state, idx)

    def drain_shots(self) -> int:
        """Shots drawn since the previous call."""
        used, self._shots = self._shots, 0
        return used


def first_order_step_size(system: ThermoSystem, config: OptimizerConfig) -> float:
    """The step size of a first-order run: eta, or 0.9/L when unset.

    first_classical needs eta < 1/L for its convergence guarantee and raises
    ValueError otherwise; the sampled variant takes any positive eta.
    """
    L = smoothness_L(system, config.resolved_temperature(system))
    eta = config.eta if config.eta is not None else 0.9 / L
    if config.variant == "first_classical" and eta >= 1.0 / L:
        raise ValueError(f"step size {eta} is not below 1/L = {1.0 / L}")
    return eta


class _GradientStep:
    """Ascent along the gradient with a fixed step size, plain or Nesterov-accelerated.

    Under Nesterov the evaluated point is the look-ahead; the iterate itself
    and the momentum are kept here.
    """

    def __init__(self, system: ThermoSystem, config: OptimizerConfig, mu0: np.ndarray):
        self.eta = first_order_step_size(system, config)
        self.nesterov = config.resolved_nesterov()
        self.mu = mu0
        self.momentum = 1.0

    def __call__(self, point, state, grad, grad_norm):
        new_mu = point + self.eta * grad
        if not self.nesterov:
            return new_mu, self.eta, False
        momentum_next = (1.0 + math.sqrt(1.0 + 4.0 * self.momentum**2)) / 2.0
        lookahead = new_mu + ((self.momentum - 1.0) / momentum_next) * (new_mu - self.mu)
        self.mu = new_mu
        self.momentum = momentum_next
        return lookahead, self.eta, False


def _regularize(hess: np.ndarray, floor: float) -> np.ndarray:
    """Shift by a scaled identity so the estimate is negative semi-definite."""
    lam_max = float(np.linalg.eigvalsh(hess)[-1])
    zeta = max(0.0, lam_max + floor)
    if zeta > 0.0:
        hess = hess - zeta * np.eye(hess.shape[0])
    return hess


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray | None:
    """The solution of hess . step = grad, or None unless -step ascends."""
    try:
        step = np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        return None
    # singular/garbage solve, or -step is not an ascent direction
    if not np.all(np.isfinite(step)) or float(step @ grad) >= 0.0:
        return None
    return step


class _NewtonStep:
    """Newton-style ascent: solve Hessian . step = gradient, update mu -= eta step.

    If the gradient norm at the candidate exceeds the one at the current
    iterate, eta is shrunk by BACKTRACK_FACTOR and the candidate recomputed;
    after two consecutive clean steps eta grows back toward its initial
    value.  The sampled variant first shifts the Hessian estimate negative
    semi-definite.

    Two safeguards handle the near-linear regions the dual develops at low
    temperature, where the curvature collapses and raw Newton steps blow up:
    the move per iteration is capped at STEP_CAP in mu-space, and when the
    solve fails or backtracking runs out the iteration takes an adaptive
    safeguarded gradient step instead (recorded with the fallback flag).  The
    exact variant additionally refuses candidates that lower the objective
    itself, which is free to evaluate classically.
    """

    def __init__(self, system: ThermoSystem, config: OptimizerConfig, ev: _Evaluator):
        self.ev = ev
        self.eta_init = config.eta if config.eta is not None else 1.0
        self.eta = self.eta_init
        self.clean_steps = 0
        self.base_step = 0.9 / smoothness_L(system, ev.T)
        self.rescue_step = self.base_step
        self.exact_objective = config.variant == "second_classical"
        self.regularize = config.variant == "second_hqc"
        self.floor = config.hessian_regularization_floor

    def __call__(self, mu, state, grad, grad_norm):
        hess = self.ev.hessian(state)
        if self.regularize:
            hess = _regularize(hess, self.floor)
        f_here = objective_f(self.ev.system, state) if self.exact_objective else None
        step = _newton_direction(hess, grad)
        accepted = None if step is None else self._backtrack(mu, step, grad_norm, f_here)
        fallback = accepted is None
        if fallback:
            self.clean_steps = 0
            accepted = self._rescue(mu, grad, grad_norm, f_here)
        return accepted, self.eta, fallback

    def _backtrack(self, mu, step, grad_norm, f_here):
        """The capped Newton candidate after backtracking, or None when none passes."""
        ev = self.ev
        step_norm = float(np.linalg.norm(step))
        trial = min(self.eta, STEP_CAP / step_norm) if step_norm > 0 else self.eta
        for backtracks in range(MAX_BACKTRACKS):
            candidate = mu - trial * step
            cand_state = ev.state(candidate)
            cand_grad = ev.gradient_only(cand_state)
            ok = float(np.linalg.norm(cand_grad)) < grad_norm
            if ok and self.exact_objective:
                ok = objective_f(ev.system, cand_state) >= f_here - 1e-12 * max(1.0, abs(f_here))
            if ok:
                break
            trial *= BACKTRACK_FACTOR
        else:
            return None
        if backtracks == 0:
            self.clean_steps += 1
            if self.clean_steps >= 2:
                self.eta = min(self.eta / BACKTRACK_FACTOR, self.eta_init)
        else:
            self.clean_steps = 0
            # remember the scale that worked, but keep it recoverable
            self.eta = max(trial, BACKTRACK_FACTOR**6 * self.eta_init)
        return candidate

    def _rescue(self, mu, grad, grad_norm, f_here):
        """Safeguarded gradient ascent with a persistent adaptive step."""
        ev = self.ev
        for _ in range(MAX_BACKTRACKS):
            candidate = mu + self.rescue_step * grad
            cand_state = ev.state(candidate)
            cand_grad = ev.gradient_only(cand_state)
            if self.exact_objective:
                ok = objective_f(ev.system, cand_state) > f_here
            else:
                ok = float(np.linalg.norm(cand_grad)) < grad_norm
            if ok:
                self.rescue_step *= 2.0
                return candidate
            self.rescue_step = max(self.rescue_step / 2.0, 1e-6 * self.base_step)
        # no vetted move found; take the conservative smooth-ascent step
        return mu + self.base_step * grad


def run(
    system: ThermoSystem,
    config: OptimizerConfig,
    estimator: Estimator,
    mu0=None,
    reference_energy: float | None = None,
) -> Trace:
    """Maximize the dual over mu toward the system's targets with the variant's step rule.

    Each iteration estimates the charges and the energy at the current
    point and records them; the run stops once the gradient-estimate norm
    is at most delta, or after max_iter updates.  Otherwise the step rule,
    gradient for first order and Newton for second order, picks the next
    point.  Infeasible targets are not detected here and simply show up as
    a gradient norm that never crosses the threshold.  The output value
    and the final error metric come from a fresh estimate at the last point.
    """
    T = config.resolved_temperature(system)
    delta = config.resolved_delta()
    ev = _Evaluator(system, estimator, T, reference_energy)
    trace = Trace(config.variant, T)

    point = np.zeros(system.n_charges) if mu0 is None else np.asarray(mu0, dtype=float).copy()
    if config.is_second_order:
        step = _NewtonStep(system, config, ev)
    else:
        step = _GradientStep(system, config, point)

    for m in range(config.max_iter + 1):
        state = ev.state(point)
        grad, f_est, err = ev.full(state)
        grad_norm = float(np.linalg.norm(grad))
        trace.converged = grad_norm <= delta
        if trace.converged or m == config.max_iter:
            next_point, eta, fallback = None, step.eta, False
        else:
            next_point, eta, fallback = step(point, state, grad, grad_norm)
        trace.records.append(
            TraceRecord(m, point.copy(), f_est, grad_norm, err, eta, ev.drain_shots(), fallback)
        )
        if next_point is None:
            break
        point = next_point

    _, trace.final_value, trace.final_error_metric = ev.full(ev.state(point))
    trace.final_mu = point.copy()
    return trace
