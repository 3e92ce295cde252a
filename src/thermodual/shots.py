"""Simulated quantum measurement with reproducible shot noise.

Expectations are estimated at the Pauli-term level: each term is measured as
a +-1 outcome with success probability (1 + <P>)/2, which is statistically
identical to measuring the corresponding circuit at this scale.  The number
of +1 outcomes among N shots is exactly Binomial(N, (1 + <P>)/2), so each
term costs one binomial draw, whatever N.  The term means <P> come from the
thermal state (`ThermalState.term_means`), which for conserved charges reads
them off its eigenspace blocks without a dense rho.

The Hessian estimator follows the time-averaged-conjugation form of the dual
Hessian: each Pauli pair runs interference tests at its own times drawn from
p(t) = (2/pi) ln|coth(pi t/2)|.  At a random time a test's outcome is +1
with probability (1 + wbar)/2, where wbar is the p(t)-average of the pair's
signal.  A signal is a sum of Re[w e^{-i omega t}] over eigenfrequencies
omega, and the average of cos(omega t) under p(t) is the density's
characteristic function tanh(omega/2)/(omega/2), so wbar is exact and each
pair's count of +1 outcomes is again one binomial draw.

Randomness is organized as derived streams: a 64-bit mix of
(master seed, evaluation, id) seeds each generator, so results never depend
on evaluation order.  One evaluation of the charges and the energy draws
from one generator, the charges in order and then H, one binomial call per
observable for all its terms.  A Hessian draws each upper-triangle entry's
pairs and each of its two factor estimates from a generator of its own.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import NumericalIntegrityError
from .gibbs import ThermalState
from .models import ThermoSystem
from .operators import PAULI_MATRICES, Observable

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

ESTIMATOR_MODES = ("generic", "extensive")

# id namespaces of a Hessian's entry and factor streams; an evaluation draws from id 0
HESSIAN_ENTRY_BASE = 1 << 21
HESSIAN_FACTOR_BASE = 1 << 22


def _mix64(z: int) -> int:
    """splitmix64 finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_stream_seed(master_seed: int, iteration: int, obs_id: int) -> int:
    """Pure 64-bit derivation; distinct (iteration, id) give distinct streams."""
    x = _mix64(master_seed & _MASK64)
    for value in (iteration, obs_id):
        x = _mix64((x + _GAMMA) ^ _mix64(value & _MASK64))
    return x


@dataclass(frozen=True)
class RngStream:
    """A point in the derived-stream tree; one generator hangs off each obs_id."""

    master_seed: int
    iteration: int = 0
    obs_id: int = 0

    def with_observable(self, obs_id: int) -> "RngStream":
        return replace(self, obs_id=obs_id)

    def generator(self) -> np.random.Generator:
        seed = derive_stream_seed(self.master_seed, self.iteration, self.obs_id)
        return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# heavy-peaked time density
# ---------------------------------------------------------------------------

# time cut of the quadratures; the density's mass beyond it is below 1e-15
T_CUT = 12.0


def tent_density(t) -> np.ndarray:
    """p(t) = (2/pi) ln|coth(pi t / 2)|, written stably for large |t|."""
    t = np.abs(np.asarray(t, dtype=float))
    decay = np.exp(-np.pi * t)
    with np.errstate(divide="ignore"):
        return (2.0 / np.pi) * (np.log1p(decay) - np.log1p(-decay))


def tent_characteristic(omega) -> np.ndarray:
    """phi(omega) = E[cos(omega t)] under the tent density: tanh(omega/2)/(omega/2), phi(0) = 1."""
    half = np.asarray(omega, dtype=float) / 2.0
    zero = half == 0.0
    return np.where(zero, 1.0, np.tanh(half) / np.where(zero, 1.0, half))


def _binomial_means(values: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Mean of `shots` +-1 outcomes with P(+1) = (1 + v)/2, for each v in values.

    The count of +1 outcomes is one Binomial(shots, (1 + v)/2) draw per value,
    all in one call on rng.  A value that is not finite, or exceeds 1 in
    magnitude beyond rounding, raises NumericalIntegrityError.
    """
    # written so that NaN fails it too
    if not np.abs(values).max(initial=0.0) <= 1.0 + 1e-9:
        bad = values[~(np.abs(values) <= 1.0 + 1e-9)][0]
        raise NumericalIntegrityError(f"outcome mean {bad} is not a number in [-1, 1]")
    probs = np.minimum(np.maximum((1.0 + values) / 2.0, 0.0), 1.0)
    return 2.0 * rng.binomial(shots, probs) / shots - 1.0


# ---------------------------------------------------------------------------
# shot-noise expectation estimation
# ---------------------------------------------------------------------------


def estimate_observable(
    term_means: np.ndarray, obs: Observable, shots_per_term: int, rng: np.random.Generator
) -> float:
    """Unbiased shot estimate of <obs> = sum_k c_k <P_k>, given each term's mean <P_k>."""
    if shots_per_term < 1:
        raise ValueError("need at least one shot per term")
    if len(term_means) != len(obs.terms):
        raise ValueError(f"{len(term_means)} term means for {len(obs.terms)} terms")
    return float(obs.coefficients @ _binomial_means(term_means, shots_per_term, rng))


def _observable_term_means(state: ThermalState) -> list[np.ndarray]:
    """The term means of H and then of each charge, one array per observable."""
    means = state.term_means
    return [means[part] for part in state.blocks.term_slices]


# ---------------------------------------------------------------------------
# time-averaged conjugation of a charge (exact evaluation paths)
# ---------------------------------------------------------------------------


def _check_extensive(system: ThermoSystem):
    """Single-site charges on a system whose construction verified [H, Q_i] = 0."""
    for idx, q in enumerate(system.charges):
        if any(word.weight != 1 for _, word in q.terms):
            raise ValueError(f"charge {idx} is not extensive (needs single-site terms)")
    if not system.conserved:
        raise ValueError("extensive mode needs a system built with conserved charges")


def _site_components(system: ThermoSystem):
    """Per-site single-qubit matrices of each extensive charge."""
    n = system.n_qubits
    comps = np.zeros((system.n_charges, n, 2, 2), dtype=complex)
    for i, q in enumerate(system.charges):
        for coeff, word in q.terms:
            site = next(k for k, l in enumerate(word.letters) if l != 0)
            comps[i, site] += coeff * PAULI_MATRICES[word.letters[site]]
    return comps


def _conjugated_charge(system, state, charge_index, t, mode):
    """Dense e^{-iAt/T} Q_i e^{iAt/T}, or its per-site reduction for extensive charges."""
    T = state.temperature
    if mode == "generic":
        V = state.eigenvectors
        lam = state.block_levels
        phases = np.exp(-1j * lam * t / T)
        q_eig = V.conj().T @ system.charges[charge_index].to_dense() @ V
        conj = (phases[:, None] * q_eig) * phases.conj()[None, :]
        return V @ conj @ V.conj().T
    if mode == "extensive":
        comps = _site_components(system)
        n = system.n_qubits
        acc = np.zeros((2**n, 2**n), dtype=complex)
        for site in range(n):
            local = np.tensordot(state.mu, comps[:, site], axes=(0, 0))
            vals, vecs = np.linalg.eigh(local)
            u = (vecs * np.exp(1j * vals * t / T)) @ vecs.conj().T
            rotated = u @ comps[charge_index, site] @ u.conj().T
            acc += _embed_site(rotated, site, n)
        return acc
    raise ValueError(f"unknown mode {mode!r}")


def _embed_site(local: np.ndarray, site: int, n: int) -> np.ndarray:
    mats = [np.eye(2, dtype=complex)] * n
    mats[site] = local
    return reduce(np.kron, mats)


def hessian_fourier_quadrature(
    system: ThermoSystem, state: ThermalState, mode: str = "generic"
) -> np.ndarray:
    """Deterministic quadrature of the time-averaged Hessian form.

    Entry (i,j) is -(1/T) integral of p(t) Re Tr[U_t Q_i U_t^dag Q_j rho]
    over [-T_CUT, T_CUT] plus (1/T) <Q_i><Q_j>; used to cross-check the
    spectral (logarithmic-mean) Hessian.
    """
    # imported here so that the solver path loads NumPy alone
    from scipy.integrate import quad_vec

    if mode == "extensive":
        _check_extensive(system)
    c = system.n_charges
    rho = state.rho
    charge_dense = [q.to_dense() for q in system.charges]

    def integrand(t):
        out = np.empty((c, c))
        for i in range(c):
            conj_i = _conjugated_charge(system, state, i, t, mode)
            for j in range(c):
                out[i, j] = np.real(np.einsum("ij,jk,ki->", conj_i, charge_dense[j], rho))
        return tent_density(t) * out

    integral, _ = quad_vec(
        integrand, -T_CUT, T_CUT, points=[0.0], epsabs=1e-10, epsrel=1e-10, limit=400
    )
    means = state.charge_means
    hessian = (-integral + np.outer(means, means)) / state.temperature
    return (hessian + hessian.T) / 2.0


# ---------------------------------------------------------------------------
# stochastic Hessian estimation
# ---------------------------------------------------------------------------


def _pauli_rows(obs: Observable, mat: np.ndarray) -> list[np.ndarray]:
    """P @ mat for each term's word P, from permuted, phased rows of mat."""
    cols, factors = obs.pauli_action()
    # row a of P @ mat is factors[cols[a]] * mat[cols[a]], as cols is an involution
    return [f[c][:, None] * mat[c] for c, f in zip(cols, factors)]


def _generic_pairs(system, i, j, eig_terms, kernel):
    """(coeffs, wbar) of every Pauli pair (P, P') of charges i and j, in the A eigenbasis.

    The pair's signal Re Tr[U_t P U_t^dag P' rho] is sum_ab Re[G_ab e^{-i omega_ab t}]
    with G_ab = <a|P|b><b|P'|a> p_a, so wbar = sum_ab Re[G_ab] phi(omega_ab).
    eig_terms[k] stacks V^dag P V over the terms of charge k, and kernel holds
    p_a phi(omega_ab).
    """
    coeffs = np.outer(*([c for c, _ in system.charges[k].terms] for k in (i, j)))
    a = (eig_terms[i] * kernel).reshape(len(eig_terms[i]), -1)
    b = eig_terms[j].transpose(0, 2, 1).reshape(len(eig_terms[j]), -1)
    return coeffs.ravel(), (a @ b.T).real.ravel()


def _site_block(mat: np.ndarray, site: int, n: int) -> np.ndarray:
    """The 2x2 block of mat on one site: its partial trace over every other site."""
    left, right = 2**site, 2 ** (n - site - 1)
    return np.einsum("ajbaib->ji", mat.reshape(left, 2, right, left, 2, right))


def _extensive_pairs(system, state, i, j, comps):
    """(coeffs, wbar) per (site of Q_i, term P' of Q_j) under single-site conjugation.

    In the eigenbasis of the site's generator mu.Q (eigenvalues v), element
    (m, n) of the conjugated component rotates at omega_mn = (v_m - v_n)/T, so
    wbar = sum_mn Re[a_mn c_nm] phi(omega_mn), with a the component and c the
    site block of P' rho, both in that basis.
    """
    T = state.temperature
    n = system.n_qubits
    b_rhos = _pauli_rows(system.charges[j], state.rho)
    coeffs, wbar = [], []
    for site in range(n):
        scale = float(np.linalg.norm(comps[i, site], 2))
        if scale == 0.0:
            continue
        vals, vecs = np.linalg.eigh(np.tensordot(state.mu, comps[:, site], axes=(0, 0)))
        # unit-normalize the site component so |wbar| stays at most 1
        a_eig = vecs.conj().T @ (comps[i, site] / scale) @ vecs
        weights = a_eig * tent_characteristic((vals[:, None] - vals[None, :]) / T)
        for (cb, _), b_rho in zip(system.charges[j].terms, b_rhos):
            c_eig = vecs.conj().T @ _site_block(b_rho, site, n) @ vecs
            coeffs.append(scale * cb)
            wbar.append(np.sum(weights * c_eig.T).real)
    return np.array(coeffs), np.array(wbar)


def _pair_means(system: ThermoSystem, state: ThermalState, mode: str):
    """The function (i, j) -> (coeffs, wbar) over the Pauli pairs of entry (i, j).

    What every entry shares is built once: the charge terms in the A
    eigenbasis and the kernel p_a phi(omega_ab) in generic mode, the per-site
    charge components in extensive mode.
    """
    if mode == "extensive":
        comps = _site_components(system)
        return lambda i, j: _extensive_pairs(system, state, i, j, comps)
    V = state.eigenvectors
    lam = state.block_levels
    eig_terms = [np.stack([V.conj().T @ pv for pv in _pauli_rows(q, V)]) for q in system.charges]
    omega = (lam[:, None] - lam[None, :]) / state.temperature
    kernel = state.block_populations[:, None] * tent_characteristic(omega)
    return lambda i, j: _generic_pairs(system, i, j, eig_terms, kernel)


def estimate_hessian(
    system: ThermoSystem,
    state: ThermalState,
    time_samples: int,
    shots: int,
    stream: RngStream,
    mode: str = "generic",
) -> np.ndarray:
    """Shot-level stochastic estimate of the dual Hessian.

    Each Pauli pair of an upper-triangle entry runs `time_samples`
    interference tests at its own tent-distributed times; their +1 count is
    one Binomial(time_samples, (1 + wbar)/2) draw, and the pair's mean
    outcome is scaled by its coefficients.  The mean-product term uses two
    independent `shots`-per-term estimates of <Q_i> and <Q_j>.  The matrix
    is mirrored across the diagonal, so it is exactly symmetric.
    """
    if time_samples < 1 or shots < 1:
        raise ValueError("time_samples and shots must be positive")
    if mode not in ESTIMATOR_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "extensive":
        _check_extensive(system)
    pairs = _pair_means(system, state, mode)
    charge_means = _observable_term_means(state)[1:]

    c = system.n_charges
    hessian = np.zeros((c, c))
    for i in range(c):
        for j in range(i, c):
            coeffs, wbar = pairs(i, j)
            entry_rng = stream.with_observable(HESSIAN_ENTRY_BASE + i * c + j).generator()
            first = float(coeffs @ _binomial_means(wbar, time_samples, entry_rng))
            factor = HESSIAN_FACTOR_BASE + 2 * (i * c + j)
            qi = estimate_observable(
                charge_means[i], system.charges[i], shots,
                stream.with_observable(factor).generator(),
            )
            qj = estimate_observable(
                charge_means[j], system.charges[j], shots,
                stream.with_observable(factor + 1).generator(),
            )
            value = (-first + qi * qj) / state.temperature
            hessian[i, j] = value
            hessian[j, i] = value
    return hessian


class ShotEstimator:
    """Estimator backed by simulated measurement, with per-iteration shot budgets.

    The gradient/value budget is split evenly over every Pauli term measured
    in one iteration (the Hamiltonian plus all charges); the Hessian budget
    is split half onto time samples over the pair estimates and half onto the
    mean-product factor estimates.  Extensive mode is checked against the
    system's charges when the estimator is built, before any Hessian.
    """

    def __init__(
        self,
        system: ThermoSystem,
        master_seed: int,
        shots_per_iteration: int = 10_000,
        hessian_samples_per_iteration: int = 10_000_000,
        mode: str = "generic",
    ):
        if mode not in ESTIMATOR_MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "extensive":
            _check_extensive(system)
        for name, budget in (
            ("shots_per_iteration", shots_per_iteration),
            ("hessian_samples_per_iteration", hessian_samples_per_iteration),
        ):
            if budget < 1:
                raise ValueError(f"{name} must be at least 1, got {budget}")
        self.system = system
        self.master_seed = int(master_seed)
        self.mode = mode

        term_counts = [len(q.terms) for q in system.charges]
        gradient_terms = len(system.hamiltonian.terms) + sum(term_counts)
        self.shots_per_term = max(1, round(shots_per_iteration / max(1, gradient_terms)))

        c = system.n_charges
        pair_total = sum(
            term_counts[i] * term_counts[j] for i in range(c) for j in range(i, c)
        )
        factor_total = sum(
            term_counts[i] + term_counts[j] for i in range(c) for j in range(i, c)
        )
        self.time_samples = max(
            1, round(0.5 * hessian_samples_per_iteration / max(1, pair_total))
        )
        self.factor_shots = max(
            1, round(0.5 * hessian_samples_per_iteration / max(1, factor_total))
        )
        self._pair_total = pair_total
        self._factor_total = factor_total

    def reseeded(self, master_seed: int) -> "ShotEstimator":
        """The same estimator drawing its shots from another master seed."""
        other = copy.copy(self)
        other.master_seed = int(master_seed)
        return other

    def estimate(
        self, state: ThermalState, eval_index: int, energy: bool
    ) -> tuple[np.ndarray, float | None]:
        """Shot estimates of the charges, and of H when `energy` is set, at one evaluation.

        Every draw comes from the evaluation's one generator, the charges in
        order and then H, so the charge estimates do not depend on `energy`.
        """
        rng = RngStream(self.master_seed, eval_index).generator()
        h_means, *charge_means = _observable_term_means(state)
        charges = np.array([
            estimate_observable(means, q, self.shots_per_term, rng)
            for means, q in zip(charge_means, self.system.charges)
        ])
        if not energy:
            return charges, None
        energy_estimate = estimate_observable(
            h_means, self.system.hamiltonian, self.shots_per_term, rng
        )
        return charges, energy_estimate

    def hessian(self, state: ThermalState, eval_index: int) -> np.ndarray:
        return estimate_hessian(
            self.system,
            state,
            self.time_samples,
            self.factor_shots,
            RngStream(self.master_seed, eval_index),
            mode=self.mode,
        )

    @property
    def shots_per_hessian_eval(self) -> int:
        return self.time_samples * self._pair_total + self.factor_shots * self._factor_total
