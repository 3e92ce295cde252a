"""Simulated quantum measurement with reproducible shot noise.

Expectations are estimated at the Pauli-term level: each term is measured as
a +-1 Bernoulli variable with success probability (1 + <P>)/2, which is
statistically identical to measuring the corresponding circuit at this scale.
The Hessian estimator follows the time-averaged-conjugation form of the dual
Hessian: times are drawn from the heavy-peaked density
p(t) = (2/pi) ln|coth(pi t/2)| through a tabulated inverse CDF, and each
(time, Pauli pair) contributes one simulated interference-test outcome.

Randomness is organized as derived streams: a 64-bit mix of
(master seed, iteration, observable-or-entry id, block) seeds an independent
generator per logical measurement block, making results independent of
evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np
from scipy.integrate import quad_vec
from scipy.special import spence

from .errors import NumericalIntegrityError
# thermal_state is not called here; benchmarks/tracer.py hooks this module's name for it
from .gibbs import ThermalState, charge_expectations, thermal_state  # noqa: F401
from .models import HAMILTONIAN_OBS_ID, ThermoSystem
from .operators import PAULI_MATRICES, Observable

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

ESTIMATOR_MODES = ("generic", "extensive")

# observable-id namespaces for stream derivation, above HAMILTONIAN_OBS_ID
HESSIAN_ENTRY_BASE = 1 << 21
HESSIAN_FACTOR_BASE = 1 << 22


def _mix64(z: int) -> int:
    """splitmix64 finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_stream_seed(master_seed: int, iteration: int, obs_id: int, block: int) -> int:
    """Pure 64-bit derivation; distinct (iteration, id, block) give distinct streams."""
    x = _mix64(master_seed & _MASK64)
    for value in (iteration, obs_id, block):
        x = _mix64((x + _GAMMA) ^ _mix64(value & _MASK64))
    return x


@dataclass(frozen=True)
class RngStream:
    """A point in the derived-stream tree; generators hang off (obs_id, block)."""

    master_seed: int
    iteration: int = 0
    obs_id: int = 0

    def with_observable(self, obs_id: int) -> "RngStream":
        return replace(self, obs_id=obs_id)

    def generator(self, block: int = 0) -> np.random.Generator:
        seed = derive_stream_seed(self.master_seed, self.iteration, self.obs_id, block)
        return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# heavy-peaked time density and its sampler
# ---------------------------------------------------------------------------

# time cut of the sampler table and the quadratures; the density's mass beyond it is below 1e-15
T_CUT = 12.0


def tent_density(t) -> np.ndarray:
    """p(t) = (2/pi) ln|coth(pi t / 2)|, written stably for large |t|."""
    t = np.abs(np.asarray(t, dtype=float))
    decay = np.exp(-np.pi * t)
    with np.errstate(divide="ignore"):
        return (2.0 / np.pi) * (np.log1p(decay) - np.log1p(-decay))


def _dilog(x):
    return spence(1.0 - np.asarray(x, dtype=float))


def tent_cdf(t) -> np.ndarray:
    """Exact CDF of the tent density, in dilogarithm closed form."""
    t = np.asarray(t, dtype=float)
    x = np.exp(-np.pi * np.abs(t))
    upper = 1.0 + (2.0 / np.pi**2) * (_dilog(-x) - _dilog(x))
    return np.where(t >= 0, upper, 1.0 - upper)


class TentSampler:
    """Inverse-CDF sampler for the tent density on [-t_cut, t_cut].

    The table holds the exact CDF on a uniform grid plus a denser sub-grid
    across the log singularity at 0; draws interpolate the tabulated quantile
    linearly.
    """

    def __init__(
        self,
        t_cut: float = T_CUT,
        base_knots: int = 1 << 16,
        refine_knots: int = 1 << 12,
        refine_halfwidth: float = 1e-2,
    ):
        base = np.linspace(-t_cut, t_cut, base_knots)
        refine = np.linspace(-refine_halfwidth, refine_halfwidth, refine_knots)
        knots = np.unique(np.concatenate([base, refine]))
        cdf = tent_cdf(knots)
        if cdf[0] > 1e-10 or 1.0 - cdf[-1] > 1e-10:
            raise NumericalIntegrityError("tent CDF table endpoints drifted from {0,1}")
        self.t_cut = t_cut
        self.knots = knots
        self.cdf = cdf

    def table_cdf(self, t) -> np.ndarray:
        return np.interp(t, self.knots, self.cdf)

    def sample(self, generator: np.random.Generator, size: int | None = None):
        u = generator.random(size)
        return np.interp(u, self.cdf, self.knots)


@lru_cache(maxsize=1)
def default_tent_sampler() -> TentSampler:
    return TentSampler()


def sample_tent(sampler: TentSampler, generator: np.random.Generator) -> float:
    """One draw from the tabulated inverse CDF."""
    return float(sampler.sample(generator))


# ---------------------------------------------------------------------------
# shot-noise expectation estimation
# ---------------------------------------------------------------------------


def estimate_observable(
    rho: np.ndarray, obs: Observable, shots_per_term: int, stream: RngStream
) -> float:
    """Unbiased shot estimate of Tr[obs rho], term by term."""
    if shots_per_term < 1:
        raise ValueError("need at least one shot per term")
    cols, factors = obs.pauli_action()
    # Tr[P rho] = sum_j factors[j] rho[j, cols[j]], every term in one gather
    means = np.sum(factors * rho[np.arange(obs.dimension), cols], axis=1).real.tolist()
    total = 0.0
    for block, ((coeff, word), mean) in enumerate(zip(obs.terms, means)):
        if abs(mean) > 1.0 + 1e-9:
            raise NumericalIntegrityError(f"|<{word}>| = {abs(mean)} exceeds 1")
        prob = min(1.0, max(0.0, (1.0 + mean) / 2.0))
        draws = stream.generator(block).random(shots_per_term)
        outcomes = np.where(draws < prob, 1.0, -1.0)
        total += coeff * float(outcomes.mean())
    return total


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
        V = state.spectrum.eigenvectors
        lam = state.spectrum.eigenvalues
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


def channel_on_charge(
    system: ThermoSystem, state: ThermalState, charge_index: int, mode: str = "generic"
) -> np.ndarray:
    """Quadrature evaluation of the p(t)-averaged conjugation applied to one charge."""
    if mode == "extensive":
        _check_extensive(system)

    def integrand(t):
        return tent_density(t) * _conjugated_charge(system, state, charge_index, t, mode)

    result, _ = quad_vec(
        integrand, -T_CUT, T_CUT, points=[0.0], epsabs=1e-11, epsrel=1e-11, limit=400
    )
    return result


def hessian_fourier_quadrature(
    system: ThermoSystem, state: ThermalState, mode: str = "generic"
) -> np.ndarray:
    """Deterministic quadrature of the time-averaged Hessian form.

    Entry (i,j) is -(1/T) integral of p(t) Re Tr[U_t Q_i U_t^dag Q_j rho]
    over [-T_CUT, T_CUT] plus (1/T) <Q_i><Q_j>; used to cross-check the
    spectral (logarithmic-mean) Hessian.
    """
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
    means = charge_expectations(system, state)
    hessian = (-integral + np.outer(means, means)) / state.temperature
    return (hessian + hessian.T) / 2.0


# ---------------------------------------------------------------------------
# stochastic Hessian estimation
# ---------------------------------------------------------------------------


# a pair's smallest weights are dropped while their magnitudes sum to at most
# this, so no signal value moves by more than PRUNE_TOL
PRUNE_TOL = 1e-12
# time-by-frequency grid cells evaluated at once (2 MB per float64 array)
_GRID_CHUNK = 1 << 18


def _interference_samples(w, generator):
    """One +-1 outcome per time sample with P(+1) = (1 + w)/2."""
    if np.max(np.abs(w)) > 1.0 + 1e-9:
        raise NumericalIntegrityError(f"interference value {np.max(np.abs(w))} exceeds 1")
    prob = np.clip((1.0 + w) / 2.0, 0.0, 1.0)
    return np.where(generator.random(len(w)) < prob, 1.0, -1.0)


def _pauli_rows(obs: Observable, mat: np.ndarray) -> list[np.ndarray]:
    """P @ mat for each term's word P, from permuted, phased rows of mat."""
    cols, factors = obs.pauli_action()
    # row a of P @ mat is factors[cols[a]] * mat[cols[a]], as cols is an involution
    return [f[c][:, None] * mat[c] for c, f in zip(cols, factors)]


def _eigen_frequencies(state: ThermalState):
    """Unique frequencies (lam_a - lam_b)/T and the index of each (a, b) among them."""
    lam = state.spectrum.eigenvalues
    omega = (lam[:, None] - lam[None, :]) / state.temperature
    return np.unique(np.round(omega.ravel(), 12), return_inverse=True)


def _generic_pairs(system, state, i, j, eig_terms, freqs, inverse):
    """(coeff, freqs, weights) per Pauli pair of charges i and j, in the A eigenbasis.

    Re Tr[U_t A U_t^dag B rho] collapses to cosine/sine weights on the unique
    frequencies; eig_terms[k] holds V^dag P V for each term of charge k.
    """
    p = state.populations
    b_rho_t = [(wb * p[None, :]).T for wb in eig_terms[j]]
    pairs = []
    for (ca, _), wa in zip(system.charges[i].terms, eig_terms[i]):
        for (cb, _), wb_rho_t in zip(system.charges[j].terms, b_rho_t):
            G = (wa * wb_rho_t).ravel()
            weights = np.bincount(inverse, G.real, len(freqs)) + 1j * np.bincount(
                inverse, G.imag, len(freqs)
            )
            pairs.append((ca * cb, freqs, weights))
    return pairs


def _site_block(mat: np.ndarray, site: int, n: int) -> np.ndarray:
    """The 2x2 block of mat on one site: its partial trace over every other site."""
    left, right = 2**site, 2 ** (n - site - 1)
    return np.einsum("ajbaib->ji", mat.reshape(left, 2, right, left, 2, right))


def _extensive_pairs(system, state, i, j, comps):
    """Per (site of Q_i, term of Q_j) signals under single-site conjugation."""
    mu = state.mu
    T = state.temperature
    n = system.n_qubits
    b_rhos = _pauli_rows(system.charges[j], state.rho)
    pairs = []
    for site in range(n):
        scale = float(np.linalg.norm(comps[i, site], 2))
        if scale == 0.0:
            continue
        local = np.tensordot(mu, comps[:, site], axes=(0, 0))
        vals, vecs = np.linalg.eigh(local)
        # unit-normalize the site component so the interference value stays in [-1, 1]
        a_eig = vecs.conj().T @ (comps[i, site] / scale) @ vecs
        for (cb, _), b_rho in zip(system.charges[j].terms, b_rhos):
            block = _site_block(b_rho, site, n)
            base = np.array([np.einsum("ij,ji->", s, block) for s in PAULI_MATRICES])
            freq_map: dict[float, complex] = {}
            for m in range(2):
                for nn in range(2):
                    # the (m,nn) element of u C u^dag rotates at e^{+i(vals_m-vals_nn)t/T}
                    local_op = np.zeros((2, 2), dtype=complex)
                    local_op[m, nn] = a_eig[m, nn]
                    back = vecs @ local_op @ vecs.conj().T
                    coeffs = np.array([np.trace(back @ s) / 2.0 for s in PAULI_MATRICES])
                    weight = complex(coeffs @ base)
                    freq = round(float((vals[m] - vals[nn]) / T), 12)
                    freq_map[freq] = freq_map.get(freq, 0.0) + weight
            freqs = np.array(sorted(freq_map))
            # conjugate flips e^{+i w t} into the e^{-i w t} convention of _entry_signals
            weights = np.conj(np.array([freq_map[f] for f in freqs]))
            pairs.append((scale * cb, freqs, weights))
    return pairs


def _kept(weights: np.ndarray) -> np.ndarray:
    """Sorted indices left after dropping the smallest weights whose |w| sum to <= PRUNE_TOL."""
    mags = np.abs(weights)
    small = np.flatnonzero(mags <= PRUNE_TOL)
    # the weights under PRUNE_TOL / len(small) come first in sorted order and
    # together sum to less than PRUNE_TOL, so they go without a sort
    tiny = mags[small] < PRUNE_TOL / max(1, len(small))
    rest = small[~tiny]
    order = rest[np.argsort(mags[rest], kind="stable")]
    budget = PRUNE_TOL - np.sum(mags[small[tiny]])
    dropped = int(np.searchsorted(np.cumsum(mags[order]), budget, side="right"))
    keep = np.ones(len(mags), dtype=bool)
    keep[small[tiny]] = False
    keep[order[:dropped]] = False
    return np.flatnonzero(keep)


def _entry_signals(pairs, t: np.ndarray) -> np.ndarray:
    """Signal sum_f Re[w_f e^{-i f t}] of every pair at the times t, one column per pair.

    Each pair's pruned weights are stacked over the union of the kept
    frequencies, so one cosine/sine grid serves every pair of the entry.
    """
    kept = []
    for _, freqs, weights in pairs:
        idx = _kept(weights)
        kept.append((freqs[idx], weights[idx]))
    union = np.unique(np.concatenate([f for f, _ in kept]))
    w_cos = np.zeros((len(union), len(pairs)))
    w_sin = np.zeros((len(union), len(pairs)))
    for col, (freqs, weights) in enumerate(kept):
        rows = np.searchsorted(union, freqs)
        w_cos[rows, col] = weights.real
        w_sin[rows, col] = weights.imag
    signals = np.empty((len(t), len(pairs)))
    rows_per_chunk = max(1, _GRID_CHUNK // max(1, len(union)))
    for lo in range(0, len(t), rows_per_chunk):
        angles = np.outer(t[lo : lo + rows_per_chunk], union)
        cos = np.cos(angles)
        sin = np.sin(angles, out=angles)
        signals[lo : lo + rows_per_chunk] = cos @ w_cos + sin @ w_sin
    return signals


def estimate_hessian(
    system: ThermoSystem,
    state: ThermalState,
    time_samples: int,
    shots: int,
    stream: RngStream,
    mode: str = "generic",
) -> np.ndarray:
    """Shot-level stochastic estimate of the dual Hessian.

    Each upper-triangle entry draws `time_samples` times from the tent
    density; every (time, Pauli pair) yields one simulated +-1 interference
    outcome, scaled by the pair's coefficients.  The mean-product term uses
    two independent `shots`-per-term estimates of <Q_i> and <Q_j>.  The
    matrix is mirrored across the diagonal, so it is exactly symmetric.
    """
    if time_samples < 1 or shots < 1:
        raise ValueError("time_samples and shots must be positive")
    if mode not in ESTIMATOR_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "extensive":
        _check_extensive(system)
    sampler = default_tent_sampler()
    if mode == "generic":
        V = state.spectrum.eigenvectors
        eig_terms = [[V.conj().T @ pv for pv in _pauli_rows(q, V)] for q in system.charges]
        freqs, inverse = _eigen_frequencies(state)
    else:
        comps = _site_components(system)

    c = system.n_charges
    hessian = np.zeros((c, c))
    for i in range(c):
        for j in range(i, c):
            entry_id = HESSIAN_ENTRY_BASE + i * c + j
            entry_stream = stream.with_observable(entry_id)
            t = sampler.sample(entry_stream.generator(0), time_samples)
            if mode == "generic":
                pairs = _generic_pairs(system, state, i, j, eig_terms, freqs, inverse)
            else:
                pairs = _extensive_pairs(system, state, i, j, comps)
            signals = _entry_signals(pairs, t)
            first = 0.0
            for block, ((coeff, _, _), w) in enumerate(zip(pairs, signals.T), start=1):
                outcomes = _interference_samples(w, entry_stream.generator(block))
                first += coeff * float(outcomes.mean())
            qi = estimate_observable(
                state.rho,
                system.charges[i],
                shots,
                stream.with_observable(HESSIAN_FACTOR_BASE + 2 * (i * c + j)),
            )
            qj = estimate_observable(
                state.rho,
                system.charges[j],
                shots,
                stream.with_observable(HESSIAN_FACTOR_BASE + 2 * (i * c + j) + 1),
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
    mean-product factor estimates.
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

    def expectation(self, state: ThermalState, obs_id: int, eval_index: int) -> float:
        stream = RngStream(self.master_seed, eval_index, obs_id)
        return estimate_observable(
            state.rho, self.system.observable(obs_id), self.shots_per_term, stream
        )

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
