"""Simulated quantum measurement with reproducible shot noise.

Expectations are estimated at the Pauli-term level: each term is measured as
a +-1 outcome with success probability (1 + <P>)/2, which is statistically
identical to measuring the corresponding circuit at this scale.  The number
of +1 outcomes among N shots is exactly Binomial(N, (1 + <P>)/2), so each
term costs one binomial draw, whatever N.  The term means <P> come from the
thermal state (`ThermalState.term_means`), which reads them off its frame
(S^z sectors or logical frame) without a dense rho; so do the Hessian's pair
means (`_pair_means`).

The Hessian estimator follows the time-averaged-conjugation form of the dual
Hessian: each Pauli pair runs interference tests at its own times drawn from
p(t) = (2/pi) ln|coth(pi t/2)|.  At a random time a test's outcome is +1
with probability (1 + wbar)/2, where wbar is the p(t)-average of the pair's
signal.  A signal is a sum of Re[w e^{-i omega t}] over eigenfrequencies
omega, and the average of cos(omega t) under p(t) is the density's
characteristic function tanh(omega/2)/(omega/2), so wbar is exact and each
pair's count of +1 outcomes is again one binomial draw.

Randomness is organized as derived streams (Salmon et al., SC'11): a
64-bit mix of (master seed, evaluation, id) keys each generator, a fresh
PCG64 seeded by its own routine from the splitmix64 words of that key, so a
stream's draws depend on nothing but its key, whatever was drawn before.
Every draw takes one path, `_binomial_means`, over a stack of rows, each on
its own generator.  A `ShotEstimator` with one master seed per row measures a
stack of states in one `estimate_observable` call on an `ObservableGroup`,
each row the charges' terms in order and then H's; a lone evaluation is a
stack of one.  A Hessian is one row on one generator: the pairs of every
upper-triangle entry, then the two factor estimates of each entry.  A row of
at most SCALAR_DRAWS values takes a binomial call per value, a longer row one
call; both draw the same counts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache, reduce

import numpy as np

from .errors import NumericalIntegrityError
from .gibbs import ThermalState, stacked_term_means
from .models import ThermoSystem
from .operators import PAULI_MATRICES, Observable

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

ESTIMATOR_MODES = ("generic", "extensive")

# stream id of a Hessian's one generator; an evaluation draws from id 0
HESSIAN_ENTRY_BASE = 1 << 21
# 64-bit words PCG64 asks its seed sequence for
PCG64_WORDS = 4
# values per row up to which a binomial call per value is cheaper than one call per row
SCALAR_DRAWS = 12
# evaluations whose stream words a ShotEstimator derives for every row in one pass
WORD_BLOCK = 64


def _mix64(z):
    """splitmix64 finalizer, of a Python int or elementwise of a uint64 array."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_stream_seed(master_seed: int, iteration: int, obs_id: int) -> int:
    """Pure 64-bit derivation; distinct (iteration, id) give distinct streams."""
    x = _mix64(master_seed & _MASK64)
    for value in (iteration, obs_id):
        x = _derive_step(x, _mix64(value & _MASK64))
    return x


def _derive_step(x, mixed_value):
    """One step of `derive_stream_seed`: fold in the mix of one key, elementwise on uint64 arrays too."""
    return _mix64((x + _GAMMA) ^ mixed_value)


@lru_cache(maxsize=64)
def _mixed_evaluations(first: int) -> np.ndarray:
    """_mix64 of the WORD_BLOCK evaluation indices from `first`, as a column; shared by every estimator."""
    mixed = _mix64(np.arange(first, first + WORD_BLOCK, dtype=np.uint64)[:, None])
    mixed.setflags(write=False)
    return mixed


def _splitmix_words(seeds: np.ndarray) -> np.ndarray:
    """The PCG64_WORDS splitmix64 words of each of a uint64 array of derived seeds, on a new last axis."""
    return _mix64(seeds[..., None] + np.arange(1, PCG64_WORDS + 1, dtype=np.uint64) * np.uint64(_GAMMA))


@cache
def _stream_words() -> type:
    """The `ISeedSequence` class that seeds a bit generator with the splitmix64 words of one derived seed.

    PCG64 asks for PCG64_WORDS 64-bit words: its 128-bit initial state is
    the first two and its stream selector the last two.  splitmix64 is a
    bijection, so distinct seeds give distinct first words and no two
    streams share a state.  It holds the PCG64_WORDS words; a request for
    fewer takes the first ones, and a 32-bit one the low half of each.  The
    class is made on the first draw: NumPy loads numpy.random on first use,
    and a run that draws no shots never does.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StreamWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words[:n_words].astype(dtype, copy=False)

    return StreamWords


def _generator(words: np.ndarray) -> np.random.Generator:
    """A fresh PCG64 generator seeded with one stream's words."""
    return np.random.Generator(np.random.PCG64(_stream_words()(words)))


@dataclass(frozen=True)
class RngStream:
    """A point in the derived-stream tree; one generator, a fresh PCG64 on each call, hangs off each obs_id."""

    master_seed: int
    iteration: int = 0
    obs_id: int = 0

    def with_observable(self, obs_id: int) -> "RngStream":
        return replace(self, obs_id=obs_id)

    def generator(self) -> np.random.Generator:
        seed = derive_stream_seed(self.master_seed, self.iteration, self.obs_id)
        return _generator(_splitmix_words(np.array(seed, dtype=np.uint64)))


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


def _binomial_means(values: np.ndarray, shots, generators) -> np.ndarray:
    """Mean of `shots` +-1 outcomes with P(+1) = (1 + v)/2, for each v in a stack of rows of values.

    The count of +1 outcomes is one Binomial(shots, (1 + v)/2) draw per value,
    in order, each row on its own generator of the sequence `generators`.
    `shots` is one count or an array of one per column.  A row with at most
    SCALAR_DRAWS values takes a call per value, which skips the array call's
    argument checks and draws the same counts.  A value that is not finite,
    or exceeds 1 in magnitude beyond rounding, in any row raises
    NumericalIntegrityError before any draw.
    """
    # written so that NaN fails it too
    if not np.abs(values).max(initial=0.0) <= 1.0 + 1e-9:
        bad = values[~(np.abs(values) <= 1.0 + 1e-9)][0]
        raise NumericalIntegrityError(f"outcome mean {bad} is not a number in [-1, 1]")
    probs = np.minimum(np.maximum((1.0 + values) / 2.0, 0.0), 1.0)
    if isinstance(shots, int) and probs.shape[1] <= SCALAR_DRAWS:
        counts = [[g.binomial(shots, p) for p in row] for g, row in zip(generators, probs.tolist())]
    else:
        counts = [g.binomial(shots, row) for g, row in zip(generators, probs)]
    return 2.0 * np.array(counts) / shots - 1.0


# ---------------------------------------------------------------------------
# shot-noise expectation estimation
# ---------------------------------------------------------------------------


class ObservableGroup:
    """Observables measured together: the terms of each in turn, drawn in one binomial call.

    `weights` holds the coefficient of each term and `owners` the index of
    the observable it belongs to.
    """

    def __init__(self, observables):
        self.observables = tuple(observables)
        self.terms = tuple(term for obs in self.observables for term in obs.terms)
        self.weights = np.array([coeff for coeff, _ in self.terms], dtype=float)
        sizes = [len(obs.terms) for obs in self.observables]
        self.owners = np.repeat(np.arange(len(sizes)), sizes)


def estimate_observable(term_means, obs: Observable | ObservableGroup, shots_per_term: int, rng):
    """Unbiased shot estimate of <obs> = sum_k c_k <P_k>, given each term's mean <P_k>.

    Given an ObservableGroup, it estimates each of its observables from one
    binomial call over all their terms, and returns them as an array.  The
    generator fills the counts element by element, and each estimate sums
    its own terms' weighted outcomes one by one in term order, so this
    equals one call per observable, in order, on the same generator,
    exactly (to 0 ulp).

    Given a stack of term means, one row per state, and one generator per
    row, the estimates gain a leading row axis: each row draws on its own
    generator, and one `bincount` with owners offset per row sums every
    row's terms apart, in order, as a call per row would.  One row of term
    means is drawn as a stack of one.
    """
    if shots_per_term < 1:
        raise ValueError("need at least one shot per term")
    means = np.asarray(term_means)
    if means.shape[-1] != len(obs.terms):
        raise ValueError(f"{means.shape[-1]} term means for {len(obs.terms)} terms")
    group = obs if isinstance(obs, ObservableGroup) else ObservableGroup((obs,))
    stack, generators = (means, rng) if means.ndim > 1 else (means[None], (rng,))
    outcomes = _binomial_means(stack, shots_per_term, generators)
    # a sum per observable, which no other observable's terms can round differently, as a matrix product's rows would
    rows, size = len(stack), len(group.observables)
    owners = group.owners + size * np.arange(rows)[:, None]
    estimates = np.bincount(owners.ravel(), (group.weights * outcomes).ravel(), minlength=rows * size)
    if means.ndim > 1:
        return estimates.reshape(rows, size) if group is obs else estimates
    return estimates if group is obs else float(estimates[0])


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
        if V is None:
            raise ValueError("generic mode needs a dense-path state: a frame state holds no eigenvectors")
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


def _sector_pair_sums(state: ThermalState) -> tuple[np.ndarray, np.ndarray]:
    """Gx and Gz of an SU(2)-symmetric state, over every pair of sites (k, l).

    Gz is sum_ab p_a phi((E_a - E_b)/T) (Z_k)_ab (Z_l)_ab over the level
    pairs within one sector.  Within sector w the populations are P_w times
    those of H alone, so Gz is sum_w P_w Gz_w(T), with Gz_w of
    `SectorSums.z_pairs`.  Gx is the same sum of X_k over the level pairs of
    adjacent sectors, with omega_ab = (lambda_a - lambda_b)/T, which moves
    with |mu|.  Each ordered pair (a, b) between two sectors also appears as
    (b, a), so each block takes the kernel (p_a + p_b) phi(omega_ab).
    """
    spin = state.blocks.spin
    n = len(spin.charge_sites)
    lam, p, T = state.block_levels, state.block_populations, state.temperature
    gx = np.zeros((n, n))
    for blocks, level_pairs in spin.site_blocks:
        kernel = sum(
            (p[r, None] + p[None, c]) * tent_characteristic((lam[r, None] - lam[None, c]) / T)
            for r, c in level_pairs
        )
        flat = blocks.reshape(n, -1)
        gx += (flat * kernel.ravel()) @ flat.T
    sums, weights, _ = state._sectors
    return gx, np.tensordot(weights, sums.z_pairs, axes=1)


def _spin_pairs(state: ThermalState, mode: str):
    """(i, j) -> (coeffs, wbar) of an SU(2)-symmetric state, from its S^z sectors.

    With U^dag sigma^c_k U = sum_d R_cd sigma^d_k and R_cz = n_c, n = mu/|mu|,
    the pair (sigma^i_k, sigma^j_l) has wbar = Gx(k,l) (delta_ij - n_i n_j)
    + Gz(k,l) n_i n_j: between real sector states the XX and YY parts are
    equal and the mixed ones vanish.  In generic mode Gx and Gz are the
    sector sums of `_sector_pair_sums`.  In extensive mode the site
    generator mu.sigma turns the transverse part at 2|mu|/T and leaves the
    axial one, so Gx = phi(2|mu|/T) cx and Gz = cz, the population-weighted
    <X_kX_l> and <Z_kZ_l>: the sector weights times `SectorSums.xx` and
    `zz`.  Rows are the charge terms of Q_i in generic mode and the sites in
    extensive mode; columns are the charge terms of Q_j, term t on site
    `charge_sites[t]`.  Every charge coefficient is 1.
    """
    sites = state.blocks.spin.charge_sites
    n = len(sites)
    if mode == "extensive":
        sums, weights, _ = state._sectors
        cx, cz = (np.tensordot(weights, table, axes=1) for table in (sums.xx, sums.zz))
        gx = tent_characteristic(2.0 * np.linalg.norm(state.mu) / state.temperature) * cx
        gz, rows = cz, np.arange(n)
    else:
        (gx, gz), rows = _sector_pair_sums(state), sites
    gx, gz = gx[np.ix_(rows, sites)].ravel(), gz[np.ix_(rows, sites)].ravel()
    along = np.outer(state._axis, state._axis)
    coeffs = np.ones(len(gx))
    return lambda i, j: (coeffs, (float(i == j) - along[i, j]) * gx + along[i, j] * gz)


def _logical_pairs(state: ThermalState):
    """(i, j) -> (coeffs, wbar) of a stabilizer state in generic mode, from its 2^k logical problem.

    Charge i is one Pauli word with coefficient s_i, which acts as s_i L_i
    in every syndrome.  The syndrome energies cancel in omega_ab and the
    syndrome populations sum to 1, so entry (i, j) has one pair with
    wbar = s_i s_j sum_ab Re[(L_i)_ab (L_j)_ba] p_a phi((lambda_a - lambda_b)/T)
    over the logical eigenbasis.
    """
    frame = state.blocks.logical
    vals, vecs, p = state._logical_spectrum
    words = vecs.conj().T @ frame.words @ vecs
    kernel = p[:, None] * tent_characteristic((vals[:, None] - vals[None, :]) / state.temperature)
    signs = np.outer(frame.signs, frame.signs)
    wbar = signs * np.einsum("iab,ab,jba->ij", words, kernel, words).real
    return lambda i, j: (signs[i, j : j + 1], wbar[i, j : j + 1])


def _pair_means(system: ThermoSystem, state: ThermalState, mode: str):
    """The function (i, j) -> (coeffs, wbar) over the Pauli pairs of entry (i, j).

    SU(2)-symmetric states take their S^z sectors in either mode, and
    stabilizer states their logical frame in generic mode.  Any other state
    takes the dense path, which is the oracle of the frames: what every
    entry shares is built once, the charge terms in the A eigenbasis and the
    kernel p_a phi(omega_ab) in generic mode, the per-site charge components
    in extensive mode.
    """
    if state.blocks.spin is not None:
        return _spin_pairs(state, mode)
    if state.blocks.logical is not None and mode == "generic":
        return _logical_pairs(state)
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
    independent `shots`-per-term estimates of <Q_i> and <Q_j>.  One binomial
    call on the stream's HESSIAN_ENTRY_BASE generator draws them all: the
    pairs of every entry in row-major upper-triangle order, then the terms
    of both factors of each entry in that order.  The matrix is mirrored
    across the diagonal, so it is exactly symmetric.
    """
    if time_samples < 1 or shots < 1:
        raise ValueError("time_samples and shots must be positive")
    if mode not in ESTIMATOR_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "extensive":
        _check_extensive(system)
    pairs = _pair_means(system, state, mode)
    charge_means = [state.term_means[part] for part in state.blocks.term_slices[1:]]

    c = system.n_charges
    entries = [(i, j) for i in range(c) for j in range(i, c)]
    coeffs, wbar = zip(*(pairs(i, j) for i, j in entries))
    factors = [charge_means[k] for entry in entries for k in entry]
    values = np.concatenate((*wbar, *factors))
    pair_count = sum(len(w) for w in wbar)
    counts = np.repeat((time_samples, shots), (pair_count, len(values) - pair_count))
    outcomes = _binomial_means(values[None], counts, (stream.with_observable(HESSIAN_ENTRY_BASE).generator(),))[0]
    parts = np.split(outcomes, np.cumsum([len(part) for part in (*wbar, *factors)])[:-1])
    pair_outcomes, factor_outcomes = parts[: len(entries)], parts[len(entries) :]
    hessian = np.zeros((c, c))
    for e, (i, j) in enumerate(entries):
        first = float(coeffs[e] @ pair_outcomes[e])
        qi = float(system.charges[i].coefficients @ factor_outcomes[2 * e])
        qj = float(system.charges[j].coefficients @ factor_outcomes[2 * e + 1])
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

    `master_seed` is one seed, or a sequence of them with one row of
    streams each; `hessian` draws on the first row's.
    """

    def __init__(
        self,
        system: ThermoSystem,
        master_seed,
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
        self._seed_rows(master_seed)
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

    def _seed_rows(self, master_seed):
        seeds = (master_seed,) if np.ndim(master_seed) == 0 else master_seed
        self.master_seeds = tuple(int(seed) for seed in seeds)
        # the first step of derive_stream_seed, which depends on the master seed alone
        self._mixed_masters = np.array([_mix64(seed & _MASK64) for seed in self.master_seeds], dtype=np.uint64)
        # (first evaluation, words) of the block of streams derived last
        self._block = None

    @property
    def rows(self) -> int:
        return len(self.master_seeds)

    def reseeded(self, master_seed) -> "ShotEstimator":
        """The same estimator drawing its shots from another master seed, or one row per seed of a sequence."""
        other = copy.copy(self)
        other._seed_rows(master_seed)
        return other

    def _row_words(self, eval_index: int) -> np.ndarray:
        """The PCG64 words of each row's stream at one evaluation, keyed as `RngStream(seed, eval_index)` keys it.

        One pass of the steps of `derive_stream_seed` on arrays derives them
        for a block of WORD_BLOCK evaluations; stream id 0 mixes to 0.
        """
        first = eval_index - eval_index % WORD_BLOCK
        if self._block is None or self._block[0] != first:
            seeds = _derive_step(_derive_step(self._mixed_masters, _mixed_evaluations(first)), 0)
            self._block = (first, _splitmix_words(seeds))
        return self._block[1][eval_index - first]

    def estimate_rows(
        self, states, rows, eval_index: int, energy: bool
    ) -> tuple[np.ndarray, list[float] | None]:
        """Shot estimates of the charges, and of H when `energy` is set (else None), of each state of a stack.

        `rows[k]`, in increasing order, is the row of `states[k]`, which
        draws what `RngStream(master_seeds[rows[k]], eval_index).generator()`
        draws: the charges' terms in order and then H's, so the charge
        estimates do not depend on `energy`.  One `estimate_observable` call
        draws them all.
        """
        order, group = self._measured[energy]
        words = self._row_words(eval_index)
        generators = [_generator(row) for row in (words if len(rows) == len(words) else words[rows])]
        estimates = estimate_observable(stacked_term_means(states)[:, order], group, self.shots_per_term, generators)
        if not energy:
            return estimates, None
        return estimates[:, :-1], estimates[:, -1].tolist()

    @cached_property
    def _measured(self) -> tuple[tuple[np.ndarray, ObservableGroup], ...]:
        """What an evaluation measures, the charges and then the charges and H: the term means it draws, in order, and their group.

        H's terms come first in term order and last in draw order.
        """
        charges, hamiltonian = self.system.charges, self.system.hamiltonian
        start = len(hamiltonian.terms)
        charge_terms = np.arange(start, start + sum(len(q.terms) for q in charges))
        return (
            (charge_terms, ObservableGroup(charges)),
            (np.concatenate((charge_terms, np.arange(start))), ObservableGroup((*charges, hamiltonian))),
        )

    def hessian(self, state: ThermalState, eval_index: int) -> np.ndarray:
        return estimate_hessian(
            self.system,
            state,
            self.time_samples,
            self.factor_shots,
            RngStream(self.master_seeds[0], eval_index),
            mode=self.mode,
        )

    @property
    def shots_per_hessian_eval(self) -> int:
        return self.time_samples * self._pair_total + self.factor_shots * self._factor_total
