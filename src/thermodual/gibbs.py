"""Thermal states of H - mu.Q and the dual objective with its derivatives.

`thermal_state` is the one place that builds and diagonalizes the effective
Hamiltonian A = H - mu.Q; every derived quantity takes the ThermalState it
returns and reads mu and T from it.  Boltzmann weights are shifted so the
largest is exactly 1 before normalization, which keeps everything finite at
temperatures far below the spectral gap; weights that underflow are treated
as exact zeros, and entropies use the 0*ln(0) = 0 convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ThermoSystem
from .operators import expectation

WEIGHT_FLOOR = 1e-300


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @staticmethod
    def of(matrix: np.ndarray) -> "SpectralDecomposition":
        vals, vecs = np.linalg.eigh(matrix)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return SpectralDecomposition(vals, vecs)

    def reconstruction_error(self, matrix: np.ndarray) -> float:
        rebuilt = (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T
        return float(np.max(np.abs(matrix - rebuilt)))


@dataclass(frozen=True)
class ThermalState:
    """rho proportional to exp(-(H - mu.Q)/T), with the spectrum of H - mu.Q cached."""

    mu: np.ndarray
    temperature: float
    rho: np.ndarray
    spectrum: SpectralDecomposition
    populations: np.ndarray  # Boltzmann weights, normalized, in eigenbasis order

    @property
    def dimension(self) -> int:
        return self.rho.shape[0]


def effective_hamiltonian(system: ThermoSystem, mu) -> np.ndarray:
    """Dense A = H - mu.Q."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (system.n_charges,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({system.n_charges},)")
    acc = system.hamiltonian.to_dense().astype(complex)
    for m, charge in zip(mu, system.charges):
        if m != 0.0:
            acc = acc - m * charge.to_dense()
    return acc


def thermal_state(system: ThermoSystem, mu, T: float) -> ThermalState:
    """Parameterized thermal state at chemical potentials mu and temperature T > 0."""
    if T <= 0:
        raise ValueError(f"temperature must be positive, got {T}")
    mu = np.array(mu, dtype=float)
    spectrum = SpectralDecomposition.of(effective_hamiltonian(system, mu))
    lam, vecs = spectrum.eigenvalues, spectrum.eigenvectors
    weights = np.exp(-((lam - lam[0]) / T))
    weights[weights < WEIGHT_FLOOR] = 0.0
    populations = weights / weights.sum()
    rho = (vecs * populations) @ vecs.conj().T
    rho = (rho + rho.conj().T) / 2.0
    for array in (mu, rho, populations):
        array.setflags(write=False)
    return ThermalState(mu, float(T), rho, spectrum, populations)


def log_partition(state: ThermalState) -> float:
    """ln Tr[exp(-(H - mu.Q)/T)], read off the state's normalizer.

    The lowest level's shifted weight is exactly 1, so its population is
    1/sum(w) and ln Z = -lambda_0/T - ln p_0.
    """
    lam0 = state.spectrum.eigenvalues[0]
    return float(-lam0 / state.temperature - np.log(state.populations[0]))


def objective_f(system: ThermoSystem, state: ThermalState) -> float:
    """Dual objective mu.q - T ln Z_T(mu) at the state's mu and T, q the system's targets."""
    q = np.asarray(system.targets, dtype=float)
    return float(state.mu @ q) - state.temperature * log_partition(state)


def charge_expectations(system: ThermoSystem, state: ThermalState) -> np.ndarray:
    return np.array([expectation(qi, state.rho) for qi in system.charges])


def gradient(system: ThermoSystem, state: ThermalState) -> np.ndarray:
    """Gradient of the dual objective: component i is q_i - Tr[Q_i rho_T(mu)], q the system's targets."""
    return np.asarray(system.targets, dtype=float) - charge_expectations(system, state)


def _logarithmic_mean_matrix(p: np.ndarray) -> np.ndarray:
    """LM(p_a, p_b) = (p_a - p_b)/(ln p_a - ln p_b), with LM(p,p)=p and LM(p,0)=0."""
    pa = p[:, None]
    pb = p[None, :]
    diff = pa - pb
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(pa) - np.log(pb)
        lm = np.where(np.abs(log_ratio) > 1e-14, diff / log_ratio, (pa + pb) / 2.0)
    lm[(pa == 0.0) | (pb == 0.0)] = 0.0
    return lm


def hessian_exact(system: ThermoSystem, state: ThermalState) -> np.ndarray:
    """Exact dual Hessian via the logarithmic mean of Boltzmann populations.

    Entry (i,j) is -(1/T) sum_ab LM(p_a, p_b) <a|Q_i|b><b|Q_j|a>
    + (1/T) <Q_i><Q_j>; the result is real, symmetric, and negative
    semi-definite.
    """
    V = state.spectrum.eigenvectors
    p = state.populations
    lm = _logarithmic_mean_matrix(p)
    charge_mats = np.stack(
        [V.conj().T @ qi.to_dense() @ V for qi in system.charges]
    )
    means = np.einsum("iaa,a->i", charge_mats, p).real
    correlations = np.einsum("ab,iab,jba->ij", lm, charge_mats, charge_mats)
    hessian = (-correlations.real + np.outer(means, means)) / state.temperature
    return (hessian + hessian.T) / 2.0


def primal_free_energy(system: ThermoSystem, rho: np.ndarray, T: float) -> float:
    """Tr[H rho] - T S(rho) with zero eigenvalues contributing nothing to S."""
    energy = expectation(system.hamiltonian, rho)
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > WEIGHT_FLOOR]
    entropy = float(-np.sum(eigs * np.log(eigs)))
    return energy - T * entropy


def smoothness_L(system: ThermoSystem, T: float) -> float:
    """Upper bound (2/T) sum_i ||Q_i||^2 on the dual Hessian's spectral norm."""
    if T <= 0:
        raise ValueError(f"temperature must be positive, got {T}")
    return (2.0 / T) * sum(q.spectral_norm**2 for q in system.charges)
