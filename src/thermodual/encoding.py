"""Thermal-state encoding of logical qubits: coordinate maps and warm starts.

A mixed single-qubit state can be written either through its Bloch vector r
(mixture coordinates) or as exp(-beta mu.sigma)/Z (exponential coordinates).
The map between the two gives an exact warm start for encoding problems: the
thermal state it induces already satisfies every logical-expectation
constraint, so the dual gradient vanishes there.  The general-k version
solves the exponential coefficients from the matrix logarithm of the target
logical state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError
from .gibbs import thermal_state
from .models import (
    StabilizerCode,
    build_stabilizer_system,
    codespace_projector,
    logical_pauli_product,
)
from .operators import PauliString, expectation


def all_words(k: int):
    """All length-k index tuples over {0,1,2,3}, identity first."""
    return list(itertools.product(range(4), repeat=k))


@dataclass(frozen=True)
class LogicalTarget:
    """Pauli coefficients of a k-qubit state, identity coefficient fixed to 1."""

    k: int
    coefficients: tuple[tuple[tuple[int, ...], float], ...]

    @staticmethod
    def from_coefficients(k: int, coeffs: dict) -> "LogicalTarget":
        table = {tuple(int(i) for i in w): float(v) for w, v in coeffs.items()}
        identity = (0,) * k
        if abs(table.get(identity, 1.0) - 1.0) > 1e-12:
            raise ValueError("identity coefficient must be 1")
        table[identity] = 1.0
        for word in table:
            if len(word) != k or any(i not in (0, 1, 2, 3) for i in word):
                raise ValueError(f"invalid word {word} for k={k}")
        full = tuple((w, table.get(w, 0.0)) for w in all_words(k))
        target = LogicalTarget(k, full)
        rho = target.to_matrix()
        eigs = np.linalg.eigvalsh(rho)
        if eigs[0] < -1e-9 or abs(np.trace(rho).real - 1.0) > 1e-9:
            raise ValueError("coefficients do not describe a density matrix")
        return target

    @staticmethod
    def from_bloch(r) -> "LogicalTarget":
        r = np.asarray(r, dtype=float)
        if r.shape != (3,):
            raise ValueError("Bloch vector must have 3 components")
        if np.linalg.norm(r) > 1 + 1e-12:
            raise ValueError(f"Bloch vector norm {np.linalg.norm(r)} exceeds 1")
        return LogicalTarget.from_coefficients(
            1, {(1,): r[0], (2,): r[1], (3,): r[2]}
        )

    def coefficient(self, word) -> float:
        word = tuple(word)
        for w, v in self.coefficients:
            if w == word:
                return v
        raise KeyError(word)

    def to_matrix(self) -> np.ndarray:
        acc = np.zeros((2**self.k, 2**self.k), dtype=complex)
        for word, value in self.coefficients:
            if value != 0.0:
                acc += value * PauliString(word).to_dense()
        return acc / 2**self.k


# ---------------------------------------------------------------------------
# mixture <-> exponential coordinates (single qubit)
# ---------------------------------------------------------------------------


def mixture_to_exponential(r) -> tuple[np.ndarray, float]:
    """Map a strictly mixed Bloch vector to (mu, beta) with rho = exp(-beta mu.sigma)/Z.

    mu equals r and beta = arctanh(-||r||)/||r||, which is negative; the
    r = 0 limit is beta = -1.  Pure states (||r|| = 1) have no exponential
    coordinates and are rejected.
    """
    r = np.asarray(r, dtype=float)
    norm = float(np.linalg.norm(r))
    if norm >= 1.0:
        raise ValueError(f"||r|| = {norm} >= 1: only strictly mixed states allowed")
    beta = -1.0 if norm == 0.0 else float(np.arctanh(-norm) / norm)
    return r.copy(), beta


def mixture_to_exponential_normalized(r) -> tuple[np.ndarray, float]:
    """Variant with unit-norm direction and non-negative beta: (-r/||r||, arctanh ||r||)."""
    r = np.asarray(r, dtype=float)
    norm = float(np.linalg.norm(r))
    if norm >= 1.0:
        raise ValueError(f"||r|| = {norm} >= 1: only strictly mixed states allowed")
    if norm == 0.0:
        return np.zeros(3), 0.0
    return -r / norm, float(np.arctanh(norm))


def exponential_to_mixture(mu, beta: float) -> np.ndarray:
    """Inverse map: Bloch vector tanh(-beta ||mu||) * mu/||mu||."""
    mu = np.asarray(mu, dtype=float)
    norm = float(np.linalg.norm(mu))
    if norm == 0.0:
        return np.zeros(3)
    return float(np.tanh(-beta * norm)) * (mu / norm)


# ---------------------------------------------------------------------------
# warm starts and closed-form optimal states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarmStart:
    """Exponential coefficients per logical word, plus the qubit-level beta."""

    mu_words: tuple[tuple[tuple[int, ...], float], ...]
    beta: float

    def chemical_potentials(self, T: float, words) -> np.ndarray:
        """Dual starting point for a solver whose charges are the given words."""
        table = dict(self.mu_words)
        return np.array([T * table.get(tuple(w), 0.0) for w in words])


def exponential_coefficients(target: LogicalTarget) -> dict[tuple[int, ...], float]:
    """Solve exp(sum_w mu_w sigma_w)/Z = target by expanding ln(target) in the Pauli basis.

    Requires the target to be strictly mixed so the logarithm exists; the
    identity component is dropped (it only shifts the normalization).
    """
    rho = target.to_matrix()
    vals, vecs = np.linalg.eigh(rho)
    if vals[0] <= 1e-12:
        raise ValueError(
            "target state must be strictly mixed (full rank); shrink pure "
            "targets radially before encoding"
        )
    log_rho = (vecs * np.log(vals)) @ vecs.conj().T
    dim = 2**target.k
    coeffs = {}
    residual = log_rho.copy()
    for word in all_words(target.k):
        mat = PauliString(word).to_dense()
        value = float(np.real(np.einsum("ij,ji->", mat, log_rho))) / dim
        residual -= value * mat
        if any(i != 0 for i in word):
            coeffs[word] = value
    if np.max(np.abs(residual)) > 1e-10:
        raise NumericalIntegrityError(
            f"Pauli expansion of ln(target) leaves residual {np.max(np.abs(residual)):.3e}"
        )
    return coeffs


def _code_gibbs_state(code: StabilizerCode, word_coeffs, T: float) -> np.ndarray:
    """exp(-(H - T sum_w c_w L_w)/T)/Z for H = -sum S_i and (word, c_w) pairs.

    This is the thermal state at mu_w = T c_w of the stabilizer system whose
    charges are the words.
    """
    words, coeffs = zip(*word_coeffs)
    system = build_stabilizer_system(code, [(w, 0.0) for w in words])
    return thermal_state(system, [T * c for c in coeffs], T).rho


def warm_start(r) -> WarmStart:
    """Exponential coefficients of the single-logical-qubit warm start for Bloch vector r."""
    mu, beta = mixture_to_exponential(r)
    return WarmStart(tuple(((axis,), -beta * mu[axis - 1]) for axis in (1, 2, 3)), beta)


def warm_start_state(code: StabilizerCode, r, T: float) -> tuple[np.ndarray, WarmStart]:
    """Single-logical-qubit warm start: thermal state already meeting the constraints.

    Builds exp(-(H + beta T (mu_x Xbar + mu_y Ybar + mu_z Zbar))/T)/Z with
    (mu, beta) from the mixture-to-exponential map; the logical expectations
    of the result equal r exactly.
    """
    if code.k != 1:
        raise ValueError("warm start applies only to codes encoding a single qubit")
    warm = warm_start(r)
    return _code_gibbs_state(code, warm.mu_words, T), warm


def optimal_encoding_state(code: StabilizerCode, target: LogicalTarget, T: float) -> np.ndarray:
    """Unique optimum of the encoding free-energy problem for a mixed target.

    Returns exp(-(H - T sum_w mu_w sigma_bar_w)/T)/Z with the mu_w solved
    from the unencoded target; its logical expectations reproduce the target
    coefficients.
    """
    if target.k != code.k:
        raise ValueError(f"target has k={target.k} but code encodes k={code.k}")
    return _code_gibbs_state(code, exponential_coefficients(target).items(), T)


def encoded_state(code: StabilizerCode, target: LogicalTarget) -> np.ndarray:
    """Codespace state with the target's logical Pauli coefficients (pure targets allowed)."""
    if target.k != code.k:
        raise ValueError(f"target has k={target.k} but code encodes k={code.k}")
    projector = codespace_projector(code)
    acc = np.zeros_like(projector)
    for word, value in target.coefficients:
        if value != 0.0:
            acc += value * logical_pauli_product(code, word).to_dense()
    acc /= 2**code.k
    rho = projector @ acc @ projector
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def logical_expectations(code: StabilizerCode, rho: np.ndarray) -> dict[tuple[int, ...], float]:
    """Expectations of every nontrivial logical word on rho."""
    return {
        word: expectation(logical_pauli_product(code, word), rho)
        for word in all_words(code.k)
        if any(i != 0 for i in word)
    }
