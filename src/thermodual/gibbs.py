"""Thermal states of H - mu.Q and the dual objective with its derivatives.

`thermal_state` is the one builder of Gibbs states, and every derived
quantity takes the ThermalState it returns and reads mu and T from it.  When
the system's charges commute with H (`conserved`, as in every built-in
model), A = H - mu.Q is block diagonal on the eigenspaces of H.  H is then
diagonalized once per system, on the first call, and each call diagonalizes
only the small blocks E_k - mu.Q^(k); any other system is one dense block.
The populations, ln Z, the means of H and the charges and the exact Hessian
are computed block by block, and so is the mean of every Pauli term of H and
the charges, which the shot estimators sample.  The dense `rho` and the
eigenvectors in the computational basis are assembled only for the readers
that ask for them.

Boltzmann weights are shifted so the largest is exactly 1 before
normalization, which keeps everything finite at temperatures far below the
spectral gap; weights that underflow are treated as exact zeros, and
entropies use the 0*ln(0) = 0 convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalIntegrityError
from .models import ThermoSystem, conservation_tolerance
from .operators import Observable, expectation, term_expectations

WEIGHT_FLOOR = 1e-300

# levels of H less than this apart, relative to max(1, max |E|), share a block.  A block
# keeps each of its levels, so merging only enlarges it, while levels split by less mix
# in the computed eigenvectors and would leak the charges from one block into another.
GAP_TOLERANCE = 1e-3


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


@dataclass(frozen=True)
class EigenBlocks:
    """H and the charges restricted to blocks that H - mu.Q never couples, for any mu.

    `observables` holds H and then each charge, and row k of `operators`
    holds observable k as its blocks flattened one after another.  `shapes`
    lists the runs of equal-size blocks as (count, size), in that order.
    `basis` holds the block coordinates as columns of the computational
    basis, in the same order; None means one block that is the
    computational basis itself.
    """

    observables: tuple[Observable, ...]
    operators: np.ndarray
    shapes: tuple[tuple[int, int], ...]
    basis: np.ndarray | None

    @cached_property
    def term_slices(self) -> tuple[slice, ...]:
        """The entries of `ThermalState.term_means` that hold each observable's terms."""
        ends = np.cumsum([len(obs.terms) for obs in self.observables]).tolist()
        return tuple(slice(end - len(obs.terms), end) for obs, end in zip(self.observables, ends))

    @cached_property
    def term_operators(self) -> np.ndarray:
        """Each Pauli term of each observable projected into the blocks, one row per term, in order.

        Rows are flattened like `operators`.  A block-diagonal rho sees only
        these elements, so Tr[P rho] is the sum over blocks of Tr[P^(k) rho^(k)].
        Built on first use, for blocks with a basis only.
        """
        basis = self.basis
        d = len(basis)
        runs = [
            (entries, basis[:, levels].reshape(d, count, size).transpose(1, 0, 2))
            for count, size, levels, entries in _runs(self)
        ]
        rows = np.empty((self.term_slices[-1].stop, self.operators.shape[1]), dtype=complex)
        k = 0
        for obs in self.observables:
            for cols, factors in zip(*obs.pauli_action()):
                # row a of P @ basis is factors[cols[a]] * basis[cols[a]], as cols is an involution
                phases = factors[cols][None, :, None]
                for entries, stacked in runs:
                    projected = stacked.conj().transpose(0, 2, 1) @ (phases * stacked[:, cols])
                    rows[k, entries] = projected.ravel()
                k += 1
        rows.setflags(write=False)
        return rows


def _dense_block(system: ThermoSystem) -> EigenBlocks:
    """H and every charge as one dense block, for systems without conserved charges."""
    observables = (system.hamiltonian, *system.charges)
    dense = np.stack([obs.to_dense() for obs in observables])
    return EigenBlocks(observables, dense.reshape(len(dense), -1), ((1, system.dimension),), None)


def _eigenspace_blocks(system: ThermoSystem) -> EigenBlocks:
    """The eigenspaces of H, grouped by size, with H as its own levels and each charge projected.

    Raises NumericalIntegrityError when a charge couples two blocks by more
    than the tolerance its conservation was checked to.
    """
    h = system.hamiltonian.to_dense()
    spectrum = SpectralDecomposition.of(h)
    levels = spectrum.eigenvalues
    cuts = np.flatnonzero(np.diff(levels) > GAP_TOLERANCE * max(1.0, np.max(np.abs(levels))))
    bounds = np.concatenate(([0], cuts + 1, [len(levels)]))
    # blocks of equal size side by side, so each run is one batched eigh
    order = np.argsort(np.diff(bounds), kind="stable")
    columns = np.concatenate([np.arange(bounds[k], bounds[k + 1]) for k in order])
    sizes = np.diff(bounds)[order]
    starts = np.cumsum(sizes) - sizes
    basis = spectrum.eigenvectors[:, columns]
    labels = np.repeat(order, sizes)
    off_block = labels[:, None] != labels[None, :]
    tolerance = conservation_tolerance(h)

    def flattened(matrix):
        return np.concatenate([matrix[a : a + n, a : a + n].ravel() for a, n in zip(starts, sizes)])

    # inside a block H is its own levels, so levels merged by the gap tolerance stay apart
    rows = [flattened(np.diag(levels[columns]).astype(complex))]
    for i, q in enumerate(system.charges):
        block_q = basis.conj().T @ (q.to_dense() @ basis)
        leak = float(np.max(np.abs(block_q[off_block]), initial=0.0))
        if leak > tolerance:
            raise NumericalIntegrityError(
                f"charge {i} couples eigenspaces of H: off-block element {leak:.3e}"
            )
        rows.append(flattened((block_q + block_q.conj().T) / 2.0))
    operators = np.stack(rows)
    runs, counts = np.unique(sizes, return_counts=True)
    for array in (operators, basis):
        array.setflags(write=False)
    shapes = tuple(zip(counts.tolist(), runs.tolist()))
    return EigenBlocks((system.hamiltonian, *system.charges), operators, shapes, basis)


def eigen_blocks(system: ThermoSystem) -> EigenBlocks:
    """The blocks of H - mu.Q: built once per conserved system and kept on it, else one dense block."""
    if not system.conserved:
        return _dense_block(system)
    blocks = system._eigen_blocks
    if blocks is None:
        blocks = _eigenspace_blocks(system)
        # a cache on a frozen system, as Observable caches its dense matrix
        object.__setattr__(system, "_eigen_blocks", blocks)
    return blocks


def _runs(blocks: EigenBlocks):
    """(count, size, level slice, operator slice) of each run of equal-size blocks."""
    level = entry = 0
    for count, size in blocks.shapes:
        yield count, size, slice(level, level + count * size), slice(entry, entry + count * size * size)
        level += count * size
        entry += count * size * size


@dataclass(frozen=True, eq=False)
class ThermalState:
    """rho proportional to exp(-(H - mu.Q)/T), held as the eigenpairs of each block of H - mu.Q.

    `block_levels` and `block_populations` run block by block, and `vectors`
    holds one (count, size, size) stack of block eigenvectors per run of
    equal-size blocks, in block coordinates.  The means, the dense `rho`
    and the `eigenvectors` in the computational basis are computed on
    first use.
    """

    mu: np.ndarray
    temperature: float
    blocks: EigenBlocks
    vectors: tuple[np.ndarray, ...]
    block_levels: np.ndarray
    block_populations: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.block_levels)

    @cached_property
    def _block_rho(self) -> np.ndarray:
        """Each block's density matrix in block coordinates, flattened like the block operators."""
        block_rho = np.empty(self.blocks.operators.shape[1], dtype=complex)
        for (_, _, levels, entries), vecs in zip(_runs(self.blocks), self.vectors):
            p = self.block_populations[levels].reshape(len(vecs), 1, -1)
            block_rho[entries] = ((vecs * p) @ vecs.conj().transpose(0, 2, 1)).ravel()
        return block_rho

    @cached_property
    def _means(self) -> np.ndarray:
        """Tr[X rho] for X = H, Q_1, ..., from each block's density matrix."""
        # Tr[X rho] = sum X_mn conj(rho_mn), as rho is Hermitian
        return _real_means(self.blocks.operators @ self._block_rho.conj())

    @cached_property
    def term_means(self) -> np.ndarray:
        """Tr[P rho] for every Pauli term P of H and then of each charge, in term order.

        `blocks.term_slices` says which entries belong to which observable.
        Conserved systems read the terms projected into the blocks, in one
        product; the one dense block gathers each term from its density
        matrix along the word's basis action.
        """
        if self.blocks.basis is None:
            d = self.dimension
            rho = self._block_rho.reshape(d, d)
            return _real_means(
                np.concatenate([term_expectations(obs, rho) for obs in self.blocks.observables])
            )
        return _real_means(self.blocks.term_operators @ self._block_rho.conj())

    @property
    def energy(self) -> float:
        """Tr[H rho]."""
        return float(self._means[0])

    @property
    def charge_means(self) -> np.ndarray:
        """Tr[Q_i rho] for each charge."""
        return self._means[1:]

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Eigenvectors of H - mu.Q in the computational basis, as columns in block order.

        Column a has level `block_levels[a]` and population `block_populations[a]`.
        """
        basis = self.blocks.basis
        if basis is None:
            return self.vectors[0][0]
        out = np.empty((self.dimension, self.dimension), dtype=complex)
        for (count, size, levels, _), vecs in zip(_runs(self.blocks), self.vectors):
            cols = basis[:, levels].reshape(-1, count, size).transpose(1, 0, 2)
            out[:, levels] = (cols @ vecs).transpose(1, 0, 2).reshape(-1, count * size)
        out.setflags(write=False)
        return out

    @cached_property
    def rho(self) -> np.ndarray:
        """The dense density matrix, from the eigenvectors of populated levels only."""
        occupied = self.block_populations > 0.0
        vecs = self.eigenvectors[:, occupied]
        rho = (vecs * self.block_populations[occupied]) @ vecs.conj().T
        rho = (rho + rho.conj().T) / 2.0
        rho.setflags(write=False)
        return rho


def _real_means(means: np.ndarray) -> np.ndarray:
    """The real parts of computed means, refused when an imaginary part exceeds 1e-10."""
    residue = float(np.max(np.abs(means.imag), initial=0.0))
    if residue > 1e-10:
        raise NumericalIntegrityError(f"expectation has imaginary residue {residue:.3e}")
    means = means.real
    means.setflags(write=False)
    return means


def _chemical_potentials(system: ThermoSystem, mu) -> np.ndarray:
    """mu as a fresh float array, one entry per charge."""
    mu = np.array(mu, dtype=float)
    if mu.shape != (system.n_charges,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({system.n_charges},)")
    return mu


def effective_hamiltonian(system: ThermoSystem, mu) -> np.ndarray:
    """Dense A = H - mu.Q."""
    mu = _chemical_potentials(system, mu)
    acc = system.hamiltonian.to_dense().astype(complex)
    for m, charge in zip(mu, system.charges):
        if m != 0.0:
            acc = acc - m * charge.to_dense()
    return acc


def thermal_state(system: ThermoSystem, mu, T: float) -> ThermalState:
    """Parameterized thermal state at chemical potentials mu and temperature T > 0."""
    if not T > 0:
        raise ValueError(f"temperature must be positive, got {T}")
    mu = _chemical_potentials(system, mu)
    blocks = eigen_blocks(system)
    ops = blocks.operators
    a = ops[0] - mu @ ops[1:]
    levels = np.empty(system.dimension)
    vectors = []
    for count, size, level_slice, entries in _runs(blocks):
        vals, vecs = np.linalg.eigh(a[entries].reshape(count, size, size))
        levels[level_slice] = vals.ravel()
        vectors.append(vecs)
    weights = np.exp(-((levels - levels.min()) / T))
    weights[weights < WEIGHT_FLOOR] = 0.0
    populations = weights / weights.sum()
    for array in (mu, levels, populations, *vectors):
        array.setflags(write=False)
    return ThermalState(mu, float(T), blocks, tuple(vectors), levels, populations)


def log_partition(state: ThermalState) -> float:
    """ln Tr[exp(-(H - mu.Q)/T)], read off the state's normalizer.

    The lowest level's shifted weight is exactly 1, so its population is
    1/sum(w) and ln Z = -lambda_0/T - ln p_0.
    """
    lowest = int(np.argmin(state.block_levels))
    lam0 = state.block_levels[lowest]
    return float(-lam0 / state.temperature - np.log(state.block_populations[lowest]))


def objective_f(system: ThermoSystem, state: ThermalState) -> float:
    """Dual objective mu.q - T ln Z_T(mu) at the state's mu and T, q the system's targets."""
    q = np.asarray(system.targets, dtype=float)
    return float(state.mu @ q) - state.temperature * log_partition(state)


def gradient(system: ThermoSystem, state: ThermalState) -> np.ndarray:
    """Gradient of the dual objective: component i is q_i - Tr[Q_i rho_T(mu)], q the system's targets."""
    return np.asarray(system.targets, dtype=float) - state.charge_means


def _logarithmic_mean_matrix(levels: np.ndarray, p: np.ndarray, T: float) -> np.ndarray:
    """LM(p_a, p_b) = (p_a - p_b)/(ln p_a - ln p_b) of levels with populations p at temperature T.

    With x = -|lambda_a - lambda_b|/T, the smaller population is the larger
    times e^x, so LM = max(p_a, p_b) expm1(x)/x, and LM(p, p) = p.  Taking x
    from the levels keeps LM exact where the populations nearly cancel or
    the smaller one underflowed to zero.  Leading axes of levels and p are
    batch axes; a and b run over the last one.
    """
    x = -np.abs(levels[..., :, None] - levels[..., None, :]) / T
    larger = np.maximum(p[..., :, None], p[..., None, :])
    with np.errstate(invalid="ignore"):
        ratio = np.where(x == 0.0, 1.0, np.expm1(x) / x)
    return larger * ratio


def hessian_exact(system: ThermoSystem, state: ThermalState) -> np.ndarray:
    """Exact dual Hessian via the logarithmic mean of Boltzmann populations.

    Entry (i,j) is -(1/T) sum_ab LM(p_a, p_b) <a|Q_i|b><b|Q_j|a>
    + (1/T) <Q_i><Q_j>, summed here as -(1/T) sum_ab LM(p_a, p_b)
    <a|Q_i - <Q_i>|b><b|Q_j - <Q_j>|a>, which is the same as the
    populations sum to 1 and leaves no cancellation of terms of size
    ||Q||^2/T.  The result is real, symmetric, and negative semi-definite.
    No charge couples two blocks, so the pair sum runs within each block.
    """
    ops = state.blocks.operators
    c = len(ops) - 1
    T = state.temperature
    shift = state.charge_means[:, None, None]
    correlations = np.zeros((c, c), dtype=complex)
    for (count, size, levels, entries), vecs in zip(_runs(state.blocks), state.vectors):
        charges = ops[1:, entries].reshape(c, count, size, size)
        centered = vecs.conj().transpose(0, 2, 1) @ charges @ vecs
        diagonal = np.arange(size)
        centered[:, :, diagonal, diagonal] -= shift
        lm = _logarithmic_mean_matrix(
            state.block_levels[levels].reshape(count, size),
            state.block_populations[levels].reshape(count, size),
            T,
        )
        correlations += np.einsum("nab,inab,jnba->ij", lm, centered, centered)
    hessian = -correlations.real / T
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
    if not T > 0:
        raise ValueError(f"temperature must be positive, got {T}")
    return (2.0 / T) * sum(q.spectral_norm**2 for q in system.charges)
