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

SU(2)-symmetric systems need no eigensolve per call.  A global rotation U
takes H - mu.Q to H - |mu| 2S^z and leaves H fixed, so the levels of each
block are E_a - |mu| z_a, from the joint spectrum (E_a, z_a = 2m_a) of H and
2S^z that `eigen_blocks` stores once per system.  The populations, ln Z, the
means and the exact Hessian follow in closed form, and the block
eigenvectors, for the readers of `vectors` only, are U times the joint ones.

Boltzmann weights are shifted so the largest is exactly 1 before
normalization, which keeps everything finite at temperatures far below the
spectral gap; weights that underflow are treated as exact zeros, and
entropies use the 0*ln(0) = 0 convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
class SpinLevels:
    """The joint spectrum of H and z = 2S^z on the blocks, level by level in block order.

    Within a block the levels at z and -z pair up, as a rotation by pi maps
    one onto the other, and each pair shares one energy.  `up` indexes the
    levels with z > 0.  `frames` holds, per run of equal-size blocks, what
    rotates the joint eigenvectors onto those of H - mu.Q:
    (Z, z, Z^dag Y, y, Y^dag J), with Z, z and Y, y the eigenvectors and
    eigenvalues of 2S^z and 2S^y in each block and J the joint eigenvectors
    as columns in level order.
    """

    energies: np.ndarray
    twice_m: np.ndarray
    up: np.ndarray
    frames: tuple[tuple[np.ndarray, ...], ...]


@dataclass(frozen=True)
class EigenBlocks:
    """H and the charges restricted to blocks that H - mu.Q never couples, for any mu.

    `observables` holds H and then each charge, and row k of `operators`
    holds observable k as its blocks flattened one after another.  `shapes`
    lists the runs of equal-size blocks as (count, size), in that order.
    `basis` holds the block coordinates as columns of the computational
    basis, in the same order; None means one block that is the
    computational basis itself.  `spin` holds the joint spectrum of H and
    2S^z of an SU(2)-symmetric system, else None.
    """

    observables: tuple[Observable, ...]
    operators: np.ndarray
    shapes: tuple[tuple[int, int], ...]
    basis: np.ndarray | None
    spin: SpinLevels | None = None

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
    blocks = EigenBlocks((system.hamiltonian, *system.charges), operators, shapes, basis)
    if system.su2_symmetric:
        blocks = replace(blocks, spin=_spin_levels(blocks, tolerance))
    return blocks


def _spin_levels(blocks: EigenBlocks, tolerance: float) -> SpinLevels:
    """The joint spectrum of H and 2S^z (the last charge) in each block, with its rotation frames.

    Each block's 2S^z is diagonalized first, and H then within each of its
    integer eigenspaces, because levels merged by the gap tolerance differ.
    Raises NumericalIntegrityError when 2S^z has a non-integer eigenvalue,
    does not commute with H in a block, or its +z and -z levels do not pair.
    """
    energies, twice_m, frames = [], [], []
    for count, size, _, entries in _runs(blocks):
        h = blocks.operators[0, entries].reshape(count, size, size).diagonal(axis1=1, axis2=2).real
        y, z = blocks.operators[-2:, entries].reshape(2, count, size, size)
        commutator = float(np.max(np.abs((h[:, :, None] - h[:, None, :]) * z)))
        if commutator > tolerance:
            raise NumericalIntegrityError(f"2S^z does not commute with H in a block: {commutator:.3e}")
        vals, z_basis = np.linalg.eigh(z)
        twice = np.rint(vals)
        off = float(np.max(np.abs(vals - twice)))
        if off > tolerance:
            raise NumericalIntegrityError(f"2S^z has a non-integer eigenvalue in a block: off by {off:.3e}")
        h_z = z_basis.conj().transpose(0, 2, 1) @ (h[:, :, None] * z_basis)
        e = h_z.diagonal(axis1=1, axis2=2).real.copy()
        # the eigenvectors of H within each eigenspace of 2S^z, in the eigenbasis of 2S^z
        sector_vectors = np.zeros((count, size, size), dtype=complex)
        sector_vectors[:, np.arange(size), np.arange(size)] = 1.0
        # a block of several multiplets repeats an eigenvalue of 2S^z, and H is diagonalized there
        for k in np.flatnonzero(np.any(np.diff(twice, axis=1) == 0.0, axis=1)):
            for value in np.unique(twice[k]):
                sector = np.ix_(twice[k] == value, twice[k] == value)
                e[k, twice[k] == value], sector_vectors[k][sector] = np.linalg.eigh(h_z[k][sector])
        # by descending and by ascending 2m, then by energy: place j of one order pairs with place j of the other
        down, up = (np.lexsort((e, sign * twice), axis=-1) for sign in (-1.0, 1.0))
        z_run = np.take_along_axis(twice, down, axis=1)
        if not np.array_equal(np.take_along_axis(twice, up, axis=1), -z_run):
            raise NumericalIntegrityError("the levels at +2m and -2m of a block do not pair")
        e_down, e_up = np.take_along_axis(e, down, axis=1), np.take_along_axis(e, up, axis=1)
        gap = float(np.max(np.abs(e_down - e_up)))
        if gap > tolerance:
            raise NumericalIntegrityError(f"the levels at +2m and -2m of a block differ by {gap:.3e}")
        # partners share one energy, so the populations agree with the paired sum for <z>/|mu|
        energies.append(((e_down + e_up) / 2.0).ravel())
        twice_m.append(z_run.ravel())
        joint = np.take_along_axis(z_basis @ sector_vectors, down[:, None, :], axis=2)
        twice_y, y_basis = np.linalg.eigh(y)
        frame = (z_basis, twice, z_basis.conj().transpose(0, 2, 1) @ y_basis, twice_y,
                 y_basis.conj().transpose(0, 2, 1) @ joint)
        for array in frame:
            array.setflags(write=False)
        frames.append(frame)
    energies, twice_m = np.concatenate(energies), np.concatenate(twice_m)
    up = np.flatnonzero(twice_m > 0)
    for array in (energies, twice_m, up):
        array.setflags(write=False)
    return SpinLevels(energies, twice_m, up, tuple(frames))


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
    equal-size blocks, in block coordinates, whose column a belongs to
    level a of its block.  The means, the dense `rho` and the `eigenvectors`
    in the computational basis are computed on first use, and so are the
    `vectors` of an SU(2)-symmetric system, whose levels and means need
    none.
    """

    mu: np.ndarray
    temperature: float
    blocks: EigenBlocks
    block_levels: np.ndarray
    block_populations: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.block_levels)

    @cached_property
    def vectors(self) -> tuple[np.ndarray, ...]:
        """One stack of block eigenvectors per run; `thermal_state` fills it where it solved the blocks.

        An SU(2)-symmetric state rotates the joint eigenvectors J of H and
        2S^z by U = e^{-i phi S^z} e^{-i theta S^y}, which takes S^z to
        n.S for n = mu/|mu| at polar angle theta and azimuth phi and
        commutes with H, so U J diagonalizes H - mu.Q level by level.
        """
        r = math.hypot(*self.mu)
        nx, ny, nz = self.mu / r if r > 0.0 else (0.0, 0.0, 1.0)
        theta, phi = math.acos(min(1.0, max(-1.0, nz))), math.atan2(ny, nx)
        out = []
        for z_basis, twice_z, z_to_y, twice_y, y_to_joint in self.blocks.spin.frames:
            # in the eigenbases of 2S^y and 2S^z the two factors of U are phases
            vecs = z_to_y @ (np.exp(-0.5j * theta * twice_y)[:, :, None] * y_to_joint)
            vecs = z_basis @ (np.exp(-0.5j * phi * twice_z)[:, :, None] * vecs)
            vecs.setflags(write=False)
            out.append(vecs)
        return tuple(out)

    @cached_property
    def _spin_moments(self) -> tuple[float, float]:
        """<z>/|mu| and Var(z)/T of z = 2S^z in the rotated frame of an SU(2)-symmetric system.

        The partner at -z of each level at z > 0 holds its population p
        times e^{-2|mu|z/T}, so <z>/|mu| is the sum over those levels of
        z p (1 - e^{-2|mu|z/T})/|mu|, with no cancellation as |mu| -> 0,
        where it tends to Var(z)/T.
        """
        spin = self.blocks.spin
        T = self.temperature
        r = math.hypot(*self.mu)
        z = spin.twice_m[spin.up]
        p = self.block_populations[spin.up]
        ratio = -np.expm1(-2.0 * r * z / T) / r if r > 0.0 else 2.0 * z / T
        per_mu = float(np.sum(z * p * ratio))
        centered = spin.twice_m - r * per_mu
        return per_mu, float(self.block_populations @ (centered * centered)) / T

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
        """Tr[X rho] for X = H, Q_1, ..., from each block's density matrix or the rotated frame."""
        spin = self.blocks.spin
        if spin is not None:
            # <Q> = (mu/|mu|) <z>
            means = np.concatenate(([self.block_populations @ spin.energies], self.mu * self._spin_moments[0]))
            means.setflags(write=False)
            return means
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
    vectors = []
    if blocks.spin is None:
        ops = blocks.operators
        a = ops[0] - mu @ ops[1:]
        levels = np.empty(system.dimension)
        for count, size, level_slice, entries in _runs(blocks):
            vals, vecs = np.linalg.eigh(a[entries].reshape(count, size, size))
            levels[level_slice] = vals.ravel()
            vectors.append(vecs)
    else:
        # a rotation takes H - mu.Q to H - |mu| 2S^z
        levels = blocks.spin.energies - math.hypot(*mu) * blocks.spin.twice_m
    weights = np.exp(-((levels - levels.min()) / T))
    weights[weights < WEIGHT_FLOOR] = 0.0
    populations = weights / weights.sum()
    for array in (mu, levels, populations, *vectors):
        array.setflags(write=False)
    state = ThermalState(mu, float(T), blocks, levels, populations)
    if vectors:
        # the cached property's own slot, so reading it costs what a field does
        state.__dict__["vectors"] = tuple(vectors)
    return state


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

    SU(2)-symmetric systems take the closed form of the rotated frame:
    with n = mu/|mu|, the Hessian is -(n n^T Var(z)/T + (I - n n^T) <z>/|mu|),
    which is -Var(z)/T I at mu = 0.
    """
    if state.blocks.spin is not None:
        per_mu, variance = state._spin_moments
        r = math.hypot(*state.mu)
        n = state.mu / r if r > 0.0 else np.zeros_like(state.mu)
        return -(per_mu * np.eye(len(n)) + (variance - per_mu) * np.outer(n, n))
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
