"""Thermal states of H - mu.Q and the dual objective with its derivatives.

`thermal_state` is the one builder of Gibbs states, and every derived
quantity takes the ThermalState it returns and reads mu and T from it.  Each
built-in family has a frame of its own, built once per system on its first
state: the S^z sectors of an SU(2)-symmetric H and the logical frame of a
stabilizer code, both below.  Any other system is one dense block: H and the
charges are stacked as dense matrices once per system, and each state takes
one `eigh` of H - mu.Q, whose eigenvectors give `rho`, the means, the mean
of every Pauli term and the exact Hessian.  That path reads nothing of the
system's structure, and it is the oracle that the frames are checked against.

SU(2)-symmetric systems need no eigensolve per call and no matrix of size
2^n.  A global rotation U takes H - mu.Q to H - |mu| 2S^z and leaves H
fixed, so the levels are E_a - |mu| z_a, with E_a the levels of H on its
S^z sectors and z_a = 2m_a.  Each sector is built from the exchange terms on
its basis states and diagonalized once per system, the sectors at -m by a
global spin flip.  The populations, ln Z, the means, the Pauli-term means
and the exact Hessian follow in closed form from what each level stores.
The sampled Hessian reads tables of the sector vectors that its first call
builds (`SpinLevels.pair_correlators` and `site_blocks`).

Stabilizer codes are taken in their logical frame (Gottesman,
quant-ph/9705052).  H = sum_j h_j G_j over r independent generators, and
every charge is a logical word, which commutes with each G_j.  So the 2^n
states split into 2^r syndromes times one 2^k logical space, and
rho = rho_S (x) rho_L.  Each generator is an independent +-1 spin with mean
-tanh(h_j/T), ln Z = sum_j ln 2cosh(h_j/T) + ln Z_L, and the charge means and
the exact Hessian are those of the 2^k logical problem, whose one `eigh` per
state gives ln Z_L and the Hessian.  When every charge is one Pauli of one
encoded qubit, each encoded qubit is a spin-1/2 in its own field, and the
means take no eigensolve.  A code state keeps nothing of size 2^n: no
levels, populations or vectors.  Neither frame holds a vector of the 2^n
states, so the dense `rho` of a frame state takes one `eigh` of H - mu.Q.

Boltzmann weights are shifted so the largest is exactly 1 before
normalization, which keeps everything finite at temperatures far below the
spectral gap; weights that underflow are treated as exact zeros, and
entropies use the 0*ln(0) = 0 convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalIntegrityError, ResourceError
from .models import StabilizerCode, ThermoSystem, logical_pauli_product
from .operators import Observable, PauliString, expectation, term_expectations

WEIGHT_FLOOR = 1e-300

# the largest SU(2)-symmetric system built from its S^z sectors: the largest, C(12, 6) = 924 states
MAX_SECTOR_QUBITS = 12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns of a Hermitian matrix, read-only.

    The one eigensolve of each state on the dense path.
    """

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
    """The levels of an SU(2)-symmetric H on its S^z sectors, and what each one contributes to the means.

    Level a has energy E_a and z_a = 2m_a.  Row a of `correlators` holds
    <a|X_iX_j|a>, which equals <a|Y_iY_j|a>, for each edge (i, j) of H, then
    <a|Z_iZ_j|a> for each edge, then <a|Z_i|a> for each site.  `h_edges` and
    `h_axes` give the edge and the axis (0, 1, 2 for X, Y, Z) of each term of
    H, and `charge_sites` the site of each term of the charges, in term order.
    `sectors[w]` holds (basis states, real eigenvectors as columns, slice of
    the levels) of the sector with w spins down, for w = 0..n; the sectors at
    m and -m share one array of vectors, and their levels follow one another.
    The levels at z and -z pair up with equal energies, and `up` indexes the
    levels with z > 0.  The tables of the sampled Hessian, `pair_correlators`
    and `site_blocks`, are built on first use.
    """

    energies: np.ndarray
    twice_m: np.ndarray
    up: np.ndarray
    correlators: np.ndarray
    h_edges: np.ndarray
    h_axes: np.ndarray
    charge_sites: np.ndarray
    sectors: tuple[tuple[np.ndarray, np.ndarray, slice], ...]

    @cached_property
    def term_columns(self) -> np.ndarray:
        """The columns of `correlators` that the term means read, in order: <XX> and then <ZZ> of each H term's edge, then <Z> of each charge term's site."""
        edges = (self.correlators.shape[1] - len(self.charge_sites)) // 2
        return np.concatenate((self.h_edges, edges + self.h_edges, 2 * edges + self.charge_sites))

    @cached_property
    def pair_correlators(self) -> tuple[np.ndarray, np.ndarray]:
        """<a|X_kX_l|a>, which equals <a|Y_kY_l|a>, and <a|Z_kZ_l|a> for every level a and every pair of sites.

        Each has shape (levels, n, n), with 1 on the diagonal.  Both stay the
        same under the global spin flip, so the sectors at m and -m share one
        computation.
        """
        n = len(self.charge_sites)
        place = np.int64(1) << (n - 1 - np.arange(n, dtype=np.int64))
        xx, zz = np.empty((2, len(self.energies), n, n))
        for w, (states, vecs, levels) in enumerate(self.sectors[: n // 2 + 1]):
            spins = 1 - 2 * ((states[:, None] & place) != 0)
            pair_spins = (spins[:, :, None] * spins[:, None, :]).reshape(len(states), -1)
            zz[levels] = ((vecs * vecs).T @ pair_spins).reshape(-1, n, n)
            xx[levels] = np.eye(n)
            for k, l in zip(*np.triu_indices(n, 1)):
                rows = np.flatnonzero(spins[:, k] != spins[:, l])
                cols = np.searchsorted(states, states[rows] ^ (place[k] | place[l]))
                xx[levels, k, l] = xx[levels, l, k] = np.einsum("sa,sa->a", vecs[rows], vecs[cols])
            for array in (xx, zz):
                array[self.sectors[n - w][2]] = array[levels]
        for array in (xx, zz):
            array.setflags(write=False)
        return xx, zz

    @cached_property
    def site_blocks(self) -> tuple[tuple, tuple]:
        """Each site's Z_k on every sector and X_k between adjacent sectors, in the sector vectors.

        Two tuples, of Z and then of X entries.  Entry (blocks, level pairs):
        blocks[k] is W_r^T P_k W_c, and each (r, c) in level pairs is a pair
        of sectors, as slices of the levels, whose vectors W_r and W_c these
        are.  Z_k = 1 - 2 n_k, with n_k the projector onto site k down, so its
        block is gathered from the rows of W with site k down.  X_k takes a
        state of w spins down with site k up to one of w + 1, so
        W_w^T X_k W_{w+1} gathers those rows of W_w and the rows of W_{w+1}
        they map to.  The global spin flip F commutes with X_k and negates
        Z_k, and the sectors at m and -m are F of each other with one array of
        vectors.  So the sectors with w <= n/2 and the pairs (w, w + 1) with
        w <= (n - 1)/2 carry blocks, and their flipped partners come as
        further level pairs: Z_k Z_l is even under F, and the pair (w, w + 1)
        flips to (n - w, n - w - 1).
        """
        n = len(self.charge_sites)
        place = np.int64(1) << (n - 1 - np.arange(n, dtype=np.int64))
        sectors = self.sectors
        z_entries, x_entries = [], []
        for w in range(n // 2 + 1):
            states, vecs, levels = sectors[w]
            blocks = np.empty((n, len(vecs), len(vecs)))
            for k in range(n):
                down = vecs[(states & place[k]) != 0]
                blocks[k] = -2.0 * (down.T @ down)
                blocks[k][np.diag_indices(len(vecs))] += 1.0
            pairs = ((levels, levels),) if 2 * w == n else ((levels, levels), (sectors[n - w][2],) * 2)
            z_entries.append((blocks, pairs))
        for w in range((n - 1) // 2 + 1):
            (lower, w_lower, rows), (upper, w_upper, cols) = sectors[w], sectors[w + 1]
            # the flipped sector lists its states in descending order
            order = np.argsort(upper)
            blocks = np.empty((n, len(w_lower), len(w_upper)))
            for k in range(n):
                up = np.flatnonzero((lower & place[k]) == 0)
                image = order[np.searchsorted(upper, lower[up] | place[k], sorter=order)]
                blocks[k] = w_lower[up].T @ w_upper[image]
            partner = (sectors[n - w][2], sectors[n - w - 1][2])
            x_entries.append((blocks, ((rows, cols),) if 2 * w + 1 == n else ((rows, cols), partner)))
        for blocks, _ in z_entries + x_entries:
            blocks.setflags(write=False)
        return tuple(z_entries), tuple(x_entries)


@dataclass(frozen=True)
class LogicalFrame:
    """A stabilizer code's H - mu.Q as the syndromes of H's terms times one 2^k logical problem.

    H = sum_j h_j G_j, with `h` the coefficients of H's generator terms G_j
    in term order.  Logical basis state z is X-bar^z applied to the state of
    trivial logical Z in its syndrome, encoded qubit 0 the most significant
    bit, so each charge acts on it as the matrix in `words`, alike in every
    syndrome.  `signs` is each charge's coefficient +-1: the mean of its
    Pauli term is the sign times the charge mean.  When each charge is the
    logical Pauli a of one encoded qubit q, `axes` holds its slot 3q + a - 1
    and `qubits` its qubit q; else both are None.
    """

    code: StabilizerCode
    h: np.ndarray
    words: np.ndarray
    signs: np.ndarray
    axes: np.ndarray | None
    qubits: np.ndarray | None
    # the syndrome means of each temperature the frame has been solved at
    _syndromes: dict = field(default_factory=dict, repr=False, compare=False)
    # the bincount slots and ratio indices of `axis_means` for each shape of stack
    _row_slots: dict = field(default_factory=dict, repr=False, compare=False)

    def syndrome_means(self, T: float) -> np.ndarray:
        """<G_j> = -tanh(h_j/T) of each generator term of H, in term order, computed once per temperature."""
        means = self._syndromes.get(T)
        if means is None:
            means = -np.tanh(self.h / T)
            means.setflags(write=False)
            self._syndromes[T] = means
        return means

    def axis_means(self, mu: np.ndarray, T: float) -> np.ndarray:
        """The charge means at chemical potentials mu, or at each row of a stack of them, for charges on single-qubit axes.

        Encoded qubit q is a spin-1/2 in the field h_q, whose components are
        the chemical potentials of its charges.  With x = |h_q|/T and
        t = tanh(x), its means are h_q t/|h_q|.  t/|h_q| is taken as
        (tanh(x)/x)/T, which tends to 1/T as |h_q| -> 0 and is 1/T there.
        Every step is elementwise or sums one row's own squares in order (one
        bincount, its slots offset per row), so each row is bit for bit what
        it is alone.
        """
        rows = mu.shape[:-1]
        if rows not in self._row_slots:
            offsets = np.arange(math.prod(rows)).reshape(*rows, 1)
            self._row_slots[rows] = ((self.axes + 3 * self.code.k * offsets).ravel(), self.qubits + self.code.k * offsets)
        slots, qubits = self._row_slots[rows]
        squares = np.bincount(slots, (mu * mu).ravel(), minlength=3 * self.code.k * math.prod(rows))
        x = np.sqrt(np.add.reduce(squares.reshape(-1, 3), axis=1)) / T
        # below 1e-300 tanh(x)/x is 1 to the last bit, so the floor only takes x = 0 to its limit
        floored = np.maximum(x, 1e-300)
        return mu * (np.tanh(floored) / floored / T)[qubits]

    def term_means(self, charge_means: np.ndarray, T: float) -> np.ndarray:
        """The Pauli-term means, H's generator terms and then each charge's word, of charge means or of each row of a stack of them."""
        syndromes = self.syndrome_means(T)
        means = np.empty((*charge_means.shape[:-1], len(syndromes) + len(self.signs)))
        means[..., : len(syndromes)] = syndromes
        np.multiply(self.signs, charge_means, out=means[..., len(syndromes) :])
        return means


@dataclass(frozen=True)
class EigenBlocks:
    """The frame that H - mu.Q is solved in, for every mu: built once per system.

    `observables` holds H and then each charge.  An SU(2)-symmetric system
    keeps its S^z sector levels in `spin`, and a stabilizer system its
    `logical` frame.  Any other system is one dense block: row k of
    `operators` holds observable k as its dense matrix, flattened.
    """

    observables: tuple[Observable, ...]
    operators: np.ndarray | None
    spin: SpinLevels | None = None
    logical: LogicalFrame | None = None

    @cached_property
    def term_slices(self) -> tuple[slice, ...]:
        """The entries of `ThermalState.term_means` that hold each observable's terms."""
        ends = np.cumsum([len(obs.terms) for obs in self.observables]).tolist()
        return tuple(slice(end - len(obs.terms), end) for obs, end in zip(self.observables, ends))


def _dense_block(system: ThermoSystem) -> EigenBlocks:
    """H and every charge as one dense block, for a system with neither S^z sectors nor a logical frame."""
    observables = (system.hamiltonian, *system.charges)
    dense = np.stack([obs.to_dense() for obs in observables])
    dense.setflags(write=False)
    return EigenBlocks(observables, dense.reshape(len(dense), -1))


def _exchange_terms(system: ThermoSystem):
    """The edges, couplings and term layout of an SU(2)-symmetric system, checked term by term.

    H must be a sum of two-site terms XX, YY and ZZ, and the charges 2S^x,
    2S^y, 2S^z, each the sum of one Pauli over every site; anything else
    raises NumericalIntegrityError.  The three couplings of an edge are
    equal, as H conserves the charges.  Returns (edges as (i, j) rows,
    couplings, edge and axis of each term of H, site of each charge term).
    """
    n = system.n_qubits
    if len(system.charges) != 3:
        raise NumericalIntegrityError("an SU(2)-symmetric system needs the charges 2S^x, 2S^y, 2S^z")
    for axis, charge in enumerate(system.charges):
        if charge != Observable(n, [(1.0, PauliString.single(n, k, axis + 1)) for k in range(n)]):
            raise NumericalIntegrityError(
                f"charge {axis} is not 2S^{'xyz'[axis]}, one {'XYZ'[axis]} on every site with coefficient 1: "
                "its levels may sit at non-integer 2m"
            )
    edges: dict[tuple[int, ...], int] = {}
    couplings: dict[tuple[int, ...], float] = {}
    h_edges, h_axes = [], []
    for coeff, word in system.hamiltonian.terms:
        sites = tuple(k for k, letter in enumerate(word.letters) if letter)
        letters = {word.letters[k] for k in sites}
        if len(sites) != 2 or len(letters) != 1:
            raise NumericalIntegrityError(f"term {word} of an SU(2)-symmetric H is not an exchange XX, YY or ZZ")
        h_edges.append(edges.setdefault(sites, len(edges)))
        couplings[sites] = coeff
        h_axes.append(letters.pop() - 1)
    # the three charges order their terms alike, by the site of their one letter
    charge_sites = [word.letters.index(1) for _, word in system.charges[0].terms]
    return (
        np.array(list(edges), dtype=np.int64).reshape(-1, 2),
        np.array(list(couplings.values())),
        np.array(h_edges, dtype=np.intp),
        np.array(h_axes, dtype=np.intp),
        np.array(charge_sites, dtype=np.intp),
    )


def _sector_blocks(system: ThermoSystem) -> EigenBlocks:
    """H of an SU(2)-symmetric system diagonalized on its S^z sectors, with each level's correlators.

    A basis state with w spins down (bits set, site 0 the most significant
    bit) has 2m = n - 2w.  On it Z_iZ_j is +-1, and X_iX_j + Y_iY_j moves
    the pair's two spins into each other's places with weight 2 when they
    differ and gives 0 when they agree, so H is real on each sector and
    takes one `eigh` for each m >= 0.  The global spin flip maps the sector
    m onto -m with the same vectors and energies and each <Z_i> negated.
    Raises ResourceError above MAX_SECTOR_QUBITS qubits.
    """
    n = system.n_qubits
    if n > MAX_SECTOR_QUBITS:
        raise ResourceError(f"{n} qubits exceeds the S^z sector limit of {MAX_SECTOR_QUBITS}")
    edges, couplings, h_edges, h_axes, charge_sites = _exchange_terms(system)
    place = np.int64(1) << (n - 1 - np.arange(n, dtype=np.int64))
    states = np.arange(2**n, dtype=np.int64)
    spins = 1 - 2 * ((states[:, None] & place) != 0)
    pair_spins = spins[:, edges[:, 0]] * spins[:, edges[:, 1]]
    diagonal = pair_spins @ couplings
    flips = place[edges[:, 0]] | place[edges[:, 1]]
    down = np.count_nonzero(spins < 0, axis=1)
    everything = 2**n - 1
    energies, twice_m, correlators = [], [], []
    sectors, start = [None] * (n + 1), 0
    for w in range(n // 2 + 1):
        basis = np.flatnonzero(down == w)
        size = len(basis)
        h = np.zeros((size, size))
        h[np.arange(size), np.arange(size)] = diagonal[basis]
        rows, edge = np.nonzero(pair_spins[basis] < 0)
        cols = np.searchsorted(basis, basis[rows] ^ flips[edge])
        h[rows, cols] = 2.0 * couplings[edge]
        vals, vecs = np.linalg.eigh(h)
        weights = (vecs * vecs).T
        xx = np.empty((size, len(edges)))
        for e in range(len(edges)):
            pairs = edge == e
            xx[:, e] = np.einsum("sa,sa->a", vecs[rows[pairs]], vecs[cols[pairs]])
        zz, z = weights @ pair_spins[basis], weights @ spins[basis]
        vecs.setflags(write=False)
        twice = n - 2 * w
        for sign in ((1, -1) if twice > 0 else (1,)):
            energies.append(vals)
            twice_m.append(np.full(size, sign * twice, dtype=float))
            correlators.append(np.concatenate([xx, zz, sign * z], axis=1))
            levels = slice(start, start + size)
            sectors[w if sign > 0 else n - w] = (basis if sign > 0 else everything ^ basis, vecs, levels)
            start += size
    energies, twice_m = np.concatenate(energies), np.concatenate(twice_m)
    correlators = np.concatenate(correlators)
    up = np.flatnonzero(twice_m > 0)
    for array in (energies, twice_m, up, correlators, h_edges, h_axes, charge_sites):
        array.setflags(write=False)
    spin = SpinLevels(energies, twice_m, up, correlators, h_edges, h_axes, charge_sites, tuple(sectors))
    return EigenBlocks((system.hamiltonian, *system.charges), None, spin)


def _logical_frame(system: ThermoSystem) -> EigenBlocks:
    """The logical frame of a stabilizer system whose H and charges are the ones its code builds.

    H must be a sum over the code's generators, with any coefficients, and
    each charge the logical product of its word; anything else raises
    NumericalIntegrityError.
    """
    code, words = system.code, system.charge_words
    generators = sorted(g.letters for g in code.stabilizer_generators)
    if sorted(word.letters for _, word in system.hamiltonian.terms) != generators:
        raise NumericalIntegrityError(f"H is not a sum over the generators of {code.name}")
    if words is None or any(q != logical_pauli_product(code, w) for q, w in zip(system.charges, words)):
        raise NumericalIntegrityError(f"a charge is not the logical product of its word in {code.name}")
    single = all(np.count_nonzero(w) == 1 for w in words)
    axes = np.array([3 * int(np.flatnonzero(w)[0]) + max(w) - 1 for w in words]) if single else None
    frame = LogicalFrame(
        code,
        system.hamiltonian.coefficients,
        np.stack([PauliString(tuple(w)).to_dense() for w in words]),
        np.array([q.coefficients[0] for q in system.charges]),
        axes,
        None if axes is None else axes // 3,
    )
    return EigenBlocks((system.hamiltonian, *system.charges), None, logical=frame)


def eigen_blocks(system: ThermoSystem) -> EigenBlocks:
    """The frame of H - mu.Q, built once per system and kept on it.

    A conserved SU(2)-symmetric system takes its S^z sectors, a conserved
    stabilizer system its logical frame, and any other system one dense block.
    """
    blocks = system._eigen_blocks
    if blocks is None:
        if system.conserved and system.su2_symmetric:
            blocks = _sector_blocks(system)
        elif system.conserved and system.code is not None:
            blocks = _logical_frame(system)
        else:
            blocks = _dense_block(system)
        # a cache on a frozen system, as Observable caches its dense matrix
        object.__setattr__(system, "_eigen_blocks", blocks)
    return blocks


class _cached(cached_property):
    """`cached_property` without the lock Python 3.11 takes on every first read, as Python 3.12 takes none."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


@dataclass(frozen=True, eq=False)
class ThermalState:
    """rho proportional to exp(-(H - mu.Q)/T), held as the levels of H - mu.Q in its system's frame.

    `thermal_state` builds every state whole.  `block_levels` and
    `block_populations` run through the levels in the frame's order.  A dense
    state holds them in ascending order, with the `eigenvectors` of the same
    `eigh` as columns in the computational basis.  An SU(2)-symmetric state
    runs level by level through its S^z sectors and holds no eigenvectors.
    A stabilizer state holds none of the three: it keeps nothing of size
    2^n, and its means come from its syndromes and its 2^k logical problem.
    The means and the dense `rho` are computed on first use.
    """

    mu: np.ndarray
    temperature: float
    blocks: EigenBlocks
    block_levels: np.ndarray | None
    block_populations: np.ndarray | None
    eigenvectors: np.ndarray | None

    @_cached
    def _logical_spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Levels, eigenvectors and populations of the logical problem -mu.P of a stabilizer state."""
        words = self.blocks.logical.words
        vals, vecs = np.linalg.eigh(-np.tensordot(self.mu, words, axes=1))
        return vals, vecs, _populations(vals, self.temperature)

    def _logical_means(self) -> np.ndarray:
        """The charge means of a stabilizer state, from its logical problem; `_means` and `term_means` keep them."""
        frame = self.blocks.logical
        if frame.axes is not None:
            return frame.axis_means(self.mu, self.temperature)
        _, vecs, p = self._logical_spectrum
        rho = (vecs * p) @ vecs.conj().T
        return _real_means(np.einsum("iab,ba->i", frame.words, rho))

    @property
    def _axis(self) -> np.ndarray:
        """n = mu/|mu|, the axis the rotation takes z to; z itself at mu = 0, where any axis serves."""
        r = math.hypot(*self.mu)
        return self.mu / r if r > 0.0 else np.array([0.0, 0.0, 1.0])

    @_cached
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

    @_cached
    def _means(self) -> np.ndarray:
        """Tr[X rho] for X = H, Q_1, ..., from the dense rho, the rotated or the logical frame."""
        spin = self.blocks.spin
        if spin is not None:
            # <Q> = (mu/|mu|) <z>
            means = np.concatenate(([self.block_populations @ spin.energies], self.mu * self._spin_moments[0]))
            means.setflags(write=False)
            return means
        frame = self.blocks.logical
        if frame is not None:
            energy = frame.h @ frame.syndrome_means(self.temperature)
            means = np.concatenate(([energy], self._logical_means()))
            means.setflags(write=False)
            return means
        # Tr[X rho] = sum X_mn conj(rho_mn), as rho is Hermitian
        return _real_means(self.blocks.operators @ self.rho.ravel().conj())

    @_cached
    def term_means(self) -> np.ndarray:
        """Tr[P rho] for every Pauli term P of H and then of each charge, in term order.

        `blocks.term_slices` says which entries belong to which observable.
        A dense state gathers each term from `rho` along the word's basis
        action.  SU(2)-symmetric systems read them off the correlators of
        their levels (`_sector_term_means`), and stabilizer systems off the
        syndromes and the charge means.
        """
        spin = self.blocks.spin
        if spin is not None:
            return _sector_term_means(spin, self.block_populations, self._axis)
        frame = self.blocks.logical
        if frame is not None:
            means = frame.term_means(self._logical_means(), self.temperature)
            means.setflags(write=False)
            return means
        return _real_means(np.concatenate([term_expectations(obs, self.rho) for obs in self.blocks.observables]))

    @property
    def energy(self) -> float:
        """Tr[H rho]."""
        return float(self._means[0])

    @property
    def charge_means(self) -> np.ndarray:
        """Tr[Q_i rho] for each charge."""
        return self._means[1:]

    @_cached
    def rho(self) -> np.ndarray:
        """The dense density matrix, from the eigenvectors of populated levels only.

        A frame state takes one `eigh` of H - mu.Q (ResourceError past the dense limit).
        """
        rho = None
        if self.eigenvectors is None:
            rho = _dense_effective(self.blocks.observables, self.mu)
            levels, vecs = np.linalg.eigh(rho)
            p = _populations(levels, self.temperature)
        else:
            p, vecs = self.block_populations, self.eigenvectors
        occupied = p > 0.0
        vecs = vecs[:, occupied]
        rho = np.matmul(vecs * p[occupied], vecs.conj().T, out=rho)
        rho += rho.conj().T
        rho /= 2.0
        rho.setflags(write=False)
        return rho


def stacked_term_means(states) -> np.ndarray:
    """`term_means` of a stack of states of one system at one temperature, one row each, read off each state.

    Stabilizer states on single-qubit axes that have not computed theirs
    yet compute them together first (`LogicalFrame.axis_means`), bit for bit.
    """
    frame = states[0].blocks.logical
    if frame is not None and frame.axes is not None:
        fresh = [state for state in states if "term_means" not in vars(state)]
        if fresh:
            T = states[0].temperature
            means = frame.term_means(frame.axis_means(np.array([state.mu for state in fresh]), T), T)
            means.setflags(write=False)
            for state, row in zip(fresh, means):
                # the cache `ThermalState.term_means` fills on first use
                vars(state)["term_means"] = row
    return np.array([state.term_means for state in states])


def _sector_term_means(spin: SpinLevels, p: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """The Pauli-term means of an SU(2)-symmetric state, from its populations p and axis n = mu/|mu|.

    In the rotated frame rho is diagonal on the sector levels, and U^dag
    sigma^c U = sum_d R_cd sigma^d with R_cz = n_c.  Between the real sector
    states only <XX> = <YY> and <ZZ> of one pair survive, so a term of axis c
    on an edge has mean cx + (cz - cx) n_c^2, where cx and cz are those two
    correlators weighted by p, and a charge term sigma^c_i has mean
    n_c <Z_i>.
    """
    terms = len(spin.h_edges)
    weighted = (p @ spin.correlators)[spin.term_columns]
    cx, cz, z = weighted[:terms], weighted[terms : 2 * terms], weighted[2 * terms :]
    means = np.concatenate((cx + (cz - cx) * (axis * axis)[spin.h_axes], np.multiply.outer(axis, z).ravel()))
    means.setflags(write=False)
    return means


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


def _dense_effective(observables: tuple[Observable, ...], mu: np.ndarray) -> np.ndarray:
    """Dense H - mu.Q in a fresh buffer, summed from the cached dense matrices of H and then each charge."""
    hamiltonian, *charges = observables
    acc = hamiltonian.to_dense().astype(complex)
    for m, charge in zip(mu, charges):
        if m != 0.0:
            acc -= m * charge.to_dense()
    return acc


def effective_hamiltonian(system: ThermoSystem, mu) -> np.ndarray:
    """Dense A = H - mu.Q."""
    return _dense_effective((system.hamiltonian, *system.charges), _chemical_potentials(system, mu))


def _populations(levels: np.ndarray, T: float) -> np.ndarray:
    """Boltzmann populations of levels at temperature T, the largest weight shifted to exactly 1."""
    weights = np.exp(-((levels - levels.min()) / T))
    weights[weights < WEIGHT_FLOOR] = 0.0
    populations = weights / weights.sum()
    populations.setflags(write=False)
    return populations


def _log_2cosh(x: np.ndarray) -> np.ndarray:
    """ln 2cosh(x), without overflow."""
    x = np.abs(x)
    return x + np.log1p(np.exp(-2.0 * x))


def thermal_state(system: ThermoSystem, mu, T: float) -> ThermalState:
    """Parameterized thermal state at chemical potentials mu and temperature T > 0."""
    if not T > 0:
        raise ValueError(f"temperature must be positive, got {T}")
    mu = _chemical_potentials(system, mu)
    mu.setflags(write=False)
    blocks = eigen_blocks(system)
    if blocks.logical is not None:
        # everything of a stabilizer state is computed when it is read
        return ThermalState(mu, float(T), blocks, None, None, None)
    if blocks.spin is not None:
        # a rotation takes H - mu.Q to H - |mu| 2S^z
        levels, vectors = blocks.spin.energies - math.hypot(*mu) * blocks.spin.twice_m, None
        levels.setflags(write=False)
    else:
        # the stacked operators, not `_dense_effective`: a sum charge by charge rounds differently
        d = system.dimension
        spectrum = SpectralDecomposition.of((blocks.operators[0] - mu @ blocks.operators[1:]).reshape(d, d))
        levels, vectors = spectrum.eigenvalues, spectrum.eigenvectors
    return ThermalState(mu, float(T), blocks, levels, _populations(levels, T), vectors)


def log_partition(state: ThermalState) -> float:
    """ln Tr[exp(-(H - mu.Q)/T)], read off the state's normalizer.

    The lowest level's shifted weight is exactly 1, so its population is
    1/sum(w) and ln Z = -lambda_0/T - ln p_0.  A stabilizer state adds
    ln 2cosh(h_j/T) per generator to ln Z of its 2^k logical problem.
    """
    frame = state.blocks.logical
    T = state.temperature
    if frame is not None:
        vals, _, p = state._logical_spectrum
        return float(np.sum(_log_2cosh(frame.h / T))) + float(-vals[0] / T - np.log(p[0]))
    lowest = int(np.argmin(state.block_levels))
    lam0 = state.block_levels[lowest]
    return float(-lam0 / T - np.log(state.block_populations[lowest]))


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
    the smaller one underflowed to zero.
    """
    x = -np.abs(levels[:, None] - levels[None, :]) / T
    larger = np.maximum(p[:, None], p[None, :])
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
    A dense state sums over every pair of its levels.

    SU(2)-symmetric systems take the closed form of the rotated frame:
    with n = mu/|mu|, the Hessian is -(n n^T Var(z)/T + (I - n n^T) <z>/|mu|),
    which is -Var(z)/T I at mu = 0.

    A stabilizer state's charges act on its logical factor alone, and
    LM(p_s p_a, p_s p_b) = p_s LM(p_a, p_b), so the pair sum is that of the
    2^k logical problem, over the levels of its one `eigh`.
    """
    if state.blocks.spin is not None:
        per_mu, variance = state._spin_moments
        r = math.hypot(*state.mu)
        n = state.mu / r if r > 0.0 else np.zeros_like(state.mu)
        return -(per_mu * np.eye(len(n)) + (variance - per_mu) * np.outer(n, n))
    T = state.temperature
    frame = state.blocks.logical
    if frame is not None:
        vals, vecs, p = state._logical_spectrum
        charges = frame.words
    else:
        vals, vecs, p = state.block_levels, state.eigenvectors, state.block_populations
        charges = state.blocks.operators[1:].reshape(-1, len(vals), len(vals))
    correlations = _correlations(vals, p, vecs, charges, state.charge_means, T)
    hessian = -correlations.real / T
    return (hessian + hessian.T) / 2.0


def _correlations(levels, populations, vecs, charges, means, T) -> np.ndarray:
    """sum_ab LM(p_a, p_b) <a|Q_i - <Q_i>|b><b|Q_j - <Q_j>|a> over the levels of one block, for all (i, j).

    levels and populations have shape (size,), vecs (size, size) and
    charges, in block coordinates, (charges, size, size).
    """
    centered = vecs.conj().T @ charges @ vecs
    diagonal = np.arange(len(levels))
    centered[:, diagonal, diagonal] -= means[:, None]
    lm = _logarithmic_mean_matrix(levels, populations, T)
    return np.einsum("ab,iab,jba->ij", lm, centered, centered)


def primal_free_energy(system: ThermoSystem, rho: np.ndarray, T: float) -> float:
    """Tr[H rho] - T S(rho) with zero eigenvalues contributing nothing to S."""
    energy = expectation(system.hamiltonian, rho)
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > WEIGHT_FLOOR]
    entropy = float(-np.sum(eigs * np.log(eigs)))
    return energy - T * entropy


def smoothness_L(system: ThermoSystem, T: float) -> float:
    """L = (1/T) max_{|v|=1} ||v.Q||^2, a Lipschitz constant of the dual gradient, without dense matrices.

    -T v.H.v = sum_ab LM(p_a, p_b) |<a|v.Q|b>|^2 - <v.Q>^2 for the Hessian H
    (see `hessian_exact`).  The logarithmic mean is at most the arithmetic
    mean, so -T v.H.v <= Var(v.Q), and Popoviciu's inequality bounds that by
    ||v.Q||^2.  The maximum over v is
    - n^2 for an SU(2)-symmetric system, where v.Q is |v| times a rotated
      2S^z of norm n;
    - the number of encoded qubits that carry a charge when every charge is
      a single-qubit logical Pauli: the charges on qubit j add up to |v_j|
      times a logical Pauli, the norms of different qubits add, and
      sum_j |v_j| <= sqrt(k) |v|;
    - at most sum_i ||Q_i||^2 for any other system, by the triangle and
      Cauchy-Schwarz inequalities; a one-term charge has norm |c|.
    """
    if not T > 0:
        raise ValueError(f"temperature must be positive, got {T}")
    words = system.charge_words
    if system.su2_symmetric:
        bound = system.n_qubits**2
    elif words is not None and all(np.count_nonzero(w) == 1 for w in words):
        bound = len({int(np.flatnonzero(w)[0]) for w in words})
    else:
        bound = sum(
            q.coefficients[0] ** 2 if len(q.terms) == 1 else q.spectral_norm**2 for q in system.charges
        )
    return float(bound) / T
