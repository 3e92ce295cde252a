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
global spin flip.  Each sector keeps its own levels, and no array runs over
all 2^n of them.  Within a sector every level moves by the same -|mu| z,
so the sums over each sector at T, built once per temperature
(`SpinLevels.sector_sums`), fix a state by its n + 1 sector weights: ln Z,
the means, the Pauli-term means and the exact Hessian follow in closed form
from them.  The sampled Hessian reads sector sums too, and tables of the
sector vectors that its first call builds (`SpinLevels.site_blocks`).

Stabilizer codes are taken in their logical frame (Gottesman,
quant-ph/9705052).  H = sum_j h_j G_j over r independent generators, and
every charge is a logical word, which commutes with each G_j.  So the 2^n
states split into 2^r syndromes times one 2^k logical space, and
rho = rho_S (x) rho_L.  Each generator is an independent +-1 spin with mean
-tanh(h_j/T), ln Z = sum_j ln 2cosh(h_j/T) + ln Z_L, and the charge means and
the exact Hessian are those of the 2^k logical problem, whose one `eigh` per
state gives ln Z_L and the Hessian.  When every charge is one Pauli of one
encoded qubit, each encoded qubit is a spin-1/2 in its own field, and the
means take no eigensolve.  A frame state holds only mu, T and its frame,
and neither frame holds a vector of the 2^n states, so the dense `rho` of a
frame state takes one `eigh` of H - mu.Q.

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
    """The levels of an SU(2)-symmetric H on its S^z sectors, and the sums over each sector at each temperature.

    `sectors[w]` holds (basis states, real eigenvectors as columns, levels
    E_a in ascending order) of the sector with w spins down, z = 2m = n - 2w,
    for w = 0..n; the sectors at m and -m share one array of vectors and one
    of levels, and no array holds all 2^n levels.  `h_sites` and `h_axes`
    give the two sites and the axis (0, 1, 2 for X, Y, Z) of each term of H,
    and `charge_sites` the site of each term of the charges, in term order.
    A state reads its sectors' sums at its temperature (`sector_sums`),
    built once per temperature.  The X blocks of the sampled Hessian
    (`site_blocks`) are built on first use.
    """

    h_sites: np.ndarray
    h_axes: np.ndarray
    charge_sites: np.ndarray
    sectors: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    # the sector sums of each temperature the levels have been summed at
    _sums: dict = field(default_factory=dict, repr=False, compare=False)

    def sector_sums(self, T: float) -> "SectorSums":
        """What each sector contributes at temperature T, summed once per temperature.

        The correlators of sector w are read off its density matrix
        W diag(q) W^T on its basis states, from the levels whose populations
        q within the sector do not underflow.  On a basis state Z_i is its
        spin s_i, and X_kX_l + Y_kY_l moves the spins of sites k and l into
        each other's places with weight 2 where they differ, so <Z_kZ_l>
        sums the diagonal times s_k s_l, and <X_kX_l> = <Y_kY_l> the entries
        between basis states one such move apart.  The global spin flip maps
        the sector at m onto -m with the same energies and vectors, and
        negates each <Z_i>.
        """
        sums = self._sums.get(T)
        if sums is None:
            n = len(self.charge_sites)
            place = np.int64(1) << (n - 1 - np.arange(n, dtype=np.int64))
            k, l = np.triu_indices(n, 1)
            within = [None] * (n + 1)
            log_weights, energy = np.empty((2, n + 1))
            xx, zz = np.empty((2, n + 1, n, n))
            z = np.empty((n + 1, n))
            for w, (states, vecs, e) in enumerate(self.sectors[: n // 2 + 1]):
                q = _populations(e, T)
                kept = q > 0.0
                rho = (vecs[:, kept] * q[kept]) @ vecs[:, kept].T
                spins = 1 - 2 * ((states[:, None] & place) != 0)
                diagonal = np.diagonal(rho)
                z[w], zz[w], xx[w] = diagonal @ spins, (spins.T * diagonal) @ spins, np.eye(n)
                rows, pairs = np.nonzero(spins[:, k] != spins[:, l])
                cols = np.searchsorted(states, states[rows] ^ (place[k] | place[l])[pairs])
                xx[w, k, l] = xx[w, l, k] = np.bincount(pairs, rho[rows, cols], minlength=len(k))
                flip = n - w
                within[w] = within[flip] = q
                # the lowest level's shifted weight is exactly 1, so q_0 = 1/Z_w
                log_weights[w] = log_weights[flip] = -math.log(q[0]) - e[0] / T
                energy[w] = energy[flip] = q @ e
                xx[flip], zz[flip], z[flip] = xx[w], zz[w], (-z[w] if flip != w else z[w])
            i, j = self.h_sites.T
            terms = np.concatenate((xx[:, i, j], zz[:, i, j], z[:, self.charge_sites]), axis=1)
            twice_m = n - 2.0 * np.arange(n + 1)
            for array in (twice_m, log_weights, energy, terms, xx, zz):
                array.setflags(write=False)
            sums = self._sums[T] = SectorSums(self, T, twice_m, log_weights, energy, terms, xx, zz, tuple(within))
        return sums

    @cached_property
    def site_blocks(self) -> tuple:
        """Each site's X_k between adjacent sectors, in the sector vectors.

        Entry (blocks, sector pairs): blocks[k] is W_r^T X_k W_c, and each
        (r, c) in sector pairs is a pair of sector indices whose vectors W_r
        and W_c these are.  X_k takes a state of w spins down with site k up
        to one of w + 1, so W_w^T X_k W_{w+1} gathers those rows of W_w and
        the rows of W_{w+1} they map to.  The global spin flip F commutes
        with X_k, and the sectors at m and -m are F of each other with one
        array of vectors.  So the pairs (w, w + 1) with w <= (n - 1)/2 carry
        blocks, and each flips to (n - w, n - w - 1), which comes as a
        further sector pair.
        """
        n = len(self.charge_sites)
        place = np.int64(1) << (n - 1 - np.arange(n, dtype=np.int64))
        sectors = self.sectors
        entries = []
        for w in range((n - 1) // 2 + 1):
            (lower, w_lower, _), (upper, w_upper, _) = sectors[w], sectors[w + 1]
            # the flipped sector lists its states in descending order
            order = np.argsort(upper)
            blocks = np.empty((n, len(w_lower), len(w_upper)))
            for k in range(n):
                up = np.flatnonzero((lower & place[k]) == 0)
                image = order[np.searchsorted(upper, lower[up] | place[k], sorter=order)]
                blocks[k] = w_lower[up].T @ w_upper[image]
            blocks.setflags(write=False)
            entries.append((blocks, ((w, w + 1),) if 2 * w + 1 == n else ((w, w + 1), (n - w, n - w - 1))))
        return tuple(entries)


@dataclass(frozen=True)
class SectorSums:
    """What each S^z sector of an SU(2)-symmetric H contributes at one temperature T, indexed by w = 0..n spins down.

    Within a sector every level of H - |mu| 2S^z moves by the same -|mu| z_w,
    z_w = `twice_m[w]`, so the populations within it are those of H alone:
    `within[w]` holds those of sector w, one array for m and -m.  With E0_w
    the sector's lowest level and ln Z_w(T) = ln sum_a exp(-(E_a - E0_w)/T)
    over it, `log_weights` holds ln Z_w - E0_w/T, the sector's log-weight at
    mu = 0; a state at |mu| adds |mu| z_w/T.  The state reads its means off
    the sums over each sector: `energy` holds the mean energy U_w, `xx` and
    `zz` the correlators <X_kX_l> = <Y_kY_l> and <Z_kZ_l> of every pair of
    sites, shape (n + 1, n, n) with 1 on the diagonal, and `terms` the
    correlators that the term means read: <XX> and then <ZZ> on each H
    term's sites, then <Z> on each charge term's site.  `z_pairs`, which the
    sampled Hessian reads, is built on first use.
    """

    spin: SpinLevels
    temperature: float
    twice_m: np.ndarray
    log_weights: np.ndarray
    energy: np.ndarray
    terms: np.ndarray
    xx: np.ndarray
    zz: np.ndarray
    within: tuple[np.ndarray, ...]

    @cached_property
    def z_pairs(self) -> np.ndarray:
        """sum_ab LM(q_a, q_b) (Z_k)_ab (Z_l)_ab over the level pairs of each sector, for all (k, l): (n + 1, n, n).

        q are the populations `within` and LM their logarithmic mean, which
        is (q_a + q_b) phi(omega_ab)/2 with phi the tent characteristic of
        the sampled Hessian.  Z_k = 1 - 2 n_k, with n_k the projector onto
        site k down, so its block W^T Z_k W is gathered from the rows of the
        sector vectors W with site k down.  The global spin flip negates Z_k
        and maps sector w onto n - w with the same vectors, so the two share
        one sum.  The blocks are not kept.
        """
        spin = self.spin
        n = len(spin.charge_sites)
        place = np.int64(1) << (n - 1 - np.arange(n, dtype=np.int64))
        sums = np.empty((n + 1, n, n))
        for w in range(n // 2 + 1):
            states, vecs, energies = spin.sectors[w]
            blocks = np.empty((n, len(vecs), len(vecs)))
            for k in range(n):
                down = vecs[(states & place[k]) != 0]
                blocks[k] = -2.0 * (down.T @ down)
                blocks[k][np.diag_indices(len(vecs))] += 1.0
            flat = blocks.reshape(n, -1)
            kernel = _logarithmic_mean_matrix(energies, self.within[w], self.temperature)
            sums[w] = sums[n - w] = (flat * kernel.ravel()) @ flat.T
        sums.setflags(write=False)
        return sums


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
    couplings, sites and axis of each term of H, site of each charge term).
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
    couplings: dict[tuple[int, ...], float] = {}
    h_sites, h_axes = [], []
    for coeff, word in system.hamiltonian.terms:
        sites = tuple(k for k, letter in enumerate(word.letters) if letter)
        letters = {word.letters[k] for k in sites}
        if len(sites) != 2 or len(letters) != 1:
            raise NumericalIntegrityError(f"term {word} of an SU(2)-symmetric H is not an exchange XX, YY or ZZ")
        h_sites.append(sites)
        couplings[sites] = coeff
        h_axes.append(letters.pop() - 1)
    # the three charges order their terms alike, by the site of their one letter
    charge_sites = [word.letters.index(1) for _, word in system.charges[0].terms]
    return (
        np.array(list(couplings), dtype=np.int64).reshape(-1, 2),
        np.array(list(couplings.values())),
        np.array(h_sites, dtype=np.intp).reshape(-1, 2),
        np.array(h_axes, dtype=np.intp),
        np.array(charge_sites, dtype=np.intp),
    )


def _sector_blocks(system: ThermoSystem) -> EigenBlocks:
    """H of an SU(2)-symmetric system diagonalized on its S^z sectors.

    A basis state with w spins down (bits set, site 0 the most significant
    bit) has 2m = n - 2w.  On it Z_iZ_j is +-1, and X_iX_j + Y_iY_j moves
    the pair's two spins into each other's places with weight 2 when they
    differ and gives 0 when they agree, so H is real on each sector and
    takes one `eigh` for each m >= 0.  The global spin flip maps the sector
    m onto -m with the same vectors and energies.
    Raises ResourceError above MAX_SECTOR_QUBITS qubits.
    """
    n = system.n_qubits
    if n > MAX_SECTOR_QUBITS:
        raise ResourceError(f"{n} qubits exceeds the S^z sector limit of {MAX_SECTOR_QUBITS}")
    edges, couplings, h_sites, h_axes, charge_sites = _exchange_terms(system)
    place = np.int64(1) << (n - 1 - np.arange(n, dtype=np.int64))
    states = np.arange(2**n, dtype=np.int64)
    spins = 1 - 2 * ((states[:, None] & place) != 0)
    pair_spins = spins[:, edges[:, 0]] * spins[:, edges[:, 1]]
    diagonal = pair_spins @ couplings
    flips = place[edges[:, 0]] | place[edges[:, 1]]
    down = np.count_nonzero(spins < 0, axis=1)
    sectors = [None] * (n + 1)
    for w in range(n // 2 + 1):
        basis = np.flatnonzero(down == w)
        size = len(basis)
        h = np.zeros((size, size))
        h[np.arange(size), np.arange(size)] = diagonal[basis]
        rows, edge = np.nonzero(pair_spins[basis] < 0)
        cols = np.searchsorted(basis, basis[rows] ^ flips[edge])
        h[rows, cols] = 2.0 * couplings[edge]
        vals, vecs = np.linalg.eigh(h)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        sectors[w] = (basis, vecs, vals)
        sectors[n - w] = ((2**n - 1) ^ basis, vecs, vals) if 2 * w < n else sectors[w]
    for array in (h_sites, h_axes, charge_sites):
        array.setflags(write=False)
    spin = SpinLevels(h_sites, h_axes, charge_sites, tuple(sectors))
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

    A dense state holds the `spectrum` of its one `eigh`: its levels in
    ascending order, with their eigenvectors as columns in the computational
    basis, and `block_populations` holds their populations.  A frame state
    holds only mu, T and its frame, and has neither (both None); everything
    else is computed on first use.  An SU(2)-symmetric state's means, ln Z
    and exact Hessian read only its n + 1 sector weights (`_sectors`), and a
    stabilizer state's come from its syndromes and its 2^k logical problem.
    Nothing outside a state writes into it.
    """

    mu: np.ndarray
    temperature: float
    blocks: EigenBlocks
    spectrum: SpectralDecomposition | None

    @_cached
    def block_populations(self) -> np.ndarray | None:
        return None if self.spectrum is None else _populations(self.spectrum.eigenvalues, self.temperature)

    @_cached
    def _radius(self) -> float:
        """|mu|: a rotation takes H - mu.Q to H - |mu| 2S^z."""
        return math.hypot(*self.mu.tolist())

    @_cached
    def _sectors(self) -> tuple[SectorSums, np.ndarray, float]:
        """The sector sums at T of an SU(2)-symmetric state, the population of each sector and ln Z.

        Sector w has log-weight ln Z_w - (E0_w - |mu| z_w)/T; the largest is
        shifted to 0, so ln Z is it plus the log of the shifted sum.
        """
        sums = self.blocks.spin.sector_sums(self.temperature)
        # in place: n + 1 entries, where each NumPy call costs more than its arithmetic
        weights = sums.twice_m * (self._radius / self.temperature)
        weights += sums.log_weights
        top = np.maximum.reduce(weights)
        weights -= top
        np.exp(weights, out=weights)
        total = np.add.reduce(weights)
        weights /= total
        return sums, weights, float(top + math.log(total))

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
        r = self._radius
        return self.mu / r if r > 0.0 else np.array([0.0, 0.0, 1.0])

    @_cached
    def _z_per_mu(self) -> float:
        """<z>/|mu| of z = 2S^z in the rotated frame of an SU(2)-symmetric system.

        The partner n - w of each sector w at z > 0 holds its population P
        times e^{-2|mu|z/T}, so <z>/|mu| is the sum over those sectors of
        z P (1 - e^{-2|mu|z/T})/|mu|, with no cancellation as |mu| -> 0,
        where it tends to Var(z)/T.
        """
        sums, p, _ = self._sectors
        T, r = self.temperature, self._radius
        # the sectors w < n/2 have z > 0
        up = len(p) // 2
        z = sums.twice_m[:up]
        if r > 0.0:
            return float(np.expm1(z * (-2.0 * r / T)).dot(z * p[:up])) / -r
        return float(z.dot(z * p[:up])) * 2.0 / T

    @_cached
    def _means(self) -> np.ndarray:
        """Tr[X rho] for X = H, Q_1, ..., from the dense rho, the rotated or the logical frame."""
        if self.blocks.spin is not None:
            sums, p, _ = self._sectors
            means = np.empty(1 + len(self.mu))
            means[0] = p.dot(sums.energy)
            # <Q> = (mu/|mu|) <z>
            np.multiply(self.mu, self._z_per_mu, out=means[1:])
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
        their sectors (`_sector_term_means`), and stabilizer systems off the
        syndromes and the charge means.
        """
        spin = self.blocks.spin
        if spin is not None:
            sums, p, _ = self._sectors
            return _sector_term_means(spin, p @ sums.terms, self._axis)
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
        if self.spectrum is None:
            rho = _dense_effective(self.blocks.observables, self.mu)
            levels, vecs = np.linalg.eigh(rho)
            p = _populations(levels, self.temperature)
        else:
            p, vecs = self.block_populations, self.spectrum.eigenvectors
        occupied = p > 0.0
        vecs = vecs[:, occupied]
        rho = np.matmul(vecs * p[occupied], vecs.conj().T, out=rho)
        rho += rho.conj().T
        rho /= 2.0
        rho.setflags(write=False)
        return rho


def stacked_term_means(states) -> np.ndarray:
    """`term_means` of a stack of states of one system at one temperature, one row each.

    Stabilizer states on single-qubit axes compute theirs together
    (`LogicalFrame.axis_means`), each row bit for bit what the state's own
    `term_means` gives; any other stack reads each state's.
    """
    frame = states[0].blocks.logical
    if frame is not None and frame.axes is not None:
        T = states[0].temperature
        return frame.term_means(frame.axis_means(np.array([state.mu for state in states]), T), T)
    return np.array([state.term_means for state in states])


def _sector_term_means(spin: SpinLevels, weighted: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """The Pauli-term means of an SU(2)-symmetric state, from `SectorSums.terms` weighted by its sectors and its axis n = mu/|mu|.

    In the rotated frame rho is diagonal on the sector levels, and U^dag
    sigma^c U = sum_d R_cd sigma^d with R_cz = n_c.  Between the real sector
    states only <XX> = <YY> and <ZZ> of one pair survive, so a term of axis c
    on an edge has mean cx + (cz - cx) n_c^2, where cx and cz are those two
    correlators weighted by the populations, and a charge term sigma^c_i
    has mean n_c <Z_i>.
    """
    terms = len(spin.h_axes)
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
    if blocks.operators is None:
        # everything of a frame state is computed when it is read
        return ThermalState(mu, float(T), blocks, None)
    # the stacked operators, not `_dense_effective`: a sum charge by charge rounds differently
    d = system.dimension
    spectrum = SpectralDecomposition.of((blocks.operators[0] - mu @ blocks.operators[1:]).reshape(d, d))
    return ThermalState(mu, float(T), blocks, spectrum)


def log_partition(state: ThermalState) -> float:
    """ln Tr[exp(-(H - mu.Q)/T)], read off the state's normalizer.

    The lowest level, level 0 of an ascending `eigh`, has shifted weight
    exactly 1, so its population is 1/sum(w) and ln Z = -lambda_0/T - ln p_0.
    An SU(2)-symmetric state sums its sector weights (`ThermalState._sectors`),
    and a stabilizer state adds ln 2cosh(h_j/T) per generator to ln Z of its
    2^k logical problem.
    """
    if state.blocks.spin is not None:
        return state._sectors[2]
    frame = state.blocks.logical
    T = state.temperature
    if frame is not None:
        vals, _, p = state._logical_spectrum
        return float(np.sum(_log_2cosh(frame.h / T))) + float(-vals[0] / T - np.log(p[0]))
    return float(-state.spectrum.eigenvalues[0] / T - np.log(state.block_populations[0]))


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
    which is -Var(z)/T I at mu = 0.  Var(z) is summed over the sectors about
    the mean, and <z>/|mu| is `ThermalState._z_per_mu`.

    A stabilizer state's charges act on its logical factor alone, and
    LM(p_s p_a, p_s p_b) = p_s LM(p_a, p_b), so the pair sum is that of the
    2^k logical problem, over the levels of its one `eigh`.
    """
    if state.blocks.spin is not None:
        sums, p, _ = state._sectors
        per_mu, r = state._z_per_mu, state._radius
        centered = sums.twice_m - r * per_mu
        variance = float(p @ (centered * centered)) / state.temperature
        n = state.mu / r if r > 0.0 else np.zeros_like(state.mu)
        return -(per_mu * np.eye(len(n)) + (variance - per_mu) * np.outer(n, n))
    T = state.temperature
    frame = state.blocks.logical
    if frame is not None:
        vals, vecs, p = state._logical_spectrum
        charges = frame.words
    else:
        vals, vecs, p = state.spectrum.eigenvalues, state.spectrum.eigenvectors, state.block_populations
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
