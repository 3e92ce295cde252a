"""Model builders: Heisenberg systems on lines and grids, and stabilizer systems.

A ThermoSystem bundles a Hamiltonian, a tuple of Hermitian charges, and the
constraint targets the optimizer should meet.  Heisenberg models take the
total X/Y/Z magnetizations as charges; stabilizer systems take products of a
code's logical operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ConfigError
from .operators import Observable, PauliString, commutator_residual, commutes, parse_pauli, pauli_product


def conservation_tolerance(hamiltonian: Observable) -> float:
    """The largest part of [H, Q] that still counts as conserved: 1e-12 of max(1, sum_a |h_a|).

    sum_a |h_a| bounds both ||H|| and every entry of H.
    """
    return 1e-12 * max(1.0, float(np.sum(np.abs(hamiltonian.coefficients))))


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, k]] stabilizer code given by generators and logical X/Z pairs."""

    name: str
    n: int
    k: int
    stabilizer_generators: tuple[PauliString, ...]
    logical_x: tuple[PauliString, ...]
    logical_z: tuple[PauliString, ...]

    def __post_init__(self):
        if len(self.stabilizer_generators) != self.n - self.k:
            raise ValueError("need exactly n-k stabilizer generators")
        if len(self.logical_x) != self.k or len(self.logical_z) != self.k:
            raise ValueError("need k logical X and k logical Z operators")
        gens = self.stabilizer_generators
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                if not commutes(gens[a], gens[b]):
                    raise ValueError(f"generators {a} and {b} do not commute")
        self._check_independent()
        for i, xi in enumerate(self.logical_x):
            for j, zj in enumerate(self.logical_z):
                want = i != j
                if commutes(xi, zj) != want:
                    raise ValueError(f"bad commutation between X-bar_{i} and Z-bar_{j}")
        for i in range(self.k):
            for j in range(i + 1, self.k):
                if not commutes(self.logical_x[i], self.logical_x[j]):
                    raise ValueError("logical X operators must commute pairwise")
                if not commutes(self.logical_z[i], self.logical_z[j]):
                    raise ValueError("logical Z operators must commute pairwise")
        for L in (*self.logical_x, *self.logical_z):
            for s in gens:
                if not commutes(L, s):
                    raise ValueError(f"logical operator {L} leaves the normalizer")

    def _check_independent(self):
        # exact subset-product check: no nontrivial subset multiplies to +-identity
        gens = self.stabilizer_generators
        for mask in range(1, 1 << len(gens)):
            prod = PauliString.identity(self.n)
            for idx, g in enumerate(gens):
                if mask & (1 << idx):
                    prod = pauli_product(prod, g)
            if prod.is_identity():
                raise ValueError("stabilizer generators are not independent")

    def logical_y(self, i: int) -> PauliString:
        """Y-bar_i = i * X-bar_i * Z-bar_i."""
        prod = pauli_product(self.logical_x[i], self.logical_z[i])
        return PauliString(prod.letters, (prod.phase_power + 1) % 4)

    def logical(self, i: int, letter: int) -> PauliString:
        """Logical sigma on encoded qubit i; letter in {0:I, 1:X, 2:Y, 3:Z}."""
        if letter == 0:
            return PauliString.identity(self.n)
        if letter == 1:
            return self.logical_x[i]
        if letter == 2:
            return self.logical_y(i)
        if letter == 3:
            return self.logical_z[i]
        raise ValueError(f"invalid logical letter {letter}")


@dataclass(frozen=True)
class ThermoSystem:
    """Hamiltonian, charge tuple, and constraint targets of one problem instance.

    Stabilizer systems also keep each charge's logical word in `charge_words`.
    `su2_symmetric` marks a Hamiltonian of two-site exchange terms, which
    commutes with global spin rotations, and charges that are the total
    magnetizations 2 S^x, 2 S^y, 2 S^z, in that order.  `conserved` marks
    charges that commute with H, which construction checks in the Pauli
    algebra.  A system also keeps the frame that `gibbs` builds on first use:
    the S^z sectors of a conserved SU(2)-symmetric H, the logical frame of a
    conserved code, or else H and the charges as dense matrices; it is never
    compared or pickled.
    """

    hamiltonian: Observable
    charges: tuple[Observable, ...]
    targets: tuple[float, ...]
    label: str = ""
    conserved: bool = False
    code: StabilizerCode | None = field(default=None, compare=False)
    charge_words: tuple[tuple[int, ...], ...] | None = field(default=None, compare=False)
    su2_symmetric: bool = field(default=False, compare=False)
    _eigen_blocks: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.targets) != len(self.charges):
            raise ConfigError(
                f"{len(self.targets)} targets for {len(self.charges)} charges"
            )
        for q in self.charges:
            if q.n != self.hamiltonian.n:
                raise ValueError("charge and Hamiltonian sizes differ")
        if self.conserved:
            tolerance = conservation_tolerance(self.hamiltonian)
            for i, q in enumerate(self.charges):
                err = commutator_residual(self.hamiltonian, q)
                if err > tolerance:
                    raise ValueError(f"charge {i} is not conserved: [H,Q] = {err:.3e}")

    def __getstate__(self):
        # the blocks refill on demand with the same bits, so a pickle carries none
        return {**self.__dict__, "_eigen_blocks": None}

    @property
    def n_qubits(self) -> int:
        return self.hamiltonian.n

    @property
    def dimension(self) -> int:
        return self.hamiltonian.dimension

    @property
    def n_charges(self) -> int:
        return len(self.charges)


def _heisenberg_edges(geometry, n, rows, cols, nnn, J, lam) -> tuple[int, list]:
    """Site count and (i, j, coupling) edges of a line of n sites or a rows x cols lattice, never both."""
    if geometry == "line":
        if rows is not None or cols is not None:
            raise ConfigError("line geometry takes n, not rows or cols")
        if n is None or n < 2:
            raise ConfigError("line geometry needs n >= 2")
        edges = [(i, i + 1, J) for i in range(n - 1)]
        if nnn:
            edges += [(i, i + 2, lam * J) for i in range(n - 2)]
        return n, edges
    if geometry != "grid":
        raise ConfigError(f"unknown geometry {geometry!r}")
    if n is not None:
        raise ConfigError("grid geometry takes rows and cols, not n")
    if rows is None or cols is None or min(rows, cols) < 1 or rows * cols < 2:
        raise ConfigError("grid geometry needs rows, cols >= 1 with rows*cols >= 2")
    if nnn and (rows < 2 or cols < 2):
        raise ConfigError("diagonal neighbors need at least a 2x2 grid")
    idx = lambda r, c: r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1), J))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c), J))
            if nnn and r + 1 < rows and c + 1 < cols:
                edges.append((idx(r, c), idx(r + 1, c + 1), lam * J))
                edges.append((idx(r, c + 1), idx(r + 1, c), lam * J))
    return rows * cols, edges


def build_heisenberg(
    geometry: str = "line",
    n: int | None = None,
    rows: int | None = None,
    cols: int | None = None,
    nnn: bool = False,
    J: float = 1.0,
    lam: float = 0.5,
    targets=(0.0, 0.0, 0.0),
) -> ThermoSystem:
    """Exchange model sum_edges J_ij (XX + YY + ZZ) with total-magnetization charges.

    Next-to-nearest neighbors (line: distance-2 pairs; grid: the diagonals of
    each unit cell) enter with coupling lam * J.
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"coupling ratio {lam} outside [0, 1]")
    sites, edges = _heisenberg_edges(geometry, n, rows, cols, nnn, J, lam)
    terms = []
    for i, j, w in edges:
        for letter in (1, 2, 3):
            word = [0] * sites
            word[i] = letter
            word[j] = letter
            terms.append((w, PauliString(tuple(word))))
    hamiltonian = Observable(sites, terms)
    charges = tuple(
        Observable(sites, [(1.0, PauliString.single(sites, j, letter)) for j in range(sites)])
        for letter in (1, 2, 3)
    )
    tag = f"{geometry}-{sites}q" + ("-nnn" if nnn else "-nn")
    return ThermoSystem(
        hamiltonian,
        charges,
        tuple(float(t) for t in targets),
        label=f"heisenberg-{tag}",
        conserved=True,
        su2_symmetric=True,
    )


_BUILTIN_CODES = {
    "repetition3": dict(
        n=3,
        k=1,
        generators=("ZZI", "IZZ"),
        logical_x=("XXX",),
        logical_z=("ZII",),
    ),
    "perfect5": dict(
        n=5,
        k=1,
        generators=("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"),
        logical_x=("XXXXX",),
        logical_z=("ZZZZZ",),
    ),
    "detect422": dict(
        n=4,
        k=2,
        generators=("XXXX", "ZZZZ"),
        logical_x=("XXII", "XIXI"),
        logical_z=("IZIZ", "IIZZ"),
    ),
}


def builtin_code(name: str) -> StabilizerCode:
    """One of the built-in codes: repetition3, perfect5, detect422."""
    try:
        spec = _BUILTIN_CODES[name]
    except KeyError:
        raise ConfigError(
            f"unknown code {name!r}; known: {sorted(_BUILTIN_CODES)}"
        ) from None
    return StabilizerCode(
        name=name,
        n=spec["n"],
        k=spec["k"],
        stabilizer_generators=tuple(parse_pauli(w) for w in spec["generators"]),
        logical_x=tuple(parse_pauli(w) for w in spec["logical_x"]),
        logical_z=tuple(parse_pauli(w) for w in spec["logical_z"]),
    )


def codespace_projector(code: StabilizerCode) -> np.ndarray:
    """Projector prod_i (I + S_i)/2 onto the simultaneous +1 eigenspace."""
    dim = 2**code.n
    eye = np.eye(dim, dtype=complex)
    factors = [(eye + g.to_dense()) / 2.0 for g in code.stabilizer_generators]
    return reduce(np.matmul, factors, eye)


def logical_pauli_product(code: StabilizerCode, indices) -> Observable:
    """Product of per-encoded-qubit logical sigmas as a single-word observable.

    indices is a length-k tuple over {0,1,2,3}; Y-bars are formed as
    i * X-bar * Z-bar, and the assembled word always lands on phase +-1.
    """
    indices = tuple(int(i) for i in indices)
    if len(indices) != code.k or any(i not in (0, 1, 2, 3) for i in indices):
        raise ValueError(f"indices {indices} invalid for k={code.k}")
    word = PauliString.identity(code.n)
    for qubit, letter in enumerate(indices):
        word = pauli_product(word, code.logical(qubit, letter))
    return Observable(code.n, [(1.0, word)])


def charge_word_from_string(code: StabilizerCode, digits: str) -> tuple[int, ...]:
    """Parse a digit string like '22' into a logical index tuple."""
    if len(digits) != code.k or any(ch not in "0123" for ch in digits):
        raise ConfigError(
            f"charge word {digits!r} must be {code.k} digits over 0..3"
        )
    return tuple(int(ch) for ch in digits)


def build_stabilizer_system(code: StabilizerCode, charge_spec) -> ThermoSystem:
    """System with H = -sum S_i and one logical-product charge per charge_spec entry.

    charge_spec is an iterable of (indices, target) pairs, indices being a
    length-k tuple over {0,1,2,3}; the all-identity tuple is not a charge.
    """
    words = []
    targets = []
    seen = set()
    for indices, target in charge_spec:
        indices = tuple(int(i) for i in indices)
        if all(i == 0 for i in indices):
            raise ConfigError("the identity word cannot be a charge")
        if indices in seen:
            raise ConfigError(f"duplicate charge word {indices}")
        seen.add(indices)
        words.append(indices)
        targets.append(float(target))
    hamiltonian = Observable(
        code.n, [(-1.0, g) for g in code.stabilizer_generators]
    )
    charges = tuple(logical_pauli_product(code, w) for w in words)
    return ThermoSystem(
        hamiltonian,
        charges,
        tuple(targets),
        label=f"stabilizer-{code.name}",
        conserved=True,
        code=code,
        charge_words=tuple(words),
    )
