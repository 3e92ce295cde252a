"""Pauli-string algebra and dense Hermitian observables for n-qubit systems.

Phases are carried as exact integer powers of i, so products and commutation
checks never accumulate floating-point drift.  A word acts on each basis
state as a bit flip and a phase; every dense matrix is scattered from that
action, built on demand and cached.  Dense matrices are capped at
MAX_DENSE_QUBITS qubits; SU(2)-symmetric systems, which `gibbs` builds from
their S^z sectors, go further without them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError, ResourceError

MAX_DENSE_QUBITS = 10

# letter encoding: 0=I, 1=X, 2=Y, 3=Z
LETTERS = "IXYZ"

# single-site products sigma_a sigma_b = i^PHASE_TABLE[a,b] * sigma_LETTER_TABLE[a,b]
_LETTER_TABLE = np.zeros((4, 4), dtype=np.int8)
_PHASE_TABLE = np.zeros((4, 4), dtype=np.int8)
for _a in range(4):
    for _b in range(4):
        if _a == 0:
            _LETTER_TABLE[_a, _b] = _b
        elif _b == 0:
            _LETTER_TABLE[_a, _b] = _a
        elif _a == _b:
            _LETTER_TABLE[_a, _b] = 0
        else:
            _c = ({1, 2, 3} - {_a, _b}).pop()
            _LETTER_TABLE[_a, _b] = _c
            # XY=iZ, YZ=iX, ZX=iY form the cyclic (+i) orientation
            _PHASE_TABLE[_a, _b] = 1 if (_a, _b) in ((1, 2), (2, 3), (3, 1)) else 3

_PHASE_VALUES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _basis_action(letters: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(cols, factors) of shape (words, 2^n): word k maps |j> to factors[k, j] |cols[k, j]>.

    Each row of letters is one n-site word, phase excluded.  With site 0 as
    the most significant bit (kron order), a word with bit-flip mask x and
    phase mask z (Y sets both) has cols = j ^ x and
    factors = i^(#Y) (-1)^popcount(j & z).
    """
    bits = np.int64(1) << np.arange(n - 1, -1, -1, dtype=np.int64)
    x = ((letters == 1) | (letters == 2)) @ bits
    z = ((letters == 2) | (letters == 3)) @ bits
    n_y = np.count_nonzero(letters == 2, axis=1)
    basis = np.arange(2**n, dtype=np.int64)
    cols = basis[None, :] ^ x[:, None]
    # parity of popcount(j & z) by folding the bits onto bit 0
    parity = basis[None, :] & z[:, None]
    shift = 1
    while shift < n:
        parity ^= parity >> shift
        shift <<= 1
    signs = 1.0 - 2.0 * (parity & 1)
    return cols, np.array(_PHASE_VALUES)[n_y % 4][:, None] * signs


@dataclass(frozen=True)
class PauliString:
    """A signed n-site Pauli word: i^phase_power times a tensor product of I/X/Y/Z."""

    letters: tuple[int, ...]
    phase_power: int = 0

    def __post_init__(self):
        if len(self.letters) < 1:
            raise ValueError("PauliString needs at least one site")
        if any(l not in (0, 1, 2, 3) for l in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters}")
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def phase(self) -> complex:
        return _PHASE_VALUES[self.phase_power]

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return sum(1 for l in self.letters if l != 0)

    def is_identity(self) -> bool:
        return all(l == 0 for l in self.letters)

    def to_dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, scattered from the word's action on basis states."""
        cols, factors = _basis_action(np.array([self.letters]), self.n)
        dim = 2**self.n
        dense = np.zeros((dim, dim), dtype=complex)
        dense[cols[0], np.arange(dim)] = self.phase * factors[0]
        return dense

    def __str__(self) -> str:
        sign = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase_power]
        return sign + "".join(LETTERS[l] for l in self.letters)

    @staticmethod
    def identity(n: int) -> "PauliString":
        return PauliString((0,) * n)

    @staticmethod
    def single(n: int, site: int, letter: int) -> "PauliString":
        """Letter acting on one site, identities elsewhere."""
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        word = [0] * n
        word[site] = letter
        return PauliString(tuple(word))


# single-qubit I, X, Y, Z in letter order, from the same word action as every other matrix
PAULI_MATRICES = tuple(PauliString((l,)).to_dense() for l in range(4))


def pauli_product(a: PauliString, b: PauliString) -> PauliString:
    """Group product a*b with the accumulated integer phase."""
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    phase = a.phase_power + b.phase_power
    letters = []
    for la, lb in zip(a.letters, b.letters):
        letters.append(int(_LETTER_TABLE[la, lb]))
        phase += int(_PHASE_TABLE[la, lb])
    return PauliString(tuple(letters), phase % 4)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff ab = ba, decided by exact phase comparison."""
    return pauli_product(a, b).phase_power == pauli_product(b, a).phase_power


def commutator_residual(a: "Observable", b: "Observable") -> float:
    """The largest modulus of a Pauli coefficient of [a, b], summed word by word without matrices.

    Two words commute or anticommute, and [P, P'] = 2 P P' when they
    anticommute, where P P' is i^k times the word of the site-wise products.
    The phases k are exact integers, so terms that cancel leave exactly 0.
    """
    if not a.terms or not b.terms:
        return 0.0
    left = np.array([w.letters for _, w in a.terms], dtype=np.intp)[:, None, :]
    right = np.array([w.letters for _, w in b.terms], dtype=np.intp)[None, :, :]
    forward = np.sum(_PHASE_TABLE[left, right], axis=2, dtype=np.int64) % 4
    backward = np.sum(_PHASE_TABLE[right, left], axis=2, dtype=np.int64) % 4
    anticommuting = forward != backward
    if not anticommuting.any():
        return 0.0
    words = _LETTER_TABLE[left, right][anticommuting]
    values = (2.0 * np.outer(a.coefficients, b.coefficients) * np.array(_PHASE_VALUES)[forward])[anticommuting]
    _, word_index = np.unique(words, axis=0, return_inverse=True)
    # flat on every NumPy from the 1.24 floor on; 2.0.0 alone returned it as a column
    word_index = word_index.reshape(-1)
    sums = np.bincount(word_index, values.real) + 1j * np.bincount(word_index, values.imag)
    return float(np.max(np.abs(sums)))


def parse_pauli(text: str) -> PauliString:
    """Parse the textual word format '(+|-)?[IXYZ]+' (sign defaults to +)."""
    s = text.strip()
    phase_power = 0
    if s.startswith("+"):
        s = s[1:]
    elif s.startswith("-"):
        phase_power = 2
        s = s[1:]
    if not s or any(ch not in LETTERS for ch in s):
        raise ValueError(f"malformed Pauli word {text!r}")
    return PauliString(tuple(LETTERS.index(ch) for ch in s), phase_power)


class Observable:
    """A real-weighted sum of Pauli words with a cached dense Hermitian matrix.

    Terms are canonicalized: phases are folded into the coefficients (which
    must come out real), duplicate words are merged, and terms are sorted
    lexicographically on their letters so equality is structural.
    """

    __slots__ = ("n", "terms", "_dense", "_spectral_norm", "_action", "_coefficients")

    def __init__(self, n: int, terms):
        if n < 1:
            raise ValueError("need n >= 1")
        merged: dict[tuple[int, ...], float] = {}
        for coeff, word in terms:
            if word.n != n:
                raise ValueError(f"term on {word.n} sites in an {n}-site observable")
            value = complex(coeff) * word.phase
            if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
                raise NumericalIntegrityError(
                    f"non-Hermitian term {coeff} * {word}: coefficient {value}"
                )
            merged[word.letters] = merged.get(word.letters, 0.0) + value.real
        self.n = n
        self.terms = tuple(
            (merged[letters], PauliString(letters))
            for letters in sorted(merged)
            if merged[letters] != 0.0
        )
        self._dense = None
        self._spectral_norm = None
        self._action = None
        self._coefficients = None

    @property
    def dimension(self) -> int:
        return 2**self.n

    def to_dense(self) -> np.ndarray:
        """Dense 2^n x 2^n Hermitian matrix; cached, so repeat calls are free.

        Each term's word is scattered from its basis action (`pauli_action`),
        in term order.  The cache fill is idempotent (same bits every time),
        which keeps first-writer-wins races between readers harmless.
        """
        if self._dense is None:
            if self.n > MAX_DENSE_QUBITS:
                raise ResourceError(
                    f"{self.n} qubits exceeds the dense limit of {MAX_DENSE_QUBITS}"
                )
            dim = self.dimension
            basis = np.arange(dim)
            acc = np.zeros((dim, dim), dtype=complex)
            for (coeff, _), cols, factors in zip(self.terms, *self.pauli_action()):
                acc[cols, basis] += coeff * factors
            herm_err = np.max(np.abs(acc - acc.conj().T)) if self.terms else 0.0
            if herm_err > 1e-12:
                raise NumericalIntegrityError(f"dense matrix not Hermitian: {herm_err}")
            acc.setflags(write=False)
            self._dense = acc
        return self._dense

    def pauli_action(self) -> tuple[np.ndarray, np.ndarray]:
        """How each term's word acts on the computational basis, without matrices.

        Returns (cols, factors), each of shape (terms, 2^n): word k maps |j> to
        factors[k, j] |cols[k, j]> (see `_basis_action`).  Built on first use
        and cached; O(terms * 2^n) memory.
        """
        if self._action is None:
            letters = np.array([w.letters for _, w in self.terms], dtype=np.int64)
            cols, factors = _basis_action(letters.reshape(len(self.terms), self.n), self.n)
            cols.setflags(write=False)
            factors.setflags(write=False)
            self._action = (cols, factors)
        return self._action

    @property
    def coefficients(self) -> np.ndarray:
        """The real coefficient of each term, in term order; built on first use and cached."""
        if self._coefficients is None:
            coefficients = np.array([coeff for coeff, _ in self.terms], dtype=float)
            coefficients.setflags(write=False)
            self._coefficients = coefficients
        return self._coefficients

    @property
    def spectral_norm(self) -> float:
        if self._spectral_norm is None:
            if not self.terms:
                self._spectral_norm = 0.0
            else:
                eigs = np.linalg.eigvalsh(self.to_dense())
                self._spectral_norm = float(np.max(np.abs(eigs)))
        return self._spectral_norm

    def __getstate__(self):
        # the caches refill on demand with the same bits, so a pickle carries only the terms
        return self.n, self.terms

    def __setstate__(self, state):
        self.n, self.terms = state
        self._dense = self._spectral_norm = self._action = self._coefficients = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Observable)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.terms))

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*{str(w)[1:]}" for c, w in self.terms) or "0"
        return f"Observable({self.n}: {body})"

    @staticmethod
    def from_strings(n: int, weighted_words) -> "Observable":
        """Build from (coefficient, '±XIZY') pairs."""
        return Observable(n, [(c, parse_pauli(w)) for c, w in weighted_words])


def expectation(obs: Observable, rho: np.ndarray) -> float:
    """Tr[obs * rho] for a density matrix rho, with the imaginary residue checked."""
    dense = obs.to_dense()
    if rho.shape != dense.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape} vs obs {dense.shape}")
    value = complex(np.einsum("ij,ji->", dense, rho))
    if abs(value.imag) > 1e-10:
        raise NumericalIntegrityError(
            f"expectation has imaginary residue {value.imag:.3e}"
        )
    return value.real


def term_expectations(obs: Observable, rho: np.ndarray) -> np.ndarray:
    """Re Tr[P rho] for each term's word P, gathered from rho along the words' basis action.

    Tr[P rho] = sum_j factors[j] rho[j, cols[j]] (see `Observable.pauli_action`),
    so each term costs O(2^n) and no matrix is built.
    """
    cols, factors = obs.pauli_action()
    return np.sum(factors * rho[np.arange(obs.dimension), cols], axis=1).real
