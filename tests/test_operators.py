import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermodual.errors import NumericalIntegrityError, ResourceError
from thermodual.models import build_heisenberg
from thermodual.operators import (
    PAULI_MATRICES,
    Observable,
    PauliString,
    commutes,
    expectation,
    parse_pauli,
    pauli_product,
)

from conftest import SIGMAS, dense_word, random_density

pauli_strings = st.builds(
    PauliString,
    letters=st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
    phase_power=st.integers(0, 3),
)


def paired(draw_n=st.integers(1, 4)):
    return draw_n.flatmap(
        lambda n: st.tuples(
            st.builds(
                PauliString,
                letters=st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple),
                phase_power=st.integers(0, 3),
            ),
            st.builds(
                PauliString,
                letters=st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple),
                phase_power=st.integers(0, 3),
            ),
        )
    )


class TestPauliProduct:
    def test_xy_is_iz(self):
        result = pauli_product(parse_pauli("X"), parse_pauli("Y"))
        assert result.letters == (3,)
        assert result.phase == 1j

    def test_squares_to_identity(self):
        word = parse_pauli("XZ")
        result = pauli_product(word, word)
        assert result.is_identity()
        assert result.phase == 1

    def test_xy_times_yy_matches_dense(self):
        a = parse_pauli("XY")
        b = parse_pauli("YY")
        prod = pauli_product(a, b)
        expected = dense_word(a.letters) @ dense_word(b.letters)
        assert np.max(np.abs(prod.to_dense() - expected)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            pauli_product(parse_pauli("X"), parse_pauli("XX"))

    @settings(max_examples=200, deadline=None)
    @given(paired())
    def test_dense_homomorphism(self, pair):
        a, b = pair
        prod = pauli_product(a, b)
        oracle = dense_word(a.letters, a.phase) @ dense_word(b.letters, b.phase)
        assert np.max(np.abs(prod.to_dense() - oracle)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(paired())
    def test_commutation_predicate_matches_dense(self, pair):
        a, b = pair
        da, db = dense_word(a.letters), dense_word(b.letters)
        dense_commute = np.max(np.abs(da @ db - db @ da)) < 1e-12
        assert commutes(a, b) == dense_commute


class TestParseFormat:
    def test_default_sign(self):
        p = parse_pauli("XIZY")
        assert p.letters == (1, 0, 3, 2) and p.phase == 1

    def test_negative_sign(self):
        assert parse_pauli("-Z").phase == -1

    def test_round_trip(self):
        for text in ("+XIZY", "-YY", "+I"):
            assert str(parse_pauli(text)) == text

    def test_rejects_garbage(self):
        for bad in ("", "A", "X Y", "24"):
            with pytest.raises(ValueError):
                parse_pauli(bad)


class TestObservable:
    def test_single_z_dense(self):
        obs = Observable(1, [(1.0, parse_pauli("Z"))])
        assert np.array_equal(obs.to_dense(), np.diag([1.0 + 0j, -1.0 + 0j]))

    def test_empty_is_zero_matrix(self):
        obs = Observable(2, [])
        assert np.array_equal(obs.to_dense(), np.zeros((4, 4)))

    def test_heisenberg_pair_spectrum(self):
        obs = Observable.from_strings(2, [(1.0, "XX"), (1.0, "YY"), (1.0, "ZZ")])
        eigs = np.sort(np.linalg.eigvalsh(obs.to_dense()))
        assert np.allclose(eigs, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_dense_cache_idempotent(self):
        obs = Observable.from_strings(2, [(0.5, "XZ")])
        first = obs.to_dense()
        assert obs.to_dense() is first

    def test_pickle_carries_terms_not_caches(self):
        system = build_heisenberg("line", n=8)
        obs = system.hamiltonian
        dense, norm = obs.to_dense(), obs.spectral_norm
        copy = pickle.loads(pickle.dumps(obs))
        assert copy == obs
        assert len(pickle.dumps(obs)) < 10_000  # the dense matrix alone is 1 MiB
        assert np.array_equal(copy.to_dense(), dense) and copy.spectral_norm == norm

    def test_canonical_merge_and_order(self):
        a = Observable.from_strings(2, [(1.0, "ZI"), (2.0, "XI"), (0.5, "ZI")])
        b = Observable.from_strings(2, [(2.0, "XI"), (1.5, "ZI")])
        assert a == b
        assert [w.letters for _, w in a.terms] == sorted(w.letters for _, w in a.terms)

    def test_phase_folding(self):
        # -i * (iZ) = Z: imaginary pieces must cancel into a real coefficient
        word = PauliString((3,), phase_power=1)
        obs = Observable(1, [(-1j, word)])
        assert obs.terms == ((1.0, PauliString((3,))),)

    def test_imaginary_coefficient_rejected(self):
        with pytest.raises(NumericalIntegrityError):
            Observable(1, [(1j, parse_pauli("Z"))])

    def test_dimension_cap(self):
        obs = Observable(11, [(1.0, PauliString((0,) * 11))])
        with pytest.raises(ResourceError):
            obs.to_dense()


def kron_sum(obs):
    """Reference dense matrix of an observable: its terms' kron products, added in term order."""
    out = np.zeros((obs.dimension, obs.dimension), dtype=complex)
    for coeff, word in obs.terms:
        out += coeff * dense_word(word.letters)
    return out


def action_matrix(cols, factors):
    """Dense matrix of one word from its basis action: |j> -> factors[j] |cols[j]>."""
    dim = len(cols)
    out = np.zeros((dim, dim), dtype=complex)
    out[cols, np.arange(dim)] = factors
    return out


class TestPauliAction:
    def test_all_three_qubit_words_match_dense(self):
        words = [PauliString(tuple(int(c) for c in np.base_repr(k, 4).zfill(3))) for k in range(64)]
        obs = Observable(3, [(float(k + 1), w) for k, w in enumerate(words)])
        cols, factors = obs.pauli_action()
        assert cols.shape == factors.shape == (64, 8)
        for (_, word), c, f in zip(obs.terms, cols, factors):
            reference = dense_word(word.letters)
            assert np.array_equal(action_matrix(c, f), reference), str(word)
            assert np.array_equal(word.to_dense(), reference), str(word)
        assert np.array_equal(obs.to_dense(), kron_sum(obs))

    def test_random_six_qubit_words_match_dense(self, rng):
        letters = {tuple(int(v) for v in rng.integers(0, 4, size=6)) for _ in range(40)}
        obs = Observable(6, [(1.0, PauliString(l)) for l in sorted(letters)])
        cols, factors = obs.pauli_action()
        for (_, word), c, f in zip(obs.terms, cols, factors):
            reference = dense_word(word.letters)
            assert np.array_equal(c, np.arange(64) ^ c[0])
            assert np.array_equal(action_matrix(c, f), reference), str(word)
            for phase_power in range(4):
                signed = PauliString(word.letters, phase_power)
                assert np.array_equal(signed.to_dense(), dense_word(word.letters, signed.phase))

    def test_single_qubit_matrices_match_the_oracle(self):
        assert len(PAULI_MATRICES) == len(SIGMAS)
        for ours, reference in zip(PAULI_MATRICES, SIGMAS):
            assert ours.dtype == reference.dtype
            assert np.array_equal(ours, reference)

    def test_line8_observables_match_kron_sum(self):
        system = build_heisenberg("line", n=8, nnn=True, lam=0.5)
        for obs in (system.hamiltonian, system.charges[1]):
            assert np.array_equal(obs.to_dense(), kron_sum(obs))

    def test_cached_read_only_and_lazy(self):
        obs = Observable.from_strings(2, [(0.5, "XY"), (1.0, "ZI")])
        assert obs._action is None
        first = obs.pauli_action()
        assert obs.pauli_action() is first
        assert not first[0].flags.writeable and not first[1].flags.writeable
        assert obs._dense is None  # no dense matrix was built

    def test_trace_against_dense(self, rng):
        rho = random_density(rng, 16)
        obs = Observable.from_strings(4, [(1.0, "XYZI"), (1.0, "YYII"), (1.0, "IZXZ")])
        cols, factors = obs.pauli_action()
        for (_, word), c, f in zip(obs.terms, cols, factors):
            via_action = np.sum(f * rho[np.arange(16), c])
            assert via_action == pytest.approx(np.trace(word.to_dense() @ rho), abs=1e-14)


class TestExpectation:
    def test_z_on_ground(self):
        obs = Observable.from_strings(1, [(1.0, "Z")])
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert expectation(obs, rho) == pytest.approx(1.0, abs=1e-15)

    def test_traceless_on_maximally_mixed(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            letters = tuple(int(v) for v in rng.integers(0, 4, size=3))
            if all(l == 0 for l in letters):
                continue
            obs = Observable(3, [(1.0, PauliString(letters))])
            assert expectation(obs, np.eye(8, dtype=complex) / 8) == pytest.approx(0.0, abs=1e-12)

    def test_matches_elementwise_trace(self, rng):
        rho = random_density(rng, 8)
        x_tot = Observable(3, [(1.0, PauliString.single(3, j, 1)) for j in range(3)])
        dense = x_tot.to_dense()
        direct = sum(dense[i, j] * rho[j, i] for i in range(8) for j in range(8)).real
        assert expectation(x_tot, rho) == pytest.approx(direct, abs=1e-12)

    def test_linearity(self, rng):
        rho = random_density(rng, 4)
        a = Observable.from_strings(2, [(0.7, "XZ"), (-0.3, "YI")])
        b = Observable.from_strings(2, [(1.1, "ZZ")])
        combined = Observable(2, list(a.terms) + [(2.0 * c, w) for c, w in b.terms])
        lhs = expectation(combined, rho)
        rhs = expectation(a, rho) + 2.0 * expectation(b, rho)
        assert lhs == pytest.approx(rhs, abs=1e-12)
