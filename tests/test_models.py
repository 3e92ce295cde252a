import itertools

import numpy as np
import pytest

from thermodual.errors import ConfigError
from thermodual.models import (
    StabilizerCode,
    ThermoSystem,
    build_heisenberg,
    build_stabilizer_system,
    builtin_code,
    charge_word_from_string,
    codespace_projector,
    logical_pauli_product,
)
from thermodual.operators import Observable, PauliString, commutator_residual, commutes, parse_pauli


def _heisenberg_terms(kwargs) -> dict:
    """{letters: coefficient} of the exchange Hamiltonian, built pair by pair.

    Sites sit at (row, col) coordinates.  A pair at distance 1 couples with J;
    with nnn, a pair at the next-to-nearest offset (2 apart on a line, a
    unit-cell diagonal on a grid) couples with lam * J.
    """
    if kwargs["geometry"] == "line":
        positions = [(0, c) for c in range(kwargs["n"])]
        nnn_offset = (0, 2)
    else:
        positions = [(r, c) for r in range(kwargs["rows"]) for c in range(kwargs["cols"])]
        nnn_offset = (1, 1)
    J = kwargs.get("J", 1.0)
    couplings = {}
    for i, j in itertools.combinations(range(len(positions)), 2):
        offset = tuple(abs(a - b) for a, b in zip(positions[i], positions[j]))
        if sum(offset) == 1:
            couplings[(i, j)] = J
        elif kwargs.get("nnn", False) and offset == nnn_offset:
            couplings[(i, j)] = kwargs.get("lam", 0.5) * J
    terms = {}
    for (i, j), w in couplings.items():
        for letter in (1, 2, 3):
            word = [0] * len(positions)
            word[i] = word[j] = letter
            terms[tuple(word)] = w
    return terms


def _coupled_pairs(system) -> dict:
    """{(i, j): coupling} read off the Hamiltonian's XX terms."""
    pairs = {}
    for coeff, word in system.hamiltonian.terms:
        if set(word.letters) == {0, 1}:
            i, j = (k for k, letter in enumerate(word.letters) if letter)
            pairs[(i, j)] = coeff
    return pairs


class TestHeisenbergTerms:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(geometry="grid", rows=2, cols=3),
            dict(geometry="line", n=4, nnn=True, J=2.0, lam=0.25),
            dict(geometry="line", n=6, nnn=True),
            dict(geometry="grid", rows=2, cols=3, nnn=True),
            dict(geometry="line", n=8, J=-1.5),
            dict(geometry="grid", rows=3, cols=3),
        ],
        ids=["grid-2x3", "line-4-nnn", "line-6-nnn", "grid-2x3-nnn", "line-8-J-1.5", "grid-3x3"],
    )
    def test_terms_match_brute_force(self, kwargs):
        terms = build_heisenberg(**kwargs).hamiltonian.terms
        assert {word.letters: coeff for coeff, word in terms} == _heisenberg_terms(kwargs)

    def test_grid_2x3_nearest_neighbor_edges(self):
        system = build_heisenberg("grid", rows=2, cols=3)
        # brute-force adjacency count: 4 horizontal + 3 vertical
        expected = set()
        for r in range(2):
            for c in range(3):
                if c + 1 < 3:
                    expected.add((r * 3 + c, r * 3 + c + 1))
                if r + 1 < 2:
                    expected.add((r * 3 + c, (r + 1) * 3 + c))
        assert set(_coupled_pairs(system)) == expected and len(expected) == 7
        assert len(system.hamiltonian.terms) == 3 * 7

    def test_line_nnn_weights(self):
        system = build_heisenberg("line", n=4, nnn=True, J=2.0, lam=0.25)
        nnn = {pair: w for pair, w in _coupled_pairs(system).items() if pair[1] - pair[0] == 2}
        assert set(nnn) == {(0, 2), (1, 3)}
        assert all(w == pytest.approx(0.5) for w in nnn.values())


class TestHeisenberg:
    def test_two_site_ground_energy(self):
        system = build_heisenberg("line", n=2, J=1.0)
        eigs = np.linalg.eigvalsh(system.hamiltonian.to_dense())
        assert eigs[0] == pytest.approx(-3.0, abs=1e-12)

    def test_magnetizations_conserved(self):
        for kwargs in (
            dict(geometry="line", n=3),
            dict(geometry="line", n=4, nnn=True, lam=0.3),
            dict(geometry="grid", rows=2, cols=2, nnn=True),
        ):
            system = build_heisenberg(**kwargs)
            h = system.hamiltonian.to_dense()
            for q in system.charges:
                qd = q.to_dense()
                assert np.max(np.abs(h @ qd - qd @ h)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rng_seed", range(4))
    def test_pauli_conservation_check_matches_the_dense_commutator(self, rng_seed):
        # random Pauli sums: the largest Pauli coefficient of [H, Q] against the dense commutator's
        rng = np.random.default_rng(rng_seed)
        h, q = (
            Observable(3, [(float(rng.normal()), PauliString(tuple(rng.integers(0, 4, size=3)))) for _ in range(5)])
            for _ in range(2)
        )
        commutator = h.to_dense() @ q.to_dense() - q.to_dense() @ h.to_dense()
        coefficients = [
            abs(np.trace(PauliString(w).to_dense() @ commutator)) / 8 for w in itertools.product(range(4), repeat=3)
        ]
        assert commutator_residual(h, q) == pytest.approx(max(coefficients), abs=1e-12)

    def test_non_conserving_charge_is_refused(self):
        system = build_heisenberg("line", n=4, nnn=True)
        staggered = Observable(4, [((-1.0) ** k, PauliString.single(4, k, 3)) for k in range(4)])
        with pytest.raises(ValueError, match="charge 1 is not conserved"):
            ThermoSystem(system.hamiltonian, (system.charges[2], staggered), (0.0, 0.0), conserved=True)
        # a conserved charge has every coefficient of [H, Q] exactly zero
        assert all(commutator_residual(system.hamiltonian, q) == 0.0 for q in system.charges)

    def test_charges_are_site_sums(self):
        system = build_heisenberg("line", n=3)
        for letter, charge in zip((1, 2, 3), system.charges):
            assert len(charge.terms) == 3
            sites = set()
            for coeff, word in charge.terms:
                assert coeff == 1.0 and word.weight == 1
                site = next(k for k, l in enumerate(word.letters) if l != 0)
                assert word.letters[site] == letter
                sites.add(site)
            assert sites == {0, 1, 2}

    def test_nnn_grid_needs_two_rows(self):
        with pytest.raises(ConfigError):
            build_heisenberg("grid", rows=1, cols=4, nnn=True)

    @pytest.mark.parametrize("rows,cols", [(-1, -2), (-2, -3), (0, 3), (2, -1)])
    def test_grid_sizes_must_be_positive(self, rows, cols):
        with pytest.raises(ConfigError, match="rows, cols >= 1"):
            build_heisenberg("grid", rows=rows, cols=cols)

    def test_lambda_range(self):
        with pytest.raises(ConfigError):
            build_heisenberg("line", n=3, lam=1.5)


class TestBuiltinCodes:
    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            builtin_code("steane7")

    def test_perfect5_generators_commute(self):
        code = builtin_code("perfect5")
        gens = code.stabilizer_generators
        assert len(gens) == 4
        assert all(commutes(a, b) for a in gens for b in gens)

    def test_repetition3_logical_y(self):
        code = builtin_code("repetition3")
        assert str(code.logical_y(0)) == "+YXX"

    def test_perfect5_logical_y(self):
        code = builtin_code("perfect5")
        assert str(code.logical_y(0)) == "+YYYYY"

    def test_detect422_logical_ys(self):
        code = builtin_code("detect422")
        assert str(code.logical_y(0)) == "+XYIZ"
        assert str(code.logical_y(1)) == "+XIYZ"

    def test_detect422_logical_relations(self):
        code = builtin_code("detect422")
        assert not commutes(code.logical_x[0], code.logical_z[0])
        assert commutes(code.logical_x[0], code.logical_z[1])

    def test_all_codes_validate(self):
        for name in ("repetition3", "perfect5", "detect422"):
            code = builtin_code(name)
            for L in (*code.logical_x, *code.logical_z):
                assert all(commutes(L, s) for s in code.stabilizer_generators)

    @pytest.mark.parametrize("word", ["II", "-II"])
    def test_identity_generator_rejected(self, word):
        # +II would leave a codespace of dimension 4 = 2^(k+1), -II an empty one
        with pytest.raises(ValueError, match="independent"):
            StabilizerCode(
                name="bad",
                n=2,
                k=1,
                stabilizer_generators=(parse_pauli(word),),
                logical_x=(parse_pauli("XI"),),
                logical_z=(parse_pauli("ZI"),),
            )

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            StabilizerCode(
                name="bad",
                n=3,
                k=0,
                stabilizer_generators=(
                    parse_pauli("ZZI"),
                    parse_pauli("IZZ"),
                    parse_pauli("ZIZ"),
                ),
                logical_x=(),
                logical_z=(),
            )


class TestCodespaceProjector:
    def test_repetition3_span(self):
        code = builtin_code("repetition3")
        projector = codespace_projector(code)
        # eigenspace-intersection oracle: +1 spaces of Z1Z2 and Z2Z3 meet
        # exactly on the eigenvalue-3 space of Z1Z2 + 2 Z2Z3
        combo = parse_pauli("ZZI").to_dense() + 2.0 * parse_pauli("IZZ").to_dense()
        vals, vecs = np.linalg.eigh(combo)
        basis = vecs[:, np.abs(vals - 3.0) < 1e-9]
        oracle = basis @ basis.conj().T
        assert np.max(np.abs(projector - oracle)) < 1e-12
        for state in (np.eye(8)[0], np.eye(8)[7]):  # |000>, |111>
            assert np.linalg.norm(projector @ state - state) < 1e-12

    def test_idempotent(self):
        for name in ("repetition3", "perfect5", "detect422"):
            p = codespace_projector(builtin_code(name))
            assert np.max(np.abs(p @ p - p)) < 1e-12

    def test_perfect5_trace(self):
        p = codespace_projector(builtin_code("perfect5"))
        assert np.trace(p).real == pytest.approx(2.0, abs=1e-9)


class TestLogicalPauliProduct:
    def test_identity_tuple(self):
        code = builtin_code("perfect5")
        obs = logical_pauli_product(code, (0,))
        assert obs.terms[0][1].is_identity()

    def test_repetition3_y(self):
        code = builtin_code("repetition3")
        obs = logical_pauli_product(code, (2,))
        coeff, word = obs.terms[0]
        assert coeff == 1.0 and word.letters == (2, 1, 1)

    def test_detect422_yy_hermitian_involution(self):
        code = builtin_code("detect422")
        obs = logical_pauli_product(code, (2, 2))
        dense = obs.to_dense()
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-12
        eigs = np.linalg.eigvalsh(dense)
        assert np.allclose(np.abs(eigs), 1.0, atol=1e-12)

    def test_charge_word_parsing(self):
        code = builtin_code("detect422")
        assert charge_word_from_string(code, "22") == (2, 2)
        with pytest.raises(ConfigError):
            charge_word_from_string(code, "24")
        with pytest.raises(ConfigError):
            charge_word_from_string(code, "2")


class TestStabilizerSystem:
    def test_perfect5_ground_energy(self):
        code = builtin_code("perfect5")
        system = build_stabilizer_system(
            code, [((1,), 0.2), ((2,), 0.0), ((3,), 0.5)]
        )
        eigs = np.linalg.eigvalsh(system.hamiltonian.to_dense())
        assert eigs[0] == pytest.approx(-4.0, abs=1e-12)

    def test_repetition3_charges_anticommute(self):
        code = builtin_code("repetition3")
        system = build_stabilizer_system(
            code, [((1,), 0.0), ((2,), 0.0), ((3,), 0.0)]
        )
        words = [obs.terms[0][1] for obs in system.charges]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not commutes(words[i], words[j])

    def test_detect422_bell_charges(self):
        code = builtin_code("detect422")
        bell = {(1, 1): 1.0, (2, 2): -1.0, (3, 3): 1.0}
        spec = [
            (w, bell.get(w, 0.0))
            for w in [(a, b) for a in range(4) for b in range(4)][1:]
        ]
        system = build_stabilizer_system(code, spec)
        assert system.n_charges == 15
        assert system.conserved

    @pytest.mark.parametrize("name", ["repetition3", "perfect5", "detect422"])
    def test_charge_words_round_trip(self, name):
        code = builtin_code(name)
        words = [w for w in itertools.product(range(4), repeat=code.k) if any(w)]
        system = build_stabilizer_system(code, [(w, 0.0) for w in words])
        assert system.charge_words == tuple(words)
        for word, charge in zip(system.charge_words, system.charges):
            assert logical_pauli_product(code, word) == charge
        assert build_heisenberg("line", n=3).charge_words is None

    def test_identity_charge_rejected(self):
        code = builtin_code("repetition3")
        with pytest.raises(ConfigError):
            build_stabilizer_system(code, [((0,), 1.0)])

    def test_target_length_mismatch(self):
        system = build_heisenberg("line", n=2)
        with pytest.raises(ConfigError):
            ThermoSystem(system.hamiltonian, system.charges, (1.0,))
