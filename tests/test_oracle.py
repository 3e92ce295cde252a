import itertools
import math

import numpy as np
import pytest

from thermodual.errors import ConfigError
from thermodual.gibbs import effective_hamiltonian, thermal_state
from thermodual.models import ThermoSystem, build_heisenberg, build_stabilizer_system, builtin_code
from thermodual.operators import PauliString
from thermodual.oracle import (
    _logical_margin,
    check_feasible,
    closeness_metrics,
    complementary_slackness_residual,
    dual_eigenvalue_solve,
    geometric_renyi,
    petz_renyi,
    relative_entropy,
    sandwiched_renyi,
    reference_energy,
    state_fidelity,
    trace_distance,
)


def beta_for_trace_distance(eps: float, gap: float, dim: int, ground_dim: int) -> float:
    """Inverse temperature so the trace-distance bound evaluates to eps."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    return np.log(((1 - eps) / eps) * ((dim - ground_dim) / ground_dim)) / gap


def beta_for_relative_entropy(eps: float, gap: float, dim: int, ground_dim: int) -> float:
    """Inverse temperature so the relative-entropy bound evaluates to eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return np.log((1.0 / np.expm1(eps)) * ((dim - ground_dim) / ground_dim)) / gap


def perfect5_system():
    return build_stabilizer_system(
        builtin_code("perfect5"), [((1,), 0.2), ((2,), 0.0), ((3,), 0.5)]
    )


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


class TestDualSolve:
    def test_perfect5_ground_energy(self):
        system = perfect5_system()
        solution = dual_eigenvalue_solve(system, iterations=1000)
        assert solution.value == pytest.approx(-4.0, abs=1e-3)

    def test_no_charges_gives_minimum_eigenvalue(self):
        ham = build_heisenberg("line", n=3).hamiltonian
        system = ThermoSystem(ham, (), ())
        solution = dual_eigenvalue_solve(system, iterations=5)
        lam_min = np.linalg.eigvalsh(ham.to_dense())[0]
        assert solution.value == pytest.approx(lam_min, abs=1e-12)

    def test_heisenberg_low_temperature_bracket(self):
        system = build_heisenberg("line", n=3, targets=(1.0, 0.0, 1.0))
        solution = dual_eigenvalue_solve(system, iterations=1500)
        from thermodual.gibbs import objective_f
        from thermodual.optimize import ExactEstimator, OptimizerConfig, run

        T = 1e-3 / (3 * math.log(2))
        cfg = OptimizerConfig(variant="second_classical", temperature=T, max_iter=3000, delta=1e-8)
        trace = run(system, cfg, ExactEstimator(system))
        assert trace.converged
        F_T = objective_f(system, thermal_state(system, trace.final_mu, T))
        assert F_T - 1e-5 <= solution.value <= F_T + 3 * T * math.log(2) + 1e-5

    def test_weak_duality_against_feasible_states(self):
        # encoded states of the repetition code are feasible by construction
        from thermodual.encoding import LogicalTarget, encoded_state

        code = builtin_code("repetition3")
        rng = np.random.default_rng(11)
        for _ in range(5):
            r = rng.uniform(-0.5, 0.5, size=3)
            system = build_stabilizer_system(
                code, [((1,), r[0]), ((2,), r[1]), ((3,), r[2])]
            )
            solution = dual_eigenvalue_solve(system, iterations=400)
            rho = encoded_state(code, LogicalTarget.from_bloch(r))
            energy = float(
                np.real(np.einsum("ij,ji->", system.hamiltonian.to_dense(), rho))
            )
            assert energy >= solution.value - 1e-6

    def test_solution_invariants(self):
        system = perfect5_system()
        solution = dual_eigenvalue_solve(system, iterations=500)
        A = effective_hamiltonian(system, solution.mu_star)
        lam_min = np.linalg.eigvalsh(A)[0]
        assert solution.value == pytest.approx(
            float(solution.mu_star @ np.array(system.targets) + lam_min), abs=1e-9
        )
        P = solution.ground_projector
        assert np.max(np.abs(P @ P - P)) < 1e-9
        assert np.trace(P).real == pytest.approx(solution.ground_multiplicity, abs=1e-9)


class TestClosenessMetrics:
    def test_beta_zero_forced_values(self, rng):
        H = random_hermitian(rng, 8)
        report = closeness_metrics(H, 0.0)
        d, d_g = report.dim, report.ground_dim
        assert report.trace_distance_closed == pytest.approx((d - d_g) / d, abs=1e-12)
        assert report.fidelity_closed == pytest.approx(d_g / d, abs=1e-12)

    def test_direct_matches_closed_forms(self, rng):
        for _ in range(50):
            H = random_hermitian(rng, 8)
            for beta in (0.1, 1.0, 10.0):
                rep = closeness_metrics(H, beta)
                assert abs(rep.trace_distance - rep.trace_distance_closed) < 1e-10
                assert abs(rep.fidelity - rep.fidelity_closed) < 1e-10
                assert abs(rep.relative_entropy - rep.relative_entropy_closed) < 1e-10
                for table in (rep.renyi_petz, rep.renyi_sandwiched, rep.renyi_geometric):
                    for value in table.values():
                        assert abs(value - rep.renyi_closed) < 1e-10

    def test_identity_relations(self, rng):
        for _ in range(10):
            H = random_hermitian(rng, 8)
            for beta in (0.1, 1.0, 10.0):
                rep = closeness_metrics(H, beta)
                assert abs(rep.trace_distance_closed - (1 - rep.fidelity_closed)) < 1e-12
                assert abs(rep.relative_entropy_closed + math.log(rep.fidelity_closed)) < 1e-12

    def test_renyi_equal_across_alphas(self, rng):
        H = random_hermitian(rng, 8)
        rep = closeness_metrics(H, 1.0)
        values = list(rep.renyi_petz.values())
        assert max(values) - min(values) < 1e-10

    def test_degenerate_spectrum_returns_zeros(self):
        report = closeness_metrics(np.eye(4, dtype=complex) * 2.5, 1.0)
        assert report.trace_distance == 0.0
        assert report.fidelity == 1.0
        assert report.relative_entropy == 0.0

    def test_trace_distance_monotone_in_beta(self, rng):
        H = random_hermitian(rng, 8)
        values = [closeness_metrics(H, b).trace_distance_closed for b in np.linspace(0, 5, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_beta_inversions_round_trip(self, rng):
        H = random_hermitian(rng, 8)
        base = closeness_metrics(H, 1.0)
        gap, d, d_g = base.gap, base.dim, base.ground_dim
        # the inversions solve the bound expressions, so feed them back in
        for eps in (0.3, 0.05):
            beta = beta_for_trace_distance(eps, gap, d, d_g)
            bound = 1.0 / (1.0 + math.exp(beta * gap) * d_g / (d - d_g))
            assert bound == pytest.approx(eps, rel=1e-9)
            beta = beta_for_relative_entropy(eps, gap, d, d_g)
            bound = math.log(1.0 + math.exp(-beta * gap) * (d - d_g) / d_g)
            assert bound == pytest.approx(eps, rel=1e-9)

    def test_generic_metric_helpers_agree_on_commuting_pair(self, rng):
        # the matrix-level helpers (used on arbitrary states elsewhere)
        # reproduce the report values at moderate beta
        H = random_hermitian(rng, 8)
        beta = 1.0
        vals, vecs = np.linalg.eigh(H)
        w = np.exp(-beta * (vals - vals[0]))
        rho = (vecs * (w / w.sum())) @ vecs.conj().T
        ground = vecs[:, :1] @ vecs[:, :1].conj().T
        rep = closeness_metrics(H, beta)
        assert trace_distance(rho, ground) == pytest.approx(rep.trace_distance, abs=1e-10)
        assert state_fidelity(rho, ground) == pytest.approx(rep.fidelity, abs=1e-8)
        assert relative_entropy(ground, rho) == pytest.approx(rep.relative_entropy, abs=1e-8)
        for alpha in (0.5, 2.0, 3.0):
            assert petz_renyi(ground, rho, alpha) == pytest.approx(rep.renyi_petz[alpha], abs=1e-7)
            assert sandwiched_renyi(ground, rho, alpha) == pytest.approx(rep.renyi_sandwiched[alpha], abs=1e-7)
            assert geometric_renyi(ground, rho, alpha) == pytest.approx(rep.renyi_geometric[alpha], abs=1e-7)


class TestComplementarySlackness:
    def test_ground_projector_state(self):
        system = perfect5_system()
        solution = dual_eigenvalue_solve(system, iterations=400)
        rho = solution.ground_projector / solution.ground_multiplicity
        assert complementary_slackness_residual(system, solution, rho) <= 1e-9

    def test_maximally_mixed_gapped_residual(self):
        system = perfect5_system()
        solution = dual_eigenvalue_solve(system, iterations=400)
        dim = system.dimension
        rho = np.eye(dim, dtype=complex) / dim
        A = effective_hamiltonian(system, solution.mu_star)
        vals = np.linalg.eigvalsh(A)
        gap = vals[solution.ground_multiplicity] - vals[0]
        d_g = solution.ground_multiplicity
        lower = gap * (1 - d_g / dim) - 1e-9
        assert complementary_slackness_residual(system, solution, rho) >= lower

    def test_low_temperature_thermal_state_residual(self):
        system = perfect5_system()
        solution = dual_eigenvalue_solve(system, iterations=400)
        T = 1e-3
        state = thermal_state(system, solution.mu_star, T)
        residual = complementary_slackness_residual(system, solution, state.rho)
        A = effective_hamiltonian(system, solution.mu_star)
        vals = np.linalg.eigvalsh(A)
        gap = vals[solution.ground_multiplicity] - vals[0]
        d_g = solution.ground_multiplicity
        dim = system.dimension
        # 1/(1 + e^{gap/T} d_g/(d-d_g)) <= e^{-gap/T} (d-d_g)/d_g, overflow-safe
        td_bound = math.exp(-gap / T) * (dim - d_g) / d_g
        norm = float(np.max(np.abs(vals)))
        assert residual <= 2 * td_bound * norm + 1e-9


def random_direction(rng, norm):
    v = rng.normal(size=3)
    return norm * v / np.linalg.norm(v)


def ray_maximum(system, iterations=100):
    """Golden-section maximum of r|q| + lambda_min(H - r q.Q/|q|) over r >= 0, dense.

    The dual is concave and, by rotation symmetry, maximal along q, so this
    is an independent evaluation of E* that reads no S^z sectors.
    """
    q = np.array(system.targets)
    norm = np.linalg.norm(q)
    h = system.hamiltonian.to_dense()
    vals = np.linalg.eigvalsh(h)
    dual = lambda r: r * norm + np.linalg.eigvalsh(effective_hamiltonian(system, r * q / norm))[0]
    lo, hi = 0.0, (vals[-1] - vals[0]) / 2 + 1.0  # crossings sit below (E_max - E_min) / 2
    golden = (math.sqrt(5) - 1) / 2
    for _ in range(iterations):
        a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
        if dual(a) < dual(b):
            lo = a
        else:
            hi = b
    return max(dual(0.0), dual(lo))


def heisenberg_case(geometry, size, nnn, J, fraction, seed):
    rng = np.random.default_rng(seed)
    if geometry == "line":
        kwargs, n = {"n": size}, size
    else:
        kwargs, n = {"rows": size[0], "cols": size[1]}, size[0] * size[1]
    return build_heisenberg(
        geometry, nnn=nnn, J=J, targets=random_direction(rng, fraction * n), **kwargs
    )


def state_expectations(rng, k, words, rank):
    raw = rng.normal(size=(2**k, rank)) + 1j * rng.normal(size=(2**k, rank))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    return [float(np.real(np.trace(rho @ PauliString(w).to_dense()))) for w in words]


# even n: the dual solve reaches the kink of the dual; J < 0 is ferromagnetic
HEISENBERG_CASES = [
    (0, "line", 4, False, 1.0, 0.3), (1, "line", 4, True, -1.0, 0.9),
    (2, "line", 4, False, 1.5, 0.999), (3, "line", 6, False, -1.0, 0.5),
    (4, "line", 6, True, 1.5, 0.6), (5, "line", 6, True, 1.0, 0.99),
    (6, "grid", (2, 2), True, 1.0, 0.4), (7, "grid", (2, 2), True, -1.0, 0.95),
    (8, "grid", (2, 3), True, 1.5, 0.2), (9, "grid", (2, 3), True, -1.0, 0.98),
]
ODD_LINE_CASES = [
    (3, False, 1.0, 0.95), (3, True, -1.0, 0.5), (5, False, 1.0, 0.3),
    (5, True, 1.5, 0.97), (7, False, 1.0, 0.3), (7, True, -1.0, 0.8),
]


class TestClosedFormReference:
    @pytest.mark.parametrize("seed,geometry,size,nnn,J,fraction", HEISENBERG_CASES)
    def test_heisenberg_matches_dual_solve(self, seed, geometry, size, nnn, J, fraction):
        system = heisenberg_case(geometry, size, nnn, J, fraction, seed)
        closed = reference_energy(system)
        assert closed.method == "su2"
        solved = dual_eigenvalue_solve(system, iterations=300)
        assert closed.value == pytest.approx(solved.value, abs=1e-9)

    def test_line8_matches_dual_solve(self):
        system = heisenberg_case("line", 8, True, 1.0, 0.45, seed=8)
        # the polish phase does the work; a short first phase keeps this to seconds
        solved = dual_eigenvalue_solve(system, iterations=5)
        assert reference_energy(system).value == pytest.approx(solved.value, abs=1e-9)

    # odd n: the dual solve stalls short of the kink (about 1e-5 below it at
    # 300 iterations on line 5), so the closed form is checked against a
    # dense search along q and must bound the dual solve from above
    @pytest.mark.parametrize("n,nnn,J,fraction", ODD_LINE_CASES)
    def test_odd_lines_match_ray_search(self, n, nnn, J, fraction):
        system = heisenberg_case("line", n, nnn, J, fraction, seed=n)
        closed = reference_energy(system).value
        assert closed == pytest.approx(ray_maximum(system), abs=1e-9)
        solved = dual_eigenvalue_solve(system, iterations=100)
        assert solved.value <= closed + 1e-9

    @pytest.mark.parametrize("code,words", [
        ("repetition3", ("1", "2", "3")), ("repetition3", ("2",)),
        ("perfect5", ("1", "2", "3")), ("perfect5", ("1", "3")),
        ("detect422", ("10", "20", "30", "01", "02", "03")),
        ("detect422", ("10", "03", "22")), ("detect422", ("11", "22", "33", "12")),
    ])
    def test_codes_match_dual_solve(self, code, words):
        code = builtin_code(code)
        indices = [tuple(int(c) for c in w) for w in words]
        rng = np.random.default_rng(len(words) + code.n)
        targets = state_expectations(rng, code.k, indices, rank=2)
        system = build_stabilizer_system(code, list(zip(indices, targets)))
        closed = reference_energy(system)
        assert closed.method == "stabilizer"
        assert closed.value == -(code.n - code.k)
        solved = dual_eigenvalue_solve(system, iterations=300)
        assert closed.value == pytest.approx(solved.value, abs=1e-9)

    @pytest.mark.parametrize("geometry,size,nnn", [("line", 6, True), ("grid", (2, 3), True)])
    def test_heisenberg_runs_no_full_size_eigensolve(self, monkeypatch, geometry, size, nnn):
        system = heisenberg_case(geometry, size, nnn, 1.0, 0.5, seed=0)
        expected = reference_energy(system).value
        full = system.dimension

        def refusing(solver):
            def wrapped(a, *args, **kwargs):
                assert np.shape(a)[-1] < full, f"{solver.__name__} on a {full}-dim matrix"
                return solver(a, *args, **kwargs)
            return wrapped

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refusing(getattr(np.linalg, name)))
        assert reference_energy(system).value == expected

    @pytest.mark.parametrize("seed,geometry,size,nnn,J,fraction", [
        *HEISENBERG_CASES,
        (8, "line", 8, True, 1.0, 0.45),
        *((n, "line", n, nnn, J, fraction) for n, nnn, J, fraction in ODD_LINE_CASES),
    ])
    def test_sectors_match_blocks_of_the_dense_hamiltonian(self, seed, geometry, size, nnn, J, fraction):
        # the former form: each e_m from an eigvalsh of the dense H restricted to S^z = m
        system = heisenberg_case(geometry, size, nnn, J, fraction, seed)
        h = system.hamiltonian.to_dense()
        twice_m = np.real(np.diagonal(system.charges[2].to_dense()))
        M = np.unique(twice_m[twice_m >= 0.0]) / 2.0
        E = np.array([
            np.linalg.eigvalsh(h[np.ix_(sel, sel)])[0]
            for sel in (np.flatnonzero(twice_m == 2.0 * m) for m in M)
        ])
        norm = float(np.linalg.norm(system.targets))
        r = np.array([0.0] + [
            c for a in range(len(M)) for b in range(a + 1, len(M))
            if (c := (E[a] - E[b]) / (2.0 * (M[a] - M[b]))) > 0.0
        ])
        dense_form = float(np.max(r * norm + np.min(E[None, :] - 2.0 * r[:, None] * M[None, :], axis=1)))
        assert reference_energy(system).value == pytest.approx(dense_form, abs=1e-12)

    @pytest.mark.parametrize("J", [1.0, -1.0])
    @pytest.mark.parametrize("geometry,size,nnn", [
        ("line", 5, False), ("line", 6, True), ("grid", (2, 3), True),
    ])
    def test_zero_targets_give_the_ground_energy(self, geometry, size, nnn, J):
        system = heisenberg_case(geometry, size, nnn, J, 0.0, seed=0)
        ground = np.linalg.eigvalsh(system.hamiltonian.to_dense())[0]
        assert reference_energy(system).value == pytest.approx(ground, abs=1e-12)

    def test_neither_family_raises(self, rng):
        from conftest import random_system

        with pytest.raises(ValueError, match="neither"):
            reference_energy(random_system(rng))


class TestFeasibility:
    def test_heisenberg_boundary_is_feasible(self):
        check_feasible(build_heisenberg("line", n=4, targets=(0.0, 4.0, 0.0)))
        check_feasible(build_heisenberg("line", n=4, targets=random_direction(np.random.default_rng(1), 4.0)))
        with pytest.raises(ConfigError, match="infeasible"):
            check_feasible(build_heisenberg("line", n=4, targets=(0.0, 4.0 + 1e-6, 0.0)))

    def test_single_logical_qubit_margin_is_one_minus_norm(self):
        rng = np.random.default_rng(4)
        for words in (((1,), (2,), (3,)), ((1,), (3,)), ((2,),)):
            for _ in range(5):
                q = rng.uniform(-1, 1, size=len(words))
                assert _logical_margin(1, words, q) == pytest.approx(1 - np.linalg.norm(q), abs=1e-12)

    @pytest.mark.parametrize("words,targets,feasible", [
        (((1, 0), (0, 1), (1, 1)), (0.9, 0.9, -0.9), False),
        (((1, 0), (0, 1), (1, 1)), (0.9, 0.9, 0.81), True),
        (((1, 1), (2, 2), (3, 3)), (1.0, 1.0, 1.0), False),
        (((1, 1), (2, 2), (3, 3)), (1.0, -1.0, 1.0), True),
        (((1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)), (0.6, 0.8, 0, 0, 0.8, 0.6), True),
        (((1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)), (0.6, 0.9, 0, 0, 0.8, 0.6), False),
    ])
    def test_two_logical_qubits(self, words, targets, feasible):
        assert (_logical_margin(2, words, targets) >= -1e-9) is feasible

    def test_states_are_never_rejected(self):
        rng = np.random.default_rng(7)
        nontrivial = [w for w in itertools.product(range(4), repeat=2) if any(w)]
        for trial in range(40):
            words = [nontrivial[i] for i in rng.choice(15, size=int(rng.integers(1, 16)), replace=False)]
            targets = state_expectations(rng, 2, words, rank=1 + trial % 4)
            assert _logical_margin(2, words, targets) >= -1e-9

    def test_infeasible_code_targets_raise(self):
        code = builtin_code("detect422")
        system = build_stabilizer_system(code, [((1, 0), 0.9), ((0, 1), 0.9), ((1, 1), -0.9)])
        with pytest.raises(ConfigError, match="infeasible"):
            reference_energy(system)
