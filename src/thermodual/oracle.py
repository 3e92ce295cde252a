"""Reference solutions: constrained minimum energies, target feasibility, closeness.

By strong duality the constrained minimum energy E* = min Tr[H rho] subject
to Tr[Q_i rho] = q_i equals max_mu mu.q + lambda_min(H - mu.Q); it is the
reference E in the solver error metric.  `reference_energy` evaluates it in
closed form for the two built-in model families: -(n - k) for a stabilizer
code, and for a Heisenberg model a maximum over the lowest levels of H in
its S^z sectors, which `gibbs` builds once per system.  `check_feasible`
decides whether any state meets the targets at all.
`dual_eigenvalue_solve` maximizes the dual by supergradient ascent for any
system; it is the independent cross-check of the closed forms, and it
returns the best value it reached with no claim of convergence.
The closeness report compares a Gibbs state against the maximally mixed state
on the ground space, both by direct computation and by the closed forms that
hold because the two states commute.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gibbs import effective_hamiltonian, eigen_blocks
from .models import ThermoSystem
from .operators import PauliString

# targets this far outside the attainable set still count as feasible
FEASIBILITY_TOLERANCE = 1e-9
# the supergradient phase steps _DUAL_STEP / sqrt(m) at iteration m
_DUAL_STEP = 1.0
# adaptive-step ascent iterations that polish the best averaged iterate
_POLISH_ITERATIONS = 400
# Renyi orders of the closeness report
RENYI_ALPHAS = (0.5, 2.0, 3.0)


@dataclass(frozen=True)
class ReferenceEnergy:
    """Constrained minimum energy and the closed form that gave it."""

    value: float
    method: str  # "stabilizer" or "su2"


def _family(system: ThermoSystem) -> str:
    if system.code is not None:
        return "stabilizer"
    if system.su2_symmetric:
        return "su2"
    raise ValueError(
        f"no closed-form reference for {system.label or 'this system'}: "
        "it is neither a stabilizer nor an SU(2)-symmetric system"
    )


def _logical_margin(k: int, words, targets) -> float:
    """Feasibility margin of k-qubit Pauli targets: non-negative iff a state meets them.

    The margin is max_x lambda_min(M(x)) with M(x) = I + sum_w q_w P_w +
    sum_v x_v P_v, v running over the other nontrivial Pauli words, so
    M(x) / 2^k is a state exactly when its lambda_min is non-negative.  The
    zero completion x = 0 is tried first; when M(0) is positive semidefinite
    its lambda_min is returned, and for k = 1 it is the maximum, 1 - |q|.
    Otherwise a log-barrier method maximizes t subject to M(x) - t I > 0, and
    the value returned is the dual bound 1 + y.q read off the final barrier
    point: Y = (I + sum_w y_w P_w) / 2^k is a state, so a negative margin
    certifies that the targets are infeasible.
    """
    dim = 2**k
    q = np.asarray(targets, dtype=float)
    given = np.array([PauliString(w).to_dense() for w in words])
    base = np.eye(dim, dtype=complex) + np.tensordot(q, given, axes=1)
    zero_completion = float(np.linalg.eigvalsh(base)[0])
    if zero_completion >= 0.0 or k == 1:
        return zero_completion
    # F(z) = base + sum_i z_i A_i with z = (x, t)
    given_words = set(words)
    A = np.array([
        PauliString(w).to_dense()
        for w in itertools.product(range(4), repeat=k)
        if any(w) and w not in given_words
    ] + [-np.eye(dim, dtype=complex)])
    z = np.zeros(len(A))
    z[-1] = zero_completion - 1.0

    def barrier(z, s):
        vals = np.linalg.eigvalsh(base + np.tensordot(z, A, axes=1))
        return np.inf if vals[0] <= 0 else -s * z[-1] - float(np.sum(np.log(vals)))

    for s in 10.0 ** np.arange(13):
        for _ in range(50):
            K = np.linalg.inv(base + np.tensordot(z, A, axes=1)) @ A
            grad = -np.real(np.trace(K, axis1=1, axis2=2))
            grad[-1] -= s
            hess = np.real(np.einsum("iab,jba->ij", K, K))
            step = -np.linalg.lstsq(hess, grad, rcond=None)[0]
            decrement = float(-grad @ step)
            if decrement <= 1e-10:
                break
            alpha, current = 1.0, barrier(z, s)
            while alpha > 1e-12 and barrier(z + alpha * step, s) > current - 0.25 * alpha * decrement:
                alpha *= 0.5
            z = z + alpha * step
    G = np.linalg.inv(base + np.tensordot(z, A, axes=1))
    y = np.real(np.einsum("ab,wba->w", G, given)) / np.real(np.trace(G))
    scale = max(1.0, float(np.linalg.eigvalsh(-np.tensordot(y, given, axes=1))[-1]))
    return 1.0 + float(y @ q) / scale


def check_feasible(system: ThermoSystem):
    """Raise ConfigError unless some state meets every target of the system.

    SU(2) systems: the charges are 2 S^x, 2 S^y, 2 S^z, so the targets must
    satisfy |q| <= n.  Stabilizer systems: the charges act as k-qubit Paulis
    on the logical factor, so q must be the Pauli-expectation vector of some
    2^k-dim state, decided on that small problem.
    """
    q = np.asarray(system.targets, dtype=float)
    if _family(system) == "su2":
        n = system.n_qubits
        if np.linalg.norm(q) > n * (1.0 + FEASIBILITY_TOLERANCE):
            raise ConfigError(
                f"infeasible targets: |q| = {np.linalg.norm(q):.6g} exceeds n = {n}"
            )
        return
    margin = _logical_margin(system.code.k, system.charge_words, q)
    if margin < -FEASIBILITY_TOLERANCE:
        raise ConfigError(
            "infeasible targets: no logical state of "
            f"{system.code.name} has these expectations (margin {margin:.3g})"
        )


def _su2_reference(system: ThermoSystem) -> float:
    """E* = max_{r >= 0} r|q| + min_m (e_m - 2 r m), e_m the lowest level of H at S^z = m.

    With mu = r q/|q| a global rotation takes H - mu.Q to H - 2 r S^z and
    leaves H fixed.  H conserves S^z, so lambda_min(H - 2 r S^z) is
    min_m (e_m - 2 r m), each e_m the lowest level of the sector S^z = m:
    the first of its slice of the sector build `gibbs` keeps on the system.
    A rotation by pi maps the sector m onto -m, so m >= 0 suffices.  The
    objective is concave and piecewise linear in r, so its maximum sits at
    r = 0 or where two of the lines e_m - 2 r m cross.
    """
    spin = eigen_blocks(system).spin
    n = system.n_qubits
    # sector w holds m = n/2 - w, its levels in ascending order
    M = n / 2.0 - np.arange(n // 2 + 1)
    E = np.array([spin.energies[levels.start] for _, _, levels in spin.sectors[: n // 2 + 1]])
    norm = float(np.linalg.norm(system.targets))
    crossings = [
        (E[a] - E[b]) / (2.0 * (M[a] - M[b]))
        for a in range(len(M))
        for b in range(a + 1, len(M))
    ]
    r = np.array([0.0] + [c for c in crossings if c > 0.0])
    return float(np.max(r * norm + np.min(E[None, :] - 2.0 * r[:, None] * M[None, :], axis=1)))


def reference_energy(system: ThermoSystem) -> ReferenceEnergy:
    """Closed-form constrained minimum energy of a stabilizer or SU(2) system.

    Stabilizer systems: H = -sum S_i and every charge is a logical Pauli, so
    a codespace state meets any feasible target and E* = -(n - k).
    SU(2) systems: see `_su2_reference`.  Raises ConfigError for infeasible
    targets and ValueError for a system of neither family.
    """
    check_feasible(system)
    if _family(system) == "stabilizer":
        code = system.code
        return ReferenceEnergy(-float(code.n - code.k), "stabilizer")
    return ReferenceEnergy(_su2_reference(system), "su2")


@dataclass(frozen=True)
class DualSolution:
    mu_star: np.ndarray
    value: float
    ground_multiplicity: int
    ground_projector: np.ndarray


def dual_eigenvalue_solve(system: ThermoSystem, iterations: int = 2000) -> DualSolution:
    """Maximize the nonsmooth dual mu.q + lambda_min(H - mu.Q), q the system's targets.

    Supergradient at mu: q - <psi|Q|psi> for a minimum-eigenvalue eigenvector
    psi (the eigensolver's first column when degenerate).  The first phase
    takes `iterations` steps of size _DUAL_STEP/sqrt(m) and tracks the dual
    value along the running average of the iterates; the second phase
    polishes the best averaged iterate with up to _POLISH_ITERATIONS steps of
    monotone adaptive-step ascent, which converges quickly wherever the
    minimum eigenvalue is simple and stops once its step falls to machine
    scale.  Where the optimum sits on a degenerate minimum eigenvalue the
    ascent can stall short of it, and nothing here detects that.
    """
    q = np.asarray(system.targets, dtype=float)
    c = system.n_charges
    charge_dense = [qi.to_dense() for qi in system.charges]

    def dual_value(mu):
        vals = np.linalg.eigvalsh(effective_hamiltonian(system, mu))
        return float(mu @ q + vals[0])

    def supergradient(mu):
        _, vecs = np.linalg.eigh(effective_hamiltonian(system, mu))
        psi = vecs[:, 0]
        return q - np.array([np.real(psi.conj() @ (qd @ psi)) for qd in charge_dense])

    mu = np.zeros(c)
    running_sum = np.zeros(c)
    best_value = -np.inf
    best_mu = mu.copy()

    for m in range(1, iterations + 1):
        running_sum += mu
        averaged = running_sum / m
        value = dual_value(averaged)
        if value > best_value:
            best_value = value
            best_mu = averaged.copy()
        mu = mu + (_DUAL_STEP / np.sqrt(m)) * supergradient(mu)

    step = 0.25
    mu = best_mu.copy()
    for _ in range(_POLISH_ITERATIONS):
        candidate = mu + step * supergradient(mu)
        value = dual_value(candidate)
        if value > best_value:
            best_value = value
            best_mu = candidate.copy()
            mu = candidate
            step = min(step * 1.5, 10.0)
        else:
            step *= 0.5
            if step < 1e-14:
                # monotone ascent stalled at machine scale
                break

    # the ground space of H - mu*.Q: the levels within a tolerance of the lowest
    vals, vecs = np.linalg.eigh(effective_hamiltonian(system, best_mu))
    ground = vecs[:, vals <= vals[0] + max(1e-8, 1e-10 * float(vals[-1] - vals[0]))]
    return DualSolution(best_mu, best_value, ground.shape[1], ground @ ground.conj().T)


def complementary_slackness_residual(
    system: ThermoSystem, dual: DualSolution, rho: np.ndarray
) -> float:
    """|Tr[(H - mu*.Q) rho] - lambda_min|; near zero certifies ground-space support."""
    A = effective_hamiltonian(system, dual.mu_star)
    lam_min = float(np.linalg.eigvalsh(A)[0])
    energy = float(np.real(np.einsum("ij,ji->", A, rho)))
    return abs(energy - lam_min)


# ---------------------------------------------------------------------------
# state distinguishability helpers
# ---------------------------------------------------------------------------


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) ||rho - sigma||_1."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def _psd_power(matrix: np.ndarray, power: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.clip(vals, 0.0, None)
    if power < 0:
        out = np.where(vals > 0, vals, np.inf) ** power
        out[~np.isfinite(out)] = 0.0
    else:
        out = vals**power
    return (vecs * out) @ vecs.conj().T


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ||sqrt(rho) sqrt(sigma)||_1^2."""
    product = _psd_power(rho, 0.5) @ _psd_power(sigma, 0.5)
    return float(np.sum(np.linalg.svd(product, compute_uv=False)) ** 2)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho || sigma) = Tr[rho (ln rho - ln sigma)], requiring supp(rho) <= supp(sigma)."""

    def _log(m):
        vals, vecs = np.linalg.eigh(m)
        vals = np.clip(vals, 1e-300, None)
        return (vecs * np.log(vals)) @ vecs.conj().T

    value = np.einsum("ij,ji->", rho, _log(rho) - _log(sigma))
    return float(np.real(value))


def petz_renyi(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    trace = np.einsum("ij,ji->", _psd_power(rho, alpha), _psd_power(sigma, 1 - alpha))
    return float(np.log(np.real(trace)) / (alpha - 1))


def sandwiched_renyi(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    half = _psd_power(sigma, (1 - alpha) / (2 * alpha))
    inner = half @ rho @ half
    return float(np.log(np.real(np.trace(_psd_power(inner, alpha)))) / (alpha - 1))


def geometric_renyi(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    inv_half = _psd_power(sigma, -0.5)
    inner = inv_half @ rho @ inv_half
    trace = np.einsum("ij,ji->", sigma, _psd_power(inner, alpha))
    return float(np.log(np.real(trace)) / (alpha - 1))


# ---------------------------------------------------------------------------
# thermal state vs ground space closeness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosenessReport:
    """Distances between exp(-beta H)/Z and the ground-space maximally mixed state."""

    beta: float
    dim: int
    ground_dim: int
    gap: float
    trace_distance: float
    fidelity: float
    relative_entropy: float
    renyi_petz: dict[float, float]
    renyi_sandwiched: dict[float, float]
    renyi_geometric: dict[float, float]
    trace_distance_closed: float
    fidelity_closed: float
    relative_entropy_closed: float
    renyi_closed: float


def _grouped_levels(eigenvalues: np.ndarray):
    spread = float(eigenvalues[-1] - eigenvalues[0])
    tol = max(1e-10, 1e-12 * max(1.0, spread))
    levels = [[eigenvalues[0], 1]]
    for lam in eigenvalues[1:]:
        if lam - levels[-1][0] <= tol:
            levels[-1][1] += 1
        else:
            levels.append([lam, 1])
    return [(float(lam), int(deg)) for lam, deg in levels]


def closeness_metrics(H: np.ndarray, beta: float) -> ClosenessReport:
    """Direct and closed-form closeness of the Gibbs state to the ground space.

    The Renyi divergences are reported at each order in RENYI_ALPHAS.
    """
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    vals = np.linalg.eigvalsh(H)
    levels = _grouped_levels(vals)
    d = H.shape[0]
    d_g = levels[0][1]
    gap = levels[1][0] - levels[0][0] if len(levels) > 1 else 0.0

    # The two states commute, so the direct evaluation happens in the shared
    # eigenbasis of H; large beta would otherwise amplify basis round-off
    # through the negative matrix powers in the Renyi formulas.
    weights = np.exp(-beta * (vals - vals[0]))
    rho = np.diag(weights / weights.sum()).astype(complex)
    ground = np.zeros(d)
    ground[:d_g] = 1.0 / d_g
    sigma = np.diag(ground).astype(complex)

    if len(levels) == 1:
        zero = {float(a): 0.0 for a in RENYI_ALPHAS}
        return ClosenessReport(
            beta, d, d_g, 0.0, 0.0, 1.0, 0.0, zero, dict(zero), dict(zero),
            0.0, 1.0, 0.0, 0.0,
        )

    excited = sum(
        np.exp(-beta * (lam - levels[0][0])) * deg for lam, deg in levels[1:]
    )
    report = ClosenessReport(
        beta=beta,
        dim=d,
        ground_dim=d_g,
        gap=gap,
        trace_distance=trace_distance(rho, sigma),
        fidelity=state_fidelity(rho, sigma),
        relative_entropy=relative_entropy(sigma, rho),
        renyi_petz={float(a): petz_renyi(sigma, rho, a) for a in RENYI_ALPHAS},
        renyi_sandwiched={float(a): sandwiched_renyi(sigma, rho, a) for a in RENYI_ALPHAS},
        renyi_geometric={float(a): geometric_renyi(sigma, rho, a) for a in RENYI_ALPHAS},
        trace_distance_closed=1.0 / (1.0 + d_g / excited),
        fidelity_closed=1.0 / (1.0 + excited / d_g),
        relative_entropy_closed=float(np.log1p(excited / d_g)),
        renyi_closed=float(np.log1p(excited / d_g)),
    )
    return report

