"""Constrained energy / free-energy minimization for quantum thermodynamic systems.

The library solves min Tr[H rho] subject to Tr[Q_i rho] = q_i (and its
free-energy relaxation at temperature T) by maximizing the concave dual over
the chemical potentials mu, with exact or shot-noise-simulated expectation
estimates, and scores results against the constrained minimum energy,
which is known in closed form for the built-in model families.
"""

from .encoding import (
    LogicalTarget,
    WarmStart,
    encoded_state,
    exponential_to_mixture,
    logical_expectations,
    mixture_to_exponential,
    mixture_to_exponential_normalized,
    optimal_encoding_state,
    warm_start_state,
)
from .errors import ConfigError, NumericalIntegrityError, ResourceError
from .gibbs import (
    ThermalState,
    gradient,
    hessian_exact,
    log_partition,
    objective_f,
    primal_free_energy,
    smoothness_L,
    thermal_state,
)
from .models import (
    StabilizerCode,
    ThermoSystem,
    build_heisenberg,
    build_stabilizer_system,
    builtin_code,
    codespace_projector,
    logical_pauli_product,
)
from .operators import Observable, PauliString, commutes, expectation, parse_pauli, pauli_product
from .optimize import (
    ExactEstimator,
    OptimizerConfig,
    Trace,
    TraceRecord,
    error_metric,
    run,
)
from .oracle import (
    ClosenessReport,
    DualSolution,
    ReferenceEnergy,
    check_feasible,
    closeness_metrics,
    complementary_slackness_residual,
    dual_eigenvalue_solve,
    reference_energy,
    state_fidelity,
    trace_distance,
)
from .shots import (
    RngStream,
    ShotEstimator,
    estimate_hessian,
    estimate_observable,
    hessian_fourier_quadrature,
    tent_density,
)

__version__ = "0.1.0"
