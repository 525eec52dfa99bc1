"""Numerical toolkit for weighted Bergman spaces with rapidly decreasing
radial weights: tau-scaled disk geometry, adaptive lattices, reproducing
kernels, measure functionals, and Toeplitz operator spectra."""

from .basis import (
    BasisTable,
    build_basis_table,
    kernel,
    kernel_at_points,
    kernel_norm_sq,
    kernel_norm_sq_many,
    normalized_kernel,
)
from .errors import (
    ConvergenceError,
    DomainError,
    ParameterError,
    PSDViolationError,
    ResourceError,
    TruncationError,
)
from .jacobi import jacobi_eigvalsh
from .lattice import (
    Lattice,
    build_lattice,
    certify_lattice,
    count_in_ball,
    partition_separated,
    quasi_distance,
)
from .measures import (
    AtomicMeasure,
    GridDensityMeasure,
    Measure,
    RadialDensityMeasure,
    berezin_measure,
    carleson_constant,
    compensated_density,
    indicator_density,
    lattice_lp_sum,
    lp_lambda_tau_norm,
    measure_from_json,
    mu_hat,
    mu_hat_lp_norm,
    polar_points,
    power_density,
    zero_measure,
)
from .runner import (
    ReportRow,
    Scenario,
    run_scenario,
    scenario_from_json,
    sweep_family,
    write_report_csv,
    write_report_json,
)
from .toeplitz import (
    SpectrumReport,
    ToeplitzMatrix,
    assemble_toeplitz,
    berezin_operator,
    schatten_norm,
    spectrum,
)
from .weights import (
    RadialWeight,
    certify_class_L,
    make_custom_weight,
    make_double_exponential_weight,
    make_exponential_weight,
    weight_from_json,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
