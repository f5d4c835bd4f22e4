"""Log-determinant statistics of large sample correlation matrices.

Core surfaces: heavy-tailed entry sampling (:mod:`corrlogdet.sampling`),
matrix construction and Cholesky log-det (:mod:`corrlogdet.matrices`),
the sequential projection recursion (:mod:`corrlogdet.girko`), exact
exchangeable-moment identities (:mod:`corrlogdet.moments`), scaled-moment
limits (:mod:`corrlogdet.tail_limits`), limit-law standardization and
goodness of fit (:mod:`corrlogdet.cltstats`), and a config-driven Monte
Carlo harness (:mod:`corrlogdet.simulate`) with CLI (``corrlogdet``).
"""

from .cltstats import ks_test, standardize_cov, summary_moments
from .errors import (
    ConfigError,
    DegenerateInputError,
    IncompleteTableError,
    InconsistentTableError,
    NotPositiveDefiniteError,
    NumericalFailure,
    ParameterDomainError,
    ResourceError,
    SingularStepError,
)
from .girko import GirkoTrace, girko_log_det
from .matrices import DataMatrix, log_det_spd, sample_correlation, sample_covariance
from .moments import (
    MomentTable,
    WeightVector,
    complete_table,
    fourth_moment_centered,
    fourth_moment_raw,
    fourth_moment_sphere,
    k_coefficients,
    permutation_oracle,
    quadratic_form_moments,
    sphere_identity_residuals,
)
from .sampling import RngStream, TailLaw, fill_matrix
from .simulate import ExperimentConfig, ExperimentReport, run_simulation, statistics_csv
from .tail_limits import (
    MomentLimitQuery,
    convergence_diagnostic,
    moment_limit,
    standardized_tail_constant,
)

__version__ = "0.1.0"

