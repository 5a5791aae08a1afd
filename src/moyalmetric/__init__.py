"""Metric structure of the Moyal quantum plane on a truncated Fock space.

Submodules:
    fock        coordinate operators, canonical states, translations
    starprod    star product with integral-formula and Fourier oracles
    lengthop    length operator, quantum (square-)length, modified length
    spectral    Dirac calculus, spectral distances, optimal elements
    doubling    two-sheet triple, Pythagoras theorem, identification sweeps
    config      layered run configuration (file, environment, flags)
    stateexpr   textual grammar for states used by the command line
    acceptance  ten-point verification battery over the certified results
    cli         batch commands with reproducible CSV/JSON output

BLAS threads: importing the package sets OPENBLAS_NUM_THREADS to 1 unless
the environment already sets it or numpy is already loaded.  A numpy loaded
earlier keeps the count it started with, so the variable is left as it is
rather than claiming a count that never took effect.  The solvers work on
matrices of a few dozen rows, where a second BLAS thread costs more than it
brings.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .fock import (
    ContextMismatchError,
    FockContext,
    LeakageError,
    Operator,
    QState,
    annihilation,
    coherent_state,
    creation,
    displace,
    displacement_operator,
    eigenstate,
    evaluate,
    hamiltonian,
    make_context,
    mixed_state,
    quadratures,
    superposition_state,
    uncertainty_product,
    vacuum_projector,
)
from .lengthop import (
    CounterexampleResult,
    LengthOperator,
    build_length,
    counterexample_L2prime,
    d_L,
    d_L2,
    modified_length,
)
from .doubling import (
    DoubledDirac,
    PythagorasResult,
    SheetState,
    SweepRow,
    doubled_distance,
    identification_sweep,
    make_doubled,
    pythagoras_check,
    reference_lambda,
)
from .spectral import (
    DiracCalculus,
    DiscrepancyResult,
    DistanceReport,
    SolverConfig,
    closed_form_for,
    distance_diagonal_lp,
    distance_solver,
    length_vs_optimal_discrepancy,
    lipschitz_seminorm,
    optimal_element_eigenstates,
    optimal_element_translation,
)
from .starprod import (
    SampledSymbol,
    star_fourier,
    star_integral_report,
    star_matrix,
    vacuum_symbol,
)
from .config import ConfigError, RunConfig, load_config_file, resolve_config
from .stateexpr import (
    StateExprError,
    build_state,
    format_state_expr,
    parse_state_expr,
)
from .acceptance import CriterionResult, run_all, run_one

__version__ = "0.1.0"
