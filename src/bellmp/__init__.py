"""Bell-multiport toolkit: CGLMP's d-outcome expression I_d, with Bob's
outcomes relabelled n -> (-n) mod d, measured with phased Fourier multiports.

The package computes joint outcome probabilities and Bell values for
real-coefficient entangled states, certifies the exact classical
bounds by enumeration, carries the d = 4 closed-form extremal
machinery (Gamma constants, vertex tables, branch formulas, optimal
states), and cross-checks everything with a multi-start gradient
optimizer.  A CLI (`bellmp`) wraps evaluation, optimization, scans,
sampling, and a reproduction report.
"""

from .model import (
    NORMALIZATION_TOLERANCE,
    PAIR_SLOTS,
    BellError,
    Dimension,
    MeasurementSettings,
    PhaseVector,
    PureState,
    ValidationError,
    kernel_f,
    make_state,
    maximally_entangled_state,
    zero_settings,
)
from .analytic import (
    BranchMax,
    BranchMin,
    GammaConstants,
    VertexExtrema,
    VertexPattern,
    VertexWitness,
    branch_values_max,
    branch_values_min,
    gamma_constants,
    optimal_max_state,
    optimal_min_state,
    reference_optimal_angles,
    sorted_magnitudes,
    threshold_noise,
    vertex_candidates,
    vertex_patterns,
)
from .engine import (
    JointProbabilityTable,
    MultiportUnitary,
    SampleEstimate,
    TCoefficients,
    bell_gradient,
    bell_value,
    bell_value_noisy,
    correlation_q,
    joint_probabilities,
    multiport_unitary,
    sample_experiment,
    t_coefficients,
)
from .lhv import (
    MAX_ENUMERABLE_DIMENSION,
    DeterministicStrategy,
    KernelVariant,
    LhvBoundsReport,
    lhv_bounds,
    lhv_value,
)
from .optimize import (
    Direction,
    Evaluations,
    ExtremalResult,
    OptimizationRun,
    OptimizerConfig,
    max_abs_t_coefficient,
    optimize_angles,
    optimize_joint,
)
from .report import (
    SCAN_COLUMNS,
    ReproductionReport,
    ReproductionRow,
    ScanSpec,
    build_reproduction_report,
    scan_rows,
)

__version__ = "0.1.0"
