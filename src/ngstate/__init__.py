"""Large-N toolkit for non-Gaussian density operators.

From measured Gaussian moments (F, K, R) and a connected quartic
correlator to the state's entropy, purity, position-basis matrix
elements, Wigner function, and coherent-state coherence structure —
with brute-force validators for every closed form.
"""

__version__ = "0.1.0"

from .errors import (
    AsymptoticRegimeViolation,
    BracketError,
    HeisenbergViolation,
    NgStateError,
    NonFiniteValue,
    NonPositiveA,
    NotConverged,
    PrecisionLoss,
    QuadratureNonPositive,
    RegimeError,
    Unreachable,
)
from .statemap import (
    GaussianMoments,
    OperatorParams,
    ReducedState,
    occupation,
    params_from_moments,
    moments_from_params,
    x_from_c4,
)
from .observables import (
    PurityReport,
    c4_half_ratio_nx,
    c4_ratio,
    c4_ratio_large_n,
    c4_ratio_small_n,
    entropy_per_dof,
    purity,
    purity_limit_large_n,
)
from .densmat import (
    DSurface,
    MatrixElementValue,
    PeakFit,
    PhasePoint,
    Regime,
    classify_regime,
    d_surface,
    ln_d,
    ln_d_many,
    peak_fit,
    peak_threshold_x,
    u_c_sq,
)
from .wigner import (
    ProjectionGrid,
    ProjectionMode,
    SqueezeParams,
    WignerGrid,
    ln_w,
    ln_w_at_N,
    ln_w_gaussian_exact,
    project_physical,
    wigner_grid,
)
from .coherence import (
    CoherencePair,
    DisplacedOverlap,
    WignerWidths,
    overlap_centered,
    overlap_displaced,
)
from .oracle import (
    c4_sum,
    entropy_by_definition,
    format_report,
    pair_g_closed,
    pair_g_sum,
    purity_by_definition,
    run_validation,
    trace_g_closed,
    trace_g_sum,
)
