"""k-generalized Fibonacci numbers over all integer indices, with certified
ball arithmetic, root analysis of the characteristic polynomials, linear-form
lower bounds, Baker-Davenport reduction, and exhaustive equation solvers."""

from .balls import CBall, CertificationError, DEFAULT_PREC, MAX_PREC, PrecisionError, RBall
from .charpoly import (
    DegreeTooLargeError,
    DominanceConstants,
    FamilyPolys,
    RootProfile,
    compute_roots,
    cross_k_monotonicity,
    dominance_constants,
    dresden_weight,
    family_polys,
    profile_from_json,
    profile_to_json,
    smallest_root_check,
)
from .intpoly import IntPoly
from .linforms import (
    HeightResult,
    MatveevInstance,
    MixedSignInstance,
    crossing_bound,
    deweger_factor,
    matveev_exponent,
    mixed_sign_instance,
    weil_height,
)
from .reduction import (
    BDInstance,
    CFExpansion,
    ReductionOutcome,
    bd_iterate,
    bd_reduce,
    cf_expand,
    cf_value,
    convergents,
)
from .sequence import (
    SeqWindow,
    UnsupportedCaseError,
    ValueTooLargeError,
    WindowTooLargeError,
    binet_eval,
    dominance_residual,
    kfib,
    kfib_window,
)
from .solvers import (
    MatchResult,
    NegativePairBounds,
    PipelineReport,
    PowerScanResult,
    ScanResult,
    k4_pipeline,
    multiplicity,
    negative_pair_bounds,
    pm_intersection,
    power_scan,
    repeats_scan,
    tail_lower_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BDInstance", "CBall", "CFExpansion", "CertificationError", "DEFAULT_PREC",
    "DegreeTooLargeError",
    "DominanceConstants", "FamilyPolys", "HeightResult", "IntPoly", "MAX_PREC",
    "MatchResult", "MatveevInstance", "MixedSignInstance", "NegativePairBounds",
    "PipelineReport", "PowerScanResult", "PrecisionError", "RBall",
    "ReductionOutcome", "RootProfile", "ScanResult", "SeqWindow",
    "UnsupportedCaseError", "ValueTooLargeError", "WindowTooLargeError", "bd_iterate", "bd_reduce",
    "binet_eval", "cf_expand", "cf_value", "compute_roots",
    "convergents", "cross_k_monotonicity", "crossing_bound", "deweger_factor",
    "dominance_constants", "dominance_residual", "dresden_weight",
    "family_polys", "k4_pipeline", "kfib", "kfib_window", "matveev_exponent",
    "mixed_sign_instance", "multiplicity", "negative_pair_bounds",
    "pm_intersection", "power_scan", "profile_from_json", "profile_to_json",
    "repeats_scan", "smallest_root_check", "tail_lower_threshold",
    "weil_height",
]
