"""Random dense countable sets at desk scale.

Exact marginal/cover duality on finite grids (max-flow with rational
certificates), seeded simulators for the classical random-set constructions,
selector and coupling algorithms over replica ensembles, and deterministic
statistical test batteries.
"""

from .duality import (
    Certificate,
    ChainReport,
    Coupling,
    Cover,
    FrequencyProfile,
    MarginalCaps,
    SupportMask,
    all_masks,
    frequency_profile,
    full_coupling,
    monotone_chain_check,
    periodic_limsup_mask,
    product_limsup_witness,
    solve,
    sweep,
)
from .errors import (
    BadParameter,
    DcsetError,
    DeficientSupport,
    DepthExhausted,
    FactorizationFailure,
    InsufficientDensity,
    NotNested,
    ParseError,
    SparseTable,
    SweepTooLarge,
    TooFewSamples,
    UnsupportedCoupling,
)
from .generators import (
    Enumeration,
    RevealingSelectors,
    Seed,
    WalkPath,
    brownian_minima,
    counterexample_mix,
    counterexample_rows,
    gaussian_walk,
    intensity_estimate,
    minima_rows,
    poisson_on_cantor,
    poisson_rows,
    revealing_selectors,
    sample_rows,
    sample_uniform,
    walk_minima,
)
from .grid_measure import (
    BinSet,
    CyclicShift,
    FatCantor,
    UnitGrid,
    cyclic_shift_points,
    fat_cantor_build,
)
from .selector import (
    Ensemble,
    SelectorTable,
    build_support_mask,
    conditional_uniform_selector,
    interleave_containment,
    interleaved_enumeration,
    sample_ensemble,
    selector_from_coupling,
    uniform_selector,
    verify_selector,
)
from .stats import (
    ShiftHitCurve,
    TestReport,
    chi_square_independence,
    distinguish_counterexample,
    dyadic_rationals,
    event_reconstruction_check,
    fragment_independence_test,
    ks_uniform,
    shift_hit_curve,
    stationarity_test,
    two_sample_test,
)

__version__ = "0.1.0"
