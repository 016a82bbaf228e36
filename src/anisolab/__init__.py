"""Numerical laboratory for the singular anisotropic p-Laplace equation

    - sum_i d/dx_i ( |du/dx_i|^(p_i - 2) du/dx_i ) = g(x) f(u),   u > 0,

covering both sides of the theory: computing weak solutions of the
regularized problems on bounded boxes (with the monotonicity and positivity
properties checked numerically, and a report of whether the paper's
hypothesis predicts a uniform bound), and mechanizing the nonexistence
machinery for stable solutions on large boxes (critical exponent regions,
truncation identities, cutoff estimates, radius sweeps).
"""

from .errors import HypothesisNotApplicableError, NonConvergenceError, ValidationError
from .exponents import (
    ApplicableTheorem,
    ExponentData,
    ExpSingular,
    Interval,
    MixedPower,
    ProblemSpec,
    ThresholdReport,
    beta_window,
    decay_exponents,
    harmonic_mean,
    integrability_thresholds,
    region_memberships,
    select_beta,
    sobolev_exponent,
    theta_exponents,
)
from .grid import (
    CutoffSpec,
    Grid,
    GridField,
    axis_diff,
    export_field_csv,
    face_divergence,
    integrate,
    level_set_measure,
    load_field,
    make_cutoff,
    p_laplacian_apply,
    save_field,
    weighted_integrate,
)
from .solver import (
    LadderReport,
    RegularizationLevel,
    WeightSpec,
    apply_A,
    inner_energy,
    run_ladder,
    solve_inner,
    solve_level,
    stampacchia_extinction,
    stampacchia_verify,
)
from .stability import (
    CaccioppoliReport,
    NonlinearityEval,
    StabilityReport,
    StabilityVariant,
    apriori_sides,
    corollary_sides,
    nonexistence_certificate,
    radius_sweep,
    stability_gap,
    stability_index,
    weak_residual,
)
from .truncations import TruncationPair, a_eval, a_prime, b_eval, b_prime, verify_properties

__version__ = "0.1.0"
