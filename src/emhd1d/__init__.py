"""Pseudospectral laboratory for 1D nonlocal electron-MHD models."""

from .spectral import (
    GridSpec,
    SpectralField,
    derivative,
    eval_trig,
    evaluate_at,
    frac_laplacian,
    hilbert,
    product,
    remove_mean,
    riesz_potential,
    sobolev_weight,
)
from .solver import (
    ModelParams,
    PicardResult,
    StepperConfig,
    TimeSeries,
    evolve,
    picard_solve,
    rhs,
    scaling_symmetry_mismatch,
    step,
)
from .lp import (
    LPCutoffs,
    bernstein_check,
    commutator_check,
    lp_norm,
    norm_equivalence_ratio,
    project_shell,
    shell_spectrum,
    sobolev_norm,
)
from .blowup import (
    BlowupDatum,
    advect_trajectory,
    make_reference_datum,
    measure_blowup_time,
    predict_blowup_time,
    pv_blowup_coefficient,
    riccati_invariant_report,
    run_blowup,
)
from .diagnostics import (
    flux_balance_defect,
    flux_decomposition,
    flux_defect_ratio,
    norm_series,
    rough_datum,
    smoothing_rate_fit,
    smoothing_rate_fit_semigroup,
)

__version__ = "0.1.0"
