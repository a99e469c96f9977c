"""Exponential tail bounds for normalized martingale maxima.

The pipeline has three legs: numeric convex-conjugate calculus for the
exponential-moment generators (:mod:`lilbound.phi`), a partition-optimized
block-sum bound for the maximum of S(n)/(sigma(n) v(n))
(:mod:`lilbound.engine`), and Monte Carlo plus exhaustive verification on
concrete martingale families (:mod:`lilbound.models`,
:mod:`lilbound.verify`).  Norm estimation from raw samples lives in
:mod:`lilbound.norms`; the ``lilbound`` command in :mod:`lilbound.cli`.
"""
from .engine import (NormingSequence, SigmaProfile, block_sum,
                     constant_norming, fit_rate_form, iterated_log_norming,
                     optimized_bound, single_time_lower_bound)
from .errors import (CalibrationError, DomainError, LilboundError,
                     NonconvergenceError)
from .models import (MartingaleModel, chaos_identity_check, chaos_model,
                     power_law_surrogate, weighted_iid_model)
from .norms import Sample, estimate_norms
from .phi import (PhiFunction, chi_square_phi, conjugate, conjugate_function,
                  cosh_phi, phi2, phi_from_csv, power_phi, standard_grid)
from .verify import (TailEstimate, calibrate_constant, doob_moment_check,
                     empirical_sup_tail, exact_sup_tail, lil_trajectory_stats,
                     single_time_tail)

__version__ = "0.1.0"

# what the README's library example, the CLI and the acceptance criteria
# use; everything else is reached through its module
__all__ = [
    "CalibrationError", "DomainError", "LilboundError", "MartingaleModel",
    "NonconvergenceError", "NormingSequence", "PhiFunction", "Sample",
    "SigmaProfile", "TailEstimate", "block_sum", "calibrate_constant",
    "chaos_identity_check", "chaos_model", "chi_square_phi", "conjugate",
    "conjugate_function", "constant_norming", "cosh_phi",
    "doob_moment_check", "empirical_sup_tail", "estimate_norms",
    "exact_sup_tail", "fit_rate_form", "iterated_log_norming",
    "lil_trajectory_stats", "optimized_bound", "phi2", "phi_from_csv",
    "power_law_surrogate", "power_phi", "single_time_lower_bound",
    "single_time_tail", "standard_grid", "weighted_iid_model",
]
