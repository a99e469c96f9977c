"""Exponential tail bounds for normalized martingale maxima.

The pipeline has three legs: numeric convex-conjugate calculus for the
exponential-moment generators (:mod:`lilbound.phi`), a partition-optimized
block-sum bound for the maximum of S(n)/(sigma(n) v(n))
(:mod:`lilbound.engine`), and Monte Carlo plus exhaustive verification on
concrete martingale families (:mod:`lilbound.models`,
:mod:`lilbound.verify`).  Norm estimation from raw samples lives in
:mod:`lilbound.norms`; the ``lilbound`` command in :mod:`lilbound.cli`.

The names from :mod:`lilbound.verify` and :mod:`lilbound.norms` are
imported on first use (PEP 562), so ``lilbound bound`` never loads those
two modules.
"""
from .engine import (NormingSequence, SigmaProfile, block_sum,
                     constant_norming, fit_rate_form, iterated_log_norming,
                     optimized_bound, single_time_lower_bound)
from .errors import (CalibrationError, DomainError, LilboundError,
                     NonconvergenceError)
from .models import (MartingaleModel, chaos_identity_check, chaos_model,
                     power_law_surrogate, weighted_iid_model)
from .phi import (PhiFunction, chi_square_phi, conjugate, conjugate_function,
                  cosh_phi, phi2, phi_from_csv, power_phi, standard_grid)

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

_LAZY = {"Sample": "norms", "estimate_norms": "norms",
         "TailEstimate": "verify", "calibrate_constant": "verify",
         "doob_moment_check": "verify", "empirical_sup_tail": "verify",
         "exact_sup_tail": "verify", "lil_trajectory_stats": "verify",
         "single_time_tail": "verify"}


def __getattr__(name: str):
    """A name of _LAZY, from its module, imported on first use."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
