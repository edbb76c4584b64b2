"""Randomised product-formula and QDRIFT simulation of Markovian open quantum
systems, with diamond-norm error certification.

BLAS runs on one thread unless the caller sets a thread count: every matrix
here is small, and extra BLAS threads only add synchronisation.  The default
is set before numpy loads, so it has no effect if numpy was imported first.

That default is all ``import lindsim`` does.  Each public name, and each
submodule (``lindsim.sdp``), loads on first use (PEP 562), so a caller pays
only for the modules it touches: the set-up path ``builtin_model``,
``generator_stats``, ``exact_channel`` loads six of the thirteen.
"""

import importlib
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("Direction", "Implementation", "Method", "StepBound", "error_bound",
                     "gate_count", "qdrift_exact", "qdrift_probs", "s1_dir", "s1_ran_exact",
                     "s2_det", "s2_ran_exact", "s2_sigma", "step_count"), "formulas"),
    **dict.fromkeys(("ForkLayout", "fork_qdrift_run", "fork_qdrift_step", "fork_s1_run",
                     "fork_s1_step"), "forking"),
    **dict.fromkeys(("ExperimentSpec", "SweepRecord", "fit_order", "load_experiment",
                     "run_sweep", "table1_report"), "harness"),
    **dict.fromkeys(("GkslGenerator", "choi", "constituent_channel", "exact_channel",
                     "full_liouvillian", "is_cptp", "load_generator", "parse_generator",
                     "term_superop"), "lindblad"),
    **dict.fromkeys(("DensityMatrix", "devectorize", "kron", "mat_exp", "partial_trace",
                     "trace_distance", "trace_norm", "vectorize"), "linalg"),
    "builtin_model": "models",
    **dict.fromkeys(("GeneratorStats", "diamond_norm", "generator_stats",
                     "power_contraction_check"), "norms"),
    "mixture_estimate": "sampling",
    **dict.fromkeys(("TOL", "Tolerances"), "tolerances"),
    "validate_all": "validation",
}

_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "sdp"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
