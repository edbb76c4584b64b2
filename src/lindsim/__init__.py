"""Randomised product-formula and QDRIFT simulation of Markovian open quantum
systems, with diamond-norm error certification.

BLAS runs on one thread unless the caller sets a thread count: every matrix
here is small, and extra BLAS threads only add synchronisation.  The default
is set before numpy loads, so it has no effect if numpy was imported first.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .formulas import (
    Direction,
    Implementation,
    Method,
    StepBound,
    error_bound,
    gate_count,
    qdrift_exact,
    qdrift_probs,
    s1_dir,
    s1_ran_exact,
    s2_det,
    s2_ran_exact,
    s2_sigma,
    step_count,
)
from .forking import (
    ForkLayout,
    fork_qdrift_run,
    fork_qdrift_step,
    fork_s1_run,
    fork_s1_step,
)
from .harness import (
    ExperimentSpec,
    SweepRecord,
    fit_order,
    load_experiment,
    run_sweep,
    table1_report,
)
from .lindblad import (
    GkslGenerator,
    choi,
    constituent_channel,
    exact_channel,
    full_liouvillian,
    is_cptp,
    load_generator,
    parse_generator,
    term_superop,
)
from .linalg import (
    DensityMatrix,
    devectorize,
    kron,
    mat_exp,
    partial_trace,
    trace_distance,
    trace_norm,
    vectorize,
)
from .models import builtin_model
from .norms import GeneratorStats, diamond_norm, generator_stats, power_contraction_check
from .sampling import (
    GateSet,
    apply_gateset,
    draw_gateset,
    gateset_channel,
    mixture_estimate,
    sample_gateset,
)
from .tolerances import TOL, Tolerances
from .validation import validate_all

__version__ = "0.1.0"
