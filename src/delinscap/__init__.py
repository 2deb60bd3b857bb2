"""Capacity lower bounds for binary channels with i.i.d. deletions and insertions.

The package computes analytic lower bounds on the capacity of the deletion
channel, the insertion channel (two bounds), and the combined channel, each
of the form ``h(gamma)`` minus computable limiting conditional-entropy
penalties, maximized over the Markov source parameter gamma.  Each penalty
has one kernel: an exact closed form (the deleted-run and insertion terms)
or a sum with a certified truncation error (the run-length terms).  Every
kernel is validated against an independent computation (direct sums of
the joint laws, exact small-instance enumeration, or seeded Monte Carlo
simulation), and the printed closed forms are reported beside them.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the variable is
already set: its matrix products are small, and each OpenBLAS worker thread
costs start-up time in every command.  It takes effect when numpy has not
been imported yet, as in ``python -m delinscap``.
"""

import os

# before anything below imports numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (  # noqa: E402
    ChannelParams,
    MarkovSourceParams,
    RunSequence,
    Role,
    EntropyTerm,
    binary_entropy,
    generate_markov_sequence,
    to_runs,
    from_runs,
    geometric_run_pmf,
)
from .channel_sim import (  # noqa: E402
    Action,
    AuxSequences,
    ChannelOutput,
    apply_pattern,
    apply_delins,
    apply_deletion,
    apply_insertion,
    apply_cascade,
    flip_complementary,
    augment_with_deleted_runs,
)
from .analytic_bounds import (  # noqa: E402
    SeriesConfig,
    BoundResult,
    markov_q,
    stationary_iy,
    h_I_limit,
    h_T_limit,
    insertion_penalty_credit,
    cond_entropy_S_given_YY,
    closed_form_HS2,
    run_law_deletion_H,
    run_law_duplication_H,
    run_law_delins_H,
    closed_form_HLXLY,
    delins_S_term,
    closed_form_delins_S,
    lb_deletion,
    lb1_insertion,
    lb2_insertion,
    lb_delins,
)
from .gamma_optimizer import maximize_over_gamma, optimize_bound, sweep  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "MarkovSourceParams", "RunSequence", "Role", "EntropyTerm",
    "binary_entropy", "generate_markov_sequence", "to_runs", "from_runs",
    "geometric_run_pmf",
    "Action", "AuxSequences", "ChannelOutput", "apply_pattern", "apply_delins",
    "apply_deletion", "apply_insertion", "apply_cascade", "flip_complementary",
    "augment_with_deleted_runs",
    "SeriesConfig", "BoundResult", "markov_q", "stationary_iy", "h_I_limit", "h_T_limit",
    "insertion_penalty_credit", "cond_entropy_S_given_YY", "closed_form_HS2",
    "run_law_deletion_H", "run_law_duplication_H", "run_law_delins_H",
    "closed_form_HLXLY", "delins_S_term", "closed_form_delins_S",
    "lb_deletion", "lb1_insertion", "lb2_insertion", "lb_delins",
    "maximize_over_gamma", "optimize_bound", "sweep",
]
