"""Capacity lower bounds for binary channels with i.i.d. deletions and insertions.

The package computes analytic lower bounds on the capacity of the deletion
channel, the insertion channel (two bounds), and the combined channel, each
of the form ``h(gamma)`` minus computable limiting conditional-entropy
penalties, maximized over the Markov source parameter gamma.  Each penalty
has one kernel: an exact closed form (the deleted-run and insertion terms)
or a sum over every run length whose error budget holds only rounding and
the row table's trimming (the run-length terms).  Every kernel is validated
against an independent computation (direct sums of the joint laws, exact
small-instance enumeration, or seeded Monte Carlo simulation), and the
printed closed forms are reported beside them.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the variable is
already set: its matrix products are small, and each OpenBLAS worker thread
costs start-up time in every command.  It takes effect when numpy has not
been imported yet, as in ``python -m delinscap``.
"""

import os

# before anything below imports numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import core, channel_sim, analytic_bounds, gamma_optimizer  # noqa: E402
from .core import *  # noqa: E402,F401,F403
from .channel_sim import *  # noqa: E402,F401,F403
from .analytic_bounds import *  # noqa: E402,F401,F403
from .gamma_optimizer import *  # noqa: E402,F401,F403

__version__ = "0.1.0"

# the public API: the four modules' own __all__ lists, each name declared once there
__all__ = [*core.__all__, *channel_sim.__all__, *analytic_bounds.__all__, *gamma_optimizer.__all__]
