"""Treatment choice under mean square regret.

A statistical decision problem: after observing an estimate of a treatment
effect, commit a fraction of the population to treatment.  Judging rules by
the mean square of their regret (rather than its mean) makes deliberately
fractional allocations optimal; this package computes those rules, their
exact and simulated risk, minimax calibrations with saddle certificates,
dominance constructions over threshold rules, sample-size plans, and the
regression front end that feeds a t-statistic into the rules.

Each module declares its public names in its own ``__all__``; the package
re-exports exactly those.
"""
from . import numerics, rules, risk, lfp, dominance, planning, regression
from .numerics import *  # noqa: F401,F403
from .rules import *  # noqa: F401,F403
from .risk import *  # noqa: F401,F403
from .lfp import *  # noqa: F401,F403
from .dominance import *  # noqa: F401,F403
from .planning import *  # noqa: F401,F403
from .regression import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *numerics.__all__,
    *rules.__all__,
    *risk.__all__,
    *lfp.__all__,
    *dominance.__all__,
    *planning.__all__,
    *regression.__all__,
]
