"""Treatment choice under mean square regret.

A statistical decision problem: after observing an estimate of a treatment
effect, commit a fraction of the population to treatment.  Judging rules by
the mean square of their regret (rather than its mean) makes deliberately
fractional allocations optimal; this package computes those rules, their
exact and simulated risk, minimax calibrations with saddle certificates,
dominance constructions over threshold rules, sample-size plans, and the
regression front end that feeds a t-statistic into the rules.

Each module declares its public names in its own ``__all__``; the package
re-exports exactly those.  ``import msregret`` loads ``numerics``, ``rules``
and ``risk``, the rule-and-risk layer most callers need.  ``lfp``,
``dominance``, ``planning`` and ``regression`` load on first use: the first
access to one of them, to one of their names, or to ``__all__`` (as
``from msregret import *`` makes).  ``import msregret.cli`` loads all seven.
"""
import importlib

from . import numerics, rules, risk
from .numerics import *  # noqa: F401,F403
from .rules import *  # noqa: F401,F403
from .risk import *  # noqa: F401,F403

__version__ = "0.1.0"

_LAZY = ("lfp", "dominance", "planning", "regression")


def _lazy_modules():
    """The lazy modules in order, each imported when the iteration reaches it."""
    return (importlib.import_module(f"{__name__}.{name}") for name in _LAZY)


def __getattr__(name: str):
    """A lazy module, or a public name bound from the first lazy module that
    exports it; __all__ is built from all seven modules' lists."""
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__", *numerics.__all__, *rules.__all__, *risk.__all__,
                 *(n for module in _lazy_modules() for n in module.__all__)]
    else:
        # no module exports a private name, and tools probe for many
        # (__wrapped__, __path__, ...): refuse them before importing anything
        module = None if name.startswith("_") else next(
            (m for m in _lazy_modules() if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value
