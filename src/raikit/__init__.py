"""Toolkit for recurrent averaging inequalities.

Analysis of directed influence structures (strong connectivity, cut
balance, aperiodicity), row-stochastic and substochastic matrix criteria,
trajectory engines for disturbed and delayed averaging recursions,
bounded-confidence and signed opinion models, and multi-agent
constrained fixed-point solvers.
"""

from . import engine, graphs, matrices, opinions, sequences, solvers
from .engine import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .matrices import *  # noqa: F401,F403
from .opinions import *  # noqa: F401,F403
from .sequences import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module's __all__ is what the package exports; helpers that modules
# share with one another stay out of it.
__all__ = [
    name
    for module in (engine, graphs, matrices, opinions, sequences, solvers)
    for name in module.__all__
]
