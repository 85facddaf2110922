"""Numeric tolerances and enumeration limits shared across the package.

These values are pinned once here so that every analyzer, engine and test
agrees on what "zero", "converged" and "exact" mean in floating point.
"""

# Matrix validation.
ROW_SUM_TOL = 1e-9      # accepted deviation of an input row sum from 1
ENTRY_FLUSH = 1e-15     # magnitudes below this are flushed to 0.0 at validation
EIG_TOL = 1e-10         # spectral accuracy target; power iteration cap is 100*n

# Trajectory feasibility and classification.
FEAS_TOL = 1e-12        # allowed entrywise violation of Delta(k) >= 0
CONSENSUS_TOL = 1e-7    # tail total-variation bound for "converged"
RESIDUAL_TOL = 1e-7     # tail bound for "residual vanishes"
DIVERGENCE_FLOOR = 1e6  # below -DIVERGENCE_FLOOR and decreasing => diverging


def tail_window(steps: int) -> int:
    """Length of the trailing window classify() inspects."""
    return max(50, steps // 10)


# Sequence analysis.
CUT_ENUMERATION_LIMIT = 20    # cut constants C enumerate up to 2^20 cuts
DIVERGENCE_THRESHOLD = 10.0   # partial-sum threshold for persistent arcs

# Opinion models.
CLUSTER_TOL = 1e-6      # terminal values closer than this share a cluster


def hk_step_cap(n: int) -> int:
    """Default step cap of a bounded-confidence run of n agents (scenarios
    without ``max_steps``): 10 * n**3."""
    return 10 * n**3


# Fixed-point solvers.
FP_TOL = 1e-9           # fixed-point membership test
SOLVER_TOL = 1e-6       # default stopping tolerance for solve()
MAX_ITERS = 100_000     # default iteration cap for solve()
