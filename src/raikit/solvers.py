"""Distributed common-fixed-point solvers over averaging networks.

Agents each hold a map whose fixed-point sets intersect; three synchronous
update rules (project the average, project twice, or blend one projection
into the average) drive every agent to a common fixed point.  For maps that
are metric projections onto convex sets this solves constrained consensus,
in particular distributed linear equations with one row per agent.

The convergence mechanism is the averaging inequality: for any common
fixed point, the vector of distances to it is a feasible trajectory of
x(k+1) <= W(k) x(k), so the network results apply verbatim.

A round is a few whole-array passes.  Each projector kind has one closed
form on the rows of an array, and a problem stacks the parameters of the
agents that share a form, so one call projects them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graphs import ArrayFields, Report, _check_count
from .products import matvecs, product, rowdots
from .sequences import MatrixSequence
from .tolerances import FP_TOL, MAX_ITERS, SOLVER_TOL

__all__ = [
    "ALGORITHMS",
    "Paracontraction",
    "ConvexProjector",
    "MultiAgentProblem",
    "SolveResult",
    "AuditReport",
    "project",
    "step",
    "solve",
    "paracontraction_audit",
]

ALGORITHMS = ("pre_project", "double_project", "convex_blend")


def _norm(v: np.ndarray) -> float:
    """numpy's norm of a float vector, unwrapped: ravel (a strided view is
    copied to a contiguous one), one row dot, one sqrt."""
    v = v.ravel(order="K")[None]
    return math.sqrt(rowdots(v, v)[0])


@dataclass(frozen=True)
class Paracontraction:
    """A map that strictly approaches its fixed points: for any fixed xi0
    and non-fixed xi, ||M(xi) - xi0|| < ||xi - xi0|| in the Euclidean norm.
    ``apply`` must be pure.  The property itself is sampled, not proved:
    see paracontraction_audit."""

    dimension: int
    apply: Callable[[np.ndarray], np.ndarray]

    def fixed_point_test(self, xi) -> bool:
        xi = np.asarray(xi, dtype=float)
        return _norm(self.apply(xi) - xi) < FP_TOL


def _vector(name: str, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    return v


# The closed forms (a box's is np.clip), each on the rows of an (m, d) array
# with its parameters stacked row by row.  A row that a halfspace or a ball
# leaves in place is copied, and none of its projection is computed: that
# could warn.


def _hyperplane(X, A, b, nrm2):
    return X - ((rowdots(A, X) - b) / nrm2)[:, None] * A


def _halfspace(X, A, b, nrm2):
    slack = rowdots(A, X) - b
    out, moved = X.copy(), ~(slack <= 0)  # a NaN slack moves, as in the scalar rule
    out[moved] -= (slack[moved] / nrm2[moved])[:, None] * A[moved]
    return out


def _ball(X, C, r):
    off = X - C
    dist = np.sqrt(rowdots(off, off))
    out, moved = X.copy(), ~(dist <= r)
    out[moved] = C[moved] + (r[moved] / dist[moved])[:, None] * off[moved]
    return out


def _affine_subspace(X, A, pinv, b):
    return X - matvecs(pinv, matvecs(A, X) - b)


@dataclass(frozen=True)
class ConvexProjector(Paracontraction):
    """Euclidean metric projection onto a closed convex set, in closed form.

    hyperplane(a, b) for a.x = b; halfspace(a, b) for a.x <= b; ball(center,
    r); box(lo, hi); affine_subspace(A, b) for A x = b.  Each records its
    kind's ``form(X, *params)``, which projects every row of an (m, d) array
    with ``params`` stacked row by row (one row here); ``apply`` is that form
    on one point.  ``apply`` closes over the parameters, so projectors compare
    by identity.  Vectors must be 1-D and A 2-D.  Degenerate specs (zero
    normal, negative radius, crossed bounds, inconsistent equations) and NaN
    or infinite parameters are rejected, except on an open side: halfspace
    b = inf, box lo = -inf or hi = inf, ball r = inf.
    """

    form: Callable = field(compare=False, repr=False)
    params: tuple = field(compare=False, repr=False)

    @classmethod
    def _closed_form(cls, dimension: int, form: Callable, *params) -> "ConvexProjector":
        params = tuple(np.array(p, dtype=float)[None] for p in params)  # copies, detached from the inputs

        def apply(xi) -> np.ndarray:
            xi = np.asarray(xi, dtype=float)
            if xi.shape != (dimension,):
                raise ValueError(f"point must have dimension {dimension}")
            return form(xi[None], *params)[0]

        return cls(dimension=dimension, apply=apply, form=form, params=params)

    @classmethod
    def hyperplane(cls, a, b: float) -> "ConvexProjector":
        a = _vector("hyperplane a", a)
        nrm2 = float(product(a.shape[0])(a, a))
        if not nrm2 > 0:
            raise ValueError("hyperplane normal must be nonzero")
        b = float(b)
        if not (np.all(np.isfinite(a)) and np.isfinite(b)):
            raise ValueError("hyperplane normal and offset must be finite")
        return cls._closed_form(a.shape[0], _hyperplane, a, b, nrm2)

    @classmethod
    def halfspace(cls, a, b: float) -> "ConvexProjector":
        a = _vector("halfspace a", a)
        nrm2 = float(product(a.shape[0])(a, a))
        if not nrm2 > 0:
            raise ValueError("halfspace normal must be nonzero")
        b = float(b)
        if not (np.all(np.isfinite(a)) and b > -np.inf):  # b = inf is the whole space
            raise ValueError("halfspace normal must be finite and offset > -inf")
        return cls._closed_form(a.shape[0], _halfspace, a, b, nrm2)

    @classmethod
    def ball(cls, center, r: float) -> "ConvexProjector":
        c = _vector("ball center", center)
        if not r >= 0:  # also NaN
            raise ValueError("ball radius must be >= 0")
        r = float(r)
        if not np.all(np.isfinite(c)):
            raise ValueError("ball center must be finite")
        return cls._closed_form(c.shape[0], _ball, c, r)

    @classmethod
    def box(cls, lo, hi) -> "ConvexProjector":
        lo = _vector("box lo", lo)
        hi = _vector("box hi", hi)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("box needs lo <= hi elementwise")
        if not (np.all(lo < np.inf) and np.all(hi > -np.inf)):  # also NaN
            raise ValueError("box needs lo < inf and hi > -inf")
        return cls._closed_form(lo.shape[0], np.clip, lo, hi)

    @classmethod
    def affine_subspace(cls, A, b) -> "ConvexProjector":
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"affine subspace A must be a 2-D (m x d) matrix, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise ValueError("need A (m x d) and b (m,)")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("affine subspace A and b must be finite")
        pinv = np.linalg.pinv(A)
        least = product(pinv.shape[0])(pinv, b)
        scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        if float(np.abs(product(A.shape[0])(A, least) - b).max(initial=0.0)) > 1e-8 * scale:
            raise ValueError("equations are inconsistent; the subspace is empty")
        return cls._closed_form(A.shape[1], _affine_subspace, A, pinv, b)


def project(p, xi) -> np.ndarray:
    """Apply a projector (or any paracontraction) to a point."""
    return p.apply(np.asarray(xi, dtype=float))


@dataclass(frozen=True, eq=False)
class MultiAgentProblem(ArrayFields):
    """n agents, one map each, coupled through an averaging sequence.  The
    agents are grouped by closed form once, here, for solve and step."""

    maps: tuple
    W: MatrixSequence
    algorithm: str
    initial: np.ndarray

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        if len(maps) != self.W.n:
            raise ValueError("need one map per agent")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        d = maps[0].dimension
        if any(m.dimension != d for m in maps):
            raise ValueError("all maps must share one dimension")
        init = np.asarray(self.initial, dtype=float)
        if init.shape != (len(maps), d):
            raise ValueError(f"initial states must be {len(maps)}x{d}, got {init.shape}")
        if not np.all(np.isfinite(init)):
            raise ValueError("initial states must be finite")
        init = init.copy()
        init.setflags(write=False)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "_groups", _grouped(maps))

    @property
    def n(self) -> int:
        return len(self.maps)

    @property
    def dimension(self) -> int:
        return self.maps[0].dimension


_ALL = slice(None)  # the rows of a group that holds every agent


def _grouped(maps: tuple) -> tuple:
    """The agents as (rows, f, params) groups, each projected at once as
    ``f(states[rows], *params)``, in the order of their first agents.  The
    projectors of one closed form and parameter shape form one group, with
    their parameters stacked in agent order; each other map is a group of
    its own, its row projected by its ``apply``."""
    members: dict = {}
    for i, m in enumerate(maps):
        key = (m.form, *(p.shape for p in m.params)) if isinstance(m, ConvexProjector) else i
        members.setdefault(key, []).append(i)
    groups = []
    for key, rows in members.items():
        if isinstance(key, int):
            groups.append((key, maps[key].apply, ()))
        else:
            params = tuple(map(np.concatenate, zip(*(maps[i].params for i in rows))))
            groups.append((_ALL if len(rows) == len(maps) else rows, key[0], params))
    return tuple(groups)


def _project(groups: tuple, states: np.ndarray) -> np.ndarray:
    rows, f, params = groups[0]
    if rows is _ALL:  # one closed form for all agents
        return f(states, *params)
    out = np.empty_like(states)
    for rows, f, params in groups:
        out[rows] = f(states[rows], *params)
    return out


def _slots(n: int) -> np.ndarray:
    """(n-1, n) table whose [t, i] entry is i*n + j for the t-th j != i in
    increasing j: the place of w_ij x_j among the n*n products."""
    t, i = np.arange(n - 1)[:, None], np.arange(n)
    return i * n + t + (t >= i)


def _step(problem: MultiAgentProblem, states: np.ndarray, k: int, projected: np.ndarray | None, slots) -> np.ndarray:
    """The round at time k from the projections of the step-k states."""
    Wk = problem.W.matrix(k).entries
    if problem.algorithm == "convex_blend":
        # w_ii P_i, then + w_ij x_j for the j != i in increasing j, a slot at
        # a time for all rows: each entry gets the row-by-row sum's operations.
        out = Wk.diagonal()[:, None] * projected
        for term in (Wk[:, :, None] * states).reshape(problem.n**2, -1).take(slots, axis=0):
            out += term
        return out
    mixed = product(problem.n)(Wk, states if problem.algorithm == "pre_project" else projected)
    return _project(problem._groups, mixed)


def step(problem: MultiAgentProblem, states: np.ndarray, k: int) -> np.ndarray:
    """One synchronous round at time k.  All reads are from the step-k
    states: pre_project projects the average, double_project projects the
    average of the projections, and convex_blend adds w_ii M_i(x_i) to the
    weighted states of the others."""
    n, d = problem.n, problem.dimension
    states = np.asarray(states, dtype=float)
    if states.shape != (n, d):
        raise ValueError(f"states must be {n}x{d}")
    projected = None if problem.algorithm == "pre_project" else _project(problem._groups, states)
    return _step(problem, states, k, projected, _slots(n))


@dataclass(frozen=True, eq=False)
class SolveResult(Report, ArrayFields):
    converged: bool
    solution: np.ndarray
    iterations: int
    agent_disagreement: float
    constraint_violation: float
    disagreement_history: tuple
    violation_history: tuple

    def history_csv(self) -> str:
        lines = ["iteration,disagreement,violation"]
        for i, (dg, vi) in enumerate(zip(self.disagreement_history, self.violation_history)):
            lines.append(f"{i},{dg!r},{vi!r}")
        return "\n".join(lines) + "\n"


def _residuals(problem: MultiAgentProblem, states: np.ndarray, k: int) -> tuple:
    """Disagreement, violation, and the projections.  The rows of one fresh
    array are the n gaps P_i - x_i and all n^2 differences x_i - x_j (x_i -
    x_j and x_j - x_i have one square), so each squared norm is one dot as
    in _norm, and the root of the largest square is the largest norm.  The
    maxima keep NaN and inf, and a square is finite only if its row is,
    which checks the states too."""
    (n, d), projected = states.shape, _project(problem._groups, states)
    diffs = np.empty((n + n * n, d))
    np.subtract(projected, states, out=diffs[:n])
    np.subtract(states[:, None], states, out=diffs[n:].reshape(n, n, d))
    gap, spread = np.maximum.reduceat(rowdots(diffs, diffs), [0, n]).tolist()
    if not (math.isfinite(gap) and math.isfinite(spread)):
        raise ValueError(f"solver state became non-finite at iteration {k}")
    return math.sqrt(spread), math.sqrt(gap), projected


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state raises in _residuals
def solve(
    problem: MultiAgentProblem,
    max_iters: int = MAX_ITERS,
    tol: float = SOLVER_TOL,
) -> SolveResult:
    """Iterate the chosen rule until all agents agree and all satisfy their
    own constraint (both residuals below tol), or max_iters rounds pass.

    Non-convergence is a result, not an exception: the hypotheses (a common
    fixed point, enough network connectivity) are the caller's obligation,
    and the reported residuals tell which one failed.  The solution field is
    the agent average, meaningful only when converged."""
    _check_count("max_iters", max_iters)
    if not tol > 0:
        raise ValueError("tol must be positive")
    states = problem.initial.copy()
    slots = _slots(problem.n)
    dg_hist: list[float] = []
    vi_hist: list[float] = []
    for it in range(max_iters + 1):
        dg, vi, projected = _residuals(problem, states, it)
        dg_hist.append(dg)
        vi_hist.append(vi)
        if (dg < tol and vi < tol) or it == max_iters:
            break
        states = _step(problem, states, it, projected, slots)
    return SolveResult(
        converged=dg < tol and vi < tol,
        solution=states.mean(axis=0),
        iterations=it,
        agent_disagreement=dg,
        constraint_violation=vi,
        disagreement_history=tuple(dg_hist),
        violation_history=tuple(vi_hist),
    )


@dataclass(frozen=True, eq=False)
class AuditReport(Report, ArrayFields):
    violations: int
    worst_margin: float | None
    fixed_point: np.ndarray


def paracontraction_audit(p, samples: int, seed: int = 0) -> AuditReport:
    """Sample the strict-decrease property toward a fixed point.

    A fixed point is located by iterating the map from the origin (up to
    10^4 rounds); failing that is an error.  Each non-fixed sample xi must
    satisfy ||M(xi) - xi0|| < ||xi - xi0||; shortfalls beyond fp_tol count
    as violations, and worst_margin is the smallest observed decrease
    (negative means some sample moved away)."""
    _check_count("samples", samples)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    xi0 = np.zeros(p.dimension)
    found = p.fixed_point_test(xi0)
    if not found:
        for _ in range(10_000):
            xi0 = np.asarray(p.apply(xi0), dtype=float)
            if p.fixed_point_test(xi0):
                found = True
                break
    if not found:
        raise ValueError("no fixed point found by iteration; supply a convergent map")
    rng = np.random.default_rng(seed)
    violations = 0
    worst: float | None = None
    for _ in range(samples):
        xi = xi0 + rng.standard_normal(p.dimension) * 10.0 ** rng.integers(-2, 3)
        if p.fixed_point_test(xi):
            continue
        margin = _norm(xi - xi0) - _norm(np.asarray(p.apply(xi)) - xi0)
        if worst is None or margin < worst:
            worst = margin
        if margin < -FP_TOL:
            violations += 1
    return AuditReport(violations=violations, worst_margin=worst, fixed_point=xi0)
