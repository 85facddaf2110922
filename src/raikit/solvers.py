"""Distributed common-fixed-point solvers over averaging networks.

Agents each hold a map whose fixed-point sets intersect; three synchronous
update rules (project the average, project twice, or blend one projection
into the average) drive every agent to a common fixed point.  For maps that
are metric projections onto convex sets this solves constrained consensus,
in particular distributed linear equations with one row per agent.

The convergence mechanism is the averaging inequality: for any common
fixed point, the vector of distances to it is a feasible trajectory of
x(k+1) <= W(k) x(k), so the network results apply verbatim.

Each projector kind has one closed form on the rows of an array, written
into a given output, and a problem stacks the parameters of the agents that
share a form, so one call projects them all.  A solve allocates one
workspace from n and d, its buffers and index tables, and every round
writes into it: a projection of the states, a gather and a subtract for
the residuals, and a product or a four-call blend for the next states.
``step`` and the residuals run the same kernel on a workspace of their own.
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
# with its parameters stacked row by row, written into an (m, d) ``out``
# that does not overlap X, and returned.  A row that a halfspace or a ball
# leaves in place is copied, and none of its projection is computed: that
# could warn.


def _hyperplane(X, A, b, nrm2, out):
    np.multiply(((rowdots(A, X) - b) / nrm2)[:, None], A, out=out)
    return np.subtract(X, out, out=out)


def _halfspace(X, A, b, nrm2, out):
    slack = rowdots(A, X) - b
    moved = ~(slack <= 0)  # a NaN slack moves, as in the scalar rule
    np.copyto(out, X)
    out[moved] -= (slack[moved] / nrm2[moved])[:, None] * A[moved]
    return out


def _ball(X, C, r, out):
    off = X - C
    dist = np.sqrt(rowdots(off, off))
    moved = ~(dist <= r)
    np.copyto(out, X)
    out[moved] = C[moved] + (r[moved] / dist[moved])[:, None] * off[moved]
    return out


def _affine_subspace(X, A, pinv, b, out):
    return np.subtract(X, matvecs(pinv, matvecs(A, X) - b), out=out)


@dataclass(frozen=True)
class ConvexProjector(Paracontraction):
    """Euclidean metric projection onto a closed convex set, in closed form.

    hyperplane(a, b) for a.x = b; halfspace(a, b) for a.x <= b; ball(center,
    r); box(lo, hi); affine_subspace(A, b) for A x = b.  Each records its
    kind's ``form(X, *params, out=...)``, which projects every row of an
    (m, d) array into ``out``, with ``params`` stacked row by row (one row
    here); ``apply`` is that form on one point.  ``apply`` closes over the
    parameters, so projectors compare by identity.  Vectors must be 1-D and
    A 2-D.  Degenerate specs (zero normal, negative radius, crossed bounds,
    inconsistent equations) and NaN or infinite parameters are rejected,
    except on an open side: halfspace b = inf, box lo = -inf or hi = inf,
    ball r = inf.
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
            return form(xi[None], *params, out=np.empty((1, dimension)))[0]

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
    """The agents as (rows, f, params) groups, each projected at once by
    ``f(states[rows], *params, out=...)``, in the order of their first
    agents.  The projectors of one closed form and parameter shape form one
    group, with their parameters stacked in agent order; each other map is a
    group of its own, rows its index and f its ``apply``."""
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


def _project(groups: tuple, X: np.ndarray, out: np.ndarray) -> None:
    """Write the projection of each row of X into the same row of out."""
    for rows, f, params in groups:
        if rows is _ALL:  # one closed form for all agents
            f(X, *params, out=out)
        elif isinstance(rows, int):  # a map of its own
            out[rows] = f(X[rows])
        else:
            out[rows] = f(X[rows], *params, out=np.empty((len(rows), X.shape[1])))


class _Workspace:
    """The buffers and index tables of one solve, built once from n and d.

    ``xp`` holds the states and their projections as its two halves.  Row
    r of the n + n^2 difference rows is xp[pairs[0, r]] - xp[pairs[1, r]]:
    the n gaps P_i - x_i, then every x_i - x_j, i-major.  A convex_blend
    round gathers its terms by two tables whose [t, i] entries name the
    t-th term of agent i, w_ii P_i and then w_ij x_j for the j != i in
    increasing j: ``sources`` (n, n) indexes the rows of xp, and ``order``
    the flat entries of W(k), repeated along the d coordinates, so that the
    product of the coefficients and the terms has no broadcast.  The other
    rules mix into ``mixed``."""

    __slots__ = ("W", "algorithm", "groups", "n", "xp", "states", "projected", "pairs", "gathered",
                 "diffs", "subtrahends", "squares", "bounds", "order", "sources", "coefs", "terms", "mixed")

    def __init__(self, problem: MultiAgentProblem, states: np.ndarray) -> None:
        n, d = problem.n, problem.dimension
        self.W, self.algorithm, self.groups, self.n = problem.W, problem.algorithm, problem._groups, n
        self.xp = np.empty((2 * n, d))
        self.states, self.projected = self.xp[:n], self.xp[n:]
        self.states[...] = states
        agents, left, right = np.arange(n), *np.divmod(np.arange(n * n), n)
        self.pairs = np.array([np.concatenate([agents + n, left]), np.concatenate([agents, right])])
        self.gathered = np.empty((2, n + n * n, d))
        self.diffs, self.subtrahends = self.gathered
        self.squares, self.bounds = np.empty(n + n * n), np.array([0, n])
        if self.algorithm == "convex_blend":
            t = np.arange(n - 1)[:, None]
            others = t + (t >= agents)
            order = agents * n + np.concatenate([agents[None], others])
            self.order = np.repeat(order[:, :, None], d, axis=2)
            self.sources = np.concatenate([agents[None] + n, others])
            self.coefs, self.terms = np.empty((n, n, d)), np.empty((n, n, d))
        else:
            self.mixed = np.empty((n, d))

    def residuals(self, k: int) -> tuple:
        """Disagreement and violation of the states, after projecting them
        into ``projected``.  Each squared norm is one row dot as in _norm
        (x_i - x_j and x_j - x_i have one square), and the root of the
        largest square is the largest norm.  The maxima keep NaN and inf,
        and a square is finite only if its row is, which checks the states
        too."""
        _project(self.groups, self.states, self.projected)
        self.xp.take(self.pairs, axis=0, out=self.gathered)
        np.subtract(self.diffs, self.subtrahends, out=self.diffs)
        squares = rowdots(self.diffs, self.diffs, out=self.squares)
        gap, spread = np.maximum.reduceat(squares, self.bounds).tolist()
        if not (math.isfinite(gap) and math.isfinite(spread)):
            raise ValueError(f"solver state became non-finite at iteration {k}")
        return math.sqrt(spread), math.sqrt(gap)

    def round(self, k: int) -> None:
        """Write the states at time k + 1 over the states, from those at
        time k and their projections.  A blend adds its terms in order along
        axis 0, each entry with the operations of the row-by-row sum: the
        reduce starts from -0.0, which x + -0.0 leaves as x, where its
        default 0.0 would turn a -0.0 first term into +0.0."""
        Wk = self.W.matrix(k).entries
        if self.algorithm == "convex_blend":
            Wk.take(self.order, out=self.coefs)  # from the flat entries
            self.xp.take(self.sources, axis=0, out=self.terms)
            np.multiply(self.coefs, self.terms, out=self.terms)
            np.add.reduce(self.terms, axis=0, out=self.states, initial=-0.0)
            return
        operand = self.projected if self.algorithm == "double_project" else self.states
        product(self.n)(Wk, operand, out=self.mixed)
        _project(self.groups, self.mixed, self.states)


def step(problem: MultiAgentProblem, states: np.ndarray, k: int) -> np.ndarray:
    """One synchronous round at time k.  All reads are from the step-k
    states: pre_project projects the average, double_project projects the
    average of the projections, and convex_blend adds w_ii M_i(x_i) to the
    weighted states of the others."""
    n, d = problem.n, problem.dimension
    states = np.asarray(states, dtype=float)
    if states.shape != (n, d):
        raise ValueError(f"states must be {n}x{d}")
    ws = _Workspace(problem, states)
    if problem.algorithm != "pre_project":
        _project(ws.groups, ws.states, ws.projected)
    ws.round(k)
    return ws.states


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
    """Disagreement, violation, and the projections of ``states``."""
    ws = _Workspace(problem, states)
    return (*ws.residuals(k), ws.projected)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state raises in the residuals
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
    ws = _Workspace(problem, problem.initial)
    dg_hist: list[float] = []
    vi_hist: list[float] = []
    for it in range(max_iters + 1):
        dg, vi = ws.residuals(it)
        dg_hist.append(dg)
        vi_hist.append(vi)
        if (dg < tol and vi < tol) or it == max_iters:
            break
        ws.round(it)
    return SolveResult(
        converged=dg < tol and vi < tol,
        solution=ws.states.mean(axis=0),
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
