"""Trajectory engines for averaging recursions and averaging inequalities.

The model: each agent's next value is at most the weighted average of
current values, x(k+1) <= W(k) x(k) entrywise.  Feasible trajectories are
parameterized by nonnegative disturbances, x(k+1) = W(k) x(k) - delta(k),
so the exact recursion is the zero-disturbance special case.  The delayed
engine advances a stacked state vector through block companion matrices,
which makes the no-delay and constant-delay reductions hold bitwise, not
just approximately: see run_delayed_rai.

Every engine, the signed and bounded-confidence runs of raikit.opinions
included, computes x(k+1) from x(k) plus a per-step residual in the one
step loop ``_iterate``, which fills one (steps+1, n) state array,
reserved up front for a fixed-length run and grown by doubling for a run
that may end early; ``_check_x0`` checks every initial and history vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .graphs import Cut, Report
from .matrices import RowStochasticMatrix
from .sequences import IndexedSequence, MatrixSequence
from .tolerances import (
    CONSENSUS_TOL,
    DIVERGENCE_FLOOR,
    FEAS_TOL,
    RESIDUAL_TOL,
    tail_window,
)

__all__ = [
    "Trajectory",
    "DisturbancePolicy",
    "DelaySpec",
    "AgentStatus",
    "ConvergenceVerdict",
    "run_degroot",
    "run_rai",
    "run_delayed_rai",
    "xiao_stack",
    "classify",
    "flow_contraction_bound",
    "flow_contraction_bound_delayed",
    "sorted_transform",
    "exp_product_bound",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Trajectory(Report):
    """A finite run x(0..K) with its per-step disturbances and extremes.

    ``states`` is (K+1) x n, ``residuals`` is K x n (the disturbance applied
    at each step; the last state has none).  ``M``, ``m``, ``d`` are the
    running max, min and diameter of the state.  ``window_max`` is only set
    by the delayed engine: the max over the full delay window, which is the
    quantity that is non-increasing when delays are present (plain M(k) need
    not be monotone under delays).
    """

    states: np.ndarray
    residuals: np.ndarray
    M: np.ndarray
    m: np.ndarray
    d: np.ndarray
    window_max: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", _readonly(self.states))
        object.__setattr__(self, "residuals", _readonly(self.residuals))
        object.__setattr__(self, "M", _readonly(self.M))
        object.__setattr__(self, "m", _readonly(self.m))
        object.__setattr__(self, "d", _readonly(self.d))
        if self.window_max is not None:
            object.__setattr__(self, "window_max", _readonly(self.window_max))

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    def feasibility_margin(self) -> float:
        """Smallest disturbance entry; engine-produced runs keep this >= 0."""
        if self.residuals.size == 0:
            return 0.0
        return float(self.residuals.min())

    def max_drift(self) -> float:
        """Largest one-step increase of M(k); nonpositive up to rounding."""
        if self.M.size < 2:
            return 0.0
        return float(np.max(np.diff(self.M)))

    def to_csv(self) -> str:
        n = self.n
        cols = (
            ["k"]
            + [f"x_{i}" for i in range(n)]
            + [f"delta_{i}" for i in range(n)]
            + ["M", "m", "d"]
        )
        lines = [",".join(cols)]
        for k in range(self.steps + 1):
            row = [str(k)]
            row += [repr(float(v)) for v in self.states[k]]
            if k < self.steps:
                row += [repr(float(v)) for v in self.residuals[k]]
            else:
                row += [""] * n
            row += [repr(float(self.M[k])), repr(float(self.m[k])), repr(float(self.d[k]))]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        obj = super().to_json_obj()
        if self.window_max is None:
            del obj["window_max"]  # only delayed runs have the key
        return obj


@dataclass(frozen=True)
class DisturbancePolicy:
    """Source of the nonnegative per-step disturbances delta(k).

    kind "zero": delta identically 0 (the exact averaging recursion).
    kind "vanishing_random": scale * decay^k * uniform[0,1]^n, summable.
    kind "constant_random": scale * uniform[0,1]^n, non-vanishing.
    kind "adversarial_replay": an explicit table of vectors, cycled when the
    run is longer than the table (the replayed counterexamples are periodic).
    Random kinds are deterministic given ``seed``.  A run draws its whole
    (steps, n) block of disturbances once and checks it once.
    """

    kind: str
    scale: float = 0.0
    decay: float = 1.0
    replay: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind == "adversarial_replay" and not self.replay:
            raise ValueError("replay table must be nonempty")

    @classmethod
    def zero(cls) -> "DisturbancePolicy":
        return cls(kind="zero")

    @classmethod
    def vanishing_random(cls, scale: float, decay: float, seed: int = 0) -> "DisturbancePolicy":
        if not np.isfinite(scale) or scale < 0 or not 0 < decay < 1:
            raise ValueError("need a finite scale >= 0 and 0 < decay < 1")
        return cls(kind="vanishing_random", scale=scale, decay=decay, seed=seed)

    @classmethod
    def constant_random(cls, scale: float, seed: int = 0) -> "DisturbancePolicy":
        if not np.isfinite(scale) or scale < 0:
            raise ValueError("scale must be a finite number >= 0")
        return cls(kind="constant_random", scale=scale, seed=seed)

    @classmethod
    def adversarial_replay(cls, deltas: Iterable[Iterable[float]]) -> "DisturbancePolicy":
        table = tuple(tuple(float(v) for v in row) for row in deltas)
        for row in table:
            for v in row:
                if not np.isfinite(v) or v < 0:
                    raise ValueError(f"replay disturbance {v!r} is not a nonnegative real")
        return cls(kind="adversarial_replay", replay=table)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DisturbancePolicy":
        kind = obj["kind"]
        if kind == "zero":
            return cls.zero()
        if kind == "vanishing_random":
            return cls.vanishing_random(obj["scale"], obj["decay"], obj.get("seed", 0))
        if kind == "constant_random":
            return cls.constant_random(obj["scale"], obj.get("seed", 0))
        if kind == "adversarial_replay":
            return cls.adversarial_replay(obj["deltas"])
        raise ValueError(f"unknown disturbance kind {kind!r}")

    def to_json_obj(self) -> dict:
        if self.kind == "zero":
            return {"kind": "zero"}
        if self.kind == "vanishing_random":
            return {"kind": "vanishing_random", "scale": self.scale, "decay": self.decay, "seed": self.seed}
        if self.kind == "constant_random":
            return {"kind": "constant_random", "scale": self.scale, "seed": self.seed}
        return {"kind": "adversarial_replay", "deltas": [list(r) for r in self.replay]}

    def draw(self, n: int, steps: int) -> np.ndarray:
        """delta(0), ..., delta(steps-1) as a (steps, n) block.  One block
        draw takes the same generator bits as one draw of n per step, and
        each decay factor is the scalar scale * decay**k.  Raises ValueError
        naming the first step with a negative or non-finite entry."""
        if self.kind == "zero":
            block = np.zeros((steps, n))
        elif self.kind in ("vanishing_random", "constant_random"):
            block = np.random.default_rng(self.seed).random((steps, n))
            if self.kind == "vanishing_random":
                scale, decay = self.scale, self.decay
                block *= np.array([scale * decay**k for k in range(steps)])[:, None]
            else:
                block *= self.scale
        elif self.kind == "adversarial_replay":
            if any(len(row) != n for row in self.replay):
                raise ValueError("replay rows do not match the state dimension")
            table = np.array(self.replay, dtype=float)
            block = table[np.arange(steps) % len(table)]
        else:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        ok = (np.isfinite(block) & (block >= 0)).all(axis=1)
        if not ok.all():
            k = int(np.argmin(ok))
            what = "a negative" if (block[k] < 0).any() else "a non-finite"
            raise ValueError(f"disturbance at step {k} has {what} entry")
        return block


def _check_x0(x0, n: int | None, what: str = "initial vector") -> np.ndarray:
    """``x0`` as a finite float vector of length n (any length if n is None)."""
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or n is not None and x.shape != (n,):
        raise ValueError(f"{what} must have shape ({'n' if n is None else n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


def _iterate(
    x: np.ndarray, steps: int, residuals: np.ndarray, step, window_max=None
) -> tuple[Trajectory, int | None]:
    """The one step loop: ``step(k, x(k), r(k), out)`` writes x(k+1) into
    ``out``, reading or filling the residual row r(k), and a true return
    ends the run after step k.  ``residuals`` holds the first rows of the
    (steps, n) residual array; both arrays double when a run outgrows them
    and are cut to its length as copies when it ends early.  Returns the
    run and the step that ended it, or None.  A non-finite state has no
    verdict and raises ValueError naming its first step; the row max and
    min propagate NaN and infinity, so those two vectors cover every entry."""
    n, rows = x.shape[0], residuals.shape[0]
    states = np.empty((rows + 1, n))
    states[0] = x
    stop = None
    for k in range(steps):
        if k == rows:
            more = np.empty((min(k, steps - k), n))
            residuals = np.concatenate([residuals, more])
            states = np.concatenate([states, more])
            rows += more.shape[0]
        if step(k, states[k], residuals[k], states[k + 1]):
            stop = k
            if k + 1 < rows:
                states, residuals = states[: k + 2].copy(), residuals[: k + 1].copy()
            break
    M = states.max(axis=1)
    m = states.min(axis=1)
    finite = np.isfinite(M) & np.isfinite(m)
    if not finite.all():
        raise ValueError(f"state became non-finite at step {int(np.argmin(finite))}")
    traj = Trajectory(states=states, residuals=residuals, M=M, m=m, d=M - m, window_max=window_max)
    return traj, stop


def run_rai(
    seq: MatrixSequence, x0, policy: DisturbancePolicy, steps: int
) -> Trajectory:
    """Run x(k+1) = W(k) x(k) - delta(k) for the given number of steps.

    The stored residuals are the drawn disturbances; with the zero policy
    the result is bitwise identical to run_degroot."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = _check_x0(x0, seq.n)

    def step(k, x, delta, out):
        np.subtract(seq.matrix(k).entries @ x, delta, out=out)

    return _iterate(x, steps, policy.draw(seq.n, steps), step)[0]


def run_degroot(seq: MatrixSequence, x0, steps: int) -> Trajectory:
    """Exact averaging recursion x(k+1) = W(k) x(k); residuals are zero."""
    return run_rai(seq, x0, DisturbancePolicy.zero(), steps)


def _validate_delays(d_star: int, t) -> np.ndarray:
    a = np.asarray(t)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("delay table must be square")
    if not np.issubdtype(a.dtype, np.integer):
        af = np.asarray(t, dtype=float)
        if np.any(af != np.round(af)):
            raise ValueError("delays must be integers")
        a = af.astype(int)
    a = a.astype(int)
    if np.any(a < 0) or np.any(a > d_star):
        raise ValueError(f"delays must lie in [0, {d_star}]")
    if np.any(np.diag(a) != 0):
        raise ValueError("diagonal delays must be zero")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DelaySpec:
    """Communication delays d_ij(k): agent i sees x_j(k - d_ij(k)).

    Bounded by ``d_star``; the diagonal is identically zero (each agent
    always has its own current value).  Backed by an IndexedSequence of
    tables: explicit ``tables`` with ``period`` > 0 hold exactly one period
    and repeat; with period 0 (the JSON default) one table is constant and
    several tables are played in order, the last one held for every
    k >= len(tables).  A pure function k -> table is validated once per k
    and cached.
    """

    d_star: int
    tables: tuple | None = None
    period: int = 0
    fn: Callable[[int], object] | None = None

    def __post_init__(self) -> None:
        if self.d_star < 0:
            raise ValueError("d_star must be >= 0")
        store = IndexedSequence(
            partial(_validate_delays, self.d_star), self.period, self.tables, self.fn, hold_last=True
        )
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "tables", store.items)

    @classmethod
    def constant(cls, table, d_star: int | None = None) -> "DelaySpec":
        a = np.asarray(table)
        if d_star is None:
            d_star = int(a.max()) if a.size else 0
        return cls(d_star=int(d_star), tables=(a,), period=1)

    @classmethod
    def periodic(cls, tables: Sequence, d_star: int | None = None) -> "DelaySpec":
        tabs = [np.asarray(t) for t in tables]
        if d_star is None:
            d_star = max(int(t.max()) for t in tabs)
        return cls(d_star=int(d_star), tables=tuple(tabs), period=len(tabs))

    @classmethod
    def from_function(cls, fn: Callable[[int], object], d_star: int) -> "DelaySpec":
        return cls(d_star=int(d_star), fn=fn)

    def table(self, k: int) -> np.ndarray:
        return self._store.at(k)

    def to_json_obj(self) -> dict:
        if self.tables is None:
            raise ValueError("generator-backed delay specs have no JSON form")
        return {
            "d_star": self.d_star,
            "period": self.period,
            "tables": [t.tolist() for t in self.tables],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DelaySpec":
        return cls(
            d_star=int(obj["d_star"]),
            tables=tuple(np.asarray(t) for t in obj["tables"]),
            period=int(obj.get("period", 0)),
        )


def _stack(W: RowStochasticMatrix, delays: np.ndarray, d_star: int) -> RowStochasticMatrix:
    """Block companion matrix over the augmented state [x(k); ...; x(k-d_star)].
    ``delays`` comes from a DelaySpec, which has checked its range and its
    zero diagonal."""
    n = W.n
    if delays.shape != (n, n):
        raise ValueError("delay table does not match the matrix size")
    N = n * (d_star + 1)
    Xi = np.zeros((N, N))
    # w_ij goes to column d_ij * n + j: distinct columns within a row
    Xi[np.arange(n)[:, None], delays * n + np.arange(n)] = W.entries
    Xi[np.arange(n, N), np.arange(N - n)] = 1.0  # shift history down one block
    return RowStochasticMatrix(n=N, entries=Xi)


def xiao_stack(W: RowStochasticMatrix, delays, d_star: int) -> RowStochasticMatrix:
    """Stack a constant-delay system into an undelayed one on n(d_star+1)
    coordinates: first block row scatters w_ij into block d_ij, lower block
    rows shift history.  With d_star=0 the result equals W."""
    if d_star < 0:
        raise ValueError("d_star must be >= 0")
    spec = DelaySpec.constant(delays, d_star=d_star)
    return _stack(W, spec.table(0), d_star)


def run_delayed_rai(
    seq: MatrixSequence,
    delays: DelaySpec,
    history,
    policy: DisturbancePolicy,
    steps: int,
) -> Trajectory:
    """Run x_i(k+1) = sum_j w_ij(k) x_j(k - d_ij(k)) - delta_i(k).

    ``history`` must hold exactly d_star+1 state vectors, oldest first:
    x(-d_star), ..., x(0).  Shorter histories are rejected, not padded;
    padding would silently alter replayed counterexamples.

    Each step multiplies the stacked vector y(k) = [x(k); ...; x(k-d_star)]
    by the same block companion matrix xiao_stack builds, so for constant
    weights and delays this run and run_degroot over the stacked matrix
    agree bitwise on shared coordinates.  Residuals apply to the first
    block only; history blocks shift exactly.

    The recorded ``window_max`` is the max over the whole delay window,
    non-increasing up to rounding (plain M(k) is not monotone here)."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n = seq.n
    ds = delays.d_star
    hist = list(history)
    if len(hist) != ds + 1:
        raise ValueError(
            f"history must hold exactly d_star+1 = {ds + 1} vectors, got {len(hist)}"
        )
    # y = [x(0); x(-1); ...; x(-d_star)], newest first.
    y = np.concatenate([_check_x0(h, n, "history vector") for h in hist][::-1])
    stacked_cache: dict = {}
    window_max = np.empty(steps + 1)
    window_max[0] = y.max()

    def step(k, x, delta, out):
        W = seq.matrix(k)
        table = delays.table(k)
        key = (id(W), table.tobytes())
        Xi = stacked_cache.get(key)
        if Xi is None:
            Xi = stacked_cache[key] = _stack(W, table, ds)
        y[:] = Xi.entries @ y
        y[:n] -= delta
        wm = float(y.max())
        prev = float(window_max[k])
        if wm > prev + FEAS_TOL * max(1.0, abs(prev)):
            raise RuntimeError(
                f"delay-window max increased at step {k}: {prev!r} -> {wm!r}"
            )
        out[:] = y[:n]
        window_max[k + 1] = wm

    return _iterate(y[:n], steps, policy.draw(n, steps), step, window_max)[0]


@dataclass(frozen=True)
class AgentStatus(Report):
    kind: str  # converged | diverging_to_minus_infinity | oscillating
    limit: float | None


@dataclass(frozen=True)
class ConvergenceVerdict(Report):
    """Tail-based classification of a finite trajectory.

    ``consensus`` requires every agent converged with limits within
    consensus_tol of each other.  A family drifting to minus infinity
    together never counts as consensus (no finite common value exists);
    it is flagged separately as ``common_divergence``.
    """

    statuses: tuple
    consensus: bool
    consensus_value: float | None
    residual_vanishes: tuple
    common_divergence: bool

    def all_converged(self) -> bool:
        return all(s.kind == "converged" for s in self.statuses)


def classify(traj: Trajectory) -> ConvergenceVerdict:
    """Classify each agent over the final tail window.

    converged: total variation of the agent's tail below consensus_tol
    (limit = final value).  diverging_to_minus_infinity: final value below
    -divergence_floor and non-increasing over the tail.  Anything else:
    oscillating.  residual_vanishes per agent: largest tail disturbance
    below residual_tol."""
    steps = traj.steps
    w = tail_window(steps)
    if steps < w:
        raise ValueError(f"trajectory too short to classify: {steps} < {w} steps")
    tail = traj.states[-(w + 1) :]
    moves = np.abs(np.diff(tail, axis=0))
    tv = moves.sum(axis=0)
    statuses = []
    for i in range(traj.n):
        if tv[i] < CONSENSUS_TOL:
            statuses.append(AgentStatus(kind="converged", limit=float(tail[-1, i])))
        elif float(tail[-1, i]) < -DIVERGENCE_FLOOR and np.all(
            np.diff(tail[:, i]) <= FEAS_TOL * np.maximum(1.0, np.abs(tail[:-1, i]))
        ):
            statuses.append(AgentStatus(kind="diverging_to_minus_infinity", limit=None))
        else:
            statuses.append(AgentStatus(kind="oscillating", limit=None))
    statuses = tuple(statuses)

    consensus = False
    consensus_value = None
    if all(s.kind == "converged" for s in statuses):
        limits = np.array([s.limit for s in statuses])
        if float(limits.max() - limits.min()) < CONSENSUS_TOL:
            consensus = True
            consensus_value = float(limits.mean())

    common_divergence = all(
        s.kind == "diverging_to_minus_infinity" for s in statuses
    ) and float(traj.d[-1]) <= CONSENSUS_TOL

    if traj.residuals.shape[0] == 0:
        vanishes = tuple(True for _ in range(traj.n))
    else:
        rt = traj.residuals[-min(w, traj.residuals.shape[0]) :]
        vanishes = tuple(bool(v) for v in (np.abs(rt).max(axis=0) < RESIDUAL_TOL))

    return ConvergenceVerdict(
        statuses=statuses,
        consensus=consensus,
        consensus_value=consensus_value,
        residual_vanishes=vanishes,
        common_divergence=common_divergence,
    )


def _cut_lists(cut: Cut, n: int) -> tuple[list[int], list[int]]:
    cut.validate_for(n)
    return sorted(cut.left), sorted(cut.right)


def _windowed_inflow(
    seq: MatrixSequence, cut: Cut, k0: int, k0p: int, k1: int, eta: float
) -> float:
    """Weight sum across the cut into its left side over [k0', k1], after
    checking the diagonal floor w_ii(k) >= eta on [k0, k1]."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if not 0 <= k0 <= k0p <= k1:
        raise ValueError("need 0 <= k0 <= k0' <= k1")
    Il, Jl = _cut_lists(cut, seq.n)
    for k in range(k0, k1 + 1):
        diag = np.diag(seq.matrix(k).entries)
        if np.any(diag < eta):
            bad = int(np.argmin(diag))
            raise ValueError(
                f"diagonal weight {float(diag[bad])!r} of agent {bad} at step {k} is below eta={eta}"
            )
    sub = np.ix_(Il, Jl)
    flow = 0.0
    for k in range(k0p, k1 + 1):
        flow += float(seq.matrix(k).entries[sub].sum())
    return flow


def flow_contraction_bound(
    seq: MatrixSequence, cut: Cut, k0: int, k0p: int, k1: int, eta: float
) -> float:
    """Contraction factor theta = exp(-eta * flow) for the estimate
    max_I(k1+1) <= theta * max_I(k0') + (1-theta) * max(k0), where flow is
    the windowed weight sum across the cut into I over [k0', k1].

    Requires every diagonal weight in [k0, k1] to be at least eta (the
    self-confidence floor the estimate is derived under)."""
    flow = _windowed_inflow(seq, cut, k0, k0p, k1, eta)
    return float(np.exp(-eta * flow))


def flow_contraction_bound_delayed(
    seq: MatrixSequence, cut: Cut, k0: int, k0p: int, k1: int, eta: float, d_star: int
) -> tuple[float, bool]:
    """Delayed variant theta_bar = eta^d_star * exp(-eta^(d_star+1) * flow),
    returned with a flag marking windows where theta_bar > 1 would make the
    contraction estimate vacuous (the flag cannot fire for eta in (0, 1],
    it exists to make that check explicit)."""
    if d_star < 0:
        raise ValueError("d_star must be >= 0")
    flow = _windowed_inflow(seq, cut, k0, k0p, k1, eta)
    theta_bar = float(eta**d_star * np.exp(-(eta ** (d_star + 1)) * flow))
    return theta_bar, theta_bar > 1.0


def sorted_transform(traj: Trajectory, seq: MatrixSequence):
    """Reorder each state ascending and permute the matrices to match.

    Returns (sorted_states, permuted_matrices) where y(k) = sorted x(k) and
    V(k)[i, j] = w[sigma_i(k+1), sigma_j(k)] for the sorting permutations
    sigma.  The sorted vectors satisfy y(k+1) <= V(k) y(k) entrywise, which
    is asserted up to rounding.  Sorted convergence does not imply
    convergence of x itself: a two-agent swap has constant y."""
    S = traj.states
    K = traj.steps
    perms = [np.argsort(S[k], kind="stable") for k in range(K + 1)]
    sorted_states = np.array([S[k][perms[k]] for k in range(K + 1)])
    permuted = []
    for k in range(K):
        W = seq.matrix(k).entries
        V = W[np.ix_(perms[k + 1], perms[k])]
        lhs = sorted_states[k + 1]
        rhs = V @ sorted_states[k]
        slack = FEAS_TOL * np.maximum(1.0, np.abs(rhs))
        if np.any(lhs > rhs + slack):
            i = int(np.argmax(lhs - rhs))
            raise RuntimeError(
                f"sorted inequality violated at step {k}, row {i}: "
                f"{float(lhs[i])!r} > {float(rhs[i])!r}"
            )
        permuted.append(V)
    return sorted_states, permuted


def exp_product_bound(a, eta: float):
    """Both sides of the survival-product estimate: returns
    (prod(1 - a_i), exp(-sum(a_i) / eta)) for a_i in [0, 1 - eta].

    The product dominates the exponential with exponent -sum/eta; the
    often-quoted exponent -eta*sum overstates the product and fails already
    at a single factor (a=0.5, eta=0.5)."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    arr = np.asarray(list(a), dtype=float)
    if arr.size and (np.any(arr < 0) or np.any(arr > 1 - eta + 1e-15)):
        raise ValueError(f"each a_i must lie in [0, {1 - eta}]")
    product = float(np.prod(1.0 - arr)) if arr.size else 1.0
    bound = float(np.exp(-float(arr.sum()) / eta)) if arr.size else 1.0
    return product, bound
