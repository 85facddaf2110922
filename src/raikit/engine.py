"""Trajectory engines for averaging recursions and averaging inequalities.

The model: each agent's next value is at most the weighted average of
current values, x(k+1) <= W(k) x(k) entrywise.  Feasible trajectories are
parameterized by nonnegative disturbances, x(k+1) = W(k) x(k) - delta(k),
so the exact recursion is the zero-disturbance special case.  The delayed
engine advances a stacked state vector through block companion matrices,
which makes the no-delay and constant-delay reductions hold bitwise, not
just approximately: see run_delayed_rai.

Every engine, the signed and bounded-confidence runs of raikit.opinions
included, computes x(k+1) from x(k) in the one step loop ``_iterate``
(the bounded-confidence step also its residual; the signed and delayed
runs certify theirs in one pass over the finished run), which fills one
(steps+1, n) state array, reserved up front for a fixed-length run and
grown by doubling for a run that may end early; ``_check_x0`` checks
every initial and history vector.
run_rai fetches its weights once per run (one period of a periodic
sequence), and every product is one of raikit.products.  A silent step,
whose W(k) is exactly the identity, needs no product: the identity
product is x + 0.0 bitwise, so ``_iterate`` walks a run_rai run in
segments: loud steps one by one, each maximal stretch of silent steps (a
pair of edges of the run's silence mask) as one sequential subtraction of
its disturbances, copied into the states once.  A run's row extremes M
and m are read along the steps axis, in bounded blocks, and a vanishing
policy's decay factors come from one kept table, so the seeds of an
ensemble compute them once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .graphs import ArrayFields, Cut, Report, _check_count, json_form
from .matrices import RowStochasticMatrix
from .products import product
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


_CSV_BLOCK_ROWS = 256  # rows per string of Trajectory.csv_blocks: about 60 KB of text at n = 4
_EXTREMES_BLOCK = 2**14  # entries per transposed block of _extremes: 128 KiB


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Trajectory(Report, ArrayFields):
    """A finite run x(0..K) with its per-step disturbances and extremes.

    ``states`` is (K+1) x n, ``residuals`` is K x n (the disturbance applied
    at each step; the last state has none).  ``M``, ``m``, ``d`` are the
    running max, min and diameter of the state; ``d`` saturates to inf
    where M - m overflows.  ``window_max`` is only set by the delayed
    engine: the max over the full delay window, which is the quantity that
    is non-increasing when delays are present (plain M(k) need not be
    monotone under delays).
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

    def csv_blocks(self) -> Iterator[str]:
        """The CSV text: the header line, then one string per block of at most
        _CSV_BLOCK_ROWS rows, which takes one repr per distinct float bit pattern."""
        n, steps = self.n, self.steps
        cols = [f"x_{i}" for i in range(n)] + [f"delta_{i}" for i in range(n)]
        yield ",".join(["k"] + cols + ["M", "m", "d"]) + "\n"
        for a in range(0, steps + 1, _CSV_BLOCK_ROWS):
            b = min(a + _CSV_BLOCK_ROWS, steps + 1)
            table = np.zeros((b - a, 2 * n + 4))  # column 0 is k, written as text below
            table[:, 1 : n + 1] = self.states[a:b]
            table[: min(b, steps) - a, n + 1 : 2 * n + 1] = self.residuals[a:b]
            table[:, 2 * n + 1 :] = np.stack((self.M[a:b], self.m[a:b], self.d[a:b]), axis=1)
            bits, inverse = np.unique(table.view(np.int64), return_inverse=True)
            text = np.array([*map(repr, bits.view(float).tolist())], object)[inverse.reshape(b - a, -1)]
            text[:, 0] = [*map(str, range(a, b))]
            text[min(b, steps) - a :, n + 1 : 2 * n + 1] = ""  # the last state has no delta
            yield "\n".join([*map(",".join, text.tolist()), ""])

    def to_csv(self) -> str:
        return "".join(self.csv_blocks())

    def to_json_obj(self) -> dict:
        obj = super().to_json_obj()
        if self.window_max is None:
            del obj["window_max"]  # only delayed runs have the key
        return obj


# The JSON fields of each disturbance kind and their JSON types, read by
# DisturbancePolicy's JSON methods and checked by the command line.  The
# field "deltas" holds the attribute ``replay``.  A kind with a "seed" is
# seeded; its seed may be absent, and the policy itself checks that it is
# an integer, so a JSON number passes the type check.
POLICY_KINDS = {
    "zero": {},
    "vanishing_random": {"scale": "number", "decay": "number", "seed": "number"},
    "constant_random": {"scale": "number", "seed": "number"},
    "adversarial_replay": {"deltas": "number array"},
}
_ATTRIBUTE = {"deltas": "replay"}


@dataclass(frozen=True)
class DisturbancePolicy:
    """Source of the nonnegative per-step disturbances delta(k).

    kind "zero": delta identically 0 (the exact averaging recursion).
    kind "vanishing_random": scale * decay^k * uniform[0,1]^n, summable.
    kind "constant_random": scale * uniform[0,1]^n, non-vanishing.
    kind "adversarial_replay": an explicit table of vectors, cycled when the
    run is longer than the table (the replayed counterexamples are periodic).
    Random kinds are deterministic given ``seed``.  The seed and the fields
    that the kind reads are checked at construction; a run draws its
    (steps, n) block once.
    """

    kind: str
    scale: float = 0.0
    decay: float = 1.0
    replay: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("seed", self.seed)
        if self.kind == "vanishing_random":
            if not np.isfinite(self.scale) or self.scale < 0 or not 0 < self.decay < 1:
                raise ValueError("need a finite scale >= 0 and 0 < decay < 1")
        elif self.kind == "constant_random":
            if not np.isfinite(self.scale) or self.scale < 0:
                raise ValueError("scale must be a finite number >= 0")
        elif self.kind == "adversarial_replay":
            table = tuple(tuple(float(v) for v in row) for row in self.replay)
            if not table:
                raise ValueError("replay table must be nonempty")
            for row in table:
                for v in row:
                    if not np.isfinite(v) or v < 0:
                        raise ValueError(f"replay disturbance {v!r} is not a nonnegative real")
            object.__setattr__(self, "replay", table)
        elif self.kind != "zero":
            raise ValueError(f"unknown disturbance kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "DisturbancePolicy":
        return cls(kind="zero")

    @classmethod
    def vanishing_random(cls, scale: float, decay: float, seed: int = 0) -> "DisturbancePolicy":
        return cls(kind="vanishing_random", scale=scale, decay=decay, seed=seed)

    @classmethod
    def constant_random(cls, scale: float, seed: int = 0) -> "DisturbancePolicy":
        return cls(kind="constant_random", scale=scale, seed=seed)

    @classmethod
    def adversarial_replay(cls, deltas: Iterable[Iterable[float]]) -> "DisturbancePolicy":
        return cls(kind="adversarial_replay", replay=tuple(deltas))

    @classmethod
    def from_json_obj(cls, obj: dict, seed: int = 0) -> "DisturbancePolicy":
        """The policy whose kind's POLICY_KINDS fields ``obj`` holds; a seeded
        kind without "seed" takes ``seed``.  The policy rejects an unknown kind."""
        fields = POLICY_KINDS.get(obj["kind"], {})
        values = {_ATTRIBUTE.get(f, f): obj.get(f, seed) if f == "seed" else obj[f] for f in fields}
        return cls(kind=obj["kind"], **values)

    def to_json_obj(self) -> dict:
        fields = POLICY_KINDS[self.kind]
        return {"kind": self.kind, **{f: json_form(getattr(self, _ATTRIBUTE.get(f, f))) for f in fields}}

    def draw(self, n: int, steps: int) -> np.ndarray:
        """delta(0), ..., delta(steps-1) as a (steps, n) block.  One block
        draw takes the same generator bits as one draw of n per step, and
        each decay factor is the scalar scale * decay**k <= scale, so every
        entry is finite and >= 0.  The powers decay**k come from the kept
        table of ``_decay_powers``; each draw multiplies them by its own
        scale, which keeps the sign of a zero scale."""
        if self.kind == "zero":
            return np.zeros((steps, n))
        if self.kind == "adversarial_replay":
            if any(len(row) != n for row in self.replay):
                raise ValueError("replay rows do not match the state dimension")
            table = np.array(self.replay, dtype=float)
            return table[np.arange(steps) % len(table)]
        block = np.random.default_rng(self.seed).random((steps, n))
        if self.kind == "vanishing_random":
            block *= (_decay_powers(self.decay, steps) * self.scale)[:, None]
        else:
            block *= self.scale
        return block


@lru_cache(maxsize=1, typed=True)
def _decay_powers(decay: float, steps: int) -> np.ndarray:
    """pow(decay, k) for k < steps, read-only.  Python's scalar power, as
    decay ** np.arange differs in the last bit; each power is taken in the
    decay's own type, which is part of the key.  Only the last table asked
    for is kept: the seeds of an ensemble share one (decay, steps)."""
    powers = np.fromiter(map(pow, repeat(decay), range(steps)), float, steps)
    powers.setflags(write=False)
    return powers


def _extremes(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row max and min of ``states``, bit for bit states.max(axis=1)
    and states.min(axis=1).  The row reduce pays a fixed cost per row, so
    each block of rows is copied transposed into one buffer of at most
    _EXTREMES_BLOCK entries and reduced along the steps axis.  Both forms
    propagate NaN and return the same value; a tie of -0.0 and 0.0 may
    keep either, so each row whose extreme is 0.0 is read again with the
    row reduce."""
    rows, n = states.shape
    M, m = np.empty(rows), np.empty(rows)
    span = max(1, _EXTREMES_BLOCK // n)
    buffer = np.empty((n, min(span, rows)))
    for a in range(0, rows, span):
        block, columns = states[a : a + span], buffer[:, : min(span, rows - a)]
        np.copyto(columns, block.T)
        for out, reduce in ((M[a : a + span], np.max), (m[a : a + span], np.min)):
            reduce(columns, axis=0, out=out)
            zero = out == 0.0
            if zero.any():
                out[zero] = reduce(block[zero], axis=1)
    return M, m


def _check_x0(x0, n: int | None, what: str = "initial vector") -> np.ndarray:
    """``x0`` as a nonempty finite float vector of length n (any if n is None)."""
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or n is not None and x.shape != (n,):
        raise ValueError(f"{what} must have shape ({'n' if n is None else n},), got {x.shape}")
    if x.size == 0:
        raise ValueError(f"{what} must be nonempty")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state raises below
def _iterate(
    x: np.ndarray, steps: int, residuals: np.ndarray, step, silent=()
) -> tuple[Trajectory, int | None]:
    """The one step loop: ``step(k, x(k), r(k), out)`` writes x(k+1) into
    ``out``, reading or filling the residual row r(k), and a true return
    ends the run after step k.  ``residuals`` holds the first rows, at most
    ``steps`` (else ValueError), of the (steps, n) residual array; both
    arrays double when a run outgrows them and are cut to its length as
    copies when it ends early.  Returns the run and the step that ended it,
    or None.  A non-finite state has no verdict and raises ValueError
    naming its first step; the row max and min propagate NaN and infinity,
    so those two vectors cover every entry.  They are read along the steps
    axis by ``_extremes``, with the row reduce's bits and no (steps, n)
    temporary.

    ``silent`` yields, in order, the maximal stretches (k, span) of steps
    k .. k+span-1 whose W is the identity; the loop walks segments, the
    loud steps before a stretch through ``step``, then the stretch.  A run
    with a stretch needs every residual row (else ValueError, before its
    first step) and copies them into states[1:], so ``out`` may hold r(k)
    on entry.  A stretch's first state is (x(k) + 0.0) - r(k), and one
    in-place subtract.accumulate over its rows gives the rest: the
    product's bits, as the identity product turns -0.0 into +0.0 and moves
    nothing else, no later state of the stretch is -0.0 (a difference is
    -0.0 only when its first operand is), and accumulate keeps the order."""
    n, rows = x.shape[0], residuals.shape[0]
    if rows > steps:
        raise ValueError(f"a run of {steps} steps takes at most {steps} residual rows, got {rows}")
    states = np.empty((rows + 1, n))
    states[0] = x
    silent = iter(silent)
    first = next(silent, None)
    if first is not None:
        if rows < steps:
            raise ValueError(f"a run with silent steps needs all {steps} residual rows, got {rows}")
        states[1:] = residuals
    stop, k = None, 0
    for at, span in chain(() if first is None else (first,), silent, ((steps, 0),)):
        for k in range(k, at):
            if k == rows:
                more = np.empty((max(1, min(k, steps - k)), n))
                residuals = np.concatenate([residuals, more])
                states = np.concatenate([states, more])
                rows += more.shape[0]
            if step(k, states[k], residuals[k], states[k + 1]):
                stop = k
                break
        if stop is not None:
            if k + 1 < rows:
                states, residuals = states[: k + 2].copy(), residuals[: k + 1].copy()
            break
        if span:
            block = states[at + 1 : at + span + 1]
            np.subtract(states[at] + 0.0, block[0], out=block[0])
            np.subtract.accumulate(block, axis=0, out=block)
        k = at + span
    M, m = _extremes(states)
    finite = np.isfinite(M) & np.isfinite(m)
    if not finite.all():
        raise ValueError(f"state became non-finite at step {int(np.argmin(finite))}")
    return Trajectory(states=states, residuals=residuals, M=M, m=m, d=M - m), stop


def _silent_stretches(silent: list, steps: int) -> Iterator[tuple[int, int]]:
    """Each maximal stretch of silent steps k .. k+span-1 of a run of
    ``steps`` steps, as (k, span) in order, where step k is silent when
    silent[k % p] and p = len(silent) <= steps: the rising and falling
    edges of the run's silence mask, paired, built in full at the call (so
    before the run allocates its states)."""
    mask = np.resize(np.asarray(silent, dtype=bool), steps)
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False)).reshape(-1, 2)
    return zip(edges[:, 0].tolist(), (edges[:, 1] - edges[:, 0]).tolist())


def run_rai(
    seq: MatrixSequence, x0, policy: DisturbancePolicy, steps: int
) -> Trajectory:
    """Run x(k+1) = W(k) x(k) - delta(k) for the given number of steps.

    The stored residuals are the drawn disturbances; with the zero policy
    the result is bitwise identical to run_degroot.  The weights are read
    through ``seq.matrix`` before the first step, one period of them for a
    periodic sequence, so a finite list too short for the run raises then.
    A step whose W(k) equals the identity exactly is silent: ``_iterate``
    walks each stretch of them as one segment, with no product and the same bits."""
    _check_count("steps", steps)
    x = _check_x0(x0, seq.n)
    residuals = policy.draw(seq.n, steps)
    period = seq.period or steps
    weights = [seq.matrix(k).entries for k in range(min(period, steps))]
    # Bytes equal to the identity's are an exact test, a twentieth of the
    # cost of (W == I).all(); validated weights hold no -0.0 it would miss.
    eye = np.eye(seq.n).tobytes()
    silent = [W[0, 0] == 1.0 and W.tobytes() == eye for W in weights]
    matvec = product(seq.n)

    def step(k, x, delta, out):
        matvec(weights[k % period], x, out=out)
        np.subtract(out, delta, out=out)

    return _iterate(x, steps, residuals, step, silent=_silent_stretches(silent, steps))[0]


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


@dataclass(frozen=True, eq=False)
class DelaySpec(ArrayFields):
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
        _check_count("d_star", self.d_star)
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
        return cls(d_star=d_star, tables=(a,), period=1)

    @classmethod
    def periodic(cls, tables: Sequence, d_star: int | None = None) -> "DelaySpec":
        tabs = [np.asarray(t) for t in tables]
        if d_star is None:
            d_star = max(int(t.max()) for t in tabs)
        return cls(d_star=d_star, tables=tuple(tabs), period=len(tabs))

    @classmethod
    def from_function(cls, fn: Callable[[int], object], d_star: int) -> "DelaySpec":
        return cls(d_star=d_star, fn=fn)

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
            d_star=obj["d_star"],
            tables=tuple(np.asarray(t) for t in obj["tables"]),
            period=obj.get("period", 0),
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
    non-increasing up to rounding (plain M(k) is not monotone here), and
    read after the loop as one sliding max; the first increase beyond
    rounding is an internal error (a non-finite state raises first)."""
    _check_count("steps", steps)
    n = seq.n
    ds = delays.d_star
    hist = list(history)
    if len(hist) != ds + 1:
        raise ValueError(
            f"history must hold exactly d_star+1 = {ds + 1} vectors, got {len(hist)}"
        )
    # y = [x(0); x(-1); ...; x(-d_star)], newest first.
    y = np.concatenate([_check_x0(h, n, "history vector") for h in hist][::-1])
    first, older = y.max(), y.reshape(ds + 1, n)[:0:-1].max(axis=1)
    stacked_cache: dict = {}
    matvec = product(y.shape[0])

    def step(k, x, delta, out):
        W = seq.matrix(k)
        table = delays.table(k)
        key = (id(W), table.tobytes())
        if key not in stacked_cache:  # the entry holds W, so its id stays W's
            stacked_cache[key] = (W, _stack(W, table, ds))
        y[:] = matvec(stacked_cache[key][1].entries, y)
        y[:n] -= delta
        out[:] = y[:n]

    traj = _iterate(y[:n], steps, policy.draw(n, steps), step)[0]
    # max y(k) is the max of the row maxima of x(k - d_star), ..., x(k); every
    # zero of y(k) for k >= 1 has been through gemv, which gives +0.0.
    rows = np.concatenate([older, traj.M])
    window_max = rows[ds:].copy()
    for j in range(ds):
        np.maximum(window_max, rows[j : j + steps + 1], out=window_max)
    window_max[window_max == 0.0] = 0.0
    window_max[0] = first
    prev = window_max[:-1]
    up = np.flatnonzero(window_max[1:] > prev + FEAS_TOL * np.maximum(1.0, np.abs(prev)))
    if up.size:
        prev, wm = window_max[up[0] : up[0] + 2].tolist()
        raise RuntimeError(f"delay-window max increased at step {up[0]}: {prev!r} -> {wm!r}")
    return replace(traj, window_max=window_max)


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


def _tail(traj: Trajectory) -> np.ndarray:
    """The last ``tail_window(steps)`` moves of a run, as its last w + 1
    states.  A run of at most w steps raises: its tail would reach back to
    x(0) and count the first move as part of the limit."""
    steps = traj.steps
    w = tail_window(steps)
    if steps <= w:
        raise ValueError(f"trajectory too short to classify: {steps} steps, need more than {w}")
    return traj.states[-(w + 1) :]


@np.errstate(over="ignore")  # an infinite spread is no consensus
def classify(traj: Trajectory) -> ConvergenceVerdict:
    """Classify each agent over the final tail window of w =
    ``tail_window(steps)`` moves; the run must be longer than w steps.

    converged: total variation of the agent's tail below consensus_tol
    (limit = final value).  diverging_to_minus_infinity: final value below
    -divergence_floor and non-increasing over the tail.  Anything else:
    oscillating.  residual_vanishes per agent: largest tail disturbance
    below residual_tol."""
    tail = _tail(traj)
    w = tail.shape[0] - 1
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
    checking the diagonal floor w_ii(k) >= eta on [k0, k1].  Both come from
    one ``seq.block``, read whole first; the step sums add in step order."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if not 0 <= k0 <= k0p <= k1:
        raise ValueError("need 0 <= k0 <= k0' <= k1")
    left, right = _cut_lists(cut, seq.n)
    block = seq.block(k0, k1 + 1)
    diag = np.diagonal(block, axis1=1, axis2=2)
    low = (diag < eta).any(axis=1)
    if low.any():
        k = int(np.argmax(low))
        bad = int(np.argmin(diag[k]))
        raise ValueError(
            f"diagonal weight {float(diag[k, bad])!r} of agent {bad} at step {k0 + k} is below eta={eta}"
        )
    cross = block[k0p - k0 :][:, left][:, :, right]
    return float(np.cumsum(cross.reshape(len(cross), -1).sum(axis=1))[-1])


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
    _check_count("d_star", d_star)
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
        rhs = product(traj.n)(V, sorted_states[k])
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
