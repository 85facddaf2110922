"""Opinion dynamics with state-dependent or signed weights: bounded
confidence (with optional attraction to a fixed truth value) and the
signed averaging model, with terminal clustering and balance analytics.

Signed sequences share ``MatrixSequence``'s base and read like it: one
``block`` per gauge search, one fetch of the weights per ``run_altafini``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .engine import Trajectory, _check_x0, _iterate, _tail
from .graphs import Report, WeightedDigraph, _check_count, reachable
from .matrices import RowStochasticMatrix
from .products import cyclic_matvecs, product
from .sequences import MatrixSequence, _WeightSequence
from .tolerances import CLUSTER_TOL, CONSENSUS_TOL, FEAS_TOL

__all__ = [
    "HkConfig",
    "SignedMatrixSequence",
    "ClusterReport",
    "ModulusConsensusVerdict",
    "StructuralBalanceReport",
    "hk_weights",
    "run_hk",
    "run_altafini",
    "modulus_consensus_verdict",
    "recover_structural_balance",
]


@dataclass(frozen=True)
class HkConfig:
    """Bounded-confidence parameters: confidence radius, the external truth
    value, and per-agent awareness weights in [0, 1] (0 = ignores the truth
    entirely, 1 = jumps to it in one step)."""

    epsilon: float
    truth: float = 0.0
    awareness: tuple = ()

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not np.isfinite(self.truth):
            raise ValueError("truth must be finite")
        a = tuple(float(v) for v in self.awareness)
        for v in a:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"awareness {v!r} outside [0, 1]")
        object.__setattr__(self, "awareness", a)

    def awareness_vector(self, n: int) -> np.ndarray:
        if not self.awareness:
            return np.zeros(n)
        if len(self.awareness) != n:
            raise ValueError(f"awareness has {len(self.awareness)} entries, state has {n}")
        return np.array(self.awareness)


def _neighbours(x: np.ndarray, epsilon: float) -> np.ndarray:
    """The strict confidence graph of x: |x_i - x_j| < epsilon."""
    return np.abs(x[:, None] - x[None, :]) < epsilon


def _uniform(close: np.ndarray) -> RowStochasticMatrix:
    """Uniform averaging over each row's neighbours in the pattern."""
    return RowStochasticMatrix(n=close.shape[0], entries=close / close.sum(axis=1, keepdims=True))


def hk_weights(x, epsilon: float) -> RowStochasticMatrix:
    """Uniform averaging over the agents within strict distance epsilon.

    Row i puts 1/|N_i| on each j with |x_j - x_i| < epsilon (i itself always
    qualifies, so the diagonal is at least 1/n).  The neighbor test is
    strict; a pair exactly epsilon apart does not interact.  W depends on x
    only through this pattern of neighbours: equal patterns give the same
    validated matrix, bit for bit."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return _uniform(_neighbours(np.asarray(x, dtype=float), epsilon))


@dataclass(frozen=True)
class ClusterReport(Report):
    """Terminal grouping of an opinion run.

    Agents are merged into a cluster when their final values agree within
    cluster_tol (single linkage on the sorted values); ``values`` holds each
    cluster's representative value and ``min_gap`` the smallest distance
    between distinct cluster values (inf for a single cluster).
    ``truth_cluster`` lists agents whose final value matches the configured
    truth within consensus_tol; ``frozen_agents`` lists agents whose value
    was bitwise constant over the last quarter of the run;
    ``terminated_at`` is the step whose state was detected to be an exact
    fixed point, or None if the run hit max_steps first.
    """

    clusters: tuple
    values: tuple
    min_gap: float
    truth_cluster: tuple
    frozen_agents: tuple
    terminated_at: int | None

    def to_json_obj(self) -> dict:
        obj = super().to_json_obj()
        if np.isinf(self.min_gap):
            obj["min_gap"] = None  # JSON has no infinity
        return obj


def _cluster(final: np.ndarray, truth: float, states: np.ndarray, terminated_at):
    order = np.argsort(final, kind="stable")
    # single linkage on the sorted values: a gap above the tolerance splits
    clusters = np.split(order, np.flatnonzero(np.diff(final[order]) > CLUSTER_TOL) + 1)
    values = tuple(float(np.mean(final[c])) for c in clusters)
    if len(values) > 1:
        min_gap = float(min(b - a for a, b in zip(values, values[1:])))
    else:
        min_gap = float("inf")
    tail = states[-max(1, (states.shape[0] + 3) // 4) :]
    return ClusterReport(
        clusters=tuple(tuple(sorted(c.tolist())) for c in clusters),
        values=values,
        min_gap=min_gap,
        truth_cluster=tuple(np.flatnonzero(np.abs(final - truth) < CONSENSUS_TOL).tolist()),
        frozen_agents=tuple(np.flatnonzero((tail == tail[-1]).all(axis=0)).tolist()),
        terminated_at=terminated_at,
    )


def run_hk(x0, cfg: HkConfig, max_steps: int) -> tuple[Trajectory, ClusterReport]:
    """Iterate the bounded-confidence update with truth attraction,
    x(k+1) = (I - diag(a)) * W(x(k)) x(k) + truth * a, until the state is an
    exact fixed point (bitwise repetition) or max_steps is hit.

    The returned trajectory stores the raw states; its residuals certify
    the induced averaging inequality on distances to the truth,
    xi(k) = |x(k) - truth|, which satisfies xi(k+1) <= W(x(k)) xi(k)
    entrywise.  (The raw update is affine, so the raw max can grow toward
    the truth; the distance vector is the quantity with a one-sided drift.)

    W(x) depends on x only through the strict neighbour pattern, so W is
    divided and validated again only on a step whose pattern differs from
    the previous step's: the reused W has the bits ``hk_weights`` gives.
    """
    _check_count("max_steps", max_steps)
    x = _check_x0(x0, None)
    a = cfg.awareness_vector(x.shape[0])
    keep = 1.0 - a
    pull = cfg.truth * a
    matvec = product(x.shape[0])

    close = W = None  # the previous step's pattern and its validated weights

    def step(k, x, delta, out):
        nonlocal close, W
        now = _neighbours(x, cfg.epsilon)
        if W is None or not np.array_equal(now, close):
            close, W = now, _uniform(now).entries
        np.add(keep * matvec(W, x), pull, out=out)
        np.subtract(matvec(W, np.abs(x - cfg.truth)), np.abs(out - cfg.truth), out=delta)
        return np.array_equal(out, x)

    # most runs freeze within a few dozen steps; the loop grows past these
    first_rows = np.empty((min(max_steps, 64), x.shape[0]))
    traj, frozen_at = _iterate(x, max_steps, first_rows, step)
    return traj, _cluster(traj.states[-1], cfg.truth, traj.states, frozen_at)


def _coerce_signed(n: int, value) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if a.shape != (n, n):
        raise ValueError(f"signed matrix must be {n}x{n}, got {a.shape}")
    if np.any(np.diag(a) < 0):
        raise ValueError("diagonal entries must be nonnegative")
    # Validation runs on the absolute values; signs are then restored, so
    # the magnitude cleanup (flush, renormalize) is shared with the
    # unsigned matrices.
    mags = RowStochasticMatrix(n=n, entries=np.abs(a))
    signed = np.sign(a) * mags.entries
    signed.setflags(write=False)
    return signed


@dataclass(frozen=True, eq=False)
class SignedMatrixSequence(_WeightSequence):
    """Sequence A(0), A(1), ... of signed matrices whose absolute values are
    row-stochastic and whose diagonals are nonnegative; negative entries
    encode antagonistic influence.  A sibling of ``MatrixSequence`` on the
    same base: fields, storage, period check and ``block`` are shared."""

    _validate = staticmethod(_coerce_signed)

    @classmethod
    def constant(cls, A) -> "SignedMatrixSequence":
        return cls.explicit([A], period=1)

    @classmethod
    def explicit(cls, mats: Iterable, period: int = 0) -> "SignedMatrixSequence":
        mats = tuple(np.asarray(m, dtype=float) for m in mats)
        n = mats[0].shape[0] if mats else 1  # the container rejects an empty list
        return cls(n=n, period=period, matrices=mats)

    @classmethod
    def from_generator(cls, fn: Callable[[int], object], n: int, period: int = 0) -> "SignedMatrixSequence":
        return cls(n=n, period=period, generator=fn)

    def matrix(self, k: int) -> np.ndarray:
        return self._store.at(k)

    def absolute_sequence(self) -> MatrixSequence:
        """The magnitude sequence |A(k)| as a plain averaging sequence."""
        if self.matrices is not None:
            return MatrixSequence(n=self.n, period=self.period, matrices=tuple(map(np.abs, self.matrices)))
        return MatrixSequence(n=self.n, period=self.period, generator=lambda k: np.abs(self.matrix(k)))


def run_altafini(seq: SignedMatrixSequence, x0, steps: int) -> Trajectory:
    """Exact signed recursion x(k+1) = A(k) x(k).

    The stored residuals certify the companion inequality on magnitudes:
    |x(k+1)| <= |A(k)| |x(k)| entrywise, with residual
    delta(k) = |A(k)||x(k)| - |x(k+1)| >= 0; a violation beyond rounding
    is an internal error, raised for the first such k (a non-finite state
    raises first).  Weights are fetched once, before the first step (one period
    of them for a periodic sequence); a step is one product, and the
    residuals are one pass over the finished run."""
    _check_count("steps", steps)
    x = _check_x0(x0, seq.n)
    period = seq.period or steps
    weights = [seq.matrix(k) for k in range(min(period, steps))]
    matvec = product(seq.n)

    def step(k, x, delta, out):
        matvec(weights[k % period], x, out=out)

    traj = _iterate(x, steps, np.empty((steps, 0)), step)[0]  # no residual in the loop
    mags, delta = np.abs(traj.states), np.empty((steps, seq.n))
    with np.errstate(over="ignore"):  # an overflowed bound is inf
        cyclic_matvecs(np.abs(np.reshape(weights, (-1, seq.n, seq.n))), mags[:-1], delta)
    np.subtract(delta, mags[1:], out=delta)
    del mags
    peak = np.maximum(traj.M[:-1], -traj.m[:-1])  # max |x(k)|, bit for bit
    low = np.flatnonzero(delta < -FEAS_TOL * np.maximum(1.0, peak)[:, None])
    if low.size:
        raise RuntimeError(f"magnitude inequality violated at step {low[0] // seq.n}")
    return replace(traj, residuals=delta)


@dataclass(frozen=True)
class ModulusConsensusVerdict(Report):
    """Do all |x_i(k)| settle on one common magnitude?

    If yes and the magnitude is positive, ``polarization`` partitions the
    agents by terminal sign; a zero magnitude means every opinion died out,
    reported as ``degenerate`` (no sign structure left to read)."""

    modulus_consensus: bool
    limit_magnitude: float | None
    polarization: tuple | None
    degenerate: bool


def modulus_consensus_verdict(traj: Trajectory) -> ModulusConsensusVerdict:
    """Read the magnitudes over the same tail as ``classify``; the run must
    be longer than ``tail_window(steps)`` steps."""
    mags = np.abs(_tail(traj))
    tv = np.abs(np.diff(mags, axis=0)).sum(axis=0)
    final = mags[-1]
    settled = bool(np.all(tv < CONSENSUS_TOL))
    common = settled and float(final.max() - final.min()) < CONSENSUS_TOL
    if not common:
        return ModulusConsensusVerdict(
            modulus_consensus=False, limit_magnitude=None, polarization=None, degenerate=False
        )
    magnitude = float(final.mean())
    if magnitude < CONSENSUS_TOL:
        return ModulusConsensusVerdict(
            modulus_consensus=True, limit_magnitude=0.0, polarization=None, degenerate=True
        )
    signs = traj.states[-1] >= 0
    plus = tuple(int(i) for i in range(traj.n) if signs[i])
    minus = tuple(int(i) for i in range(traj.n) if not signs[i])
    blocks = tuple(b for b in (plus, minus) if b)
    return ModulusConsensusVerdict(
        modulus_consensus=True,
        limit_magnitude=magnitude,
        polarization=blocks,
        degenerate=False,
    )


@dataclass(frozen=True)
class StructuralBalanceReport(Report):
    balanced: bool
    gauge: tuple | None


def recover_structural_balance(seq: SignedMatrixSequence, horizon: int) -> StructuralBalanceReport:
    """Search for a sign vector d in {-1,+1}^n with sgn a_ij(k) = d_i d_j
    for every nonzero entry over the tail of the horizon (the last quarter,
    and at least one whole period of a periodic sequence, ending at
    max(horizon, period); early transients are allowed to disagree).

    One ``block`` reads the tail into the patterns of positive and negative
    entries.  On the doubled graph, where node v + n stands for v with its
    sign flipped, a positive entry joins its two ends and a negative one
    joins each end to the other's flip; the constraints are unsatisfiable
    iff some v reaches v + n.  The gauge is canonicalized per connected
    component by setting its smallest-index node to +1 (so a connected
    pattern is pinned by d_0 = +1); unconstrained nodes default to +1."""
    _check_count("horizon", horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n, p = seq.n, seq.period
    tail = seq.block(max(horizon, p) - max(1, horizon // 4, p), max(horizon, p))
    pos, neg = (tail > 0).any(axis=0), (tail < 0).any(axis=0)  # neg: never on the diagonal
    signs = np.block([[pos, neg], [neg, pos]])
    lifted = WeightedDigraph(n=2 * n, weights=signs | signs.T)  # a self-loop reaches nothing
    gauge = [0] * n
    for v in range(n):
        if gauge[v] == 0:
            reached = reachable(lifted, [v])
            if v + n in reached:
                return StructuralBalanceReport(balanced=False, gauge=None)
            for u in reached:
                gauge[u % n] = 1 if u < n else -1
    return StructuralBalanceReport(balanced=True, gauge=tuple(gauge))
