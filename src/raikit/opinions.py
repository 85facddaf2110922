"""Opinion dynamics with state-dependent or signed weights: bounded
confidence (with optional attraction to a fixed truth value) and the
signed averaging model, with terminal clustering and balance analytics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .engine import Trajectory, _check_x0, _iterate
from .graphs import Report
from .matrices import RowStochasticMatrix
from .sequences import IndexedSequence, MatrixSequence
from .tolerances import CLUSTER_TOL, CONSENSUS_TOL, FEAS_TOL, tail_window

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


def hk_weights(x, epsilon: float) -> RowStochasticMatrix:
    """Uniform averaging over the agents within strict distance epsilon.

    Row i puts 1/|N_i| on each j with |x_j - x_i| < epsilon (i itself always
    qualifies, so the diagonal is at least 1/n).  The neighbor test is
    strict; a pair exactly epsilon apart does not interact."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    close = np.abs(x[:, None] - x[None, :]) < epsilon
    entries = close / close.sum(axis=1, keepdims=True)
    return RowStochasticMatrix(n=n, entries=entries)


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
    n = final.shape[0]
    order = np.argsort(final, kind="stable")
    clusters = [[int(order[0])]]
    for idx in order[1:]:
        if final[idx] - final[clusters[-1][-1]] <= CLUSTER_TOL:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    values = tuple(float(np.mean(final[c])) for c in clusters)
    if len(values) > 1:
        min_gap = float(min(b - a for a, b in zip(values, values[1:])))
    else:
        min_gap = float("inf")
    truth_cluster = tuple(i for i in range(n) if abs(final[i] - truth) < CONSENSUS_TOL)
    tail = states[-max(1, (states.shape[0] + 3) // 4) :]
    frozen = tuple(int(i) for i in range(n) if np.all(tail[:, i] == tail[-1, i]))
    return ClusterReport(
        clusters=tuple(tuple(sorted(c)) for c in clusters),
        values=values,
        min_gap=min_gap,
        truth_cluster=truth_cluster,
        frozen_agents=frozen,
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
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    x = _check_x0(x0, None)
    a = cfg.awareness_vector(x.shape[0])
    keep = 1.0 - a
    pull = cfg.truth * a

    def step(k, x, delta, out):
        W = hk_weights(x, cfg.epsilon).entries
        np.add(keep * (W @ x), pull, out=out)
        np.subtract(W @ np.abs(x - cfg.truth), np.abs(out - cfg.truth), out=delta)
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


@dataclass(frozen=True)
class SignedMatrixSequence:
    """Sequence A(0), A(1), ... of signed matrices whose absolute values are
    row-stochastic and whose diagonals are nonnegative; negative entries
    encode antagonistic influence.  Stored by an IndexedSequence, so a
    generator must be pure: its matrices are cached once validated."""

    n: int
    period: int = 0
    matrices: tuple | None = None
    generator: Callable[[int], object] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        store = IndexedSequence(partial(_coerce_signed, self.n), self.period, self.matrices, self.generator)
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "matrices", store.items)

    @classmethod
    def constant(cls, A) -> "SignedMatrixSequence":
        a = np.asarray(A, dtype=float)
        return cls(n=a.shape[0], period=1, matrices=(a,))

    @classmethod
    def explicit(cls, mats: Iterable, period: int = 0) -> "SignedMatrixSequence":
        mats = tuple(np.asarray(m, dtype=float) for m in mats)
        return cls(n=mats[0].shape[0], period=period, matrices=mats)

    @classmethod
    def from_generator(cls, fn: Callable[[int], object], n: int, period: int = 0) -> "SignedMatrixSequence":
        return cls(n=n, period=period, generator=fn)

    def matrix(self, k: int) -> np.ndarray:
        return self._store.at(k)

    def absolute_sequence(self) -> MatrixSequence:
        """The magnitude sequence |A(k)| as a plain averaging sequence."""
        if self.matrices is not None:
            return MatrixSequence(
                n=self.n,
                period=self.period,
                matrices=tuple(np.abs(m) for m in self.matrices),
            )
        fn = self.generator
        return MatrixSequence.from_generator(
            lambda k: np.abs(_coerce_signed(self.n, fn(k))), self.n, period=self.period
        )


def run_altafini(seq: SignedMatrixSequence, x0, steps: int) -> Trajectory:
    """Exact signed recursion x(k+1) = A(k) x(k).

    The stored residuals certify the companion inequality on magnitudes:
    |x(k+1)| <= |A(k)| |x(k)| entrywise, with residual
    delta(k) = |A(k)||x(k)| - |x(k+1)| >= 0; a violation beyond rounding
    is an internal error."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = _check_x0(x0, seq.n)

    def step(k, x, delta, out):
        A = seq.matrix(k)
        np.matmul(A, x, out=out)
        mags = np.abs(x)
        np.subtract(np.abs(A) @ mags, np.abs(out), out=delta)
        if np.any(delta < -FEAS_TOL * np.maximum(1.0, mags.max())):
            raise RuntimeError(f"magnitude inequality violated at step {k}")

    return _iterate(x, steps, np.empty((steps, seq.n)), step)[0]


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
    steps = traj.steps
    w = tail_window(steps)
    if steps < w:
        raise ValueError(f"trajectory too short: {steps} < {w} steps")
    mags = np.abs(traj.states[-(w + 1) :])
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
    for every nonzero entry over the tail of the horizon (the last quarter;
    early transients are allowed to disagree).

    Uses union-find with parity: each nonzero entry constrains the relative
    sign of its endpoints; an odd negative cycle makes the constraints
    unsatisfiable.  The gauge is canonicalized per connected component by
    setting its smallest-index node to +1 (so a connected pattern is pinned
    by d_0 = +1); unconstrained nodes default to +1."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = seq.n
    parent = list(range(n))
    parity = [0] * n  # sign of node relative to its parent (0: same, 1: flipped)

    def find(v: int) -> tuple[int, int]:
        if parent[v] == v:
            return v, 0
        stack = []
        u = v
        while parent[u] != u:
            stack.append(u)
            u = parent[u]
        root = u
        # Walk back down from the root, accumulating parities and
        # compressing every visited node directly onto the root.
        cum = 0
        for node in reversed(stack):
            cum ^= parity[node]
            parent[node] = root
            parity[node] = cum
        return root, parity[v]

    def union(u: int, v: int, flip: int) -> bool:
        ru, pu = find(u)
        rv, pv = find(v)
        if ru == rv:
            return (pu ^ pv) == flip
        parent[ru] = rv
        parity[ru] = pu ^ pv ^ flip
        return True

    start = max(0, horizon - max(1, horizon // 4))
    for k in range(start, horizon):
        A = seq.matrix(k)
        for i in range(n):
            for j in range(n):
                if i != j and A[i, j] != 0.0:
                    if not union(i, j, 0 if A[i, j] > 0 else 1):
                        return StructuralBalanceReport(balanced=False, gauge=None)
    anchor: dict[int, int] = {}
    gauge = []
    for v in range(n):
        root, p = find(v)
        if root not in anchor:
            anchor[root] = p  # smallest v in the component anchors it to +1
        gauge.append(1 if p == anchor[root] else -1)
    return StructuralBalanceReport(balanced=True, gauge=tuple(gauge))
