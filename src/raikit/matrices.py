"""Validated row-stochastic and substochastic matrices with their spectral
and ergodic predicates.

Validation contract: entries with magnitude below ``ENTRY_FLUSH`` are flushed
to exactly 0.0 once, so the zero/nonzero pattern (hence the induced graph) is
deterministic; stochastic rows are then renormalized and compensated so each
row sums to exactly 1.0 in floating point, which makes validation idempotent.

A matrix is accepted in one pass: a flushed C-order copy, the largest bit
pattern of its entries and its row sums.  No separate ``isfinite`` pass is
needed: a NaN, a negative entry or an infinity fails the bit-pattern bound,
and so does an entry above 1 + ROW_SUM_TOL, whose row cannot pass the
row-sum tolerance either.  Only a rejected matrix is diagnosed step by step,
and the first failing check names the error, in this order: shape (square),
n, finite, nonnegative, row sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import (
    Report,
    WeightedDigraph,
    fields_equal,
    is_aperiodic,
    reachable,
    strong_components,
)
from .tolerances import EIG_TOL, ENTRY_FLUSH, ROW_SUM_TOL

__all__ = [
    "RowStochasticMatrix",
    "SubstochasticMatrix",
    "SiaVerdict",
    "StabilityVerdict",
    "check_sia",
    "is_primitive",
    "spectral_radius",
    "schur_stability_by_reachability",
    "stochastic_completion",
]


def _checked_entries(n: int, entries) -> tuple[np.ndarray, np.ndarray]:
    """Diagnosis of a matrix the accepting pass turned down, shared by both
    classes: a finite n x n array, flushed into a new array, with no
    negative entry left, and its row sums.  A finite row that overflows
    sums to +inf, which the row-sum checks reject, without a warning."""
    e = np.asarray(entries, dtype=float)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ValueError(f"matrix must be square, got shape {e.shape}")
    if e.shape[0] != n:
        raise ValueError("n does not match matrix shape")
    if not np.isfinite(e).all():
        raise ValueError("entries must be finite")
    e = e.copy()  # C order, whatever the input's layout
    e[np.abs(e) < ENTRY_FLUSH] = 0.0
    if (e < 0).any():
        raise ValueError("entries must be nonnegative")
    with np.errstate(over="ignore"):
        return e, e.sum(axis=1)


# Nonnegative floats order like their bit patterns read as unsigned integers;
# a sign bit, a NaN or an infinity reads larger than 1 + ROW_SUM_TOL.
_TOP_BITS = int(np.float64(1.0 + ROW_SUM_TOL).view(np.uint64))


def _flushed(n: int, entries) -> tuple[np.ndarray | None, np.ndarray]:
    """Accepting pass shared by both classes: a flushed C-order float copy
    of an n x n matrix and its row sums, or None and no sums when the shape
    is wrong or an entry is not in [0, 1 + ROW_SUM_TOL].  Such an entry is
    NaN, negative or infinite, or its row sums above 1 + ROW_SUM_TOL, so the
    caller's diagnosis rejects the matrix either way; with every entry
    bounded, no row sum can overflow."""
    e = np.array(entries, dtype=float, order="C")
    if e.shape != (n, n):
        return None, np.empty(0)
    e[np.abs(e) < ENTRY_FLUSH] = 0.0  # -0.0 becomes +0.0 here
    if not e.view(np.uint64).max(initial=0) <= _TOP_BITS:
        return None, np.empty(0)
    return e, e.sum(axis=1)


def _nudge_to_unit_sum(row: np.ndarray) -> bool:
    """Add 1 - sum to one entry until the float sum is exactly 1.0.
    Feedback on a single entry can oscillate around 1 when the final
    rounding step straddles it, so after a few tries the nudged position
    rotates to the next-largest entry, whose different magnitude gives a
    different rounding granularity."""
    for j in np.argsort(row)[::-1]:
        for _ in range(8):
            s = float(row.sum())
            if s == 1.0:
                return True
            row[j] += 1.0 - s
    return float(row.sum()) == 1.0


@dataclass(frozen=True, eq=False)
class RowStochasticMatrix:
    """Nonnegative square matrix whose rows each sum to exactly 1.0 after
    validation (input row sums may deviate by up to ``ROW_SUM_TOL``).
    Equal when the validated entries are identical; unhashable."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        e, sums = _flushed(self.n, self.entries)
        off = []
        for i, s in enumerate(sums.tolist()):
            if not abs(s - 1.0) <= ROW_SUM_TOL:
                e = None
                break
            if s != 1.0:
                off.append(i)
        if e is None:
            e, sums = _checked_entries(self.n, self.entries)
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"row {bad} sums to {float(sums[bad])!r}, outside 1 +/- {ROW_SUM_TOL}")
        if off:
            # x / 1.0 is x, so the rows already exact keep their bits
            e /= sums[:, None]
            rows = np.array(off)
            for i in rows[e[rows].sum(axis=1) != 1.0].tolist():
                if not _nudge_to_unit_sum(e[i]):
                    raise RuntimeError(f"row {i} cannot be compensated to an exact unit sum")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    __eq__ = fields_equal
    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> "RowStochasticMatrix":
        e = np.asarray(list(rows), dtype=float)
        return cls(n=e.shape[0], entries=e)

    def graph(self) -> WeightedDigraph:
        return WeightedDigraph(n=self.n, weights=self.entries)


@dataclass(frozen=True, eq=False)
class SubstochasticMatrix:
    """Nonnegative square matrix with row sums at most 1.

    Rows whose input sum lies in (1, 1 + ROW_SUM_TOL] are scaled down to sum
    exactly 1, so the spectral radius is bounded by 1 in floating point.
    ``deficiency_set`` collects the rows with sum < 1 - ROW_SUM_TOL.
    Equal when the validated entries are identical; unhashable.
    """

    n: int
    entries: np.ndarray
    deficiency_set: frozenset[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        e, sums = _flushed(self.n, self.entries)
        over, deficient = [], []
        for i, s in enumerate(sums.tolist()):
            if not s <= 1.0 + ROW_SUM_TOL:
                e = None
                break
            if s > 1.0:
                over.append(i)
            elif s < 1.0 - ROW_SUM_TOL:
                deficient.append(i)
        if e is None:
            e, sums = _checked_entries(self.n, self.entries)
            bad = int(np.argmax(sums))
            raise ValueError(f"row {bad} sums to {float(sums[bad])!r}, above 1 + {ROW_SUM_TOL}")
        if over:
            # rows scaled down sum to 1 and are not deficient either way
            e[over] /= sums[over, None]
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "deficiency_set", frozenset(deficient))

    __eq__ = fields_equal
    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> "SubstochasticMatrix":
        e = np.asarray(list(rows), dtype=float)
        return cls(n=e.shape[0], entries=e)

    def graph(self) -> WeightedDigraph:
        return WeightedDigraph(n=self.n, weights=self.entries)


@dataclass(frozen=True)
class SiaVerdict(Report):
    """Outcome of the ergodicity test for a row-stochastic matrix.

    ``is_sia`` holds iff powers of the matrix converge to a rank-one matrix
    with a common row ``pi``; ``reason`` is "ok", "multiple_sources" or
    "periodic_source".
    """

    is_sia: bool
    pi: np.ndarray | None
    reason: str


def check_sia(W: RowStochasticMatrix) -> SiaVerdict:
    """Graph test for ergodicity: the influence graph must have exactly one
    source component and that component must be aperiodic.  When it passes,
    ``pi`` is the stationary row vector (pi @ W == pi, sum 1), obtained by
    power iteration on the transpose with a dense-eigenvector fallback."""
    g = W.graph()
    dec = strong_components(g)
    if not dec.is_quasi_strong:
        return SiaVerdict(is_sia=False, pi=None, reason="multiple_sources")
    (source_idx,) = dec.source_components()
    if not is_aperiodic(g, dec.components[source_idx]):
        return SiaVerdict(is_sia=False, pi=None, reason="periodic_source")
    pi = _stationary_vector(W.entries)
    return SiaVerdict(is_sia=True, pi=pi, reason="ok")


def _stationary_vector(W: np.ndarray) -> np.ndarray:
    """Left Perron vector of an ergodic row-stochastic matrix."""
    n = W.shape[0]
    v = np.full(n, 1.0 / n)
    WT = W.T
    for _ in range(100 * n):
        nxt = WT @ v  # mass is conserved, no renormalization needed
        if float(np.max(np.abs(nxt - v))) < EIG_TOL / 10:
            v = nxt
            break
        v = nxt
    if float(np.max(np.abs(WT @ v - v))) > EIG_TOL:
        # Slow mixing; fall back to the dense eigenproblem.
        vals, vecs = np.linalg.eig(WT)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        v = np.real(vecs[:, idx])
        v = np.abs(v)
        v = v / v.sum()
    v = np.maximum(v, 0.0)
    return v / v.sum()


def is_primitive(W: RowStochasticMatrix) -> bool:
    """True iff the influence graph is strongly connected and aperiodic.

    The graph criterion is cross-checked against direct boolean powering:
    some power of the adjacency pattern with exponent at most
    n^2 - 2n + 2 must be entrywise positive exactly when the criterion
    holds.  A disagreement would be an internal error and raises."""
    g = W.graph()
    dec = strong_components(g)
    criterion = False
    if dec.is_strong:
        criterion = is_aperiodic(g, dec.components[0])

    n = W.n
    bound = n * n - 2 * n + 2
    B = (W.entries > 0)
    P = B.copy()
    powered = bool(P.all())
    k = 1
    while not powered and k < bound:
        P = (P @ B) > 0
        k += 1
        powered = bool(P.all())
    if powered != criterion:
        raise RuntimeError(
            "primitivity cross-check failed: graph criterion and matrix powering disagree"
        )
    return criterion


def spectral_radius(A: SubstochasticMatrix) -> float:
    """Spectral radius via power iteration on A + I (the shift separates the
    dominant root of a nonnegative matrix from complex eigenvalues of the
    same modulus), with a dense eigenvalue fallback if the Rayleigh quotient
    has not settled within 100 n iterations."""
    n = A.n
    B = A.entries + np.eye(n)
    v = np.full(n, 1.0)
    rayleigh = 0.0
    converged = False
    for _ in range(100 * n):
        w = B @ v
        norm = float(np.max(np.abs(w)))
        if norm == 0.0:
            return 0.0
        w = w / norm
        new_rayleigh = float(w @ (B @ w)) / float(w @ w)
        residual = float(np.max(np.abs(B @ w - new_rayleigh * w)))
        if abs(new_rayleigh - rayleigh) < EIG_TOL / 10 and residual < EIG_TOL:
            v = w
            rayleigh = new_rayleigh
            converged = True
            break
        v = w
        rayleigh = new_rayleigh
    if not converged:
        vals = np.linalg.eigvals(A.entries)
        return float(np.max(np.abs(vals)))
    return max(rayleigh - 1.0, 0.0)


@dataclass(frozen=True)
class StabilityVerdict(Report):
    stable: bool
    unreachable_nodes: frozenset[int]


def schur_stability_by_reachability(A: SubstochasticMatrix) -> StabilityVerdict:
    """Schur stability test by walks from the deficiency rows.

    ``stable`` is True iff every node is reachable (by a directed walk,
    including the empty walk) from some row whose sum is below 1.  Nodes
    in ``unreachable_nodes`` witness the failure; with an empty deficiency
    set every node is unreachable and the verdict is unstable."""
    reached = reachable(A.graph(), A.deficiency_set)
    unreachable = frozenset(range(A.n)).difference(reached)
    return StabilityVerdict(stable=not unreachable, unreachable_nodes=unreachable)


def stochastic_completion(A: SubstochasticMatrix) -> RowStochasticMatrix:
    """Spread each row's deficiency uniformly over the row:
    w_ij = a_ij + (1 - sum_l a_il) / n.  The result dominates A entrywise
    and is row-stochastic."""
    n = A.n
    deficiency = np.maximum(1.0 - A.entries.sum(axis=1), 0.0)
    W = A.entries + deficiency[:, None] / n
    return RowStochasticMatrix(n=n, entries=W)
