"""Validated row-stochastic and substochastic matrices with their spectral
and ergodic predicates.

Validation contract: entries with magnitude below ``ENTRY_FLUSH`` are flushed
to exactly 0.0 once, so the zero/nonzero pattern (hence the induced graph) is
deterministic; stochastic rows are then renormalized and compensated so each
row sums to exactly 1.0 in floating point, which makes validation idempotent.

Both classes validate through one routine in two stages.  First the largest
bit pattern of the raw C-order copy is tested: a sign bit (-0.0 too), a NaN,
an infinity or an entry above 1 + ROW_SUM_TOL (whose row fails the row-sum
tolerance anyway) fails it.  A copy that passes holds only nonnegative
floats and takes the one-sided flush.  Only a copy that fails takes the
``abs`` flush (which turns -0.0 into +0.0), the bit test again, then the
finite and sign checks, so the first failing check names the error, in this
order: shape (square), n, finite, nonnegative, row sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TypeVar

import numpy as np

from .graphs import (
    ArrayFields,
    Report,
    WeightedDigraph,
    is_aperiodic,
    reachable,
    strong_components,
)
from .products import product
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


# Nonnegative floats order like their bit patterns read as unsigned integers;
# a sign bit, a NaN or an infinity reads larger than 1 + ROW_SUM_TOL.
_TOP_BITS = int(np.float64(1.0 + ROW_SUM_TOL).view(np.uint64))


def _validated(n: int, entries) -> tuple[np.ndarray, np.ndarray]:
    """Checks shared by both classes: a flushed C-order float copy of an
    n x n matrix, finite and nonnegative, and its row sums.  Raw bits at most
    ``_TOP_BITS`` put every entry in [0, 1 + ROW_SUM_TOL]: the one-sided flush
    suffices and no row sum can overflow.  Otherwise the ``abs`` flush runs;
    if the bits still fail, a NaN, infinite or negative entry raises here, or
    a row sums above 1 + ROW_SUM_TOL (to +inf, unwarned), for the caller."""
    e = np.array(entries, dtype=float, order="C")
    if e.shape != (n, n):  # one tuple compare on the accepting path
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"matrix must be square, got shape {e.shape}")
        raise ValueError("n does not match matrix shape")
    if np.maximum.reduce(e.view(np.uint64), None, initial=0) <= _TOP_BITS:
        e[e < ENTRY_FLUSH] = 0.0
        return e, np.add.reduce(e, 1)
    e[np.abs(e) < ENTRY_FLUSH] = 0.0  # -0.0 becomes +0.0 here
    if np.maximum.reduce(e.view(np.uint64), None, initial=0) <= _TOP_BITS:
        return e, np.add.reduce(e, 1)
    if not np.isfinite(e).all():
        raise ValueError("entries must be finite")
    if (e < 0).any():
        raise ValueError("entries must be nonnegative")
    with np.errstate(over="ignore"):
        return e, np.add.reduce(e, 1)


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


_M = TypeVar("_M", bound="_SquareMatrix")


@dataclass(frozen=True, eq=False)
class _SquareMatrix(ArrayFields):
    """Fields and graph shared by both matrix classes, each of which
    validates ``entries`` in its own ``__post_init__``.  Equal when the
    validated entries are identical; unhashable."""

    n: int
    entries: np.ndarray

    @classmethod
    def from_rows(cls: type[_M], rows: Iterable[Iterable[float]]) -> _M:
        e = np.asarray(list(rows), dtype=float)
        return cls(n=e.shape[0], entries=e)

    def graph(self) -> WeightedDigraph:
        return WeightedDigraph(n=self.n, weights=self.entries)


@dataclass(frozen=True, eq=False)
class RowStochasticMatrix(_SquareMatrix):
    """Nonnegative square matrix whose rows each sum to exactly 1.0 after
    validation (input row sums may deviate by up to ``ROW_SUM_TOL``)."""

    def __post_init__(self) -> None:
        e, sums = _validated(self.n, self.entries)
        exact = True
        for s in sums.tolist():
            if not abs(s - 1.0) <= ROW_SUM_TOL:
                bad = int(np.argmax(np.abs(sums - 1.0)))
                raise ValueError(f"row {bad} sums to {float(sums[bad])!r}, outside 1 +/- {ROW_SUM_TOL}")
            exact = exact and s == 1.0
        if not exact:
            # x / 1.0 is x, so the rows already exact keep their bits and sum
            e /= sums[:, None]
            for i, s in enumerate(np.add.reduce(e, 1).tolist()):
                if s != 1.0 and not _nudge_to_unit_sum(e[i]):
                    raise RuntimeError(f"row {i} cannot be compensated to an exact unit sum")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True, eq=False)
class SubstochasticMatrix(_SquareMatrix):
    """Nonnegative square matrix with input row sums at most 1 + ROW_SUM_TOL.

    Rows whose sum lies in (1, 1 + ROW_SUM_TOL] are only divided by it, not
    nudged, so they sum to 1 within a few ulp either side, never deficient.
    ``deficiency_set`` collects the rows with sum < 1 - ROW_SUM_TOL.
    """

    deficiency_set: frozenset[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        e, sums = _validated(self.n, self.entries)
        over, deficient = [], []
        for i, s in enumerate(sums.tolist()):
            if not s <= 1.0 + ROW_SUM_TOL:
                bad = int(np.argmax(sums))
                raise ValueError(f"row {bad} sums to {float(sums[bad])!r}, above 1 + {ROW_SUM_TOL}")
            if s > 1.0:
                over.append(i)
            elif s < 1.0 - ROW_SUM_TOL:
                deficient.append(i)
        if over:
            # divided rows sum to 1 within a few ulp, never deficient
            e[over] /= sums[over, None]
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "deficiency_set", frozenset(deficient))


@dataclass(frozen=True, eq=False)
class SiaVerdict(Report, ArrayFields):
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
    matvec = product(n)
    for _ in range(100 * n):
        nxt = matvec(WT, v)  # mass is conserved, no renormalization needed
        if float(np.max(np.abs(nxt - v))) < EIG_TOL / 10:
            v = nxt
            break
        v = nxt
    if float(np.max(np.abs(matvec(WT, v) - v))) > EIG_TOL:
        # Slow mixing; fall back to the dense eigenproblem.
        vals, vecs = np.linalg.eig(WT)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        v = np.real(vecs[:, idx])
        v = np.abs(v)
        v = v / v.sum()
    v = np.maximum(v, 0.0)
    return v / v.sum()


def is_primitive(W: RowStochasticMatrix) -> bool:
    """True iff the influence graph is strongly connected and aperiodic:
    some power of W is entrywise positive exactly then."""
    g = W.graph()
    dec = strong_components(g)
    return dec.is_strong and is_aperiodic(g, dec.components[0])


def spectral_radius(A: SubstochasticMatrix) -> float:
    """Spectral radius via power iteration on A + I (the shift separates the
    dominant root of a nonnegative matrix from complex eigenvalues of the
    same modulus), with a dense eigenvalue fallback if the Rayleigh quotient
    has not settled within 100 n iterations."""
    n = A.n
    B = A.entries + np.eye(n)
    mul = product(n)
    Bw = mul(B, np.full(n, 1.0))
    rayleigh = 0.0
    for _ in range(100 * n):
        norm = float(np.max(np.abs(Bw)))
        if norm == 0.0:
            return 0.0
        w = Bw / norm
        Bw = mul(B, w)  # this round's quotient and residual, and the next round's iterate
        new_rayleigh = float(mul(w, Bw)) / float(mul(w, w))
        residual = float(np.max(np.abs(Bw - new_rayleigh * w)))
        if abs(new_rayleigh - rayleigh) < EIG_TOL / 10 and residual < EIG_TOL:
            return max(new_rayleigh - 1.0, 0.0)
        rayleigh = new_rayleigh
    vals = np.linalg.eigvals(A.entries)
    return float(np.max(np.abs(vals)))


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
