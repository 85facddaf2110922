"""Time-varying averaging matrix sequences and the predicates defined on
them: persistent graphs, windowed arc counts, reciprocity, and the two
windowed balance conditions.

``MatrixSequence`` and the signed sequence of raikit.opinions share one
private base: fields, the n check, the store (which checks the period),
the generator period check, ``block``.

Every checker reports an ``exact`` flag.  Periodic sequences admit exact
verdicts (finitely many windows matter, by periodicity); aperiodic sequences
are truncated at a horizon and the verdicts are documented heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .graphs import (
    ArrayFields,
    Cut,
    Report,
    WeightedDigraph,
    _check_count,
    _cut_constant,
    _equal,
    _max_closure,
    _unbalanced_cut,
    reachable,
)
from .matrices import RowStochasticMatrix
from .tolerances import DIVERGENCE_THRESHOLD

__all__ = [
    "MatrixSequence",
    "PersistentGraphEstimate",
    "ReciprocityReport",
    "UniformCutBalanceReport",
    "ArcBalanceReport",
    "persistent_graph",
    "arc_count",
    "check_reciprocity",
    "check_uniform_cut_balance",
    "check_arc_balance",
    "gossip_sequence",
]


def _coerce(n: int, value) -> RowStochasticMatrix:
    if isinstance(value, RowStochasticMatrix):
        if value.n != n:
            raise ValueError(f"matrix is {value.n}x{value.n}, sequence needs {n}x{n}")
        return value
    e = np.asarray(value, dtype=float)
    return RowStochasticMatrix(n=n, entries=e)


class IndexedSequence:
    """Values v(0), v(1), ... from explicit storage or a generator.

    ``validate`` maps a raw item to its stored form and raises ValueError
    on bad input, as the store does on a ``period`` that is not an integer
    >= 0.  Explicit ``items`` are validated at construction: with
    ``period`` > 0 they hold exactly one period and v(k) = items[k mod
    period]; with period 0 they are finite, and a lookup past their end
    raises, or with ``hold_last`` returns the last item.  A ``generator``
    k -> raw item (k reduced mod period when period > 0) is validated on
    first fetch and cached in ``cache`` for the life of the sequence, so it
    must be pure.
    """

    __slots__ = ("validate", "period", "items", "generator", "cache", "hold_last")

    def __init__(
        self,
        validate: Callable[[object], object],
        period: int = 0,
        items: Iterable | None = None,
        generator: Callable[[int], object] | None = None,
        hold_last: bool = False,
    ) -> None:
        _check_count("period", period)
        if (items is None) == (generator is None):
            raise ValueError("exactly one of explicit items/generator must be given")
        if items is not None:
            items = tuple(validate(v) for v in items)
            if not items:
                raise ValueError("explicit sequence must be nonempty")
            if period > 0 and len(items) != period:
                raise ValueError(
                    f"explicit periodic sequence must store exactly one period:"
                    f" {len(items)} stored for period {period}"
                )
        self.validate = validate
        self.period = period
        self.items = items
        self.generator = generator
        self.cache = {}
        self.hold_last = hold_last

    def at(self, k: int):
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.period > 0:
            k = k % self.period
        items = self.items
        if items is not None:
            if k < len(items):
                return items[k]
            if self.hold_last:
                return items[-1]
            raise ValueError(f"finite sequence of length {len(items)} has no term k={k}")
        got = self.cache.get(k)
        if got is None:
            got = self.validate(self.generator(k))
            self.cache[k] = got
        return got


@dataclass(frozen=True, eq=False)
class _WeightSequence(ArrayFields):
    """Fields, store, period checks and window reader of a weight sequence:
    an explicit list or a pure function k -> step, stored by an
    IndexedSequence (generated steps are cached in ``cache``).  ``period``
    > 0 declares step k + period = step k exactly (an explicit list holds
    one period; a generator is checked at k = 0); 0 claims no periodicity.
    Equal when the fields are and the generator is shared; unhashable.  A
    family sets ``_validate(n, raw)``, ``_entries`` (step -> array) and
    ``matrix``."""

    n: int
    period: int = 0
    matrices: tuple | None = None
    generator: Callable[[int], object] | None = None

    _entries = staticmethod(np.asarray)

    def __post_init__(self) -> None:
        _check_count("n", self.n)
        if self.n < 1:
            raise ValueError("n must be positive")
        validate = partial(self._validate, self.n)
        store = IndexedSequence(validate, self.period, self.matrices, self.generator)
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "cache", store.cache)
        object.__setattr__(self, "matrices", store.items)
        if self.generator is not None and self.period > 0:
            if not _equal(store.at(0), validate(self.generator(self.period))):
                raise ValueError("generator violates its declared period at k=0")

    def block(self, k0: int, k1: int) -> np.ndarray:
        """Steps k0, ..., k1-1 as one read-only (k1-k0, n, n) array,
        allocated first (MemoryError at once if it cannot be held), then
        filled through ``matrix``: past the end of a finite list that raises
        "has no term k=...", before a caller decides anything."""
        if not 0 <= k0 <= k1:
            raise ValueError("block needs 0 <= k0 <= k1")
        out = np.empty((k1 - k0, self.n, self.n))
        if k1 > k0:  # an empty list does not broadcast to (0, n, n)
            out[...] = [self._entries(self.matrix(k)) for k in range(k0, k1)]
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class MatrixSequence(_WeightSequence):
    """A sequence W(0), W(1), ... of validated row-stochastic matrices.
    ``horizon_K`` is the truncation length analysis routines fall back to;
    None defers to each checker's documented default."""

    horizon_K: int | None = None

    _validate = staticmethod(_coerce)
    _entries = staticmethod(attrgetter("entries"))

    @classmethod
    def constant(cls, W, horizon_K: int | None = None) -> "MatrixSequence":
        W = W if isinstance(W, RowStochasticMatrix) else RowStochasticMatrix.from_rows(W)
        return cls(n=W.n, period=1, horizon_K=horizon_K, matrices=(W,))

    @classmethod
    def explicit(
        cls, mats: Iterable, period: int = 0, horizon_K: int | None = None
    ) -> "MatrixSequence":
        mats = tuple(mats)
        first = mats[0] if mats else np.eye(1)  # the container rejects an empty list
        n = first.n if isinstance(first, RowStochasticMatrix) else np.asarray(first).shape[0]
        return cls(n=n, period=period, horizon_K=horizon_K, matrices=mats)

    @classmethod
    def from_generator(
        cls,
        fn: Callable[[int], object],
        n: int,
        period: int = 0,
        horizon_K: int | None = None,
    ) -> "MatrixSequence":
        return cls(n=n, period=period, horizon_K=horizon_K, generator=fn)

    def matrix(self, k: int) -> RowStochasticMatrix:
        return self._store.at(k)

    def known_length(self) -> int | None:
        """Length of the explicitly stored aperiodic list, else None."""
        if self.matrices is not None and self.period == 0:
            return len(self.matrices)
        return None


def _default_horizon(seq: MatrixSequence, M: int = 0, T: int = 0) -> int:
    # Long enough that periodic verdicts are exact by pigeonhole.
    if seq.horizon_K is not None:
        _check_count("horizon_K", seq.horizon_K)
        h = seq.horizon_K
    else:
        h = 10 * seq.n * max(seq.period, 1) * (M + T + 1)
    known = seq.known_length()
    if known is not None:
        h = min(h, known)
    return max(h, 1)


@dataclass(frozen=True, eq=False)
class PersistentGraphEstimate(ArrayFields):
    """0/1 graph of arcs whose weight series is judged divergent.

    For periodic sequences the verdict is exact (arc present iff its sum
    over one period is positive).  Otherwise an arc counts as persistent
    when its partial sum over the horizon reaches ``divergence_threshold``,
    and ``exact`` is False.
    """

    graph: WeightedDigraph
    partial_sums: np.ndarray
    divergence_threshold: float
    exact: bool


def persistent_graph(seq: MatrixSequence) -> PersistentGraphEstimate:
    n, p = seq.n, seq.period
    horizon = _default_horizon(seq)
    if p > 0:
        period_sum = seq.block(0, p).sum(axis=0)
        full, rem = divmod(max(horizon, p), p)
        partial = full * period_sum
        for W in seq.block(0, rem):
            partial += W
        adjacency = period_sum > 0
    else:
        partial = seq.block(0, horizon).sum(axis=0)
        adjacency = partial >= DIVERGENCE_THRESHOLD
    return PersistentGraphEstimate(
        graph=WeightedDigraph(n=n, weights=adjacency.astype(float)),
        partial_sums=partial,
        divergence_threshold=DIVERGENCE_THRESHOLD,
        exact=p > 0,
    )


def _check_sets(n: int, I: Iterable[int], J: Iterable[int]) -> tuple[list[int], list[int]]:
    Il, Jl = sorted(set(int(i) for i in I)), sorted(set(int(j) for j in J))
    if not Il or not Jl:
        raise ValueError("node sets must be nonempty")
    if set(Il) & set(Jl):
        raise ValueError("node sets must be disjoint")
    for v in Il + Jl:
        if not 0 <= v < n:
            raise ValueError(f"node {v} out of range")
    return Il, Jl


def arc_count(seq: MatrixSequence, I: Iterable[int], J: Iterable[int], k0: int, k1: int) -> int:
    """Number of distinct pairs (i, j) in I x J with w_ij(k) > 0 for some
    k in the inclusive window [k0, k1], read whole (at most one period).
    Each pair counts once no matter how often the arc fires."""
    Il, Jl = _check_sets(seq.n, I, J)
    _check_count("k0", k0)
    _check_count("k1", k1)
    if k1 < k0:
        raise ValueError("window must satisfy 0 <= k0 <= k1")
    end = k1
    if seq.period > 0:
        # A full period exhausts every arc the sequence will ever show.
        end = min(k1, k0 + seq.period - 1)
    return int((seq.block(k0, end + 1)[:, Il][:, :, Jl] > 0).any(axis=0).sum())


@dataclass(frozen=True)
class ReciprocityReport(Report):
    """Window-count reciprocity: M crossing arcs one way within any window
    must be answered by at least one arc back within T extra steps."""

    holds: bool
    M: int
    T: int
    violating_cut: Cut | None
    violating_window: tuple[int, int] | None
    exact: bool


def check_reciprocity(seq: MatrixSequence, M: int, T: int) -> ReciprocityReport:
    """Over every cut (I, J) and window [k0, k1]: if the count of distinct
    J-to-I pairs active in [k0, k1] reaches M, some I-to-J arc must be
    active in [k0, k1 + T].

    No cut is enumerated.  With A and B the arcs active in [k0, k1] and in
    [k0, k1 + T], an unanswered I is closed under B (j in I and a B arc
    j -> i put i in I), and the A arcs entering it number the sum over I of
    in_A - out_A.  So a window violates iff the maximum-weight closure
    (``_max_closure``) weighs at least M; the empty and the full node set
    weigh 0.  Reported: the first violating window in (k0, k1) order, with
    the smallest maximum closure as I.

    Periodic sequences: exact (k0 below the period and windows up to one
    period long cover every case: after one period a window and its response
    window have seen every arc they ever will).  Aperiodic: windows within
    the horizon only, and a violation is reported only when the full
    response window fits inside it.  Every window's arcs come from one
    ``seq.block``: one period, or the horizon if a response window fits."""
    _check_count("M", M)
    _check_count("T", T)
    if M < 1:
        raise ValueError("need M >= 1 and T >= 0")
    n, p = seq.n, seq.period
    k0_count, exact = (p, True) if p > 0 else (_default_horizon(seq, M, T), False)
    span = p if p > 0 else (k0_count if T < k0_count else 0)
    active = seq.block(0, span) > 0
    for k0 in range(k0_count):
        k1_stop = k0 + p - 1 if p > 0 else k0_count - 1 - T  # the response window fits
        seen = np.zeros((n, n), dtype=bool)  # self-loops count in and out, so weigh 0
        heard, t, size = seen.copy(), k0, None
        for k1 in range(k0, k1_stop + 1):
            seen |= active[k1 % span]
            # past one period of responses, heard cannot grow
            while t <= (k1 + T if p == 0 else min(k1 + T, k1_stop)):
                heard |= active[t % span]
                t += 1
            last, size = size, (int(seen.sum()), int(heard.sum()))
            if size == last:
                continue  # the previous window's answer
            answers = WeightedDigraph(n=n, weights=heard)
            if len(reachable(answers, [0])) == n == len(reachable(answers, [0], reverse=True)):
                break  # B is strongly connected: every cut is answered, now and later
            weight = seen.sum(axis=1) - seen.sum(axis=0)  # in_A - out_A per node
            if np.maximum(weight, 0).sum() < M:  # no closed set can reach M
                continue
            best, closure = _max_closure(weight, heard)
            if best >= M:
                return ReciprocityReport(False, M, T, Cut.of(closure, n), (k0, k1), exact)
    return ReciprocityReport(True, M, T, None, None, exact)


@dataclass(frozen=True)
class UniformCutBalanceReport(Report):
    holds: bool
    C: float | None
    witness: tuple[Cut, int] | None
    exact: bool


def _window_sums(seq: MatrixSequence, L: int) -> tuple[np.ndarray, bool]:
    """Entrywise sums over [k0, k0+L], row k0 of one (k0_count, n, n) array
    for each window start k0 that matters (differences of the prefix sums of
    one block), and whether those starts cover every case: exactly the
    starts below the period for periodic sequences, else the horizon's."""
    _check_count("L", L)
    if seq.period > 0:
        k0_count, exact = seq.period, True
    else:
        k0_count, exact = max(_default_horizon(seq) - L, 1), False
    block = seq.block(0, k0_count + L)
    prefix = np.zeros((k0_count + L + 1, seq.n, seq.n))
    np.cumsum(block, axis=0, out=prefix[1:])
    del block  # so the steps, the prefix and the windows are never held at once
    return prefix[L + 1 :] - prefix[:k0_count], exact


def check_uniform_cut_balance(seq: MatrixSequence, L: int) -> UniformCutBalanceReport:
    """Windowed cut balance: over every cut and window [k0, k0+L], the two
    cross-flows must be both positive or both zero; C is the largest ratio
    between opposite windowed flows.  Exact for periodic sequences (window
    starts below the period cover all cases).

    Every window sum is first decided as a graph, as in
    ``cut_balance_certificate``: the check holds iff every strongly
    connected component of every window graph is isolated (O(n^2) per
    window, no cut enumerated).  The witness is ``(cut, k0)`` for the first
    unbalanced window k0, with the certificate's cut: the downstream closure
    of a component that receives flow in that window and returns none.  Only
    when every window is balanced is C computed, as the largest of the
    per-window constants, by blockwise enumeration of all cuts (O(2^n n^2)
    per window; none for a symmetric window, whose constant is 1.0).  Above ``CUT_ENUMERATION_LIMIT`` nodes the verdict and
    witness are still decided and C is None."""
    sums, exact = _window_sums(seq, L)
    for k0, window in enumerate(sums):
        cut = _unbalanced_cut(WeightedDigraph(n=seq.n, weights=window))
        if cut is not None:
            return UniformCutBalanceReport(holds=False, C=None, witness=(cut, k0), exact=exact)
    constants = [_cut_constant(window) for window in sums]
    C = None if None in constants else max(constants)
    return UniformCutBalanceReport(holds=True, C=C, witness=None, exact=exact)


@dataclass(frozen=True)
class ArcBalanceReport(Report):
    holds: bool
    C: float | None
    exact: bool


def check_arc_balance(seq: MatrixSequence, L: int) -> ArcBalanceReport:
    """Windowed arc balance: every two persistent arcs must have windowed
    weight sums within a common constant factor C of each other, for every
    window [k0, k0+L].  Self-loops are not compared (their trajectories are
    pinned by stochasticity, not by reciprocity; only inter-agent arcs
    carry balance information).  Fewer than two persistent arcs: holds
    with C=1."""
    arcs = persistent_graph(seq).graph.weights > 0  # before the window sums: its error wins
    np.fill_diagonal(arcs, False)
    sums, exact = _window_sums(seq, L)
    ii, jj = np.nonzero(arcs)
    if len(ii) < 2:
        return ArcBalanceReport(holds=True, C=1.0, exact=exact)
    vals = sums[:, ii, jj]  # one row of persistent-arc sums per window
    hi, lo = vals.max(axis=1), vals.min(axis=1)
    if ((hi > 0) & (lo == 0)).any():
        return ArcBalanceReport(holds=False, C=None, exact=exact)
    flowing = lo > 0
    return ArcBalanceReport(holds=True, C=float((hi[flowing] / lo[flowing]).max(initial=1.0)), exact=exact)


def gossip_sequence(
    n: int,
    schedule: Sequence[tuple[int, int]],
    alphas,
    fire_times: Sequence[int],
    eta: float = 0.05,
    period: int = 0,
) -> MatrixSequence:
    """Single-arc averaging events separated by silence.

    Event s fires at time fire_times[s]: agent i_s moves to
    alpha*own + (1-alpha)*x_{j_s}, every other agent keeps its value
    (identity rows).  All other steps are the identity matrix.  With
    period > 0 the whole fire table repeats: fire_times live in
    [0, period) and W(k) = W(k mod period).

    Each alpha must lie in [eta, 1-eta]; arcs must join distinct nodes.
    """
    _check_count("n", n)
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 < eta <= 0.5:
        raise ValueError("eta must lie in (0, 0.5]")
    schedule = [(int(j), int(i)) for (j, i) in schedule]
    fire_times = [int(t) for t in fire_times]
    if len(schedule) != len(fire_times):
        raise ValueError("schedule and fire_times must have equal length")
    if np.isscalar(alphas):
        alphas = [float(alphas)] * len(fire_times)
    else:
        alphas = [float(a) for a in alphas]
    if len(alphas) != len(fire_times):
        raise ValueError("alphas and fire_times must have equal length")
    for (j, i) in schedule:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"arc ({j}, {i}) out of range")
        if i == j:
            raise ValueError("gossip arcs must join distinct nodes")
    for a in alphas:
        if not eta <= a <= 1.0 - eta:
            raise ValueError(f"alpha {a!r} outside [{eta}, {1.0 - eta}]")
    if any(t2 <= t1 for t1, t2 in zip(fire_times, fire_times[1:])):
        raise ValueError("fire_times must be strictly increasing")
    if fire_times and fire_times[0] < 0:
        raise ValueError("fire_times must be nonnegative")
    if period > 0 and fire_times and fire_times[-1] >= period:
        raise ValueError("periodic fire_times must lie below the period")

    identity = RowStochasticMatrix(n=n, entries=np.eye(n))

    def fire_matrix(s: int) -> RowStochasticMatrix:
        j, i = schedule[s]
        a = alphas[s]
        e = np.eye(n)
        e[i, i] = a
        e[i, j] = 1.0 - a
        return RowStochasticMatrix(n=n, entries=e)

    if period > 0:
        table = [identity] * period
        for s, t in enumerate(fire_times):
            table[t] = fire_matrix(s)
        return MatrixSequence(n=n, period=period, matrices=tuple(table))

    fires = {t: fire_matrix(s) for s, t in enumerate(fire_times)}

    def gen(k: int):
        return fires.get(k, identity)

    horizon = (fire_times[-1] + 1) if fire_times else None
    return MatrixSequence(n=n, period=0, horizon_K=horizon, generator=gen)
