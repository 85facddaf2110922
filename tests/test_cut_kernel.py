"""The blockwise all-cuts kernel, the cut certificate and the uniform
check built on it, and the closure-based reciprocity check, against the
per-cut loops they replaced (kept here as reference oracles)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raikit import (
    Cut,
    MatrixSequence,
    ReciprocityReport,
    WeightedDigraph,
    all_cuts,
    check_reciprocity,
    check_uniform_cut_balance,
    cut_balance_certificate,
    cut_flow,
)
import raikit.graphs
from raikit.graphs import CUT_BLOCK_ROWS, _cut_constant, block_flows, cut_blocks
from raikit.sequences import _default_horizon, _window_sums
from raikit.tolerances import CUT_ENUMERATION_LIMIT


# ---------------------------------------------------------------------------
# Reference oracles: one Cut object and one numpy index per cut and window.


def _reference_reciprocity(seq, M, T):
    """(holds, violating_cut, violating_window, exact), first violation in
    (cut, k0, k1) order."""
    p = seq.period
    if p > 0:
        k0_range = range(p)
        span = 2 * p * (M + 1) + T
        exact = True
    else:
        k0_range = range(_default_horizon(seq, M, T))
        span = None
        exact = False

    def active(k):
        return seq.matrix(k).entries > 0

    for cut in all_cuts(seq.n):
        Il, Jl = sorted(cut.left), sorted(cut.right)
        premise_sub = np.ix_(Il, Jl)
        response_sub = np.ix_(Jl, Il)
        for k0 in k0_range:
            if p > 0:
                k1_max = k0 + span
            else:
                k1_max = len(k0_range) - 1
                if k0 > k1_max:
                    break
            seen = np.zeros((len(Il), len(Jl)), dtype=bool)
            responded = False
            for k1 in range(k0, k1_max + 1):
                seen |= active(k1)[premise_sub]
                if not responded:
                    lo = k0 if k1 == k0 else k1 + T
                    for t in range(lo, k1 + T + 1):
                        if p == 0 and t > k1_max:
                            break
                        if active(t)[response_sub].any():
                            responded = True
                            break
                if responded:
                    break
                if int(seen.sum()) >= M and (p > 0 or k1 + T <= k1_max):
                    return False, cut, (k0, k1), exact
    return True, None, None, exact


def _reference_witness(seq, M, T):
    """(violating_cut, violating_window) of the closure rule, from every cut
    of every window: the first window in (k0, k1) order on which some cut
    violates, and there the smallest cut closed under the response arcs
    with the most premise arcs entering it.  (None, None) when none does."""
    n, p = seq.n, seq.period
    horizon = p if p > 0 else _default_horizon(seq, M, T)
    cuts = list(all_cuts(n))
    X = np.array([[v in c.left for v in range(n)] for c in cuts], dtype=bool).reshape(-1, n)
    # [c, i, j]: i in I and j in J, the cross pairs of arcs j -> i into I
    into = X[:, :, None] & ~X[:, None, :]

    def active(lo, hi):
        return np.any([seq.matrix(k).entries > 0 for k in range(lo, hi + 1)], axis=0)

    for k0 in range(horizon):
        k1_max = k0 + p - 1 if p > 0 else horizon - 1 - T
        for k1 in range(k0, k1_max + 1):
            entering = (into & active(k0, k1)).sum(axis=(1, 2))
            closed = ~(into & active(k0, k1 + T).T).any(axis=(1, 2))
            if (closed & (entering >= M)).any():
                best = max(entering[closed])
                smallest = min(
                    (r for r in range(len(cuts)) if closed[r] and entering[r] == best),
                    key=lambda r: len(cuts[r].left),
                )
                return cuts[smallest], (k0, k1)
    return None, None


def _reference_uniform(seq, L):
    """(holds, C) from every cut of every window sum."""
    sums, _ = _window_sums(seq, L)
    best, any_flow = 0.0, False
    for cut in all_cuts(seq.n):
        sub = np.ix_(sorted(cut.left), sorted(cut.right))
        for window in sums:
            f_ij = float(window[sub].sum())
            f_ji = float(window.T[sub].sum())
            if (f_ij > 0) != (f_ji > 0):
                return False, None
            if f_ji > 0:
                any_flow = True
                best = max(best, f_ij / f_ji)
    return True, best if any_flow else 1.0


def _reference_constant(g):
    best, any_ratio = 0.0, False
    for cut in all_cuts(g.n):
        f_ij, f_ji = cut_flow(g, cut)
        if f_ji > 0:
            any_ratio = True
            best = max(best, f_ij / f_ji)
    return best if any_ratio else 1.0


# ---------------------------------------------------------------------------
# Random inputs: sparse nonnegative patterns, symmetrized half the time so
# that balanced and reciprocal cases are common.


def _pattern(cells, n, symmetric):
    w = np.array(cells[: n * n]).reshape(n, n)
    w = np.where(w < 0.6, 0.0, w)
    if symmetric:
        w = w + w.T
    return w


def _stochastic(w):
    w = w + np.diag(np.where(w.sum(axis=1) == 0, 1.0, 0.2))
    return w / w.sum(axis=1, keepdims=True)


@st.composite
def sequences(draw):
    n = draw(st.integers(1, 8))
    periodic = draw(st.booleans())
    count = draw(st.integers(1, 3 if periodic else 5))
    symmetric = draw(st.booleans())
    cells = st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n)
    mats = [_stochastic(_pattern(draw(cells), n, symmetric)) for _ in range(count)]
    return MatrixSequence.explicit(mats, period=count if periodic else 0)


@settings(max_examples=150, deadline=None)
@given(sequences(), st.integers(1, 4), st.integers(0, 2))
def test_reciprocity_matches_per_cut_loop(seq, M, T):
    rep = check_reciprocity(seq, M, T)
    holds, _, _, exact = _reference_reciprocity(seq, M, T)
    cut, window = _reference_witness(seq, M, T)
    assert (cut is None) is holds
    assert rep == ReciprocityReport(
        holds=holds, M=M, T=T, violating_cut=cut, violating_window=window, exact=exact
    )


@settings(max_examples=150, deadline=None)
@given(sequences(), st.integers(0, 2))
def test_uniform_cut_balance_matches_per_cut_loop(seq, L):
    if seq.period == 0 and len(seq.matrices) <= L:
        with pytest.raises(ValueError):  # no window fits in the stored list
            check_uniform_cut_balance(seq, L)
        return
    rep = check_uniform_cut_balance(seq, L)
    holds, C = _reference_uniform(seq, L)
    assert rep.holds == holds
    if holds:
        assert rep.witness is None
        assert rep.C == pytest.approx(C, rel=1e-12)
    else:
        assert rep.C is None
        cut, k0 = rep.witness
        window = _window_sums(seq, L)[0][k0]
        into = float(window[np.ix_(sorted(cut.left), sorted(cut.right))].sum())
        out = float(window[np.ix_(sorted(cut.right), sorted(cut.left))].sum())
        assert (into > 0) != (out > 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.lists(st.floats(0.0, 1.0), min_size=64, max_size=64), st.booleans())
def test_certificate_constant_matches_per_cut_loop(n, cells, symmetric):
    g = WeightedDigraph(n=n, weights=_pattern(cells, n, symmetric))
    cert = cut_balance_certificate(g)
    flows = [cut_flow(g, c) for c in all_cuts(n)]
    assert cert.balanced == all((a > 0) == (b > 0) for a, b in flows)
    if cert.balanced:
        assert cert.constant_C == pytest.approx(_reference_constant(g), rel=1e-12)
        if symmetric:
            assert cert.constant_C == 1.0  # exactly, as the per-cut loop gives
    else:
        f_ij, f_ji = cut_flow(g, cert.witness_cut)
        assert f_ij > 0 and f_ji == 0


# ---------------------------------------------------------------------------
# The kernel itself.


def test_cut_blocks_follow_all_cuts_order_in_blocks():
    n = 12
    rows, sizes, nxt = [], [], 1
    for first, X in cut_blocks(n):
        assert first == nxt and X.shape[1] == n and X.dtype == bool
        nxt += len(X)
        sizes.append(len(X))
        rows.extend(frozenset(np.flatnonzero(r).tolist()) for r in X)
    assert rows == [c.left for c in all_cuts(n)]
    assert all(size == CUT_BLOCK_ROWS for size in sizes[:-1])
    assert max(sizes) == CUT_BLOCK_ROWS
    assert list(cut_blocks(1)) == []


def test_cut_blocks_reject_large_n_at_call_time():
    with pytest.raises(ValueError):
        cut_blocks(CUT_ENUMERATION_LIMIT + 1)


def test_block_flows_match_cut_flow():
    rng = np.random.default_rng(5)
    w = rng.random((6, 6)) * (rng.random((6, 6)) < 0.5)
    g = WeightedDigraph(n=6, weights=w)
    cuts = list(all_cuts(6))
    got = np.concatenate(
        [np.stack([block_flows(X, w), block_flows(X, w.T)], 1) for _, X in cut_blocks(6)]
    )
    want = np.array([cut_flow(g, c) for c in cuts])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def _enumerated_constant(w):
    """``_cut_constant`` without its symmetric shortcut: every cut that keeps
    node n-1 on the right, block by block, through the einsum."""
    n = len(w)
    wt = np.ascontiguousarray(w.T)
    constant, half = 1.0, 1 << (n - 1)
    for first, X in cut_blocks(n):
        if first >= half:
            break
        X = X[: half - first]
        f_ij, f_ji = block_flows(X, w), block_flows(X, wt)
        both = f_ji > 0
        if both.any():
            f_ij, f_ji = f_ij[both], f_ji[both]
            constant = max(constant, float((f_ij / f_ji).max()), float((f_ji / f_ij).max()))
    return constant


@st.composite
def _cycle_unions(draw):
    """Cut-balanced weights from 1e-6 to 1e6: a union of directed cycles
    (one of length 1 is a self-loop) with a weight of its own on every arc.
    Nodes on no cycle are isolated and have zero rows."""
    n = draw(st.integers(1, 9))
    w = np.zeros((n, n))
    for _ in range(draw(st.integers(0, 3))):
        cycle = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            w[b, a] += draw(st.floats(1e-6, 1e6))
    return w


def _counting_cut_blocks(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return cut_blocks(n)

    monkeypatch.setattr(raikit.graphs, "cut_blocks", counted)
    return calls


@settings(max_examples=200, deadline=None)
@given(_cycle_unions())
@example(np.zeros((1, 1)))
@example(np.array([[0.0, 1e-6], [1e6, 0.0]]))
@example(np.array([[0.0, 1e-6, 0.0], [1e6, 0.0, 0.0], [0.0, 0.0, 0.0]]))
def test_symmetric_shortcut_gives_the_enumerated_bits(w):
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_cut_blocks(mp)
        symmetric = w + w.T
        assert _cut_constant(symmetric) == 1.0 == _enumerated_constant(symmetric)
        assert calls == []
        got = _cut_constant(w)
        assert got == _enumerated_constant(w)  # bit for bit
        assert len(calls) == (0 if (w == w.T).all() else 1)
    assert got == pytest.approx(_reference_constant(WeightedDigraph(n=len(w), weights=w)), rel=1e-12)


def _certificate_peak(w):
    tracemalloc.start()
    try:
        cert = cut_balance_certificate(WeightedDigraph(n=len(w), weights=w))
        return cert, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cut_constant_memory_is_bounded_at_the_enumeration_limit():
    n = CUT_ENUMERATION_LIMIT
    w = np.zeros((n, n))
    for v in range(n):
        w[(v + 1) % n, v] = 0.1 + 0.01 * v  # the directed ring v -> v + 1
    cert, peak = _certificate_peak(w)
    assert cert.balanced and cert.constant_C == pytest.approx(0.29 / 0.1, rel=1e-12)
    # One block of einsum operands; one float per cut would take 4 MiB.
    assert peak < 2**20
    cert, peak = _certificate_peak(w + w.T)
    assert cert.constant_C == 1.0 and peak < 2**16  # no cut enumerated


# ---------------------------------------------------------------------------
# Failures on the first cut {0}, and the uniform check above the limit.


def _one_way_at_zero(n, period=3):
    """Symmetric ring 1 - 2 - ... - (n-1) - 1 with one edge per step, plus
    agent 0 listening to agent 1 at every step: nobody listens to 0."""
    mats = [np.eye(n) for _ in range(period)]
    ring = list(range(1, n))
    for t, a in enumerate(ring):
        b = ring[(t + 1) % len(ring)]
        W = mats[t % period]
        W[a, b] += 0.1
        W[b, a] += 0.1
        W[a, a] -= 0.1
        W[b, b] -= 0.1
    for W in mats:
        W[0, 1] += 0.2
        W[0, 0] -= 0.2
    return mats


def test_failure_on_cut_zero_reports_that_cut():
    n = 8
    seq = MatrixSequence.explicit(_one_way_at_zero(n), period=3)
    zero = Cut.of([0], n)
    rec = check_reciprocity(seq, M=1, T=0)
    assert not rec.holds
    assert (rec.violating_cut, rec.violating_window) == (zero, (0, 0))
    ucb = check_uniform_cut_balance(seq, 2)
    assert not ucb.holds and ucb.C is None
    assert ucb.witness == (zero, 0)
    assert ucb.witness[0] == _reference_reciprocity(seq, 1, 0)[1]


def test_reciprocity_reports_first_cut_of_a_block_that_fails_early():
    # Cuts {1} (mask 2) and {0, 1} (mask 3) share a block.  {1} fails on
    # window (0, 0) through arc 0 -> 1; {0, 1} fails later, on (0, 1),
    # through arc 2 -> 1.  Node 0 never receives, so cut {0} holds.
    step0 = np.eye(3)
    step0[1] = [0.5, 0.5, 0.0]
    step1 = np.eye(3)
    step1[1] = [0.0, 0.5, 0.5]
    seq = MatrixSequence.explicit([step0, step1], period=2)
    rep = check_reciprocity(seq, M=1, T=0)
    assert (rep.violating_cut, rep.violating_window) == (Cut.of([1], 3), (0, 0))
    assert _reference_reciprocity(seq, 1, 0)[1:3] == (Cut.of([1], 3), (0, 0))


def test_reciprocity_counts_arcs_over_several_steps_of_a_period():
    # Node 0 hears node 1 at step 0 and node 2 at step 1 and never answers:
    # with M = 2 no single step violates, the two-step window (0, 1) does.
    step0 = np.eye(3)
    step0[0] = [0.5, 0.5, 0.0]
    step1 = np.eye(3)
    step1[0] = [0.5, 0.0, 0.5]
    seq = MatrixSequence.explicit([step0, step1], period=2)
    rep = check_reciprocity(seq, M=2, T=1)
    assert (rep.violating_cut, rep.violating_window) == (Cut.of([0], 3), (0, 1))
    assert _reference_reciprocity(seq, 2, 1)[1:3] == (Cut.of([0], 3), (0, 1))


def test_reciprocity_reports_the_first_window_not_the_first_cut():
    # Node 1 hears node 2 at step 0, node 0 hears node 1 at step 1, and
    # neither answers.  Cut {0} (mask 1) first fails on window (0, 1); cut
    # {1} fails earlier, on (0, 0), and is the one reported.
    step0 = np.eye(3)
    step0[1] = [0.0, 0.5, 0.5]
    step1 = np.eye(3)
    step1[0] = [0.5, 0.5, 0.0]
    seq = MatrixSequence.explicit([step0, step1], period=2)
    rep = check_reciprocity(seq, M=1, T=0)
    assert (rep.violating_cut, rep.violating_window) == (Cut.of([1], 3), (0, 0))
    assert _reference_reciprocity(seq, 1, 0)[1:3] == (Cut.of([0], 3), (0, 1))
    assert _reference_witness(seq, 1, 0) == (Cut.of([1], 3), (0, 0))


def _no_enumeration(n):
    raise AssertionError("a check enumerated cuts")


def test_uniform_failure_in_last_window_enumerates_no_cut(monkeypatch):
    # Windows 0-2 are the identity; only window 3, the last of the period,
    # carries the one-way arc 1 -> 0.
    n, p = 6, 4
    mats = [np.eye(n) for _ in range(p)]
    mats[-1][0] = [0.8, 0.2, 0, 0, 0, 0]
    seq = MatrixSequence.explicit(mats, period=p)
    assert _reference_uniform(seq, 0) == (False, None)

    monkeypatch.setattr(raikit.graphs, "cut_blocks", _no_enumeration)
    rep = check_uniform_cut_balance(seq, 0)
    assert not rep.holds and rep.C is None
    assert rep.witness == (Cut.of([0], n), p - 1)


def test_uniform_cut_balance_above_enumeration_limit(monkeypatch):
    n = CUT_ENUMERATION_LIMIT + 4
    failing = MatrixSequence.explicit(_one_way_at_zero(n), period=3)
    rep = check_uniform_cut_balance(failing, 2)
    assert not rep.holds and rep.C is None and rep.exact
    assert rep.witness == (Cut.of([0], n), 0)

    # drop the one-way listening arc: only the symmetric ring remains
    mats = _one_way_at_zero(n)
    for W in mats:
        W[0, 0], W[0, 1] = 1.0, W[0, 1] - 0.2
    rep = check_uniform_cut_balance(MatrixSequence.explicit(mats, period=3), 2)
    assert rep.holds and rep.C is None and rep.witness is None and rep.exact

    # reciprocity is decided at any n, with no cut enumerated
    monkeypatch.setattr(raikit.graphs, "cut_blocks", _no_enumeration)
    rec = check_reciprocity(failing, M=1, T=0)
    assert not rec.holds and rec.exact
    assert (rec.violating_cut, rec.violating_window) == (Cut.of([0], n), (0, 0))


def test_reciprocity_reads_each_step_once(monkeypatch):
    """W(k) is read once per step in range, not once per window: node 7 is
    never touched, so B never becomes strongly connected, and the symmetric
    arcs answer every cut, so every window start runs to the horizon."""
    rng = np.random.default_rng(200)
    mats = []
    for _ in range(200):
        w = np.zeros((8, 8))
        w[:7, :7] = _pattern(rng.random(49).tolist(), 7, symmetric=True)
        mats.append(_stochastic(w))
    lookups = []
    read = MatrixSequence.matrix
    monkeypatch.setattr(MatrixSequence, "matrix", lambda seq, k: lookups.append(k) or read(seq, k))
    for seq in (MatrixSequence.explicit(mats), MatrixSequence.explicit(mats[:7], period=7)):
        lookups.clear()
        assert check_reciprocity(seq, M=2, T=1).holds
        assert len(lookups) <= _default_horizon(seq, 2, 1)
        assert sorted(set(lookups)) == list(range(len(seq.matrices)))
