"""Sequence predicates: persistence, reciprocity, balance, gossip."""

import numpy as np
import pytest

import raikit.graphs
import raikit.matrices
from raikit import (
    DisturbancePolicy,
    MatrixSequence,
    RowStochasticMatrix,
    arc_count,
    check_arc_balance,
    check_reciprocity,
    check_uniform_cut_balance,
    gossip_sequence,
    persistent_graph,
    run_rai,
    strong_components,
)
from raikit.sequences import IndexedSequence

FRENCH = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]])


def _sym_pair(n, i, j, w=0.3):
    """Stochastic matrix whose only off-diagonal arcs are the pair i<->j."""
    W = np.eye(n)
    W[i][i] = W[j][j] = 1 - w
    W[i][j] = W[j][i] = w
    return W


def test_sequence_period_and_exhaustion():
    seq = MatrixSequence.explicit([FRENCH, np.eye(3)], period=2)
    assert np.array_equal(seq.matrix(0).entries, seq.matrix(4).entries)
    finite = MatrixSequence.explicit([FRENCH, np.eye(3)])
    finite.matrix(1)
    with pytest.raises(ValueError):
        finite.matrix(2)


def test_generator_period_spot_check():
    mats = [FRENCH, np.eye(3)]
    with pytest.raises(ValueError):
        MatrixSequence.from_generator(lambda k: RowStochasticMatrix(n=3, entries=mats[min(k, 1)]), n=3, period=2)


def test_constant_shares_one_validated_object():
    seq = MatrixSequence.constant(FRENCH)
    assert seq.matrix(0) is seq.matrix(123)


def test_persistent_constant_is_support_graph():
    est = persistent_graph(MatrixSequence.constant(FRENCH))
    assert est.exact
    expected = {(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)}
    assert est.graph.arc_set() == expected


def test_persistent_gossip_ring_plus_self_loops():
    seq = gossip_sequence(3, [(0, 1), (1, 2), (2, 0)], 0.5, [0, 10, 100], period=110)
    est = persistent_graph(seq)
    assert est.exact
    ring = {(0, 1), (1, 2), (2, 0)}
    loops = {(i, i) for i in range(3)}
    assert est.graph.arc_set() == ring | loops


def test_persistent_decaying_arc_absent():
    def gen(k):
        w01 = 2.0 ** (-k)
        return RowStochasticMatrix(n=2, entries=np.array([[1 - w01, w01], [0.0, 1.0]]))

    est = persistent_graph(MatrixSequence.from_generator(gen, n=2))
    assert not est.exact
    assert (1, 0) not in est.graph.arc_set()
    assert est.partial_sums[0][1] < est.divergence_threshold


def test_arc_count_semantics():
    ident = MatrixSequence.constant(np.eye(3))
    assert arc_count(ident, [0], [1, 2], 0, 50) == 0

    seq = gossip_sequence(3, [(0, 1)], 0.5, [2], period=5)
    # the same pair firing repeatedly still counts once
    assert arc_count(seq, [1], [0], 0, 40) == 1
    assert arc_count(seq, [2], [0], 0, 40) == 0
    with pytest.raises(ValueError):
        arc_count(seq, [0], [0, 1], 0, 4)
    with pytest.raises(ValueError):
        arc_count(seq, [0], [1], 4, 2)


def test_arc_count_matches_scan_oracle():
    rng = np.random.default_rng(6)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        mats = []
        for _ in range(4):
            raw = (rng.random((n, n)) < 0.4) * 1.0
            raw[np.arange(n), np.arange(n)] += 1.0
            mats.append(raw / raw.sum(axis=1, keepdims=True))
        seq = MatrixSequence.explicit(mats, period=4)
        nodes = list(range(n))
        I = nodes[: n // 2] or [0]
        J = [v for v in nodes if v not in I]
        k0, k1 = 1, 9
        seen = set()
        for k in range(k0, k1 + 1):
            W = mats[k % 4]
            for i in I:
                for j in J:
                    if W[i][j] > 0:
                        seen.add((i, j))
        assert arc_count(seq, I, J, k0, k1) == len(seen)


def test_reciprocity_type_symmetric_holds():
    mats = [_sym_pair(3, 0, 1), _sym_pair(3, 1, 2), _sym_pair(3, 0, 2)]
    rep = check_reciprocity(MatrixSequence.explicit(mats, period=3), M=1, T=0)
    assert rep.holds and rep.exact


def test_reciprocity_gossip_ring_period():
    seq = gossip_sequence(3, [(0, 1), (1, 2), (2, 0)], 0.5, [0, 1, 2], period=3)
    rep = check_reciprocity(seq, M=3, T=0)
    assert rep.holds and rep.exact


def test_reciprocity_unidirectional_violated():
    seq = MatrixSequence.constant(np.array([[1.0, 0.0], [0.5, 0.5]]))
    rep = check_reciprocity(seq, M=1, T=0)
    assert not rep.holds
    assert rep.violating_cut is not None
    I, J = rep.violating_cut.left, rep.violating_cut.right
    k0, k1 = rep.violating_window
    assert arc_count(seq, I, J, k0, k1) >= 1
    assert arc_count(seq, J, I, k0, k1 + rep.T) == 0


def test_reciprocity_decides_large_n(monkeypatch):
    def no_enumeration(n):
        raise AssertionError("reciprocity enumerated cuts")

    monkeypatch.setattr(raikit.graphs, "cut_blocks", no_enumeration)
    n = 40
    ring = [_sym_pair(n, i, (i + 1) % n) for i in range(n)]
    rep = check_reciprocity(MatrixSequence.explicit(ring, period=n), M=1, T=0)
    assert rep.holds and rep.exact and rep.violating_cut is None


def test_cut_balance_symmetric_and_french():
    sym = MatrixSequence.explicit([_sym_pair(3, 0, 1), _sym_pair(3, 1, 2)], period=2)
    for L in (0, 2):
        rep = check_uniform_cut_balance(sym, L)
        assert rep.holds and rep.C == pytest.approx(1.0) and rep.exact

    french = check_uniform_cut_balance(MatrixSequence.constant(FRENCH), 0)
    assert not french.holds
    cut, k0 = french.witness
    flows_in = sum(FRENCH[i][j] for i in cut.left for j in cut.right)
    flows_out = sum(FRENCH[j][i] for i in cut.left for j in cut.right)
    assert (flows_in > 0) != (flows_out > 0)


def test_cut_balance_weight_balanced_matches_oracle():
    rng = np.random.default_rng(17)
    n = 4
    # convex mix of permutation cycles has equal row and column sums
    P = np.roll(np.eye(n), 1, axis=1)
    W = 0.4 * np.eye(n) + 0.35 * P + 0.25 * (P @ P)
    seq = MatrixSequence.constant(W)
    rep = check_uniform_cut_balance(seq, 0)
    assert rep.holds and rep.exact
    from raikit import all_cuts

    best = 1.0
    for cut in all_cuts(n):
        f_in = sum(W[i][j] for i in cut.left for j in cut.right)
        f_out = sum(W[j][i] for i in cut.left for j in cut.right)
        if f_out > 0:
            best = max(best, f_in / f_out)
    assert rep.C == pytest.approx(best, rel=1e-12)


def test_arc_balance_examples():
    # identical trajectories on every persistent arc
    same = MatrixSequence.explicit([_sym_pair(4, 0, 1), _sym_pair(4, 0, 1)], period=2)
    rep = check_arc_balance(same, 0)
    assert rep.holds and rep.C == pytest.approx(1.0)

    # two arcs alternating: windows of length 2 see both once
    A = _sym_pair(2, 0, 1)
    B = np.eye(2)
    alt_a = np.array([[0.7, 0.3], [0.0, 1.0]])
    alt_b = np.array([[1.0, 0.0], [0.3, 0.7]])
    alt = MatrixSequence.explicit([alt_a, alt_b], period=2)
    ok = check_arc_balance(alt, 1)
    assert ok.holds and ok.C == pytest.approx(1.0)
    bad = check_arc_balance(alt, 0)
    assert not bad.holds


def test_balance_checks_reject_a_negative_window_length():
    seq = MatrixSequence.constant(np.eye(3))
    for check in (check_arc_balance, check_uniform_cut_balance):
        with pytest.raises(ValueError, match="^L must be an integer >= 0, got -1$"):
            check(seq, -1)


def test_arc_balance_geometric_gaps_fail():
    # full weight at powers of two keeps the gapped arc past the
    # persistence threshold inside the horizon, gaps still unbounded
    def gen(k):
        active = (k & (k - 1)) == 0 and k > 0
        w = 1.0 if active else 0.0
        return RowStochasticMatrix(
            n=2, entries=np.array([[1 - w, w], [0.4, 0.6]])
        )

    seq = MatrixSequence.from_generator(gen, n=2, horizon_K=10_000)
    rep = check_arc_balance(seq, 2)
    assert not rep.holds


def test_gossip_matrix_form():
    seq = gossip_sequence(2, [(0, 1)], 0.5, [0], period=4)
    W0 = seq.matrix(0).entries
    assert np.array_equal(W0, np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert np.array_equal(seq.matrix(1).entries, np.eye(2))
    assert seq.matrix(1) is seq.matrix(2)  # shared silence identity


def test_gossip_empty_schedule_identity():
    seq = gossip_sequence(3, [], [], [], period=2)
    for k in range(4):
        assert np.array_equal(seq.matrix(k).entries, np.eye(3))


def test_gossip_alpha_range_enforced():
    with pytest.raises(ValueError):
        gossip_sequence(2, [(0, 1)], 0.01, [0], eta=0.05, period=2)
    with pytest.raises(ValueError):
        gossip_sequence(2, [(0, 1)], 0.99, [0], eta=0.05, period=2)


def test_cut_balance_implies_reciprocity():
    rng = np.random.default_rng(40)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        mats = []
        for _ in range(3):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            W = np.eye(n)
            for i, j in pairs:
                w = 0.1 + 0.2 * rng.random()
                W[i][j] += w
                W[j][i] += w
            mats.append(W / W.sum(axis=1, keepdims=True))
        seq = MatrixSequence.explicit(mats, period=3)
        L = 1
        if check_uniform_cut_balance(seq, L).holds:
            assert check_reciprocity(seq, M=1, T=L).holds


def test_cut_balanced_persistent_components_isolated():
    mats = [_sym_pair(4, 0, 1), _sym_pair(4, 2, 3), _sym_pair(4, 1, 2)]
    seq = MatrixSequence.explicit(mats, period=3)
    assert check_uniform_cut_balance(seq, 2).holds
    est = persistent_graph(seq)
    dec = strong_components(est.graph)
    assert all(cls == "isolated" for cls in dec.classification)


def test_indexed_sequence_storage_modes():
    validated = []

    def validate(v):
        validated.append(v)
        return v * 10

    periodic = IndexedSequence(validate, period=3, items=[1, 2, 3])
    assert validated == [1, 2, 3]
    assert [periodic.at(k) for k in (0, 1, 2, 3, 7)] == [10, 20, 30, 10, 20]
    assert validated == [1, 2, 3]  # lookups never re-validate explicit items
    finite = IndexedSequence(validate, items=[1, 2])
    with pytest.raises(ValueError):
        finite.at(2)
    held = IndexedSequence(validate, items=[1, 2], hold_last=True)
    assert held.at(5) == 20
    with pytest.raises(ValueError):
        held.at(-1)
    generated = IndexedSequence(validate, period=4, generator=lambda k: k + 1)
    validated.clear()
    assert generated.at(6) == 30 and generated.at(2) == 30 and generated.at(10) == 30
    assert validated == [3] and generated.cache == {2: 30}
    for bad in (
        dict(period=-1, items=[1]),
        dict(items=[]),
        dict(period=2, items=[1]),
        dict(items=[1], generator=lambda k: k),
        dict(),
    ):
        with pytest.raises(ValueError):
            IndexedSequence(validate, **bad)


def test_generated_matrices_cached_for_the_life_of_the_sequence():
    calls = []

    def gen(k):
        calls.append(k)
        return FRENCH if k % 2 else np.eye(3)

    seq = MatrixSequence.from_generator(gen, n=3)
    first = [seq.matrix(k) for k in range(4)]
    assert all(seq.matrix(k) is first[k] for k in range(4))
    assert calls == [0, 1, 2, 3] and len(seq.cache) == 4


def test_uniform_cut_balance_on_finite_explicit_sequence():
    # windows [0, 1] and [1, 2] of a three-step list: the second one sees
    # the one-way arc 1 -> 2 alone
    one_way = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
    seq = MatrixSequence.explicit([np.eye(3), _sym_pair(3, 0, 1), one_way])
    rep = check_uniform_cut_balance(seq, 1)
    assert not rep.holds and not rep.exact
    cut, k0 = rep.witness
    assert (cut.left, cut.right, k0) == ({2}, {0, 1}, 1)
    assert check_uniform_cut_balance(MatrixSequence.explicit([np.eye(3), _sym_pair(3, 0, 1)]), 1).holds
    with pytest.raises(ValueError):
        check_uniform_cut_balance(seq, 3)  # no window of four steps fits


def test_sequence_and_checker_argument_errors():
    with pytest.raises(ValueError, match="n must be positive"):
        MatrixSequence(n=0, matrices=(np.eye(1),))
    two = RowStochasticMatrix(n=2, entries=np.eye(2))
    with pytest.raises(ValueError, match="matrix is 2x2, sequence needs 3x3"):
        MatrixSequence(n=3, period=1, matrices=(two,))
    seq = MatrixSequence.constant(np.full((3, 3), 1 / 3))
    with pytest.raises(ValueError, match="need M >= 1 and T >= 0"):
        check_reciprocity(seq, 0, 0)
    with pytest.raises(ValueError, match="^T must be an integer >= 0, got -1$"):
        check_reciprocity(seq, 1, -1)
    with pytest.raises(ValueError, match="node sets must be nonempty"):
        arc_count(seq, [], [1], 0, 2)
    with pytest.raises(ValueError, match="node 3 out of range"):
        arc_count(seq, [0], [3], 0, 2)
    with pytest.raises(ValueError, match="node sets must be disjoint"):
        arc_count(seq, [0, 1], [1, 2], 0, 2)


def _decay_rows(k):
    w = 0.45 / (k + 2)
    return [[1 - 2 * w, w, w], [w, 1 - 2 * w, w], [w, w, 1 - 2 * w]]


@pytest.mark.parametrize(
    "make, period, want",
    [
        (lambda k: RowStochasticMatrix(n=3, entries=_decay_rows(k)), 0, 40),  # the generator's own
        (_decay_rows, 0, 40),  # one per step
        (lambda k: _decay_rows(k % 7), 7, 7 + 1),  # one period, and the check at k = 0
    ],
)
def test_generator_backed_run_validates_each_step_once(monkeypatch, make, period, want):
    calls = []
    validated = raikit.matrices._validated

    def counted(n, entries):
        calls.append(n)
        return validated(n, entries)

    monkeypatch.setattr(raikit.matrices, "_validated", counted)
    seq = MatrixSequence.from_generator(make, n=3, period=period)
    run_rai(seq, np.array([1.0, -2.0, 0.5]), DisturbancePolicy.vanishing_random(1e-3, 0.9, seed=1), 40)
    assert len(calls) == want
