"""Bounded-confidence and signed opinion models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raikit import (
    HkConfig,
    MatrixSequence,
    SignedMatrixSequence,
    StructuralBalanceReport,
    hk_weights,
    modulus_consensus_verdict,
    recover_structural_balance,
    run_altafini,
    run_degroot,
    run_hk,
)
from raikit.opinions import ClusterReport, _cluster
from raikit.tolerances import CLUSTER_TOL, CONSENSUS_TOL


def test_hk_weights_strict_confidence_boundary():
    x = np.array([0.0, 1.0, 2.5])
    W = hk_weights(x, 1.0).entries
    # |x0 - x1| = 1 is NOT within a radius-1 confidence set
    assert W[0][1] == 0.0 and W[1][0] == 0.0
    assert W[0][0] == 1.0
    W2 = hk_weights(x, 1.5).entries
    assert W2[0][1] == 0.5 and W2[1][0] > 0
    assert W2[1][2] == 0.0  # gap 1.5 not < 1.5


def test_hk_weights_type_symmetric_with_bounded_ratio():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        x = rng.random(n) * 3
        W = hk_weights(x, 0.7).entries
        pos = W > 0
        assert np.array_equal(pos, pos.T)
        ratio = np.where(pos & pos.T, W / np.where(W.T > 0, W.T, 1.0), 1.0)
        assert ratio.max() <= n + 1e-12


def test_hk_pure_freezes_into_separated_clusters():
    x0 = np.array([0.0, 0.1, 0.2, 0.9, 1.0, 1.1, 3.0, 3.05, 3.1, 6.0, 6.1, 6.2])
    traj, report = run_hk(x0, HkConfig(epsilon=0.5), 5000)
    assert report.terminated_at is not None
    assert set(report.frozen_agents) == set(range(12))
    vals = sorted(report.values)
    for a, b in zip(vals, vals[1:]):
        assert b - a >= 0.5 - 1e-9
    # a frozen state reproduces itself bitwise under one more update
    final = traj.states[-1]
    W = hk_weights(final, 0.5).entries
    assert np.array_equal(W @ final, final)


def test_hk_truth_seekers_exact_limit():
    traj, report = run_hk(
        np.array([0.0, 0.5, 5.0]),
        HkConfig(epsilon=1.0, truth=0.25, awareness=(0.5, 0.0, 0.0)),
        4000,
    )
    final = traj.states[-1]
    assert final[0] == 0.25 and final[1] == 0.25
    assert final[2] == 5.0
    assert list(report.truth_cluster) == [0, 1]
    assert report.min_gap == pytest.approx(4.75)


def test_hk_full_awareness_jumps_to_truth():
    traj, _ = run_hk(
        np.array([3.0, -1.0]),
        HkConfig(epsilon=0.5, truth=1.25, awareness=(1.0, 1.0)),
        50,
    )
    assert np.array_equal(traj.states[1], np.array([1.25, 1.25]))


def test_hk_induced_residuals_feasible():
    rng = np.random.default_rng(33)
    for trial in range(10):
        x0 = rng.random(6) * 4
        cfg = HkConfig(epsilon=0.8, truth=1.0, awareness=tuple(rng.random(6) * 0.5))
        traj, _ = run_hk(x0, cfg, 300)
        assert traj.feasibility_margin() >= -1e-12


def _loop_cluster(final, truth, states, terminated_at):
    """The per-agent loops ``_cluster`` replaced, kept as its oracle."""
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


def _assert_same_clusters(final, truth, states, terminated_at=None):
    got = _cluster(final, truth, states, terminated_at)
    want = _loop_cluster(final, truth, states, terminated_at)
    assert got == want and got.to_json() == want.to_json()
    for field in (got.clusters, (got.truth_cluster,), (got.frozen_agents,)):
        assert all(type(i) is int for group in field for i in group)
    assert all(type(v) is float for v in got.values)
    return got


# values on and off the tolerances: 0.0 and CLUSTER_TOL are exactly
# CLUSTER_TOL apart, and -0.0 equals 0.0
_EDGES = [0.0, -0.0, CLUSTER_TOL, 2 * CLUSTER_TOL, 0.5, 0.5 + CLUSTER_TOL, CONSENSUS_TOL, -CONSENSUS_TOL, 1.0]


@st.composite
def _cluster_inputs(draw):
    n = draw(st.integers(1, 12))
    value = st.one_of(st.sampled_from(_EDGES), st.floats(-3.0, 3.0))
    final = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 12))
    states = np.tile(final, (rows, 1))
    states[rng.random((rows, n)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))] += 1.0
    states[-1] = final
    return final, draw(st.sampled_from(_EDGES + [2.0])), states


@settings(max_examples=300, deadline=None)
@given(inp=_cluster_inputs())
def test_cluster_matches_its_per_agent_loops(inp):
    _assert_same_clusters(*inp)


def test_cluster_gap_exactly_at_the_tolerance_links():
    final = np.array([CLUSTER_TOL, 0.0, 1.0])
    assert final[0] - final[1] == CLUSTER_TOL
    report = _assert_same_clusters(final, 0.0, final[None, :])
    assert report.clusters == ((0, 1), (2,))
    apart = np.array([np.nextafter(CLUSTER_TOL, 1.0), 0.0])
    assert _assert_same_clusters(apart, 0.0, apart[None, :]).clusters == ((1,), (0,))


def test_cluster_single_cluster_and_all_or_no_agent_frozen():
    final = np.array([0.25, 0.25, 0.25 + CONSENSUS_TOL / 2])
    frozen = _assert_same_clusters(final, 0.25, np.tile(final, (8, 1)), 7)
    assert frozen.clusters == ((0, 1, 2),) and frozen.min_gap == float("inf")
    assert frozen.frozen_agents == (0, 1, 2) and frozen.truth_cluster == (0, 1, 2)
    moving = np.tile(final, (8, 1))
    moving[-2] += 1.0  # inside the last quarter of the 8 rows
    assert _assert_same_clusters(final, 5.0, moving).frozen_agents == ()


def test_empty_initial_vector_is_rejected():
    with pytest.raises(ValueError, match="^initial vector must be nonempty$"):
        run_hk([], HkConfig(1.0), 10)


def test_signed_sequence_validation():
    with pytest.raises(ValueError):
        SignedMatrixSequence.constant(np.array([[-0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        SignedMatrixSequence.constant(np.array([[0.5, 0.4], [0.5, 0.5]]))
    seq = SignedMatrixSequence.constant(np.array([[0.5, -0.5], [0.5, 0.5]]))
    assert np.array_equal(
        seq.absolute_sequence().matrix(0).entries, np.full((2, 2), 0.5)
    )


def test_altafini_gauge_equivalence_bitwise():
    rng = np.random.default_rng(9)
    raw = rng.random((4, 4)) + 0.1
    W = raw / raw.sum(axis=1, keepdims=True)
    D = np.diag([1.0, -1.0, -1.0, 1.0])
    x0 = rng.random(4) - 0.5
    signed = run_altafini(SignedMatrixSequence.constant(D @ W @ D), x0, 120)
    plain = run_degroot(MatrixSequence.constant(W), D @ x0, 120)
    assert np.array_equal(signed.states, plain.states @ D)


def test_altafini_balanced_ring_polarizes():
    ring = 0.5 * np.eye(4) + 0.5 * np.roll(np.eye(4), 1, axis=1)
    D = np.diag([1.0, -1.0, 1.0, -1.0])
    A = D @ ring @ D
    x0 = np.array([0.8, -0.2, 0.6, 0.1])
    traj = run_altafini(SignedMatrixSequence.constant(A), x0, 400)
    v = modulus_consensus_verdict(traj)
    assert v.modulus_consensus and not v.degenerate
    assert v.limit_magnitude == pytest.approx(0.375, abs=1e-9)
    assert v.polarization == ((0, 2), (1, 3))
    report = recover_structural_balance(SignedMatrixSequence.constant(A), 40)
    assert report.balanced
    assert list(report.gauge) == [1, -1, 1, -1]


def test_altafini_unbalanced_ring_decays():
    ring = 0.5 * np.eye(3) + 0.5 * np.roll(np.eye(3), 1, axis=1)
    ring[0][1] *= -1.0
    seq = SignedMatrixSequence.constant(ring)
    traj = run_altafini(seq, np.array([1.0, -0.5, 0.25]), 2000)
    assert np.abs(traj.states[-1]).max() < 1e-30
    v = modulus_consensus_verdict(traj)
    assert v.degenerate and v.limit_magnitude == 0.0 and v.polarization is None
    report = recover_structural_balance(seq, 40)
    assert not report.balanced and report.gauge is None


def test_altafini_runs_inside_modulus_inequality():
    # |x(k+1)| <= |A| |x(k)| entrywise along any signed run
    rng = np.random.default_rng(4)
    mats = []
    for _ in range(3):
        raw = rng.random((3, 3)) + 0.1
        W = raw / raw.sum(axis=1, keepdims=True)
        signs = np.sign(rng.random((3, 3)) - 0.3)
        np.fill_diagonal(signs, 1.0)
        mats.append(W * signs)
    seq = SignedMatrixSequence.explicit(mats, period=3)
    traj = run_altafini(seq, rng.random(3) * 2 - 1, 90)
    assert traj.feasibility_margin() >= -1e-12


def test_modulus_consensus_skips_empty_sign_block():
    # all-positive gauge: one camp only
    rng = np.random.default_rng(12)
    raw = rng.random((3, 3)) + 0.2
    W = raw / raw.sum(axis=1, keepdims=True)
    traj = run_altafini(SignedMatrixSequence.constant(W), np.array([1.0, 2.0, 3.0]), 300)
    v = modulus_consensus_verdict(traj)
    assert v.modulus_consensus and not v.degenerate
    assert v.polarization == ((0, 1, 2),)


def test_signed_sequence_storage_checks_and_generator_cache():
    A = np.array([[0.5, -0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        SignedMatrixSequence(n=2, period=-1, matrices=(A,))
    with pytest.raises(ValueError):
        SignedMatrixSequence.explicit([A, A], period=3)
    calls = []

    def gen(k):
        calls.append(k)
        return A

    seq = SignedMatrixSequence.from_generator(gen, n=2, period=2)
    assert seq.matrix(1) is seq.matrix(5)
    assert calls == [0, 2, 1]


# ---------------------------------------------------------------------------
# Structural balance on the doubled sign graph against the union-find with
# parity that it replaced (kept here as the reference oracle).


def _reference_structural_balance(seq, horizon):
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = seq.n
    parent = list(range(n))
    parity = [0] * n  # sign of node relative to its parent (0: same, 1: flipped)

    def find(v):
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

    def union(u, v, flip):
        ru, pu = find(u)
        rv, pv = find(v)
        if ru == rv:
            return (pu ^ pv) == flip
        parent[ru] = rv
        parity[ru] = pu ^ pv ^ flip
        return True

    for k in range(max(0, horizon - max(1, horizon // 4)), horizon):
        A = seq.matrix(k)
        for i in range(n):
            for j in range(n):
                if i != j and A[i, j] != 0.0:
                    if not union(i, j, 0 if A[i, j] > 0 else 1):
                        return StructuralBalanceReport(balanced=False, gauge=None)
    anchor = {}
    gauge = []
    for v in range(n):
        root, p = find(v)
        if root not in anchor:
            anchor[root] = p  # smallest v in the component anchors it to +1
        gauge.append(1 if p == anchor[root] else -1)
    return StructuralBalanceReport(balanced=True, gauge=tuple(gauge))


def _magnitudes(rng, n, density):
    raw = rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(raw, rng.random(n) + 0.1)
    return raw / raw.sum(axis=1, keepdims=True)


def _signed_steps(rng, n, count, shape):
    """``count`` signed matrices: random signs, a balanced D W D with an
    optional flipped entry, or balanced steps of two gauges that conflict."""
    density = rng.uniform(0.1, 1.0)
    gauges = np.where(rng.random((2, n)) < 0.5, -1.0, 1.0)
    mats = []
    for _ in range(count):
        W = _magnitudes(rng, n, density)
        if shape == "random":
            signs = np.where(rng.random((n, n)) < rng.random(), -1.0, 1.0)
            np.fill_diagonal(signs, 1.0)
            mats.append(signs * W)
            continue
        d = gauges[int(rng.integers(2))] if shape == "conflict" else gauges[0]
        A = d[:, None] * W * d[None, :]
        off = np.argwhere(A - np.diag(np.diag(A)))
        if shape == "flipped" and len(off) and rng.random() < 0.5:
            i, j = off[rng.integers(len(off))]
            A[i, j] = -A[i, j]
        mats.append(A)
    return mats


@st.composite
def _balance_cases(draw):
    n = draw(st.sampled_from(range(1, 11)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    horizon = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["random", "balanced", "flipped", "conflict"]))
    storage = draw(st.sampled_from(["periodic", "finite", "generator"]))
    if storage == "finite":
        mats = _signed_steps(rng, n, horizon + draw(st.integers(0, 3)), shape)
        return SignedMatrixSequence.explicit(mats), horizon
    period = draw(st.integers(1, 4))
    mats = _signed_steps(rng, n, period, shape)
    if storage == "periodic":
        return SignedMatrixSequence.explicit(mats, period=period), horizon
    return SignedMatrixSequence.from_generator(lambda k: mats[k % period], n), horizon


@settings(max_examples=300, deadline=None)
@given(case=_balance_cases())
def test_structural_balance_matches_union_find(case):
    seq, horizon = case
    got = recover_structural_balance(seq, horizon)
    # A periodic sequence's tail spans at least one whole period; the
    # union-find reads exactly one period at horizon 4 * period.
    want = _reference_structural_balance(seq, max(horizon, 4 * seq.period))
    assert got == want
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("shape", ["balanced", "flipped", "conflict", "random"])
def test_structural_balance_matches_union_find_at_64_nodes(shape):
    rng = np.random.default_rng(64)
    seq = SignedMatrixSequence.explicit(_signed_steps(rng, 64, 3, shape), period=3)
    got, want = recover_structural_balance(seq, 40), _reference_structural_balance(seq, 40)
    assert got == want
    assert got.to_json() == want.to_json()


def test_structural_balance_past_the_end_of_a_finite_sequence_raises():
    """The whole tail is read before anything is decided, so a horizon past
    the end raises whether or not a sign conflict comes first.  The union-find
    returned "unbalanced" when a conflict came before the missing step."""
    ring = 0.5 * np.eye(4) + 0.5 * np.roll(np.eye(4), 1, axis=1)
    odd = ring.copy()
    odd[0, 1] = -odd[0, 1]
    for mats in ([ring] * 10, [ring] * 9 + [odd]):
        with pytest.raises(ValueError, match="has no term k=10"):
            recover_structural_balance(SignedMatrixSequence.explicit(mats), 12)
    with pytest.raises(ValueError, match="has no term k=10"):
        _reference_structural_balance(SignedMatrixSequence.explicit([ring] * 10), 12)
    seq = SignedMatrixSequence.explicit([ring] * 9 + [odd])
    assert not _reference_structural_balance(seq, 12).balanced


@pytest.mark.parametrize("horizon", [1, 2, 4, 5, 16])
def test_structural_balance_reads_a_whole_period(horizon):
    """Period 4: a_01 < 0 at step 0, a_01 > 0 at step 1, the identity at
    steps 2 and 3, so no gauge fits.  The last quarter of horizon 4 alone
    (step 3) gave the gauge (1, 1, 1)."""
    step0, step1 = np.eye(3), np.eye(3)
    step0[0, :2] = [0.5, -0.5]
    step1[0, :2] = [0.5, 0.5]
    seq = SignedMatrixSequence.explicit([step0, step1, np.eye(3), np.eye(3)], period=4)
    report = recover_structural_balance(seq, horizon)
    assert not report.balanced and report.gauge is None
