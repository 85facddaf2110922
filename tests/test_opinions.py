"""Bounded-confidence and signed opinion models."""

import numpy as np
import pytest

from raikit import (
    HkConfig,
    MatrixSequence,
    SignedMatrixSequence,
    hk_weights,
    modulus_consensus_verdict,
    recover_structural_balance,
    run_altafini,
    run_degroot,
    run_hk,
)


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
    assert calls == [1]
