"""Trajectory engines: disturbed runs, delay stacking, verdicts, bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raikit import (
    Cut,
    DelaySpec,
    DisturbancePolicy,
    MatrixSequence,
    RowStochasticMatrix,
    SignedMatrixSequence,
    classify,
    exp_product_bound,
    flow_contraction_bound,
    flow_contraction_bound_delayed,
    gossip_sequence,
    modulus_consensus_verdict,
    run_altafini,
    run_degroot,
    run_delayed_rai,
    run_rai,
    sorted_transform,
    xiao_stack,
)

FRENCH = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]])


def _random_seq(rng, n, period=3):
    mats = []
    for _ in range(period):
        raw = rng.random((n, n)) + 0.05
        mats.append(raw / raw.sum(axis=1, keepdims=True))
    return MatrixSequence.explicit(mats, period=period)


def test_policy_validation():
    with pytest.raises(ValueError):
        DisturbancePolicy.vanishing_random(-0.1, 0.5)
    with pytest.raises(ValueError):
        DisturbancePolicy.vanishing_random(0.1, 1.0)
    with pytest.raises(ValueError):
        DisturbancePolicy.adversarial_replay([])
    with pytest.raises(ValueError):
        DisturbancePolicy.adversarial_replay([[0.1, -0.2]])


def test_policy_json_round_trip():
    for p in (
        DisturbancePolicy.zero(),
        DisturbancePolicy.vanishing_random(0.5, 0.9, seed=3),
        DisturbancePolicy.constant_random(0.2, seed=1),
        DisturbancePolicy.adversarial_replay([[0.0, 1.0], [2.0, 0.0]]),
    ):
        assert DisturbancePolicy.from_json_obj(p.to_json_obj()) == p


def test_zero_policy_equals_degroot_bitwise():
    seq = MatrixSequence.constant(FRENCH)
    x0 = np.array([1.0, 0.0, 0.0])
    a = run_rai(seq, x0, DisturbancePolicy.zero(), 150)
    b = run_degroot(seq, x0, 150)
    assert np.array_equal(a.states, b.states)
    assert a.feasibility_margin() == 0.0
    assert b.states[-1] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)


def test_emitters_deterministic_per_seed():
    p = DisturbancePolicy.vanishing_random(0.3, 0.9, seed=11)
    seq = MatrixSequence.constant(FRENCH)
    x0 = np.array([5.0, 1.0, -2.0])
    t1 = run_rai(seq, x0, p, 60)
    t2 = run_rai(seq, x0, p, 60)
    assert np.array_equal(t1.states, t2.states)
    other = run_rai(seq, x0, DisturbancePolicy.vanishing_random(0.3, 0.9, seed=12), 60)
    assert not np.array_equal(t1.states, other.states)


def _oracle_vanishing_draw(scale, decay, seed, n, steps):
    """The block of a vanishing_random draw, its decay factors built by the
    Python comprehension they replaced, kept as the reference."""
    block = np.random.default_rng(seed).random((steps, n))
    block *= np.array([scale * decay**k for k in range(steps)])[:, None]
    return block


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 1e6) | st.sampled_from([0.0, 1e-3, 1.0, 5e-324]),
    st.floats(1e-6, 1.0, exclude_max=True) | st.sampled_from([0.5, 0.9, 0.999, 1 - 2**-53]),
    st.integers(0, 5000),
    st.integers(1, 3),
    st.booleans(),
)
def test_vanishing_draw_matches_the_scalar_decay_factors_bit_for_bit(scale, decay, steps, n, numpy_scalars):
    if numpy_scalars:
        scale, decay = np.float64(scale), np.float64(decay)
    got = DisturbancePolicy.vanishing_random(scale, decay, seed=5).draw(n, steps)
    assert got.tobytes() == _oracle_vanishing_draw(scale, decay, 5, n, steps).tobytes()


def test_ensemble_vanishing_draw_matches_the_scalar_decay_factors_bit_for_bit():
    for scale, decay in [(1e-3, 0.999), (np.float64(1e-3), np.float64(0.999))]:
        got = DisturbancePolicy.vanishing_random(scale, decay, seed=3).draw(8, 20_000)
        assert got.tobytes() == _oracle_vanishing_draw(scale, decay, 3, 8, 20_000).tobytes()


def test_negative_disturbance_rejected_at_construction():
    with pytest.raises(ValueError, match="not a nonnegative real"):
        DisturbancePolicy(
            kind="adversarial_replay", scale=0.0, decay=1.0, replay=((-0.5, 0.0),), seed=0
        )


def test_max_never_increases_under_any_disturbance():
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        seq = _random_seq(rng, n)
        policy = DisturbancePolicy.constant_random(0.5, seed=trial)
        traj = run_rai(seq, rng.random(n) * 4, policy, 120)
        assert traj.max_drift() <= 1e-12
        assert traj.feasibility_margin() >= 0.0


def test_quasi_strong_replay_is_feasible_and_oscillates():
    seq = MatrixSequence.constant(np.array([[1.0, 0.0], [0.5, 0.5]]))
    policy = DisturbancePolicy.adversarial_replay([[0.0, 3.0], [0.0, 0.0]])
    traj = run_rai(seq, np.array([3.0, 1.0]), policy, 200)
    assert traj.feasibility_margin() == 0.0
    assert np.array_equal(traj.states[:, 0], np.full(201, 3.0))
    assert np.array_equal(traj.states[::2, 1], np.full(101, 1.0))
    assert np.array_equal(traj.states[1::2, 1], np.full(100, -1.0))
    verdict = classify(traj)
    kinds = [s.kind for s in verdict.statuses]
    assert kinds == ["converged", "oscillating"]
    assert not verdict.consensus
    assert verdict.residual_vanishes == (True, False)


def test_delay_spec_validation():
    with pytest.raises(ValueError):
        DelaySpec.constant([[1, 0], [0, 0]])  # nonzero diagonal delay
    with pytest.raises(ValueError):
        DelaySpec.constant([[0, 3], [1, 0]], d_star=2)
    spec = DelaySpec.periodic([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    assert spec.d_star == 1
    assert DelaySpec.from_json_obj(spec.to_json_obj()).to_json_obj() == spec.to_json_obj()


def test_delay_spec_period_zero_holds_last_table():
    one = [[0, 1], [0, 0]]
    two = [[0, 0], [1, 0]]
    constant = DelaySpec(d_star=1, tables=(one,))
    assert all(np.array_equal(constant.table(k), one) for k in (0, 1, 7, 1000))
    played = DelaySpec(d_star=1, tables=(one, two))
    assert np.array_equal(played.table(0), one)
    assert all(np.array_equal(played.table(k), two) for k in (1, 2, 50))
    # The period-0 reading comes from the JSON form's default.
    from_json = DelaySpec.from_json_obj({"d_star": 1, "tables": [one, two]})
    assert from_json.period == 0 and np.array_equal(from_json.table(9), two)


def test_delay_spec_storage_must_hold_one_period():
    with pytest.raises(ValueError):
        DelaySpec(d_star=1, tables=([[0, 1], [0, 0]],), period=3)
    with pytest.raises(ValueError):
        DelaySpec(d_star=1, tables=([[0, 1], [0, 0]],), period=-1)


def test_delay_spec_function_validated_once_per_step():
    calls = []

    def fn(k):
        calls.append(k)
        return [[0, k % 2], [0, 0]]

    spec = DelaySpec.from_function(fn, d_star=1)
    assert spec.table(3) is spec.table(3)
    assert calls == [3]
    with pytest.raises(ValueError):
        DelaySpec.from_function(lambda k: [[0, 2], [0, 0]], d_star=1).table(0)


def test_xiao_stack_zero_delay_is_w_itself():
    W = RowStochasticMatrix(n=3, entries=FRENCH)
    Xi = xiao_stack(W, [[0] * 3] * 3, 0)
    assert np.array_equal(Xi.entries, W.entries)


def test_xiao_stack_block_structure():
    W = RowStochasticMatrix(n=2, entries=np.array([[0.5, 0.5], [1.0, 0.0]]))
    Xi = xiao_stack(W, [[0, 1], [0, 0]], 1)
    expected = np.array(
        [
            [0.5, 0.0, 0.0, 0.5],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(Xi.entries, expected)


def test_delayed_run_equals_stacked_degroot():
    rng = np.random.default_rng(14)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        raw = rng.random((n, n)) + 0.05
        W = RowStochasticMatrix(n=n, entries=raw / raw.sum(axis=1, keepdims=True))
        d_star = 2
        delays = rng.integers(0, d_star + 1, (n, n))
        np.fill_diagonal(delays, 0)
        hist = [rng.random(n) for _ in range(d_star + 1)]
        traj = run_delayed_rai(
            MatrixSequence.constant(W.entries),
            DelaySpec.constant(delays, d_star=d_star),
            hist,
            DisturbancePolicy.zero(),
            200,
        )
        Xi = xiao_stack(W, delays, d_star)
        y0 = np.concatenate(hist[::-1])
        stacked = run_degroot(MatrixSequence.constant(Xi.entries), y0, 200)
        assert np.array_equal(traj.states, stacked.states[:, :n])


def test_delayed_history_length_enforced():
    W = MatrixSequence.constant(np.eye(2))
    spec = DelaySpec.constant([[0, 1], [0, 0]], d_star=1)
    with pytest.raises(ValueError):
        run_delayed_rai(W, spec, [np.zeros(2)], DisturbancePolicy.zero(), 5)


def test_delayed_run_does_not_trust_a_reused_matrix_id():
    # A generator that drops the cached matrices frees W(k-1) before W(k)
    # exists, so W(k) may take its id; the run must still stack W(k) itself.
    rng = np.random.default_rng(3)
    raw = rng.random((40, 3, 3)) + 0.05
    mats = raw / raw.sum(axis=2, keepdims=True)

    def gen(k):
        seq.cache.clear()
        return mats[k]

    seq = MatrixSequence.from_generator(gen, n=3)
    spec = DelaySpec.constant([[0, 1, 0], [0, 0, 1], [1, 0, 0]], d_star=1)
    hist = [np.array([1.0, 0.0, 0.5]), np.array([0.0, 1.0, 0.25])]
    got = run_delayed_rai(seq, spec, hist, DisturbancePolicy.zero(), 40)
    want = run_delayed_rai(MatrixSequence.explicit(mats), spec, hist, DisturbancePolicy.zero(), 40)
    assert got.states.tobytes() == want.states.tobytes()


def test_delay_table_errors_and_integral_floats():
    with pytest.raises(ValueError, match="delay table must be square"):
        DelaySpec.constant([[0, 1, 0], [0, 0, 0]], d_star=1)
    spec = DelaySpec.constant([[0.0, 1.0], [2.0, 0.0]], d_star=2)
    assert spec.table(0).dtype == np.int64 and spec.table(0).tolist() == [[0, 1], [2, 0]]
    with pytest.raises(ValueError, match="delays must be integers"):
        DelaySpec.constant([[0.0, 0.5], [1.0, 0.0]], d_star=1)
    W = RowStochasticMatrix(n=3, entries=FRENCH)
    with pytest.raises(ValueError, match="delay table does not match the matrix size"):
        xiao_stack(W, [[0, 1], [0, 0]], 1)
    with pytest.raises(ValueError, match="delay table does not match the matrix size"):
        run_delayed_rai(
            MatrixSequence.constant(FRENCH),
            DelaySpec.constant([[0, 1], [0, 0]], d_star=1),
            [np.zeros(3), np.zeros(3)],
            DisturbancePolicy.zero(),
            3,
        )
    with pytest.raises(ValueError, match="generator-backed delay specs have no JSON form"):
        DelaySpec.from_function(lambda k: [[0, 1], [0, 0]], d_star=1).to_json_obj()


def test_delayed_window_max_monotone():
    seq = MatrixSequence.constant(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    spec = DelaySpec.constant([[0, 1, 0], [1, 0, 0], [0, 0, 0]], d_star=1)
    hist = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    traj = run_delayed_rai(seq, spec, hist, DisturbancePolicy.zero(), 100)
    assert traj.window_max is not None
    assert np.all(np.diff(traj.window_max) <= 1e-12)
    # the period-4 construction has residual exactly zero everywhere
    assert np.array_equal(traj.residuals, np.zeros_like(traj.residuals))
    assert [s.kind for s in classify(traj).statuses] == ["oscillating"] * 3


def test_classify_divergence_flags():
    seq = MatrixSequence.constant(np.eye(2))
    policy = DisturbancePolicy.adversarial_replay([[5000.0, 5000.0]])
    traj = run_rai(seq, np.zeros(2), policy, 300)
    v = classify(traj)
    assert [s.kind for s in v.statuses] == ["diverging_to_minus_infinity"] * 2
    assert v.common_divergence
    assert not v.consensus


def test_classify_needs_enough_steps():
    seq = MatrixSequence.constant(np.eye(2))
    traj = run_rai(seq, np.zeros(2), DisturbancePolicy.zero(), 10)
    with pytest.raises(ValueError):
        classify(traj)


def test_classify_spread_past_the_float_range_is_no_consensus():
    # Both agents stay put, so both converge, but their spread overflows:
    # d saturates to inf and classify must say no consensus without a
    # RuntimeWarning (the suite turns one into an error).
    seq = SignedMatrixSequence.constant(np.eye(2))
    traj = run_altafini(seq, [1.7e308, -1.7e308], 60)
    assert np.isfinite(traj.states).all() and traj.d[-1] == np.inf
    v = classify(traj)
    assert [s.kind for s in v.statuses] == ["converged"] * 2
    assert not v.consensus and v.consensus_value is None


def test_consensus_value_is_weighted_mean_of_limits():
    seq = MatrixSequence.constant(FRENCH)
    traj = run_degroot(seq, np.array([2.0, -1.0, 0.5]), 300)
    v = classify(traj)
    assert v.consensus
    assert v.consensus_value == pytest.approx(2.0, abs=1e-7)


def test_flow_contraction_bound_value_and_guard():
    seq = gossip_sequence(2, [(0, 1)], 0.5, [0], eta=0.3, period=4)
    cut = Cut.of([1], 2)
    theta = flow_contraction_bound(seq, cut, 0, 0, 3, 0.3)
    assert theta == pytest.approx(np.exp(-0.3 * 0.5))
    with pytest.raises(ValueError):
        flow_contraction_bound(seq, cut, 0, 0, 3, 0.6)  # diagonal floor fails


def test_flow_contraction_bound_delayed_value():
    seq = gossip_sequence(2, [(0, 1)], 0.5, [0], eta=0.3, period=4)
    cut = Cut.of([1], 2)
    theta, vacuous = flow_contraction_bound_delayed(seq, cut, 0, 0, 3, 0.3, 2)
    assert theta == pytest.approx(0.3**2 * np.exp(-(0.3**3) * 0.5))
    assert not vacuous


def test_sorted_transform_swap_has_constant_sorted_states():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    seq = MatrixSequence.constant(swap)
    traj = run_degroot(seq, np.array([0.0, 1.0]), 6)
    ys, perms = sorted_transform(traj, seq)
    assert np.array_equal(ys, np.tile([0.0, 1.0], (7, 1)))
    for V in perms:
        assert np.all(V.sum(axis=1) == 1.0)


def test_sorted_transform_inequality_on_disturbed_runs():
    rng = np.random.default_rng(3)
    seq = _random_seq(rng, 4)
    policy = DisturbancePolicy.vanishing_random(0.4, 0.8, seed=5)
    traj = run_rai(seq, rng.random(4), policy, 80)
    ys, _ = sorted_transform(traj, seq)  # raises if the inequality breaks
    assert np.all(np.diff(ys, axis=1) >= 0)


def test_exp_product_bound_direction():
    product, bound = exp_product_bound([0.5], 0.5)
    assert product == pytest.approx(0.5)
    assert bound == pytest.approx(np.exp(-1.0))
    assert bound <= product
    rng = np.random.default_rng(2)
    for _ in range(50):
        eta = 0.1 + 0.4 * rng.random()
        a = rng.random(6) * (1 - eta)
        p, b = exp_product_bound(a, eta)
        assert b <= p + 1e-12
    with pytest.raises(ValueError):
        exp_product_bound([0.8], 0.5)


def test_trajectory_serialization():
    seq = MatrixSequence.constant(FRENCH)
    traj = run_degroot(seq, np.array([1.0, 0.0, 0.0]), 3)
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "k,x_0,x_1,x_2,delta_0,delta_1,delta_2,M,m,d"
    assert len(lines) == 5
    obj = traj.to_json_obj()
    assert np.array_equal(np.asarray(obj["states"]), traj.states)


def test_non_finite_state_raises():
    seq = MatrixSequence.constant([[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
    policy = DisturbancePolicy.constant_random(1e306, seed=0)
    assert np.isfinite(run_rai(seq, [1.0, 2.0, 3.0], policy, 350).states).all()
    with pytest.raises(ValueError, match=r"^state became non-finite at step 351$"):
        run_rai(seq, [1.0, 2.0, 3.0], policy, 400)


def _halving_run(steps):
    seq = MatrixSequence.constant([[0.5, 0.5], [0.5, 0.5]])
    return run_rai(seq, [1.0, 0.0], DisturbancePolicy.zero(), steps)


def test_a_run_no_longer_than_its_tail_is_not_classified():
    # At 50 steps the tail of 50 moves would include the move away from x(0).
    traj = _halving_run(50)
    message = "^trajectory too short to classify: 50 steps, need more than 50$"
    with pytest.raises(ValueError, match=message):
        classify(traj)
    with pytest.raises(ValueError, match=message):
        modulus_consensus_verdict(traj)


def test_a_run_one_step_past_its_tail_is_classified():
    traj = _halving_run(51)
    verdict = classify(traj)
    assert [s.kind for s in verdict.statuses] == ["converged", "converged"]
    assert verdict.consensus and verdict.consensus_value == 0.5
    assert modulus_consensus_verdict(traj).modulus_consensus
