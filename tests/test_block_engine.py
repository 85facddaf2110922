"""The one engine loop, the one-pass matrix validation and the block CSV
writer, against the per-step, per-row and step-by-step code they replaced
(kept here as reference oracles).  Every comparison is bitwise.  A rejected
matrix must give the same exception type and message; a rejected engine
input the same exception type."""

import itertools
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from raikit import (
    DelaySpec,
    DisturbancePolicy,
    HkConfig,
    MatrixSequence,
    RowStochasticMatrix,
    SignedMatrixSequence,
    SubstochasticMatrix,
    Trajectory,
    gossip_sequence,
    hk_weights,
    run_altafini,
    run_degroot,
    run_delayed_rai,
    run_hk,
    run_rai,
)
from raikit.engine import (
    _CSV_BLOCK_ROWS,
    _EXTREMES_BLOCK,
    _decay_powers,
    _extremes,
    _iterate,
    _silent_stretches,
    _stack,
)
from raikit.opinions import _cluster
from raikit.tolerances import ENTRY_FLUSH, FEAS_TOL, ROW_SUM_TOL


# ---------------------------------------------------------------------------
# Reference oracles: one emitter call, one disturbance check and one list
# append per step; one Python pass per matrix row.


def _reference_emitter(policy, n):
    if policy.kind == "zero":
        z = np.zeros(n)
        return lambda k: z
    if policy.kind == "vanishing_random":
        rng = np.random.default_rng(policy.seed)
        scale, decay = policy.scale, policy.decay
        return lambda k: scale * decay**k * rng.random(n)
    if policy.kind == "constant_random":
        rng = np.random.default_rng(policy.seed)
        scale = policy.scale
        return lambda k: scale * rng.random(n)
    table = [np.array(row, dtype=float) for row in policy.replay]
    for row in table:
        if row.shape != (n,):
            raise ValueError("replay rows do not match the state dimension")
    return lambda k: table[k % len(table)]


def _reference_finish(states, residuals, window_max=None):
    S = np.array(states, dtype=float)
    R = np.array(residuals, dtype=float) if residuals else np.zeros((0, S.shape[1]))
    W = None if window_max is None else np.array(window_max, dtype=float)
    return S, R, W


def _reference_run_rai(seq, x0, policy, steps):
    x = np.asarray(x0, dtype=float).copy()
    emit = _reference_emitter(policy, seq.n)
    states = [x]
    residuals = []
    for k in range(steps):
        wx = seq.matrix(k).entries @ x
        delta = emit(k)
        if np.any(delta < 0):
            raise ValueError(f"disturbance at step {k} has a negative entry")
        x = wx - delta
        states.append(x)
        residuals.append(delta)
    return _reference_finish(states, residuals)


def _reference_run_delayed_rai(seq, delays, history, policy, steps):
    n = seq.n
    ds = delays.d_star
    hist = [np.asarray(h, dtype=float) for h in history]
    y = np.concatenate(hist[::-1])
    emit = _reference_emitter(policy, n)
    states = [y[:n].copy()]
    residuals = []
    window_max = [float(y.max())]
    for k in range(steps):
        Xi = _stack(seq.matrix(k), delays.table(k), ds)
        y_next = Xi.entries @ y
        delta = emit(k)
        if np.any(delta < 0):
            raise ValueError(f"disturbance at step {k} has a negative entry")
        y_next[:n] = y_next[:n] - delta
        wm = float(y_next.max())
        prev = window_max[-1]
        if wm > prev + FEAS_TOL * max(1.0, abs(prev)):
            raise RuntimeError(f"delay-window max increased at step {k}: {prev!r} -> {wm!r}")
        y = y_next
        states.append(y[:n].copy())
        residuals.append(delta)
        window_max.append(wm)
    return _reference_finish(states, residuals, window_max)


def _reference_run_hk(x0, cfg, max_steps):
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError("x0 must be a vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    n = x.shape[0]
    a = cfg.awareness_vector(n)
    keep = 1.0 - a
    pull = cfg.truth * a
    states = [x]
    residuals = []
    terminated_at = None
    for k in range(max_steps):
        W = hk_weights(x, cfg.epsilon).entries
        wx = W @ x
        x_next = keep * wx + pull
        xi = np.abs(x - cfg.truth)
        xi_next = np.abs(x_next - cfg.truth)
        residuals.append(W @ xi - xi_next)
        states.append(x_next)
        if np.array_equal(x_next, x):
            terminated_at = k
            break
        x = x_next
    ref = _reference_finish(states, residuals)
    return ref, _cluster(np.asarray(states[-1]), cfg.truth, ref[0], terminated_at)


def _reference_run_altafini(seq, x0, steps):
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (seq.n,):
        raise ValueError(f"x0 must have shape ({seq.n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    states = [x]
    residuals = []
    for k in range(steps):
        A = seq.matrix(k)
        x_next = A @ x
        delta = np.abs(A) @ np.abs(x) - np.abs(x_next)
        if np.any(delta < -FEAS_TOL * np.maximum(1.0, np.abs(x).max())):
            raise RuntimeError(f"magnitude inequality violated at step {k}")
        states.append(x_next)
        residuals.append(delta)
        x = x_next
    return _reference_finish(states, residuals)


def _reference_force_exact_row_sums(entries, rotated=None):
    """Per-row divide and nudge; appends to ``rotated`` each row whose nudge
    moved past its largest entry."""
    out = entries.copy()
    for i in range(out.shape[0]):
        s = float(out[i].sum())
        if s != 1.0:
            out[i] = out[i] / s
        order = np.argsort(out[i])[::-1]
        done = False
        for rank, j in enumerate(order):
            for _ in range(8):
                s = float(out[i].sum())
                if s == 1.0:
                    done = True
                    break
                out[i][int(j)] += 1.0 - s
            if done:
                if rank > 0 and rotated is not None:
                    rotated.append(i)
                break
        if not done and float(out[i].sum()) != 1.0:
            raise RuntimeError(f"row {i} cannot be compensated to an exact unit sum")
    return out


def _reference_checked(n, entries):
    """The checks of a matrix in the order they are diagnosed: shape, n,
    finite, then (after the flush) nonnegative."""
    e = np.asarray(entries, dtype=float)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ValueError(f"matrix must be square, got shape {e.shape}")
    if e.shape[0] != n:
        raise ValueError("n does not match matrix shape")
    if not np.isfinite(e).all():
        raise ValueError("entries must be finite")
    out = e.copy()
    out[np.abs(out) < ENTRY_FLUSH] = 0.0
    if (out < 0).any():
        raise ValueError("entries must be nonnegative")
    return out


@np.errstate(over="ignore")  # a finite row may sum to inf
def _reference_row_stochastic(entries, n=None):
    e = _reference_checked(len(entries) if n is None else n, entries)
    sums = e.sum(axis=1)
    off = np.abs(sums - 1.0)
    if (off > ROW_SUM_TOL).any():
        bad = int(np.argmax(off))
        raise ValueError(f"row {bad} sums to {float(sums[bad])!r}, outside 1 +/- {ROW_SUM_TOL}")
    return _reference_force_exact_row_sums(e)


@np.errstate(over="ignore")  # a finite row may sum to inf
def _reference_substochastic(entries, n=None):
    e = _reference_checked(len(entries) if n is None else n, entries)
    sums = e.sum(axis=1)
    if (sums > 1.0 + ROW_SUM_TOL).any():
        bad = int(np.argmax(sums))
        raise ValueError(f"row {bad} sums to {float(sums[bad])!r}, above 1 + {ROW_SUM_TOL}")
    for i in range(e.shape[0]):
        s = float(e[i].sum())
        if 1.0 < s:
            e[i] = e[i] / s
    deficient = frozenset(int(i) for i in range(e.shape[0]) if float(e[i].sum()) < 1.0 - ROW_SUM_TOL)
    return e, deficient


# ---------------------------------------------------------------------------
# Generated inputs.


def _random_rows(rng, n, kind):
    """n x n nonnegative rows of one of four shapes, each row nonzero."""
    if kind == "hk":  # hk_weights-style: 1/|N| on a neighbor set with the diagonal
        raw = (rng.random((n, n)) < rng.random()).astype(float)
        np.fill_diagonal(raw, 1.0)
        return raw
    raw = rng.random((n, n))
    if kind == "sparse":
        raw *= rng.random((n, n)) < 0.4
    elif kind == "skewed":
        raw **= 8
    empty = ~raw.any(axis=1)
    raw[empty, rng.integers(0, n, int(empty.sum()))] = 1.0
    return raw


def _stochastic(rng, n, kind):
    raw = _random_rows(rng, n, kind)
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def _sequences(draw, max_n=8, max_steps=300):
    n = draw(st.integers(1, max_n))
    steps = draw(st.integers(0, max_steps))
    storage = draw(st.sampled_from(["periodic", "finite", "generator"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "sparse", "skewed", "hk"]))
    period = draw(st.integers(1, 5))
    count = max(steps, 1) if storage == "finite" else period
    mats = [_stochastic(rng, n, kind) for _ in range(count)]
    if storage == "periodic":
        seq = MatrixSequence.explicit(mats, period=period)
    elif storage == "finite":
        seq = MatrixSequence.explicit(mats)
    else:
        seq = MatrixSequence.from_generator(lambda k: mats[k % period], n)
    return seq, steps, rng


@st.composite
def _policies(draw, n):
    kind = draw(st.sampled_from(["zero", "vanishing_random", "constant_random", "adversarial_replay"]))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.floats(0.0, 10.0))
    if kind == "zero":
        return DisturbancePolicy.zero()
    if kind == "vanishing_random":
        decay = draw(st.floats(0.01, 0.999))
        return DisturbancePolicy.vanishing_random(scale, decay, seed=seed)
    if kind == "constant_random":
        return DisturbancePolicy.constant_random(scale, seed=seed)
    rows = draw(st.integers(1, 5))
    entries = st.floats(0.0, 5.0)
    table = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=rows, max_size=rows))
    return DisturbancePolicy.adversarial_replay(table)


def _assert_same(traj, ref):
    S, R, W = ref
    assert traj.states.shape == S.shape and traj.states.tobytes() == S.tobytes()
    assert traj.residuals.shape == R.shape and traj.residuals.tobytes() == R.tobytes()
    if W is None:
        assert traj.window_max is None
    else:
        assert traj.window_max.shape == W.shape and traj.window_max.tobytes() == W.tobytes()


# ---------------------------------------------------------------------------
# Engine against the per-step loops.


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_run_rai_matches_per_step_loop(data):
    seq, steps, rng = data.draw(_sequences())
    policy = data.draw(_policies(seq.n))
    x0 = rng.uniform(-5.0, 5.0, seq.n)
    _assert_same(run_rai(seq, x0, policy, steps), _reference_run_rai(seq, x0, policy, steps))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_run_delayed_rai_matches_per_step_loop(data):
    seq, steps, rng = data.draw(_sequences(max_n=5, max_steps=150))
    n = seq.n
    d_star = data.draw(st.integers(0, 2))
    policy = data.draw(_policies(n))
    tables = []
    for _ in range(data.draw(st.integers(1, 3))):
        t = rng.integers(0, d_star + 1, (n, n))
        np.fill_diagonal(t, 0)
        tables.append(t)
    how = data.draw(st.sampled_from(["constant", "periodic", "function"]))
    if how == "constant":
        delays = DelaySpec.constant(tables[0], d_star=d_star)
    elif how == "periodic":
        delays = DelaySpec.periodic(tables, d_star=d_star)
    else:
        delays = DelaySpec.from_function(lambda k: tables[k % len(tables)], d_star)
    history = [rng.uniform(-5.0, 5.0, n) for _ in range(d_star + 1)]
    traj = run_delayed_rai(seq, delays, history, policy, steps)
    _assert_same(traj, _reference_run_delayed_rai(seq, delays, history, policy, steps))


def test_delayed_reference_stacks_every_step():
    # Every step's weights come in one reused object, so W(k) always has
    # the id of W(k-1): the reference must still stack W(k) itself.
    rng = np.random.default_rng(3)
    raw = rng.random((40, 3, 3)) + 0.05
    explicit = MatrixSequence.explicit(raw / raw.sum(axis=2, keepdims=True))
    W = SimpleNamespace(n=3, entries=None)

    def matrix(k):
        W.entries = explicit.matrix(k).entries
        return W

    spec = DelaySpec.constant([[0, 1, 0], [0, 0, 1], [1, 0, 0]], d_star=1)
    hist = [np.array([1.0, 0.0, 0.5]), np.array([0.0, 1.0, 0.25])]
    seq = SimpleNamespace(n=3, matrix=matrix)
    ref = _reference_run_delayed_rai(seq, spec, hist, DisturbancePolicy.zero(), 40)
    want = run_delayed_rai(explicit, spec, hist, DisturbancePolicy.zero(), 40)
    _assert_same(want, ref)


# ---------------------------------------------------------------------------
# Silent stretches: run_rai advances each stretch of identity steps without
# a product, and must keep the bits of the per-step loop.


def _near_identity(rng, n):
    """The identity with one off-diagonal weight just above ENTRY_FLUSH,
    which validation keeps: a product step, not a silent one."""
    W = np.eye(n)
    i, j = rng.choice(n, 2, replace=False)
    W[i, j] = 1.5 * ENTRY_FLUSH
    W[i, i] -= W[i, j]
    return W


@st.composite
def _silent_sequences(draw, max_n=6, max_steps=300):
    """Mostly identity steps, with x0 holding signed zeros.  A periodic
    sequence often starts and ends its period silent, so that a stretch
    wraps; gossip is generator-backed with period 0."""
    n = draw(st.integers(1, max_n))
    steps = draw(st.integers(0, max_steps))
    storage = draw(st.sampled_from(["periodic", "finite", "generator", "gossip"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    silence = draw(st.floats(0.5, 0.98))
    x0 = rng.uniform(-5.0, 5.0, n)
    zeros = rng.random(n) < 0.3
    x0[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    if storage == "gossip" and n > 1:
        fires = np.flatnonzero(rng.random(steps + 2) > silence).tolist()
        heads = rng.integers(0, n, len(fires))
        arcs = [(int((i + rng.integers(1, n)) % n), int(i)) for i in heads]
        return gossip_sequence(n, arcs, rng.uniform(0.05, 0.95, len(fires)), fires), steps, x0
    kind = draw(st.sampled_from(["dense", "sparse", "skewed", "hk"]))
    period = draw(st.integers(1, 8))
    count = max(steps, 1) if storage == "finite" else period

    def loud():
        return _near_identity(rng, n) if n > 1 and rng.random() < 0.3 else _stochastic(rng, n, kind)

    mats = [np.eye(n) if rng.random() < silence else loud() for _ in range(count)]
    if storage == "finite":
        seq = MatrixSequence.explicit(mats)
    elif storage == "generator":
        seq = MatrixSequence.from_generator(lambda k: mats[k % period], n)
    else:
        seq = MatrixSequence.explicit(mats, period=period)
    return seq, steps, x0


@st.composite
def _signed_zero_replays(draw, n):
    """Replay tables of +0.0, -0.0 and positive entries, some rows all zero."""
    entry = st.sampled_from([0.0, -0.0, 5e-324, 0.5, 3.0])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))
    rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from([0.0, -0.0]))] * n)
    return DisturbancePolicy.adversarial_replay(rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_run_rai_over_silent_stretches_matches_per_step_loop(data):
    seq, steps, x0 = data.draw(_silent_sequences())
    policy = data.draw(st.one_of(_policies(seq.n), _signed_zero_replays(seq.n)))
    _assert_same(run_rai(seq, x0, policy, steps), _reference_run_rai(seq, x0, policy, steps))


_RING_FIRES = [0, 1, 11, 111, 112, 122, 222, 223, 233, 333, 334, 344]


@settings(max_examples=300, deadline=None)
@given(silent=st.lists(st.booleans(), min_size=1, max_size=10), extra=st.integers(0, 50))
# The directed-ring gossip of period 444 over 20 000 steps, whose loud
# steps are its fire times; an aperiodic mask (p = steps); and runs of
# 0 and 1 steps.
@example(silent=[k not in _RING_FIRES for k in range(444)], extra=20_000 - 444)
@example(silent=(np.random.default_rng(5).random(20_000) < 0.9).tolist(), extra=0)
@example(silent=[], extra=0)
@example(silent=[True], extra=0)
@example(silent=[False], extra=0)
def test_silent_stretches_are_the_maximal_runs_of_silent_steps(silent, extra):
    steps = len(silent) + extra
    want, k = [], 0
    while k < steps:
        if silent[k % len(silent)]:
            start = k
            while k < steps and silent[k % len(silent)]:
                k += 1
            want.append((start, k - start))
        k += 1
    assert list(_silent_stretches(silent, steps)) == want


@pytest.mark.parametrize("kind", ["zero", "replay", "vanishing"])
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 9])
@pytest.mark.parametrize("n", [1, 3])
def test_constant_identity_run_is_one_stretch_with_the_loop_bits(n, steps, kind):
    replay = [[-0.0, 0.0, -0.0], [0.0, 0.0, 0.0], [0.5, -0.0, 5e-324]]
    policy = {
        "zero": DisturbancePolicy.zero(),
        "replay": DisturbancePolicy.adversarial_replay([row[:n] for row in replay]),
        "vanishing": DisturbancePolicy.vanishing_random(1.0, 0.5, seed=5),
    }[kind]
    seq = MatrixSequence.constant(np.eye(n))
    x0 = [-0.0, 0.0, 2.5][:n]
    _assert_same(run_rai(seq, x0, policy, steps), _reference_run_rai(seq, x0, policy, steps))


@pytest.mark.parametrize("steps", range(13))  # ends inside, after and across stretches
def test_stretch_across_the_period_boundary_has_the_loop_bits(steps):
    # phases 2, 3 and 0 are silent: from step 2 on, each stretch wraps
    A = [[0.25, 0.75], [0.5, 0.5]]
    seq = MatrixSequence.explicit([np.eye(2), A, np.eye(2), np.eye(2)], period=4)
    policy = DisturbancePolicy.adversarial_replay([[0.0, -0.0], [1.0, 0.0], [-0.0, 0.0]])
    x0 = [-0.0, 1.5]
    _assert_same(run_rai(seq, x0, policy, steps), _reference_run_rai(seq, x0, policy, steps))


def test_near_identity_step_takes_the_product():
    seq = MatrixSequence.constant(_near_identity(np.random.default_rng(0), 3))
    assert not np.array_equal(seq.matrix(0).entries, np.eye(3))
    x0 = [1.0, -3.0, 7.0]
    policy = DisturbancePolicy.adversarial_replay([[0.0, 0.5, 0.0]])
    traj = run_rai(seq, x0, policy, 5)
    _assert_same(traj, _reference_run_rai(seq, x0, policy, 5))
    silent = np.subtract.accumulate([x0, *[[0.0, 0.5, 0.0]] * 5])
    assert traj.states.tobytes() != silent.tobytes()


@pytest.mark.parametrize(
    "seq, x0, replay, step",
    [
        # the whole run is one stretch
        (MatrixSequence.constant(np.eye(2)), [-1e308, 1.0], [[4e307, 0.0]], 2),
        # state 10 inside the stretch of steps 4 .. 14
        (gossip_sequence(3, [(1, 2), (2, 1)], 0.5, [3, 15], period=20),
         [-1.7e308, 0.0, 1.0], [[1e306, 0.0, 0.0]], 10),
        # state 10 from the product step 9, a stretch after it
        (gossip_sequence(3, [(1, 2)], 0.5, [9], period=20),
         [-1.7e308, 0.0, 1.0], [[1e306, 0.0, 0.0]], 10),
    ],
    ids=["constant", "inside", "before"],
)
def test_overflow_in_or_before_a_stretch_names_the_loop_step(seq, x0, replay, step):
    policy = DisturbancePolicy.adversarial_replay(replay)
    with np.errstate(over="ignore", invalid="ignore"):
        S, _, _ = _reference_run_rai(seq, x0, policy, 30)
    assert int(np.argmin(np.isfinite(S).all(axis=1))) == step
    with pytest.raises(ValueError, match=f"^state became non-finite at step {step}$"):
        run_rai(seq, x0, policy, 30)


def test_zero_policy_gossip_from_signed_zeros_has_the_loop_bits():
    seq = gossip_sequence(2, [(0, 1), (1, 0)], 0.5, [3, 4])
    policy = DisturbancePolicy.zero()
    _assert_same(run_rai(seq, [-0.0, -0.0], policy, 12), _reference_run_rai(seq, [-0.0, -0.0], policy, 12))


def test_loop_calls_step_only_outside_the_silent_stretches():
    calls = []

    def step(k, x, r, out):
        calls.append(k)
        np.subtract(x + 0.0, r, out=out)

    residuals = np.arange(20.0).reshape(10, 2) / 4
    traj, stop = _iterate(np.array([-0.0, 1.0]), 10, residuals, step, silent=[(0, 3), (5, 4)])
    assert calls == [3, 4, 9] and stop is None
    want = [np.array([-0.0, 1.0])]
    for r in residuals:
        want.append((want[-1] + 0.0) - r)
    assert traj.states.tobytes() == np.array(want).tobytes()


def _stretches_of(mask):
    """The maximal runs of True in ``mask``, as (k, span) in order."""
    stretches, k = [], 0
    for silent, group in itertools.groupby(mask):
        span = len(list(group))
        if silent:
            stretches.append((k, span))
        k += span
    return stretches


_SIGNED_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, 0.25, 1.0, 3.0, -1.5])


@st.composite
def _loop_layouts(draw):
    """A silent mask over the steps, x0 and one residual row per step, with
    entries of both signed zeros."""
    n = draw(st.integers(1, 4))
    mask = draw(st.lists(st.booleans(), max_size=40))
    row = st.lists(_SIGNED_ENTRIES, min_size=n, max_size=n)
    return mask, draw(row), draw(st.lists(row, min_size=len(mask), max_size=len(mask)))


_ZEROS = [-0.0, 0.0, -1.5]
_ROWS = [[-0.0, 0.0, 0.25], [0.0, -0.0, -0.0], [0.0, 0.0, 0.0]]


@settings(max_examples=300, deadline=None)
@given(layout=_loop_layouts(), as_generator=st.booleans())
# a stretch at k = 0, a loud step, and a stretch that ends at ``steps``
@example(layout=([True, True, False, True, True], _ZEROS, _ROWS + _ROWS[:2]), as_generator=False)
# stretches of span 1 between single loud steps
@example(layout=([True, False, True, False, True], _ZEROS, _ROWS[::-1] + _ROWS[:2]), as_generator=True)
# loud at both ends
@example(layout=([False, True, False, False, True, False], _ZEROS, _ROWS * 2), as_generator=False)
# all silent
@example(layout=([True] * 4, _ZEROS, _ROWS + _ROWS[:1]), as_generator=True)
def test_segment_walk_matches_a_per_step_loop(layout, as_generator):
    mask, x0, rows = layout
    steps, n = len(mask), len(x0)
    residuals = np.array(rows, dtype=float).reshape(steps, n)
    kept = residuals.copy()
    calls = []

    def step(k, x, r, out):
        calls.append(k)
        np.subtract(x[::-1] * 0.5, r, out=out)

    want = [np.array(x0, dtype=float)]
    for is_silent, r in zip(mask, kept):
        x = want[-1]
        want.append((x + 0.0) - r if is_silent else np.subtract(x[::-1] * 0.5, r))
    stretches = _stretches_of(mask)
    silent = (s for s in stretches) if as_generator else stretches
    traj, stop = _iterate(np.array(x0, dtype=float), steps, residuals, step, silent=silent)
    assert stop is None and calls == [k for k, s in enumerate(mask) if not s]
    assert traj.states.tobytes() == np.array(want).tobytes()
    assert residuals.tobytes() == kept.tobytes() and traj.residuals.tobytes() == kept.tobytes()


@pytest.mark.parametrize("as_iterator", [False, True])
def test_silent_stretches_need_every_residual_row(as_iterator):
    calls = []

    def step(k, x, r, out):
        calls.append(k)
        out[:] = x

    silent = iter([(5, 3)]) if as_iterator else [(5, 3)]
    with pytest.raises(ValueError, match="^a run with silent steps needs all 10 residual rows, got 4$"):
        _iterate(np.zeros(2), 10, np.ones((4, 2)), step, silent=silent)
    assert calls == []


@pytest.mark.parametrize("silent", [(), [(1, 1)]])
def test_a_residual_block_longer_than_the_run_raises(silent):
    # Sized by the block, the run would return 5 steps, the last two of
    # them never written.
    calls = []

    def step(k, x, r, out):
        calls.append(k)
        out[:] = x

    with pytest.raises(ValueError, match="^a run of 3 steps takes at most 3 residual rows, got 5$"):
        _iterate(np.zeros(2), 3, np.zeros((5, 2)), step, silent=silent)
    assert calls == []


def test_long_silent_run_is_advanced_in_place():
    # The run's own arrays take 16.79 MiB and it peaks at 16.98 MiB.  A copy
    # of the stretch, 6.1 MiB made while the states and residuals are
    # held, would peak at 18.31 MiB.
    seq = MatrixSequence.constant(np.eye(4))
    tracemalloc.start()
    try:
        traj = run_rai(seq, [1.0, -0.0, 0.5, 2.0], DisturbancePolicy.zero(), 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in (traj.states, traj.residuals, traj.M, traj.m, traj.d))
    assert traj.steps == 200_000 and own > 16 * 2**20
    assert peak < min(own + 2**20, 20 * 2**20), f"the run peaked at {peak / 2**20:.2f} MiB"


def test_long_vanishing_run_keeps_one_decay_table():
    # The silent run above with drawn disturbances: its own arrays, the one
    # kept table of decay factors, and no more than 1 MiB besides.
    seq = MatrixSequence.constant(np.eye(4))
    policy = DisturbancePolicy.vanishing_random(1e-3, 0.999, seed=1)
    _decay_powers.cache_clear()
    tracemalloc.start()
    try:
        traj = run_rai(seq, [1.0, -0.0, 0.5, 2.0], policy, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in (traj.states, traj.residuals, traj.M, traj.m, traj.d))
    table = _decay_powers(0.999, 200_000).nbytes
    assert traj.steps == 200_000 and own > 16 * 2**20 and table == 200_000 * 8
    assert peak < own + table + 2**20, f"the run peaked at {peak / 2**20:.2f} MiB"


def _assert_row_extremes(states):
    M, m = _extremes(states)
    assert M.tobytes() == states.max(axis=1).tobytes()
    assert m.tobytes() == states.min(axis=1).tobytes()


@pytest.mark.parametrize("n", range(1, 71))
def test_extremes_are_the_row_reduce_bits(n):
    """Lengths on either side of the block boundaries, rows of both signed
    zeros (a tie either reduction may break its own way), and rows holding
    infinities and NaN."""
    rng = np.random.default_rng(n)
    span = max(1, _EXTREMES_BLOCK // n)
    for rows in sorted({1, 2, span - 1, span, span + 1, 2 * span + 1}):
        states = rng.standard_normal((rows, n))
        states[rng.random((rows, n)) < 0.3] = 0.0
        states[rng.random((rows, n)) < 0.3] = -0.0
        _assert_row_extremes(states)
        _assert_row_extremes(-states)
        states[rng.random((rows, n)) < 0.05] = rng.choice([np.inf, -np.inf, np.nan])
        _assert_row_extremes(states)


@pytest.mark.parametrize("n", [4, 8, 64])
def test_extremes_of_rows_of_both_signed_zeros(n):
    rng = np.random.default_rng(n)
    zeros = np.where(rng.random((3 * _EXTREMES_BLOCK // n, n)) < 0.5, 0.0, -0.0)
    zeros[::3, 0] = 0.0
    zeros[::3, -1] = -0.0
    _assert_row_extremes(zeros)
    below = zeros - (rng.random(zeros.shape) < 0.2)  # a zero max over negative entries
    _assert_row_extremes(below)
    _assert_row_extremes(-below)


def test_a_run_from_mixed_signed_zeros_keeps_the_row_reduce_bits():
    x0 = np.array([0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0])

    def step(k, x, r, out):  # swaps neighbours, so every state keeps both zeros
        out[:] = x.reshape(-1, 2)[:, ::-1].ravel()

    traj, stop = _iterate(x0, 50, np.zeros((50, 8)), step)
    signs = np.signbit(traj.states)
    assert stop is None and not traj.states.any() and signs.any(axis=1).all() and not signs.all(axis=1).any()
    assert traj.M.tobytes() == traj.states.max(axis=1).tobytes()
    assert traj.m.tobytes() == traj.states.min(axis=1).tobytes()


@st.composite
def _hk_inputs(draw):
    """x0 spread wide or narrow (rounded for exact ties), epsilon, truth and
    no awareness or a mix of 0, 1 and values between."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([1.0, 5.0, 20.0]))
    if draw(st.booleans()):
        x0 = np.round(x0)
    awareness = ()
    if draw(st.booleans()):
        a = np.where(rng.random(n) < 0.2, 1.0, rng.random(n)) * (rng.random(n) < 0.6)
        awareness = tuple(a.tolist())
    cfg = HkConfig(
        epsilon=draw(st.floats(0.05, 5.0)), truth=draw(st.floats(-5.0, 5.0)), awareness=awareness
    )
    return x0, cfg, draw(st.integers(0, 300))


@settings(max_examples=150, deadline=None)
@given(inp=_hk_inputs())
def test_run_hk_matches_list_loop(inp):
    x0, cfg, max_steps = inp
    traj, report = run_hk(x0, cfg, max_steps)
    ref, ref_report = _reference_run_hk(x0, cfg, max_steps)
    _assert_same(traj, ref)
    assert report == ref_report and report.to_json() == ref_report.to_json()


# ---------------------------------------------------------------------------
# run_hk rebuilds W only when the strict neighbour pattern changes.  The
# oracle above builds it every step; the bits must agree, and the number of
# matrices built must be one for the first step plus one per change.


def _counted_run_hk(x0, cfg, max_steps):
    """``run_hk`` with every ``RowStochasticMatrix`` built during it counted."""
    built = []
    init = RowStochasticMatrix.__post_init__

    def counting(self):
        built.append(self.n)
        init(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RowStochasticMatrix, "__post_init__", counting)
        traj, report = run_hk(x0, cfg, max_steps)
    return traj, report, len(built)


def _pattern_changes(traj, epsilon):
    """Steps whose strict neighbour pattern differs from the previous
    step's (the first step counts as a change), and the number of steps."""
    patterns = [np.abs(x[:, None] - x[None, :]) < epsilon for x in traj.states[:-1]]
    changed = sum(not np.array_equal(a, b) for a, b in zip(patterns, patterns[1:]))
    return len(patterns[:1]) + changed, len(patterns)


def _assert_reuse_matches_every_step_build(x0, cfg, max_steps):
    traj, report, built = _counted_run_hk(x0, cfg, max_steps)
    ref, ref_report = _reference_run_hk(x0, cfg, max_steps)
    _assert_same(traj, ref)
    assert report == ref_report and report.to_json() == ref_report.to_json()
    changes, steps = _pattern_changes(traj, cfg.epsilon)
    assert built == changes
    return changes, steps


def _truth_seeker_member(seed, n=64):
    """An ensemble-shaped truth-seeker run: the first k agents aware and
    within epsilon/4 of the truth, the rest in clusters 2(epsilon + 1) apart."""
    rng = np.random.default_rng(seed)
    eps, truth, k = float(rng.choice([0.5, 1.0])), float(rng.uniform(0.0, 5.0)), int(rng.integers(1, n // 3))
    awareness = np.zeros(n)
    awareness[:k] = rng.uniform(0.2, 0.9, k)
    x0 = np.empty(n)
    x0[:k] = truth + rng.uniform(-eps / 4, eps / 4, k)
    groups = int(rng.integers(1, 4))
    for i in range(n - k):
        c = i % groups
        x0[k + i] = truth + (1 if c % 2 == 0 else -1) * (c // 2 + 1) * (eps + 1.0) * 2 + rng.uniform(-eps / 5, eps / 5)
    return x0, HkConfig(epsilon=eps, truth=truth, awareness=tuple(awareness.tolist()))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_run_hk_reuses_w_on_truth_seekers_with_the_loop_bits(seed):
    x0, cfg = _truth_seeker_member(seed)
    changes, steps = _assert_reuse_matches_every_step_build(x0, cfg, 4_000)
    assert changes < steps  # some steps repeat their pattern


@st.composite
def _merging_hk_inputs(draw):
    """A chain of agents less than epsilon apart, shuffled, so that groups
    merge over several steps; optionally some agents aware of a truth."""
    n = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.floats(0.5, 2.0))
    x0 = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, n - 1) * eps)])
    rng.shuffle(x0)
    awareness = ()
    if draw(st.booleans()):
        awareness = tuple((rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.3)).tolist())
    cfg = HkConfig(epsilon=eps, truth=draw(st.floats(-1.0, 5.0)), awareness=awareness)
    return x0, cfg, draw(st.integers(1, 300))


@settings(max_examples=150, deadline=None)
@given(inp=_merging_hk_inputs())
def test_run_hk_reuses_w_across_pattern_changes_with_the_loop_bits(inp):
    changes, _ = _assert_reuse_matches_every_step_build(*inp)
    assume(changes >= 3)  # the first pattern and at least two changes


@st.composite
def _signed_sequences(draw):
    """Constant or periodic signed sequences: random signs off the
    diagonal on row-stochastic magnitudes of the four row shapes."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    negative = draw(st.floats(0.0, 1.0))
    period = draw(st.integers(1, 4))
    mats = []
    for _ in range(period):
        signs = np.where(rng.random((n, n)) < negative, -1.0, 1.0)
        np.fill_diagonal(signs, 1.0)
        mats.append(signs * _stochastic(rng, n, draw(st.sampled_from(["dense", "sparse", "skewed", "hk"]))))
    if period == 1 and draw(st.booleans()):
        seq = SignedMatrixSequence.constant(mats[0])
    else:
        seq = SignedMatrixSequence.explicit(mats, period=period)
    return seq, rng.uniform(-5.0, 5.0, n), draw(st.integers(0, 200))


@settings(max_examples=150, deadline=None)
@given(inp=_signed_sequences())
def test_run_altafini_matches_list_loop(inp):
    seq, x0, steps = inp
    _assert_same(run_altafini(seq, x0, steps), _reference_run_altafini(seq, x0, steps))


# ---------------------------------------------------------------------------
# Signed zeros.  The generated inputs above draw x0 from an interval, so only
# run_hk has met x = -0.0: a product must give the +0.0 that ``@`` gives, also
# for a 1 x 1 matrix, which np.dot would multiply as a scalar.

_SIGNED_ZERO_SEQS = {
    "n1": (MatrixSequence.constant([[1.0]]), [-0.0]),
    "n2": (MatrixSequence.constant([[0.5, 0.5], [0.0, 1.0]]), [-0.0, -0.0]),
}


@pytest.mark.parametrize("name", sorted(_SIGNED_ZERO_SEQS))
@pytest.mark.parametrize(
    "policy",
    [DisturbancePolicy.zero(), DisturbancePolicy.constant_random(0.0, seed=5),
     DisturbancePolicy.vanishing_random(1.0, 0.5, seed=5)],
    ids=["zero", "constant-0", "vanishing"],
)
def test_run_rai_from_signed_zeros_matches_per_step_loop(name, policy):
    seq, x0 = _SIGNED_ZERO_SEQS[name]
    _assert_same(run_rai(seq, x0, policy, 6), _reference_run_rai(seq, x0, policy, 6))


@pytest.mark.parametrize("name", sorted(_SIGNED_ZERO_SEQS))
def test_run_degroot_from_signed_zeros_matches_per_step_loop(name):
    seq, x0 = _SIGNED_ZERO_SEQS[name]
    ref = _reference_run_rai(seq, x0, DisturbancePolicy.zero(), 6)
    _assert_same(run_degroot(seq, x0, 6), ref)


@pytest.mark.parametrize("d_star", [0, 1])  # a stacked state of N = 1 and N = 2
def test_run_delayed_rai_from_signed_zeros_matches_per_step_loop(d_star):
    seq = MatrixSequence.constant([[1.0]])
    delays = DelaySpec.constant([[0]], d_star=d_star)
    history = [[-0.0]] * (d_star + 1)
    policy = DisturbancePolicy.zero()
    traj = run_delayed_rai(seq, delays, history, policy, 6)
    _assert_same(traj, _reference_run_delayed_rai(seq, delays, history, policy, 6))


@pytest.mark.parametrize("x0", [[-0.0], [-0.0, -0.0, 3.0]])
@pytest.mark.parametrize("truth", [0.0, -1.0])
def test_run_hk_from_signed_zeros_matches_list_loop(x0, truth):
    cfg = HkConfig(epsilon=1.0, truth=truth)
    traj, report = run_hk(x0, cfg, 6)
    ref, ref_report = _reference_run_hk(x0, cfg, 6)
    _assert_same(traj, ref)
    assert report == ref_report


@pytest.mark.parametrize("A, x0", [([[1.0]], [-0.0]), ([[0.5, -0.5], [-0.5, 0.5]], [-0.0, 0.0])])
def test_run_altafini_from_signed_zeros_matches_list_loop(A, x0):
    seq = SignedMatrixSequence.constant(A)
    _assert_same(run_altafini(seq, x0, 6), _reference_run_altafini(seq, x0, 6))


# Histories that mix -0.0 and 0.0 under maxima of exactly zero: y(0) is the
# raw history, so its max may be either zero, while every zero of a later
# y(k) has been through gemv and is +0.0.  The tie rule of the window max.
_SIGNED_ZERO_HISTORIES = {
    "n2-d1": ([[0.5, 0.5], [0.0, 1.0]], [[0, 1], [0, 0]], [[0.0, -1.0], [-0.0, -0.0]]),
    "n1-d2": ([[1.0]], [[0]], [[-0.0], [0.0], [-0.0]]),
    "n2-d2": ([[1.0, 0.0], [0.5, 0.5]], [[0, 0], [2, 0]], [[-1.0, -0.0], [0.0, -2.0], [-0.0, -0.0]]),
    "n2-d2-rising": ([[0.5, 0.5], [0.5, 0.5]], [[0, 2], [1, 0]], [[0.0, -0.0], [-0.0, -3.0], [-0.0, -1.0]]),
}


@pytest.mark.parametrize("name", sorted(_SIGNED_ZERO_HISTORIES))
@pytest.mark.parametrize(
    "policy", [DisturbancePolicy.zero(), DisturbancePolicy.constant_random(-0.0, seed=2)], ids=["zero", "minus-0"]
)
def test_run_delayed_rai_from_mixed_signed_zero_histories_matches_per_step_loop(name, policy):
    W, table, history = _SIGNED_ZERO_HISTORIES[name]
    seq = MatrixSequence.constant(W)
    delays = DelaySpec.constant(table, d_star=len(history) - 1)
    traj = run_delayed_rai(seq, delays, history, policy, 8)
    ref = _reference_run_delayed_rai(seq, delays, history, policy, 8)
    _assert_same(traj, ref)
    zero = np.flatnonzero(ref[2] == 0.0)
    assert zero[0] == 0 and zero[-1] >= 1  # a zero window max at k = 0 and later


# ---------------------------------------------------------------------------
# The certificates' guards.  Exact arithmetic never trips them, so a
# negative tolerance stands in for a violation: the first failing step is
# named, also when every later step fails too.


@pytest.mark.parametrize("tol, k", [(-0.75, 0), (-0.1, 3)])
def test_magnitude_guard_names_the_first_violating_step(monkeypatch, tol, k):
    # x(k) = -2^-k (1, 1), so delta(k) = 2^-(k+1) in both rows: step k is
    # the first whose residual falls below -tol.
    seq = SignedMatrixSequence.constant([[0.75, -0.25], [-0.25, 0.75]])
    assert run_altafini(seq, [-1.0, -1.0], 8).residuals[:, 0].tolist() == [2.0 ** -(j + 1) for j in range(8)]
    monkeypatch.setattr("raikit.opinions.FEAS_TOL", tol)
    with pytest.raises(RuntimeError) as caught:
        run_altafini(seq, [-1.0, -1.0], 8)
    assert str(caught.value) == f"magnitude inequality violated at step {k}"
    assert type(caught.value) is RuntimeError
    run_altafini(seq, [-1.0, -1.0], k)  # the steps before k pass


@pytest.mark.parametrize("tol, k, text", [(-2.0, 0, "1.0 -> 0.0"), (-0.5, 4, "-3.0 -> -4.0")])
def test_window_max_guard_names_the_first_increasing_step(monkeypatch, tol, k, text):
    # Agreeing agents lose 1 a step from x(-1) = (1, 1) and x(0) = (0, 0),
    # so the window max runs 1, 0, -1, -2, ...
    seq = MatrixSequence.constant([[0.5, 0.5], [0.5, 0.5]])
    delays = DelaySpec.constant([[0, 0], [0, 0]], d_star=1)
    history, policy = [[1.0, 1.0], [0.0, 0.0]], DisturbancePolicy.adversarial_replay([[1.0, 1.0]])
    assert run_delayed_rai(seq, delays, history, policy, 8).window_max.tolist() == [1.0 - j for j in range(9)]
    monkeypatch.setattr("raikit.engine.FEAS_TOL", tol)
    with pytest.raises(RuntimeError) as caught:
        run_delayed_rai(seq, delays, history, policy, 8)
    assert str(caught.value) == f"delay-window max increased at step {k}: {text}"
    assert type(caught.value) is RuntimeError
    run_delayed_rai(seq, delays, history, policy, k)  # the steps before k pass


# ---------------------------------------------------------------------------
# Memory of the certificate passes: the run's own arrays, one (steps+1, n)
# array of magnitudes for the signed run and a few (steps,) vectors for the
# delayed one.  A (steps, n, n) stack of weights or a (steps, N) array of
# stacked windows would each be several times the states.


def test_long_signed_run_holds_one_array_of_magnitudes():
    rng = np.random.default_rng(4)
    mats = []
    for _ in range(3):
        signs = np.where(rng.random((8, 8)) < 0.4, -1.0, 1.0)
        np.fill_diagonal(signs, 1.0)
        mats.append(signs * _stochastic(rng, 8, "dense"))
    seq = SignedMatrixSequence.explicit(mats, period=3)
    tracemalloc.start()
    try:
        traj = run_altafini(seq, rng.uniform(-5.0, 5.0, 8), 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in (traj.states, traj.residuals, traj.M, traj.m, traj.d))
    assert traj.steps == 100_000 and traj.states.nbytes > 6 * 2**20
    assert peak < own + traj.states.nbytes + 2**20, f"the run peaked at {peak / 2**20:.2f} MiB"


def test_long_delayed_run_holds_no_window_array():
    rng = np.random.default_rng(5)
    seq = MatrixSequence.explicit([_stochastic(rng, 8, "dense") for _ in range(3)], period=3)
    tables = []
    for _ in range(2):
        t = rng.integers(0, 3, (8, 8))
        np.fill_diagonal(t, 0)
        tables.append(t)
    history = [rng.uniform(-5.0, 5.0, 8) for _ in range(3)]
    policy = DisturbancePolicy.constant_random(1e-3, seed=5)
    tracemalloc.start()
    try:
        traj = run_delayed_rai(seq, DelaySpec.periodic(tables, d_star=2), history, policy, 50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in (traj.states, traj.residuals, traj.M, traj.m, traj.d, traj.window_max))
    assert traj.steps == 50_000 and traj.states.nbytes > 3 * 2**20
    assert peak < own + 4 * traj.window_max.nbytes + 2**20, f"the run peaked at {peak / 2**20:.2f} MiB"


def _raised(run):
    try:
        run()
    except Exception as exc:  # noqa: BLE001 -- the type is what is compared
        return type(exc)
    return None


_BAD_X0 = [np.zeros((2, 2)), 1.0, [0.0, np.nan, 1.0], [np.inf, 1.0, 0.0], [-np.inf, 0.0, 0.0],
           [[1.0, 2.0, 3.0]], [1.0, 2.0], ["a", 0.0, 1.0]]


@pytest.mark.parametrize("x0", _BAD_X0)
def test_bad_initial_vectors_raise_the_reference_types(x0):
    cfg = HkConfig(epsilon=1.0)
    seq = SignedMatrixSequence.constant(np.array([[0.5, -0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    for max_steps in (5, -1):
        # any length is a valid bounded-confidence state
        want = _raised(lambda: _reference_run_hk(x0, cfg, max_steps))
        assert _raised(lambda: run_hk(x0, cfg, max_steps)) is want
        want = _raised(lambda: _reference_run_altafini(seq, x0, max_steps))
        assert want is not None and _raised(lambda: run_altafini(seq, x0, max_steps)) is want


def test_negative_steps_raise_the_reference_types():
    x0 = [0.0, 1.0, 3.0]
    seq = SignedMatrixSequence.constant(np.eye(3))
    assert _raised(lambda: run_hk(x0, HkConfig(epsilon=1.0), -1)) is ValueError
    assert _raised(lambda: _reference_run_hk(x0, HkConfig(epsilon=1.0), -1)) is ValueError
    assert _raised(lambda: run_altafini(seq, x0, -1)) is ValueError
    assert _raised(lambda: _reference_run_altafini(seq, x0, -1)) is ValueError
    aware = HkConfig(epsilon=1.0, awareness=(0.5, 0.5))  # one entry short
    assert _raised(lambda: run_hk(x0, aware, 3)) is _raised(lambda: _reference_run_hk(x0, aware, 3))


def test_hk_run_that_freezes_early_owns_arrays_of_its_length():
    x0 = [0.0, 0.4, 0.8, 1.2, 1.6, 4.0, 4.3, 4.6]
    cfg = HkConfig(epsilon=0.5)
    traj, report = run_hk(x0, cfg, 2000)
    K = report.terminated_at
    assert K is not None and K + 1 < 2000
    assert traj.states.shape == (K + 2, 8) and traj.residuals.shape == (K + 1, 8)
    for a in (traj.states, traj.residuals):
        assert a.base is None and a.flags.owndata
    # a freeze at the last allowed step is still reported; one step less is not
    for max_steps, stop in ((K + 1, K), (K, None)):
        traj, report = run_hk(x0, cfg, max_steps)
        assert report.terminated_at == stop and traj.steps == max_steps
        ref, ref_report = _reference_run_hk(x0, cfg, max_steps)
        _assert_same(traj, ref)
        assert report == ref_report


_SLOW_FREEZE = ([0.0, 0.5, 3.0], HkConfig(epsilon=1.0, truth=10.0, awareness=(0.05, 0.05, 0.05)))


@pytest.mark.parametrize(
    "x0, cfg, max_steps",
    # weak truth attraction freezes after step 658, past several doublings;
    # the last run freezes within a few steps of a huge cap
    [(*_SLOW_FREEZE, m) for m in (63, 64, 65, 128, 129, 658, 659, 10**9)]
    + [([0.0, 0.4, 5.0], HkConfig(epsilon=1.0), 10**9)],
)
def test_hk_run_grows_its_arrays_only_as_far_as_it_runs(x0, cfg, max_steps):
    traj, report = run_hk(x0, cfg, max_steps)
    ref, ref_report = _reference_run_hk(x0, cfg, max_steps)
    _assert_same(traj, ref)
    assert report == ref_report and report.to_json() == ref_report.to_json()


@pytest.mark.parametrize("stop", [0, 1, 62, 63, 64, 65, 127, 128, None])
@pytest.mark.parametrize("first_rows", [1, 64, 300])
def test_loop_grows_and_cuts_its_arrays_to_the_steps_taken(stop, first_rows):
    def step(k, x, r, out):
        out[:] = k + 1
        r[:] = -k
        return k == stop

    traj, stopped = _iterate(np.zeros(2), 300, np.empty((first_rows, 2)), step)
    taken = 300 if stop is None else stop + 1
    assert stopped == stop
    assert np.array_equal(traj.states, np.repeat(np.arange(taken + 1.0), 2).reshape(-1, 2))
    assert np.array_equal(traj.residuals, -np.repeat(np.arange(taken + 0.0), 2).reshape(-1, 2))
    for a in (traj.states, traj.residuals):
        assert a.base is None and a.flags.owndata


@pytest.mark.parametrize("stop", [0, 1, None])
def test_loop_grows_from_an_empty_first_block(stop):
    def step(k, x, r, out):
        out[:] = k + 1
        r[:] = -k
        return k == stop

    traj, stopped = _iterate(np.zeros(2), 9, np.empty((0, 2)), step)
    taken = 9 if stop is None else stop + 1
    assert stopped == stop
    assert np.array_equal(traj.states, np.repeat(np.arange(taken + 1.0), 2).reshape(-1, 2))
    assert np.array_equal(traj.residuals, -np.repeat(np.arange(taken + 0.0), 2).reshape(-1, 2))


def test_one_check_names_every_bad_initial_and_history_vector():
    seq = MatrixSequence.constant(np.eye(2))
    zero = DisturbancePolicy.zero()
    with pytest.raises(ValueError, match=r"^initial vector must have shape \(2,\), got \(3,\)$"):
        run_rai(seq, [0.0, 1.0, 2.0], zero, 1)
    with pytest.raises(ValueError, match=r"^initial vector must be finite$"):
        run_altafini(SignedMatrixSequence.constant(np.eye(2)), [0.0, np.nan], 1)
    with pytest.raises(ValueError, match=r"^initial vector must have shape \(n,\), got \(2, 2\)$"):
        run_hk(np.zeros((2, 2)), HkConfig(epsilon=1.0), 1)
    delays = DelaySpec.constant(np.zeros((2, 2), dtype=int), d_star=1)
    with pytest.raises(ValueError, match=r"^history vector must have shape \(2,\), got \(1,\)$"):
        run_delayed_rai(seq, delays, [[0.0, 1.0], [0.0]], zero, 1)
    with pytest.raises(ValueError, match=r"^history vector must be finite$"):
        run_delayed_rai(seq, delays, [[0.0, np.inf], [0.0, 1.0]], zero, 1)


def test_block_draw_equals_per_step_draws():
    for n, steps in ((1, 0), (3, 1), (4, 257), (7, 1000)):
        per_step = np.random.default_rng(5)
        rows = [per_step.random(n) for _ in range(steps)]
        block = np.random.default_rng(5).random((steps, n))
        assert block.tobytes() == np.array(rows, dtype=float).reshape(steps, n).tobytes()


def test_vectorized_decay_powers_differ_from_scalar_powers():
    """Why the vanishing factors are built with Python's scalar power."""
    decay, steps = 0.999, 1000
    scalar = np.array([decay**k for k in range(steps)])
    assert not np.array_equal(decay ** np.arange(steps), scalar)
    policy = DisturbancePolicy.vanishing_random(1.0, decay, seed=3)
    uniform = np.random.default_rng(3).random((steps, 2))
    assert np.array_equal(policy.draw(2, steps), scalar[:, None] * uniform)


def test_draws_with_the_kept_decay_table_equal_scalar_draws():
    """Interleaved (decay, steps) pairs miss and hit the one kept table, and
    every draw equals the per-step scale * decay**k * u."""
    _decay_powers.cache_clear()
    pairs = [(0.999, 300), (0.9, 50), (0.9, 50), (0.999, 300), (0.999, 301), (0.5, 300), (0.999, 300)]
    for i, (decay, steps) in enumerate(pairs):
        before = _decay_powers.cache_info()
        policy = DisturbancePolicy.vanishing_random(0.25 * (i + 1), decay, seed=i)
        emit = _reference_emitter(policy, 3)
        want = np.array([emit(k) for k in range(steps)])
        assert policy.draw(3, steps).tobytes() == want.tobytes()
        after = _decay_powers.cache_info()
        hit = i > 0 and pairs[i - 1] == (decay, steps)
        assert (after.hits - before.hits, after.misses - before.misses) == ((1, 0) if hit else (0, 1))
        assert after.currsize <= 1


def test_a_zero_scale_keeps_its_sign_through_the_kept_table():
    plus = DisturbancePolicy.vanishing_random(0.0, 0.9, seed=4).draw(3, 40)
    minus = DisturbancePolicy.vanishing_random(-0.0, 0.9, seed=4).draw(3, 40)  # the same table
    assert not np.signbit(plus).any() and np.signbit(minus).all()
    assert not np.signbit(DisturbancePolicy.vanishing_random(0.0, 0.9, seed=4).draw(3, 40)).any()


def test_a_numpy_decay_draws_the_bits_of_a_float_decay():
    _decay_powers.cache_clear()
    numpy_draw = DisturbancePolicy.vanishing_random(1e-3, np.float64(0.999), seed=2).draw(4, 2000)
    _decay_powers.cache_clear()
    float_draw = DisturbancePolicy.vanishing_random(1e-3, 0.999, seed=2).draw(4, 2000)
    assert numpy_draw.tobytes() == float_draw.tobytes()
    powers = _decay_powers(0.999, 2000)
    assert powers.tobytes() == np.array([0.999**k for k in range(2000)]).tobytes()


@pytest.mark.parametrize("decay", [np.float32(0.999), Fraction(999, 1000)], ids=["float32", "Fraction"])
def test_a_decay_of_another_type_keeps_its_own_powers(decay):
    """Each power is taken in the decay's own type, as before the table was
    kept: float32 powers, or exact rational ones rounded once.  A float
    decay of equal value is another key and keeps its float64 powers."""
    uniform = np.random.default_rng(2).random((300, 4))
    own = np.array([float(decay**k) for k in range(300)])
    assert not np.array_equal(own, np.array([0.999**k for k in range(300)]))
    for d in (0.999, decay, 0.999, decay):
        want = (own if d is decay else np.array([0.999**k for k in range(300)])) * 1e-3
        draw = DisturbancePolicy.vanishing_random(1e-3, d, seed=2).draw(4, 300)
        assert draw.tobytes() == (uniform * want[:, None]).tobytes()


def test_the_kept_decay_table_is_read_only_and_single():
    DisturbancePolicy.vanishing_random(1.0, 0.7, seed=0).draw(2, 10)
    table = _decay_powers(0.7, 10)
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 2.0
    DisturbancePolicy.vanishing_random(1.0, 0.8, seed=0).draw(2, 10)
    assert _decay_powers.cache_info().currsize == 1 and _decay_powers.cache_info().maxsize == 1


def test_bad_policy_values_are_named_at_construction():
    with pytest.raises(ValueError, match="^replay disturbance -1.0 is not a nonnegative real$"):
        DisturbancePolicy(kind="adversarial_replay", replay=((0.0, 0.0), (0.0, -1.0)))
    with pytest.raises(ValueError, match="^scale must be a finite number >= 0$"):
        DisturbancePolicy(kind="constant_random", scale=float("inf"))
    with pytest.raises(ValueError, match="replay rows do not match"):
        DisturbancePolicy.adversarial_replay([[0.0, 1.0]]).draw(3, 0)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kind": "vanishing_random", "scale": 0.1, "decay": 2.0}, "0 < decay < 1"),
        ({"kind": "vanishing_random", "scale": 0.1}, "0 < decay < 1"),  # decay 1.0 never vanishes
        ({"kind": "bogus"}, "^unknown disturbance kind 'bogus'$"),
        ({"kind": "constant_random", "scale": 0.1, "seed": -1}, "^seed must be an integer >= 0, got -1$"),
        ({"kind": "constant_random", "scale": 0.1, "seed": 1.5}, "^seed must be an integer >= 0, got 1.5$"),
        ({"kind": "vanishing_random", "scale": 0.1, "decay": 0.5, "seed": True}, "got True$"),
        ({"kind": "zero", "seed": "7"}, "^seed must be an integer >= 0, got '7'$"),
    ],
    ids=["decay_above_one", "default_decay", "unknown_kind", "negative_seed", "float_seed",
         "bool_seed", "string_seed"],
)
def test_policy_built_directly_is_checked_at_construction(fields, message):
    with pytest.raises(ValueError, match=message):
        DisturbancePolicy(**fields)


def test_numpy_integer_seed_draws_like_its_int():
    policy = DisturbancePolicy.constant_random(0.1, seed=np.int64(3))
    assert np.array_equal(policy.draw(2, 5), DisturbancePolicy.constant_random(0.1, seed=3).draw(2, 5))
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        DisturbancePolicy.constant_random(0.1, seed=np.int64(-3))


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_scale_rejected_at_construction(scale):
    with pytest.raises(ValueError, match="finite"):
        DisturbancePolicy.vanishing_random(scale, 0.9)
    with pytest.raises(ValueError, match="finite"):
        DisturbancePolicy.constant_random(scale)
    with pytest.raises(ValueError, match="finite"):
        DisturbancePolicy.from_json_obj({"kind": "constant_random", "scale": scale})


# ---------------------------------------------------------------------------
# Matrix validation against the per-row loops.


@st.composite
def _matrices(draw, max_n=64):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "sparse", "skewed", "hk"]))
    e = _stochastic(rng, n, kind)
    # perturb some rows within the row-sum tolerance, and put tiny entries
    # that the flush removes into some zeros
    jitter = rng.uniform(-0.9, 0.9, n) * ROW_SUM_TOL * (rng.random(n) < 0.3)
    e = e * (1.0 + jitter)[:, None]
    e[(e == 0.0) & (rng.random((n, n)) < 0.3)] = ENTRY_FLUSH * rng.random()
    return e


@settings(max_examples=200, deadline=None)
@given(e=_matrices())
def test_row_stochastic_validation_matches_per_row_loop(e):
    got = RowStochasticMatrix(n=e.shape[0], entries=e).entries
    want = _reference_row_stochastic(e)
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def test_row_validation_covers_the_rotation_step():
    rng = np.random.default_rng(1)
    rotated = []
    for _ in range(20):
        e = _stochastic(rng, 43, "dense")
        _reference_force_exact_row_sums(e, rotated)
        if rotated:
            break
    assert rotated
    assert RowStochasticMatrix(n=43, entries=e).entries.tobytes() == _reference_row_stochastic(e).tobytes()


def test_row_validation_of_a_fortran_ordered_input():
    e = np.asfortranarray(_stochastic(np.random.default_rng(4), 33, "dense"))
    got = RowStochasticMatrix(n=33, entries=e).entries
    assert got.flags.c_contiguous
    assert got.tobytes() == _reference_row_stochastic(np.ascontiguousarray(e)).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_substochastic_validation_matches_per_row_loop(data):
    n = data.draw(st.integers(1, 64))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    raw = _random_rows(rng, n, data.draw(st.sampled_from(["dense", "sparse", "skewed", "hk"])))
    # row sums spread over [0, 1 + ROW_SUM_TOL]: deficient, exact, and
    # slightly above 1 (scaled down)
    target = rng.choice([0.3, 1.0 - 2 * ROW_SUM_TOL, 1.0, 1.0 + 0.5 * ROW_SUM_TOL], n)
    e = raw / raw.sum(axis=1, keepdims=True) * target[:, None]
    A = SubstochasticMatrix(n=n, entries=e)
    want, deficient = _reference_substochastic(e)
    assert A.entries.tobytes() == want.tobytes()
    assert A.deficiency_set == deficient


# ---------------------------------------------------------------------------
# The one-pass validation against the checks above, on accepted and on
# rejected inputs: the same entries and deficiency sets bit for bit, or the
# same exception type and message.

_DEFECTS = ["nan", "+inf", "-inf", "negative", "overflow", "outside", "shape", "n"]


def _outcome(build):
    try:
        return build()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _same_outcome(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert not (isinstance(got, tuple) and isinstance(got[0], type)), got
        for g, w in zip(got, want):
            if isinstance(w, np.ndarray):
                assert g.flags.c_contiguous and g.tobytes() == w.tobytes()
            else:
                assert g == w


@st.composite
def _validation_inputs(draw, substochastic):
    """(n, entries): a valid matrix of up to 64 rows, with up to two of
    ``_DEFECTS`` applied; tiny entries and Fortran order come with both.
    The tiny entries have either sign, or no sign bit at all (positive
    subnormals among them), or no sign bit but one: a -0.0 or a negative
    entry that the flush removes."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = _random_rows(rng, n, draw(st.sampled_from(["dense", "sparse", "skewed", "hk"])))
    if substochastic:
        target = rng.choice([0.3, 1.0 - 2 * ROW_SUM_TOL, 1.0, 1.0 + 0.5 * ROW_SUM_TOL], n)
    else:
        target = 1.0 + rng.uniform(-0.9, 0.9, n) * ROW_SUM_TOL * (rng.random(n) < 0.3)
    e = e / e.sum(axis=1, keepdims=True) * target[:, None]
    signs = draw(st.sampled_from(["mixed", "none", "one"]))
    tiny = (e == 0.0) & (rng.random((n, n)) < 0.3)
    e[tiny] = ENTRY_FLUSH * rng.uniform(-1.0 if signs == "mixed" else 0.0, 1.0, int(tiny.sum()))
    if signs != "mixed":
        e[tiny & (rng.random((n, n)) < 0.2)] = draw(st.sampled_from([5e-324, 2.2e-308]))
    if draw(st.booleans()):  # exactly at the flush threshold: kept
        sign = draw(st.sampled_from([-1.0, 1.0])) if signs == "mixed" else 1.0
        e[tiny & (rng.random((n, n)) < 0.2)] = ENTRY_FLUSH * sign
    flushed = np.argwhere(e < ENTRY_FLUSH)
    if signs == "one" and len(flushed):
        i, j = flushed[rng.integers(len(flushed))]
        e[i, j] = draw(st.sampled_from([-0.0, -5e-324, -0.5 * ENTRY_FLUSH]))
    defects = draw(st.lists(st.sampled_from(_DEFECTS), max_size=2, unique=True))
    for defect in defects:
        _apply_defect(e, defect, rng, substochastic)
    if "shape" in defects:
        e = draw(st.sampled_from([e[:, :-1], e[0], e[None]]))
    if draw(st.booleans()):
        e = np.asfortranarray(e)
    return n + ("n" in defects), e


@np.errstate(over="ignore", invalid="ignore")  # a row may carry two defects
def _apply_defect(e, defect, rng, substochastic):
    n = e.shape[0]
    i, j = (int(v) for v in rng.integers(0, n, 2))
    if defect == "nan":
        e[i, j] = np.nan
    elif defect == "+inf":
        e[i, j] = np.inf
    elif defect == "-inf":
        e[i, j] = -np.inf
    elif defect == "negative":
        e[i, j] = -rng.uniform(10 * ENTRY_FLUSH, 1.0)
    elif defect == "overflow":  # finite entries, infinite row sum
        e[i, :] = 1.5e308 if n > 1 else 2.0
    elif defect == "outside":  # just past the tolerance
        past = 1.1 * ROW_SUM_TOL if substochastic or rng.random() < 0.5 else -1.1 * ROW_SUM_TOL
        e[i] = e[i] / e[i].sum() * (1.0 + past)


@settings(max_examples=300, deadline=None)
@given(inp=_validation_inputs(substochastic=False))
def test_row_stochastic_one_pass_matches_the_checks_in_order(inp):
    n, e = inp
    got = _outcome(lambda: (RowStochasticMatrix(n=n, entries=e).entries,))
    _same_outcome(got, _outcome(lambda: (_reference_row_stochastic(e, n),)))


@settings(max_examples=300, deadline=None)
@given(inp=_validation_inputs(substochastic=True))
def test_substochastic_one_pass_matches_the_checks_in_order(inp):
    n, e = inp
    A = _outcome(lambda: SubstochasticMatrix(n=n, entries=e))
    got = A if isinstance(A, tuple) else (A.entries, A.deficiency_set)
    _same_outcome(got, _outcome(lambda: _reference_substochastic(e, n)))


def test_two_defects_report_the_first_check():
    e = np.full((3, 3), 1 / 3)
    e[0, 0], e[1, 1] = -0.5, np.nan
    with pytest.raises(ValueError, match="^entries must be finite$"):
        RowStochasticMatrix(n=3, entries=e)
    with pytest.raises(ValueError, match="^n does not match matrix shape$"):
        SubstochasticMatrix(n=4, entries=e)
    e = np.full((3, 3), 1 / 3)
    e[2, :2] = 1.5e308
    e[0, 0] = -1.0
    with pytest.raises(ValueError, match="^entries must be nonnegative$"):
        RowStochasticMatrix(n=3, entries=e)
    e[0, 0] = 1 / 3
    with pytest.raises(ValueError, match=r"^row 2 sums to inf, outside 1 \+/- 1e-09$"):
        RowStochasticMatrix(n=3, entries=e)


def test_overflowing_row_sum_is_rejected_without_a_warning():
    e = np.full((3, 3), 1 / 3)
    e[2, :2] = 1.5e308  # finite entries, row sum inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^row 2 sums to inf, outside 1 \+/- 1e-09$"):
            RowStochasticMatrix(n=3, entries=e)
        with pytest.raises(ValueError, match=r"^row 2 sums to inf, above 1 \+ 1e-09$"):
            SubstochasticMatrix(n=3, entries=e)


@pytest.mark.parametrize("n", [1, 3])
def test_entries_at_and_past_the_unit_bound_match_the_checks(n):
    top = 1.0 + ROW_SUM_TOL
    edge = (np.nextafter(top, 0.0), top, np.nextafter(top, 2.0), 2.0, 1.5e308, np.inf, -0.0)
    # a sign bit that the flush removes, and positive entries with none
    tiny = (-5e-324, -0.5 * ENTRY_FLUSH, 5e-324, np.nextafter(ENTRY_FLUSH, 0.0), ENTRY_FLUSH)
    for v, (i, j) in itertools.product(edge + tiny, sorted({(0, 0), (0, n - 1)})):
        e = np.eye(n)
        e[i, j] = v
        got = _outcome(lambda: (RowStochasticMatrix(n=n, entries=e).entries,))
        _same_outcome(got, _outcome(lambda: (_reference_row_stochastic(e, n),)))
        A = _outcome(lambda: SubstochasticMatrix(n=n, entries=e))
        got = A if isinstance(A, tuple) else (A.entries, A.deficiency_set)
        _same_outcome(got, _outcome(lambda: _reference_substochastic(e, n)))


def test_uncompensable_row_is_reported(monkeypatch):
    e = _stochastic(np.random.default_rng(1), 43, "dense")
    divided = e / e.sum(axis=1, keepdims=True)
    first = next(i for i in range(43) if float(divided[i].sum()) != 1.0)
    monkeypatch.setattr("raikit.matrices._nudge_to_unit_sum", lambda row: False)
    with pytest.raises(RuntimeError, match=f"^row {first} cannot be compensated to an exact unit sum$"):
        RowStochasticMatrix(n=43, entries=e)


def _reference_stack(W, delays, d_star):
    n = W.n
    N = n * (d_star + 1)
    Xi = np.zeros((N, N))
    for i in range(n):
        for j in range(n):
            w = W.entries[i, j]
            if w != 0.0:
                Xi[i, int(delays[i, j]) * n + j] = w
    for r in range(1, d_star + 1):
        for i in range(n):
            Xi[r * n + i, (r - 1) * n + i] = 1.0
    return RowStochasticMatrix(n=N, entries=Xi)


def test_stack_scatter_matches_the_loop():
    rng = np.random.default_rng(6)
    for n in range(1, 7):
        for d_star in range(4):
            for _ in range(5):
                raw = _random_rows(rng, n, "sparse")
                np.fill_diagonal(raw, 1.0)
                W = RowStochasticMatrix(n=n, entries=raw / raw.sum(axis=1, keepdims=True))
                table = rng.integers(0, d_star + 1, (n, n))
                np.fill_diagonal(table, 0)
                got = _stack(W, table, d_star).entries
                assert got.tobytes() == _reference_stack(W, table, d_star).entries.tobytes()


def test_empty_replay_table_is_rejected():
    with pytest.raises(ValueError, match="^replay table must be nonempty$"):
        run_rai(
            MatrixSequence.constant(np.eye(2)),
            [0.0, 1.0],
            DisturbancePolicy(kind="adversarial_replay", replay=()),
            3,
        )
    with pytest.raises(ValueError, match="^replay table must be nonempty$"):
        DisturbancePolicy.adversarial_replay([])


# ---------------------------------------------------------------------------
# Trajectory CSV: the block writer against the row-by-row loop it replaced.


def _reference_csv(traj):
    n = traj.n
    cols = (
        ["k"]
        + [f"x_{i}" for i in range(n)]
        + [f"delta_{i}" for i in range(n)]
        + ["M", "m", "d"]
    )
    lines = [",".join(cols)]
    for k in range(traj.steps + 1):
        row = [str(k)]
        row += [repr(float(v)) for v in traj.states[k]]
        if k < traj.steps:
            row += [repr(float(v)) for v in traj.residuals[k]]
        else:
            row += [""] * n
        row += [repr(float(traj.M[k])), repr(float(traj.m[k])), repr(float(traj.d[k]))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# Signed zeros, the smallest subnormal and normal, both sides of repr's
# switch to exponent form, the float range's edges and a saturated d.
_CSV_VALUES = (
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 9999999999999998.0, 1e16,
    1e-5, 0.0001, 1.7e308, -1.7e308, float("inf"),
)


@st.composite
def _csv_trajectories(draw):
    n = draw(st.sampled_from([1, 7]))
    B = _CSV_BLOCK_ROWS
    steps = draw(st.sampled_from([0, B - 1, B, B + 1, 2 * B + 1]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pool = np.array(_CSV_VALUES + tuple(draw(st.lists(finite, max_size=8))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pick(*shape):
        return pool[rng.integers(0, len(pool), shape)]

    return Trajectory(
        states=pick(steps + 1, n), residuals=pick(steps, n),
        M=pick(steps + 1), m=pick(steps + 1), d=pick(steps + 1),
    )


@settings(max_examples=60, deadline=None)
@given(traj=_csv_trajectories())
def test_csv_blocks_match_the_row_loop(traj):
    # Compared as lists of lines: on a failure pytest would diff two long
    # strings character by character, once per shrinking step.
    want = _reference_csv(traj).splitlines(keepends=True)
    blocks = list(traj.csv_blocks())
    assert [line for b in blocks for line in b.splitlines(keepends=True)] == want
    assert traj.to_csv().splitlines(keepends=True) == want
    assert blocks[0] == want[0]
    rows, B = traj.steps + 1, _CSV_BLOCK_ROWS
    assert [b.count("\n") for b in blocks[1:]] == [min(B, rows - a) for a in range(0, rows, B)]


def _assert_csv_matches_the_row_loop(traj):
    want = _reference_csv(traj).splitlines(keepends=True)
    assert [line for b in traj.csv_blocks() for line in b.splitlines(keepends=True)] == want


def test_csv_keeps_signed_zeros_of_one_column_apart():
    # Both zeros in x_0, delta_0 and M of one block share no repr.
    x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]])
    traj = Trajectory(
        states=x, residuals=np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]),
        M=x[:, 0], m=x[:, 1], d=np.array([0.0, -0.0, 0.0, float("inf")]),
    )
    _assert_csv_matches_the_row_loop(traj)
    assert traj.to_csv().splitlines()[2] == "1,-0.0,1.0,0.0,-0.0,-0.0,1.0,-0.0"


def test_csv_of_a_converged_tail_repeats_one_repr_per_row():
    # From step 1 on every state is the one consensus value, the deltas
    # and the diameter are 0.0, and M and m repeat the state.
    seq = MatrixSequence.constant(np.full((3, 3), 1 / 3))
    traj = run_rai(seq, [0.1, 0.7, 0.3], DisturbancePolicy.zero(), 3 * _CSV_BLOCK_ROWS)
    assert len(set(traj.states[1:].ravel().tolist())) == 1
    _assert_csv_matches_the_row_loop(traj)


def test_csv_of_all_distinct_values_in_several_blocks():
    rng = np.random.default_rng(3000)
    steps, n = 2999, 7
    traj = Trajectory(
        states=rng.standard_normal((steps + 1, n)), residuals=rng.random((steps, n)),
        M=rng.standard_normal(steps + 1), m=rng.standard_normal(steps + 1), d=rng.random(steps + 1),
    )
    cells = np.concatenate([traj.states.ravel(), traj.residuals.ravel(), traj.M, traj.m, traj.d])
    assert np.unique(cells).size == cells.size
    _assert_csv_matches_the_row_loop(traj)


def test_csv_of_a_long_run_is_written_in_bounded_memory(tmp_path):
    # The whole text of this run is 11.7 MB; a writer that builds it in
    # one string peaks near 38 MB.
    seq = gossip_sequence(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 0.5, [0, 1, 11, 111], period=444)
    policy = DisturbancePolicy.vanishing_random(1e-3, 0.999, seed=7)
    traj = run_rai(seq, [0.9, -0.3, 0.4, -0.7], policy, 50_000)
    tracemalloc.start()
    try:
        with open(tmp_path / "t.csv", "w", newline="\n") as f:
            f.writelines(traj.csv_blocks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, f"writing the CSV peaked at {peak / 1e6:.1f} MB"
    assert (tmp_path / "t.csv").stat().st_size > 8e6
