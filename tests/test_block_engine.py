"""The one engine loop and the one-pass matrix validation, against the
per-step, per-row and step-by-step code they replaced (kept here as
reference oracles).  Every comparison is bitwise.  A rejected matrix must
give the same exception type and message; a rejected engine input the same
exception type."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raikit import (
    DelaySpec,
    DisturbancePolicy,
    HkConfig,
    MatrixSequence,
    RowStochasticMatrix,
    SignedMatrixSequence,
    SubstochasticMatrix,
    hk_weights,
    run_altafini,
    run_delayed_rai,
    run_hk,
    run_rai,
)
from raikit.engine import _iterate, _stack
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
    stacked_cache = {}
    states = [y[:n].copy()]
    residuals = []
    window_max = [float(y.max())]
    for k in range(steps):
        W = seq.matrix(k)
        table = delays.table(k)
        key = (id(W), table.tobytes())
        Xi = stacked_cache.get(key)
        if Xi is None:
            Xi = _stack(W, table, ds)
            stacked_cache[key] = Xi
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


def test_block_check_names_first_bad_step():
    bad = DisturbancePolicy(kind="adversarial_replay", replay=((0.0, 0.0), (0.0, -1.0)))
    with pytest.raises(ValueError, match="^disturbance at step 1 has a negative entry$"):
        bad.draw(2, 5)
    with pytest.raises(ValueError, match="^disturbance at step 1 has a negative entry$"):
        run_rai(MatrixSequence.constant(np.eye(2)), np.zeros(2), bad, 5)
    assert bad.draw(2, 1).shape == (1, 2)  # the bad row is never reached
    inf = DisturbancePolicy(kind="constant_random", scale=float("inf"))
    with pytest.raises(ValueError, match="^disturbance at step 0 has a non-finite entry$"):
        inf.draw(3, 4)
    with pytest.raises(ValueError, match="replay rows do not match"):
        DisturbancePolicy.adversarial_replay([[0.0, 1.0]]).draw(3, 0)


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
    ``_DEFECTS`` applied; tiny entries of either sign and Fortran order
    come with both."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = _random_rows(rng, n, draw(st.sampled_from(["dense", "sparse", "skewed", "hk"])))
    if substochastic:
        target = rng.choice([0.3, 1.0 - 2 * ROW_SUM_TOL, 1.0, 1.0 + 0.5 * ROW_SUM_TOL], n)
    else:
        target = 1.0 + rng.uniform(-0.9, 0.9, n) * ROW_SUM_TOL * (rng.random(n) < 0.3)
    e = e / e.sum(axis=1, keepdims=True) * target[:, None]
    tiny = (e == 0.0) & (rng.random((n, n)) < 0.3)
    e[tiny] = ENTRY_FLUSH * rng.uniform(-1.0, 1.0, int(tiny.sum()))
    if draw(st.booleans()):  # exactly at the flush threshold: kept
        e[tiny & (rng.random((n, n)) < 0.2)] = ENTRY_FLUSH * draw(st.sampled_from([-1.0, 1.0]))
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
    for v in (np.nextafter(top, 0.0), top, np.nextafter(top, 2.0), 2.0, 1.5e308, np.inf, -0.0):
        e = np.eye(n)
        e[0, 0] = v
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
