"""The solver round against the row-by-row reference it replaced: bit for
bit agreement of steps, residuals and whole solves (also with all five
kinds interleaved with generic maps), the norm without the numpy wrapper,
one projection per agent per round, stacked forms instead of per-agent
calls, rows left in place without warnings, and the breakdown rule."""

import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from raikit import ALGORITHMS, ConvexProjector, MatrixSequence, MultiAgentProblem, Paracontraction, solve, solvers, step
from raikit.solvers import _norm, _residuals


def _bits(x: float) -> bytes:
    assert type(x) is float
    return struct.pack("<d", x)


# --- the reference: the row-by-row round and residuals, kept verbatim --------


def _oracle_norm(v):
    return float(np.linalg.norm(v))


def _oracle_step(problem, states, k):
    n, d = problem.n, problem.dimension
    states = np.asarray(states, dtype=float)
    if states.shape != (n, d):
        raise ValueError(f"states must be {n}x{d}")
    Wk = problem.W.matrix(k).entries
    out = np.empty_like(states)
    if problem.algorithm == "pre_project":
        mixed = Wk @ states
        for i in range(n):
            out[i] = problem.maps[i].apply(mixed[i])
    elif problem.algorithm == "double_project":
        projected = np.array([problem.maps[j].apply(states[j]) for j in range(n)])
        mixed = Wk @ projected
        for i in range(n):
            out[i] = problem.maps[i].apply(mixed[i])
    else:  # convex_blend
        for i in range(n):
            acc = Wk[i, i] * problem.maps[i].apply(states[i])
            for j in range(n):
                if j != i:
                    acc = acc + Wk[i, j] * states[j]
            out[i] = acc
    return out


def _oracle_residuals(problem, states):
    n = problem.n
    disagreement = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            disagreement = max(disagreement, _oracle_norm(states[i] - states[j]))
    violation = max(
        _oracle_norm(problem.maps[i].apply(states[i]) - states[i]) for i in range(n)
    )
    return disagreement, violation


def _oracle_solve(problem, max_iters, tol):
    """The solve loop on the reference round; also says whether every state
    and projection it met was finite."""
    states = problem.initial.copy()
    finite = True
    dg_hist, vi_hist = [], []
    for it in range(max_iters + 1):
        projected = np.array([m.apply(x) for m, x in zip(problem.maps, states)])
        finite = finite and bool(np.isfinite(states).all() and np.isfinite(projected).all())
        dg, vi = _oracle_residuals(problem, states)
        dg_hist.append(dg)
        vi_hist.append(vi)
        if dg < tol and vi < tol:
            return states, it, dg_hist, vi_hist, finite
        if it == max_iters:
            break
        states = _oracle_step(problem, states, it)
    return states, max_iters, dg_hist, vi_hist, finite


# --- random problems ---------------------------------------------------------

# Zeros of both signs, subnormals, and ordinary values.
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1.0, -1.0])
coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False) | special
param = st.floats(-10, 10, allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 1.0, 2.0])


@st.composite
def projectors(draw, d):
    vec = st.lists(param, min_size=d, max_size=d)
    kind = draw(st.sampled_from(["hyperplane", "halfspace", "ball", "box", "affine_subspace"]))
    if kind in ("hyperplane", "halfspace"):
        args = (draw(vec), draw(param))
    elif kind == "ball":
        args = (draw(vec), draw(st.floats(0, 10) | st.just(math.inf)))
    elif kind == "box":
        x, y = np.array(draw(vec)), np.array(draw(vec))
        args = (np.minimum(x, y), np.maximum(x, y))
    else:
        A = np.array([draw(vec) for _ in range(draw(st.integers(1, d)))])
        args = (A, A @ np.array(draw(vec)))
    try:
        with np.errstate(all="ignore"):
            return getattr(ConvexProjector, kind)(*args)
    except ValueError:  # a zero normal, or equations too ill-conditioned to pass
        assume(False)


weight = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1)


@st.composite
def stochastic(draw, n):
    rows = np.array([draw(st.lists(weight, min_size=n, max_size=n)) for _ in range(n)])
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    return rows / rows.sum(axis=1)[:, None]


@st.composite
def problems(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    maps = tuple(draw(projectors(d)) for _ in range(n))
    storage = draw(st.sampled_from(["constant", "periodic", "generator"]))
    mats = [draw(stochastic(n)) for _ in range(1 if storage == "constant" else draw(st.integers(2, 3)))]
    try:
        if storage == "constant":
            W = MatrixSequence.constant(mats[0])
        elif storage == "periodic":
            W = MatrixSequence.explicit(mats, period=len(mats))
        else:
            W = MatrixSequence.from_generator(lambda k: mats[k * k % len(mats)], n=n)
    except ValueError:  # a row sum off by more than the tolerance after flushing
        assume(False)
    initial = np.array([draw(st.lists(coord, min_size=d, max_size=d)) for _ in range(n)])
    return MultiAgentProblem(maps=maps, W=W, algorithm=draw(st.sampled_from(ALGORITHMS)), initial=initial)


@settings(max_examples=300, deadline=None)
@given(problems(), st.integers(0, 25), st.sampled_from([1e-9, 1e-3, 1.0, 1e3]), st.integers(0, 7))
def test_solver_round_matches_the_row_by_row_reference_bit_for_bit(problem, max_iters, tol, k):
    with np.errstate(all="ignore"):
        want_states, want_iters, want_dg, want_vi, finite = _oracle_solve(problem, max_iters, tol)
        assume(finite)
        got = solve(problem, max_iters=max_iters, tol=tol)
        states = problem.initial
        stepped, want_stepped = step(problem, states, k), _oracle_step(problem, states, k)
        dg, vi, projected = _residuals(problem, states, k)
    want_projected = np.array([m.apply(x) for m, x in zip(problem.maps, states)])
    assert stepped.shape == want_stepped.shape and stepped.tobytes() == want_stepped.tobytes()
    assert (_bits(dg), _bits(vi)) == tuple(map(_bits, _oracle_residuals(problem, states)))
    assert projected.tobytes() == want_projected.tobytes()
    assert got.iterations == want_iters and got.converged == (want_dg[-1] < tol and want_vi[-1] < tol)
    assert list(map(_bits, got.disagreement_history)) == list(map(_bits, want_dg))
    assert list(map(_bits, got.violation_history)) == list(map(_bits, want_vi))
    assert _bits(got.agent_disagreement) == _bits(want_dg[-1])
    assert _bits(got.constraint_violation) == _bits(want_vi[-1])
    assert got.solution.tobytes() == want_states.mean(axis=0).tobytes()


def _vectors():
    rng = np.random.default_rng(5)
    base = rng.standard_normal(64) * 10.0 ** rng.integers(-3, 4, 64)
    grid = rng.standard_normal((9, 7))
    tiny = np.array([5e-324, -5e-324, 1e-310, 0.0, -0.0, 2.2e-308, -1e-320])
    yield from (base[:m] for m in (1, 2, 3, 4, 5, 7, 8, 16, 17, 33, 64))  # contiguous
    yield from (base[::2], base[1::3], base[::-1], base[60:3:-7], grid[:, 3], grid.T[2], grid[::2, 5])  # strided
    yield from (np.array([]), base[5:5], grid[:, 0:0][0], np.array([0.0, -0.0]), np.array([-0.0]))  # empty, zeros
    yield from (tiny, tiny[::-2], np.concatenate([tiny, [1e300, -1e300]]), np.array([1e200, 1e200]))


@pytest.mark.parametrize("v", list(_vectors()))
def test_norm_is_numpy_norm_bit_for_bit(v):
    with np.errstate(over="ignore"):  # 1e200 squared is inf on both sides
        assert _bits(_norm(v)) == _bits(float(np.linalg.norm(v)))


def _counting(maps, counter):
    def wrap(m):
        def apply(x):
            counter[0] += 1
            return m.apply(x)

        return Paracontraction(dimension=m.dimension, apply=apply)

    return tuple(wrap(m) for m in maps)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("max_iters", [1, 7, 20000])
def test_each_round_projects_every_agent_once(algorithm, max_iters):
    """The residuals' projections of the states are the only ones a round
    makes of them; pre_project and double_project also project the mixed
    states, which become the next states.  Those are projected again by the
    next round's residuals, since a second projection may move the last bit."""
    A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    b = A @ np.ones(3)
    counter = [0]
    maps = _counting([ConvexProjector.hyperplane(A[i], b[i]) for i in range(3)], counter)
    W = MatrixSequence.constant(np.full((3, 3), 1.0 / 3.0))
    result = solve(MultiAgentProblem(maps=maps, W=W, algorithm=algorithm, initial=np.zeros((3, 3))), max_iters=max_iters)
    K, n = result.iterations, 3
    assert result.converged == (max_iters == 20000)
    assert counter[0] == (K + 1) * n + (0 if algorithm == "convex_blend" else K * n)


def test_an_overflowing_state_raises():
    # The agents start finite, but their difference overflows at once.
    maps = (ConvexProjector.hyperplane([1.0, 1.0], 0.0), ConvexProjector.hyperplane([1.0, -1.0], 0.0))
    W = MatrixSequence.constant(np.full((2, 2), 0.5))
    initial = [[1e308, 1e308], [-1e308, 1e308]]
    problem = MultiAgentProblem(maps=maps, W=W, algorithm="convex_blend", initial=initial)
    with pytest.raises(ValueError, match=r"^solver state became non-finite at iteration 0$"):
        solve(problem)


def test_a_growing_state_raises_at_the_round_it_overflows():
    # x -> 1e100 x: the gap is 1e100 at round 0, and its square overflows at round 1.
    grow = Paracontraction(dimension=1, apply=lambda x: 1e100 * x)
    problem = MultiAgentProblem(maps=(grow,), W=MatrixSequence.constant([[1.0]]), algorithm="convex_blend", initial=[[1.0]])
    with pytest.raises(ValueError, match=r"^solver state became non-finite at iteration 1$"):
        solve(problem)


def test_a_nan_projection_after_the_first_agent_raises():
    # max() keeps a finite first residual over a later NaN; the check does not.
    ident = Paracontraction(dimension=1, apply=lambda x: x)
    broken = Paracontraction(dimension=1, apply=lambda x: x * math.nan)
    W = MatrixSequence.constant(np.full((2, 2), 0.5))
    for algorithm in ALGORITHMS:
        problem = MultiAgentProblem(maps=(ident, broken), W=W, algorithm=algorithm, initial=[[0.0], [1.0]])
        with pytest.raises(ValueError, match=r"^solver state became non-finite at iteration 0$"):
            solve(problem, max_iters=50)


# --- mixed problems: stacked groups beside generic maps ----------------------


def _mixed_maps(calls=None):
    """All five kinds, two affine shapes and two generic maps, interleaved.
    A generic map appends its agent's index to ``calls`` when applied."""

    def generic(i, p):
        def apply(x):
            if calls is not None:
                calls.append(i)
            return p.apply(x)

        return Paracontraction(dimension=3, apply=apply)

    return (
        ConvexProjector.hyperplane([1.0, 2.0, -1.0], 1.0),
        ConvexProjector.halfspace([0.0, 1.0, 1.0], 0.5),
        generic(2, ConvexProjector.ball([0.5, 0.5, 0.0], 2.0)),
        ConvexProjector.ball([0.0, -0.0, 0.0], 0.75),
        ConvexProjector.box([-1.0, -2.0, -math.inf], [0.25, 1.0, 1.5]),
        ConvexProjector.affine_subspace([[1.0, 1.0, 1.0]], [1.0]),
        generic(6, ConvexProjector.hyperplane([1.0, -1.0, 0.0], 0.0)),
        ConvexProjector.affine_subspace([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]], [1.0, 0.0]),
        ConvexProjector.hyperplane([0.0, 1.0, 3.0], 1.0),
        ConvexProjector.halfspace([1.0, 0.0, 0.0], math.inf),
        ConvexProjector.box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
    )


def _mixed_problem(algorithm, maps):
    n = len(maps)
    rng = np.random.default_rng(11)
    mats = []
    for _ in range(2):
        raw = rng.random((n, n)) * (rng.random((n, n)) < 0.5) + np.eye(n)
        mats.append(raw / raw.sum(axis=1, keepdims=True))
    initial = rng.standard_normal((n, 3)) * 4.0
    initial[3] = [-0.0, 0.0, -0.0]
    return MultiAgentProblem(maps=maps, W=MatrixSequence.explicit(mats, period=2), algorithm=algorithm, initial=initial)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_mixed_problem_keeps_agent_order_and_the_row_by_row_bits(algorithm):
    calls = []
    problem = _mixed_problem(algorithm, _mixed_maps(calls))
    got = solve(problem, max_iters=300, tol=1e-12)
    passes = (got.iterations + 1) * (1 if algorithm == "convex_blend" else 2) - (algorithm != "convex_blend")
    assert calls == [2, 6] * passes
    reference = _mixed_problem(algorithm, _mixed_maps())
    want_states, want_iters, want_dg, want_vi, finite = _oracle_solve(reference, 300, 1e-12)
    assert finite and got.iterations == want_iters
    assert list(map(_bits, got.disagreement_history)) == list(map(_bits, want_dg))
    assert list(map(_bits, got.violation_history)) == list(map(_bits, want_vi))
    assert got.solution.tobytes() == want_states.mean(axis=0).tobytes()
    for k in (0, 1, 5):
        assert step(problem, problem.initial, k).tobytes() == _oracle_step(problem, problem.initial, k).tobytes()


def _refusing(p):
    """``p`` with an ``apply`` that fails: its closed form must be used."""

    def apply(x):
        raise AssertionError("a projector was applied one agent at a time")

    return dataclasses.replace(p, apply=apply)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_solve_projects_convex_projectors_by_their_stacked_forms(algorithm):
    maps = _mixed_maps()
    want = solve(_mixed_problem(algorithm, maps), max_iters=40, tol=1e-12)
    refusing = tuple(_refusing(m) if isinstance(m, ConvexProjector) else m for m in maps)
    problem = _mixed_problem(algorithm, refusing)
    got = solve(problem, max_iters=40, tol=1e-12)
    assert got.iterations == want.iterations
    assert list(map(_bits, got.disagreement_history)) == list(map(_bits, want.disagreement_history))
    assert list(map(_bits, got.violation_history)) == list(map(_bits, want.violation_history))
    want_step = step(_mixed_problem(algorithm, maps), problem.initial, 3)
    assert step(problem, problem.initial, 3).tobytes() == want_step.tobytes()


# Points that a halfspace or ball leaves in place, where computing the
# projection anyway would overflow, divide by zero or multiply inf by 0.
_KEPT = [
    (ConvexProjector.halfspace([1e-150, 0.0], 0.0), [-1e200, 5.0]),
    (ConvexProjector.halfspace([1.0, 0.0], math.inf), [3.0, 5.0]),
    (ConvexProjector.ball([1.0, 2.0], 0.0), [1.0, 2.0]),
    (ConvexProjector.ball([1.0, 2.0], 1.0), [1.0, 2.0]),
    (ConvexProjector.ball([0.0, 0.0], math.inf), [3.0, 0.0]),
]


@pytest.mark.parametrize("p, x", _KEPT)
def test_a_point_left_in_place_raises_no_floating_point_error(p, x):
    x = np.array(x)
    with np.errstate(all="raise"):
        got = p.apply(x)
    assert got.tobytes() == x.tobytes()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_round_whose_rows_stay_put_raises_no_warning(algorithm):
    # Warnings are errors in this suite, and solve ignores only overflow and
    # invalid: the ball of radius 1 around its point would divide by zero.
    maps = tuple(p for p, _ in _KEPT[1:])
    initial = np.array([x for _, x in _KEPT[1:]])
    W = MatrixSequence.constant(np.eye(len(maps)))
    got = solve(MultiAgentProblem(maps=maps, W=W, algorithm=algorithm, initial=initial), max_iters=3)
    assert got.violation_history[0] == 0.0


# --- pinned sizes beyond the hypothesis range --------------------------------


def _pinned_maps(rng, n, d, kinds):
    """n projectors cycling through ``kinds``, each consistent with a point
    near the origin; one kind gives one group of all agents."""
    maps = []
    for i in range(n):
        kind, a = kinds[i % len(kinds)], rng.standard_normal(d) + 0.1
        if kind == "hyperplane":
            maps.append(ConvexProjector.hyperplane(a, float(rng.uniform(-1, 1))))
        elif kind == "halfspace":
            maps.append(ConvexProjector.halfspace(a, float(rng.uniform(-1, 1))))
        elif kind == "ball":
            maps.append(ConvexProjector.ball(rng.uniform(-0.5, 0.5, d), float(rng.uniform(0.5, 2.0))))
        elif kind == "box":
            lo = rng.uniform(-2.0, 0.0, d)
            maps.append(ConvexProjector.box(lo, lo + rng.uniform(0.5, 3.0, d)))
        else:
            A = rng.standard_normal((max(1, d // 2), d))
            maps.append(ConvexProjector.affine_subspace(A, A @ rng.uniform(-0.5, 0.5, d)))
    return tuple(maps)


def _pinned_problem(n, d, storage, algorithm, kinds):
    rng = np.random.default_rng([n, d, len(kinds)])
    maps = _pinned_maps(rng, n, d, kinds)
    mats = []
    for _ in range(3):
        raw = rng.random((n, n)) * (rng.random((n, n)) < 0.4) + np.eye(n) * rng.random(n)
        raw[rng.random((n, n)) < 0.2] = 0.0
        raw[raw.sum(axis=1) == 0, 0] = 1.0
        mats.append(raw / raw.sum(axis=1, keepdims=True))
    if storage == "constant":
        W = MatrixSequence.constant(mats[0])
    elif storage == "periodic":
        W = MatrixSequence.explicit(mats, period=3)
    else:
        W = MatrixSequence.from_generator(lambda k: mats[k * k % 3], n=n)
    initial = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-2, 3, (n, d))
    initial.flat[:: 5] = -0.0
    initial.flat[1:: 7] = 0.0
    initial.flat[2:: 11] = 5e-324
    return MultiAgentProblem(maps=maps, W=W, algorithm=algorithm, initial=initial)


_ALL_KINDS = ("hyperplane", "halfspace", "ball", "box", "affine_subspace")


@pytest.mark.parametrize("kinds", [("hyperplane",), _ALL_KINDS], ids=["one_form", "all_forms"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("storage", ["constant", "periodic", "generator"])
@pytest.mark.parametrize("d", [1, 7])
@pytest.mark.parametrize("n", [8, 13, 32])
def test_pinned_sizes_match_the_row_by_row_reference_bit_for_bit(n, d, storage, algorithm, kinds):
    """At these n the blend's axis-0 reduce adds 8, 13 and 32 terms a row:
    the order is the reference's at every size, with no pairwise split."""
    problem = _pinned_problem(n, d, storage, algorithm, kinds)
    max_iters = 12 if n < 32 else 5
    with np.errstate(all="ignore"):
        want_states, want_iters, want_dg, want_vi, finite = _oracle_solve(problem, max_iters, 1e-300)
        got = solve(problem, max_iters=max_iters, tol=1e-300)
        for k in (0, 1, 4):
            assert step(problem, want_states, k).tobytes() == _oracle_step(problem, want_states, k).tobytes()
        dg, vi, projected = _residuals(problem, want_states, max_iters)
    assert finite and got.iterations == want_iters == max_iters
    assert list(map(_bits, got.disagreement_history)) == list(map(_bits, want_dg))
    assert list(map(_bits, got.violation_history)) == list(map(_bits, want_vi))
    assert got.solution.tobytes() == want_states.mean(axis=0).tobytes()
    assert (_bits(dg), _bits(vi)) == tuple(map(_bits, _oracle_residuals(problem, want_states)))
    assert projected.tobytes() == np.array([m.apply(x) for m, x in zip(problem.maps, want_states)]).tobytes()


@pytest.mark.parametrize("n", [1, 2, 8, 13])
def test_a_blend_keeps_a_coordinate_whose_every_term_is_minus_zero(n):
    """Boxes around the origin keep -0.0, and w * -0.0 is -0.0 for every
    weight, so the reference's sum of column 0 is -0.0 in every row; a sum
    that started from +0.0 would give +0.0."""
    rng = np.random.default_rng(n)
    maps = tuple(ConvexProjector.box(-rng.uniform(1, 2, 3), rng.uniform(1, 2, 3)) for _ in range(n))
    raw = rng.random((n, n)) * (rng.random((n, n)) < 0.5) + np.eye(n)
    initial = rng.uniform(-3, 3, (n, 3))
    initial[:, 0] = -0.0
    W = MatrixSequence.constant(raw / raw.sum(axis=1, keepdims=True))
    problem = MultiAgentProblem(maps=maps, W=W, algorithm="convex_blend", initial=initial)
    stepped = step(problem, initial, 0)
    assert np.signbit(stepped[:, 0]).all()
    assert stepped.tobytes() == _oracle_step(problem, initial, 0).tobytes()
    want_states = _oracle_solve(problem, 6, 1e-300)[0]
    assert solve(problem, max_iters=6, tol=1e-300).solution.tobytes() == want_states.mean(axis=0).tobytes()


# --- the workspace stays inside one solve ------------------------------------


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_solves_share_no_state_and_leave_their_inputs_alone(algorithm):
    problem = _mixed_problem(algorithm, _mixed_maps())
    initial = problem.initial.tobytes()
    first, second = solve(problem, max_iters=60, tol=1e-12), solve(problem, max_iters=60, tol=1e-12)
    assert problem.initial.tobytes() == initial
    assert first.iterations == second.iterations
    assert list(map(_bits, first.disagreement_history)) == list(map(_bits, second.disagreement_history))
    assert list(map(_bits, first.violation_history)) == list(map(_bits, second.violation_history))
    assert first.solution.tobytes() == second.solution.tobytes()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_step_returns_a_fresh_array_and_leaves_its_input_alone(algorithm):
    problem = _mixed_problem(algorithm, _mixed_maps())
    states = problem.initial.copy()
    before = states.tobytes()
    first = step(problem, states, 0)
    second = step(problem, states, 0)
    assert states.tobytes() == before
    assert first is not states and not np.shares_memory(first, states)
    assert not np.shares_memory(first, second) and first.tobytes() == second.tobytes()
    assert not np.shares_memory(first, problem.initial)


def test_a_projection_from_the_residuals_is_not_overwritten_later():
    problem = _mixed_problem("convex_blend", _mixed_maps())
    _, _, projected = _residuals(problem, problem.initial, 0)
    kept = projected.copy()
    _residuals(problem, problem.initial * 2.0 + 1.0, 1)
    step(problem, problem.initial, 0)
    solve(problem, max_iters=5)
    assert projected.tobytes() == kept.tobytes()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_the_solution_does_not_alias_the_workspace(algorithm, monkeypatch):
    made, base = [], solvers._Workspace

    class Recording(base):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(solvers, "_Workspace", Recording)
    result = solve(_mixed_problem(algorithm, _mixed_maps()), max_iters=20)
    (ws,) = made
    buffers = [getattr(ws, name) for name in base.__slots__ if hasattr(ws, name)]
    buffers = [b for b in buffers if isinstance(b, np.ndarray)]
    assert len(buffers) >= 8 and result.solution.base is None
    assert not any(np.shares_memory(result.solution, b) for b in buffers)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_memory_of_a_long_generated_solve_does_not_grow_with_its_rounds(algorithm):
    """5 000 rounds on an aperiodic generated W whose matrices are each new
    objects.  The generator empties the sequence's cache, so what is still
    held at round k is the histories so far; the peak within each round,
    over what was held when it began, is what the round allocates for
    itself.  Both are read by the generator, which each round calls once."""
    n, d, rounds = 4, 2, 5000
    rng = np.random.default_rng(3)
    mats = [m / m.sum(axis=1, keepdims=True) for m in rng.random((5, n, n)) + 0.1]
    held, extra = np.zeros(rounds, dtype=np.int64), np.zeros(rounds, dtype=np.int64)  # allocated up front

    def generate(k):
        W.cache.clear()
        held[k], peak = tracemalloc.get_traced_memory()
        extra[k] = peak - held[k - 1]
        tracemalloc.reset_peak()
        return mats[(k * k + k // 7) % 5].copy()

    W = MatrixSequence.from_generator(generate, n=n)
    # Two parallel hyperplanes per coordinate pair: no common point, so no
    # round converges.
    maps = tuple(ConvexProjector.hyperplane([1.0, 1.0], float(i % 2)) for i in range(n))
    problem = MultiAgentProblem(maps=maps, W=W, algorithm=algorithm, initial=rng.standard_normal((n, d)))
    tracemalloc.start()
    try:
        result = solve(problem, max_iters=rounds)
    finally:
        tracemalloc.stop()
    assert not result.converged and result.iterations == rounds
    # Each round adds two history floats, 2 x (24 + 8) bytes with the list's
    # spare room; a kept table of W's coefficients would add 200 or more.
    assert (held[-1] - held[1000]) / (rounds - 1001) < 100
    # The temporaries of a round, the generated matrix's validation included,
    # take a few KiB at every round; a history list's growth adds a few more.
    assert extra[1:].max() < 16 * 1024
