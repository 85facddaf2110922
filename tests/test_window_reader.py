"""Window readers over ``MatrixSequence.block``: the persistent graph, the
window sums behind both balance checks, reciprocity, ``arc_count`` and the
flow of ``flow_contraction_bound``, bit for bit against the per-step
``seq.matrix(k)`` loops they replaced (kept here as reference oracles);
past-the-end windows; and the lookup path that every reader goes through."""

import dataclasses
import json

import numpy as np
import pytest

from raikit import (
    Cut,
    MatrixSequence,
    ReciprocityReport,
    WeightedDigraph,
    arc_count,
    check_arc_balance,
    check_reciprocity,
    check_uniform_cut_balance,
    flow_contraction_bound,
    persistent_graph,
)
from raikit.cli import SCHEMA_VERSION, main
from raikit.engine import _windowed_inflow
from raikit.graphs import _cut_constant, _max_closure, _unbalanced_cut, reachable
from raikit.sequences import (
    ArcBalanceReport,
    UniformCutBalanceReport,
    _default_horizon,
    _window_sums,
)
from raikit.tolerances import DIVERGENCE_THRESHOLD


# ---------------------------------------------------------------------------
# Reference oracles: the per-step loops, one ``seq.matrix(k)`` call a step.


def _reference_persistent(seq):
    """(partial sums, adjacency) of the step-by-step persistent graph."""
    n, p = seq.n, seq.period
    horizon = _default_horizon(seq)
    if p > 0:
        period_sum = np.zeros((n, n))
        for k in range(p):
            period_sum += seq.matrix(k).entries
        full, rem = divmod(max(horizon, p), p)
        partial = full * period_sum
        for k in range(rem):
            partial += seq.matrix(k).entries
        adjacency = period_sum > 0
    else:
        partial = np.zeros((n, n))
        for k in range(horizon):
            partial += seq.matrix(k).entries
        adjacency = partial >= DIVERGENCE_THRESHOLD
    return partial, adjacency


def _reference_window_sums(seq, L):
    """One running prefix per step, one difference per window start."""
    if seq.period > 0:
        k0_count, exact = seq.period, True
    else:
        k0_count, exact = max(_default_horizon(seq) - L, 1), False
    n = seq.n
    prefix = [np.zeros((n, n))]
    for k in range(k0_count + L):
        prefix.append(prefix[-1] + seq.matrix(k).entries)
    return [prefix[k0 + L + 1] - prefix[k0] for k0 in range(k0_count)], exact


def _reference_uniform_cut_balance(n, sums, exact):
    """Each window decided as a graph, then C over every window's cuts."""
    for k0, window in enumerate(sums):
        cut = _unbalanced_cut(WeightedDigraph(n=n, weights=window))
        if cut is not None:
            return UniformCutBalanceReport(holds=False, C=None, witness=(cut, k0), exact=exact)
    constants = [_cut_constant(window) for window in sums]
    C = None if None in constants else max(constants)
    return UniformCutBalanceReport(holds=True, C=C, witness=None, exact=exact)


def _reference_arc_balance(persistent, sums, exact):
    """A Python list of persistent arcs, one window at a time."""
    n = persistent.n
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and persistent.weights[i][j] > 0]
    if len(arcs) < 2:
        return ArcBalanceReport(holds=True, C=1.0, exact=exact)
    best = 1.0
    for window in sums:
        vals = [float(window[i, j]) for (i, j) in arcs]
        hi, lo = max(vals), min(vals)
        if hi > 0 and lo == 0:
            return ArcBalanceReport(holds=False, C=None, exact=exact)
        if lo > 0:
            best = max(best, hi / lo)
    return ArcBalanceReport(holds=True, C=best, exact=exact)


def _reference_check_reciprocity(seq, M, T):
    """The closure-based check over a list of per-step arc patterns."""
    n, p = seq.n, seq.period
    k0_count, exact = (p, True) if p > 0 else (_default_horizon(seq, M, T), False)
    span = p if p > 0 else (k0_count if T < k0_count else 0)
    active = [seq.matrix(k).entries > 0 for k in range(span)]
    for k0 in range(k0_count):
        k1_stop = k0 + p - 1 if p > 0 else k0_count - 1 - T
        seen = np.zeros((n, n), dtype=bool)
        heard, t, size = seen.copy(), k0, None
        for k1 in range(k0, k1_stop + 1):
            seen |= active[k1 % span]
            while t <= k1 + T:
                heard |= active[t % span]
                t += 1
            last, size = size, (int(seen.sum()), int(heard.sum()))
            if size == last:
                continue
            answers = WeightedDigraph(n=n, weights=heard)
            if len(reachable(answers, [0])) == n == len(reachable(answers, [0], reverse=True)):
                break
            weight = seen.sum(axis=1) - seen.sum(axis=0)
            if np.maximum(weight, 0).sum() < M:
                continue
            best, closure = _max_closure(weight, heard)
            if best >= M:
                return ReciprocityReport(False, M, T, Cut.of(closure, n), (k0, k1), exact)
    return ReciprocityReport(True, M, T, None, None, exact)


def _reference_arc_count(seq, I, J, k0, k1):
    """A per-step scan that stops once every pair has fired."""
    Il, Jl = sorted(set(I)), sorted(set(J))
    end = k1 if seq.period == 0 else min(k1, k0 + seq.period - 1)
    seen = np.zeros((len(Il), len(Jl)), dtype=bool)
    sub = np.ix_(Il, Jl)
    for k in range(k0, end + 1):
        seen |= seq.matrix(k).entries[sub] > 0
        if seen.all():
            break
    return int(seen.sum())


def _reference_inflow(seq, cut, k0, k0p, k1, eta):
    """The diagonal floor checked step by step, the flow added in a float."""
    sub = np.ix_(sorted(cut.left), sorted(cut.right))
    flow = 0.0
    for k in range(k0, k1 + 1):
        W = seq.matrix(k).entries
        diag = np.diag(W)
        if np.any(diag < eta):
            bad = int(np.argmin(diag))
            raise ValueError(
                f"diagonal weight {float(diag[bad])!r} of agent {bad} at step {k} is below eta={eta}"
            )
        if k >= k0p:
            flow += float(W[sub].sum())
    return flow


# ---------------------------------------------------------------------------
# Generated sequences: explicit periodic, explicit finite, and generator
# backed (aperiodic and periodic), from sparse rows whose raw entries span
# 1e-3 to 1e3 before they are divided by their row sums.


def _raw(rng, n):
    raw = rng.random((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
    raw *= rng.random((n, n)) < 0.5
    raw[np.arange(n), np.arange(n)] += 10.0 ** rng.uniform(-3, 3, n)  # every row nonzero
    return raw / raw.sum(axis=1, keepdims=True)


def _sequence(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))  # n >= 6 gives cuts of 8 or more entries, which numpy sums pairwise
    p = int(rng.integers(2, 6))  # a horizon can then leave a remainder
    if kind == "periodic":
        mats = [_raw(rng, n) for _ in range(p)]
        return MatrixSequence.explicit(mats, period=p, horizon_K=3 * p + int(rng.integers(1, p)))
    if kind == "finite":
        return MatrixSequence.explicit([_raw(rng, n) for _ in range(int(rng.integers(4, 14)))])
    if kind == "generator":
        return MatrixSequence.from_generator(
            lambda k: _raw(np.random.default_rng([seed, k]), n), n=n, horizon_K=int(rng.integers(5, 24))
        )
    return MatrixSequence.from_generator(
        lambda k: _raw(np.random.default_rng([seed, k % p]), n),
        n=n,
        period=p,
        horizon_K=5 * p + int(rng.integers(1, p)),
    )


def _outcome(fn, *args):
    """What a call returns, or the text of the ValueError it raises."""
    try:
        return "ok", fn(*args)
    except ValueError as e:
        return "raised", str(e)


KINDS = ["periodic", "finite", "generator", "generator_periodic"]
CASES = [(kind, seed) for kind in KINDS for seed in range(12)]


@pytest.mark.parametrize("kind, seed", CASES)
def test_persistent_graph_matches_the_step_loop_bit_for_bit(kind, seed):
    seq = _sequence(kind, seed)
    if seq.period > 0:
        assert _default_horizon(seq) % seq.period != 0  # the remainder is added
    partial, adjacency = _reference_persistent(seq)
    est = persistent_graph(seq)
    assert est.partial_sums.tobytes() == partial.tobytes()
    assert est.graph.weights.tobytes() == adjacency.astype(float).tobytes()
    assert est.exact == (seq.period > 0)


@pytest.mark.parametrize("kind, seed", CASES)
def test_window_sums_and_balance_checks_match_the_step_loops(kind, seed):
    seq = _sequence(kind, seed)
    _, adjacency = _reference_persistent(seq)
    persistent = WeightedDigraph(n=seq.n, weights=adjacency.astype(float))
    for L in range(4):
        old_sums, exact = _reference_window_sums(seq, L)
        sums, got_exact = _window_sums(seq, L)
        assert got_exact == exact
        assert sums.shape == (len(old_sums), seq.n, seq.n)
        assert sums.tobytes() == np.array(old_sums).tobytes()
        uniform = _reference_uniform_cut_balance(seq.n, old_sums, exact)
        assert check_uniform_cut_balance(seq, L).to_json() == uniform.to_json()
        arc = _reference_arc_balance(persistent, old_sums, exact)
        assert check_arc_balance(seq, L).to_json() == arc.to_json()


@pytest.mark.parametrize("kind, seed", CASES)
def test_reciprocity_matches_the_step_loop(kind, seed):
    seq = _sequence(kind, seed)
    for M in (1, 2, 3):
        for T in (0, 1, 2):
            want = _reference_check_reciprocity(seq, M, T)
            assert check_reciprocity(seq, M, T).to_json() == want.to_json()


@pytest.mark.parametrize("kind, seed", [case for case in CASES if case[0].endswith("periodic")])
def test_periodic_reciprocity_reads_one_period_of_responses(kind, seed):
    """Past one period a response window holds no new arc: every T up to
    p + 2 matches the step loop, and T = 10^15 returns at once with the
    report of T = p."""
    seq = _sequence(kind, seed)
    p = seq.period
    for M in (1, 2, 3):
        for T in range(p + 3):
            want = _reference_check_reciprocity(seq, M, T)
            assert check_reciprocity(seq, M, T).to_json() == want.to_json()
        huge = check_reciprocity(seq, M, 10**15)
        assert huge.T == 10**15
        assert dataclasses.replace(huge, T=p) == check_reciprocity(seq, M, p)


@pytest.mark.parametrize("kind, seed", CASES)
def test_arc_count_and_flow_bound_match_the_step_loops(kind, seed):
    seq = _sequence(kind, seed)
    n = seq.n
    rng = np.random.default_rng(seed + 1000)
    last = seq.known_length() or 30  # every window stays inside a finite list
    for _ in range(20):
        k0 = int(rng.integers(0, last))
        k1 = int(rng.integers(k0, last))
        side = rng.permutation(n)
        split = int(rng.integers(1, n))
        I, J = side[:split].tolist(), side[split:].tolist()
        assert arc_count(seq, I, J, k0, k1) == _reference_arc_count(seq, I, J, k0, k1)
        cut = Cut.of(I, n)
        k0p = int(rng.integers(k0, k1 + 1))
        diag = np.diagonal(seq.block(k0, k1 + 1), axis1=1, axis2=2)
        # half the floors hold on the whole window, half fail somewhere
        eta = float(diag.min()) if rng.random() < 0.5 else float(rng.uniform(diag.min(), 1.0))
        want = _outcome(_reference_inflow, seq, cut, k0, k0p, k1, eta)
        assert _outcome(_windowed_inflow, seq, cut, k0, k0p, k1, eta) == want
        got = _outcome(flow_contraction_bound, seq, cut, k0, k0p, k1, eta)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert got[1].hex() == float(np.exp(-eta * want[1])).hex()
        else:
            assert got[1] == want[1]


# ---------------------------------------------------------------------------
# Past the end of a finite list: the whole window is read before anything is
# decided, whether or not the earlier steps would decide the answer.


def test_arc_count_past_the_end_of_a_finite_sequence_raises():
    """The scan returned 1 once the only pair had fired at step 0."""
    pair = np.array([[0.5, 0.5], [0.0, 1.0]])
    for mats in ([pair] * 3, [np.eye(2)] * 3):
        seq = MatrixSequence.explicit(mats)
        with pytest.raises(ValueError, match="has no term k=3"):
            arc_count(seq, [0], [1], 0, 5)
    with pytest.raises(ValueError, match="has no term k=3"):
        _reference_arc_count(MatrixSequence.explicit([np.eye(2)] * 3), [0], [1], 0, 5)
    assert _reference_arc_count(MatrixSequence.explicit([pair] * 3), [0], [1], 0, 5) == 1


def test_flow_bound_past_the_end_of_a_finite_sequence_raises():
    """The step loop named the diagonal of step 0 before it reached k=3."""
    pair = np.array([[0.5, 0.5], [0.5, 0.5]])
    low = np.array([[0.1, 0.9], [0.5, 0.5]])
    cut = Cut.of([0], 2)
    for mats in ([pair] * 3, [low] + [pair] * 2):
        seq = MatrixSequence.explicit(mats)
        with pytest.raises(ValueError, match="has no term k=3"):
            flow_contraction_bound(seq, cut, 0, 0, 3, 0.3)
    with pytest.raises(ValueError, match="has no term k=3"):
        _reference_inflow(MatrixSequence.explicit([pair] * 3), cut, 0, 0, 3, 0.3)
    with pytest.raises(ValueError, match="at step 0"):
        _reference_inflow(MatrixSequence.explicit([low] + [pair] * 2), cut, 0, 0, 3, 0.3)


# ---------------------------------------------------------------------------
# The lookup path: ``block`` reads every step through ``MatrixSequence.matrix``
# and hands out a read-only array.


def test_block_is_read_only_and_shaped_by_its_window():
    mats = [np.eye(3), np.full((3, 3), 1 / 3)]
    seq = MatrixSequence.explicit(mats, period=2)
    b = seq.block(1, 4)
    assert b.shape == (3, 3, 3) and not b.flags.writeable
    with pytest.raises(ValueError):
        b[0, 0, 0] = 2.0
    for i, k in enumerate(range(1, 4)):
        assert b[i].tobytes() == seq.matrix(k).entries.tobytes()
    assert seq.block(2, 2).shape == (0, 3, 3)
    with pytest.raises(ValueError, match="0 <= k0 <= k1"):
        seq.block(3, 2)


def test_check_sequence_through_the_cli_reads_through_matrix(tmp_path, monkeypatch):
    assert "matrix" in MatrixSequence.__dict__
    original = MatrixSequence.__dict__["matrix"]
    calls = []

    def counted(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(MatrixSequence, "matrix", counted)
    seq = MatrixSequence.explicit([np.eye(2)], period=1)
    seq.block(0, 5)
    assert calls == [0, 1, 2, 3, 4]
    calls.clear()
    scenario = {
        "schema_version": SCHEMA_VERSION,
        "name": "lookup_path",
        "kind": "check_sequence",
        "parameters": {
            "sequence": {
                "kind": "gossip",
                "n": 3,
                "schedule": [[0, 1], [1, 2], [2, 0]],
                "alphas": 0.5,
                "fire_times": [0, 2, 4],
            },
            "M": 1,
            "T": 1,
            "L": 1,
        },
    }
    ref = tmp_path / "lookup_path.json"
    ref.write_text(json.dumps(scenario))
    assert main(["--out-dir", str(tmp_path), "check", str(ref)]) == 0
    assert len(calls) > 0
