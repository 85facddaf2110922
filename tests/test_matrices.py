"""Stochastic and substochastic matrix verdicts against dense eigen-oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raikit.matrices
from raikit import (
    RowStochasticMatrix,
    SubstochasticMatrix,
    check_sia,
    is_primitive,
    schur_stability_by_reachability,
    spectral_radius,
    stochastic_completion,
)
from raikit.products import product
from raikit.tolerances import EIG_TOL, ROW_SUM_TOL

FRENCH = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]])


def _random_stochastic(rng, n, density=1.0):
    raw = rng.random((n, n)) * (rng.random((n, n)) < density)
    raw[np.arange(n), rng.integers(0, n, n)] += 0.1  # keep every row nonzero
    return RowStochasticMatrix(n=n, entries=raw / raw.sum(axis=1, keepdims=True))


def test_row_stochastic_validation():
    with pytest.raises(ValueError):
        RowStochasticMatrix(n=2, entries=np.array([[1.1, -0.1], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        RowStochasticMatrix(n=2, entries=np.array([[0.6, 0.5], [0.5, 0.5]]))
    # tiny off-sums are renormalized to exact unit rows
    w = RowStochasticMatrix(n=1, entries=np.array([[1.0 + 5e-10]]))
    assert w.entries[0][0] == 1.0


def test_row_sums_exact_and_revalidation_stable():
    raw = np.full((10, 10), 0.1)  # float sum is 0.9999999999999999
    w = RowStochasticMatrix(n=10, entries=raw)
    assert np.all(w.entries.sum(axis=1) == 1.0)
    again = RowStochasticMatrix(n=10, entries=w.entries.copy())
    assert np.array_equal(again.entries, w.entries)


def test_tiny_entries_flushed_to_zero():
    w = RowStochasticMatrix(n=2, entries=np.array([[1.0, 1e-16], [0.5, 0.5]]))
    assert w.entries[0][1] == 0.0
    assert (0, 0) in w.graph().arc_set()
    assert (1, 0) not in w.graph().arc_set()


def test_substochastic_validation_and_deficiency():
    A = SubstochasticMatrix(n=2, entries=np.array([[0.3, 0.3], [0.5, 0.5]]))
    assert A.deficiency_set == frozenset({0})
    with pytest.raises(ValueError):
        SubstochasticMatrix(n=2, entries=np.array([[0.8, 0.3], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        SubstochasticMatrix(n=2, entries=np.array([[-0.1, 0.5], [0.5, 0.5]]))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
def test_substochastic_rows_scaled_down_sum_to_one_within_rounding(n):
    """Rows with sum in (1, 1 + ROW_SUM_TOL] are only divided by their sum,
    so they may end a few ulp above or below 1, but never deficient."""
    rng = np.random.default_rng(n)
    for _ in range(200):
        raw = rng.random((n, n))
        raw /= raw.sum(axis=1, keepdims=True)
        raw *= 1.0 + rng.uniform(0.0, ROW_SUM_TOL, (n, 1))
        A = SubstochasticMatrix(n=n, entries=raw)
        assert np.all(np.abs(A.entries.sum(axis=1) - 1.0) <= n * np.finfo(float).eps)
        assert A.deficiency_set == frozenset()


def test_sia_leader_chain():
    verdict = check_sia(RowStochasticMatrix(n=3, entries=FRENCH))
    assert verdict.is_sia
    assert verdict.reason == "ok"
    assert verdict.pi == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)


def test_sia_negative_reasons():
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    v = check_sia(RowStochasticMatrix(n=3, entries=perm))
    assert not v.is_sia and v.reason == "periodic_source" and v.pi is None

    two = np.array(
        [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0.25, 0.25, 0.25, 0.25], [0, 0, 0.5, 0.5]]
    )
    v2 = check_sia(RowStochasticMatrix(n=4, entries=two))
    assert not v2.is_sia and v2.reason == "multiple_sources"


def test_sia_pi_matches_eigen_oracle_and_powers():
    rng = np.random.default_rng(31)
    tested = 0
    while tested < 20:
        n = int(rng.integers(2, 7))
        W = _random_stochastic(rng, n, density=0.7)
        if not is_primitive(W):
            continue
        tested += 1
        v = check_sia(W)
        assert v.is_sia
        vals, vecs = np.linalg.eig(W.entries.T)
        lead = np.argmin(np.abs(vals - 1.0))
        pi_oracle = np.real(vecs[:, lead])
        pi_oracle = pi_oracle / pi_oracle.sum()
        assert np.asarray(v.pi) == pytest.approx(pi_oracle, abs=1e-8)
        P = np.linalg.matrix_power(W.entries, 500)
        assert P == pytest.approx(np.outer(np.ones(n), v.pi), abs=1e-8)


def test_primitivity_examples():
    assert not is_primitive(RowStochasticMatrix(n=2, entries=np.eye(2)))
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert not is_primitive(RowStochasticMatrix(n=3, entries=perm))
    lazy = 0.5 * np.eye(4) + 0.5 * np.roll(np.eye(4), 1, axis=1)
    W = RowStochasticMatrix(n=4, entries=lazy)
    assert is_primitive(W)
    assert not (np.linalg.matrix_power(lazy, 2) > 0).all()
    assert (np.linalg.matrix_power(lazy, 3) > 0).all()
    assert (np.linalg.matrix_power(lazy, 4) > 0).all()


def _positive_power(W):
    """Boolean powering: some power of the pattern of W up to the exponent
    n^2 - 2n + 2 (Wielandt) is entrywise positive."""
    n = W.n
    B = (W.entries > 0).astype(int)
    P = B.copy()
    for _ in range(n * n - 2 * n + 1):
        if P.all():
            return True
        P = np.minimum(P @ B, 1)
    return bool(P.all())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**100 - 1))
def test_primitivity_matches_boolean_powering(n, bits):
    pattern = np.array([[(bits >> (i * n + j)) & 1 for j in range(n)] for i in range(n)], dtype=float)
    empty = ~pattern.any(axis=1)
    pattern[empty, (np.flatnonzero(empty) + 1) % n] = 1.0  # every row needs an entry
    W = RowStochasticMatrix(n=n, entries=pattern / pattern.sum(axis=1, keepdims=True))
    assert is_primitive(W) is _positive_power(W)


@pytest.mark.parametrize("n", range(1, 11))
def test_primitivity_of_cycles_with_one_chord_matches_boolean_powering(n):
    """The n-cycle (j = -1) is primitive only at n = 1; a chord j -> 0 adds
    a cycle of length (n - j) % n + 1, primitive iff coprime to n."""
    answers = set()
    for j in range(-1, n):
        pattern = np.roll(np.eye(n), 1, axis=1)  # arcs i + 1 -> i
        if j >= 0:
            pattern[0, j] = 1.0
        W = RowStochasticMatrix(n=n, entries=pattern / pattern.sum(axis=1, keepdims=True))
        primitive = n == 1 if j < 0 else math.gcd(n, (n - j) % n + 1) == 1
        assert is_primitive(W) is _positive_power(W) is primitive
        answers.add(primitive)
    assert answers == ({True} if n == 1 else {True, False})


def test_primitivity_forms_no_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("is_primitive formed a product")

    monkeypatch.setattr(raikit.matrices, "product", no_product)
    ring = RowStochasticMatrix(n=64, entries=np.roll(np.eye(64), 1, axis=1))
    assert not is_primitive(ring)
    lazy = RowStochasticMatrix(n=64, entries=0.5 * ring.entries + 0.5 * np.eye(64))
    assert is_primitive(lazy)


def test_spectral_radius_cases():
    assert spectral_radius(SubstochasticMatrix(n=2, entries=np.zeros((2, 2)))) == 0.0
    sto = SubstochasticMatrix(n=3, entries=FRENCH)
    assert spectral_radius(sto) == pytest.approx(1.0, abs=1e-10)
    A = np.array([[0.5, 0.4], [0.3, 0.6]])
    # dominant root of z^2 - 1.1 z + 0.18
    root = (1.1 + np.sqrt(1.1**2 - 4 * 0.18)) / 2
    assert spectral_radius(SubstochasticMatrix(n=2, entries=A)) == pytest.approx(root, abs=1e-10)
    nil = SubstochasticMatrix(n=2, entries=np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert spectral_radius(nil) == pytest.approx(0.0, abs=1e-10)


def _spectral_radius_reference(A):
    """spectral_radius as it was before one product per round: B @ w formed
    three times a round, for the quotient, the residual and the next iterate."""
    n = A.n
    B = A.entries + np.eye(n)
    mul = product(n)
    v = np.full(n, 1.0)
    rayleigh = 0.0
    converged = False
    for _ in range(100 * n):
        w = mul(B, v)
        norm = float(np.max(np.abs(w)))
        if norm == 0.0:
            return 0.0
        w = w / norm
        new_rayleigh = float(mul(w, mul(B, w))) / float(mul(w, w))
        residual = float(np.max(np.abs(mul(B, w) - new_rayleigh * w)))
        if abs(new_rayleigh - rayleigh) < EIG_TOL / 10 and residual < EIG_TOL:
            v = w
            rayleigh = new_rayleigh
            converged = True
            break
        v = w
        rayleigh = new_rayleigh
    if not converged:
        vals = np.linalg.eigvals(A.entries)
        return float(np.max(np.abs(vals)))
    return max(rayleigh - 1.0, 0.0)


def test_spectral_radius_equals_its_three_product_loop_bit_for_bit():
    rng = np.random.default_rng(20)
    cases = [np.zeros((n, n)) for n in (1, 2, 5)] + [FRENCH, np.array([[0.0, 1.0], [1.0, 0.0]])]
    for trial in range(300):
        n = 1 + trial % 11
        raw = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 1.0))
        cases.append(raw / max(raw.sum(axis=1).max(), 1e-300) * rng.uniform(0.5, 1.0))
    for e in cases:
        A = SubstochasticMatrix(n=e.shape[0], entries=e)
        assert spectral_radius(A) == _spectral_radius_reference(A)


def test_reachability_stability_edges():
    strict = SubstochasticMatrix(n=3, entries=np.full((3, 3), 0.2))
    v = schur_stability_by_reachability(strict)
    assert v.stable and v.unreachable_nodes == frozenset()

    sto = SubstochasticMatrix(n=3, entries=FRENCH)
    v2 = schur_stability_by_reachability(sto)
    assert not v2.stable and v2.unreachable_nodes == frozenset({0, 1, 2})


def test_one_deficient_irreducible_is_stable():
    rng = np.random.default_rng(13)
    done = 0
    while done < 15:
        n = int(rng.integers(2, 7))
        W = _random_stochastic(rng, n, density=0.8)
        if not is_primitive(W):
            continue
        entries = W.entries.copy()
        entries[0] *= 0.9
        A = SubstochasticMatrix(n=n, entries=entries)
        done += 1
        assert schur_stability_by_reachability(A).stable
        assert spectral_radius(A) < 1 - 1e-12


def test_completion_fixed_point_and_formula():
    W = RowStochasticMatrix(n=3, entries=FRENCH)
    A = SubstochasticMatrix(n=3, entries=W.entries)
    assert np.array_equal(stochastic_completion(A).entries, W.entries)

    zero = SubstochasticMatrix(n=2, entries=np.zeros((2, 2)))
    assert np.array_equal(stochastic_completion(zero).entries, np.full((2, 2), 0.5))

    A2 = SubstochasticMatrix(n=2, entries=np.array([[0.5, 0.2], [0.0, 0.9]]))
    C = stochastic_completion(A2)
    assert np.allclose(C.entries, [[0.65, 0.35], [0.05, 0.95]], atol=1e-12)
    assert np.all(C.entries.sum(axis=1) == 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6))
def test_completion_dominates_entrywise(seed, n):
    rng = np.random.default_rng(seed)
    raw = rng.random((n, n))
    raw = raw / (raw.sum(axis=1, keepdims=True) + rng.random((n, 1)) * 2)
    A = SubstochasticMatrix(n=n, entries=raw)
    C = stochastic_completion(A)
    assert np.all(C.entries >= A.entries - 1e-15)
    assert np.all(C.entries.sum(axis=1) == 1.0)


def test_sia_diameter_forgets_monotonically():
    rng = np.random.default_rng(55)
    done = 0
    while done < 10:
        n = int(rng.integers(2, 6))
        W = _random_stochastic(rng, n)
        if not check_sia(W).is_sia:
            continue
        done += 1
        x = rng.random(n) * 10
        diam_prev = x.max() - x.min()
        for _ in range(80):
            x = W.entries @ x
            diam = x.max() - x.min()
            assert diam <= diam_prev + 1e-12
            diam_prev = diam
        assert diam_prev < 1e-6 or n == 1


def test_value_equality_returns_bools_and_stays_unhashable():
    from raikit import MatrixSequence, WeightedDigraph

    half = [[0.5, 0.5], [0.0, 1.0]]
    deficient = [[0.5, 0.0], [0.0, 1.0]]
    pairs = [
        (RowStochasticMatrix.from_rows, np.eye(2), half),
        (SubstochasticMatrix.from_rows, deficient, [[0.5, 0.25], [0.0, 1.0]]),
        (WeightedDigraph.from_weights, np.eye(2), half),
        (lambda rows: MatrixSequence.explicit([rows], period=1), np.eye(2), half),
    ]
    for make, rows, other_rows in pairs:
        a, b, c = make(rows), make(rows), make(other_rows)
        assert (a == b) is True and (a != b) is False
        assert (a == c) is False and (a != c) is True
        assert (a == "not a matrix") is False
        with pytest.raises(TypeError):
            hash(a)
    # the same entries under another type are not equal
    assert RowStochasticMatrix.from_rows(np.eye(2)) != WeightedDigraph.from_weights(np.eye(2))
    # a sequence's horizon is part of its value
    one = MatrixSequence.explicit([np.eye(2)], period=1)
    assert one != MatrixSequence.explicit([np.eye(2)], period=1, horizon_K=5)


@pytest.mark.parametrize("n", [1, 3, 64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_accepted_matrices_take_no_finite_pass(monkeypatch, n, order):
    """The finite check runs only after the bit-pattern bound fails, so it
    stays off the path of every matrix that is accepted."""
    rng = np.random.default_rng(n)
    raw = rng.random((n, n)) + 0.1
    if n > 1:
        raw[:, 0] = 1e-16  # tiny entries to flush
    stochastic = raw / raw.sum(axis=1, keepdims=True)
    stochastic[0] *= 1.0 + 1e-12  # a row to renormalize
    sub = stochastic * 0.9
    sub[-1] = stochastic[-1] * (1.0 + 1e-12)  # a row to scale down
    calls, isfinite = [], np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *args, **kw: calls.append(1) or isfinite(*args, **kw))
    W = RowStochasticMatrix(n=n, entries=np.array(stochastic, order=order))
    A = SubstochasticMatrix(n=n, entries=np.array(sub, order=order))
    assert calls == []
    assert np.all(W.entries.sum(axis=1) == 1.0) and float(A.entries[-1].sum()) <= 1.0
    if n > 1:
        assert not W.entries[:, 0].any()  # flushed
    nan = W.entries.copy()
    nan[-1, -1] = np.nan
    for cls in (RowStochasticMatrix, SubstochasticMatrix):
        calls.clear()
        with pytest.raises(ValueError, match="^entries must be finite$"):
            cls(n=n, entries=nan)
        assert calls == [1]
