"""One weight-sequence base behind ``MatrixSequence`` and
``SignedMatrixSequence``: the shared fields, the integer-period and
generator-period checks for both families, and the signed readers
(``run_altafini``, ``recover_structural_balance``, ``absolute_sequence``)
bit for bit against the per-step code they replaced, kept here as
reference oracles."""

import dataclasses
import re

import numpy as np
import pytest

import raikit.opinions
from raikit import (
    MatrixSequence,
    SignedMatrixSequence,
    StructuralBalanceReport,
    recover_structural_balance,
    run_altafini,
)
from raikit.engine import _check_x0, _iterate
from raikit.graphs import WeightedDigraph, reachable
from raikit.opinions import _coerce_signed
from raikit.products import product
from raikit.sequences import _WeightSequence
from raikit.tolerances import FEAS_TOL

# ---------------------------------------------------------------------------
# Reference oracles: one ``seq.matrix(k)`` call a step, validation of raw
# generator output in ``absolute_sequence``.


def _reference_altafini(seq, x0, steps):
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = _check_x0(x0, seq.n)
    matvec = product(seq.n)

    def step(k, x, delta, out):
        A = seq.matrix(k)
        matvec(A, x, out=out)
        mags = np.abs(x)
        np.subtract(matvec(np.abs(A), mags), np.abs(out), out=delta)
        if np.any(delta < -FEAS_TOL * np.maximum(1.0, mags.max())):
            raise RuntimeError(f"magnitude inequality violated at step {k}")

    return _iterate(x, steps, np.empty((steps, seq.n)), step)[0]


def _reference_balance(seq, horizon):
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n, p = seq.n, seq.period
    pos = np.zeros((n, n), dtype=bool)
    neg = np.zeros((n, n), dtype=bool)
    for k in range(max(horizon, p) - max(1, horizon // 4, p), max(horizon, p)):
        A = seq.matrix(k)
        pos |= A > 0
        neg |= A < 0
    signs = np.block([[pos, neg], [neg, pos]])
    lifted = WeightedDigraph(n=2 * n, weights=signs | signs.T)
    gauge = [0] * n
    for v in range(n):
        if gauge[v] == 0:
            reached = reachable(lifted, [v])
            if v + n in reached:
                return StructuralBalanceReport(balanced=False, gauge=None)
            for u in reached:
                gauge[u % n] = 1 if u < n else -1
    return StructuralBalanceReport(balanced=True, gauge=tuple(gauge))


def _reference_absolute(seq):
    if seq.matrices is not None:
        return MatrixSequence(n=seq.n, period=seq.period, matrices=tuple(np.abs(m) for m in seq.matrices))
    fn = seq.generator
    return MatrixSequence.from_generator(lambda k: np.abs(_coerce_signed(seq.n, fn(k))), seq.n, period=seq.period)


# ---------------------------------------------------------------------------
# Signed steps and the storage modes.


def _signed_step(rng, n, balanced):
    """A signed step: random magnitudes on a random pattern, signs either
    of one fixed gauge (balanced) or random off the diagonal."""
    W = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(W, rng.random(n) + 0.1)
    W /= W.sum(axis=1, keepdims=True)
    if balanced:
        d = np.where(np.arange(n) % 3 == 1, -1.0, 1.0)
        return d[:, None] * W * d[None, :]
    signs = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    np.fill_diagonal(signs, 1.0)
    return signs * W


def _generated(seed, n, balanced):
    def fn(k):
        return _signed_step(np.random.default_rng([seed, k]), n, balanced)

    return fn


# (name, factory) pairs; each factory builds a fresh sequence.
def _storages(seed, n, balanced):
    rng = np.random.default_rng(seed)
    mats = [_signed_step(rng, n, balanced) for _ in range(12)]
    return [
        ("constant", lambda: SignedMatrixSequence.constant(mats[0])),
        ("periodic", lambda: SignedMatrixSequence.explicit(mats[:3], period=3)),
        ("long_period", lambda: SignedMatrixSequence.explicit(mats, period=12)),
        ("finite", lambda: SignedMatrixSequence.explicit(mats)),
        ("generator_periodic", lambda: SignedMatrixSequence.from_generator(lambda k: mats[k % 4], n, period=4)),
        ("generator_aperiodic", lambda: SignedMatrixSequence.from_generator(_generated(seed, n, balanced), n)),
    ]


CASES = [(seed, n, balanced) for seed, n in ((0, 1), (1, 2), (2, 4), (3, 7)) for balanced in (False, True)]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(fn):
    try:
        return fn()
    except ValueError as err:
        return ("ValueError", str(err))


@pytest.mark.parametrize("seed, n, balanced", CASES)
@pytest.mark.parametrize("steps", [0, 1, 5, 11, 12, 13, 40])
def test_run_altafini_matches_the_per_step_run_bit_for_bit(seed, n, balanced, steps):
    x0 = np.random.default_rng(seed + 100).normal(size=n)
    for name, make in _storages(seed, n, balanced):
        got = _outcome(lambda: run_altafini(make(), x0, steps))
        want = _outcome(lambda: _reference_altafini(make(), x0, steps))
        if isinstance(want, tuple):  # a finite list too short for the run
            assert name == "finite" and steps > 12
            assert got == want == ("ValueError", "finite sequence of length 12 has no term k=12")
            continue
        for field in ("states", "residuals", "M", "m", "d"):
            assert _same_bits(getattr(got, field), getattr(want, field)), (name, field)


def test_a_too_short_signed_list_raises_before_the_first_step(monkeypatch):
    """The weights are fetched before the step loop starts, with the
    message of the per-step run."""

    def no_loop(*args, **kwargs):
        raise AssertionError("the step loop ran")

    monkeypatch.setattr(raikit.opinions, "_iterate", no_loop)
    with pytest.raises(ValueError, match="finite sequence of length 3 has no term k=3"):
        run_altafini(SignedMatrixSequence.explicit([np.eye(2)] * 3), [1.0, -1.0], 5)


@pytest.mark.parametrize("seed, n, balanced", CASES)
@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 7, 12, 13, 30])
def test_structural_balance_through_block_matches_the_per_step_tail(seed, n, balanced, horizon):
    for name, make in _storages(seed, n, balanced):
        got = _outcome(lambda: recover_structural_balance(make(), horizon))
        want = _outcome(lambda: _reference_balance(make(), horizon))
        assert got == want, name
        if not isinstance(got, tuple):
            assert got.gauge == want.gauge and got.to_json() == want.to_json()


@pytest.mark.parametrize("seed, n, balanced", CASES)
def test_absolute_sequence_maps_the_validated_matrices(seed, n, balanced):
    for name, make in _storages(seed, n, balanced):
        seq = make()
        got, want = seq.absolute_sequence(), _reference_absolute(seq)
        assert type(got) is MatrixSequence
        assert (got.n, got.period, got.horizon_K) == (want.n, want.period, want.horizon_K)
        assert (got.matrices is None) == (want.matrices is None) == (seq.matrices is None)
        count = 12 if name == "finite" else 30
        assert _same_bits(got.block(0, count), want.block(0, count)), name


def test_absolute_sequence_of_a_generator_validates_each_step_once():
    calls = []

    def gen(k):
        calls.append(k)
        return _signed_step(np.random.default_rng(k), 3, False)

    seq = SignedMatrixSequence.from_generator(gen, 3)
    absolute = seq.absolute_sequence()
    absolute.block(0, 4)
    seq.block(0, 4)
    assert calls == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# The base and its checks, shared by both families.


def test_both_families_are_siblings_on_one_base():
    assert issubclass(MatrixSequence, _WeightSequence) and issubclass(SignedMatrixSequence, _WeightSequence)
    assert not issubclass(SignedMatrixSequence, MatrixSequence)
    assert not issubclass(MatrixSequence, SignedMatrixSequence)
    base = [f.name for f in dataclasses.fields(_WeightSequence)]
    assert base == ["n", "period", "matrices", "generator"]
    assert [f.name for f in dataclasses.fields(SignedMatrixSequence)] == base
    assert [f.name for f in dataclasses.fields(MatrixSequence)] == base + ["horizon_K"]
    assert "__post_init__" not in SignedMatrixSequence.__dict__
    assert "__post_init__" not in MatrixSequence.__dict__
    for cls in (MatrixSequence, SignedMatrixSequence):
        assert "matrix" in cls.__dict__  # a method perfbench's tracer patches on its own class
        assert "block" not in cls.__dict__


def _signed_break(k):
    return np.eye(2) if k == 0 else np.array([[0.5, -0.5], [0.5, 0.5]])


def _matrix_break(k):
    return np.eye(2) if k == 0 else np.full((2, 2), 0.5)


@pytest.mark.parametrize("cls, fn", [(MatrixSequence, _matrix_break), (SignedMatrixSequence, _signed_break)])
def test_a_generator_that_breaks_its_declared_period_raises_in_both_families(cls, fn):
    with pytest.raises(ValueError, match="generator violates its declared period at k=0"):
        cls.from_generator(fn, n=2, period=3)
    cls.from_generator(fn, n=2)  # no declared period, nothing to break
    cls.from_generator(lambda k: fn(0), n=2, period=3)


@pytest.mark.parametrize("cls", [MatrixSequence, SignedMatrixSequence])
@pytest.mark.parametrize("period", [2.0, True, False, -1, "2", None, np.float64(1.0)])
def test_period_must_be_an_integer_in_both_families(cls, period):
    with pytest.raises(ValueError, match=re.escape(f"period must be an integer >= 0, got {period!r}")):
        cls(n=2, period=period, generator=lambda k: np.eye(2))
    with pytest.raises(ValueError, match="period must be an integer >= 0"):
        cls(n=2, period=period, matrices=(np.eye(2),))


@pytest.mark.parametrize("cls", [MatrixSequence, SignedMatrixSequence])
def test_integer_periods_of_numpy_type_are_accepted(cls):
    seq = cls(n=2, period=np.int64(2), matrices=(np.eye(2), np.eye(2)))
    assert seq.period == 2 and seq.block(0, 3).shape == (3, 2, 2)


def test_signed_block_reads_through_matrix_and_is_read_only():
    seq = SignedMatrixSequence.explicit([np.eye(2), [[0.5, -0.5], [0.5, 0.5]]], period=2)
    block = seq.block(1, 4)
    assert not block.flags.writeable
    assert _same_bits(block, np.array([seq.matrix(k) for k in range(1, 4)]))
    with pytest.raises(ValueError, match="finite sequence of length 2 has no term k=2"):
        SignedMatrixSequence.explicit([np.eye(2)] * 2).block(0, 3)
    with pytest.raises(ValueError, match="block needs 0 <= k0 <= k1"):
        seq.block(2, 1)
    assert seq.block(0, 0).shape == (0, 2, 2)


def test_signed_generator_cache_is_bound_like_the_matrix_one():
    seq = SignedMatrixSequence.from_generator(lambda k: np.eye(2), n=2)
    seq.block(0, 3)
    assert sorted(seq.cache) == [0, 1, 2] and seq.cache is seq._store.cache
