"""Projectors as closed-form paracontractions: bitwise agreement with the
kind-dispatch projection they replaced, identity equality, and the rules for
NaN and infinite parameters and for parameter ranks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from raikit import ConvexProjector, MatrixSequence, MultiAgentProblem

INF, NAN = math.inf, math.nan


def _oracle_params(kind, args):
    """The parameters the kind-dispatch constructors stored."""
    if kind in ("hyperplane", "halfspace"):
        a = np.asarray(args[0], dtype=float)
        return {"a": a, "b": float(args[1]), "nrm2": float(a @ a)}
    if kind == "ball":
        return {"center": np.asarray(args[0], dtype=float), "r": float(args[1])}
    if kind == "box":
        return {"lo": np.asarray(args[0], dtype=float), "hi": np.asarray(args[1], dtype=float)}
    A = np.asarray(args[0], dtype=float)
    return {"A": A, "b": np.asarray(args[1], dtype=float), "pinv": np.linalg.pinv(A)}


def _oracle_apply(kind, p, dimension, xi):
    """The kind-dispatch ``ConvexProjector.apply``, kept verbatim as the
    reference for the closed-form closures."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (dimension,):
        raise ValueError(f"point must have dimension {dimension}")
    if kind == "hyperplane":
        return xi - ((p["a"] @ xi - p["b"]) / p["nrm2"]) * p["a"]
    if kind == "halfspace":
        slack = p["a"] @ xi - p["b"]
        if slack <= 0:
            return xi
        return xi - (slack / p["nrm2"]) * p["a"]
    if kind == "ball":
        off = xi - p["center"]
        dist = float(np.linalg.norm(off))
        if dist <= p["r"]:
            return xi
        return p["center"] + (p["r"] / dist) * off
    if kind == "box":
        return np.clip(xi, p["lo"], p["hi"])
    if kind == "affine_subspace":
        return xi - p["pinv"] @ (p["A"] @ xi - p["b"])
    raise ValueError(f"unknown projector kind {kind!r}")


# Signed zeros, subnormals and both signs; magnitudes up to 1e3.
coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def projector_cases(draw):
    d = draw(st.integers(1, 4))
    vec = st.lists(coord, min_size=d, max_size=d)
    kind = draw(st.sampled_from(["hyperplane", "halfspace", "ball", "box", "affine_subspace"]))
    if kind == "hyperplane":
        args = (draw(vec), draw(coord))
    elif kind == "halfspace":
        args = (draw(vec), draw(coord | st.just(INF)))
    elif kind == "ball":
        args = (draw(vec), draw(st.floats(0, 1e3) | st.just(INF)))
    elif kind == "box":
        x = np.array(draw(st.lists(coord | st.just(-INF), min_size=d, max_size=d)))
        y = np.array(draw(st.lists(coord | st.just(INF), min_size=d, max_size=d)))
        args = (np.minimum(x, y), np.maximum(x, y))
    else:
        m = draw(st.integers(1, d))
        A = np.array([draw(vec) for _ in range(m)])
        args = (A, A @ np.array(draw(vec)))
    try:
        with np.errstate(all="ignore"):  # pinv of a tiny A may overflow
            projector = getattr(ConvexProjector, kind)(*args)
    except ValueError:  # zero normal, or equations too ill-conditioned to pass as consistent
        assume(False)
    return kind, args, projector, np.array(draw(vec))


@settings(max_examples=400, deadline=None)
@given(projector_cases())
def test_closed_forms_match_the_kind_dispatch_bit_for_bit(case):
    kind, args, projector, xi = case
    with np.errstate(all="ignore"):  # a tiny normal may overflow; both sides must agree on inf too
        got = projector.apply(xi)
        want = _oracle_apply(kind, _oracle_params(kind, args), projector.dimension, xi)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match=f"point must have dimension {projector.dimension}$"):
        projector.apply(np.append(xi, 0.0))


def test_projector_equals_only_itself():
    p = ConvexProjector.hyperplane([1, 0], 1)
    q = ConvexProjector.hyperplane([0, 1], 5)
    assert p == p
    assert p != q
    assert p != ConvexProjector.hyperplane([1, 0], 1)
    assert len({p, q}) == 2


@pytest.mark.parametrize(
    "kind, args, message",
    [
        ("hyperplane", ([INF, 0.0], 1.0), "finite"),
        ("hyperplane", ([1.0, -INF], 1.0), "finite"),
        ("hyperplane", ([1.0, 0.0], NAN), "finite"),
        ("hyperplane", ([1.0, 0.0], INF), "finite"),
        ("hyperplane", ([1.0, 0.0], -INF), "finite"),
        ("halfspace", ([INF, 0.0], 1.0), "finite"),
        ("halfspace", ([1.0, 0.0], -INF), "-inf"),
        ("halfspace", ([1.0, 0.0], NAN), "-inf"),
        ("ball", ([0.0, 0.0], NAN), ">= 0"),
        ("ball", ([INF, 0.0], 1.0), "finite"),
        ("ball", ([NAN, 0.0], 1.0), "finite"),
        ("box", ([INF, 0.0], [INF, 1.0]), "lo < inf"),
        ("box", ([0.0, -INF], [1.0, -INF]), "hi > -inf"),
        ("box", ([NAN, 0.0], [1.0, 1.0]), "lo < inf"),
        ("box", ([0.0, 0.0], [1.0, NAN]), "hi > -inf"),
        ("affine_subspace", ([[INF, 0.0]], [1.0]), "finite"),
        ("affine_subspace", ([[NAN, 1.0]], [0.0]), "finite"),
        ("affine_subspace", ([[1.0, 0.0]], [NAN]), "finite"),
        ("affine_subspace", ([[1.0, 0.0]], [INF]), "finite"),
    ],
)
def test_non_finite_parameters_are_rejected(kind, args, message):
    with pytest.raises(ValueError, match=message):
        getattr(ConvexProjector, kind)(*args)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_non_finite_initial_states_are_rejected(bad):
    h = ConvexProjector.hyperplane([1.0, 0.0], 1.0)
    W = MatrixSequence.constant(np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="initial states must be finite"):
        MultiAgentProblem(maps=(h, h), W=W, algorithm="pre_project", initial=[[0.0, bad], [0.0, 0.0]])


@pytest.mark.parametrize(
    "kind, args, message",
    [
        ("hyperplane", ([[1.0, 0.0]], 1.0), r"^hyperplane a must be a 1-D vector, got shape \(1, 2\)$"),
        ("hyperplane", (2.0, 1.0), r"^hyperplane a must be a 1-D vector, got shape \(\)$"),
        ("halfspace", ([[1.0], [0.0]], 1.0), r"^halfspace a must be a 1-D vector, got shape \(2, 1\)$"),
        ("ball", ([[0.0, 0.0]], 1.0), r"^ball center must be a 1-D vector, got shape \(1, 2\)$"),
        ("ball", (0.0, 1.0), r"^ball center must be a 1-D vector, got shape \(\)$"),
        ("box", (0.0, 1.0), r"^box lo must be a 1-D vector, got shape \(\)$"),
        ("box", ([0.0, 0.0], [[1.0, 1.0]]), r"^box hi must be a 1-D vector, got shape \(1, 2\)$"),
        ("affine_subspace", ([1.0, 0.0], [1.0]), r"^affine subspace A must be a 2-D \(m x d\) matrix, got shape \(2,\)$"),
        ("affine_subspace", ([[[1.0, 0.0]]], [1.0]), r"^affine subspace A must be a 2-D .* got shape \(1, 1, 2\)$"),
    ],
)
def test_parameters_of_the_wrong_rank_are_rejected(kind, args, message):
    with pytest.raises(ValueError, match=message):
        getattr(ConvexProjector, kind)(*args)
