"""Balance verdicts must not depend on the BLAS kernel: the same scenario
run under different forced OpenBLAS core types gives identical bytes.  The
functions of raikit.products must give the bits of ``@`` under each kernel."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from raikit.cli import SCHEMA_VERSION, run_scenario

SRC = str(Path(__file__).resolve().parents[1] / "src")
N = 10


def _ring_weights():
    """Symmetric ring over 0..N-1 with one chord, fixed weights."""
    w = np.zeros((N, N))
    for t in range(N):
        a, b = t, (t + 1) % N
        w[a, b] = w[b, a] = 0.05 + 0.02 * t
    w[0, 2] = w[2, 0] = 0.07
    return w


def _cycle_weights():
    """The directed cycles 0 -> 1 -> ... -> N-1 -> 0 and 0 -> 3 -> 6 -> 0,
    each arc with a weight of its own: cut-balanced, with C above 1."""
    w = np.zeros((N, N))
    for t in range(N):
        w[(t + 1) % N, t] = 0.03 + 0.011 * t
    for t, (a, b) in enumerate([(0, 3), (3, 6), (6, 0)]):
        w[b, a] += 0.05 + 0.013 * t
    return w


def _sequence_params(weights, pairs):
    """Period-3 sequence: the t-th pair (a, b) is active at step t mod 3,
    with the weights of both its arcs a -> b and b -> a."""
    mats = [np.eye(N) for _ in range(3)]
    for t, (a, b) in enumerate(pairs):
        W = mats[t % 3]
        W[a, b] += weights[a, b]
        W[b, a] += weights[b, a]
        W[a, a] -= weights[a, b]
        W[b, b] -= weights[b, a]
    return {
        "sequence": {"kind": "explicit", "matrices": [m.tolist() for m in mats], "period": 3},
        "M": 1,
        "T": 0,
        "L": 2,
    }


CHECK_C = ("uniform_cut_balance", "C")
ANALYZE_C = ("cut_balance", "constant_C")


def _check_scenario():
    """Balanced period-3 sequence: ring edge t is active at step t mod 3."""
    params = _sequence_params(_ring_weights(), [(t, (t + 1) % N) for t in range(N)])
    return "check", "check_sequence", params, CHECK_C, 1.0


def _check_cycles_scenario():
    """Period-3 sequence: cycle arc t is active at step t mod 3."""
    pairs = [(t, (t + 1) % N) for t in range(N)] + [(0, 3), (3, 6), (6, 0)]
    params = _sequence_params(_cycle_weights(), pairs)
    return "check", "check_sequence", params, CHECK_C, None


def _analyze_scenario():
    params = {"graph": {"n": N, "weights": _ring_weights().tolist()}}
    return "analyze", "analyze_graph", params, ANALYZE_C, 1.0


def _analyze_cycles_scenario():
    params = {"graph": {"n": N, "weights": _cycle_weights().tolist()}}
    return "analyze", "analyze_graph", params, ANALYZE_C, None


@pytest.mark.parametrize(
    "make", [_check_scenario, _analyze_scenario, _check_cycles_scenario, _analyze_cycles_scenario]
)
def test_verdict_bytes_identical_under_forced_blas_core_types(make, tmp_path):
    """The verdict's constant at ``where`` must be ``exact_C``, or above 1
    when that is None, and its bits the same under every kernel."""
    command, kind, params, where, exact_C = make()
    name = f"blas-{kind}"
    scenario = {"schema_version": SCHEMA_VERSION, "name": name, "kind": kind, "seed": 0,
                "parameters": params}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_scenario(str(path), out_dir=tmp_path / "here") == 0
    here = (tmp_path / "here" / f"{name}.verdict.json").read_bytes()
    C = json.loads(here)[where[0]][where[1]]
    assert C == exact_C if exact_C is not None else C > 1.0

    for core in ("Haswell", "Sandybridge"):
        out = tmp_path / core
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "raikit.cli", "--out-dir", str(out), command, str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / f"{name}.verdict.json").read_bytes() == here, core


def _run_under(core, script):
    """The words that ``script`` prints in a child process whose OpenBLAS
    kernel is forced to ``core`` (None: the default kernel)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# Random row-stochastic and signed matrices, n = 1..70, against vectors with
# signed zeros and subnormals: W x, the transposed view W.T x that
# check_sia's power iteration takes, and x . x; then W X for (n, d) right
# operands, as a solver round averages its states.  Prints the number of
# products compared.
_PRODUCT_CHECK = """
import numpy as np
from raikit.products import product

rng = np.random.default_rng(14)
specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310])
count = 0
for n in range(1, 71):
    matvec = product(n)
    for signed in (False, True):
        raw = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(raw, rng.random(n) + 0.1)
        W = raw / raw.sum(axis=1, keepdims=True)
        if signed:
            W *= np.where(rng.random((n, n)) < 0.4, -1.0, 1.0)
        vectors = [np.full(n, -0.0), np.zeros(n), rng.choice(specials, n), rng.uniform(-5.0, 5.0, n)]
        mixed = rng.uniform(-5.0, 5.0, n)
        pick = rng.random(n) < 0.5
        mixed[pick] = rng.choice(specials, int(pick.sum()))
        vectors.append(mixed)
        for x in vectors:
            want = (W @ x).tobytes()
            out = np.empty(n)
            matvec(W, x, out=out)
            assert matvec(W, x).tobytes() == want and out.tobytes() == want, (n, signed, x)
            assert matvec(W.T, x).tobytes() == (W.T @ x).tobytes(), (n, signed, x)
            assert matvec(x, x).tobytes() == (x @ x).tobytes(), (n, x)
            count += 3
        for d in (1, 2, 3, 5):
            X = np.stack([vectors[t % 5] for t in range(d)], axis=1)
            assert matvec(W, X).tobytes() == (W @ X).tobytes(), (n, signed, d)
            count += 1
print(count)
"""


@pytest.mark.parametrize("core", [None, "Haswell", "Sandybridge"])
def test_product_gives_the_bits_of_matmul_under_forced_blas_core_types(core):
    assert _run_under(core, _PRODUCT_CHECK) == [str(70 * 2 * (5 * 3 + 4))]


# The same operands against the identity, whose product run_rai skips on a
# silent step: it must be x + 0.0 bitwise, under every kernel.
_IDENTITY_CHECK = _PRODUCT_CHECK.replace(
    "            want = (W @ x).tobytes()\n",
    "            W = np.eye(n)\n            want = (x + 0.0).tobytes()\n",
)


@pytest.mark.parametrize("core", [None, "Haswell", "Sandybridge"])
def test_identity_product_is_x_plus_zero_under_forced_blas_core_types(core):
    assert _IDENTITY_CHECK != _PRODUCT_CHECK
    assert _run_under(core, _IDENTITY_CHECK) == [str(70 * 2 * (5 * 3 + 4))]


# The solver's batched products against their per-row forms: row dots
# against ``a @ x`` and ``r.dot(r)``, stacked matrix-vector products against
# ``A @ x`` and ``pinv @ r``, on contiguous and strided rows with d from 1 to
# 1 000.  Prints the number of comparisons, then how many of three long row
# dots differ from a sequential sum: BLAS accumulates in another order, so a
# difference shows that the batched path reaches BLAS.
_BATCHED_CHECK = """
import numpy as np
from raikit.products import matvecs, rowdots

rng = np.random.default_rng(20)
specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310])


def rows(*shape, strided):
    # Every third entry along the last axis, or a contiguous copy of them.
    big = rng.standard_normal((*shape[:-1], 3 * shape[-1])) * 10.0 ** rng.integers(-6, 7, (*shape[:-1], 3 * shape[-1]))
    pick = rng.random(big.shape) < 0.2
    big[pick] = rng.choice(specials, int(pick.sum()))
    return big[..., ::3] if strided else big[..., ::3].copy()


count = 0
for d in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 64, 100, 127, 128, 255, 256, 500, 999, 1000):
    for strided in (False, True):
        A, X = rows(6, d, strided=strided), rows(6, d, strided=strided)
        got = rowdots(A, X)
        assert got.tobytes() == np.array([a @ x for a, x in zip(A, X)]).tobytes(), (d, strided)
        got = rowdots(X, X)
        assert got.tobytes() == np.array([r.dot(r) for r in X]).tobytes(), (d, strided)
        count += 12
        if d > 128:
            continue
        for m in (1, 2, 3):
            M, P = rows(4, m, d, strided=strided), rows(4, d, m, strided=strided)
            X, R = rows(4, d, strided=strided), rows(4, m, strided=strided)
            assert matvecs(M, X).tobytes() == np.array([Mi @ x for Mi, x in zip(M, X)]).tobytes(), (d, m, strided)
            assert matvecs(P, R).tobytes() == np.array([Pi @ r for Pi, r in zip(P, R)]).tobytes(), (d, m, strided)
            count += 8
print(count)

differs = 0
for _ in range(3):
    a, x = rng.standard_normal(1000), rng.standard_normal(1000)
    total = 0.0
    for p in (a * x).tolist():
        total += p
    differs += rowdots(a[None], x[None])[0] != total
print(differs)
"""


@pytest.mark.parametrize("core", [None, "Haswell", "Sandybridge"])
def test_batched_solver_products_give_the_bits_of_per_row_products_under_forced_blas_core_types(core):
    count, differs = _run_under(core, _BATCHED_CHECK)
    assert count == str(22 * 2 * 12 + 17 * 2 * 3 * 8)
    assert int(differs) > 0


# The signed run's magnitude bounds: each row of one cyclic_matvecs call
# against the product of its matrix of the period, as a step makes it, on
# rows that take whole periods, a part of one, or both.  Prints the number
# of comparisons.
_CYCLIC_CHECK = """
import numpy as np
from raikit.products import cyclic_matvecs, product

rng = np.random.default_rng(21)
specials = np.array([0.0, -0.0, 5e-324, 2.2e-308, 1e-310])
count = 0
for n in (1, 2, 3, 4, 5, 7, 8, 9, 16, 33):
    for P in (1, 2, 3):
        for m in (P - 1, P, 2 * P + 1):
            A = np.abs(rng.standard_normal((P, n, n))) * (rng.random((P, n, n)) < 0.6)
            X = np.abs(rng.standard_normal((m, n)))
            pick = rng.random(X.shape) < 0.2
            X[pick] = rng.choice(specials, int(pick.sum()))
            got = cyclic_matvecs(A, X, np.empty((m, n)))
            want = [product(n)(A[k % P], x).tobytes() for k, x in enumerate(X)]
            assert [row.tobytes() for row in got] == want, (n, P, m)
            count += m
print(count)
"""


@pytest.mark.parametrize("core", [None, "Haswell", "Sandybridge"])
def test_cyclic_products_give_the_bits_of_per_step_products_under_forced_blas_core_types(core):
    assert _run_under(core, _CYCLIC_CHECK) == [str(10 * sum(4 * P for P in (1, 2, 3)))]
