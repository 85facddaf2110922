"""Balance verdicts must not depend on the BLAS kernel: the same scenario
run under different forced OpenBLAS core types gives identical bytes.  The
engines' product helper must give the bits of ``@`` under each kernel."""

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


def _check_scenario():
    """Balanced period-3 sequence: ring edge t is active at step t mod 3."""
    ring = _ring_weights()
    mats = [np.eye(N) for _ in range(3)]
    for t in range(N):
        a, b = t, (t + 1) % N
        W = mats[t % 3]
        W[a, b] += ring[a, b]
        W[b, a] += ring[a, b]
        W[a, a] -= ring[a, b]
        W[b, b] -= ring[a, b]
    params = {
        "sequence": {"kind": "explicit", "matrices": [m.tolist() for m in mats], "period": 3},
        "M": 1,
        "T": 0,
        "L": 2,
    }
    return "check", "check_sequence", params


def _analyze_scenario():
    return "analyze", "analyze_graph", {"graph": {"n": N, "weights": _ring_weights().tolist()}}


@pytest.mark.parametrize("make", [_check_scenario, _analyze_scenario])
def test_verdict_bytes_identical_under_forced_blas_core_types(make, tmp_path):
    command, kind, params = make()
    name = f"blas-{kind}"
    scenario = {"schema_version": SCHEMA_VERSION, "name": name, "kind": kind, "seed": 0,
                "parameters": params}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_scenario(str(path), out_dir=tmp_path / "here") == 0
    here = (tmp_path / "here" / f"{name}.verdict.json").read_bytes()

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


# Random row-stochastic and signed matrices, n = 1..70, against vectors with
# signed zeros and subnormals; prints the number of products compared.
_MATVEC_CHECK = """
import numpy as np
from raikit.engine import _matvec

rng = np.random.default_rng(14)
specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310])
count = 0
for n in range(1, 71):
    matvec = _matvec(n)
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
            count += 1
print(count)
"""


@pytest.mark.parametrize("core", [None, "Haswell", "Sandybridge"])
def test_matvec_helper_gives_the_bits_of_matmul_under_forced_blas_core_types(core):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    proc = subprocess.run([sys.executable, "-c", _MATVEC_CHECK], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(70 * 2 * 5)]
