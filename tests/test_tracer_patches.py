"""The benchmark's span tracer (``perfbench/tracing.py``) patches raikit's
functions in every module namespace that holds them and its methods on
their own classes.  Installing and removing it must find every method it
wraps in its class's own ``__dict__`` and leave every patched attribute
as it was, so a refactor that moves one of those methods to a base class
fails here and not only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import raikit.cli  # noqa: F401  (the tracer wraps cli.run_scenario)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("raikit_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    modules = [m for name, m in sorted(sys.modules.items()) if name == "raikit" or name.startswith("raikit.")]
    return {m.__name__: dict(vars(m)) for m in modules}


def _same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_install_and_uninstall_restore_every_patched_attribute(tracing):
    classes = [getattr(sys.modules[mod], cls) for mod, cls, _, _, _ in tracing.METHODS]
    for mod, cls_name, meth, _, _ in tracing.METHODS:
        assert meth in vars(getattr(sys.modules[mod], cls_name)), f"{cls_name}.{meth} is not its own"
    modules_before = _namespaces()
    classes_before = [dict(vars(cls)) for cls in classes]

    tracer = tracing.Tracer(tracing.Recorder())
    tracer.install()
    try:
        patched = list(tracer._patched)
        for mod, cls_name, meth, _, _ in tracing.METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            assert vars(cls)[meth] is not classes_before[classes.index(cls)][meth]
        for mod, fn, _, _ in tracing.FUNCTIONS:
            assert getattr(sys.modules[mod], fn) is not modules_before[mod][fn]
    finally:
        tracer.uninstall()

    assert len(patched) > len(tracing.FUNCTIONS) + len(tracing.METHODS)
    assert tracer._patched == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    after = _namespaces()
    assert after.keys() == modules_before.keys()
    for name, before in modules_before.items():
        assert _same_objects(after[name], before), name
    for cls, before in zip(classes, classes_before):
        assert _same_objects(dict(vars(cls)), before), cls.__name__


def test_the_signed_sequence_keeps_its_own_lookup_while_traced(tracing):
    from raikit import MatrixSequence, SignedMatrixSequence

    signed_matrix = vars(SignedMatrixSequence)["matrix"]
    tracer = tracing.Tracer(tracing.Recorder())
    tracer.install()
    try:
        assert vars(MatrixSequence)["matrix"] is not signed_matrix
        assert vars(SignedMatrixSequence)["matrix"] is signed_matrix
    finally:
        tracer.uninstall()
