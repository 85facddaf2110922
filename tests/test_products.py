"""``raikit.products`` is the one module of the package that forms a float
product: no other module of ``src/raikit`` uses ``@``, ``np.dot``,
``.dot(``, ``np.matmul`` or ``np.vdot``, so the BLAS calls that fix the
bits of the verdicts are all made in one file.  ``rowdots`` written into a
given buffer gives the bits of the array it allocates, and each row of
``cyclic_matvecs`` the bits of ``product`` on its matrix of the stack."""

import ast
from pathlib import Path

import numpy as np
import pytest

from raikit.products import cyclic_matvecs, product, rowdots

SRC = Path(__file__).resolve().parents[1] / "src" / "raikit"
PRODUCT_NAMES = {"dot", "matmul", "vdot"}


def _products(path: Path) -> list:
    """(line, what) for each ``@`` and each use of a product name in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCT_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in PRODUCT_NAMES:
            found.append((node.lineno, node.id))
    return found


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "products.py"))
def test_no_module_but_products_forms_a_float_product(name):
    assert _products(SRC / name) == []


def test_the_check_sees_the_products_module_products():
    assert {what for _, what in _products(SRC / "products.py")} == {"dot", "matmul"}


def _row_pairs():
    rng = np.random.default_rng(9)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e200, -1e200, 1.5])
    for m, d in [(0, 3), (1, 1), (3, 0), (4, 2), (6, 5), (20, 4), (33, 9), (7, 64)]:
        yield rng.choice(special, (m, d)), rng.choice(special, (m, d))
        A = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-300, 300, (m, d))
        yield A, A
        yield A, rng.choice(special, (m, d))
    yield np.full((2, 3), 1e200), np.full((2, 3), 1e200)  # every square overflows
    yield np.array([[-0.0, -0.0], [0.0, -0.0]]), np.array([[-0.0, 0.0], [-0.0, -0.0]])


@pytest.mark.parametrize("A, B", list(_row_pairs()))
def test_rowdots_into_a_buffer_gives_the_bits_it_allocates(A, B):
    buf = np.full(A.shape[0], np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # a square past 1e308, then inf - inf
        want, got = rowdots(A, B), rowdots(A, B, out=buf)
        one_by_one = np.array([a @ b for a, b in zip(A, B)]).reshape(-1)
    assert got.shape == want.shape == (A.shape[0],)
    assert buf.size == 0 or np.shares_memory(got, buf)  # empty arrays share no memory
    assert buf.tobytes() == got.tobytes() == want.tobytes() == one_by_one.tobytes()


def _periodic_cases():
    rng = np.random.default_rng(10)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.5, -0.25])
    for n, P, steps in [(1, 1, 7), (1, 3, 10), (2, 1, 5), (2, 3, 9), (3, 2, 11), (4, 3, 3), (5, 4, 13),
                        (8, 3, 64), (3, 7, 7), (3, 5, 2), (2, 4, 0), (1, 2, 0), (3, 0, 0)]:
        stack = rng.standard_normal((P, n, n)) * (rng.random((P, n, n)) < 0.7)
        X = rng.choice(special, (steps, n))
        yield stack, X
        yield np.abs(stack), np.abs(rng.standard_normal((steps, n)))  # the magnitudes of a signed run


@pytest.mark.parametrize("stack, X", list(_periodic_cases()))
def test_cyclic_matvecs_gives_each_row_the_bits_of_its_product(stack, X):
    P, n = stack.shape[:2]
    want = np.array([product(n)(stack[k % P], x) for k, x in enumerate(X)]).reshape(-1, n)
    buf = np.full(X.shape, np.nan)
    assert cyclic_matvecs(stack, X, buf) is buf
    assert buf.tobytes() == want.tobytes()
