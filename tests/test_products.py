"""``raikit.products`` is the one module of the package that forms a float
product: no other module of ``src/raikit`` uses ``@``, ``np.dot``,
``.dot(``, ``np.matmul`` or ``np.vdot``, so the BLAS calls that fix the
bits of the verdicts are all made in one file."""

import ast
from pathlib import Path

import pytest

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
