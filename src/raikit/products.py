"""The float products on the verdict path, one function per shape: every
BLAS call that fixes the bits of a verdict is made here, and each is the
call of ``@`` on its operands."""

import numpy as np


def product(rows: int):
    """A @ B, as f(A, B[, out]), for an A of ``rows`` rows or a vector of
    that length.  np.dot makes the dgemv, dgemm or ddot call of ``@``
    without the matmul dispatch, but it multiplies a 1 x 1 matrix as a
    scalar and keeps x = -0.0, where gemv, which adds to +0.0, gives +0.0:
    one row takes np.matmul."""
    return np.dot if rows > 1 else np.matmul


def rowdots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """a_i . b_i for each row pair of two (m, d) arrays, each row the BLAS
    ddot, and so the bits, of a 1-D ``a @ b`` or ``a.dot(b)``."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def matvecs(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A_i @ x_i for an (m, p, d) stack of matrices and the rows of an
    (m, d) array, each the BLAS call, and so the bits, of a 2-D ``A @ x``."""
    return np.matmul(A, X[:, :, None])[:, :, 0]
