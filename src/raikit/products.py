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


def rowdots(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a_i . b_i for each row pair of two (m, d) arrays, each row the BLAS
    ddot, and so the bits, of a 1-D ``a @ b`` or ``a.dot(b)``; written into
    ``out``, a contiguous (m,) array, when given (the result is then a view
    of it)."""
    out = None if out is None else out.reshape(-1, 1, 1)
    return np.matmul(A[:, None, :], B[:, :, None], out=out)[:, 0, 0]


def matvecs(A: np.ndarray, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A_i @ x_i over the broadcast leading axes of a stack of (p, d)
    matrices and one of d-vectors, each the BLAS call, and so the bits, of
    a 2-D ``A @ x``; written into ``out`` when given."""
    return np.matmul(A, X[..., None], out=None if out is None else out[..., None])[..., 0]


def cyclic_matvecs(A: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A[k % P] @ x_k for a (P, p, d) stack and each row x_k of an (m, d)
    array, written into ``out``, a contiguous (m, p) array: one matvecs
    over the whole periods of rows, when there are several, and one over
    the rows left."""
    (m, d), (P, p) = X.shape, A.shape[:2]
    whole = m - m % P if m > P else 0
    if whole:
        matvecs(A, X[:whole].reshape(-1, P, d), out[:whole].reshape(-1, P, p))
    matvecs(A[: m - whole], X[whole:], out[whole:])
    return out
