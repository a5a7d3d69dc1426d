"""Dense complex linear algebra for small bipartite systems.

Everything here works on plain numpy arrays (complex128). Kets are
1-D arrays, operators are square 2-D arrays (see _check_operator), and the
density checks also take a stack (k, n, n) of operators. The computational
product basis is ordered |00>, |01>, ..., with the left (Alice) factor as
the slow index, so ``tensor(A, B) == np.kron(A, B)``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)


def basis_ket(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| for a unit vector v."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two kets, two operators or, pair by pair, two
    equal-length (k, n, m) stacks of operators, the left factor as the slow
    (Alice) index: np.kron's one broadcast product, so np.kron's bytes."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if not (1 <= a.ndim == b.ndim <= 3 and a.shape[:-2] == b.shape[:-2]):
        raise ValueError(f"tensor takes two kets, two operators or two equal-length stacks of operators, got shapes {a.shape} and {b.shape}")
    shape = a.shape[:-2] + tuple(i * j for i, j in zip(a.shape[-2:], b.shape[-2:]))
    return (a[:, None] * b if a.ndim == 1 else a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(shape)


def _check_dim(d, what: str = "d", lo: int | None = None) -> int:
    """An integer argument (a dimension, a sample count, a seed) as an int:
    numpy integers pass, anything without __index__ (2.5, 2.0, NaN) is a
    ValueError, and so is an integer below the floor lo, if one is given."""
    try:
        d = operator.index(d)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {d!r}") from None
    if lo is not None and d < lo:
        raise ValueError(f"{what} must be >= {lo}, got {d}")
    return d


def _check_real(x, lo, hi, what: str, ends: str = "[]") -> float:
    """A real argument (a mixing weight, a flip parameter) as a float,
    checked to lie in the interval from lo to hi, whose ends are closed or
    open as the brackets `ends` say: "(]" is lo < x <= hi. A string, None,
    NaN or a value outside is a ValueError."""
    if not (
        isinstance(x, numbers.Real)
        and (lo < x if ends[0] == "(" else lo <= x)
        and (x < hi if ends[1] == ")" else x <= hi)
    ):
        raise ValueError(f"{what} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {x!r}")
    return float(x)


def _check_operator(m, what: str, side: int | None = None, stack: bool = False) -> np.ndarray:
    """m as a complex array, checked to be a square matrix, side x side if side is given, or with
    stack also a (k, n, n) stack of them; any other shape is a ValueError naming what and the shape."""
    try:
        a = np.asarray(m, dtype=complex)
        shape = a.shape
    except (TypeError, ValueError):  # a ragged list, or entries that are not numbers
        shape = ()
    if not (len(shape) == 2 or stack and len(shape) == 3) or not 0 < shape[-1] == shape[-2] or side not in (None, shape[-1]):
        n = "n" if side is None else side
        raise ValueError(f"{what} must be an array of numbers of shape ({n}, {n}){f' or (k, {n}, {n})' if stack else ''}, got shape {_shape(m)}")
    return a


def _shape(m):
    """np.shape(m), or for a ragged list its items' shapes."""
    try:
        return np.shape(m)
    except ValueError:
        return [_shape(x) for x in m]


def _frozen(a: np.ndarray, source) -> np.ndarray:
    """a = np.asarray(source) made read-only for a validated value to hold, copied first where it aliases source."""
    a = a.copy() if a is source or a.base is not None else a
    a.setflags(write=False)
    return a


# Bytes of the largest d^2 x d^2 complex matrix that a state built from d may
# take: 256 MiB admits d <= 64 (a d = 48 state is 81 MiB). `witness` holds a
# few such matrices at once (the state, its partial transpose and the
# eigensolver's copy), and at d = 200 one alone would be 24 GiB.
MATRIX_BUDGET = 1 << 28


def _check_matrix_budget(d, d_b=None) -> None:
    """A ValueError, raised before anything is allocated, if d is not an
    integer (see _check_dim) or a state's complex matrix would not fit in
    MATRIX_BUDGET: d^2 x d^2 for the local dimension d, or, given d_b,
    (d d_b) x (d d_b) for the local dimensions d and d_b."""
    d = _check_dim(d)
    side = d * d if d_b is None else d * _check_dim(d_b)
    if d > 0 and 16 * side * side > MATRIX_BUDGET:
        if d_b is not None:
            raise ValueError(f"dA*dB = {side} needs a {side}x{side} complex matrix, above the {MATRIX_BUDGET >> 20} MiB budget")
        largest = math.isqrt(math.isqrt(MATRIX_BUDGET // 16))
        raise ValueError(
            f"d = {d} needs a {side}x{side} complex matrix of {16 * side**2 / 2**20:.0f} MiB, "
            f"above the {MATRIX_BUDGET >> 20} MiB budget (d <= {largest})"
        )


def flip(d: int) -> np.ndarray:
    """Swap operator V|ij> = |ji> on C^d (x) C^d. Hermitian, V^2 = I."""
    d = _check_dim(d, lo=2)
    # V[(j, i), (i, j)] = 1: one scatter of ones into zeros, column c = (i, j)
    v = np.zeros((d * d, d * d), dtype=complex)
    c = np.arange(d * d)
    v[c % d * d + c // d, c] = 1.0
    return v


def partial_trace(m: np.ndarray, d_a: int, d_b: int, side: str = "B") -> np.ndarray:
    """Trace out one subsystem; returns the reduced operator on the other.

    side="B" keeps Alice, side="A" keeps Bob.
    """
    t = _check_operator(m, "m", d_a * d_b).reshape(d_a, d_b, d_a, d_b)
    if side == "B":
        return np.trace(t, axis1=1, axis2=3)
    if side == "A":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def partial_transpose(m: np.ndarray, d_a: int, d_b: int, side: str = "B") -> np.ndarray:
    """Block-wise transpose on the chosen subsystem."""
    t = _check_operator(m, "m", d_a * d_b).reshape(d_a, d_b, d_a, d_b)
    if side == "B":
        out = t.transpose(0, 3, 2, 1)
    elif side == "A":
        out = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return out.reshape(d_a * d_b, d_a * d_b)


def hermiticity_error(m: np.ndarray) -> float:
    """max |m - m^dag| over a matrix or a stack (..., n, n), NaN or inf for a non-finite or overflowing m: checks read `not err <= tol`."""
    m = np.asarray(m)
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0))


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues sorted in
    descending order and eigenvectors as the matching orthonormal columns.
    Degenerate subspaces come back with an arbitrary orthonormal basis.
    """
    m = _check_operator(m, "m")
    err = hermiticity_error(m)
    if not err <= HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {err:.3e})")
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    return vals[order].real, vecs[:, order]


@dataclass(frozen=True)
class DensityCheck:
    """Diagnostic result of a density-matrix test."""

    ok: bool
    hermiticity_error: float
    min_eigenvalue: float
    trace_error: float

    def __bool__(self) -> bool:
        return self.ok


def is_density(m: np.ndarray) -> DensityCheck:
    """Check Hermiticity, positivity (eigenvalues >= -1e-9) and unit trace of a matrix or a
    stack (k, n, n) with its worst item's figures (an empty one passes); a matrix or stack
    that is not Hermitian, or not finite, is checked no further."""
    m = _check_operator(m, "m", stack=True)
    herm = hermiticity_error(m)
    if not herm <= HERM_TOL:
        return DensityCheck(False, herm, float("nan"), float("nan"))
    tr_err = float(max(map(abs, (m.trace(axis1=-2, axis2=-1) - 1.0).flat), default=0.0))  # abs(), not np.abs: its bits differ
    min_eig = float(np.linalg.eigvalsh(m).min(initial=math.inf))
    ok = bool(min_eig >= -PSD_TOL and tr_err <= TRACE_TOL)
    return DensityCheck(ok, herm, min_eig, tr_err)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a complex Ginibre matrix)."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


def haar_ket(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector in C^d."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)
