"""Dense complex linear algebra for small bipartite systems.

Everything here works on plain numpy arrays (complex128). Kets are
1-D arrays, operators are square 2-D arrays. The computational product
basis is ordered |00>, |01>, ..., with the left (Alice) factor as the
slow index, so ``tensor(A, B) == np.kron(A, B)``.
"""

from __future__ import annotations

import json
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


def ket(*amps) -> np.ndarray:
    """Column vector from amplitudes, as a 1-D complex array."""
    return np.asarray(amps, dtype=complex)


def basis_ket(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| for a unit vector v."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor as the slow (Alice) index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def flip(d: int) -> np.ndarray:
    """Swap operator V|ij> = |ji> on C^d (x) C^d. Hermitian, V^2 = I."""
    if d < 2:
        raise ValueError(f"flip requires d >= 2, got {d}")
    # V[(j, i), (i, j)] = 1: the identity with its two row factors swapped
    return np.eye(d * d, dtype=complex).reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, d * d)


def _check_bipartite(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] != d_a * d_b:
        raise ValueError(f"dimension mismatch: matrix is {m.shape[0]}x{m.shape[0]}, dA*dB = {d_a * d_b}")
    return m


def partial_trace(m: np.ndarray, d_a: int, d_b: int, side: str = "B") -> np.ndarray:
    """Trace out one subsystem; returns the reduced operator on the other.

    side="B" keeps Alice, side="A" keeps Bob.
    """
    m = _check_bipartite(m, d_a, d_b)
    t = m.reshape(d_a, d_b, d_a, d_b)
    if side == "B":
        return np.trace(t, axis1=1, axis2=3)
    if side == "A":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def partial_transpose(m: np.ndarray, d_a: int, d_b: int, side: str = "B") -> np.ndarray:
    """Block-wise transpose on the chosen subsystem."""
    m = _check_bipartite(m, d_a, d_b)
    t = m.reshape(d_a, d_b, d_a, d_b)
    if side == "B":
        out = t.transpose(0, 3, 2, 1)
    elif side == "A":
        out = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return out.reshape(d_a * d_b, d_a * d_b)


def hermiticity_error(m: np.ndarray) -> float:
    """max |m - m^dag|, NaN for a non-finite m: checks read `not err <= tol`."""
    m = np.asarray(m)
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(m - m.conj().T)))


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with real eigenvalues sorted in
    descending order and eigenvectors as the matching orthonormal columns.
    Degenerate subspaces come back with an arbitrary orthonormal basis.
    """
    m = np.asarray(m, dtype=complex)
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
    """Check Hermiticity, positivity (eigenvalues >= -1e-9) and unit trace;
    a matrix that is not Hermitian, or not finite, is checked no further."""
    m = np.asarray(m, dtype=complex)
    herm = hermiticity_error(m)
    if not herm <= HERM_TOL:
        return DensityCheck(False, herm, float("nan"), float("nan"))
    tr_err = abs(m.trace() - 1.0)
    min_eig = float(np.linalg.eigvalsh(m).min())
    ok = bool(min_eig >= -PSD_TOL and tr_err <= TRACE_TOL)
    return DensityCheck(ok, herm, min_eig, float(tr_err))


def json_fields(text: str, *keys: str) -> list:
    """Values of keys in the JSON object text; any other text is a ValueError."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or not obj.keys() >= set(keys):
        raise ValueError(f"expected a JSON object with the keys {', '.join(keys)}")
    return [obj[k] for k in keys]


def encode_matrix(m: np.ndarray) -> list[list[float]]:
    """A matrix as JSON: its entries in row-major order as [re, im] pairs."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]


def decode_matrix(entries) -> np.ndarray:
    """The square complex matrix that encode_matrix wrote as entries."""
    try:
        flat = np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError):
        raise ValueError("matrix entries must be a list of [re, im] number pairs") from None
    d = int(round(np.sqrt(flat.size)))
    if d * d != flat.size:
        raise ValueError(f"expected a square matrix, got {flat.size} entries")
    return flat.reshape(d, d)


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
