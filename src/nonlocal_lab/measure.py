"""POVMs (a projective measurement is a POVM of projectors) and Born-rule probabilities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmat import PAULIS, I2, HERM_TOL, PSD_TOL, haar_unitary, hermitian_eig, hermiticity_error, projector
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-10
ZERO_WEIGHT_TOL = 1e-12
PROB_TOL = 1e-10


def unit_bloch(v, what: str = "Bloch vector") -> np.ndarray:
    """v as a float array, checked to be a finite real unit 3-vector."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if v.shape != (3,) or not np.isfinite(n) or abs(n - 1.0) > 1e-12:
        raise ValueError(f"{what} must be a finite unit 3-vector, got {v}")
    return v


@dataclass
class Povm:
    """Positive elements summing to the identity, with opaque outcome labels."""

    elements: list[np.ndarray]
    labels: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.elements = [np.asarray(e, dtype=complex) for e in self.elements]
        if not self.elements:
            raise ValueError("a POVM needs at least one element")
        if not self.labels:
            self.labels = list(range(len(self.elements)))
        if len(self.elements) != len(self.labels):
            raise ValueError("one label per element required")
        if not np.isfinite(np.array(self.elements)).all():
            raise ValueError("POVM elements must be finite")
        d = self.elements[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, e in enumerate(self.elements):
            if hermiticity_error(e) > HERM_TOL:
                raise ValueError(f"POVM element {i} is not Hermitian")
            if np.linalg.eigvalsh(e).min() < -PSD_TOL:
                raise ValueError(f"POVM element {i} is not positive semi-definite")
            total += e
        if np.max(np.abs(total - np.eye(d))) > COMPLETENESS_TOL:
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def obs_from_bloch(v) -> Povm:
    """Measurement of the spin v . sigma: projectors (I +- v.sigma)/2 labelled
    by its eigenvalues +1 and -1."""
    v = unit_bloch(v)
    m = sum(float(vi) * s for vi, s in zip(v, PAULIS))
    return Povm([(I2 + m) / 2, (I2 - m) / 2], [1.0, -1.0])


def operator_rows(ops: list[np.ndarray], d: int) -> np.ndarray:
    """Stack local operators as rows A.T.ravel()."""
    return np.array(ops, dtype=complex).reshape(len(ops), d, d).transpose(0, 2, 1).reshape(len(ops), d * d)


def realigned_trace(rows_a: np.ndarray, rho: DensityMatrix, rows_b: np.ndarray) -> np.ndarray:
    """tr(rho A_i (x) B_j) from operator rows and R[(a, c), (b, d)] = rho[(a, b), (c, d)]."""
    da, db = rho.d_a, rho.d_b
    r = rho.mat.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    return rows_a @ r @ rows_b.T


def born_table(rho: DensityMatrix, elements_a: list[np.ndarray], elements_b: list[np.ndarray]) -> np.ndarray:
    """Matrix of joint Born probabilities tr(rho A_i (x) B_j), clamped to [0, 1].

    The elements must be positive operators on the respective local spaces;
    non-finite or non-real values, and values outside [-1e-10, 1 + 1e-10],
    are rejected as invalid input.
    """
    if not all(np.isfinite(m).all() for m in (*elements_a, *elements_b)):
        raise ValueError("measurement operator is not finite")
    da, db = rho.d_a, rho.d_b
    a = [np.asarray(m, dtype=complex) for m in elements_a]
    b = [np.asarray(m, dtype=complex) for m in elements_b]
    shape_a = next((m.shape for m in a if m.shape != (da, da)), (da, da))
    shape_b = next((m.shape for m in b if m.shape != (db, db)), (db, db))
    if shape_a != (da, da) or shape_b != (db, db):
        raise ValueError(f"operator dimensions {shape_a}, {shape_b} do not match state ({da}, {db})")
    # one realigned_trace of the stacked operator rows: O(k d^4) in place of
    # a d^2 x d^2 Kronecker product and matmul per pair
    vals = realigned_trace(operator_rows(a, da), rho, operator_rows(b, db))
    if not np.isfinite(vals).all():
        raise ValueError("joint probability is not finite")
    nonreal = vals[np.abs(vals.imag) > PROB_TOL]
    if nonreal.size:
        raise ValueError(f"joint probability came out non-real ({nonreal[0]})")
    p = vals.real
    outside = p[(p < -PROB_TOL) | (p > 1 + PROB_TOL)]
    if outside.size:
        raise ValueError(f"joint probability {outside[0]} outside [0, 1]")
    return np.clip(p, 0.0, 1.0)


def povm_refine(povm: Povm) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Split every POVM element into weighted rank-1 pieces alpha |v><v|
    with alpha in (0, 1]; eigenvalues below 1e-12 are dropped.

    Returns the back-map that sends each piece to the index of its
    originating coarse outcome, so coarse probabilities are recovered by
    summation, and the weights alpha and unit kets v (as rows) of the pieces.
    """
    back_map: list[int] = []
    weights: list[float] = []
    kets: list[np.ndarray] = []
    for i, e in enumerate(povm.elements):
        vals, vecs = hermitian_eig(e)
        for k, w in enumerate(vals):
            if w > ZERO_WEIGHT_TOL:
                back_map.append(i)
                weights.append(w)
                kets.append(vecs[:, k])
    return back_map, np.array(weights), np.array(kets, dtype=complex)


def outcome_sum(back_map: list[int], k: int):
    """Function x, axis -> x summed along axis (0 or 1) from refined outcomes
    onto the k coarse outcomes of back_map, as povm_refine returns it.

    The pieces of each coarse outcome are added in refined order by one
    np.add.reduceat over a stable sort of the map, planned here once. A
    coarse outcome with no refined piece (a zero element or projector) gets
    zeros; under the identity map the array is returned unchanged.
    """
    bm = np.arange(k)[np.asarray(back_map, dtype=np.intp)]
    if np.array_equal(bm, np.arange(k)):
        return lambda x, axis=0: x
    order = np.argsort(bm, kind="stable")
    present, starts = np.unique(bm[order], return_index=True)

    def summed(x: np.ndarray, axis: int = 0) -> np.ndarray:
        s = np.add.reduceat(np.take(x, order, axis=axis), starts, axis=axis)
        if len(present) == k:
            return s
        out = np.zeros(s.shape[:axis] + (k,) + s.shape[axis + 1 :], dtype=s.dtype)
        out[(slice(None),) * axis + (present,)] = s
        return out

    return summed


def random_projective(d: int, rng: np.random.Generator) -> Povm:
    """Rank-1 projective measurement in a Haar-random basis, labels 0..d-1."""
    return Povm([projector(c) for c in haar_unitary(d, rng).T])


def random_povm(n_outcomes: int, d: int, rng: np.random.Generator) -> Povm:
    """Random POVM from normalized Wishart blocks."""
    blocks = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return Povm([inv_sqrt @ b @ inv_sqrt for b in blocks])
