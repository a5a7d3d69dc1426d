"""POVMs (a projective measurement is a POVM of projectors) and Born-rule probabilities."""

from __future__ import annotations

import math
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
    # sqrt(v.v) is np.linalg.norm's formula for a real vector; NaN fails the <=
    if v.shape != (3,) or not abs(math.sqrt(v.dot(v)) - 1.0) <= 1e-12:
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
    # tr(rho A_i (x) B_j) = rows_a R rows_b^T over operator rows A.T.ravel(),
    # with R[(x, u), (y, v)] = rho[(x, y), (u, v)]: O(k d^4) in place of a
    # d^2 x d^2 Kronecker product and matmul per pair. R is never built: for
    # each Alice index x, the (d_b, d_a, d_b) slab rho[(x, .), .] transposed is
    # rows x d_a .. (x + 1) d_a of R, and rows_a R is summed slab by slab, so
    # the state is copied one slab, 1/d_a of it, at a time
    rows_a = np.array(a).reshape(len(a), da, da).transpose(0, 2, 1).reshape(len(a), da * da)
    left = np.zeros((len(a), db * db), dtype=complex)
    for x in range(da):
        slab = rho.mat[x * db : (x + 1) * db].reshape(db, da, db).transpose(1, 0, 2)
        left += rows_a[:, x * da : (x + 1) * da] @ slab.reshape(da, db * db)
    vals = left @ np.array(b).reshape(len(b), db, db).transpose(0, 2, 1).reshape(len(b), db * db).T
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

    A rank-1 element needs no eigensolve. For a positive E, tr(E)^2 - |E|_F^2
    is twice the sum of the eigenvalue products; at most ZERO_WEIGHT_TOL
    tr(E)^2, it leaves every eigenvalue but the largest below about
    ZERO_WEIGHT_TOL tr(E), which the eigensolve would drop too. Such an E is
    tr(E) |v><v|, v its largest-diagonal column j over sqrt(E_jj tr E).
    """
    back_map: list[int] = []
    weights: list[float] = []
    kets: list[np.ndarray] = []
    for i, e in enumerate(povm.elements):
        tr = e.trace().real
        if tr > ZERO_WEIGHT_TOL and tr * tr - np.vdot(e, e).real <= ZERO_WEIGHT_TOL * tr * tr:
            j = int(np.argmax(e.diagonal().real))
            back_map.append(i)
            weights.append(tr)
            kets.append(e[:, j] / math.sqrt(e[j, j].real * tr))
            continue
        vals, vecs = hermitian_eig(e)
        for k, w in enumerate(vals):
            if w > ZERO_WEIGHT_TOL:
                back_map.append(i)
                weights.append(w)
                kets.append(vecs[:, k])
    return back_map, np.array(weights), np.array(kets, dtype=complex)


def outcome_sum(back_map: list[int], k: int):
    """Function x -> the rows of x summed from refined outcomes onto the k
    coarse outcomes of back_map, as povm_refine returns it.

    The pieces of each coarse outcome are added in refined order by one
    np.add.reduceat over a stable sort of the map, planned here once. A
    coarse outcome with no refined piece (a zero element or projector) gets
    a row of zeros; under the identity map the array is returned unchanged.
    """
    bm = np.arange(k)[np.asarray(back_map, dtype=np.intp)]
    if np.array_equal(bm, np.arange(k)):
        return lambda x: x
    order = np.argsort(bm, kind="stable")
    present, starts = np.unique(bm[order], return_index=True)

    def summed(x: np.ndarray) -> np.ndarray:
        s = np.add.reduceat(np.take(x, order, axis=0), starts, axis=0)
        if len(present) == k:
            return s
        out = np.zeros((k,) + s.shape[1:], dtype=s.dtype)
        out[present] = s
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
