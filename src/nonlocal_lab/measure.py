"""POVMs (a projective measurement is a POVM of projectors) and Born-rule probabilities."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qmat import PAULIS, I2, HERM_TOL, PSD_TOL, _Holder, _check_dim, _check_operator, _frozen, haar_unitary, hermitian_eig, projector
from .states import DensityMatrix, _Werner

COMPLETENESS_TOL = 1e-10
ZERO_WEIGHT_TOL = 1e-12
PROB_TOL = 1e-10


def unit_bloch(v, what: str = "Bloch vector") -> np.ndarray:
    """v as a read-only float array (see qmat._frozen), checked to be a finite real unit 3-vector."""
    a = np.asarray(v, dtype=float)
    # sqrt(a.a) is np.linalg.norm's formula for a real vector; NaN fails the <=
    if a.shape != (3,) or not abs(math.sqrt(a.dot(a)) - 1.0) <= 1e-12:
        raise ValueError(f"{what} must be a finite unit 3-vector, got {a}")
    return _frozen(a, v)


@dataclass
class Povm(_Holder):
    """Positive elements summing to the identity, with opaque outcome labels. The elements are checked
    as one (k, n, n) stack, a matrix being the stack of one, and kept as read-only views of it."""

    elements: list[np.ndarray]
    labels: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if isinstance(self.elements, (list, tuple)) and not self.elements:  # any other value goes to the shape check
            raise ValueError("a POVM needs at least one element")
        stack = _frozen(_check_operator(self.elements, "POVM elements", stack=True), self.elements)
        stack = stack.reshape(-1, *stack.shape[-2:])
        self.elements, self.labels = list(stack), self.labels or list(range(len(stack)))
        if len(stack) != len(self.labels):
            raise ValueError("one label per element required")
        if not np.isfinite(stack).all():
            raise ValueError("POVM elements must be finite")
        bad = np.flatnonzero(np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(1, 2)) > HERM_TOL)
        if bad.size:
            raise ValueError(f"POVM element {bad[0]} is not Hermitian")
        bad = np.flatnonzero(np.linalg.eigvalsh(stack).min(axis=1) < -PSD_TOL)
        if bad.size:
            raise ValueError(f"POVM element {bad[0]} is not positive semi-definite")
        if np.max(np.abs(stack.sum(axis=0) - np.eye(stack.shape[-1]))) > COMPLETENESS_TOL:
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def dim(self) -> int:
        return len(self.elements[0])


def obs_from_bloch(v) -> Povm:
    """Measurement of the spin v . sigma: projectors (I +- v.sigma)/2 labelled
    by its eigenvalues +1 and -1."""
    v = unit_bloch(v)
    m = sum(float(vi) * s for vi, s in zip(v, PAULIS))
    return Povm([(I2 + m) / 2, (I2 - m) / 2], [1.0, -1.0])


def born_table(rho: DensityMatrix, elements_a: list[np.ndarray], elements_b: list[np.ndarray]) -> np.ndarray:
    """Matrix of joint Born probabilities tr(rho A_i (x) B_j), clamped to [0, 1].

    Each party's elements are a list or a (k, n, n) stack of positive
    operators on its local space, a single matrix being the stack of one;
    non-finite or non-real values, and values outside [-1e-10, 1 + 1e-10],
    are rejected as invalid input. A Werner state of werner_phi gives its
    table in closed form from (d, phi), through the same checks.
    """
    da, db = rho.d_a, rho.d_b
    rows_a, rows_b = (
        _check_operator(e, what, n, stack=True).reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n * n)
        for e, what, n in ((elements_a, "elements_a", da), (elements_b, "elements_b", db))
    )
    if not (np.isfinite(rows_a).all() and np.isfinite(rows_b).all()):
        raise ValueError("measurement operator is not finite")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives entries rejected below
        if isinstance(rho, _Werner):
            # tr(W A (x) B) = [(d - phi) tr A tr B + (d phi - 1) tr(AB)] / (d^3 - d), as
            # tr(V A (x) B) = tr(AB), the A.ravel() rows against the B.T.ravel() rows:
            # O(k_a k_b d^2), and no d^2 x d^2 matrix
            d, phi = da, rho.phi
            flat_a = rows_a.reshape(-1, d, d).transpose(0, 2, 1).reshape(len(rows_a), -1)
            traces = np.outer(rows_a[:, :: d + 1].sum(axis=1), rows_b[:, :: d + 1].sum(axis=1))
            vals = ((d - phi) * traces + (d * phi - 1) * (flat_a @ rows_b.T)) / (d**3 - d)
        else:
            # tr(rho A_i (x) B_j) = rows_a R rows_b^T over operator rows A.T.ravel(),
            # with R[(x, u), (y, v)] = rho[(x, y), (u, v)]: O(k d^4) in place of a
            # d^2 x d^2 Kronecker product and matmul per pair. R is never built: for
            # each Alice index x, the (d_b, d_a, d_b) slab rho[(x, .), .] transposed is
            # rows x d_a .. (x + 1) d_a of R, and rows_a R is summed slab by slab, so
            # the state is copied one slab, 1/d_a of it, at a time
            left = np.zeros((len(rows_a), db * db), dtype=complex)
            for x in range(da):
                slab = rho.mat[x * db : (x + 1) * db].reshape(db, da, db).transpose(1, 0, 2)
                left += rows_a[:, x * da : (x + 1) * da] @ slab.reshape(da, db * db)
            vals = left @ rows_b.T
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
    """Rank-1 projective measurement in a Haar-random basis, labels 0..d-1:
    the projectors of a unitary's columns, valid by construction, so held
    read-only as one stack without Povm's eigensolves."""
    stack = np.array([projector(c) for c in haar_unitary(d, rng).T])
    stack.setflags(write=False)
    return Povm._trusted(list(stack), list(range(len(stack))))


def random_povm(n_outcomes: int, d: int, rng: np.random.Generator) -> Povm:
    """Random POVM from normalized Wishart blocks."""
    d, blocks = _check_dim(d, lo=1), []
    for _ in range(_check_dim(n_outcomes, "n_outcomes", 1)):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(g @ g.conj().T)
    vals, vecs = np.linalg.eigh(sum(blocks))
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return Povm([inv_sqrt @ b @ inv_sqrt for b in blocks])
