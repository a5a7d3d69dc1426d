"""Observables, projective measurements, POVMs and Born-rule probabilities."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .qmat import PAULIS, I2, HERM_TOL, PSD_TOL, hermitian_eig, hermiticity_error, projector
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


def bloch_vector(x: float, y: float, z: float) -> np.ndarray:
    return unit_bloch([x, y, z])


def _encode_matrix(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]


def _decode_matrix(entries) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in entries])
    d = int(round(np.sqrt(flat.size)))
    if d * d != flat.size:
        raise ValueError(f"expected a square matrix, got {flat.size} entries")
    return flat.reshape(d, d)


@dataclass
class ProjectiveMeasurement:
    """Orthogonal projectors summing to the identity, with real outcome labels."""

    projectors: list[np.ndarray]
    labels: list[float]

    def __post_init__(self) -> None:
        self.projectors = [np.asarray(p, dtype=complex) for p in self.projectors]
        if not self.projectors:
            raise ValueError("a measurement needs at least one projector")
        if len(self.projectors) != len(self.labels):
            raise ValueError("one label per projector required")
        stack = np.array(self.projectors)
        if not np.isfinite(stack).all():
            raise ValueError("projectors must be finite")
        for i, p in enumerate(stack):
            # P_i P_j against P_i for j = i and 0 otherwise, all j in one matmul
            prod = np.matmul(p, stack)
            prod[i] -= p
            bad = np.flatnonzero(np.abs(prod).max(axis=(1, 2)) > COMPLETENESS_TOL)
            if bad.size:
                raise ValueError(f"projectors {i},{bad[0]} are not orthogonal idempotents")
        if np.max(np.abs(stack.sum(axis=0) - np.eye(len(stack[0])))) > COMPLETENESS_TOL:
            raise ValueError("projectors do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @classmethod
    def from_basis(cls, vectors: np.ndarray, labels: list[float] | None = None) -> "ProjectiveMeasurement":
        """Rank-1 measurement from the columns of an orthonormal matrix."""
        vectors = np.asarray(vectors, dtype=complex)
        k = vectors.shape[1]
        if labels is None:
            labels = list(range(k))
        return cls([projector(vectors[:, i]) for i in range(k)], list(labels))

    def to_json(self) -> str:
        return json.dumps({"labels": list(self.labels), "operators": [_encode_matrix(p) for p in self.projectors]})

    @classmethod
    def from_json(cls, text: str) -> "ProjectiveMeasurement":
        obj = json.loads(text)
        return cls([_decode_matrix(e) for e in obj["operators"]], obj["labels"])


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

    @classmethod
    def _trusted(cls, elements: list[np.ndarray], labels: list) -> "Povm":
        """A POVM that is valid by construction, such as the pieces cut from an
        already validated one; skips the eigensolve per element."""
        povm = object.__new__(cls)
        povm.elements, povm.labels = elements, labels
        return povm

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def to_json(self) -> str:
        return json.dumps({"labels": list(self.labels), "operators": [_encode_matrix(e) for e in self.elements]})

    @classmethod
    def from_json(cls, text: str) -> "Povm":
        obj = json.loads(text)
        return cls([_decode_matrix(e) for e in obj["operators"]], obj["labels"])


@dataclass
class Observable:
    """Hermitian operator; outcomes are its eigenvalues."""

    matrix: np.ndarray
    _measurement: ProjectiveMeasurement | None = None

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        err = hermiticity_error(self.matrix)
        if err > HERM_TOL:
            raise ValueError(f"observable is not Hermitian (max deviation {err:.3e})")

    def measurement(self, degeneracy_tol: float = 1e-8) -> ProjectiveMeasurement:
        """Spectral measurement, merging eigenvalues closer than degeneracy_tol."""
        if self._measurement is not None:
            return self._measurement
        vals, vecs = hermitian_eig(self.matrix)
        projectors: list[np.ndarray] = []
        labels: list[float] = []
        i = 0
        while i < len(vals):
            j = i
            while j + 1 < len(vals) and abs(vals[j + 1] - vals[i]) <= degeneracy_tol:
                j += 1
            block = vecs[:, i : j + 1]
            projectors.append(block @ block.conj().T)
            labels.append(float(np.mean(vals[i : j + 1])))
            i = j + 1
        self._measurement = ProjectiveMeasurement(projectors, labels)
        return self._measurement


def obs_from_bloch(v) -> Observable:
    """Spin observable v . sigma with outcomes +-1 and projectors (I +- v.sigma)/2."""
    v = unit_bloch(v)
    m = sum(float(vi) * s for vi, s in zip(v, PAULIS))
    meas = ProjectiveMeasurement([(I2 + m) / 2, (I2 - m) / 2], [1.0, -1.0])
    return Observable(m, meas)


def _rows(ops: list[np.ndarray], d: int) -> np.ndarray:
    """Stack local operators as rows A.T.ravel()."""
    return np.array(ops, dtype=complex).reshape(len(ops), d, d).transpose(0, 2, 1).reshape(len(ops), d * d)


def trace_table(rho: DensityMatrix, ops_a: list[np.ndarray], ops_b: list[np.ndarray]) -> np.ndarray:
    """Complex matrix tr(rho A_i (x) B_j) over two lists of local operators.

    One contraction of the realigned state R[(a, c), (b, d)] = rho[(a, b), (c, d)]
    with the stacked rows A_i.T.ravel() and B_j.T.ravel(): O(k d^4) in place
    of a d^2 x d^2 Kronecker product and matmul per pair.
    """
    da, db = rho.d_a, rho.d_b
    a = [np.asarray(m, dtype=complex) for m in ops_a]
    b = [np.asarray(n, dtype=complex) for n in ops_b]
    shape_a = next((m.shape for m in a if m.shape != (da, da)), (da, da))
    shape_b = next((n.shape for n in b if n.shape != (db, db)), (db, db))
    if shape_a != (da, da) or shape_b != (db, db):
        raise ValueError(f"operator dimensions {shape_a}, {shape_b} do not match state ({da}, {db})")
    r = rho.mat.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    return _rows(a, da) @ r @ _rows(b, db).T


def born_table(rho: DensityMatrix, elements_a: list[np.ndarray], elements_b: list[np.ndarray]) -> np.ndarray:
    """Matrix of joint Born probabilities tr(rho A_i (x) B_j), clamped to [0, 1].

    The elements must be positive operators on the respective local spaces;
    non-finite or non-real values, and values outside [-1e-10, 1 + 1e-10],
    are rejected as invalid input.
    """
    if not all(np.isfinite(m).all() for m in (*elements_a, *elements_b)):
        raise ValueError("measurement operator is not finite")
    vals = trace_table(rho, elements_a, elements_b)
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


def born_joint(rho: DensityMatrix, ma: np.ndarray, nb: np.ndarray) -> float:
    """tr(rho  ma (x) nb): the single cell of born_table, with its checks."""
    return float(born_table(rho, [ma], [nb])[0, 0])


def expectation_joint(rho: DensityMatrix, obs_a: Observable, obs_b: Observable) -> float:
    """Joint expectation as the label-weighted sum of Born probabilities."""
    ma, mb = obs_a.measurement(), obs_b.measurement()
    return float(np.asarray(ma.labels) @ born_table(rho, ma.projectors, mb.projectors) @ np.asarray(mb.labels))


def post_measurement_state(rho: DensityMatrix, m: np.ndarray) -> tuple[DensityMatrix | None, float]:
    """State update rho -> M rho M^dag / p with p = tr(M rho M^dag).

    Returns (None, 0.0) when the outcome probability vanishes.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (rho.dim, rho.dim):
        raise ValueError(f"measurement operator shape {m.shape} does not match state dimension {rho.dim}")
    unnorm = m @ rho.mat @ m.conj().T
    p = np.trace(unnorm).real
    if p < ZERO_WEIGHT_TOL:
        return None, 0.0
    return DensityMatrix(unnorm / p, rho.d_a, rho.d_b), float(p)


def povm_refine(povm: Povm) -> tuple[Povm, list[int], np.ndarray, np.ndarray]:
    """Split every POVM element into weighted rank-1 pieces.

    Each refined element is alpha |v><v| with alpha in (0, 1]; eigenvalues
    below 1e-12 are dropped. Returns the refined POVM, the back-map that
    sends each refined outcome to the index of its originating coarse
    outcome, so coarse probabilities are recovered by summation, and the
    weights alpha and unit kets v (as rows) of the pieces.
    """
    back_map: list[int] = []
    labels: list = []
    weights: list[float] = []
    kets: list[np.ndarray] = []
    for i, e in enumerate(povm.elements):
        vals, vecs = hermitian_eig(e)
        for k, w in enumerate(vals):
            if w > ZERO_WEIGHT_TOL:
                back_map.append(i)
                labels.append(f"{povm.labels[i]}:{k}")
                weights.append(w)
                kets.append(vecs[:, k])
    elements = [w * projector(v) for w, v in zip(weights, kets)]
    return Povm._trusted(elements, labels), back_map, np.array(weights), np.array(kets, dtype=complex)


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


def coarse_grain(table: np.ndarray, back_map_a: list[int], back_map_b: list[int], ka: int, kb: int) -> np.ndarray:
    """Sum a refined-outcome probability table back onto coarse outcomes."""
    table = np.array(table, dtype=float)
    if table.shape[0] < len(back_map_a) or table.shape[1] < len(back_map_b):
        raise ValueError(f"table {table.shape} has fewer outcomes than the back-maps")
    table = table[: len(back_map_a), : len(back_map_b)]
    return outcome_sum(back_map_b, kb)(outcome_sum(back_map_a, ka)(table, 0), 1)


def random_projective(d: int, rng: np.random.Generator) -> ProjectiveMeasurement:
    """Rank-1 measurement in a Haar-random basis, labels 0..d-1."""
    from .qmat import haar_unitary

    return ProjectiveMeasurement.from_basis(haar_unitary(d, rng))


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
