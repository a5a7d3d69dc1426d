"""CHSH evaluation, correlation matrices, and the Horodecki criterion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import trace_table, unit_bloch
from .qmat import PAULIS
from .states import DensityMatrix

_RANK_TOL = 1e-12


@dataclass
class ChshSettings:
    """Two Bloch directions per party: Alice measures x or x2, Bob y or y2."""

    x: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    y2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "x2", "y", "y2"):
            setattr(self, name, unit_bloch(getattr(self, name), f"setting {name}"))

    def to_dict(self) -> dict:
        return {
            "x": [float(c) for c in self.x],
            "x'": [float(c) for c in self.x2],
            "y": [float(c) for c in self.y],
            "y'": [float(c) for c in self.y2],
        }


@dataclass
class ChshResult:
    """CHSH diagnosis of a two-qubit state."""

    value: float
    m_rho: float
    settings: ChshSettings
    eigen_pair: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "M": self.m_rho,
            "settings": self.settings.to_dict(),
            "eigenvalues": [self.eigen_pair[0], self.eigen_pair[1]],
        }


def _require_two_qubits(rho: DensityMatrix) -> None:
    if (rho.d_a, rho.d_b) != (2, 2):
        raise ValueError(f"two-qubit state required, got {rho.d_a}x{rho.d_b}")


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """3x3 matrix t[n, m] = tr(rho sigma_n (x) sigma_m), as one contraction."""
    _require_two_qubits(rho)
    t = trace_table(rho, PAULIS, PAULIS).real
    if np.max(np.abs(t)) > 1 + 1e-9:
        raise ValueError("correlation entries outside [-1, 1]")
    return t


def chsh_value(rho: DensityMatrix, s: ChshSettings) -> float:
    """E(x,y) + E(x',y) + E(x',y') - E(x,y') for spin observables, with
    E(a, b) = a.T T b read off the correlation matrix."""
    return chsh_value_from_t(correlation_matrix(rho), s.x, s.x2, s.y, s.y2)


def chsh_value_from_t(t: np.ndarray, x, x2, y, y2) -> float:
    """The CHSH combination through the correlation matrix t, E(a, b) = a.T t b."""
    return float(x @ t @ y + x2 @ t @ y + x2 @ t @ y2 - x @ t @ y2)


def chsh_max_random(rho: DensityMatrix, n_settings: int, seed: int) -> float:
    """Best CHSH value over n_settings random setting quadruples."""
    t = correlation_matrix(rho)
    rng = np.random.default_rng(seed)
    vs = rng.standard_normal((4, n_settings, 3))
    vs /= np.linalg.norm(vs, axis=2, keepdims=True)
    x, x2, y, y2 = vs
    # E(x,y) + E(x2,y) + E(x2,y2) - E(x,y2) as (x T).(y - y2) + (x2 T).(y + y2)
    vals = np.einsum("ij,ij->i", x @ t, y - y2)
    vals += np.einsum("ij,ij->i", x2 @ t, y + y2)
    return float(vals.max())


def example_chsh_settings() -> ChshSettings:
    """Maximal-violation settings for the singlet: Alice measures spin along
    z and x, Bob along -(z+x)/sqrt(2) and (z-x)/sqrt(2)."""
    s = 1 / np.sqrt(2)
    return ChshSettings(
        x=np.array([0.0, 0.0, 1.0]),
        x2=np.array([1.0, 0.0, 0.0]),
        y=np.array([-s, 0.0, -s]),
        y2=np.array([-s, 0.0, s]),
    )


def _canonical_settings() -> ChshSettings:
    e = np.eye(3)
    return ChshSettings(e[0], e[1], e[0], e[1])


def optimal_settings(rho: DensityMatrix) -> ChshSettings:
    """Settings achieving the Horodecki maximum 2 sqrt(M(rho)).

    Built from the top two eigenvectors z, z' of T^T T: Alice's directions
    along T z and T z', Bob's y = cos(theta) z + sin(theta) z' and
    y' = cos(theta) z - sin(theta) z' with tan(theta) = |T z'| / |T z|.
    The residual orientation freedom is resolved by trying the four sign
    choices for (z, z') and keeping the best.
    """
    return _optimal_settings_from_t(correlation_matrix(rho))[0]


def _optimal_settings_from_t(t: np.ndarray) -> tuple[ChshSettings, np.ndarray]:
    """optimal_settings for the correlation matrix t, with the ascending
    eigenvalues of T^T T it was built from."""
    vals, vecs = np.linalg.eigh(t.T @ t)
    z, zp = vecs[:, 2], vecs[:, 1]
    if np.linalg.norm(t @ z) < _RANK_TOL and np.linalg.norm(t @ zp) < _RANK_TOL:
        return _canonical_settings(), vals
    best: tuple[float, tuple] | None = None
    fallback = np.array([1.0, 0.0, 0.0])
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            za, zb = s1 * z, s2 * zp
            ta, tb = t @ za, t @ zb
            na, nb = np.linalg.norm(ta), np.linalg.norm(tb)
            xa = ta / na if na > _RANK_TOL else fallback
            xb = tb / nb if nb > _RANK_TOL else fallback
            theta = np.arctan2(nb, na)
            cand = (xb, xa, np.cos(theta) * za + np.sin(theta) * zb, np.cos(theta) * za - np.sin(theta) * zb)
            val = chsh_value_from_t(t, *cand)
            if best is None or val > best[0]:
                best = (val, cand)
    assert best is not None
    return ChshSettings(*best[1]), vals


def horodecki_m(rho: DensityMatrix) -> ChshResult:
    """M(rho) = sum of the two largest eigenvalues of T^T T, together with
    settings that attain the maximal CHSH value 2 sqrt(M(rho))."""
    t = correlation_matrix(rho)
    settings, vals = _optimal_settings_from_t(t)
    u, u_tilde = float(vals[2]), float(vals[1])
    value = chsh_value_from_t(t, settings.x, settings.x2, settings.y, settings.y2)
    return ChshResult(value=value, m_rho=u + u_tilde, settings=settings, eigen_pair=(u, u_tilde))
