"""CHSH evaluation, correlation matrices, and the Horodecki criterion."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import unit_bloch
from .qmat import PAULIS, _check_dim
from .states import DensityMatrix

_RANK_TOL = 1e-12
_PAULI_ROWS = np.array(PAULIS).transpose(0, 2, 1).reshape(3, 4)  # rows sigma_n.T.ravel()


@dataclass
class ChshSettings:
    """Two Bloch directions per party: Alice measures x or x2, Bob y or y2,
    each held as a read-only array (see measure.unit_bloch)."""

    x: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    y2: np.ndarray

    def __post_init__(self) -> None:
        self.x, self.x2 = unit_bloch(self.x, "setting x"), unit_bloch(self.x2, "setting x2")
        self.y, self.y2 = unit_bloch(self.y, "setting y"), unit_bloch(self.y2, "setting y2")

    def to_dict(self) -> dict:
        return {"x": self.x.tolist(), "x'": self.x2.tolist(), "y": self.y.tolist(), "y'": self.y2.tolist()}


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


def correlation_matrix(rho: DensityMatrix | list[DensityMatrix]) -> np.ndarray:
    """3x3 matrix t[n, m] = tr(rho sigma_n (x) sigma_m) from the Pauli rows;
    for a list of states, their (k, 3, 3) stack from the same one product."""
    for r in rho if isinstance(rho, list) else [rho]:
        if (r.d_a, r.d_b) != (2, 2):
            raise ValueError(f"two-qubit state required, got {r.d_a}x{r.d_b}")
    m = np.array([r.mat for r in rho]).reshape(-1, 4, 4) if isinstance(rho, list) else rho.mat
    # realigned R[(a, c), (b, d)] = rho[(a, b), (c, d)] and one product: the
    # latency path; measure.born_table contracts slab by slab for memory
    r = m.reshape(*m.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -2).reshape(m.shape)
    t = (_PAULI_ROWS @ r @ _PAULI_ROWS.T).real
    if max(map(abs, t.ravel().tolist()), default=0.0) > 1 + 1e-9:
        raise ValueError("correlation entries outside [-1, 1]")
    return t


def chsh_value(rho: DensityMatrix, s: ChshSettings) -> float:
    """E(x,y) + E(x',y) + E(x',y') - E(x,y') for spin observables, with
    E(a, b) = a.T T b read off the correlation matrix."""
    return chsh_value_from_t(correlation_matrix(rho), s.x, s.x2, s.y, s.y2)


def chsh_value_from_t(t: np.ndarray, x, x2, y, y2) -> float:
    """The CHSH combination through the correlation matrix t, E(a, b) = a.T t b,
    each a.T t taken once: @ binds to the left, so these are its bits."""
    xt, x2t = x @ t, x2 @ t
    return float(xt @ y + x2t @ y + x2t @ y2 - xt @ y2)


def chsh_max_random(rho: DensityMatrix, n_settings: int, seed: int) -> float:
    """Best CHSH value over n_settings random setting quadruples."""
    n_settings, seed = _check_dim(n_settings, "n_settings", 1), _check_dim(seed, "seed", 0)
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


def optimal_settings(rho: DensityMatrix) -> ChshSettings:
    """Settings achieving the Horodecki maximum 2 sqrt(M(rho)).

    Built from the top two eigenvectors z, z' of T^T T: Alice's directions
    along T z and T z', Bob's y, y' = cos(theta) z +- sin(theta) z' with
    tan(theta) = |T z'| / |T z|. z and z' keep the signs eigh gives them:
    every sign choice attains 2 sqrt(|T z|^2 + |T z'|^2) in exact arithmetic.
    """
    return horodecki_m(rho).settings


def _optimal_settings_from_t(t: np.ndarray, vecs: np.ndarray) -> tuple[ChshSettings, float]:
    """optimal_settings for the correlation matrix t, given the eigenvectors
    of T^T T in ascending order of eigenvalue, and their CHSH value."""
    z, zp = vecs[:, 2], vecs[:, 1]
    tz, tzp = t @ z, t @ zp
    na, nb = math.sqrt(tz.dot(tz)), math.sqrt(tzp.dot(tzp))  # np.linalg.norm's formula
    if na < _RANK_TOL and nb < _RANK_TOL:  # T = 0 to rounding: any settings will do
        e = np.eye(3)
        x, x2, y, y2 = e[0], e[1], e[0], e[1]
    else:
        theta = np.arctan2(nb, na)  # not math.atan2: the two differ in the last bit on some inputs
        ca, sb = math.cos(theta) * z, math.sin(theta) * zp
        e0 = np.array([1.0, 0.0, 0.0])  # Alice's direction where T z or T z' vanishes
        x, x2, y, y2 = (tzp / nb if nb > _RANK_TOL else e0), (tz / na if na > _RANK_TOL else e0), ca + sb, ca - sb
    return ChshSettings(x, x2, y, y2), chsh_value_from_t(t, x, x2, y, y2)


def horodecki_m(rho: DensityMatrix | list[DensityMatrix], settings: ChshSettings | None = None) -> ChshResult | list[ChshResult]:
    """M(rho) = sum of the two largest eigenvalues of T^T T, together with
    settings that attain the maximal CHSH value 2 sqrt(M(rho)), or with the
    CHSH value at the given settings. A list of states gives a list of
    results from one stacked product and one eigh; one state is the stack
    of one and gives its result alone."""
    t = correlation_matrix(rho)
    vals, vecs = np.linalg.eigh(t.swapaxes(-1, -2) @ t)
    results = []
    # the list leads the zip, so it stops there and never asks an array for an item past its end
    for (_, u_tilde, u), ti, vi in zip(vals.reshape(-1, 3).tolist(), t.reshape(-1, 3, 3), vecs.reshape(-1, 3, 3)):
        s, value = _optimal_settings_from_t(ti, vi) if settings is None else (settings, chsh_value_from_t(ti, settings.x, settings.x2, settings.y, settings.y2))
        results.append(ChshResult(value=value, m_rho=u + u_tilde, settings=s, eigen_pair=(u, u_tilde)))
    return results if isinstance(rho, list) else results[0]
