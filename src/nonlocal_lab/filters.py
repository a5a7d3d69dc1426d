"""Local filtering and hidden-nonlocality scans."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import ChshResult, chsh_value, example_chsh_settings, horodecki_m
from .qmat import _check_dim, _check_real, tensor
from .states import STATES, DensityMatrix, singlet

DEFAULT_EPS_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
_DEGENERATE_TOL = 1e-12


@dataclass
class LocalFilter:
    """Success branches K_A, K_B of one local two-outcome measurement each.

    Valid when K^dag K <= I on both sides, so each extends to a measurement
    {K, completion}.
    """

    k_a: np.ndarray
    k_b: np.ndarray

    def __post_init__(self) -> None:
        self.k_a = np.asarray(self.k_a, dtype=complex)
        self.k_b = np.asarray(self.k_b, dtype=complex)
        with np.errstate(invalid="ignore"):  # a non-finite K gives a NaN top, rejected below
            for name, k in (("k_a", self.k_a), ("k_b", self.k_b)):
                top = np.linalg.eigvalsh(k.conj().T @ k).max()
                if not top <= 1 + 1e-10:
                    raise ValueError(f"{name} is not a valid filter: max eigenvalue of K^dag K is {top}")


@dataclass
class FilterOutcome:
    """Post-selected state and the probability of the success branch."""

    post_state: DensityMatrix | None
    success_prob: float


def apply_filters(rho: DensityMatrix, f: LocalFilter) -> FilterOutcome:
    """Conditional state (K_A (x) K_B) rho (.)^dag / p on filter success."""
    if f.k_a.shape != (rho.d_a, rho.d_a) or f.k_b.shape != (rho.d_b, rho.d_b):
        raise ValueError(
            f"filter shapes {f.k_a.shape}, {f.k_b.shape} do not match state ({rho.d_a}, {rho.d_b})"
        )
    k = tensor(f.k_a, f.k_b)
    unnorm = k @ rho.mat @ k.conj().T
    p = np.trace(unnorm).real
    if p < _DEGENERATE_TOL:
        return FilterOutcome(None, max(p, 0.0))
    return FilterOutcome(DensityMatrix(unnorm / p, rho.d_a, rho.d_b), float(p))


def hirsch_filters(epsilon: float, q: float) -> LocalFilter:
    """F_A = eps|0><0| + |1><1| and F_B with delta = eps/sqrt(q).

    When delta would exceed 1 both filters are rescaled by 1/delta: pure
    filters are defined up to scale, so the post-state is unchanged and
    only the success probability shifts.
    """
    epsilon, q = _check_real(epsilon, 0, math.inf, "epsilon", "()"), _check_real(q, 0, 1, "q", "(]")
    delta = epsilon / np.sqrt(q)
    f_a = np.diag([epsilon, 1.0]).astype(complex)
    f_b = np.diag([delta, 1.0]).astype(complex)
    if delta > 1.0:
        f_a /= delta
        f_b /= delta
    return LocalFilter(f_a, f_b)


@dataclass
class PopescuResult:
    """Post-filter two-qubit state of the high-dimension protocol."""

    w_prime: DensityMatrix
    chsh: float
    success_prob: float
    m_rho: float
    chsh_horodecki: float


def popescu_protocol(d: int) -> PopescuResult:
    """Project both sides of the entangled local Werner state onto the first
    two levels and evaluate CHSH on the surviving two-qubit block.

    The block state is (d/(d+2)) (I/(2d) + |Psi-><Psi-|) and its CHSH value
    at the standard settings is 2 sqrt(2) d/(d+2), exceeding 2 for d >= 5.
    """
    d = _check_dim(d, lo=3)
    c = d / (d + 2)
    w_prime = DensityMatrix(c * (np.eye(4) / (2 * d)) + c * singlet().mat, 2, 2)
    success_prob = 2 * (d + 2) / d**3
    value = chsh_value(w_prime, example_chsh_settings())
    hor = horodecki_m(w_prime)
    return PopescuResult(
        w_prime=w_prime,
        chsh=value,
        success_prob=success_prob,
        m_rho=hor.m_rho,
        chsh_horodecki=hor.value,
    )


@dataclass
class ScanRow:
    epsilon: float
    success_prob: float
    m: float
    chsh_bound: float
    chsh_at_optimal: float


_SCAN_FAMILIES = ("rho-g", "rho-g-prime")


def hidden_nonlocality_scan(family: str, q: float, epsilons=DEFAULT_EPS_GRID) -> list[ScanRow]:
    """Filter the chosen singlet/noise family over an epsilon grid.

    Each row reports the filter success probability, M of the post-state,
    the bound 2 sqrt(M), and the CHSH value at the constructed optimal
    settings. As epsilon -> 0 the bound approaches 2 sqrt(1+q) for the base
    family and 2 sqrt(1+q/4) for the lifted one.
    """
    name = family.replace("_", "-")
    if name not in _SCAN_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {list(_SCAN_FAMILIES)} ('_' may stand for '-')")
    state = STATES[name](q)  # checks q
    rows = []
    for eps in epsilons:
        # at q = 0 Bob's filter equals Alice's, which is hirsch_filters at q = 1
        outcome = apply_filters(state, hirsch_filters(eps, q if q > 0 else 1.0))
        if outcome.post_state is None:
            raise ValueError(f"the filters at epsilon {eps} never succeed on this state")
        res: ChshResult = horodecki_m(outcome.post_state)
        rows.append(ScanRow(float(eps), outcome.success_prob, res.m_rho, float(2 * np.sqrt(res.m_rho)), res.value))
    return rows


def scan_to_csv(rows: list[ScanRow]) -> str:
    lines = ["epsilon,success_prob,M,chsh_bound,chsh_at_optimal_settings"]
    for r in rows:
        lines.append(
            f"{r.epsilon:.12g},{r.success_prob:.12g},{r.m:.12g},{r.chsh_bound:.12g},{r.chsh_at_optimal:.12g}"
        )
    return "\n".join(lines) + "\n"
