"""Local filtering and hidden-nonlocality scans."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import ChshResult, chsh_value, example_chsh_settings, horodecki_m
from .qmat import _Holder, _check_dim, _check_operator, _check_real, _frozen, tensor
from .states import STATES, DensityMatrix, _check_density, werner2x2

DEFAULT_EPS_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
_DEGENERATE_TOL = 1e-12


@dataclass
class LocalFilter(_Holder):
    """Success branches K_A, K_B of one local two-outcome measurement each,
    or equal-length stacks (k, n, n) of them, one filter per item.

    Valid when K^dag K <= I on both sides, so each extends to a measurement
    {K, completion}; a stack reports its worst item. Both are held read-only.
    """

    k_a: np.ndarray
    k_b: np.ndarray

    def __post_init__(self) -> None:
        self.k_a = _frozen(_check_operator(self.k_a, "k_a", stack=True), self.k_a)
        self.k_b = _frozen(_check_operator(self.k_b, "k_b", stack=True), self.k_b)
        if self.k_a.shape[:-2] != self.k_b.shape[:-2]:
            raise ValueError(f"k_a and k_b must be one matrix each or equal-length stacks, got shapes {self.k_a.shape} and {self.k_b.shape}")
        with np.errstate(invalid="ignore"):  # a non-finite K gives a NaN top, rejected below
            for name, k in (("k_a", self.k_a), ("k_b", self.k_b)):
                top = np.linalg.eigvalsh(k.conj().swapaxes(-1, -2) @ k).max(initial=0.0)
                if not top <= 1 + 1e-10:
                    raise ValueError(f"{name} is not a valid filter: max eigenvalue of K^dag K is {top}")


@dataclass
class FilterOutcome:
    """Post-selected state and the probability of the success branch."""

    post_state: DensityMatrix | None
    success_prob: float


def apply_filters(rho: DensityMatrix, f: LocalFilter) -> FilterOutcome | list[FilterOutcome]:
    """Conditional state (K_A (x) K_B) rho (.)^dag / p on filter success. A
    stack of filters gives a list of outcomes from one matmul chain and one
    density check; one filter is the stack of one and gives its outcome."""
    d_a, d_b = rho.d_a, rho.d_b
    k_a, k_b = _check_operator(f.k_a, "k_a", d_a, stack=True), _check_operator(f.k_b, "k_b", d_b, stack=True)
    k = tensor(k_a, k_b).reshape(-1, rho.dim, rho.dim)
    unnorm = k @ rho.mat @ k.conj().transpose(0, 2, 1)
    p = np.trace(unnorm, axis1=1, axis2=2).real
    live = ~(p < _DEGENERATE_TOL)
    post = unnorm[live] / p[live, None, None]
    _check_density(post)
    probs = p.tolist()
    outcomes = [FilterOutcome(None, max(pk, 0.0)) for pk in probs]
    for j, i in enumerate(np.flatnonzero(live).tolist()):
        outcomes[i] = FilterOutcome(DensityMatrix._trusted(post[j], d_a, d_b), probs[i])
    return outcomes if f.k_a.ndim == 3 else outcomes[0]


def hirsch_filters(epsilon, q: float) -> LocalFilter:
    """F_A = eps|0><0| + |1><1| and F_B with delta = eps/sqrt(q), for one eps
    or, as a stack, for each eps of a 1-D grid.

    Both filters are divided by max(delta, 1), exact when delta <= 1: pure
    filters are defined up to scale, so the post-state is unchanged and
    only the success probability shifts. Both are diagonal, so LocalFilter's
    K^dag K <= I holds iff every |entry|^2 <= 1 + 1e-10, checked here in
    place of its eigensolves. A delta past the largest float overflows to
    inf and leaves F_B NaN: a ValueError.
    """
    grid = epsilon if np.ndim(epsilon) else [epsilon]  # a grid of rows fails the check of its first row
    eps = np.array([_check_real(e, 0, math.inf, "epsilon", "()") for e in grid]).reshape(np.shape(epsilon))
    return _hirsch_filters(eps, _check_real(q, 0, 1, "q", "(]"))


def _hirsch_filters(eps: np.ndarray, q: float) -> LocalFilter:
    """hirsch_filters of an array of checked epsilons and a checked q."""
    f = np.zeros((2, *eps.shape, 2, 2), dtype=complex)  # F_A, F_B
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow, and inf / inf, are rejected below
        delta = eps / np.sqrt(q)
        f[..., 0, 0], f[..., 1, 1] = (eps, delta), 1.0
        f /= np.maximum(delta, 1.0)[..., None, None]
    for name, top in zip(("k_a", "k_b"), (np.abs(f) ** 2).reshape(2, -1).max(axis=1, initial=0.0).tolist()):
        if not top <= 1 + 1e-10:
            raise ValueError(f"{name} is not a valid filter: max eigenvalue of K^dag K is {top}")
    return LocalFilter._trusted(*f)


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

    The block state werner2x2(d/(d+2)) = (d/(d+2)) (I/(2d) + |Psi-><Psi-|)
    has CHSH value 2 sqrt(2) d/(d+2) at the standard settings, above 2 for d >= 5.
    """
    d = _check_dim(d, lo=3)
    w_prime = werner2x2(d / (d + 2))
    hor = horodecki_m(w_prime)
    return PopescuResult(w_prime, chsh_value(w_prime, example_chsh_settings()), 2 * (d + 2) / d**3, hor.m_rho, hor.value)


@dataclass
class ScanRow:
    epsilon: float
    success_prob: float
    m: float
    chsh_bound: float
    chsh_at_optimal: float


_SCAN_FAMILIES = ("rho-g", "rho-g-prime")


def hidden_nonlocality_scan(family: str, q: float, epsilons=DEFAULT_EPS_GRID) -> list[ScanRow]:
    """Filter the chosen singlet/noise family over a 1-D epsilon grid, as one
    stack, after checking every epsilon.

    Each row reports the filter success probability, M of the post-state,
    the bound 2 sqrt(M), and the CHSH value at the constructed optimal
    settings. As epsilon -> 0 the bound approaches 2 sqrt(1+q) for the base
    family and 2 sqrt(1+q/4) for the lifted one.
    """
    name = family.replace("_", "-")
    if name not in _SCAN_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {list(_SCAN_FAMILIES)} ('_' may stand for '-')")
    state = STATES[name](q)  # checks q, in [0, 1]
    if np.ndim(epsilons) != 1:
        raise ValueError(f"the epsilon grid must be 1-D, got {epsilons!r}")
    grid = [_check_real(eps, 0, math.inf, "epsilon", "()") for eps in epsilons]
    q_b = float(q) if q > 0 else 1.0  # at q = 0 Bob's filter equals Alice's, which is hirsch_filters at q = 1
    try:
        outcomes = apply_filters(state, _hirsch_filters(np.array(grid), q_b))
    except ValueError:  # a check failed inside the stack: name the first epsilon that fails it alone
        for eps in grid:
            try:
                apply_filters(state, _hirsch_filters(np.array(eps), q_b))
            except ValueError as err:
                raise ValueError(f"at epsilon {eps}: {err}") from None
        raise
    for eps, outcome in zip(grid, outcomes):
        if outcome.post_state is None:
            raise ValueError(f"the filters at epsilon {eps} never succeed on this state")
    results: list[ChshResult] = horodecki_m([outcome.post_state for outcome in outcomes])
    return [ScanRow(eps, out.success_prob, res.m_rho, float(2 * np.sqrt(res.m_rho)), res.value) for eps, out, res in zip(grid, outcomes, results)]


def scan_to_csv(rows: list[ScanRow]) -> str:
    lines = ["epsilon,success_prob,M,chsh_bound,chsh_at_optimal_settings"]
    for r in rows:
        lines.append(
            f"{r.epsilon:.12g},{r.success_prob:.12g},{r.m:.12g},{r.chsh_bound:.12g},{r.chsh_at_optimal:.12g}"
        )
    return "\n".join(lines) + "\n"
