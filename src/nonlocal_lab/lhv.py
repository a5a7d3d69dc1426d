"""Hidden-variable samplers, response functions, and protocol simulators.

Every simulator takes (n, seed) and produces results that are bit-identical
for equal (seed, n) regardless of worker count (see mc.run_batched).
sign(0) = +1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mc import JointTable, McEstimate, run_batched
from .measure import Povm, ProjectiveMeasurement, povm_refine, unit_bloch
from .states import DensityMatrix, rho_g

__all__ = [
    "sample_sphere_r3",
    "sample_sphere_cd",
    "sign_pm",
    "werner_response_a",
    "werner_response_b",
    "gd_choice",
    "barrett_response_a",
    "barrett_response_b",
    "simulate_werner",
    "simplex_integral_mc",
    "simulate_epr_one_bit",
    "simulate_gd_w2x2",
    "simulate_hirsch_projective",
    "simulate_povm_lift",
    "simulate_barrett",
    "HirschModel",
    "GdResult",
    "HirschResult",
    "LiftResult",
]


def sign_pm(z: np.ndarray) -> np.ndarray:
    """Sign with sign(0) = +1."""
    return np.where(np.asarray(z) >= 0, 1.0, -1.0)


def sample_sphere_r3(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform point(s) on S^2 as normalized 3-component Gaussian draws."""
    v = rng.standard_normal(3 if n is None else (n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def sample_sphere_cd(rng: np.random.Generator, d: int, n: int | None = None) -> np.ndarray:
    """Haar-uniform unit vector(s) in C^d as normalized complex Gaussians."""
    z = rng.standard_normal((d, 2) if n is None else (n, d, 2))
    lam = z[..., 0] + 1j * z[..., 1]
    return lam / np.linalg.norm(lam, axis=-1, keepdims=True)


# -- response functions (scalar reference versions) ------------------------

def werner_response_a(a: int, lam: np.ndarray, proj: ProjectiveMeasurement) -> int:
    """1 iff <lam|P_a|lam> is the minimum of the overlaps, else 0.

    Ties go to the lowest index among the minimizers (a measure-zero set).
    """
    u = np.array([np.vdot(lam, p @ lam).real for p in proj.projectors])
    return int(int(np.argmin(u)) == a)


def werner_response_b(b: int, lam: np.ndarray, proj: ProjectiveMeasurement) -> float:
    """Quantum response <lam|Q_b|lam>."""
    return float(np.vdot(lam, proj.projectors[b] @ lam).real)


def gd_choice(lambda0: np.ndarray, lambda1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Keep the sphere point with the larger |x . lambda_i| (ties keep lambda1)."""
    if abs(np.dot(x, lambda0)) > abs(np.dot(x, lambda1)):
        return lambda0
    return lambda1


def _rank1_weights(povm: Povm) -> tuple[np.ndarray, np.ndarray]:
    """Weights and unit kets of a refined POVM (elements alpha |v><v|)."""
    weights = np.empty(len(povm.elements))
    kets = np.empty((len(povm.elements), povm.dim), dtype=complex)
    for i, el in enumerate(povm.elements):
        w = np.trace(el).real
        if w <= 0:
            raise ValueError(f"element {i} has non-positive weight")
        vals, vecs = np.linalg.eigh(el)
        if vals[:-1].max(initial=0.0) > 1e-10:
            raise ValueError(f"element {i} is not rank 1; refine the POVM first")
        weights[i] = w
        kets[i] = vecs[:, -1]
    return weights, kets


def barrett_response_a(i: int, lam: np.ndarray, refined: Povm) -> float:
    """Threshold response for Alice's refined POVM {x_k P_k}.

    x_k <lam|P_k|lam> when the overlap clears 1/d, plus the leftover weight
    redistributed proportionally to x_i/d.
    """
    weights, kets = _rank1_weights(refined)
    d = refined.dim
    u = np.abs(kets.conj() @ lam) ** 2
    m = weights * u
    chi = (u - 1.0 / d) >= 0
    s = float((m * chi).sum())
    return float(m[i] * chi[i] + (1.0 - s) * weights[i] / d)


def barrett_response_b(j: int, lam: np.ndarray, refined: Povm) -> float:
    """Inverted quantum response y_j (1 - <lam|Q_j|lam>) / (d - 1)."""
    weights, kets = _rank1_weights(refined)
    d = refined.dim
    u = np.abs(kets.conj() @ lam) ** 2
    return float(weights[j] * (1.0 - u[j]) / (d - 1))


# -- simulators -------------------------------------------------------------

def _refine_projective(proj: ProjectiveMeasurement) -> tuple[np.ndarray, list[int]]:
    """Rank-1 kets of a projective measurement plus the coarse back-map."""
    refined, back_map = povm_refine(Povm(list(proj.projectors), list(range(len(proj.projectors)))))
    weights, kets = _rank1_weights(refined)
    if np.max(np.abs(weights - 1.0)) > 1e-9:
        raise ValueError("projective refinement produced non-unit weights")
    return kets, back_map


def _group_matrix(back_map: list[int], k: int) -> np.ndarray:
    g = np.zeros((len(back_map), k))
    for i, a in enumerate(back_map):
        g[i, a] = 1.0
    return g


def simulate_werner(
    d: int,
    proj_a: ProjectiveMeasurement,
    proj_b: ProjectiveMeasurement,
    n: int,
    seed: int,
    workers: int | None = None,
) -> JointTable:
    """Estimate the joint table of the minimizer/quantum response pair.

    The hidden variable is a Haar unit vector in C^d. Alice outputs the
    outcome whose projector overlap is minimal; Bob's per-sample
    contribution is the full overlap distribution, so each sample adds a
    probability row rather than a sampled outcome.
    """
    if proj_a.dim != d or proj_b.dim != d:
        raise ValueError("measurement dimensions must equal d")
    kets_a, bm_a = _refine_projective(proj_a)
    kets_b, bm_b = _refine_projective(proj_b)
    ka, kb = len(proj_a.projectors), len(proj_b.projectors)
    gb = _group_matrix(bm_b, kb)
    bm_a_arr = np.asarray(bm_a)

    def kernel(rng: np.random.Generator, m: int):
        lam = sample_sphere_cd(rng, d, m)
        u_a = np.abs(lam @ kets_a.conj().T) ** 2
        u_b = np.abs(lam @ kets_b.conj().T) ** 2
        a_star = bm_a_arr[np.argmin(u_a, axis=1)]
        v_b = u_b @ gb
        sums = np.zeros((ka, kb))
        sumsq = np.zeros((ka, kb))
        np.add.at(sums, a_star, v_b)
        np.add.at(sumsq, a_star, v_b**2)
        return sums, sumsq

    sums, sumsq = run_batched(n, seed, f"werner:d={d}", kernel, workers)
    return JointTable.from_sums(sums, sumsq, n, seed, proj_a.labels, proj_b.labels)


def simplex_integral_mc(
    d: int,
    a: int,
    proj: ProjectiveMeasurement,
    n: int,
    seed: int,
    workers: int | None = None,
) -> McEstimate:
    """Estimate the overlap integral restricted to the region where outcome
    a is the minimizer; the exact value is 1/d^3 for every rank-1 basis."""
    if proj.dim != d:
        raise ValueError("measurement dimension must equal d")
    if any(abs(np.trace(p).real - 1.0) > 1e-10 for p in proj.projectors):
        raise ValueError("simplex integral requires a rank-1 measurement")
    kets, _ = _refine_projective(proj)

    def kernel(rng: np.random.Generator, m: int):
        lam = sample_sphere_cd(rng, d, m)
        u = np.abs(lam @ kets.conj().T) ** 2
        c = np.where(np.argmin(u, axis=1) == a, u[:, a], 0.0)
        return np.array([c.sum()]), np.array([(c**2).sum()])

    s, s2 = run_batched(n, seed, f"simplex:d={d}:a={a}", kernel, workers)
    return McEstimate.from_sums(float(s[0]), float(s2[0]), n, seed)


def _pm_cells(a_plus: np.ndarray, b_plus: np.ndarray) -> np.ndarray:
    idx = 2 * (~a_plus).astype(int) + (~b_plus).astype(int)
    return np.bincount(idx, minlength=4).astype(float)


def simulate_epr_one_bit(x, y, n: int, seed: int, workers: int | None = None) -> dict[str, McEstimate]:
    """Choice-method simulation of the singlet with the accepted index
    communicated: E(AB) -> -x.y, vanishing marginals."""
    x, y = unit_bloch(x, "direction"), unit_bloch(y, "direction")

    def kernel(rng: np.random.Generator, m: int):
        l0 = sample_sphere_r3(rng, m)
        l1 = sample_sphere_r3(rng, m)
        pick0 = np.abs(l0 @ x) > np.abs(l1 @ x)
        ls = np.where(pick0[:, None], l0, l1)
        a = -sign_pm(ls @ x)
        b = sign_pm(ls @ y)
        return np.array([(a * b).sum(), a.sum(), b.sum()]), np.full(3, float(m))

    s, s2 = run_batched(n, seed, "epr1bit", kernel, workers)
    return {
        "E_AB": McEstimate.from_sums(s[0], s2[0], n, seed),
        "E_A": McEstimate.from_sums(s[1], s2[1], n, seed),
        "E_B": McEstimate.from_sums(s[2], s2[2], n, seed),
    }


@dataclass
class GdResult:
    e_ab: McEstimate
    e_a: McEstimate
    e_b: McEstimate
    table: JointTable
    rewrite_mismatches: int

    @property
    def rewrite_agreement(self) -> float:
        return 1.0 - self.rewrite_mismatches / self.table.n


def simulate_gd_w2x2(x, y, n: int, seed: int, workers: int | None = None) -> GdResult:
    """Choice method without communication: Bob always evaluates lambda0.

    Reproduces the half-singlet/half-noise two-qubit mixture:
    E(AB) -> -(x.y)/2. Also verifies on every sample that Alice's output
    equals -sign(x . (lambda0 + lambda1)).
    """
    x, y = unit_bloch(x, "direction"), unit_bloch(y, "direction")

    def kernel(rng: np.random.Generator, m: int):
        l0 = sample_sphere_r3(rng, m)
        l1 = sample_sphere_r3(rng, m)
        pick0 = np.abs(l0 @ x) > np.abs(l1 @ x)
        ls = np.where(pick0[:, None], l0, l1)
        a = -sign_pm(ls @ x)
        b = sign_pm(l0 @ y)
        cells = _pm_cells(a > 0, b > 0)
        mism = float(np.sum(a != -sign_pm((l0 + l1) @ x)))
        return cells, np.array([(a * b).sum(), a.sum(), b.sum()]), np.array([mism])

    cells, s, mism = run_batched(n, seed, "gd_w2x2", kernel, workers)
    table = JointTable.from_sums(cells.reshape(2, 2), cells.reshape(2, 2), n, seed, [1, -1], [1, -1])
    return GdResult(
        e_ab=McEstimate.from_sums(s[0], float(n), n, seed),
        e_a=McEstimate.from_sums(s[1], float(n), n, seed),
        e_b=McEstimate.from_sums(s[2], float(n), n, seed),
        table=table,
        rewrite_mismatches=int(mism[0]),
    )


@dataclass
class HirschResult:
    table: JointTable
    e_ab: McEstimate
    e_a: McEstimate
    e_b: McEstimate
    accept_rate: McEstimate | None


def simulate_hirsch_projective(
    q: float, x, y, n: int, seed: int, workers: int | None = None
) -> HirschResult:
    """Simulate spin measurements on the singlet/|0> mixture with weight q.

    Valid for q in [0, 1/2]. A shared uniform r mixes the full protocol
    (probability 2q) with the flagged-noise branch; inside the protocol
    Alice accepts the shared sphere point with probability |x . lambda|.
    accept_rate estimates that acceptance frequency (None when q = 0).
    """
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"model is only valid for q in [0, 1/2], got {q}")
    x, y = unit_bloch(x, "direction"), unit_bloch(y, "direction")
    p = 2.0 * q

    def kernel(rng: np.random.Generator, m: int):
        lam = sample_sphere_r3(rng, m)
        r = rng.random(m)
        u1 = rng.random(m)
        u2 = rng.random(m)
        xl = lam @ x
        mix = r < p
        acc = mix & (u1 < np.abs(xl))
        a = np.where(acc, -sign_pm(xl), np.where(u2 < (1 + x[2]) / 2, 1.0, -1.0))
        b = sign_pm(lam @ y)
        cells = _pm_cells(a > 0, b > 0)
        sums = np.array([(a * b).sum(), a.sum(), b.sum()])
        return cells, sums, np.array([float(acc.sum()), float(mix.sum())])

    cells, s, counts = run_batched(n, seed, f"hirsch:q={q!r}", kernel, workers)
    table = JointTable.from_sums(cells.reshape(2, 2), cells.reshape(2, 2), n, seed, [1, -1], [1, -1])
    n_acc, n_mix = counts
    accept = None
    if n_mix > 0:
        accept = McEstimate.from_sums(n_acc, n_acc, int(n_mix), seed)
    return HirschResult(
        table=table,
        e_ab=McEstimate.from_sums(s[0], float(n), n, seed),
        e_a=McEstimate.from_sums(s[1], float(n), n, seed),
        e_b=McEstimate.from_sums(s[2], float(n), n, seed),
        accept_rate=accept,
    )


class HirschModel:
    """Base-model handle: the projective protocol above, exposed per party.

    Used by the POVM-lift driver, which needs to run Alice's and Bob's halves
    of the dichotomic simulation on per-sample measurement directions while
    both consume the same shared randomness.
    """

    dim = 2

    def __init__(self, q: float):
        if not 0.0 <= q <= 0.5:
            raise ValueError(f"model is only valid for q in [0, 1/2], got {q}")
        self.q = q

    @property
    def rho0(self) -> DensityMatrix:
        return rho_g(self.q)

    def shared(self, rng: np.random.Generator, m: int):
        return sample_sphere_r3(rng, m), rng.random(m)

    def alice_hit(self, v: np.ndarray, shared, rng: np.random.Generator) -> np.ndarray:
        """Outcome +1 indicator for the dichotomic measurement along rows of v."""
        lam, r = shared
        m = lam.shape[0]
        u1 = rng.random(m)
        u2 = rng.random(m)
        vl = np.einsum("ij,ij->i", v, lam)
        acc = (r < 2.0 * self.q) & (u1 < np.abs(vl))
        return np.where(acc, vl < 0, u2 < (1 + v[:, 2]) / 2)

    def bob_hit(self, w: np.ndarray, shared, rng: np.random.Generator) -> np.ndarray:
        lam, _ = shared
        return np.einsum("ij,ij->i", w, lam) >= 0


def _bloch_rows(kets: np.ndarray) -> np.ndarray:
    """Bloch vectors of rank-1 qubit projectors |v><v|."""
    a, b = kets[:, 0], kets[:, 1]
    return np.stack(
        [2 * (a.conj() * b).real, 2 * (a.conj() * b).imag, (np.abs(a) ** 2 - np.abs(b) ** 2)], axis=1
    )


@dataclass
class LiftResult:
    table: JointTable
    both_hit: JointTable
    step4_a: McEstimate
    step4_b: McEstimate
    target: DensityMatrix


def _choice_cdf(weights: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(weights)
    cdf[-1] = max(cdf[-1], 1.0)
    return cdf


def simulate_povm_lift(
    base: HirschModel,
    sigma_a: np.ndarray,
    sigma_b: np.ndarray,
    povm_a: Povm,
    povm_b: Povm,
    n: int,
    seed: int,
    workers: int | None = None,
) -> LiftResult:
    """Simulate POVMs on the lifted state by re-running the base dichotomic model.

    Per run each party draws a refined outcome a with probability alpha_a/d,
    simulates {P_a, I - P_a} on the base state through the shared hidden
    variable, outputs a on a hit, and otherwise outputs a' with probability
    tr(M_a' sigma). The estimated table targets the Born probabilities of
    lift_state(base.rho0, sigma_a, sigma_b).
    """
    from .states import lift_state

    d = base.dim
    if povm_a.dim != d or povm_b.dim != d:
        raise ValueError(f"POVMs must act on dimension {d}")
    sigma_a = np.asarray(sigma_a, dtype=complex)
    sigma_b = np.asarray(sigma_b, dtype=complex)
    ref_a, bm_a = povm_refine(povm_a)
    ref_b, bm_b = povm_refine(povm_b)
    alphas, kets_a = _rank1_weights(ref_a)
    betas, kets_b = _rank1_weights(ref_b)
    bloch_a, bloch_b = _bloch_rows(kets_a), _bloch_rows(kets_b)
    cdf_pick_a = _choice_cdf(alphas / d)
    cdf_pick_b = _choice_cdf(betas / d)
    step4_pmf_a = np.array([np.trace(el @ sigma_a).real for el in ref_a.elements])
    step4_pmf_b = np.array([np.trace(el @ sigma_b).real for el in ref_b.elements])
    cdf4_a = _choice_cdf(step4_pmf_a)
    cdf4_b = _choice_cdf(step4_pmf_b)
    bm_a_arr, bm_b_arr = np.asarray(bm_a), np.asarray(bm_b)
    ka, kb = len(povm_a.elements), len(povm_b.elements)

    def kernel(rng: np.random.Generator, m: int):
        shared = base.shared(rng, m)
        ua_choice = rng.random(m)
        a_idx = np.searchsorted(cdf_pick_a, ua_choice, side="right")
        hit_a = base.alice_hit(bloch_a[a_idx], shared, rng)
        ua4 = rng.random(m)
        a_out = np.where(hit_a, a_idx, np.searchsorted(cdf4_a, ua4, side="right"))
        ub_choice = rng.random(m)
        b_idx = np.searchsorted(cdf_pick_b, ub_choice, side="right")
        hit_b = base.bob_hit(bloch_b[b_idx], shared, rng)
        ub4 = rng.random(m)
        b_out = np.where(hit_b, b_idx, np.searchsorted(cdf4_b, ub4, side="right"))
        ao, bo = bm_a_arr[a_out], bm_b_arr[b_out]
        cells = np.bincount(ao * kb + bo, minlength=ka * kb).astype(float)
        both = hit_a & hit_b
        cells_hit = np.bincount(
            bm_a_arr[a_idx[both]] * kb + bm_b_arr[b_idx[both]], minlength=ka * kb
        ).astype(float)
        miss = np.array([float((~hit_a).sum()), float((~hit_b).sum())])
        return cells, cells_hit, miss

    label = f"povmlift:q={base.q!r}"
    cells, cells_hit, miss = run_batched(n, seed, label, kernel, workers)
    table = JointTable.from_sums(
        cells.reshape(ka, kb), cells.reshape(ka, kb), n, seed, povm_a.labels, povm_b.labels
    )
    both_hit = JointTable.from_sums(
        cells_hit.reshape(ka, kb), cells_hit.reshape(ka, kb), n, seed, povm_a.labels, povm_b.labels
    )
    return LiftResult(
        table=table,
        both_hit=both_hit,
        step4_a=McEstimate.from_sums(miss[0], miss[0], n, seed),
        step4_b=McEstimate.from_sums(miss[1], miss[1], n, seed),
        target=lift_state(base.rho0, sigma_a, sigma_b),
    )


def simulate_barrett(
    d: int,
    povm_a: Povm,
    povm_b: Povm,
    n: int,
    seed: int,
    workers: int | None = None,
) -> JointTable:
    """Joint table of the threshold/inverted-quantum response pair.

    Both responses are probability distributions for every hidden variable,
    so each sample contributes its full outer product of outcome weights.
    """
    if povm_a.dim != d or povm_b.dim != d:
        raise ValueError("POVM dimensions must equal d")
    if d < 2:
        raise ValueError("d must be >= 2")
    ref_a, bm_a = povm_refine(povm_a)
    ref_b, bm_b = povm_refine(povm_b)
    xw, kets_a = _rank1_weights(ref_a)
    yw, kets_b = _rank1_weights(ref_b)
    ga = _group_matrix(bm_a, len(povm_a.elements))
    gb = _group_matrix(bm_b, len(povm_b.elements))

    def kernel(rng: np.random.Generator, m: int):
        lam = sample_sphere_cd(rng, d, m)
        u = np.abs(lam @ kets_a.conj().T) ** 2
        mw = u * xw
        chi = (u - 1.0 / d) >= 0
        s = (mw * chi).sum(axis=1)
        pa = mw * chi + (1.0 - s)[:, None] * (xw / d)
        v = np.abs(lam @ kets_b.conj().T) ** 2
        pb = (yw * (1.0 - v)) / (d - 1)
        pac, pbc = pa @ ga, pb @ gb
        sums = np.einsum("ni,nj->ij", pac, pbc)
        sumsq = np.einsum("ni,nj->ij", pac**2, pbc**2)
        return sums, sumsq

    sums, sumsq = run_batched(n, seed, f"barrett:d={d}", kernel, workers)
    return JointTable.from_sums(sums, sumsq, n, seed, povm_a.labels, povm_b.labels)
