"""Hidden-variable samplers, response functions, and protocol simulators.

Every simulator takes (n, seed) and produces results that are bit-identical
for equal (seed, n) regardless of worker count (see mc.run_batched).
sign(0) = +1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mc import JointTable, McEstimate, ordered_sum, run_batched
from .measure import Povm, ProjectiveMeasurement, outcome_sum, povm_refine, unit_bloch
from .states import DensityMatrix, rho_g

__all__ = [
    "sample_sphere_r3",
    "sample_sphere_cd",
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


def sample_sphere_r3(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform point(s) on S^2 as normalized 3-component Gaussian draws,
    normalised in place with the squared norm summed as np.linalg.norm does."""
    v = rng.standard_normal(3 if n is None else (n, 3))
    r = v[..., 0] * v[..., 0]
    r += v[..., 1] * v[..., 1]
    r += v[..., 2] * v[..., 2]
    v /= np.sqrt(r)[..., None]
    return v


def sample_sphere_cd(rng: np.random.Generator, d: int, n: int | None = None) -> np.ndarray:
    """Haar-uniform unit vector(s) in C^d as normalized complex Gaussians: the
    (..., d, 2) real/imaginary normals, normalised in place, viewed as complex."""
    z = rng.standard_normal((d, 2) if n is None else (n, d, 2))
    flat = z.reshape(-1, 2 * d)
    flat /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
    return z.view(np.complex128)[..., 0]


# -- response functions (scalar reference versions) ------------------------

def werner_response_a(a: int, lam: np.ndarray, proj: ProjectiveMeasurement) -> int:
    """1 iff outcome a holds the refined rank-1 ket whose overlap |<k|lam>|^2
    is the minimum, else 0.

    Ties go to the lowest refined index among the minimizers (a measure-zero set).
    """
    kets, back_map = _refine_projective(proj)
    return int(back_map[int(np.argmin(np.abs(kets.conj() @ lam) ** 2))] == a)


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


# Sample columns per block of an overlap kernel: blocks bound memory, so the
# per-block temporaries are a sixteenth of a batch's. The BLAS products of a
# block are further cut into sample slices of at most _SLICE_MACS each.
_BLOCK = 2048

# Multiply-adds (m * n * k) per matrix product that OpenBLAS runs on the
# calling thread. With OpenBLAS 0.3.31 on a 2-core x86 VM, products of up to
# 2^19 multiply-adds were measured (process CPU time over wall time, one
# shape per fresh process) to stay on one thread, and products of 2^20 and
# more to wake OpenBLAS's own threads, which then compete with the mc pool's
# workers for the same cores; 2^18 leaves a factor-2 margin below that.
_SLICE_MACS = 1 << 18


def _slice_width(macs_per_sample: int) -> int:
    """Largest power-of-two count of samples whose product costs at most
    _SLICE_MACS multiply-adds (at least one sample)."""
    return 1 << max((_SLICE_MACS // macs_per_sample).bit_length() - 1, 0)


def _overlap_kernel(d: int, block):
    """Batch kernel drawing m Haar samples in C^d in one call, so the stream
    is unchanged, then summing the tuples block(samples) over column blocks
    of width _BLOCK in block order."""

    def kernel(rng: np.random.Generator, m: int):
        lam = sample_sphere_cd(rng, d, m)
        return ordered_sum(block(lam[s : s + _BLOCK]) for s in range(0, m, _BLOCK))

    return kernel


def _overlap_rows(kets: np.ndarray) -> np.ndarray:
    """Real (2k, 2d) form of k kets: against the interleaved floats of a
    sample, rows :k give Re <k|lam> and rows k: give Im <k|lam>."""
    return np.concatenate([kets, 1j * kets]).view(float)


def _overlaps(w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """|<k|lam>|^2 for the kets of w, outcome-major (k, m): a real GEMM on the
    float view of the (m, d) samples, squared and summed as re^2 + im^2.

    Past one slice of samples the GEMM is one stacked matmul over slices of
    _slice_width columns, written into the columns of one output, plus a
    plain product for the remainder."""
    x = lam.view(float)
    m, s = len(x), _slice_width(w.size)
    if s >= m:
        p = w @ x.T
    else:
        p = np.empty((len(w), m))
        q = m - m % s
        stacked = x[:q].reshape(-1, s, x.shape[1]).transpose(0, 2, 1)
        np.matmul(w, stacked, out=p[:, :q].reshape(len(w), -1, s).transpose(1, 0, 2))
        np.matmul(w, x[q:].T, out=p[:, q:])
    p *= p
    k = len(p) // 2
    p[:k] += p[k:]
    return p[:k]


def _sample_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T for outcome-major (k, m) rows, whose contraction axis is the
    samples: one stacked matmul over slices of _slice_width samples, summed
    in slice order, plus a plain product for the remainder."""
    m, s = a.shape[1], _slice_width(len(a) * len(b))
    if s >= m:
        return a @ b.T
    q = m - m % s
    out = np.matmul(
        a[:, :q].reshape(len(a), -1, s).transpose(1, 0, 2), b[:, :q].reshape(len(b), -1, s).transpose(1, 2, 0)
    ).sum(axis=0)
    out += a[:, q:] @ b[:, q:].T
    return out


def _argmin_rows(u: np.ndarray) -> np.ndarray:
    """Row index of each column's minimum; ties go to the lowest index."""
    idx = np.zeros(u.shape[1], dtype=np.intp)
    best = u[0]
    for i in range(1, len(u)):
        lower = u[i] < best
        idx[lower] = i
        best = np.minimum(best, u[i])
    return idx


def _barrett_responses(u, xw, v, yw, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Threshold and inverted responses as (k, m) rows from overlaps
    u, v = |<k|lam>|^2 of the refined POVMs {xw_k P_k} and {yw_j Q_j}.

    Alice: x_k u_k where u_k clears 1/d, plus the leftover weight
    redistributed proportionally to x_k / d. Bob: y_j (1 - v_j) / (d - 1).
    """
    pa = np.where(u >= 1.0 / d, u * xw[:, None], 0.0)
    pa += (1.0 - pa.sum(axis=0)) * (xw / d)[:, None]
    return pa, (1.0 - v) * (yw / (d - 1))[:, None]


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
    w = _overlap_rows(np.concatenate([kets_a, kets_b]))
    sum_b = outcome_sum(bm_b, kb)
    bm_a_arr = np.asarray(bm_a)

    def block(lam: np.ndarray):
        u = _overlaps(w, lam)
        a_star = bm_a_arr[_argmin_rows(u[: len(kets_a)])]
        sums, sumsq = np.empty((ka, kb)), np.empty((ka, kb))
        for b, v in enumerate(sum_b(u[len(kets_a) :])):
            sums[:, b] = np.bincount(a_star, weights=v, minlength=ka)
            sumsq[:, b] = np.bincount(a_star, weights=v * v, minlength=ka)
        return sums, sumsq

    sums, sumsq = run_batched(n, seed, f"werner:d={d}", _overlap_kernel(d, block), workers)
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
    w = _overlap_rows(_refine_projective(proj)[0])

    def block(lam: np.ndarray):
        u = _overlaps(w, lam)
        c = np.where(_argmin_rows(u) == a, u[a], 0.0)
        return np.array([c.sum()]), np.array([c @ c])

    s, s2 = run_batched(n, seed, f"simplex:d={d}:a={a}", _overlap_kernel(d, block), workers)
    return McEstimate.from_sums(float(s[0]), float(s2[0]), n, seed)


def _dot_rows(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dot product of each row of the (m, 3) array v with x, given as one
    3-vector or as (m, 3) rows. einsum's own loop, not BLAS, keeps the
    kernels off OpenBLAS's threads, and every caller sums the three products
    in one order: another order can move a dot product by an ulp and flip a
    sign or accept compare."""
    return np.einsum("ij,ij->i", v, np.broadcast_to(x, v.shape))


def _pm_counts(a_plus: np.ndarray, b_plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint counts [++, +-, -+, --] of two +-1 outputs given as "is +1"
    flags, and the sums of ab, a and b; integer counts keep them exact."""
    m = len(a_plus)
    na, nb = np.count_nonzero(a_plus), np.count_nonzero(b_plus)
    nab = np.count_nonzero(a_plus & b_plus)
    cells = np.array([nab, na - nab, nb - nab, m - na - nb + nab], dtype=float)
    return cells, np.array([m - 2 * (na + nb - 2 * nab), 2 * na - m, 2 * nb - m], dtype=float)


def simulate_epr_one_bit(x, y, n: int, seed: int, workers: int | None = None) -> dict[str, McEstimate]:
    """Choice-method simulation of the singlet with the accepted index
    communicated: E(AB) -> -x.y, vanishing marginals."""
    x, y = unit_bloch(x, "direction"), unit_bloch(y, "direction")

    def kernel(rng: np.random.Generator, m: int):
        l0 = sample_sphere_r3(rng, m)
        l1 = sample_sphere_r3(rng, m)
        x0, x1 = _dot_rows(l0, x), _dot_rows(l1, x)
        pick0 = np.abs(x0) > np.abs(x1)
        # a = -sign(x . l) is +1 iff x . l < 0; b = sign(y . l) is +1 iff y . l >= 0
        a_plus = np.where(pick0, x0, x1) < 0
        _, sums = _pm_counts(a_plus, np.where(pick0, _dot_rows(l0, y), _dot_rows(l1, y)) >= 0)
        return sums, np.full(3, float(m))

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
        x0, x1 = _dot_rows(l0, x), _dot_rows(l1, x)
        a_plus = np.where(np.abs(x0) > np.abs(x1), x0, x1) < 0
        cells, sums = _pm_counts(a_plus, _dot_rows(l0, y) >= 0)
        mism = np.count_nonzero(a_plus != (_dot_rows(l0 + l1, x) < 0))
        return cells, sums, np.array([float(mism)])

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
    p, up = 2.0 * q, (1 + x[2]) / 2

    def kernel(rng: np.random.Generator, m: int):
        lam = sample_sphere_r3(rng, m)
        r, u1, u2 = rng.random((3, m))
        xl = _dot_rows(lam, x)
        mix = r < p
        acc = mix & (u1 < np.abs(xl))
        cells, sums = _pm_counts(np.where(acc, xl < 0, u2 < up), _dot_rows(lam, y) >= 0)
        return cells, sums, np.array([np.count_nonzero(acc), np.count_nonzero(mix)], dtype=float)

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
        u1, u2 = rng.random((2, lam.shape[0]))
        vl = _dot_rows(v, lam)
        acc = (r < 2.0 * self.q) & (u1 < np.abs(vl))
        return np.where(acc, vl < 0, u2 < (1 + v[:, 2]) / 2)

    def bob_hit(self, w: np.ndarray, shared, rng: np.random.Generator) -> np.ndarray:
        lam, _ = shared
        return _dot_rows(w, lam) >= 0


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
    """Inner cumulative weights; the last outcome takes any rounding shortfall."""
    return np.cumsum(weights)[:-1]


def _pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcomes drawn by uniforms u: the count of _choice_cdf entries <= u."""
    idx = np.zeros(len(u), dtype=np.intp)
    for c in cdf:
        idx += c <= u
    return idx


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
        a_idx = _pick(cdf_pick_a, rng.random(m))
        hit_a = base.alice_hit(np.take(bloch_a, a_idx, axis=0), shared, rng)
        a_out = np.where(hit_a, a_idx, _pick(cdf4_a, rng.random(m)))
        b_idx = _pick(cdf_pick_b, rng.random(m))
        hit_b = base.bob_hit(np.take(bloch_b, b_idx, axis=0), shared, rng)
        b_out = np.where(hit_b, b_idx, _pick(cdf4_b, rng.random(m)))
        # where both parties hit, the outputs are the picked indices
        out = bm_a_arr[a_out] * kb + bm_b_arr[b_out]
        cells = np.bincount(out, minlength=ka * kb).astype(float)
        cells_hit = np.bincount(out, weights=hit_a & hit_b, minlength=ka * kb)
        miss = np.array([m - np.count_nonzero(hit_a), m - np.count_nonzero(hit_b)], dtype=float)
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
    w = _overlap_rows(np.concatenate([kets_a, kets_b]))
    sum_a = outcome_sum(bm_a, len(povm_a.elements))
    sum_b = outcome_sum(bm_b, len(povm_b.elements))

    def block(lam: np.ndarray):
        u = _overlaps(w, lam)
        pa, pb = _barrett_responses(u[: len(kets_a)], xw, u[len(kets_a) :], yw, d)
        pa, pb = sum_a(pa), sum_b(pb)
        return _sample_products(pa, pb), _sample_products(pa * pa, pb * pb)

    sums, sumsq = run_batched(n, seed, f"barrett:d={d}", _overlap_kernel(d, block), workers)
    return JointTable.from_sums(sums, sumsq, n, seed, povm_a.labels, povm_b.labels)
