"""Hidden-variable samplers, response functions, and protocol simulators.

Every simulator takes (n, seed) and produces results that are bit-identical
for equal (seed, n) regardless of worker count (see mc.run_batched).
sign(0) = +1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mc import BATCH_SIZE, JointTable, McEstimate, ordered_sum, run_batched
from .measure import Povm, born_table, obs_from_bloch, outcome_sum, povm_refine
from .measure import random_povm, random_projective, unit_bloch
from .qmat import projector
from .states import DensityMatrix, barrett_state, lift_state, rho_g, singlet, werner2x2, werner_local


def sample_sphere_r3(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform point(s) on S^2 as normalized 3-component Gaussian draws,
    normalised in place with the squared norm summed as np.linalg.norm does
    and each column divided by the norm."""
    v = rng.standard_normal(3 if n is None else (n, 3))
    r = v[..., 0] * v[..., 0]
    r += v[..., 1] * v[..., 1]
    r += v[..., 2] * v[..., 2]
    r = np.sqrt(r, out=None if n is None else r)  # a single draw has a 0-d r
    for i in range(3):
        v[..., i] /= r
    return v


def sample_sphere_cd(rng: np.random.Generator, d: int, n: int | None = None) -> np.ndarray:
    """Haar-uniform unit vector(s) in C^d as normalized complex Gaussians: the
    (..., d, 2) real/imaginary normals, normalised in place, viewed as complex."""
    z = rng.standard_normal((d, 2) if n is None else (n, d, 2))
    flat = z.reshape(-1, 2 * d)
    flat /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
    return z.view(np.complex128)[..., 0]


# -- simulators -------------------------------------------------------------

def _refine_projective(proj: Povm) -> tuple[np.ndarray, list[int]]:
    """Rank-1 kets of a projective measurement plus the coarse back-map. A
    POVM is projective when every refined weight is 1: its elements have
    eigenvalues in {0, 1} and sum to I, so they are orthogonal projectors."""
    back_map, weights, kets = povm_refine(proj)
    if np.max(np.abs(weights - 1.0)) > 1e-9:
        raise ValueError("measurement is not projective: an element has an eigenvalue other than 0 or 1")
    return kets, back_map


# Sample columns per block of an overlap kernel. Each block issues a fixed
# number of numpy calls that hold the GIL, so wider blocks issue fewer per
# sample, until a block's temporaries outgrow the cache. The width is the
# largest power of two at which the (2k, width) float overlaps of k refined
# kets fit in _BLOCK_BYTES, but never below _MIN_BLOCK: 8192 at d = 2, 4096
# at d = 3 and 2048 from d = 8 on (see the sweep in CHANGES.md).
_BLOCK_BYTES = 1 << 19
_MIN_BLOCK = 2048


def _block_width(rows: int) -> int:
    """Sample columns per block of an overlap kernel with `rows` overlap rows:
    the largest power of two whose (rows, width) float array fits in
    _BLOCK_BYTES, at least _MIN_BLOCK and at most BATCH_SIZE."""
    fit = 1 << max((_BLOCK_BYTES // (8 * rows)).bit_length() - 1, 0)
    return min(BATCH_SIZE, max(_MIN_BLOCK, fit))


def _overlap_kernel(d: int, w: np.ndarray, block):
    """Batch kernel drawing m Haar samples in C^d in one call, so the stream
    is unchanged, then summing the tuples block(samples) over column blocks
    of _block_width(len(w)) samples in block order."""
    width = _block_width(len(w))

    def kernel(rng: np.random.Generator, m: int):
        lam = sample_sphere_cd(rng, d, m)
        return ordered_sum(block(lam[s : s + width]) for s in range(0, m, width))

    return kernel


def _overlap_rows(kets: np.ndarray) -> np.ndarray:
    """Real (2k, 2d) form of k kets: against the interleaved floats of a
    sample, rows :k give Re <k|lam> and rows k: give Im <k|lam>."""
    return np.concatenate([kets, 1j * kets]).view(float)


def _overlaps(w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """|<k|lam>|^2 for the kets of w, outcome-major (k, m): a real GEMM on the
    float view of the (m, d) samples, squared and summed as re^2 + im^2."""
    p = w @ lam.view(float).T
    p *= p
    k = len(p) // 2
    p[:k] += p[k:]
    return p[:k]


def _argmin_rows(u: np.ndarray) -> np.ndarray:
    """Row index of each column's minimum; ties go to the lowest index, which
    is written last. Row 0 clears its columns by a product, not a masked
    copy: at d = 2 that mask holds about half the columns at random, and the
    copy doubled the function's time."""
    best = np.minimum.reduce(u)
    idx = np.zeros(u.shape[1], dtype=np.intp)
    for i in range(len(u) - 1, 0, -1):
        np.copyto(idx, i, where=u[i] == best)
    idx *= u[0] != best
    return idx


def _barrett_responses(u, xw, v, yw, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Threshold and inverted responses as (k, m) rows from overlaps
    u, v = |<k|lam>|^2 of the refined POVMs {xw_k P_k} and {yw_j Q_j}.

    Alice: x_k u_k where u_k clears 1/d, plus the leftover weight
    redistributed proportionally to x_k / d. Bob: y_j (1 - v_j) / (d - 1).
    """
    pa = u * xw[:, None]
    pa *= u >= 1.0 / d  # u and xw are >= 0, so this equals a where(..., 0.0)
    pa += (1.0 - pa.sum(axis=0)) * (xw / d)[:, None]
    return pa, (1.0 - v) * (yw / (d - 1))[:, None]


def simulate_werner(
    d: int,
    proj_a: Povm,
    proj_b: Povm,
    n: int,
    seed: int,
    workers: int | None = None,
) -> JointTable:
    """Estimate the joint table of the minimizer/quantum response pair.

    The hidden variable is a Haar unit vector in C^d. Alice outputs the
    outcome whose projector overlap is minimal; Bob's per-sample
    contribution is the full overlap distribution, so each sample adds a
    probability row rather than a sampled outcome. Both measurements must
    be projective.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if proj_a.dim != d or proj_b.dim != d:
        raise ValueError("measurement dimensions must equal d")
    kets_a, bm_a = _refine_projective(proj_a)
    kets_b, bm_b = _refine_projective(proj_b)
    ka, kb = len(proj_a.elements), len(proj_b.elements)
    w = _overlap_rows(np.concatenate([kets_a, kets_b]))
    sum_b = outcome_sum(bm_b, kb)
    # cell[b, i]: flat (a, b) cell of Bob's outcome b when refined ket i is Alice's minimizer
    cell = np.asarray(bm_a)[None, :] * kb + np.arange(kb)[:, None]

    def block(lam: np.ndarray):
        u = _overlaps(w, lam)
        idx = cell.take(_argmin_rows(u[: len(kets_a)]), axis=1).ravel()
        v = sum_b(u[len(kets_a) :]).ravel()
        # one pass per moment: each cell still adds its samples in sample order
        sums = np.bincount(idx, weights=v, minlength=ka * kb)
        v *= v
        sumsq = np.bincount(idx, weights=v, minlength=ka * kb)
        return sums.reshape(ka, kb), sumsq.reshape(ka, kb)

    sums, sumsq = run_batched(n, seed, f"werner:d={d}", _overlap_kernel(d, w, block), workers)
    return JointTable.from_sums(sums, sumsq, n, seed, proj_a.labels, proj_b.labels)


def simplex_integral_mc(
    d: int,
    a: int,
    proj: Povm,
    n: int,
    seed: int,
    workers: int | None = None,
) -> McEstimate:
    """Estimate the overlap integral restricted to the region where outcome
    a is the minimizer; the exact value is 1/d^3 for every rank-1 projective
    measurement."""
    if proj.dim != d:
        raise ValueError("measurement dimension must equal d")
    if not (isinstance(a, (int, np.integer)) and 0 <= a < d):
        raise ValueError(f"outcome index a must be an integer in range({d}), got {a!r}")
    if any(abs(np.trace(p).real - 1.0) > 1e-10 for p in proj.elements):
        raise ValueError("simplex integral requires a rank-1 measurement")
    w = _overlap_rows(_refine_projective(proj)[0])

    def block(lam: np.ndarray):
        u = _overlaps(w, lam)
        c = u[a] * (_argmin_rows(u) == a)  # u >= 0, so this equals a where(..., 0.0)
        s = c.sum()
        c *= c  # then summed pairwise like s: a BLAS dot c @ c sums in another order
        return np.array([s]), np.array([c.sum()])

    s, s2 = run_batched(n, seed, f"simplex:d={d}:a={a}", _overlap_kernel(d, w, block), workers)
    return McEstimate.from_sums(float(s[0]), float(s2[0]), n, seed)


def _dot_rows(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dot product of each row of the (m, 3) array v with x, given as one
    3-vector or as (m, 3) rows, as (p0 + p2) + p1 of the products p_i: the
    order of numpy 2.4's einsum("ij,ij->i"), which the tests pin bit for bit.
    Every caller sums in this one order: another order, such as
    (p0 + p1) + p2, moves about 30% of the dots by an ulp, which can flip a
    sign or accept compare."""
    out = v[:, 0] * x[..., 0]
    out += v[:, 2] * x[..., 2]
    out += v[:, 1] * x[..., 1]
    return out


def _pm_counts(a_plus: np.ndarray, b_plus: np.ndarray) -> np.ndarray:
    """Joint counts [++, +-, -+, --] of two +-1 outputs given as "is +1" flags."""
    m = len(a_plus)
    na, nb = np.count_nonzero(a_plus), np.count_nonzero(b_plus)
    nab = np.count_nonzero(a_plus & b_plus)
    return np.array([nab, na - nab, nb - nab, m - na - nb + nab], dtype=float)


def _pm_results(cells: np.ndarray, n: int, seed: int):
    """The joint table over outcomes [1, -1] from summed _pm_counts, and the
    estimates of E(AB), E(A) and E(B). The counts are exact integers and so
    give exact sums; each +-1 product squares to 1, so every second moment
    is n."""
    pp, pm, mp, mm = cells
    sums = (pp + mm - pm - mp, pp + pm - mp - mm, pp + mp - pm - mm)  # of ab, a and b
    table = JointTable.from_sums(cells.reshape(2, 2), cells.reshape(2, 2), n, seed, [1, -1], [1, -1])
    return table, *(McEstimate.from_sums(s, float(n), n, seed) for s in sums)


@dataclass
class SpinResult:
    """A two-party spin simulation: the table over outcomes [1, -1] and its
    E(AB), E(A) and E(B)."""

    table: JointTable
    e_ab: McEstimate
    e_a: McEstimate
    e_b: McEstimate


def _choice(rng: np.random.Generator, m: int, x: np.ndarray):
    """The choice rule on two fresh sphere points l0, l1: Alice keeps the one
    with the larger |x . l| (ties keep l1) and outputs a = -sign(x . l),
    which is +1 iff x . l < 0. Returns l0, l1, the mask of samples that
    kept l0, and Alice's "is +1" flags."""
    l0 = sample_sphere_r3(rng, m)
    l1 = sample_sphere_r3(rng, m)
    x0, x1 = _dot_rows(l0, x), _dot_rows(l1, x)
    pick0 = np.abs(x0) > np.abs(x1)
    return l0, l1, pick0, np.where(pick0, x0, x1) < 0


def simulate_epr_one_bit(x, y, n: int, seed: int, workers: int | None = None) -> SpinResult:
    """Choice-method simulation of the singlet with the accepted index
    communicated: E(AB) -> -x.y, vanishing marginals."""
    x, y = unit_bloch(x, "direction"), unit_bloch(y, "direction")

    def kernel(rng: np.random.Generator, m: int):
        l0, l1, pick0, a_plus = _choice(rng, m, x)
        # Bob reads the kept l from the bit: b = sign(y . l) is +1 iff y . l >= 0
        return (_pm_counts(a_plus, np.where(pick0, _dot_rows(l0, y), _dot_rows(l1, y)) >= 0),)

    (cells,) = run_batched(n, seed, "epr1bit", kernel, workers)
    return SpinResult(*_pm_results(cells, n, seed))


@dataclass
class GdResult(SpinResult):
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
        l0, l1, _, a_plus = _choice(rng, m, x)
        mism = np.count_nonzero(a_plus != (_dot_rows(l0 + l1, x) < 0))
        return _pm_counts(a_plus, _dot_rows(l0, y) >= 0), np.array([float(mism)])

    cells, mism = run_batched(n, seed, "gd_w2x2", kernel, workers)
    return GdResult(*_pm_results(cells, n, seed), int(mism[0]))


@dataclass
class HirschResult(SpinResult):
    accept_rate: McEstimate | None


def _check_q(q: float) -> None:
    """The singlet/|0> mixture model is local only for q in [0, 1/2]."""
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"model is only valid for q in [0, 1/2], got {q}")


def _hirsch_alice(q: float, v: np.ndarray, lam: np.ndarray, r: np.ndarray, rng: np.random.Generator):
    """Alice's half of the singlet/|0> mixture model along v (one direction
    or a row per sample) on the shared sphere points lam and uniforms r.
    Inside the protocol (r < 2q) she accepts lam with probability |v . lam|
    and outputs -sign(v . lam); otherwise she outputs +1 with probability
    (1 + v_z) / 2. Returns her "is +1" flags and the mask of accepted
    samples. Bob's half is deterministic: sign(w . lam)."""
    u1, u2 = rng.random((2, lam.shape[0]))
    vl = _dot_rows(lam, v)
    acc = (r < 2.0 * q) & (u1 < np.abs(vl))
    return np.where(acc, vl < 0, u2 < (1 + v[..., 2]) / 2), acc


def simulate_hirsch_projective(
    q: float, x, y, n: int, seed: int, workers: int | None = None
) -> HirschResult:
    """Simulate spin measurements on the singlet/|0> mixture with weight q.

    Valid for q in [0, 1/2]. A shared uniform r mixes the full protocol
    (probability 2q) with the flagged-noise branch; inside the protocol
    Alice accepts the shared sphere point with probability |x . lambda|.
    accept_rate estimates that acceptance frequency (None when q = 0).
    """
    _check_q(q)
    q = float(q)  # the stream label holds repr(q), which differs for a numpy float
    x, y = unit_bloch(x, "direction"), unit_bloch(y, "direction")

    def kernel(rng: np.random.Generator, m: int):
        lam, r = sample_sphere_r3(rng, m), rng.random(m)
        a_plus, acc = _hirsch_alice(q, x, lam, r, rng)
        counts = np.array([np.count_nonzero(acc), np.count_nonzero(r < 2.0 * q)], dtype=float)
        return _pm_counts(a_plus, _dot_rows(lam, y) >= 0), counts

    cells, counts = run_batched(n, seed, f"hirsch:q={q!r}", kernel, workers)
    n_acc, n_mix = counts
    accept = None
    if n_mix > 0:
        accept = McEstimate.from_sums(n_acc, n_acc, int(n_mix), seed)
    return HirschResult(*_pm_results(cells, n, seed), accept)


def _bloch_rows(kets: np.ndarray) -> np.ndarray:
    """Bloch vectors of rank-1 qubit projectors |v><v|."""
    a, b = kets[:, 0], kets[:, 1]
    return np.stack(
        [2 * (a.conj() * b).real, 2 * (a.conj() * b).imag, (np.abs(a) ** 2 - np.abs(b) ** 2)], axis=1
    )


@dataclass
class LiftResult:
    table: JointTable
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
    q: float,
    sigma_a: np.ndarray,
    sigma_b: np.ndarray,
    povm_a: Povm,
    povm_b: Povm,
    n: int,
    seed: int,
    workers: int | None = None,
) -> LiftResult:
    """Simulate qubit POVMs on the lift of rho_g(q), q in [0, 1/2], by
    re-running the singlet/|0> mixture model.

    Per run each party draws a refined outcome a with probability alpha_a/d,
    simulates {P_a, I - P_a} on rho_g(q) through the shared hidden variable,
    outputs a on a hit, and otherwise outputs a' with probability
    tr(M_a' sigma). The estimated table targets the Born probabilities of
    lift_state(rho_g(q), sigma_a, sigma_b).
    """
    _check_q(q)
    q = float(q)  # the stream label holds repr(q), which differs for a numpy float
    d = 2
    if povm_a.dim != d or povm_b.dim != d:
        raise ValueError(f"POVMs must act on dimension {d}")
    sigma_a = np.asarray(sigma_a, dtype=complex)
    sigma_b = np.asarray(sigma_b, dtype=complex)
    bm_a, alphas, kets_a = povm_refine(povm_a)
    bm_b, betas, kets_b = povm_refine(povm_b)
    bloch_a, bloch_b = _bloch_rows(kets_a), _bloch_rows(kets_b)
    cdf_pick_a = _choice_cdf(alphas / d)
    cdf_pick_b = _choice_cdf(betas / d)
    step4_pmf_a = np.array([np.trace(w * projector(v) @ sigma_a).real for w, v in zip(alphas, kets_a)])
    step4_pmf_b = np.array([np.trace(w * projector(v) @ sigma_b).real for w, v in zip(betas, kets_b)])
    cdf4_a = _choice_cdf(step4_pmf_a)
    cdf4_b = _choice_cdf(step4_pmf_b)
    bm_a_arr, bm_b_arr = np.asarray(bm_a), np.asarray(bm_b)
    ka, kb = len(povm_a.elements), len(povm_b.elements)

    def kernel(rng: np.random.Generator, m: int):
        lam, r = sample_sphere_r3(rng, m), rng.random(m)
        a_idx = _pick(cdf_pick_a, rng.random(m))
        hit_a, _ = _hirsch_alice(q, np.take(bloch_a, a_idx, axis=0), lam, r, rng)
        a_out = np.where(hit_a, a_idx, _pick(cdf4_a, rng.random(m)))
        b_idx = _pick(cdf_pick_b, rng.random(m))
        hit_b = _dot_rows(lam, np.take(bloch_b, b_idx, axis=0)) >= 0
        b_out = np.where(hit_b, b_idx, _pick(cdf4_b, rng.random(m)))
        cells = np.bincount(bm_a_arr[a_out] * kb + bm_b_arr[b_out], minlength=ka * kb).astype(float)
        miss = np.array([m - np.count_nonzero(hit_a), m - np.count_nonzero(hit_b)], dtype=float)
        return cells, miss

    cells, miss = run_batched(n, seed, f"povmlift:q={q!r}", kernel, workers)
    cells = cells.reshape(ka, kb)
    return LiftResult(
        table=JointTable.from_sums(cells, cells, n, seed, povm_a.labels, povm_b.labels),
        step4_a=McEstimate.from_sums(miss[0], miss[0], n, seed),
        step4_b=McEstimate.from_sums(miss[1], miss[1], n, seed),
        target=lift_state(rho_g(q), sigma_a, sigma_b),
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
    bm_a, xw, kets_a = povm_refine(povm_a)
    bm_b, yw, kets_b = povm_refine(povm_b)
    w = _overlap_rows(np.concatenate([kets_a, kets_b]))
    sum_a = outcome_sum(bm_a, len(povm_a.elements))
    sum_b = outcome_sum(bm_b, len(povm_b.elements))

    def block(lam: np.ndarray):
        u = _overlaps(w, lam)
        pa, pb = _barrett_responses(u[: len(kets_a)], xw, u[len(kets_a) :], yw, d)
        pa, pb = sum_a(pa), sum_b(pb)
        return pa @ pb.T, (pa * pa) @ (pb * pb).T

    sums, sumsq = run_batched(n, seed, f"barrett:d={d}", _overlap_kernel(d, w, block), workers)
    return JointTable.from_sums(sums, sumsq, n, seed, povm_a.labels, povm_b.labels)


# -- trials: one per model, and the registry of them ------------------------
# A trial draws the measurements, runs the simulator and returns (result,
# table, oracle, extra): the Born table of the target state and the ordered
# scalars that `simulate` prints after the table, among them each *_target
# that the model's estimates are checked against. Simulators and target
# states are module globals looked up at call time, so a test or benchmark
# can swap one.


def werner_trial(d: int, rng: np.random.Generator, n: int, seed: int, workers: int | None = None):
    """Minimizer model in two Haar-random bases against werner_local(d)."""
    pa, pb = random_projective(d, rng), random_projective(d, rng)
    table = simulate_werner(d, pa, pb, n, seed, workers)
    return table, table, born_table(werner_local(d), pa.elements, pb.elements), {}


def barrett_trial(d: int, rng: np.random.Generator, n: int, seed: int, workers: int | None = None):
    """Threshold model in two Haar-random bases against barrett_state(d)."""
    pa, pb = random_projective(d, rng), random_projective(d, rng)
    table = simulate_barrett(d, pa, pb, n, seed, workers)
    return table, table, born_table(barrett_state(d), pa.elements, pb.elements), {}


def gd_trial(x, y, n: int, seed: int, workers: int | None = None):
    """Choice-method model on spins along x and y against werner2x2(1/2),
    whose E(AB) is -(x.y)/2."""
    res = simulate_gd_w2x2(x, y, n, seed, workers)
    oracle = born_table(werner2x2(0.5), obs_from_bloch(x).elements, obs_from_bloch(y).elements)
    extra = {"E_AB": res.e_ab.mean, "E_AB_target": -float(x @ y) / 2, "rewrite_agreement": res.rewrite_agreement}
    return res, res.table, oracle, extra


def epr1bit_trial(x, y, n: int, seed: int, workers: int | None = None):
    """One-bit-assisted simulation on spins along x and y against the
    singlet, whose E(AB) is -x.y."""
    res = simulate_epr_one_bit(x, y, n, seed, workers)
    oracle = born_table(singlet(), obs_from_bloch(x).elements, obs_from_bloch(y).elements)
    return res, res.table, oracle, {"E_AB": res.e_ab.mean, "E_AB_target": -float(x @ y)}


def hirsch_trial(q: float, x, y, n: int, seed: int, workers: int | None = None):
    """Singlet/|0> mixture model on spins along x and y against rho_g(q),
    whose E(A) is (1-q) x_z."""
    res = simulate_hirsch_projective(q, x, y, n, seed, workers)
    oracle = born_table(rho_g(q), obs_from_bloch(x).elements, obs_from_bloch(y).elements)
    extra = {"E_A": res.e_a.mean, "E_A_target": (1 - q) * float(x[2])}
    if res.accept_rate is not None:
        extra["accept_rate"] = res.accept_rate.mean
    return res, res.table, oracle, extra


def povm_lift_trial(q: float, rng: np.random.Generator, n: int, seed: int, workers: int | None = None):
    """Two random three-outcome qubit POVMs on the lift of rho_g(q) with
    sigma_A = sigma_B = |0><0|."""
    sigma = np.diag([1.0, 0.0]).astype(complex)
    ma, mb = random_povm(3, 2, rng), random_povm(3, 2, rng)
    res = simulate_povm_lift(q, sigma, sigma, ma, mb, n, seed, workers)
    extra = {"step4_rate_a": res.step4_a.mean, "step4_rate_b": res.step4_b.mean}
    return res, res.table, born_table(res.target, ma.elements, mb.elements), extra


# The models of `simulate`, by name. A trial takes its inputs (d, q, x, y,
# rng) by parameter name, plus n, seed and workers.
MODELS = {
    "werner": werner_trial,
    "gd": gd_trial,
    "epr1bit": epr1bit_trial,
    "hirsch": hirsch_trial,
    "povm-lift": povm_lift_trial,
    "barrett": barrett_trial,
}
