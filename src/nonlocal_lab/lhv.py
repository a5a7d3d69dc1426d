"""Hidden-variable samplers, response functions, and protocol simulators.

Every simulator takes (n, seed) and produces results that are bit-identical
for equal (seed, n) regardless of worker count (see mc.run_batched).
sign(0) = +1 throughout. Points on S^2 are coordinate-major (3, m) rows,
and a direction is a 3-vector or rows of the same layout.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .mc import BATCH_SIZE, JointTable, McEstimate, ordered_sum, run_batched
from .measure import Povm, born_table, obs_from_bloch, outcome_sum, povm_refine
from .measure import random_povm, random_projective, unit_bloch
from .qmat import _check_dim, _check_matrix_budget, _check_real, projector
from .states import DensityMatrix, barrett_state, lift_state, rho_g, singlet, werner2x2, werner_local


def sample_sphere_r3(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points on S^2 as normalized 3-component Gaussian draws,
    coordinate-major: the (n, 3) normals are drawn in sample order and
    copied once into (3, n) rows, so that each coordinate is one contiguous
    row. They are normalised in place with the squared norm summed as
    np.linalg.norm sums it, v0^2 + v1^2 + v2^2, and every row divided by
    the norms in one broadcast divide. Drawing (3, n) normals directly would
    hand each sample other normals and so move every S^2 stream."""
    v = rng.standard_normal((n, 3)).T.copy()
    r = v[0] * v[0]
    r += v[1] * v[1]
    r += v[2] * v[2]
    v /= np.sqrt(r, out=r)
    return v


def sample_sphere_cd(rng: np.random.Generator, d: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """n Haar-uniform unit vectors in C^d as normalized complex Gaussians: the
    (n, d, 2) real/imaginary normals, normalised in place, viewed as complex.
    The normals fill `out`, a C-contiguous (n, d, 2) float array, if given.
    SFC64 fills its normals in sequence and each row's norm is summed alone,
    so n samples drawn in consecutive pieces equal one draw of all n."""
    z = rng.standard_normal((n, d, 2)) if out is None else rng.standard_normal(out=out)
    flat = z.reshape(n, 2 * d)
    flat /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
    return z.view(np.complex128)[..., 0]


# -- simulators -------------------------------------------------------------

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


def _overlap_rows(kets: np.ndarray) -> np.ndarray:
    """Real (2k, 2d) form of k kets: against the interleaved floats of a
    sample, rows :k give Re <k|lam> and rows k: give Im <k|lam>."""
    return np.concatenate([kets, 1j * kets]).view(float)


def _overlaps(w: np.ndarray, lam: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|<k|lam>|^2 for the kets of w, outcome-major (k, m): a real GEMM on the
    float view of the (m, d) samples, written into `out` (2k, m) if given,
    squared and summed as re^2 + im^2."""
    p = np.matmul(w, lam.view(float).T, out=out)
    p *= p
    k = len(p) // 2
    p[:k] += p[k:]
    return p[:k]


def _overlap_blocks(rng: np.random.Generator, d: int, m: int, kets: np.ndarray, f):
    """f(u) of each _block_width block of m Haar unit vectors lam in C^d, in
    block order, u the (k, c) |<k|lam>|^2 of the k kets (see _overlaps).
    Blocks draw in sample order, so they equal one draw of all m. Each reuses
    one normals buffer and one flat overlaps buffer: f must not keep u."""
    rows = _overlap_rows(kets)
    width = _block_width(len(rows))
    normals, flat = np.empty((width, d, 2)), np.empty(len(rows) * width)
    for s in range(0, m, width):
        c = min(width, m - s)
        yield f(_overlaps(rows, sample_sphere_cd(rng, d, c, normals[:c]), flat[: len(rows) * c].reshape(len(rows), c)))


# Rows up to which _argmin_rows scans with a strict "<"; above it, each row
# holds the minimum of few columns, and matching rows against the minimum
# is cheaper (see the per-block timings in CHANGES.md).
_SCAN_ROWS = 4


def _argmin_rows(u: np.ndarray) -> np.ndarray:
    """Row index of each column's minimum; ties go to the lowest row, and a
    column that holds a NaN gets row 0. Up to _SCAN_ROWS rows a strict-<
    scan keeps the running minimum and takes row i where it is strictly
    less, selected exactly in integers as max(idx, i * less), since every
    earlier index is below i: no masked copy, which at d = 2 writes about
    half the columns at random. With more rows each row is matched against
    the column minimum from the last row up, the lowest match written last."""
    idx = np.zeros(u.shape[1], dtype=np.intp)
    if len(u) <= _SCAN_ROWS:
        best = u[0].copy()
        for i in range(1, len(u)):
            np.maximum(idx, (u[i] < best) * i, out=idx)
            np.minimum(best, u[i], out=best)  # a NaN stays in best
        idx *= best == best
        return idx
    best = np.minimum.reduce(u)
    for i in range(len(u) - 1, 0, -1):
        idx[u[i] == best] = i
    idx *= u[0] != best
    return idx


def _werner_responses(u, xw, v, yw, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer and quantum responses as (k, m) rows from overlaps
    u, v = |<k|lam>|^2 of the refined projective measurements {P_k} and
    {yw_j Q_j} (every weight is 1).

    Alice: the one-hot row of the refined outcome of least overlap, ties to
    the lowest row. Bob: y_j v_j, the quantum distribution.
    """
    pa = (_argmin_rows(u) == np.arange(len(u))[:, None]).astype(float)
    return pa, v * yw[:, None]


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


def _overlap_table(
    label: str, responses, d: int, povm_a: Povm, povm_b: Povm, n: int, seed: int, workers: int | None,
    projective: bool = False,
) -> JointTable:
    """Joint table of an overlap model: the hidden variable is a Haar unit
    vector lam in C^d, and responses(u, xw, v, yw, d) gives both parties'
    (k, m) outcome weights from the overlaps |<k|lam>|^2 and weights of the
    refined POVMs, as arrays the caller may overwrite. Each sample adds the
    outer product of the coarse-grained weights, so every cell averages a
    probability rather than a count.
    `projective` requires every refined weight to be 1, that is elements
    with eigenvalues in {0, 1}: orthogonal projectors."""
    d = _check_dim(d, lo=2)
    if povm_a.dim != d or povm_b.dim != d:
        raise ValueError("measurement dimensions must equal d")
    bm_a, xw, kets_a = povm_refine(povm_a)
    bm_b, yw, kets_b = povm_refine(povm_b)
    if projective and np.max(np.abs(np.concatenate([xw, yw]) - 1.0)) > 1e-9:
        raise ValueError("measurement is not projective: an element has an eigenvalue other than 0 or 1")
    kets = np.concatenate([kets_a, kets_b])
    sum_a = outcome_sum(bm_a, len(povm_a.elements))
    sum_b = outcome_sum(bm_b, len(povm_b.elements))

    def block(u: np.ndarray):
        pa, pb = responses(u[: len(kets_a)], xw, u[len(kets_a) :], yw, d)
        pa, pb = sum_a(pa), sum_b(pb)
        sums = pa @ pb.T
        # squared in place: at d = 24 two more (k, m) temporaries per block,
        # each fresh from the allocator, doubled the block's time
        pa *= pa
        pb *= pb
        return sums, pa @ pb.T

    def kernel(rng: np.random.Generator, m: int):
        return ordered_sum(_overlap_blocks(rng, d, m, kets, block))  # summed in block order

    sums, sumsq = run_batched(n, seed, label, kernel, workers)
    return JointTable.from_sums(sums, sumsq, n, seed, povm_a.labels, povm_b.labels)


def simulate_werner(
    d: int,
    proj_a: Povm,
    proj_b: Povm,
    n: int,
    seed: int,
    workers: int | None = None,
) -> JointTable:
    """Estimate the joint table of the minimizer/quantum response pair
    (_werner_responses). Both measurements must be projective."""
    return _overlap_table(f"werner:d={d}", _werner_responses, d, proj_a, proj_b, n, seed, workers, projective=True)


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
    measurement. It is cell (a, a) of the Werner model with Bob measuring in
    Alice's basis: each sample adds u_a [argmin = a]."""
    d, a = _check_dim(d), _check_dim(a, "outcome index a")  # before any sampling: True is 1
    if not 0 <= a < d:
        raise ValueError(f"outcome index a must be an integer in range({d}), got {a!r}")
    if any(abs(np.trace(p).real - 1.0) > 1e-10 for p in proj.elements):
        raise ValueError("simplex integral requires a rank-1 measurement")
    label = f"simplex:d={d}:a={a}"
    return _overlap_table(label, _werner_responses, d, proj, proj, n, seed, workers, projective=True).cell(a, a)


def _dot_rows(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dot product of each point of the (3, m) rows v with x, given as one
    3-vector or as (3, m) rows, as (p0 + p2) + p1 of the products p_i: the
    order of numpy 2.4's einsum("ij,ij->i") on the (m, 3) points, which the
    tests pin bit for bit. Every caller sums in this one order: another
    order, such as (p0 + p1) + p2, moves about 30% of the dots by an ulp,
    which can flip a sign or accept compare."""
    out = v[0] * x[0]
    out += v[2] * x[2]
    out += v[1] * x[1]
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


def _select(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.where(mask, a, b) for boolean a and b, as (mask & a) | (~mask & b):
    on a random mask of 2^15 samples np.where took about 8x as long."""
    return (mask & a) | (~mask & b)


def _select_index(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.where(mask, a, b) for integer a and b, as b + mask * (a - b), exact
    in integers: on a random mask of 2^15 samples np.where took about 3x as
    long."""
    return b + mask * (a - b)


def _choice(l0: np.ndarray, l1: np.ndarray, x: np.ndarray):
    """The choice rule on two (3, m) rows of sphere points l0, l1: Alice
    keeps the one with the larger |x . l| (ties keep l1) and outputs
    a = -sign(x . l), which is +1 iff x . l < 0. Returns the mask of samples
    that kept l0 and Alice's "is +1" flags. The signs are read before the
    magnitudes overwrite the dots, so a pair holds two dot arrays, not four."""
    x0, x1 = _dot_rows(l0, x), _dot_rows(l1, x)
    plus0, plus1 = x0 < 0, x1 < 0
    pick0 = np.abs(x0, out=x0) > np.abs(x1, out=x1)
    return pick0, _select(pick0, plus0, plus1)


def _stack(a, b, one, what: str):
    """The pairs of a and b, one item each (one(item) holds) or equal-length,
    non-empty stacks (lists, tuples, arrays) of items, as two stacks, and a
    function that unpacks their results in pair order: the one result, or
    the list. Anything else is a ValueError that starts with `what`."""
    single = one(a) and one(b)
    xs, ys = ([a], [b]) if single else (a, b)
    if not (min(np.ndim(xs), np.ndim(ys)) > 0 and len(xs) == len(ys) > 0 and all(one(v) for v in (*xs, *ys))):
        raise ValueError(f"{what} or equal-length, non-empty stacks of them")
    return xs, ys, lambda results: results[0] if single else results


def _directions(x, y):
    """_stack on unit 3-vectors or (k, 3) stacks of them, each checked."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xs, ys, unpack = _stack(x, y, lambda v: v.ndim == 1, "directions must be unit 3-vectors")
    for v in (*xs, *ys):
        unit_bloch(v, "direction")
    return xs, ys, unpack


def _run_choice(x, y, n: int, seed: int, label: str, outputs, result, workers: int | None):
    """Run the choice rule on the direction pairs of x and y (see
    _directions). Each batch draws the (3, m) rows l0 and l1 once,
    outputs(l0, l1) makes what the batch's pairs share, and the function it
    returns, pair(pick0, a_plus, x_i, y_i), gives pair i's partials. Returns
    result(*sums) of each pair, unpacked by _stack; pair i reads the draws
    of a single run on (x_i, y_i), so its result is that run's, bit for
    bit."""
    xs, ys, unpack = _directions(x, y)

    def kernel(rng: np.random.Generator, m: int):
        l0 = sample_sphere_r3(rng, m)
        l1 = sample_sphere_r3(rng, m)
        pair = outputs(l0, l1)
        parts = [pair(*_choice(l0, l1, xi), xi, yi) for xi, yi in zip(xs, ys)]
        return tuple(np.stack(p) for p in zip(*parts))

    sums = run_batched(n, seed, label, kernel, workers)
    return unpack([result(*(s[i] for s in sums)) for i in range(len(xs))])


def simulate_epr_one_bit(x, y, n: int, seed: int, workers: int | None = None) -> SpinResult | list[SpinResult]:
    """Choice-method simulation of the singlet with the accepted index
    communicated: E(AB) -> -x.y, vanishing marginals. Returns a SpinResult,
    or a list of them for stacks x, y (see _run_choice)."""

    def outputs(l0, l1):
        def pair(pick0, a_plus, x, y):
            # Bob reads the kept l from the bit: b = sign(y . l) is +1 iff y . l >= 0
            return (_pm_counts(a_plus, _select(pick0, _dot_rows(l0, y) >= 0, _dot_rows(l1, y) >= 0)),)

        return pair

    def result(cells):
        return SpinResult(*_pm_results(cells, n, seed))

    return _run_choice(x, y, n, seed, "epr1bit", outputs, result, workers)


@dataclass
class GdResult(SpinResult):
    rewrite_mismatches: int

    @property
    def rewrite_agreement(self) -> float:
        return 1.0 - self.rewrite_mismatches / self.table.n


def simulate_gd_w2x2(x, y, n: int, seed: int, workers: int | None = None) -> GdResult | list[GdResult]:
    """Choice method without communication: Bob always evaluates lambda0.

    Reproduces the half-singlet/half-noise two-qubit mixture:
    E(AB) -> -(x.y)/2. Also verifies on every sample that Alice's output
    equals -sign(x . (lambda0 + lambda1)). Returns a GdResult, or a list of
    them for stacks x, y (see _run_choice).
    """

    def outputs(l0, l1):
        both = l0 + l1  # the rewrite's sum, once per batch for every pair

        def pair(pick0, a_plus, x, y):
            mism = np.count_nonzero(a_plus != (_dot_rows(both, x) < 0))
            return _pm_counts(a_plus, _dot_rows(l0, y) >= 0), np.array([float(mism)])

        return pair

    def result(cells, mism):
        return GdResult(*_pm_results(cells, n, seed), int(mism[0]))

    return _run_choice(x, y, n, seed, "gd_w2x2", outputs, result, workers)


@dataclass
class HirschResult(SpinResult):
    accept_rate: McEstimate | None


def _hirsch_alice(v: np.ndarray, lam: np.ndarray, inside: np.ndarray, u1: np.ndarray, u2: np.ndarray):
    """Alice's half of the singlet/|0> mixture model along v (one direction
    or (3, m) rows of them) on the shared (3, m) rows of sphere points lam
    and the mask `inside` of samples inside the protocol (r < 2q for the
    shared uniforms r), with her own uniforms u1 (accept) and u2 (noise).
    Inside the protocol she accepts lam with probability |v . lam| and
    outputs -sign(v . lam); otherwise she outputs +1 with probability
    (1 + v_z) / 2. Returns her "is +1" flags and the mask of accepted
    samples. Bob's half is deterministic: sign(w . lam)."""
    vl = _dot_rows(lam, v)
    acc = inside & (u1 < np.abs(vl))
    return _select(acc, vl < 0, u2 < (1 + v[2]) / 2), acc


def simulate_hirsch_projective(
    q: float, x, y, n: int, seed: int, workers: int | None = None
) -> HirschResult:
    """Simulate spin measurements on the singlet/|0> mixture with weight q.

    Valid for q in [0, 1/2]. A shared uniform r mixes the full protocol
    (probability 2q) with the flagged-noise branch; inside the protocol
    Alice accepts the shared sphere point with probability |x . lambda|.
    accept_rate estimates that acceptance frequency (None when q = 0).
    """
    q = _check_real(q, 0, 0.5, "q")  # where the mixture model is local; a float, for the label
    x, y = unit_bloch(x, "direction"), unit_bloch(y, "direction")

    def kernel(rng: np.random.Generator, m: int):
        lam = sample_sphere_r3(rng, m)
        r, u1, u2 = rng.random((3, m))
        inside = r < 2.0 * q
        a_plus, acc = _hirsch_alice(x, lam, inside, u1, u2)
        counts = np.array([np.count_nonzero(acc), np.count_nonzero(inside)], dtype=float)
        return _pm_counts(a_plus, _dot_rows(lam, y) >= 0), counts

    cells, counts = run_batched(n, seed, f"hirsch:q={q!r}", kernel, workers)
    n_acc, n_mix = counts
    accept = None
    if n_mix > 0:
        accept = McEstimate.from_sums(n_acc, n_acc, int(n_mix), seed)
    return HirschResult(*_pm_results(cells, n, seed), accept)


@dataclass
class LiftResult:
    table: JointTable
    step4_a: McEstimate
    step4_b: McEstimate
    target: DensityMatrix


def _picks(cdfs: list[np.ndarray]):
    """Outcomes drawn from each of the inner cumulative weights cdfs (the
    last outcome takes any rounding shortfall) by shared uniforms u: the
    outcome of cdfs[i] is the count of its entries <= u. place(u) locates u
    once among the sorted entries of all of them, as small integers, and
    tables[i][place(u)] is that count, exactly: no entry lies between the
    largest entry <= u and u, so u has that entry's count."""
    breaks = np.sort(np.concatenate(cdfs))
    below = np.concatenate([[-np.inf], breaks])  # the largest entry <= u, by place
    tables = [np.searchsorted(np.sort(c), below, side="right") for c in cdfs]
    dtype = np.min_scalar_type(len(breaks))

    def place(u: np.ndarray) -> np.ndarray:
        return np.searchsorted(breaks, u, side="right").astype(dtype)

    return place, tables


def _lift_side(povms: list[Povm], sigma: np.ndarray, d: int):
    """One party's side of the lift for each of its POVMs, refined to
    {alpha_a |v_a><v_a|}: a refined outcome a is drawn with probability
    alpha_a/d, and in step 4 with probability tr(alpha_a |v_a><v_a| sigma),
    by uniforms that all the POVMs share (see _picks). Returns place and
    place4, which locate the uniforms of the two draws, and step(i, j, j4,
    hit), which draws POVM i's refined outcomes a at the places j, takes
    hit((3, m) Bloch rows of the v_a, gathered from a (3, k) table) as the
    mask of samples where the base model answers a, else draws a at the
    places j4, and returns the coarse outcomes and the hit mask."""
    refined = [povm_refine(p) for p in povms]
    blochs = []
    for _, _, kets in refined:
        k0, k1 = kets[:, 0], kets[:, 1]
        blochs.append(np.array([2 * (k0.conj() * k1).real, 2 * (k0.conj() * k1).imag, np.abs(k0) ** 2 - np.abs(k1) ** 2]))
    place, tables = _picks([np.cumsum(w / d)[:-1] for _, w, _ in refined])
    place4, tables4 = _picks(
        [np.cumsum([np.trace(a * projector(v) @ sigma).real for a, v in zip(w, kets)])[:-1] for _, w, kets in refined]
    )
    back_maps = [np.asarray(back_map) for back_map, _, _ in refined]

    def step(i: int, j: np.ndarray, j4: np.ndarray, hit):
        idx = tables[i][j]
        hits = hit(np.take(blochs[i], idx, axis=1))
        return back_maps[i][_select_index(hits, idx, tables4[i][j4])], hits

    return place, place4, step


def simulate_povm_lift(
    q: float,
    sigma_a: np.ndarray,
    sigma_b: np.ndarray,
    povm_a: Povm | list[Povm],
    povm_b: Povm | list[Povm],
    n: int,
    seed: int,
    workers: int | None = None,
) -> LiftResult | list[LiftResult]:
    """Simulate qubit POVMs on the lift of rho_g(q), q in [0, 1/2], by
    re-running the singlet/|0> mixture model.

    Per run each party draws a refined outcome a with probability alpha_a/d,
    simulates {P_a, I - P_a} on rho_g(q) through the shared hidden variable,
    outputs a on a hit, and otherwise outputs a' with probability
    tr(M_a' sigma). The estimated table targets the Born probabilities of
    lift_state(rho_g(q), sigma_a, sigma_b).

    povm_a and povm_b may also be equal-length stacks of POVMs (see
    _stack). Each batch then draws lam, r and every uniform once, in a
    single run's order, and applies them to every pair in turn, and the
    result is a list of LiftResults in pair order; pair i is the single run
    on (povm_a[i], povm_b[i]), bit for bit.
    """
    q = _check_real(q, 0, 0.5, "q")  # where the mixture model is local; a float, for the label
    d = 2
    pa, pb, unpack = _stack(povm_a, povm_b, lambda p: isinstance(p, Povm) and p.dim == d, f"POVMs must be two Povm objects on C^{d}")
    target = lift_state(rho_g(q), sigma_a, sigma_b)  # checks both sigmas before any sampling
    place_a, place4_a, step_a = _lift_side(pa, np.asarray(sigma_a, dtype=complex), d)
    place_b, place4_b, step_b = _lift_side(pb, np.asarray(sigma_b, dtype=complex), d)
    sizes = [(len(a.elements), len(b.elements)) for a, b in zip(pa, pb)]

    def kernel(rng: np.random.Generator, m: int):
        lam = sample_sphere_r3(rng, m)
        # a single run's uniforms in its order: r, Alice's pick, her accept
        # and noise coins, her step-4 pick, then Bob's pick and his step-4
        # pick; r is kept as its mask and each pick's uniforms as their
        # places, a byte per sample, for the pairs to share
        inside = rng.random(m) < 2.0 * q
        ja = place_a(rng.random(m))
        u1, u2 = rng.random((2, m))
        ja4 = place4_a(rng.random(m))
        jb = place_b(rng.random(m))
        jb4 = place4_b(rng.random(m))

        def pair(i: int, ka: int, kb: int):  # its arrays are freed before the next pair's
            a_out, hit_a = step_a(i, ja, ja4, lambda v: _hirsch_alice(v, lam, inside, u1, u2)[0])
            b_out, hit_b = step_b(i, jb, jb4, lambda v: _dot_rows(lam, v) >= 0)
            cells = np.bincount(a_out * kb + b_out, minlength=ka * kb).astype(float)
            return cells, np.array([m - np.count_nonzero(hit_a), m - np.count_nonzero(hit_b)], dtype=float)

        return tuple(part for i, (ka, kb) in enumerate(sizes) for part in pair(i, ka, kb))

    sums = run_batched(n, seed, f"povmlift:q={q!r}", kernel, workers)
    return unpack([
        LiftResult(
            table=JointTable.from_sums(c.reshape(ka, kb), c.reshape(ka, kb), n, seed, a.labels, b.labels),
            step4_a=McEstimate.from_sums(miss[0], miss[0], n, seed),
            step4_b=McEstimate.from_sums(miss[1], miss[1], n, seed),
            target=target,
        )
        for c, miss, (ka, kb), a, b in zip(sums[::2], sums[1::2], sizes, pa, pb)
    ])


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
    return _overlap_table(f"barrett:d={d}", _barrett_responses, d, povm_a, povm_b, n, seed, workers)


# -- trials: one per model, and the registry of them ------------------------
# A trial draws the measurements, runs the simulator and returns (result,
# table, oracle, extra): the Born table of the target state and the ordered
# scalars that `simulate` prints after the table, among them each *_target
# that the model's estimates are checked against. Simulators and target
# states are module globals looked up at call time, so a test or benchmark
# can swap one.


def werner_trial(d: int, rng: np.random.Generator, n: int, seed: int, workers: int | None = None):
    """Minimizer model in two Haar-random bases against werner_local(d),
    whose d^2 x d^2 matrix is checked against the budget before sampling."""
    _check_matrix_budget(d)
    pa, pb = random_projective(d, rng), random_projective(d, rng)
    table = simulate_werner(d, pa, pb, n, seed, workers)
    return table, table, born_table(werner_local(d), pa.elements, pb.elements), {}


def barrett_trial(d: int, rng: np.random.Generator, n: int, seed: int, workers: int | None = None):
    """Threshold model in two Haar-random bases against barrett_state(d),
    checked as in werner_trial."""
    _check_matrix_budget(d)
    pa, pb = random_projective(d, rng), random_projective(d, rng)
    table = simulate_barrett(d, pa, pb, n, seed, workers)
    return table, table, born_table(barrett_state(d), pa.elements, pb.elements), {}


def _spin_trial(run, state: DensityMatrix, x, y, extra):
    """For each result res of run(xs, ys) on the direction pairs of x and y
    (see _directions): (res, its table, the Born table of state on spins
    along x_i and y_i, extra(res, x_i . y_i)), unpacked by _stack."""
    xs, ys, unpack = _directions(x, y)
    return unpack([
        (res, res.table, born_table(state, obs_from_bloch(xi).elements, obs_from_bloch(yi).elements), extra(res, float(xi @ yi)))
        for res, xi, yi in zip(run(xs, ys), xs, ys, strict=True)
    ])


def gd_trial(x, y, n: int, seed: int, workers: int | None = None):
    """Choice-method model on spins along x and y against werner2x2(1/2),
    whose E(AB) is -(x.y)/2. For (k, 3) stacks x and y all pairs run on one
    stream, and the trial returns a list of k tuples in pair order."""
    return _spin_trial(
        lambda xs, ys: simulate_gd_w2x2(xs, ys, n, seed, workers), werner2x2(0.5), x, y,
        lambda r, xy: {"E_AB": r.e_ab.mean, "E_AB_target": -xy / 2, "rewrite_agreement": r.rewrite_agreement},
    )


def epr1bit_trial(x, y, n: int, seed: int, workers: int | None = None):
    """One-bit-assisted simulation on spins along x and y against the
    singlet, whose E(AB) is -x.y. Stacks x and y run as in gd_trial."""
    return _spin_trial(
        lambda xs, ys: simulate_epr_one_bit(xs, ys, n, seed, workers), singlet(), x, y,
        lambda r, xy: {"E_AB": r.e_ab.mean, "E_AB_target": -xy},
    )


def hirsch_trial(q: float, x, y, n: int, seed: int, workers: int | None = None):
    """Singlet/|0> mixture model on spins along x and y against rho_g(q),
    whose E(A) is (1-q) x_z. The simulator runs one pair and rejects
    stacks."""
    q = _check_real(q, 0, 0.5, "q")  # before rho_g(q), which admits q up to 1

    def extra(r, xy):
        rate = {} if r.accept_rate is None else {"accept_rate": r.accept_rate.mean}
        return {"E_A": r.e_a.mean, "E_A_target": (1 - q) * float(x[2]), **rate}

    return _spin_trial(lambda xs, ys: [simulate_hirsch_projective(q, x, y, n, seed, workers)], rho_g(q), x, y, extra)


def povm_lift_trial(
    q: float, rng: np.random.Generator, n: int, seed: int, workers: int | None = None, pairs: int | None = None
):
    """Two random three-outcome qubit POVMs on the lift of rho_g(q) with
    sigma_A = sigma_B = |0><0|. For an integer `pairs` the trial draws that
    many POVM pairs in turn, runs them as one stack on one stream and
    returns a list of their tuples in pair order."""
    sigma = np.diag([1.0, 0.0]).astype(complex)
    ma, mb = [], []
    for _ in range(1 if pairs is None else pairs):
        ma.append(random_povm(3, 2, rng))
        mb.append(random_povm(3, 2, rng))
    rows = []
    for res, a, b in zip(simulate_povm_lift(q, sigma, sigma, ma, mb, n, seed, workers), ma, mb, strict=True):
        extra = {"step4_rate_a": res.step4_a.mean, "step4_rate_b": res.step4_b.mean}
        rows.append((res, res.table, born_table(res.target, a.elements, b.elements), extra))
    return rows[0] if pairs is None else rows


# The models of `simulate`, by name. A trial takes its inputs (d, q, x, y,
# rng) by parameter name (see _by_name), plus n, seed and workers.
MODELS = {
    "werner": werner_trial,
    "gd": gd_trial,
    "epr1bit": epr1bit_trial,
    "hirsch": hirsch_trial,
    "povm-lift": povm_lift_trial,
    "barrett": barrett_trial,
}


def _by_name(fn, values: dict) -> dict:
    """The parameters of fn that have no default, each the value of the same
    name: a model trial's inputs, or a named state's flags."""
    return {p.name: values[p.name] for p in inspect.signature(fn).parameters.values() if p.default is p.empty}
