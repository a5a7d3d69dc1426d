import dataclasses
import functools
import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from nonlocal_lab import acceptance, cli, lhv, mc, states
from nonlocal_lab.measure import (
    Povm,
    born_table,
    povm_refine,
    random_povm,
    obs_from_bloch,
    random_projective,
)
from nonlocal_lab.qmat import PAULIS, basis_ket, haar_ket, haar_unitary, projector
from nonlocal_lab.mc import JointTable, McEstimate
from nonlocal_lab.states import werner_local, werner_local_phi

N = 400_000


@pytest.fixture
def rng():
    """A fresh generator for each test, so that a test draws the same inputs
    whichever tests ran before it."""
    return np.random.default_rng(31337)


def unit3(gen: np.random.Generator) -> np.ndarray:
    v = gen.standard_normal(3)
    return v / np.linalg.norm(v)


# -- scalar reference responses, one hidden variable at a time ---------------
# Each measurement is refined once, when its reference is built.


def basis_povm(basis: np.ndarray) -> Povm:
    """Rank-1 projective measurement onto the columns of an orthonormal matrix."""
    return Povm([projector(c) for c in np.asarray(basis).T])


def refined_elements(povm: Povm) -> tuple[list[np.ndarray], list[int]]:
    """The rank-1 pieces w |v><v| of povm_refine as matrices, and its back-map."""
    back_map, weights, kets = povm_refine(povm)
    return [w * projector(v) for w, v in zip(weights, kets)], back_map


def rank1_pieces(refined: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Weights and unit kets of rank-1 elements alpha |v><v|."""
    weights = np.array([np.trace(e).real for e in refined])
    kets = np.array([np.linalg.eigh(e)[1][:, -1] for e in refined])
    return weights, kets


class WernerRef:
    """Werner responses for one projective measurement."""

    def __init__(self, proj: Povm):
        refined, self.back_map = refined_elements(proj)
        self.kets = rank1_pieces(refined)[1]
        self.projectors = proj.elements

    def a(self, a: int, lam: np.ndarray) -> int:
        """1 iff outcome a holds the refined ket whose overlap |<k|lam>|^2 is
        the minimum, else 0; ties go to the lowest refined index."""
        return int(self.back_map[int(np.argmin(np.abs(self.kets.conj() @ lam) ** 2))] == a)

    def b(self, b: int, lam: np.ndarray) -> float:
        """Quantum response <lam|Q_b|lam>."""
        return float(np.vdot(lam, self.projectors[b] @ lam).real)


class BarrettRef:
    """Barrett responses for one refined POVM {x_k P_k}."""

    def __init__(self, refined: list[np.ndarray]):
        self.weights, self.kets = rank1_pieces(refined)
        self.d = len(refined[0])

    def a(self, i: int, lam: np.ndarray) -> float:
        """x_i <lam|P_i|lam> when the overlap clears 1/d, plus the leftover
        weight redistributed proportionally to x_i / d."""
        u = np.abs(self.kets.conj() @ lam) ** 2
        m = self.weights * u
        chi = (u - 1.0 / self.d) >= 0
        s = float((m * chi).sum())
        return float(m[i] * chi[i] + (1.0 - s) * self.weights[i] / self.d)

    def b(self, j: int, lam: np.ndarray) -> float:
        """Inverted quantum response y_j (1 - <lam|Q_j|lam>) / (d - 1)."""
        u = np.abs(self.kets.conj() @ lam) ** 2
        return float(self.weights[j] * (1.0 - u[j]) / (self.d - 1))


def gd_choice(lambda0: np.ndarray, lambda1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Keep the sphere point with the larger |x . lambda_i| (ties keep lambda1)."""
    if abs(np.dot(x, lambda0)) > abs(np.dot(x, lambda1)):
        return lambda0
    return lambda1


def hirsch_alice(q: float, v: np.ndarray, lam: np.ndarray, r: float, u1: float, u2: float) -> tuple[bool, bool]:
    """Alice's outcome along v in the singlet/|0> mixture model, as (is +1,
    accepted): inside the protocol (r < 2q) she accepts lam with probability
    |v . lam| and outputs -sign(v . lam); otherwise she outputs +1 with
    probability (1 + v_z) / 2. Bob's outcome is sign(w . lam)."""
    vl = float(np.dot(v, lam))
    if r < 2 * q and u1 < abs(vl):
        return vl < 0, True
    return u2 < (1 + v[2]) / 2, False


class TestSphereSampling:
    def test_r3_moments(self, rng):
        lam = lhv.sample_sphere_r3(np.random.default_rng(0), 1_000_000)  # (3, n) rows
        n = lam.shape[1]
        se = 1 / np.sqrt(3 * n)  # component variance is 1/3
        assert np.max(np.abs(lam.mean(axis=1))) < 5 * se
        x = unit3(rng)
        proj = x @ lam
        assert abs(proj.mean()) < 5 * proj.std(ddof=1) / np.sqrt(n)
        absproj = np.abs(proj)
        assert abs(absproj.mean() - 0.5) < 5 * absproj.std(ddof=1) / np.sqrt(n)

    def test_cd_norms_and_mean_overlap(self, rng):
        for d in (2, 3, 5):
            lam = lhv.sample_sphere_cd(np.random.default_rng(d), d, 200_000)
            assert np.max(np.abs(np.linalg.norm(lam, axis=1) - 1)) < 1e-12
            p = haar_ket(d, rng)
            overlap = np.abs(lam @ p.conj()) ** 2
            se = overlap.std(ddof=1) / np.sqrt(len(lam))
            assert abs(overlap.mean() - 1 / d) < 5 * se

    def test_cd_unitary_invariance(self, rng):
        # two-sample KS on <lam|P|lam> versus <lam|U P U^dag|lam>
        d = 3
        p = haar_ket(d, rng)
        u = haar_unitary(d, rng)
        lam1 = lhv.sample_sphere_cd(np.random.default_rng(10), d, 100_000)
        lam2 = lhv.sample_sphere_cd(np.random.default_rng(11), d, 100_000)
        s1 = np.abs(lam1 @ p.conj()) ** 2
        s2 = np.abs(lam2 @ (u @ p).conj()) ** 2
        assert stats.ks_2samp(s1, s2).pvalue > 0.001


class TestWernerResponses:
    def test_eigenvector_gets_zero(self):
        ref = WernerRef(basis_povm(np.eye(2)))
        lam = basis_ket(2, 0)  # overlap 1 with P_0, so P_1 is the minimizer
        assert ref.a(0, lam) == 0
        assert ref.a(1, lam) == 1

    def test_normalized_over_outcomes(self, rng):
        # scalar responses on a subsample; the vectorized path is exercised by the simulators
        for d in (2, 3):
            ref = WernerRef(random_projective(d, rng))
            lam = lhv.sample_sphere_cd(np.random.default_rng(42), d, 200)
            for v in lam:
                total_a = sum(ref.a(a, v) for a in range(d))
                total_b = sum(ref.b(b, v) for b in range(d))
                assert total_a == 1
                assert abs(total_b - 1) < 1e-12

    def test_quantum_response_eigenvector(self):
        ref = WernerRef(basis_povm(np.eye(3)))
        assert np.isclose(ref.b(2, basis_ket(3, 2)), 1.0, atol=1e-12)

    def test_quantum_response_unitary_symmetry(self, rng):
        d = 3
        u = haar_unitary(d, rng)
        basis = haar_unitary(d, rng)
        meas = basis_povm(basis)
        rotated = Povm([u.conj().T @ p @ u for p in meas.elements], meas.labels)
        lam = haar_ket(d, rng)
        assert np.isclose(
            WernerRef(rotated).b(1, lam),
            WernerRef(meas).b(1, u @ lam),
            atol=1e-12,
        )


class TestSimulateWerner:
    def test_equal_projector_cell_d2(self, rng):
        basis = haar_unitary(2, rng)
        meas = basis_povm(basis)
        table = lhv.simulate_werner(2, meas, meas, N, 21)
        cell = table.cell(0, 0)
        assert abs(cell.sigma_ratio((1 + werner_local_phi(2)) / (2 * 3))) < 5  # = 0.125

    def test_marginals_are_uniform(self, rng):
        pa, pb = random_projective(3, rng), random_projective(3, rng)
        table = lhv.simulate_werner(3, pa, pb, N, 23)
        agg_se = np.sqrt((table.stderrs**2).sum(axis=1))
        assert np.max(np.abs(table.means.sum(axis=1) - 1 / 3) / agg_se) < 5

    def test_higher_rank_projectors_coarse_grain(self, rng):
        basis = haar_unitary(3, rng)
        coarse = Povm(
            [projector(basis[:, 0]) + projector(basis[:, 1]), projector(basis[:, 2])], [0, 1]
        )
        fine = basis_povm(basis)
        table = lhv.simulate_werner(3, coarse, fine, N, 24)
        oracle = born_table(werner_local(3), coarse.elements, fine.elements)
        assert table.max_sigma(oracle) < 5

    def test_zero_projector_gets_zero_row_and_column(self):
        # a zero projector is a valid outcome with no refined ket on either side
        gen = np.random.default_rng(71)
        ua, ub = haar_unitary(3, gen), haar_unitary(3, gen)
        zero = np.zeros((3, 3))
        pa = Povm([projector(ua[:, 0]), zero, projector(ua[:, 1]) + projector(ua[:, 2])], [5, 6, 7])
        pb = Povm([zero, projector(ub[:, 0]), projector(ub[:, 1]), projector(ub[:, 2])], [0, 1, 2, 3])
        table = lhv.simulate_werner(3, pa, pb, 200_000, 25)
        assert table.means.shape == table.stderrs.shape == (3, 4)
        assert table.labels_a == [5, 6, 7] and table.labels_b == [0, 1, 2, 3]
        assert not table.means[1].any() and not table.means[:, 0].any()
        assert np.isclose(table.means.sum(), 1.0, atol=1e-12)
        assert table.max_sigma(born_table(werner_local(3), pa.elements, pb.elements)) < 5

    def test_implied_phi_is_basis_independent(self, rng):
        # equal-projector cell determines phi; five random bases must agree
        ests = []
        for k in range(5):
            basis = haar_unitary(2, rng)
            meas = basis_povm(basis)
            cell = lhv.simulate_werner(2, meas, meas, N, 100 + k).cell(0, 0)
            ests.append((2 * 3 * cell.mean - 1, 2 * 3 * cell.stderr))
        for phi1, se1 in ests:
            for phi2, se2 in ests:
                assert abs(phi1 - phi2) < 5 * np.hypot(se1, se2) + 1e-15


def _no_sampling(*args, **kwargs):
    raise AssertionError("input should be rejected before sampling")


_WEIGHTED_P0 = 0.7 * projector(basis_ket(2, 0))
# POVMs on a qubit that sum to I but are not projective
_NON_PROJECTIVE = {
    "coin-flip": [np.eye(2) / 2, np.eye(2) / 2],
    "weighted-projector": [_WEIGHTED_P0, np.eye(2) - _WEIGHTED_P0],
}


class TestInputChecks:
    def test_werner_rejects_d_below_two_before_sampling(self, monkeypatch):
        monkeypatch.setattr(lhv, "run_batched", _no_sampling)
        with pytest.raises(ValueError, match="d must be >= 2"):
            lhv.werner_trial(1, np.random.default_rng(0), 10**7, 0)

    @pytest.mark.parametrize("case", sorted(_NON_PROJECTIVE))
    def test_werner_and_simplex_reject_non_projective_povms(self, case, monkeypatch):
        monkeypatch.setattr(lhv, "run_batched", _no_sampling)
        povm = Povm(_NON_PROJECTIVE[case])
        basis = basis_povm(np.eye(2))
        with pytest.raises(ValueError, match="not projective"):
            lhv.simulate_werner(2, povm, basis, 1000, 0)
        with pytest.raises(ValueError, match="not projective"):
            lhv.simulate_werner(2, basis, povm, 1000, 0)
        with pytest.raises(ValueError, match="not projective|rank-1"):
            lhv.simplex_integral_mc(2, 0, povm, 1000, 0)

    @pytest.mark.parametrize("d", [3.0, 2.5])
    def test_overlap_models_reject_a_non_integer_d_before_sampling(self, rng, d, monkeypatch):
        # unchecked, d = 3.0 would pass the dimension check and fail inside the sampler
        pa, pb = random_projective(3, rng), random_projective(3, rng)
        monkeypatch.setattr(lhv, "run_batched", _no_sampling)
        runs = [
            lambda: lhv.simulate_werner(d, pa, pb, 1000, 0),
            lambda: lhv.simulate_barrett(d, pa, pb, 1000, 0),
            lambda: lhv.simplex_integral_mc(d, 0, pa, 1000, 0),
        ]
        for run in runs:
            with pytest.raises(ValueError, match="d must be an integer"):
                run()

    @pytest.mark.parametrize("a", [-1, 3])
    def test_simplex_rejects_an_outcome_outside_range_d_before_sampling(self, rng, a, monkeypatch):
        # unchecked, a = -1 would index the last row and a = d fail inside the kernel
        monkeypatch.setattr(lhv, "run_batched", _no_sampling)
        with pytest.raises(ValueError, match=r"outcome index a must be an integer in range\(3\)"):
            lhv.simplex_integral_mc(3, a, random_projective(3, rng), 1000, 0)

    def test_simplex_reads_a_boolean_outcome_as_its_integer(self, rng):
        """a passes through _check_dim before sampling, so True is outcome 1
        rather than a boolean index into the table after every draw."""
        pa = random_projective(3, rng)
        flagged, one = lhv.simplex_integral_mc(3, True, pa, 2000, 0), lhv.simplex_integral_mc(3, 1, pa, 2000, 0)
        assert (flagged.mean, flagged.stderr) == (one.mean, one.stderr)

    @pytest.mark.parametrize("q", [-0.1, 0.6, float("nan"), "0.3", None])
    @pytest.mark.parametrize("simulator", ["hirsch", "povm_lift", "hirsch_trial"])
    def test_mixture_models_reject_q_outside_zero_to_half_before_sampling(self, simulator, q, monkeypatch):
        monkeypatch.setattr(lhv, "run_batched", _no_sampling)
        x, sigma = np.array([0.0, 0.0, 1.0]), projector(basis_ket(2, 0))
        run = {
            "hirsch": lambda: lhv.simulate_hirsch_projective(q, x, x, 1000, 0),
            "povm_lift": lambda: lhv.simulate_povm_lift(q, sigma, sigma, obs_from_bloch(x), obs_from_bloch(x), 1000, 0),
            "hirsch_trial": lambda: lhv.hirsch_trial(q, x, x, 1000, 0),
        }[simulator]
        with pytest.raises(ValueError, match=rf"q must lie in \[0, 0.5\], got {re.escape(repr(q))}"):
            run()

    @pytest.mark.parametrize(
        "sigma, message",
        [(np.full((2, 2), np.nan), "sigma is not a valid state"), (np.eye(3) / 3, r"^sigma must be an array of numbers of shape \(2, 2\), got shape \(3, 3\)$")],
    )
    @pytest.mark.parametrize("party", ["a", "b"])
    def test_lift_rejects_a_bad_sigma_before_sampling(self, sigma, message, party, monkeypatch):
        monkeypatch.setattr(lhv, "run_batched", _no_sampling)
        good, z = projector(basis_ket(2, 0)), obs_from_bloch([0.0, 0.0, 1.0])
        sigmas = (sigma, good) if party == "a" else (good, sigma)
        with pytest.raises(ValueError, match=message):
            lhv.simulate_povm_lift(0.4, *sigmas, z, z, 2_000_000, 0)

    @pytest.mark.parametrize("bad", [{"n": 1000.0}, {"n": float("nan")}, {"n": float("inf")}, {"seed": 1.5}])
    @pytest.mark.parametrize("model", sorted(lhv.MODELS))
    def test_non_integer_n_or_seed_is_rejected_before_the_first_draw(self, model, bad, monkeypatch):
        monkeypatch.setattr(mc, "batch_rng", _no_sampling)
        with pytest.raises(ValueError, match="must be an integer"):
            _run(model, **{"n": 1000, **bad})

    def test_numpy_integer_n_and_seed_keep_the_stream(self):
        for model in lhv.MODELS:
            plain, numpy_ints = _run(model, 1000, seed=3)[1], _run(model, np.int64(1000), seed=np.uint32(3))[1]
            assert np.array_equal(plain.means, numpy_ints.means) and np.array_equal(plain.stderrs, numpy_ints.stderrs)

    @pytest.mark.parametrize("model", sorted(lhv.MODELS))
    def test_numpy_integer_n_and_seed_reach_json(self, model):
        """Every table and estimate stores n and seed as Python ints, so the
        `simulate` payload of a run on numpy integers is JSON."""
        result, table = _run(model, np.int64(1000), seed=np.int64(3))[:2]
        payload = json.loads(cli._dump_json(table.to_dict()))
        assert (payload["n"], payload["seed"]) == (1000, 3)
        for est in [result, *(getattr(result, f.name) for f in dataclasses.fields(result))]:
            if isinstance(est, (McEstimate, JointTable)):
                assert type(est.n) is int and type(est.seed) is int


class TestSimplexIntegral:
    def test_quadrature_oracle_d3(self):
        # overlaps of a Haar ket are uniform on the simplex; (u1, u2) has
        # density 2 on the triangle. u1 is strictly minimal iff u1 < 1/3 and
        # u2 in (u1, 1 - 2 u1), so the restricted mean of u1 is
        # int_0^{1/3} 2 u1 (1 - 3 u1) du1.
        val, err = integrate.quad(lambda u1: 2 * u1 * (1 - 3 * u1), 0, 1 / 3)
        assert err < 1e-12
        assert abs(val - 1 / 27) < 1e-12

    def test_d2(self, rng):
        est = lhv.simplex_integral_mc(2, 1, random_projective(2, rng), N, 31)
        assert abs(est.sigma_ratio(1 / 8)) < 5

    def test_d3(self, rng):
        est = lhv.simplex_integral_mc(3, 0, random_projective(3, rng), N, 32)
        assert abs(est.sigma_ratio(1 / 27)) < 5

    def test_basis_and_outcome_independence(self, rng):
        ests = [lhv.simplex_integral_mc(3, k % 3, random_projective(3, rng), N, 40 + k) for k in range(5)]
        for a in ests:
            for b in ests:
                assert abs(a.mean - b.mean) < 5 * np.hypot(a.stderr, b.stderr) + 1e-15


class TestGdChoice:
    def test_verbatim_rule(self):
        x = np.array([0.0, 0.0, 1.0])
        l0 = np.array([0.0, 0.6, 0.8])
        l1 = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(gd_choice(l0, l1, x), l0)
        assert np.array_equal(gd_choice(l1, l0, x), l0)
        # tie keeps the second candidate
        l2 = np.array([0.0, -0.6, -0.8])
        assert np.array_equal(gd_choice(l0, l2, x), l2)

    def test_density_linear_in_overlap(self, rng):
        # |x . lambda_s| is the max of two uniforms: density 2u on [0, 1]
        gen = np.random.default_rng(77)
        n = 1_000_000
        x = unit3(rng)
        l0 = lhv.sample_sphere_r3(gen, n)
        l1 = lhv.sample_sphere_r3(gen, n)
        a0, a1 = np.abs(x @ l0), np.abs(x @ l1)
        u = np.where(a0 > a1, a0, a1)
        hist, edges = np.histogram(u, bins=20, range=(0.0, 1.0))
        expected = n * (edges[1:] ** 2 - edges[:-1] ** 2)
        chi2 = ((hist - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(1 - 0.001, df=19)

    def test_equal_pick_probability(self, rng):
        gen = np.random.default_rng(78)
        n = 1_000_000
        x = unit3(rng)
        l0 = lhv.sample_sphere_r3(gen, n)
        l1 = lhv.sample_sphere_r3(gen, n)
        picked0 = np.abs(x @ l0) > np.abs(x @ l1)
        assert abs(picked0.mean() - 0.5) < 5 * np.sqrt(0.25 / n)


class TestEprOneBit:
    def test_aligned_directions(self, rng):
        x = unit3(rng)
        res = lhv.simulate_epr_one_bit(x, x, N, 51)
        assert abs(res.e_ab.sigma_ratio(-1.0)) < 5

    def test_orthogonal_directions(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 0.0, 1.0])
        res = lhv.simulate_epr_one_bit(x, y, N, 52)
        assert abs(res.e_ab.sigma_ratio(0.0)) < 5

    def test_marginals_vanish(self, rng):
        res = lhv.simulate_epr_one_bit(unit3(rng), unit3(rng), N, 53)
        assert abs(res.e_a.sigma_ratio(0.0)) < 5
        assert abs(res.e_b.sigma_ratio(0.0)) < 5

    def test_aligned_table_is_exact_and_meets_the_singlet(self):
        """At y = x off the axes the outputs are exactly anti-correlated, and
        at y = -x exactly correlated, so two cells are exact zeros with
        stderr 0, while the singlet's Born table rounds them to about 1e-17."""
        x = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        for sign, zeros in ((1.0, [(0, 0), (1, 1)]), (-1.0, [(0, 1), (1, 0)])):
            res, table, oracle, extra = _run("epr1bit", 3000, seed=54, x=x, y=sign * x)
            for cell in zeros:
                assert table.means[cell] == 0.0 and table.stderrs[cell] == 0.0
            assert res.e_ab.mean == -sign and res.e_ab.stderr == 0.0
            assert table.max_sigma(oracle) < 5
            assert res.e_ab.sigma_ratio(extra["E_AB_target"]) == 0.0


class TestGdW2x2:
    def test_aligned_directions(self, rng):
        x = unit3(rng)
        res = lhv.simulate_gd_w2x2(x, x, N, 61)
        assert abs(res.e_ab.sigma_ratio(-0.5)) < 5

    def test_orthogonal_directions(self):
        res = lhv.simulate_gd_w2x2([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], N, 62)
        assert abs(res.e_ab.sigma_ratio(0.0)) < 5

    def test_rewrite_identity_holds_on_all_samples(self, rng):
        res = lhv.simulate_gd_w2x2(unit3(rng), unit3(rng), N, 64)
        assert res.rewrite_mismatches == 0
        assert res.rewrite_agreement == 1.0


class TestHirsch:
    def test_marginal_at_full_weight(self, rng):
        x = np.array([0.0, 0.0, 1.0])
        res = lhv.simulate_hirsch_projective(0.5, x, unit3(rng), N, 71)
        assert abs(res.e_a.sigma_ratio(0.5)) < 5

    def test_correlation_scales_with_q(self, rng):
        x, y = unit3(rng), unit3(rng)
        res = lhv.simulate_hirsch_projective(0.3, x, y, N, 72)
        assert abs(res.e_ab.sigma_ratio(-0.3 * float(x @ y))) < 5

    def test_acceptance_rate_half_and_x_independent(self, rng):
        y = unit3(rng)
        r1 = lhv.simulate_hirsch_projective(0.4, unit3(rng), y, N, 74).accept_rate
        r2 = lhv.simulate_hirsch_projective(0.4, unit3(rng), y, N, 75).accept_rate
        assert abs(r1.sigma_ratio(0.5)) < 5
        assert abs(r2.sigma_ratio(0.5)) < 5
        assert abs(r1.mean - r2.mean) < 5 * np.hypot(r1.stderr, r2.stderr)

    def test_no_acceptance_rate_at_q_zero(self, rng):
        assert lhv.simulate_hirsch_projective(0.0, unit3(rng), unit3(rng), 1000, 76).accept_rate is None


class TestPovmLift:
    def setup_method(self):
        self.q = 0.4
        self.sigma = projector(basis_ket(2, 0))

    def test_target_is_lifted_state(self, rng):
        ma, mb = random_povm(2, 2, rng), random_povm(2, 2, rng)
        res = lhv.simulate_povm_lift(self.q, self.sigma, self.sigma, ma, mb, 1000, 82)
        assert np.max(np.abs(res.target.mat - states.rho_g_prime(0.4).mat)) < 1e-12

    def test_fallback_rate(self, rng):
        ma, mb = random_povm(3, 2, rng), random_povm(3, 2, rng)
        res = lhv.simulate_povm_lift(self.q, self.sigma, self.sigma, ma, mb, N, 83)
        assert abs(res.step4_a.sigma_ratio(0.5)) < 5
        assert abs(res.step4_b.sigma_ratio(0.5)) < 5

    def test_projective_input_matches_projective_model(self, rng):
        # sanity: rank-1 projective POVMs reduce to the plain spin simulation
        x = unit3(rng)
        ma = obs_from_bloch(x)
        mb = obs_from_bloch(x)
        res = lhv.simulate_povm_lift(self.q, self.sigma, self.sigma, ma, mb, N, 85)
        oracle = born_table(res.target, ma.elements, mb.elements)
        assert res.table.max_sigma(oracle) < 5


class TestBarrett:
    def test_scalar_responses_are_distributions(self, rng):
        d = 3
        refined = refined_elements(random_povm(4, d, rng))[0]
        k = len(refined)
        ref = BarrettRef(refined)
        for _ in range(50):
            lam = haar_ket(d, rng)
            pa = [ref.a(i, lam) for i in range(k)]
            pb = [ref.b(j, lam) for j in range(k)]
            assert min(pa) >= -1e-12 and min(pb) >= -1e-12
            assert abs(sum(pa) - 1) < 1e-12
            assert abs(sum(pb) - 1) < 1e-12

    def test_povm_input_coarse_grains(self, rng):
        ma, mb = random_povm(3, 2, rng), random_povm(3, 2, rng)
        table = lhv.simulate_barrett(2, ma, mb, N, 92)
        assert np.isclose(table.means.sum(), 1.0, atol=1e-12)
        assert table.means.shape == (3, 3)
        oracle = born_table(states.barrett_state(2), ma.elements, mb.elements)
        assert table.max_sigma(oracle) < 5

    def test_d3_povm_against_born_oracle(self, rng):
        ma, mb = random_povm(3, 3, rng), random_povm(4, 3, rng)
        table = lhv.simulate_barrett(3, ma, mb, N, 93)
        oracle = born_table(states.barrett_state(3), ma.elements, mb.elements)
        assert table.max_sigma(oracle) < 5

    def test_zero_povm_element_gets_zero_row_and_column(self):
        gen = np.random.default_rng(94)
        zero = np.zeros((3, 3))
        a, b = random_povm(2, 3, gen).elements, random_povm(3, 3, gen).elements
        ma = Povm([a[0], zero, a[1]], ["x", "y", "z"])
        mb = Povm([zero, *b])
        table = lhv.simulate_barrett(3, ma, mb, 200_000, 95)
        assert table.means.shape == table.stderrs.shape == (3, 4)
        assert table.labels_a == ["x", "y", "z"] and table.labels_b == [0, 1, 2, 3]
        assert not table.means[1].any() and not table.means[:, 0].any()
        assert np.isclose(table.means.sum(), 1.0, atol=1e-12)
        assert table.max_sigma(born_table(states.barrett_state(3), ma.elements, mb.elements)) < 5


_X, _Y = np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8])


def _run(model: str, n: int, seed: int = 11, rng_seed: int = 7, **inputs):
    """The trial of lhv.MODELS[model] at (n, seed), its inputs taken by
    parameter name as `simulate` takes them: d=2, q=0.4, x=_X, y=_Y and a
    generator seeded with rng_seed, unless given."""
    trial = lhv.MODELS[model]
    values = {"d": 2, "q": 0.4, "x": _X, "y": _Y, "rng": np.random.default_rng(rng_seed), "n": n, "seed": seed, **inputs}
    return trial(**lhv._by_name(trial, values))


def _estimate(result, name: str) -> McEstimate:
    """The estimate that extra's f"{name}_target" targets: the result's
    field of the same name in lower case."""
    return getattr(result, name.lower())


# Each model's trial at (seed, inputs drawn from a generator); a model appears
# under one case or more.
_TRIALS = {
    "werner-d3": ("werner", lambda gen: dict(seed=22, d=3, rng=gen)),
    "barrett-d2": ("barrett", lambda gen: dict(seed=91, d=2, rng=gen)),
    "gd": ("gd", lambda gen: dict(seed=63, x=unit3(gen), y=unit3(gen))),
    "epr1bit": ("epr1bit", lambda gen: dict(seed=51, x=unit3(gen), y=unit3(gen))),
    "hirsch-q0.25": ("hirsch", lambda gen: dict(seed=73, q=0.25, x=unit3(gen), y=unit3(gen))),
    "hirsch-q0": ("hirsch", lambda gen: dict(seed=76, q=0.0, x=unit3(gen), y=unit3(gen))),
    "povm_lift": ("povm-lift", lambda gen: dict(seed=81, q=0.4, rng=gen)),
}


def test_trial_cases_cover_every_model():
    assert {model for model, _ in _TRIALS.values()} == set(lhv.MODELS)


@pytest.mark.parametrize("case", list(_TRIALS))
def test_trial_table_against_its_born_oracle(case, rng):
    """The table against the Born oracle the trial returns, and every
    estimate against its *_target in extra."""
    model, inputs = _TRIALS[case]
    res, table, oracle, extra = _run(model, N, **inputs(rng))
    targets = {k.removesuffix("_target"): v for k, v in extra.items() if k.endswith("_target")}
    assert oracle is not None
    assert table.max_sigma(oracle) < 5
    assert np.isclose(table.means.sum(), 1.0, atol=1e-12)
    for name, target in targets.items():
        assert abs(_estimate(res, name).sigma_ratio(target)) < 5


# -- negative controls on the trials' Born oracles --------------------------
# Power calculation: every cell of a table averages per-sample values in
# [0, 1] with mean p, so their variance is at most p (1 - p) and a cell's
# standard error at most sqrt(p (1 - p) / n). A planted error delta in the
# cell's oracle therefore reads at least |delta| / se >= 10 sigma once
# n >= 100 p (1 - p) / delta^2. Each control runs at the smallest such n over
# the cells of its table; there the deviation should read about 10 sigma or
# more, and it misses the 5-sigma gate only on a 5-sigma fluctuation.


def _power_n(oracle: np.ndarray, mean: np.ndarray) -> int:
    """The smallest n at which a table whose cells have mean `mean` reads
    >= 10 sigma off `oracle` in some cell, by the bound above."""
    delta = np.abs(oracle - mean)
    cells = delta > 0
    return int(np.ceil(np.min(100 * mean[cells] * (1 - mean[cells]) / delta[cells] ** 2)))


_PLANTED = {
    # model, the lhv global that builds its target, a wrong target
    "werner": ("werner", "werner_local", lambda d: states.werner_phi(d, states.werner_local_phi(d) + 0.3)),
    "barrett": (
        "barrett",
        "barrett_state",
        lambda d: states.werner_phi(d, states.flip_witness(states.barrett_state(d)) + 0.3),
    ),
    "gd": ("gd", "werner2x2", lambda alpha: states.werner2x2(alpha + 0.1)),
    "epr1bit": ("epr1bit", "singlet", lambda: states.werner2x2(0.8)),
    "hirsch": ("hirsch", "rho_g", lambda q: states.rho_g(q + 0.1)),
    # the lift dilutes rho_g to a quarter of the target, so the shift is larger
    "povm_lift": ("povm-lift", "rho_g", lambda q: states.rho_g(q + 0.5)),
}


def test_planted_cases_cover_every_model_with_an_oracle():
    assert all(_run(m, 100)[2] is not None for m in lhv.MODELS)
    assert {model for model, _, _ in _PLANTED.values()} == set(lhv.MODELS)


@pytest.mark.parametrize("case", sorted(_PLANTED))
def test_planted_target_fails_the_gate(case, monkeypatch):
    model, target, wrong = _PLANTED[case]
    truth = _run(model, 100)[2]
    monkeypatch.setattr(lhv, target, wrong)
    planted = _run(model, 100)[2]
    assert np.abs(planted - truth).max() > 1e-3
    # the simulation follows the truth, so its cells have the truth's p
    n = _power_n(planted, truth)
    assert n <= 200_000  # keeps the control cheap
    _, table, oracle, _ = _run(model, n)
    assert np.array_equal(oracle, planted)
    assert table.max_sigma(truth) <= 5  # the simulation itself is sound
    assert table.max_sigma(oracle) > 5


# -- planted defects in the models' own rules -------------------------------
# Each defect moves the expected table from the Born oracle `truth` to
# expected(truth, d); by the bound above, the defective run at
# _power_n(truth, expected) reads >= 10 sigma off the oracle. GD at x = _X,
# y = _Y has E(AB) = -0.4, cells 0.15 / 0.35, and Alice's flipped sign swaps
# them (n = 319). Bob's row scaled by (d - 1) / d scales every cell by the
# same factor, a half at d = 2: in Barrett's model that is his row divided by
# d instead of d - 1 (n = 603 for the bases drawn), in Werner's a quantum
# response that no longer sums to 1.
# A third defect, one sample dropped per overlap block, is left out: it
# biases each cell by about 1/8192 of itself at d = 2, so 10 sigma needs
# n >= 100 (1 - p) / p * 8192^2, about 2e10 at p = 1/4, out of tier-1's reach.


def _alice_sign_flipped(monkeypatch):
    real = lhv._pm_counts
    monkeypatch.setattr(lhv, "_pm_counts", lambda a_plus, b_plus: real(~a_plus, b_plus))


def _bob_scaled(responses: str):
    """The patch that scales Bob's row of the response function
    lhv.<responses> by (d - 1) / d."""

    def patch(monkeypatch):
        real = getattr(lhv, responses)

        def wrong(u, xw, v, yw, d):
            pa, pb = real(u, xw, v, yw, d)
            return pa, pb * ((d - 1) / d)

        monkeypatch.setattr(lhv, responses, wrong)

    return patch


_bob_over_d = _bob_scaled("_barrett_responses")
_werner_bob_scaled = _bob_scaled("_werner_responses")


def _alice_argmax(monkeypatch):
    """Alice outputs the outcome of largest overlap in place of the least."""
    real = lhv._werner_responses
    monkeypatch.setattr(lhv, "_werner_responses", lambda u, xw, v, yw, d: real(-u, xw, v, yw, d))


def _bob_reads_l0(monkeypatch):
    """Bob ignores the bit and always reads l0: GD's rule, so the one-bit
    model simulates werner2x2(1/2), whose table is (singlet's + 1/4) / 2."""
    real = lhv._choice
    monkeypatch.setattr(lhv, "_choice", lambda l0, l1, x: (np.ones(l0.shape[1], dtype=bool), real(l0, l1, x)[1]))


def _noise_flipped(monkeypatch):
    """Alice's non-accepted samples give +1 with probability (1 - v_z) / 2 in
    place of (1 + v_z) / 2, her sound output negated there. The mixture
    model then simulates _rho_g_flipped(q); the lift shares her half."""
    real = lhv._hirsch_alice

    def wrong(*args):
        a_plus, acc = real(*args)
        return a_plus ^ ~acc, acc

    monkeypatch.setattr(lhv, "_hirsch_alice", wrong)


def _acceptance_cut(monkeypatch):
    """Alice rejects a tenth of the samples she would accept, by her noise
    uniform u2, and leaves her outputs alone: the mixture model's table
    holds and only its acceptance rate falls, to 0.45."""
    real = lhv._hirsch_alice

    def wrong(v, lam, inside, u1, u2):
        a_plus, acc = real(v, lam, inside, u1, u2)
        return a_plus, acc & (u2 < 0.9)

    monkeypatch.setattr(lhv, "_hirsch_alice", wrong)


def _fallback_on_equal_picks(monkeypatch):
    """A lift sample whose step-4 pick equals its first pick counts as a
    fallback even where the base model hit. Its outcome is that pick either
    way, so the table holds and only the fallback rate moves. The hit mask
    is cleared in place, because the step returns that same array for the
    count."""
    real = lhv._select_index

    def wrong(mask, a, b):
        mask &= a != b
        return real(mask, a, b)

    monkeypatch.setattr(lhv, "_select_index", wrong)


def _rho_g_flipped(q: float) -> states.DensityMatrix:
    """q |Psi-><Psi-| + (1-q) |1><1| (x) I/2: rho_g(q) with the flag on |1>."""
    noise = np.kron(projector(basis_ket(2, 1)), np.eye(2) / 2)
    return states.DensityMatrix(q * states.singlet().mat + (1 - q) * noise, 2, 2)


def _table_on_rho_g_flipped(model: str, **inputs):
    """The expected table of a defect that swaps rho_g for _rho_g_flipped:
    the model's oracle with lhv.rho_g, its target's base state, swapped."""

    def expected(truth, d):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lhv, "rho_g", _rho_g_flipped)
            return _run(model, 100, **inputs)[2]

    return expected


_DEFECTS = {
    # (model, defect): the patch, the expected table of the defective model
    # and the trial's inputs where they differ from _run's
    ("gd", "alice-sign-flipped"): (_alice_sign_flipped, lambda truth, d: truth[::-1], {}),
    ("barrett", "bob-over-d"): (_bob_over_d, lambda truth, d: truth * ((d - 1) / d), {}),
    ("werner", "bob-scaled"): (_werner_bob_scaled, lambda truth, d: truth * ((d - 1) / d), {}),
    ("epr1bit", "bob-reads-l0"): (_bob_reads_l0, lambda truth, d: (truth + 1 / 4) / 2, {}),
    ("hirsch", "noise-flipped"): (_noise_flipped, _table_on_rho_g_flipped("hirsch"), {}),
    # the lift's POVMs drawn at rng_seed 29 show the defect at n = 1133, those
    # of the default seed 7 only at n = 29214
    ("povm-lift", "noise-flipped"): (_noise_flipped, _table_on_rho_g_flipped("povm-lift", rng_seed=29), {"rng_seed": 29}),
}


def test_defects_cover_every_model():
    assert {model for model, _ in _DEFECTS} == set(lhv.MODELS)


@pytest.mark.parametrize("model, defect", sorted(_DEFECTS))
def test_planted_defect_fails_the_gate(model, defect, monkeypatch):
    assert model in lhv.MODELS
    patch, expected, inputs = _DEFECTS[model, defect]
    truth = _run(model, 100, **inputs)[2]
    moved = expected(truth, 2)
    # at least 1000 samples, so that no cell of the sound run is likely empty:
    # the hirsch defect shows at n = 22, where a cell of p = 0.02 reads 0 +- 0
    n = max(_power_n(truth, moved), 1_000)
    assert n <= 2_000  # keeps the control cheap
    _, table, oracle, _ = _run(model, n, **inputs)
    assert table.max_sigma(oracle) <= 5  # the sound model passes at this n
    patch(monkeypatch)
    _, table, oracle, _ = _run(model, n, **inputs)
    assert np.array_equal(oracle, truth)
    assert table.max_sigma(moved) <= 5  # the defect moved the table as expected
    assert table.max_sigma(oracle) > 5


def _threshold_shifted(monkeypatch):
    """Alice's threshold at 1/(d+1) in place of 1/d. Her leftover weight is
    still spread by x_k / d, so every response stays normalised and only the
    table moves."""
    real = lhv._barrett_responses

    def wrong(u, xw, v, yw, d):
        _, pb = real(u, xw, v, yw, d)
        pa = u * xw[:, None] * (u >= 1.0 / (d + 1))
        pa += (1.0 - pa.sum(axis=0)) * (xw / d)[:, None]
        return pa, pb

    monkeypatch.setattr(lhv, "_barrett_responses", wrong)


# Each planted defect fails its criterion of `reproduce` at seed 0 and the
# stated n, where the sound code passes; GD's flipped sign fails C05 at
# n = 3000 (test_planted_gd_defect_fails_through_the_stacked_path). The
# threshold shift is not in _DEFECTS: its defective table has no closed
# form, and C13 reads 6.43 sigma on it only at n = 2e5 (5.01 at 1e5), far
# above the n <= 2000 that test_planted_defect_fails_the_gate keeps.
# Alice's argmax fails C03 but passes C12: her row is still one-hot, so
# every response stays normalised and only the table moves. The C07 and C08
# defects move a rate alone: at n = 3000 C07's table reads 2.62 sigma with
# or without the cut, and C08's 3.30 sigma while its fallback rate reads
# 1.02 sigma off 1/2, and 31.00 with the defect. Bob's scaling reads 14.51
# sigma in C04, 0.20 on the sound code.
_CRITERION_DEFECTS = {
    "bob-over-d-c12": (_bob_over_d, acceptance.criterion_12, 300),
    "bob-over-d-c13": (_bob_over_d, acceptance.criterion_13, 300),
    "werner-bob-scaled-c12": (_werner_bob_scaled, acceptance.criterion_12, 300),
    "werner-bob-scaled-c03": (_werner_bob_scaled, acceptance.criterion_03, 300),
    "werner-alice-argmax-c03": (_alice_argmax, acceptance.criterion_03, 300),
    "threshold-shifted-c13": (_threshold_shifted, acceptance.criterion_13, 200_000),
    "werner-bob-scaled-c04": (_werner_bob_scaled, acceptance.criterion_04, 3000),
    "acceptance-cut-c07": (_acceptance_cut, acceptance.criterion_07, 3000),
    "fallback-on-equal-picks-c08": (_fallback_on_equal_picks, acceptance.criterion_08, 3000),
}


@pytest.mark.parametrize("case", sorted(_CRITERION_DEFECTS))
def test_planted_defect_fails_its_criterion(case, monkeypatch):
    patch, criterion, n = _CRITERION_DEFECTS[case]
    assert criterion(0, n).passed
    patch(monkeypatch)
    assert not criterion(0, n).passed


@pytest.mark.parametrize("case", ["acceptance-cut-c07", "fallback-on-equal-picks-c08"])
def test_rate_defect_leaves_the_table(case, monkeypatch):
    """The detail's first figure, the table's worst deviation, is the sound
    code's: the gate that fails is the rate's."""
    patch, criterion, n = _CRITERION_DEFECTS[case]
    table = criterion(0, n).detail.split(";")[0]
    patch(monkeypatch)
    assert criterion(0, n).detail.split(";")[0] == table


@pytest.mark.parametrize("model", sorted(lhv.MODELS))
def test_c12_sees_one_ulp_at_four_workers(model, monkeypatch):
    """C12 runs every registry entry at one and four workers: moving one cell
    of one model's four-worker table by an ulp breaks its determinism."""
    real = lhv.MODELS[model]

    @functools.wraps(real)
    def moved(*args, workers=None, **kwargs):
        res, table, oracle, extra = real(*args, workers=workers, **kwargs)
        if workers == 4:
            means = table.means.copy()
            means.flat[0] = np.nextafter(means.flat[0], np.inf)
            table = dataclasses.replace(table, means=means)
        return res, table, oracle, extra

    assert acceptance.criterion_12(0, 3000).detail.startswith("determinism ok")
    monkeypatch.setitem(lhv.MODELS, model, moved)
    result = acceptance.criterion_12(0, 3000)
    assert not result.passed
    assert result.detail.startswith("determinism BROKEN")


def _leaves(result):
    """Every array and scalar of a simulator result, or of each result of a
    list of them, in a fixed order."""
    if isinstance(result, list):
        return [x for r in result for x in _leaves(r)]
    if dataclasses.is_dataclass(result):
        return [x for f in dataclasses.fields(result) for x in _leaves(getattr(result, f.name))]
    return [np.asarray(result)]


def _stacks(gen: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k random direction pairs as two (k, 3) stacks."""
    xs, ys = gen.standard_normal((2, k, 3))
    return xs / np.linalg.norm(xs, axis=1)[:, None], ys / np.linalg.norm(ys, axis=1)[:, None]


def _simulators():
    gen = np.random.default_rng(2024)
    x, y = gen.standard_normal((2, 3))
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    basis = haar_unitary(3, gen)
    coarse = Povm([projector(basis[:, 0]) + projector(basis[:, 1]), projector(basis[:, 2])], [0, 1])
    fine = random_projective(3, gen)
    ma, mb = random_povm(3, 3, gen), random_povm(4, 3, gen)
    pa, pb = random_povm(3, 2, gen), random_povm(3, 2, gen)
    sigma = projector(basis_ket(2, 0))
    pa8, pb8 = random_projective(8, gen), random_projective(8, gen)
    xs, ys = _stacks(gen, 3)
    # case: (model, run); the simplex integral is C04's lemma, not a model
    return {
        "werner": ("werner", lambda n, w: lhv.simulate_werner(3, coarse, fine, n, 1, workers=w)),
        "simplex": ("simplex", lambda n, w: lhv.simplex_integral_mc(3, 1, fine, n, 2, workers=w)),
        "epr1bit": ("epr1bit", lambda n, w: lhv.simulate_epr_one_bit(x, y, n, 3, workers=w)),
        "gd": ("gd", lambda n, w: lhv.simulate_gd_w2x2(x, y, n, 4, workers=w)),
        # three direction pairs on one stream, as C05 and C06 run theirs
        "epr1bit_stack": ("epr1bit", lambda n, w: lhv.simulate_epr_one_bit(xs, ys, n, 3, workers=w)),
        "gd_stack": ("gd", lambda n, w: lhv.simulate_gd_w2x2(xs, ys, n, 4, workers=w)),
        "hirsch": ("hirsch", lambda n, w: lhv.simulate_hirsch_projective(0.3, x, y, n, 5, workers=w)),
        "povm_lift": (
            "povm-lift",
            lambda n, w: lhv.simulate_povm_lift(0.4, sigma, sigma, pa, pb, n, 6, workers=w),
        ),
        # three POVM pairs on one stream, as C08 runs its five
        "povm_lift_stack": (
            "povm-lift",
            lambda n, w: lhv.simulate_povm_lift(0.4, sigma, sigma, [pa, pb, pa], [pb, pa, pa], n, 6, workers=w),
        ),
        "barrett": ("barrett", lambda n, w: lhv.simulate_barrett(3, ma, mb, n, 7, workers=w)),
        # d=8: blocks of the narrowest width, _MIN_BLOCK samples, as at large d
        "werner_d8": ("werner", lambda n, w: lhv.simulate_werner(8, pa8, pb8, n, 8, workers=w)),
        "barrett_d8": ("barrett", lambda n, w: lhv.simulate_barrett(8, pa8, pb8, n, 9, workers=w)),
    }


def test_worker_cases_cover_every_model():
    assert {model for model, _ in _simulators().values()} == set(lhv.MODELS) | {"simplex"}


@pytest.mark.parametrize("model", sorted(_simulators()))
def test_every_simulator_identical_across_workers(model):
    n = 3 * mc.BATCH_SIZE + 1234  # three full batches and a partial one
    run = _simulators()[model][1]
    one = _leaves(run(n, 1))
    for workers in (2, None):  # None: one worker per usable core
        other = _leaves(run(n, workers))
        assert len(one) == len(other)
        for a, b in zip(one, other):
            assert np.array_equal(a, b)


# -- stacked direction pairs: one stream of choice-rule draws ---------------
_CHOICE_MODELS = {"gd": lhv.simulate_gd_w2x2, "epr1bit": lhv.simulate_epr_one_bit}


@pytest.mark.parametrize("model", sorted(_CHOICE_MODELS))
def test_stacked_row_equals_the_single_call(model, rng):
    simulate = _CHOICE_MODELS[model]
    xs, ys = _stacks(rng, 4)
    xs[0], ys[0] = _X, _Y
    n = 3 * mc.BATCH_SIZE + 1234
    stacked = simulate(xs, ys, n, 8)
    assert isinstance(stacked, list) and len(stacked) == 4
    for i, res in enumerate(stacked):
        single = simulate(xs[i], ys[i], n, 8)
        assert type(res) is type(single)
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(res), _leaves(single), strict=True))
    # the trial returns the single trial's tuple for each row
    trial = lhv.MODELS[model]
    for row, (x, y) in zip(trial(xs, ys, 5000, 9), zip(xs, ys)):
        res, table, oracle, extra = row
        one = trial(x, y, 5000, 9)
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(res), _leaves(one[0]), strict=True))
        assert table is res.table and np.array_equal(oracle, one[2]) and extra == one[3]


_BAD_STACKS = {
    "unequal-lengths": (np.array([_X, _Y]), np.array([_Y])),
    "non-unit-row": (np.array([_X, 2 * _Y]), np.array([_Y, _X])),
    "nan-row": (np.array([_X, [np.nan, 0.0, 1.0]]), np.array([_Y, _X])),
    "empty": (np.empty((0, 3)), np.empty((0, 3))),
    "single-and-stack": (_X, np.array([_Y])),
    "rows-of-two": (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
}


@pytest.mark.parametrize("case", sorted(_BAD_STACKS))
@pytest.mark.parametrize("model", sorted(_CHOICE_MODELS))
def test_bad_stacks_are_rejected_before_sampling(model, case, monkeypatch):
    monkeypatch.setattr(lhv, "run_batched", _no_sampling)
    with pytest.raises(ValueError, match="direction"):
        _CHOICE_MODELS[model](*_BAD_STACKS[case], 1000, 0)


def test_planted_gd_defect_fails_through_the_stacked_path(monkeypatch):
    """C05 runs its ten pairs as one stack: Alice's flipped sign fails every
    pair of a stacked trial at the power n, and C05 itself."""
    patch, expected, _ = _DEFECTS["gd", "alice-sign-flipped"]
    x, y = np.array([_X, _Y, _X]), np.array([_Y, _X, -_Y])
    truth = [oracle for _, _, oracle, _ in lhv.gd_trial(x, y, 100, 11)]
    n = max(_power_n(t, expected(t, 2)) for t in truth)
    assert n <= 2_000
    assert all(table.max_sigma(oracle) <= 5 for _, table, oracle, _ in lhv.gd_trial(x, y, n, 11))
    assert acceptance.criterion_05(0, 3000).passed
    patch(monkeypatch)
    for (_, table, oracle, _), t in zip(lhv.gd_trial(x, y, n, 11), truth, strict=True):
        assert np.array_equal(oracle, t)
        assert table.max_sigma(expected(t, 2)) <= 5
        assert table.max_sigma(oracle) > 5
    assert not acceptance.criterion_05(0, 3000).passed


# -- stacked POVM pairs of the lift: one stream of draws ---------------------


def _lift_pairs(gen: np.random.Generator) -> tuple[list[Povm], list[Povm]]:
    """Three POVM pairs on a qubit with three or four outcomes, one of them
    projective, so that the pairs' refined and coarse outcome counts differ."""
    pa = [random_povm(3, 2, gen), obs_from_bloch(unit3(gen)), random_povm(4, 2, gen)]
    pb = [random_povm(4, 2, gen), random_povm(3, 2, gen), obs_from_bloch(unit3(gen))]
    return pa, pb


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [1, mc.BATCH_SIZE + 3, 100_000])
def test_stacked_lift_pair_equals_its_single_run(n, workers):
    pa, pb = _lift_pairs(np.random.default_rng(41))
    sigma_a, sigma_b = projector(basis_ket(2, 0)), np.array([[0.3, 0.2j], [-0.2j, 0.7]])
    stacked = lhv.simulate_povm_lift(0.4, sigma_a, sigma_b, pa, pb, n, 12, workers=workers)
    assert isinstance(stacked, list) and len(stacked) == 3
    for res, a, b in zip(stacked, pa, pb, strict=True):
        single = lhv.simulate_povm_lift(0.4, sigma_a, sigma_b, a, b, n, 12, workers=workers)
        assert type(res) is type(single)
        assert all(np.array_equal(x, y) for x, y in zip(_leaves(res), _leaves(single), strict=True))


def test_lift_trial_runs_its_pairs_as_one_stack():
    """The trial draws its pairs in turn from the generator: its first pair
    is the single trial's, bit for bit, and every row is that pair's single
    trial tuple."""
    rows = lhv.povm_lift_trial(0.4, np.random.default_rng(8), 5000, 3, pairs=3)
    one = lhv.povm_lift_trial(0.4, np.random.default_rng(8), 5000, 3)
    assert isinstance(rows, list) and len(rows) == 3
    res, table, oracle, extra = rows[0]
    assert all(np.array_equal(x, y) for x, y in zip(_leaves(res), _leaves(one[0]), strict=True))
    assert table is res.table and np.array_equal(oracle, one[2]) and extra == one[3]


def _bad_lift_stacks():
    gen = np.random.default_rng(42)
    pa, pb = _lift_pairs(gen)
    qutrit = random_povm(3, 3, gen)
    return {
        "unequal-lengths": (pa, pb[:2]),
        "empty": ([], []),
        "single-and-stack": (pa[0], pb[:1]),
        "wrong-dimension": (pa, [*pb[:2], qutrit]),
        "not-a-povm": ([pa[0], "povm"], pb[:2]),
    }


@pytest.mark.parametrize("case", sorted(_bad_lift_stacks()))
def test_bad_lift_stacks_are_rejected_before_sampling(case, monkeypatch):
    monkeypatch.setattr(lhv, "run_batched", _no_sampling)
    sigma = projector(basis_ket(2, 0))
    with pytest.raises(ValueError, match="POVMs must"):
        lhv.simulate_povm_lift(0.4, sigma, sigma, *_bad_lift_stacks()[case], 1000, 0)


# -- _stack: the one front end for a pair or a stack of pairs ----------------


def _is_int(v) -> bool:
    return type(v) is int


@pytest.mark.parametrize(
    "a, b",
    [(1, [2]), ([1], 2), ([], []), ((), ()), ([1, 2], [3]), ((1,), [2, 3]), ([1, "2"], [3, 4]), ("12", "34"), (None, None)],
    ids=["single-and-stack", "stack-and-single", "empty-lists", "empty-tuples", "unequal", "unequal-tuple-and-list",
         "foreign-item", "strings", "nones"],
)
def test_stack_rejects_mixed_empty_unequal_and_foreign_pairs(a, b):
    with pytest.raises(ValueError, match=r"^ints or equal-length, non-empty stacks of them$"):
        lhv._stack(a, b, _is_int, "ints")


def test_stack_unpacks_one_result_or_the_list():
    xs, ys, unpack = lhv._stack(1, 2, _is_int, "ints")
    assert (xs, ys) == ([1], [2]) and unpack(["r"]) == "r"
    for a, b in (([1], [2]), ((1, 2), [3, 4]), (np.array([1, 2]), (3, 4))):
        xs, ys, unpack = lhv._stack(a, b, lambda v: isinstance(v, (int, np.integer)), "ints")
        assert xs is a and ys is b and unpack(["r"] * len(a)) == ["r"] * len(a)


_ODD_DIRECTIONS = {
    "0-d": (np.array(1.0), np.array(1.0)),
    "3-d": (np.array([[_X]]), np.array([[_Y]])),
    "pair-of-two-components": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "stack-against-3-d": (np.array([_X]), np.array([[_Y]])),
}


@pytest.mark.parametrize("case", sorted({**_BAD_STACKS, **_ODD_DIRECTIONS}))
@pytest.mark.parametrize("model", sorted(_CHOICE_MODELS))
def test_simulators_and_trials_reject_odd_directions_before_sampling(model, case, monkeypatch):
    monkeypatch.setattr(lhv, "run_batched", _no_sampling)
    for run in (_CHOICE_MODELS[model], lhv.MODELS[model]):
        with pytest.raises(ValueError, match="direction"):
            run(*{**_BAD_STACKS, **_ODD_DIRECTIONS}[case], 1000, 0)


@pytest.mark.parametrize("x, y", [(np.array([_X]), np.array([_Y])), (np.array([_X, _Y]), np.array([_Y, _X]))])
def test_hirsch_trial_rejects_stacks_before_sampling(x, y, monkeypatch):
    """Its simulator runs one pair."""
    monkeypatch.setattr(lhv, "run_batched", _no_sampling)
    with pytest.raises(ValueError, match="direction"):
        lhv.hirsch_trial(0.3, x, y, 1000, 0)


def test_hirsch_trial_is_its_single_run():
    res, table, oracle, extra = lhv.hirsch_trial(np.float64(0.3), _X, _Y, 5000, 4)
    one = lhv.simulate_hirsch_projective(0.3, _X, _Y, 5000, 4)
    assert all(np.array_equal(a, b) for a, b in zip(_leaves(res), _leaves(one), strict=True))
    assert table is res.table
    assert np.array_equal(oracle, born_table(states.rho_g(0.3), obs_from_bloch(_X).elements, obs_from_bloch(_Y).elements))
    assert extra == {"E_A": one.e_a.mean, "E_A_target": (1 - 0.3) * _X[2], "accept_rate": one.accept_rate.mean}


def test_tuples_of_povms_run_as_stacks():
    pa, pb = _lift_pairs(np.random.default_rng(43))
    sigma = projector(basis_ket(2, 0))
    as_lists = lhv.simulate_povm_lift(0.4, sigma, sigma, pa, pb, 5000, 12)
    as_tuples = lhv.simulate_povm_lift(0.4, sigma, sigma, tuple(pa), tuple(pb), 5000, 12)
    assert isinstance(as_tuples, list) and len(as_tuples) == 3
    assert all(np.array_equal(a, b) for a, b in zip(_leaves(as_lists), _leaves(as_tuples), strict=True))


def test_picks_count_the_weights_at_or_below_each_uniform():
    """The lift's outcome of a distribution is the count of its inner
    cumulative weights <= u, the rule of the stream test's reference; here
    with a repeated weight, an empty distribution, a non-monotone one and
    uniforms equal to, or one ulp either side of, a weight."""
    gen = np.random.default_rng(3)
    cdfs = [np.array([0.2, 0.5, 0.5]), np.array([]), np.array([0.5, np.nextafter(0.3, 0), 0.3, 0.9]), np.cumsum(gen.random(6))[:-1] / 3]
    weights = np.concatenate(cdfs)
    u = np.concatenate([gen.random(5000), weights, np.nextafter(weights, 0), np.nextafter(weights, 1), [0.0]])
    place, tables = lhv._picks(cdfs)
    at = place(u)
    assert at.dtype == np.uint8
    for c, table in zip(cdfs, tables, strict=True):
        assert np.array_equal(table[at], (c[:, None] <= u).sum(axis=0))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16, 24])
def test_argmin_rows_is_argmin_on_tied_columns(d):
    """Both rules of _argmin_rows, the strict scan up to _SCAN_ROWS rows and
    the matching above, against np.argmin(axis=0) over one block: ties go
    to the lowest row, and a column that holds a NaN gets row 0."""
    gen = np.random.default_rng(d)
    m = lhv._block_width(4 * d)
    u = gen.random((d, m))
    for _ in range(3):  # a second row at the column minimum
        cols = gen.random(m) < 0.3
        u[gen.integers(0, d), cols] = u.min(axis=0)[cols]
    u[:, gen.random(m) < 0.05] = 0.25  # every row tied
    assert np.array_equal(lhv._argmin_rows(u), np.argmin(u, axis=0))
    nan_cols = np.flatnonzero(gen.random(m) < 0.05)
    u[gen.integers(0, d, len(nan_cols)), nan_cols] = np.nan
    expected = np.argmin(u, axis=0)
    expected[nan_cols] = 0
    assert np.array_equal(lhv._argmin_rows(u), expected)


def test_numpy_float_q_keys_the_same_stream():
    """The stream label holds repr(q), so q is made a Python float first."""
    gen = np.random.default_rng(5)
    sigma = projector(basis_ket(2, 0))
    pa, pb = random_povm(3, 2, gen), random_povm(3, 2, gen)
    runs = [
        lambda q: lhv.simulate_hirsch_projective(q, _X, _Y, 2000, 1),
        lambda q: lhv.simulate_povm_lift(q, sigma, sigma, pa, pb, 2000, 1),
    ]
    for run in runs:
        plain, numpy_q = _leaves(run(0.4)), _leaves(run(np.float64(0.4)))
        assert len(plain) == len(numpy_q)
        assert all(np.array_equal(a, b) for a, b in zip(plain, numpy_q))


def test_numpy_integer_d_keys_the_same_stream():
    """The stream label holds d, which a numpy integer prints as a plain int."""
    gen = np.random.default_rng(6)
    pa, pb = random_projective(3, gen), random_projective(3, gen)
    runs = [
        lambda d: lhv.simulate_werner(d, pa, pb, 2000, 1),
        lambda d: lhv.simulate_barrett(d, pa, pb, 2000, 1),
        lambda d: lhv.simplex_integral_mc(d, 0, pa, 2000, 1),
    ]
    for run in runs:
        plain, numpy_d = _leaves(run(3)), _leaves(run(np.int64(3)))
        assert len(plain) == len(numpy_d)
        assert all(np.array_equal(a, b) for a, b in zip(plain, numpy_d))


@pytest.mark.parametrize("model", ["werner", "simplex", "barrett"])
def test_overlap_kernel_blocks_only_move_rounding(model, monkeypatch):
    """Column blocks of the real width against one block per batch, over a
    full batch and a partial one that ends in a partial block."""
    n = mc.BATCH_SIZE + 3 * 4096 + 77
    run = _simulators()[model][1]
    blocked = _leaves(run(n, 1))
    monkeypatch.setattr(lhv, "_block_width", lambda rows: mc.BATCH_SIZE)
    whole = _leaves(run(n, 1))
    assert len(blocked) == len(whole)
    for a, b in zip(blocked, whole):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("model", ["werner", "barrett"])
@pytest.mark.parametrize("d", [2, 3, 8, 24])
def test_overlap_kernel_draws_do_not_depend_on_the_width(model, d, monkeypatch):
    """At block widths 128, 2048 and the default the kernel sees, bit for
    bit, the samples of one whole-batch draw from the same batch streams,
    over one sample, partial batches that end in a partial block, and two
    batches."""
    gen = np.random.default_rng(70 + d)
    pa, pb = random_projective(d, gen), random_projective(d, gen)
    simulate = {"werner": lhv.simulate_werner, "barrett": lhv.simulate_barrett}[model]
    default_width, overlaps, seen = lhv._block_width, lhv._overlaps, []

    def recording(w, lam):
        seen.append(lam.copy())
        return overlaps(w, lam)

    monkeypatch.setattr(lhv, "_overlaps", recording)
    for n in (1, 2047, 2049, mc.BATCH_SIZE + 3):
        counts = [min(mc.BATCH_SIZE, n - s) for s in range(0, n, mc.BATCH_SIZE)]
        rngs = [mc.batch_rng(5, f"{model}:d={d}", j) for j in range(len(counts))]
        whole = np.concatenate([lhv.sample_sphere_cd(r, d, c) for r, c in zip(rngs, counts)])
        for width in (128, 2048, None):
            monkeypatch.setattr(lhv, "_block_width", default_width if width is None else lambda rows, w=width: w)
            seen.clear()
            simulate(d, pa, pb, n, 5, workers=1)
            assert np.array_equal(np.concatenate(seen), whole)


def test_overlap_kernel_never_holds_a_batch_of_draws():
    """At d = 24 one batch of draws is 12.6 MB of normals; the kernel holds
    one block of them, and a whole run peaks well below one batch."""
    d = 24
    gen = np.random.default_rng(24)
    pa, pb = random_projective(d, gen), random_projective(d, gen)
    tracemalloc.start()
    try:
        lhv.simulate_werner(d, pa, pb, mc.BATCH_SIZE, 0, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mc.BATCH_SIZE * d * 2 * 8 / 2


@pytest.mark.parametrize("d", [2, 3, 8, 24])
def test_overlap_blocks_a_caller_keeps_stay_intact(d):
    """Each block is an array of its own: kept past the next blocks, the
    blocks of two refined measurements' kets, the last one partial, equal
    the overlaps of one whole draw from the same stream, bit for bit on the
    draw's own block slices. The GEMM of the whole draw rounds some columns
    differently from d = 3 on, so against it they agree within an ulp."""
    gen = np.random.default_rng(90 + d)
    kets = np.concatenate([haar_unitary(d, gen), haar_unitary(d, gen)])
    rows, width = lhv._overlap_rows(kets), lhv._block_width(4 * d)
    m = 2 * width + 77
    kept = list(lhv._overlap_blocks(np.random.default_rng(d), d, m, kets))
    assert [u.shape for u in kept] == [(2 * d, width), (2 * d, width), (2 * d, 77)]
    lam = lhv.sample_sphere_cd(np.random.default_rng(d), d, m)
    for s, u in zip(range(0, m, width), kept):
        assert np.array_equal(u, lhv._overlaps(rows, lam[s : s + width]))
    np.testing.assert_allclose(np.concatenate(kept, axis=1), lhv._overlaps(rows, lam), rtol=0, atol=1e-15)


def test_block_width_fits_the_budget():
    assert lhv._BLOCK_BYTES == 1 << 19 and lhv._MIN_BLOCK == 2048
    for rows in range(1, 400):
        w = lhv._block_width(rows)
        assert w > 0 and w & (w - 1) == 0
        assert lhv._MIN_BLOCK <= w <= mc.BATCH_SIZE
        # the widest such power of two whose (rows, w) floats fit, unless at the floor
        assert 8 * rows * w <= lhv._BLOCK_BYTES or w == lhv._MIN_BLOCK
        assert 16 * rows * w > lhv._BLOCK_BYTES or w == mc.BATCH_SIZE
    # the overlap rows of two rank-1 measurements at d = 2, 3, 8 and 24, and of one at d = 3
    assert [lhv._block_width(r) for r in (8, 12, 6, 32, 96)] == [8192, 4096, 8192, 2048, 2048]


class TestSlicedProducts:
    """The overlap kernel's real GEMM against a test-side product per ket,
    squared as re^2 + im^2; m covers less than, exactly and more than one
    block."""

    @pytest.mark.parametrize("d", [2, 3, 8, 24])
    @pytest.mark.parametrize("m", [1000, 2047, 2048, 100_000])
    def test_match_plain_products(self, d, m):
        gen = np.random.default_rng(1000 * d + m)
        kets = np.concatenate([haar_unitary(d, gen), haar_unitary(d, gen)])
        lam = lhv.sample_sphere_cd(gen, d, m)
        rows = lhv._overlap_rows(kets)
        u = lhv._overlaps(rows, lam)
        assert u.shape == (2 * d, m)
        assert np.max(np.abs(u - np.abs(kets.conj() @ lam.T) ** 2)) <= 1e-12


class TestStreamConsumption:
    """One batch of each rewritten kernel against a test-side recomputation
    from the public samplers on the same batch stream (mc.batch_rng: SFC64
    seeded through SeedSequence from four fixed-width words) and the scalar
    reference responses. The overlap kernels run with narrow column blocks,
    so each batch spans several blocks and ends in a partial one."""

    BLOCK = 128

    def test_r3_sampler_matches_norm_formula(self):
        """The (n, 3) normals of one draw, normalised, as contiguous (3, n) rows."""
        for seed in (5, 6, 7):
            for n in (1, 7, 50_000):
                z = np.random.default_rng(seed).standard_normal((n, 3))
                expected = z / np.linalg.norm(z, axis=-1, keepdims=True)
                got = lhv.sample_sphere_r3(np.random.default_rng(seed), n)
                assert got.flags.c_contiguous and np.array_equal(got, expected.T)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dot_rows_matches_einsum(self, seed):
        """The explicit three-term dot on (3, m) rows sums in einsum's order
        on the (m, 3) points, bit for bit, for one vector, for row-wise input
        and for a sum of sphere points."""
        gen = np.random.default_rng(seed)
        l0, l1 = lhv.sample_sphere_r3(gen, 50_000), lhv.sample_sphere_r3(gen, 50_000)
        x = lhv.sample_sphere_r3(gen, 1)[:, 0]
        for v, w in ((l0, x), (l0, l1), (l0 + l1, x), (gen.standard_normal((999, 3)).T, gen.standard_normal(3))):
            points = np.ascontiguousarray(v.T)
            others = np.broadcast_to(w if w.ndim == 1 else np.ascontiguousarray(w.T), points.shape)
            assert np.array_equal(lhv._dot_rows(v, w), np.einsum("ij,ij->i", points, others))

    def test_cd_sampler_matches_complex_formula(self):
        for d in (1, 2, 3, 24):
            for n in (1, 5_000):
                z = np.random.default_rng(d).standard_normal((n, d, 2))
                lam = z[..., 0] + 1j * z[..., 1]
                expected = lam / np.linalg.norm(lam, axis=-1, keepdims=True)
                got = lhv.sample_sphere_cd(np.random.default_rng(d), d, n)
                assert got.shape == expected.shape
                assert np.max(np.abs(got - expected)) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_werner_and_simplex(self, d, monkeypatch):
        monkeypatch.setattr(lhv, "_block_width", lambda rows: self.BLOCK)
        gen = np.random.default_rng(40 + d)
        pa, pb = random_projective(d, gen), random_projective(d, gen)
        n, seed = 700, 9
        ref_a, ref_b = WernerRef(pa), WernerRef(pb)
        lam = lhv.sample_sphere_cd(mc.batch_rng(seed, f"werner:d={d}", 0), d, n)
        resp_a = np.array([[ref_a.a(a, v) for a in range(d)] for v in lam])
        resp_b = np.array([[ref_b.b(b, v) for b in range(d)] for v in lam])
        ref = JointTable.from_sums(resp_a.T @ resp_b, resp_a.T @ resp_b**2, n, seed, pa.labels, pb.labels)
        table = lhv.simulate_werner(d, pa, pb, n, seed)
        assert np.max(np.abs(table.means - ref.means)) <= 1e-12
        assert np.max(np.abs(table.stderrs - ref.stderrs)) <= 1e-12

        a = d - 1
        lam = lhv.sample_sphere_cd(mc.batch_rng(seed, f"simplex:d={d}:a={a}", 0), d, n)
        c = np.array([ref_a.a(a, v) * ref_a.b(a, v) for v in lam])
        ref = McEstimate.from_sums(c.sum(), (c * c).sum(), n, seed)
        est = lhv.simplex_integral_mc(d, a, pa, n, seed)
        assert abs(est.mean - ref.mean) <= 1e-12 and abs(est.stderr - ref.stderr) <= 1e-12

    def test_werner_rank2_projector(self, monkeypatch):
        """Alice's reference response takes the argmin over the refined
        rank-1 kets and maps the winner back, as the kernel does; here P_0
        has rank 2 and P_1 rank 1, where the coarse argmin would disagree."""
        monkeypatch.setattr(lhv, "_block_width", lambda rows: self.BLOCK)
        gen = np.random.default_rng(61)
        basis = haar_unitary(3, gen)
        pa = Povm([projector(basis[:, 0]) + projector(basis[:, 1]), projector(basis[:, 2])], [0, 1])
        pb = random_projective(3, gen)
        n, seed = 800, 13
        ref_a, ref_b = WernerRef(pa), WernerRef(pb)
        lam = lhv.sample_sphere_cd(mc.batch_rng(seed, "werner:d=3", 0), 3, n)
        resp_a = np.array([[ref_a.a(a, v) for a in range(2)] for v in lam])
        assert np.array_equal(resp_a.sum(axis=1), np.ones(n))
        resp_b = np.array([[ref_b.b(b, v) for b in range(3)] for v in lam])
        ref = JointTable.from_sums(resp_a.T @ resp_b, resp_a.T @ resp_b**2, n, seed, pa.labels, pb.labels)
        table = lhv.simulate_werner(3, pa, pb, n, seed)
        assert np.max(np.abs(table.means - ref.means)) <= 1e-12
        assert np.max(np.abs(table.stderrs - ref.stderrs)) <= 1e-12
        # the rank-2 outcome holds two of the three refined kets
        assert abs(table.means.sum(axis=1)[0] - 2 / 3) < 0.08

    @pytest.mark.parametrize("d", [2, 3])
    def test_barrett(self, d, monkeypatch):
        monkeypatch.setattr(lhv, "_block_width", lambda rows: self.BLOCK)
        gen = np.random.default_rng(50 + d)
        ma, mb = random_povm(3, d, gen), random_povm(2, d, gen)
        ref_a, bm_a = refined_elements(ma)
        ref_b, bm_b = refined_elements(mb)
        resp_a, resp_b = BarrettRef(ref_a), BarrettRef(ref_b)
        n, seed = 300, 10
        lam = lhv.sample_sphere_cd(mc.batch_rng(seed, f"barrett:d={d}", 0), d, n)
        pa = np.zeros((n, len(ma.elements)))
        pb = np.zeros((n, len(mb.elements)))
        for s, v in enumerate(lam):
            for i, a in enumerate(bm_a):
                pa[s, a] += resp_a.a(i, v)
            for j, b in enumerate(bm_b):
                pb[s, b] += resp_b.b(j, v)
        ref = JointTable.from_sums(pa.T @ pb, (pa**2).T @ pb**2, n, seed, ma.labels, mb.labels)
        table = lhv.simulate_barrett(d, ma, mb, n, seed)
        assert np.max(np.abs(table.means - ref.means)) <= 1e-12
        assert np.max(np.abs(table.stderrs - ref.stderrs)) <= 1e-12

    def _choice_pairs(self, label, n, seed, x):
        rng = mc.batch_rng(seed, label, 0)
        l0 = lhv.sample_sphere_r3(rng, n).T  # the (n, 3) points of the (3, n) rows
        l1 = lhv.sample_sphere_r3(rng, n).T
        ls = np.array([gd_choice(p, q, x) for p, q in zip(l0, l1)])
        return l0, l1, ls

    def test_epr_one_bit(self, rng):
        x, y, n, seed = unit3(rng), unit3(rng), 20_000, 11
        _, _, ls = self._choice_pairs("epr1bit", n, seed, x)
        a = np.where(ls @ x >= 0, -1.0, 1.0)
        b = np.where(ls @ y >= 0, 1.0, -1.0)
        cells = np.array([[np.sum((a == sa) & (b == sb)) for sb in (1, -1)] for sa in (1, -1)], dtype=float)
        res = lhv.simulate_epr_one_bit(x, y, n, seed)
        assert res.e_ab == McEstimate.from_sums((a * b).sum(), float(n), n, seed)
        assert res.e_a == McEstimate.from_sums(a.sum(), float(n), n, seed)
        assert res.e_b == McEstimate.from_sums(b.sum(), float(n), n, seed)
        assert np.array_equal(res.table.means, cells / n)

    def test_gd(self, rng):
        x, y, n, seed = unit3(rng), unit3(rng), 20_000, 12
        l0, l1, ls = self._choice_pairs("gd_w2x2", n, seed, x)
        a = np.where(ls @ x >= 0, -1.0, 1.0)
        b = np.where(l0 @ y >= 0, 1.0, -1.0)
        cells = np.array([[np.sum((a == sa) & (b == sb)) for sb in (1, -1)] for sa in (1, -1)], dtype=float)
        res = lhv.simulate_gd_w2x2(x, y, n, seed)
        assert res.e_ab == McEstimate.from_sums((a * b).sum(), float(n), n, seed)
        assert res.e_a == McEstimate.from_sums(a.sum(), float(n), n, seed)
        assert res.e_b == McEstimate.from_sums(b.sum(), float(n), n, seed)
        assert np.array_equal(res.table.means, cells / n)
        assert res.rewrite_mismatches == np.sum(a != np.where((l0 + l1) @ x >= 0, -1.0, 1.0))

    def test_hirsch(self, rng):
        """Draw order: lam, then r, then Alice's accept and noise coins u1, u2."""
        x, y, q, n, seed = unit3(rng), unit3(rng), 0.3, 20_000, 14
        gen = mc.batch_rng(seed, f"hirsch:q={q!r}", 0)
        lam = lhv.sample_sphere_r3(gen, n).T  # the (n, 3) points of the (3, n) rows
        r = gen.random(n)
        u1, u2 = gen.random((2, n))
        alice = [hirsch_alice(q, x, *s) for s in zip(lam, r, u1, u2)]
        a = np.array([1.0 if plus else -1.0 for plus, _ in alice])
        b = np.where(lam @ y >= 0, 1.0, -1.0)
        cells = np.array([[np.sum((a == sa) & (b == sb)) for sb in (1, -1)] for sa in (1, -1)], dtype=float)
        n_acc, n_mix = sum(acc for _, acc in alice), int(np.sum(r < 2 * q))
        res = lhv.simulate_hirsch_projective(q, x, y, n, seed)
        assert np.array_equal(res.table.means, cells / n)
        assert res.e_ab == McEstimate.from_sums((a * b).sum(), float(n), n, seed)
        assert res.e_a == McEstimate.from_sums(a.sum(), float(n), n, seed)
        assert res.e_b == McEstimate.from_sums(b.sum(), float(n), n, seed)
        assert res.accept_rate == McEstimate.from_sums(float(n_acc), float(n_acc), n_mix, seed)

    def test_povm_lift(self, rng):
        """Draw order: lam and r, then Alice's refined pick, her u1 and u2 and
        her step-4 pick, then Bob's refined pick and his step-4 pick. A piece
        w |v><v| is picked with probability w / 2, and in step 4 with
        probability w <v|sigma|v>; its binary test along the Bloch vector of
        |v><v| is Alice's or Bob's half of the mixture model."""
        q, n, seed = 0.4, 10_000, 15
        ma, mb = random_povm(3, 2, rng), random_povm(4, 2, rng)
        sigma_a = projector(basis_ket(2, 0))
        sigma_b = np.array([[0.3, 0.2j], [-0.2j, 0.7]])

        def pieces(povm, sigma):
            back_map, weights, kets = povm_refine(povm)
            bloch = np.array([[np.vdot(v, s @ v).real for s in PAULIS] for v in kets])
            step4 = np.array([w * np.vdot(v, sigma @ v).real for w, v in zip(weights, kets)])
            return back_map, bloch, np.cumsum(weights / 2)[:-1], np.cumsum(step4)[:-1]

        def pick(cdf, u):
            return int(np.searchsorted(cdf, u, side="right"))

        back_a, bloch_a, pick_a, step4_a = pieces(ma, sigma_a)
        back_b, bloch_b, pick_b, step4_b = pieces(mb, sigma_b)
        gen = mc.batch_rng(seed, f"povmlift:q={q!r}", 0)
        lam = lhv.sample_sphere_r3(gen, n).T  # the (n, 3) points of the (3, n) rows
        r = gen.random(n)
        ua = gen.random(n)
        u1, u2 = gen.random((2, n))
        ua4, ub, ub4 = gen.random(n), gen.random(n), gen.random(n)
        cells = np.zeros((len(ma.elements), len(mb.elements)))
        miss_a = miss_b = 0
        for s in range(n):
            i, j = pick(pick_a, ua[s]), pick(pick_b, ub[s])
            hit_a = hirsch_alice(q, bloch_a[i], lam[s], r[s], u1[s], u2[s])[0]
            hit_b = float(np.dot(bloch_b[j], lam[s])) >= 0
            cells[back_a[i if hit_a else pick(step4_a, ua4[s])], back_b[j if hit_b else pick(step4_b, ub4[s])]] += 1
            miss_a, miss_b = miss_a + (not hit_a), miss_b + (not hit_b)
        res = lhv.simulate_povm_lift(q, sigma_a, sigma_b, ma, mb, n, seed)
        assert np.array_equal(res.table.means, cells / n)
        assert res.step4_a == McEstimate.from_sums(float(miss_a), float(miss_a), n, seed)
        assert res.step4_b == McEstimate.from_sums(float(miss_b), float(miss_b), n, seed)
