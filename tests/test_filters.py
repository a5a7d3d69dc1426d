import numpy as np
import pytest

from nonlocal_lab import states
from nonlocal_lab.bell import chsh_value, horodecki_m, optimal_settings
from nonlocal_lab.filters import (
    DEFAULT_EPS_GRID,
    LocalFilter,
    apply_filters,
    hidden_nonlocality_scan,
    hirsch_filters,
    popescu_protocol,
    scan_to_csv,
)
from nonlocal_lab.qmat import basis_ket, projector, tensor
from nonlocal_lab.states import restrict_block, rho_e, rho_g, singlet

rng = np.random.default_rng(4242)


class TestApplyFilters:
    def test_identity_filters(self):
        rho = states.random_density(2, 2, rng)
        out = apply_filters(rho, LocalFilter(np.eye(2), np.eye(2)))
        assert np.isclose(out.success_prob, 1.0, atol=1e-12)
        assert np.max(np.abs(out.post_state.mat - rho.mat)) < 1e-12

    def test_post_state_small_epsilon(self):
        # at eps -> 0 the filtered mixture approaches
        # sqrt(q) singlet + (1 - sqrt(q)) (|01><01| + |10><10|)/2
        q, eps = 0.25, 1e-3
        out = apply_filters(rho_g(q), hirsch_filters(eps, q))
        sq = np.sqrt(q)
        cross = (
            projector(tensor(basis_ket(2, 0), basis_ket(2, 1)))
            + projector(tensor(basis_ket(2, 1), basis_ket(2, 0)))
        ) / 2
        limit = sq * singlet().mat + (1 - sq) * cross
        assert np.max(np.abs(out.post_state.mat - limit)) < 1e-4

    def test_success_probability_closed_form(self):
        # trace of the conjugated mixture: eps^2 + eps^4 (1-q)/(2q)
        q, eps = 0.25, 1e-2
        out = apply_filters(rho_g(q), hirsch_filters(eps, q))
        expected = eps**2 + eps**4 * (1 - q) / (2 * q)
        assert abs(out.success_prob - expected) < 1e-15

    def test_flag_state_filters_to_exact_singlet(self):
        q = 0.3
        out = apply_filters(rho_e(q), LocalFilter(np.diag([1.0, 1.0, 0.0]), np.eye(2)))
        assert abs(out.success_prob - q) < 1e-12
        embedded = states.embed_local(singlet(), 3, 2)
        assert np.max(np.abs(out.post_state.mat - embedded.mat)) < 1e-12
        block = restrict_block(out.post_state, (0, 1), (0, 1))
        assert abs(chsh_value(block, optimal_settings(block)) - 2 * np.sqrt(2)) < 1e-10

    def test_degenerate_outcome_flagged(self):
        rho = states.DensityMatrix(projector(tensor(basis_ket(2, 0), basis_ket(2, 0))), 2, 2)
        kill = LocalFilter(np.diag([0.0, 1.0]), np.eye(2))
        out = apply_filters(rho, kill)
        assert out.post_state is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_filters(rho_e(0.5), LocalFilter(np.eye(2), np.eye(2)))


class TestHirschFilters:
    def test_delta_relation(self):
        f = hirsch_filters(1e-3, 0.25)
        assert np.isclose(f.k_a[0, 0].real, 1e-3)
        assert np.isclose(f.k_b[0, 0].real, 2e-3)  # eps / sqrt(q)

    def test_rescaled_when_delta_exceeds_one(self):
        f = hirsch_filters(0.5, 0.04)  # delta = 2.5 before rescale
        top_a = np.linalg.eigvalsh(f.k_a.conj().T @ f.k_a).max()
        top_b = np.linalg.eigvalsh(f.k_b.conj().T @ f.k_b).max()
        assert top_a <= 1 + 1e-12 and top_b <= 1 + 1e-12

    def test_post_state_invariant_under_joint_rescaling(self):
        q, eps = 0.16, 5e-2
        f = hirsch_filters(eps, q)
        scaled = LocalFilter(0.5 * f.k_a, 0.5 * f.k_b)
        a = apply_filters(rho_g(q), f)
        b = apply_filters(rho_g(q), scaled)
        assert np.max(np.abs(a.post_state.mat - b.post_state.mat)) < 1e-12
        assert not np.isclose(a.success_prob, b.success_prob)

    @pytest.mark.parametrize(
        "epsilon, q, message",
        [("0.1", 0.3, r"epsilon must lie in \(0, inf\), got '0.1'"), (0.1, "0.3", r"q must lie in \(0, 1\], got '0.3'"),
         (None, 0.3, r"epsilon must lie in \(0, inf\), got None"), (0.1, None, r"q must lie in \(0, 1\], got None")],
        ids=["epsilon-str", "q-str", "epsilon-None", "q-None"],
    )
    def test_arguments_that_are_not_real_numbers(self, epsilon, q, message):
        with pytest.raises(ValueError, match=message):
            hirsch_filters(epsilon, q)

    @pytest.mark.parametrize("family", ["rho-g", "rho-g-prime"])
    def test_scan_q_that_is_not_a_real_number(self, family):
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\], got '0.3'"):
            hidden_nonlocality_scan(family, "0.3")

    def test_validation(self):
        with pytest.raises(ValueError):
            hirsch_filters(0.0, 0.5)
        for eps in (np.nan, np.inf):
            with pytest.raises(ValueError, match=rf"epsilon must lie in \(0, inf\), got {eps}"):
                hirsch_filters(eps, 0.5)
        with pytest.raises(ValueError):
            hirsch_filters(1e-3, 0.0)
        with pytest.raises(ValueError):
            LocalFilter(np.diag([2.0, 1.0]), np.eye(2))


class TestPopescu:
    def test_block_matches_closed_form(self):
        """The product returns the closed form; the explicit projection of
        werner_local(d) onto the first two levels gives the same block and
        success probability."""
        for d in range(3, 17):
            res = popescu_protocol(d)
            p = projector(basis_ket(d, 0)) + projector(basis_ket(d, 1))
            outcome = apply_filters(states.werner_local(d), LocalFilter(p, p))
            block = restrict_block(outcome.post_state, (0, 1), (0, 1))
            assert np.max(np.abs(res.w_prime.mat - block.mat)) < 1e-12
            assert abs(res.success_prob - outcome.success_prob) < 1e-12
            c = d / (d + 2)
            assert np.max(np.abs(res.w_prime.mat - (c * np.eye(4) / (2 * d) + c * singlet().mat))) < 1e-12

    def test_chsh_values(self):
        for d, expect_violation in ((3, False), (4, False), (5, True), (8, True)):
            res = popescu_protocol(d)
            assert abs(res.chsh - 2 * np.sqrt(2) * d / (d + 2)) < 1e-10
            assert (res.chsh > 2) == expect_violation

    def test_d5_value(self):
        assert abs(popescu_protocol(5).chsh - 10 * np.sqrt(2) / 7) < 1e-12

    def test_horodecki_consistency(self):
        for d in (3, 6):
            res = popescu_protocol(d)
            assert abs(res.chsh_horodecki - 2 * np.sqrt(res.m_rho)) < 1e-8
            # fixed settings already achieve the optimum for this block state
            assert abs(res.chsh_horodecki - res.chsh) < 1e-8

    def test_large_d_closed_form_path(self):
        res = popescu_protocol(50)
        assert abs(res.chsh - 2 * np.sqrt(2) * 50 / 52) < 1e-10
        assert abs(res.chsh_horodecki - res.chsh) < 1e-8
        assert abs(res.success_prob - 2 * 52 / 50**3) < 1e-15

    def test_success_probability(self):
        assert abs(popescu_protocol(5).success_prob - 14 / 125) < 1e-15

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            popescu_protocol(2)

    def test_rejects_a_non_integer_d(self):
        with pytest.raises(ValueError, match="d must be an integer, got 5.5"):
            popescu_protocol(5.5)

    def test_accepts_a_numpy_integer_d(self):
        res, want = popescu_protocol(np.int64(5)), popescu_protocol(5)
        assert (res.chsh, res.success_prob, res.m_rho) == (want.chsh, want.success_prob, want.m_rho)


class TestScan:
    def test_base_family_converges_to_one_plus_q(self):
        q = 0.25
        rows = hidden_nonlocality_scan("rho_g", q, DEFAULT_EPS_GRID)
        ms = [r.m for r in rows]
        assert all(m2 >= m1 for m1, m2 in zip(ms, ms[1:]))  # grid is ordered eps-descending
        assert abs(rows[-1].m - (1 + q)) < 1e-4
        for r in rows:
            assert (1 + q) - r.m <= 10 * r.epsilon**2
            assert abs(r.chsh_at_optimal - r.chsh_bound) < 1e-8

    def test_lifted_family_converges_to_one_plus_quarter_q(self):
        q = 0.5
        rows = hidden_nonlocality_scan("rho_g_prime", q, [1e-3])
        assert abs(rows[0].m - (1 + q / 4)) < 1e-4
        assert abs(rows[0].chsh_bound - 2 * np.sqrt(1.125)) < 3e-4

    def test_no_singlet_no_violation(self):
        rows = hidden_nonlocality_scan("rho_g", 0.0, [1e-3])
        assert rows[0].chsh_bound <= 2 + 1e-9
        assert 2 - rows[0].chsh_bound < 1e-4

    def test_pre_filter_states_are_unremarkable(self):
        for q in (0.1, 0.3, 0.5):
            assert horodecki_m(rho_g(q)).m_rho <= 1 + 1e-12

    def test_wide_epsilon_correction_bound(self):
        for q in (0.25, 0.5):
            for r in hidden_nonlocality_scan("rho_g", q, [1e-4, 1e-3, 1e-2, 1e-1]):
                assert 0 <= (1 + q) - r.m <= 10 * r.epsilon**2

    def test_csv_format(self):
        rows = hidden_nonlocality_scan("rho-g", 0.25, [1e-2])
        text = scan_to_csv(rows)
        assert text.splitlines()[0] == "epsilon,success_prob,M,chsh_bound,chsh_at_optimal_settings"
        assert len(text.splitlines()) == 2

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            hidden_nonlocality_scan("werner", 0.5, [1e-2])
