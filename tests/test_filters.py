import re

import numpy as np
import pytest

from nonlocal_lab import filters, qmat, states
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

    def test_block_is_the_formula_it_replaced(self):
        """The block is werner2x2(d/(d+2)), which is c I/(2d) + c |Psi-><Psi-|
        with c = d/(d+2)."""
        for d in range(3, 40):
            c = d / (d + 2)
            assert np.max(np.abs(popescu_protocol(d).w_prime.mat - (c * np.eye(4) / (2 * d) + c * singlet().mat))) <= 5e-16

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
    @pytest.mark.parametrize("family", ["rho-g", "rho-g-prime"])
    @pytest.mark.parametrize("q", [0.0, 0.3, 1])
    def test_checks_each_epsilon_and_q_once(self, monkeypatch, family, q):
        """One check per epsilon and one of q, the state's; the rows are those
        of the public hirsch_filters, which checks both again."""
        real, checked = qmat._check_real, []

        def counting(x, *args, **kwargs):
            checked.append(x)
            return real(x, *args, **kwargs)

        expected = []
        for eps in DEFAULT_EPS_GRID:
            out = filters.apply_filters(states.STATES[family](q), filters.hirsch_filters(eps, q if q > 0 else 1.0))
            expected.append((out.success_prob, horodecki_m(out.post_state).m_rho))
        for module in (filters, states):
            monkeypatch.setattr(module, "_check_real", counting)
        rows = hidden_nonlocality_scan(family, q)
        assert checked == [q, *DEFAULT_EPS_GRID]
        assert [(r.success_prob, r.m) for r in rows] == expected

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


class TestLocalFilterShapes:
    """Each K is checked to be a square matrix, or an equal-length stack of
    them, before any eigensolve."""

    @pytest.mark.parametrize(
        "k_a, k_b, message",
        [
            (np.ones(3), np.eye(2), r"k_a must be an array of numbers of shape \(n, n\) or \(k, n, n\), got shape \(3,\)"),
            (np.eye(2), np.ones((2, 3)) / 3, r"k_b must be an array of numbers of shape \(n, n\) or \(k, n, n\), got shape \(2, 3\)"),
            (np.ones((1, 1, 2, 2)), np.eye(2), r"k_a must be an array of numbers of shape \(n, n\) or \(k, n, n\), got shape \(1, 1, 2, 2\)"),
            (1.0, np.eye(2), r"k_a must be an array of numbers of shape \(n, n\) or \(k, n, n\), got shape \(\)"),
            (
                np.array([np.eye(2)] * 3),
                np.array([np.eye(2)] * 2),
                r"k_a and k_b must be one matrix each or equal-length stacks, got shapes \(3, 2, 2\) and \(2, 2, 2\)",
            ),
            (np.array([np.eye(2)] * 3), np.eye(2), r"k_a and k_b must be one matrix each or equal-length stacks, got shapes \(3, 2, 2\) and \(2, 2\)"),
        ],
        ids=["ket", "rectangular", "rank-4", "scalar", "stack-lengths", "stack-and-matrix"],
    )
    def test_rejected_before_any_eigensolve(self, monkeypatch, k_a, k_b, message):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve before the shape check")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        with pytest.raises(ValueError, match="^" + message + "$"):
            LocalFilter(k_a, k_b)

    def test_stack_reports_its_worst_item(self):
        ks = np.array([np.eye(2), 1.5 * np.eye(2), 2 * np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match=r"k_b is not a valid filter: max eigenvalue of K\^dag K is 4\.0"):
            LocalFilter(np.array([np.eye(2)] * 4), ks)


def _row_bytes(row):
    return tuple(float(x).hex() for x in (row.epsilon, row.success_prob, row.m, row.chsh_bound, row.chsh_at_optimal))


class TestScanStack:
    """The scan filters and diagnoses its grid as one stack; each row holds
    the bits of apply_filters and horodecki_m at that epsilon alone."""

    GRIDS = [
        [0.7],
        list(DEFAULT_EPS_GRID),
        # delta > 1 rescales at small q, and a repeated epsilon
        [2.0, 0.9, 0.5, 0.3, 1e-1, 0.3, 1e-2, 1e-3, 1e-4],
    ]
    QS = [0.0, 0.25, 0.5, 1.0, *np.random.default_rng(31).uniform(0, 1, 4)]

    @pytest.mark.parametrize("family", ["rho-g", "rho-g-prime"])
    @pytest.mark.parametrize("grid", GRIDS, ids=["E=1", "E=5", "E=9"])
    def test_rows_equal_one_epsilon_at_a_time(self, family, grid):
        for q in self.QS:
            state = states.STATES[family](q)
            want = []
            for eps in grid:
                out = apply_filters(state, hirsch_filters(eps, q if q > 0 else 1.0))
                res = horodecki_m(out.post_state)
                want.append(tuple(float(x).hex() for x in (eps, out.success_prob, res.m_rho, 2 * np.sqrt(res.m_rho), res.value)))
            got = [_row_bytes(r) for r in hidden_nonlocality_scan(family, q, grid)]
            assert got == want, (family, q)

    def test_stacked_outcomes_and_results_equal_single_calls(self):
        q, grid = 0.04, [2.0, 0.3, 1e-2, 0.3]
        stacked = apply_filters(rho_g(q), hirsch_filters(grid, q))
        assert isinstance(stacked, list) and len(stacked) == len(grid)
        results = horodecki_m([out.post_state for out in stacked])
        for eps, out, res in zip(grid, stacked, results):
            single = apply_filters(rho_g(q), hirsch_filters(eps, q))
            assert out.post_state.mat.tobytes() == single.post_state.mat.tobytes()
            assert float(out.success_prob).hex() == float(single.success_prob).hex()
            alone = horodecki_m(single.post_state)
            assert (res.value, res.m_rho, res.eigen_pair) == (alone.value, alone.m_rho, alone.eigen_pair)
            for name in ("x", "x2", "y", "y2"):
                assert getattr(res.settings, name).tobytes() == getattr(alone.settings, name).tobytes()

    def test_grid_filters_equal_one_epsilon_filters(self):
        grid = [3.0, 0.5, 1e-3]
        f = hirsch_filters(grid, 0.09)  # delta = 10, 5/3 and 1/300
        assert f.k_a.shape == f.k_b.shape == (3, 2, 2)
        for i, eps in enumerate(grid):
            one = hirsch_filters(eps, 0.09)
            assert f.k_a[i].tobytes() == one.k_a.tobytes() and f.k_b[i].tobytes() == one.k_b.tobytes()


class TestScanGrid:
    @pytest.mark.parametrize(
        "grid", [0.01, np.float64(0.01), "0.01", [[0.1, 0.01]], np.ones((2, 2)) / 10], ids=["float", "numpy-float", "str", "nested", "2-D"]
    )
    def test_a_grid_that_is_not_1d(self, grid):
        with pytest.raises(ValueError, match="the epsilon grid must be 1-D, got"):
            hidden_nonlocality_scan("rho_g", 0.3, grid)

    def test_hirsch_filters_take_one_epsilon_or_a_1d_grid(self):
        assert hirsch_filters(0.1, 0.3).k_a.shape == (2, 2) and hirsch_filters([0.1], 0.3).k_a.shape == (1, 2, 2)
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, inf\), got \[0.1, 0.01\]"):
            hirsch_filters([[0.1, 0.01]], 0.3)

    @pytest.mark.parametrize("grid", [[], (), np.array([])], ids=["list", "tuple", "array"])
    @pytest.mark.parametrize("family", ["rho_g", "rho_g_prime"])
    def test_empty_grid(self, family, grid):
        """An empty grid runs the stacked path with no items and gives no rows."""
        assert hidden_nonlocality_scan(family, 0.3, grid) == []
        assert apply_filters(rho_g(0.3), hirsch_filters(grid, 0.3)) == []

    @pytest.mark.parametrize("bad, shown", [(-0.1, "-0.1"), (float("nan"), "nan"), ("0.1", "'0.1'"), (0.0, "0.0")])
    def test_bad_epsilon_in_mid_grid_before_any_filtering(self, monkeypatch, bad, shown):
        def no_filtering(*args, **kwargs):
            raise AssertionError("filtered before the grid was checked")

        monkeypatch.setattr(filters, "apply_filters", no_filtering)
        monkeypatch.setattr(filters, "hirsch_filters", no_filtering)
        with pytest.raises(ValueError, match=rf"epsilon must lie in \(0, inf\), got {re.escape(shown)}$"):
            hidden_nonlocality_scan("rho_g", 0.3, [1e-1, 1e-2, bad, 1e-3])


class TestScanChecksInsideTheStack:
    """A check that fails inside the stack names the first failing epsilon."""

    def test_degenerate_success_mid_grid(self):
        # on rho_g(0) = |0><0| (x) I/2 the success probability is eps^2 (1 + eps^2) / 2
        with pytest.raises(ValueError, match=r"^the filters at epsilon 1e-07 never succeed on this state$"):
            hidden_nonlocality_scan("rho_g", 0.0, [1e-1, 1e-2, 1e-7, 1e-8, 1e-3])
        outcomes = apply_filters(rho_g(0.0), hirsch_filters([1e-1, 1e-7, 1e-2], 1.0))
        assert [out.post_state is None for out in outcomes] == [False, True, False]
        assert 0 <= outcomes[1].success_prob < 1e-12

    def test_post_state_check(self, monkeypatch):
        q, grid = 0.3, [1e-1, 3e-2, 1e-2, 3e-2]
        state = rho_g(q)
        target = apply_filters(state, hirsch_filters(3e-2, q)).post_state.mat
        real = states.is_density

        def fails_on_target(m):
            m = np.asarray(m)
            if any(np.array_equal(x, target) for x in m.reshape(-1, *m.shape[-2:])):
                return qmat.DensityCheck(False, 0.5, float("nan"), float("nan"))
            return real(m)

        monkeypatch.setattr(states, "is_density", fails_on_target)
        with pytest.raises(ValueError, match=r"^not a density matrix: hermiticity error 5\.000e-01"):
            apply_filters(state, hirsch_filters(grid, q))
        with pytest.raises(ValueError, match=r"^at epsilon 0\.03: not a density matrix: hermiticity error 5\.000e-01"):
            hidden_nonlocality_scan("rho_g", q, grid)

    def test_filter_bound(self, monkeypatch):
        real = filters._hirsch_filters  # the scan's builder, which takes checked values

        def doubled_at_one_percent(epsilon, q):
            f = real(epsilon, q)
            s = np.where(np.asarray(epsilon) == 1e-2, 2.0, 1.0)[..., None, None]
            return LocalFilter(f.k_a * s, f.k_b * s)

        monkeypatch.setattr(filters, "_hirsch_filters", doubled_at_one_percent)
        with pytest.raises(ValueError, match=r"^at epsilon 0\.01: k_a is not a valid filter: max eigenvalue of K\^dag K is 4\.0$"):
            hidden_nonlocality_scan("rho_g_prime", 0.5, [1e-1, 3e-2, 1e-2, 3e-3, 1e-2])


class TestFilterReadOnly:
    """A LocalFilter keeps read-only copies of the caller's complex arrays."""

    @pytest.mark.parametrize("stack", [False, True])
    def test_a_write_to_the_callers_array_does_not_reach_the_filter(self, stack):
        k = np.array([np.eye(2, dtype=complex)] * 3) if stack else np.eye(2, dtype=complex)
        f = LocalFilter(k, k.copy())
        k[..., 0, 0] = 5.0
        assert np.all(f.k_a[..., 0, 0] == 1.0)
        assert not f.k_a.flags.writeable and not f.k_b.flags.writeable
        outcomes = apply_filters(singlet(), f)
        for out in outcomes if stack else [outcomes]:
            assert out.success_prob == pytest.approx(1.0) and not out.post_state.mat.flags.writeable

    def test_hirsch_filters_are_read_only(self):
        f = hirsch_filters([0.1, 0.2], 0.5)
        with pytest.raises(ValueError, match="read-only"):
            f.k_a[0, 0, 0] = 1.0


# epsilon and q at the edges: subnormal, tiny and huge epsilon, q -> 0,
# the last float below 1, and the overflowing delta of (1e300, 1e-300)
_EPS_EDGES = [5e-324, 1e-320, 1e-300, 1e-10, 1e-3, 0.3, 1 - 2**-53, 1.0, 1 + 2**-52, 2.0, 1e10, 1e150, 1e300, 1e308, 1.7976931348623157e308]
_Q_EDGES = [5e-324, 1e-320, 1e-300, 1e-150, 1e-10, 0.09, 0.3, 1 - 2**-53, 1.0]


def _validated_hirsch(eps, q):
    """hirsch_filters' arithmetic through a validated LocalFilter, with its
    eigensolves: the arrays, or the ValueError it raises."""
    with np.errstate(all="ignore"):
        delta = eps / np.sqrt(q)
        f = np.zeros((2, 2, 2), dtype=complex)
        f[:, 0, 0], f[:, 1, 1] = (eps, delta), 1.0
        try:
            return LocalFilter(*(f / max(delta, 1.0)))
        except ValueError as err:
            return err


class TestHirschClosedFormCheck:
    """hirsch_filters checks K^dag K <= I on its diagonal closed form, in
    place of LocalFilter's eigensolves: it accepts and rejects what they do,
    with the same bytes, and never returns a non-finite filter."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q", _Q_EDGES)
    def test_it_accepts_and_rejects_what_the_eigensolve_does(self, q):
        for eps in _EPS_EDGES:
            want = _validated_hirsch(eps, q)
            if isinstance(want, ValueError):
                with pytest.raises(ValueError, match=re.escape(str(want))):
                    hirsch_filters(eps, q)
                continue
            got = hirsch_filters(eps, q)
            assert got.k_a.tobytes() == want.k_a.tobytes() and got.k_b.tobytes() == want.k_b.tobytes(), (eps, q)
            assert np.isfinite(got.k_a).all() and np.isfinite(got.k_b).all()

    @pytest.mark.filterwarnings("error")
    def test_a_grid_has_the_bytes_of_its_epsilons_alone(self):
        for q in _Q_EDGES:
            grid = [eps for eps in _EPS_EDGES if not isinstance(_validated_hirsch(eps, q), ValueError)]
            f = hirsch_filters(grid, q)
            for i, eps in enumerate(grid):
                one = hirsch_filters(eps, q)
                assert f.k_a[i].tobytes() == one.k_a.tobytes() and f.k_b[i].tobytes() == one.k_b.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_delta_is_a_value_error_without_a_warning(self):
        with pytest.raises(ValueError, match="k_b is not a valid filter: max eigenvalue of K\\^dag K is nan"):
            hirsch_filters(1e300, 1e-300)
        with pytest.raises(ValueError, match="k_b is not a valid filter"):
            hirsch_filters([0.1, 1e300], 1e-300)
        with pytest.raises(ValueError, match="^at epsilon 1e\\+300: k_b is not a valid filter"):
            hidden_nonlocality_scan("rho-g", 1e-300, [0.1, 1e300])

    def test_no_eigensolve(self, monkeypatch):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("hirsch_filters eigensolved")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        f = hirsch_filters([0.1, 0.5], 0.09)
        assert not f.k_a.flags.writeable and not f.k_b.flags.writeable
