import collections

import numpy as np
import pytest

from nonlocal_lab import filters, states
from nonlocal_lab.bell import (
    _RANK_TOL,
    ChshSettings,
    chsh_max_random,
    chsh_value,
    chsh_value_from_t,
    correlation_matrix,
    example_chsh_settings,
    horodecki_m,
    optimal_settings,
)
from nonlocal_lab.measure import born_table, obs_from_bloch
from nonlocal_lab.qmat import basis_ket, flip, haar_unitary, is_density, projector, tensor
from nonlocal_lab.states import DensityMatrix

rng = np.random.default_rng(99)


def rand_settings():
    vs = rng.standard_normal((4, 3))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    return ChshSettings(*vs)


def orthopair_max(t, n, seed):
    # independent search oracle: random orthonormal pairs (z, z') with Alice's
    # directions and the mixing angle optimized out analytically
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((n, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    w = gen.standard_normal((n, 3))
    w -= np.einsum("ni,ni->n", w, z)[:, None] * z
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    vals = 2 * np.sqrt(np.linalg.norm(z @ t.T, axis=1) ** 2 + np.linalg.norm(w @ t.T, axis=1) ** 2)
    return float(vals.max())


class TestChshValue:
    def test_singlet_standard_settings(self):
        value = chsh_value(states.singlet(), example_chsh_settings())
        assert abs(value - 2 * np.sqrt(2)) < 1e-10

    def test_singlet_standard_settings_term_by_term(self):
        # each of the four expectations contributes 1/sqrt(2) in magnitude
        s = example_chsh_settings()
        rho = states.singlet()
        pm = np.array([1.0, -1.0])  # the spin outcomes, in obs_from_bloch's order
        e = lambda a, b: pm @ born_table(rho, obs_from_bloch(a).elements, obs_from_bloch(b).elements) @ pm
        r = 1 / np.sqrt(2)
        assert abs(e(s.x, s.y) - r) < 1e-12
        assert abs(e(s.x2, s.y) - r) < 1e-12
        assert abs(e(s.x2, s.y2) - r) < 1e-12
        assert abs(e(s.x, s.y2) + r) < 1e-12

    def test_maximally_mixed_vanishes(self):
        rho = DensityMatrix(np.eye(4) / 4, 2, 2)
        assert abs(chsh_value(rho, rand_settings())) < 1e-12

    def test_separable_states_respect_the_bound(self):
        for _ in range(500):
            rho = states.random_separable(2, 2, rng, max_terms=4)
            t = correlation_matrix(rho)
            s = rand_settings()
            assert chsh_value_from_t(t, s.x, s.x2, s.y, s.y2) <= 2 + 1e-9

    def test_range(self):
        rho = states.random_density(2, 2, rng)
        assert abs(chsh_value(rho, rand_settings())) <= 4 + 1e-9

    def test_fast_path_matches_probability_sum(self):
        # chsh_value reads T; the reference sums label-weighted Born tables
        pm = np.array([1.0, -1.0])  # the spin outcomes, in obs_from_bloch's order
        for _ in range(5):
            rho = states.random_density(2, 2, rng)
            s = rand_settings()
            e = lambda a, b: pm @ born_table(rho, obs_from_bloch(a).elements, obs_from_bloch(b).elements) @ pm
            by_probabilities = e(s.x, s.y) + e(s.x2, s.y) + e(s.x2, s.y2) - e(s.x, s.y2)
            assert np.isclose(chsh_value(rho, s), by_probabilities, atol=1e-10)

    def test_relabeling_invariance(self):
        # swapping the parties conjugates by the flip and transposes T
        for _ in range(10):
            rho = states.random_density(2, 2, rng)
            s = rand_settings()
            v = flip(2)
            swapped = DensityMatrix(v @ rho.mat @ v, 2, 2)
            s_swapped = ChshSettings(s.y2, s.y, s.x2, s.x)
            assert np.isclose(chsh_value(rho, s), chsh_value(swapped, s_swapped), atol=1e-10)

    def test_rejects_wrong_dimensions(self):
        with pytest.raises(ValueError):
            chsh_value(states.rho_e(0.5), rand_settings())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_settings_reject_non_finite(self, bad):
        e = np.eye(3)
        with pytest.raises(ValueError, match="finite"):
            ChshSettings(np.array([bad, 0.0, 1.0]), e[0], e[1], e[2])


class TestCorrelationMatrix:
    def test_singlet_is_minus_identity(self):
        assert np.allclose(correlation_matrix(states.singlet()), -np.eye(3), atol=1e-12)

    def test_scales_with_singlet_weight(self):
        for alpha in (0.3, 0.8):
            assert np.allclose(correlation_matrix(states.werner2x2(alpha)), -alpha * np.eye(3), atol=1e-12)

    def test_product_state_is_outer_product(self):
        a = states.random_density(1, 2, rng).mat
        b = states.random_density(1, 2, rng).mat
        rho = DensityMatrix(tensor(a, b), 2, 2)
        from nonlocal_lab.qmat import PAULIS

        bloch_a = np.array([np.trace(a @ s).real for s in PAULIS])
        bloch_b = np.array([np.trace(b @ s).real for s in PAULIS])
        assert np.allclose(correlation_matrix(rho), np.outer(bloch_a, bloch_b), atol=1e-12)

    def test_matches_pauli_trace_formula(self):
        from nonlocal_lab.qmat import PAULIS

        for _ in range(10):
            rho = states.random_density(2, 2, rng)
            t = np.array([[np.trace(rho.mat @ np.kron(sn, sm)).real for sm in PAULIS] for sn in PAULIS])
            assert np.max(np.abs(correlation_matrix(rho) - t)) < 1e-12


class TestHorodecki:
    def test_singlet(self):
        res = horodecki_m(states.singlet())
        assert abs(res.m_rho - 2.0) < 1e-12
        assert abs(res.value - 2 * np.sqrt(2)) < 1e-10
        assert abs(res.eigen_pair[0] - 1.0) < 1e-12

    def test_two_qubit_mixture_versus_random_search(self):
        # oracle: random search over 1e5 orthonormal setting pairs
        alpha = 0.85
        rho = states.werner2x2(alpha)
        res = horodecki_m(rho)
        assert abs(res.m_rho - 2 * alpha**2) < 1e-12
        best = orthopair_max(correlation_matrix(rho), 100_000, seed=5)
        assert abs(best - 2 * np.sqrt(res.m_rho)) < 1e-3
        # the plain 4-direction search stays below and near the same bound
        assert chsh_max_random(rho, 100_000, seed=5) <= 2 * np.sqrt(res.m_rho) + 1e-9

    def test_violation_threshold(self):
        assert horodecki_m(states.werner2x2(1 / np.sqrt(2) + 0.01)).m_rho > 1
        assert horodecki_m(states.werner2x2(1 / np.sqrt(2) - 0.01)).m_rho < 1

    def test_filtered_limit_state(self):
        # sqrt(q) singlet + (1 - sqrt(q)) (|01><01| + |10><10|)/2 has M = 1 + q
        for q in (0.25, 0.5):
            sq = np.sqrt(q)
            cross = (
                projector(tensor(basis_ket(2, 0), basis_ket(2, 1)))
                + projector(tensor(basis_ket(2, 1), basis_ket(2, 0)))
            ) / 2
            rho = DensityMatrix(sq * states.singlet().mat + (1 - sq) * cross, 2, 2)
            assert abs(horodecki_m(rho).m_rho - (1 + q)) < 1e-12

    def test_local_unitary_invariance(self):
        rho = states.random_density(2, 2, rng)
        m0 = horodecki_m(rho).m_rho
        for _ in range(10):
            u = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
            conj = DensityMatrix(u @ rho.mat @ u.conj().T, 2, 2)
            assert abs(horodecki_m(conj).m_rho - m0) < 1e-9

    def test_bell_diagonal_closed_form(self):
        # oracle: for a mixture of the four maximally entangled basis states
        # with weights p, the correlation matrix is diag(c1, c2, c3) with
        # c1 = p1-p2+p3-p4, c2 = -p1+p2+p3-p4, c3 = p1+p2-p3-p4, so M is the
        # sum of the two largest c_i^2.
        s2 = np.sqrt(2)
        bell_kets = [
            np.array([1, 0, 0, 1]) / s2,
            np.array([1, 0, 0, -1]) / s2,
            np.array([0, 1, 1, 0]) / s2,
            np.array([0, 1, -1, 0]) / s2,
        ]
        for _ in range(10):
            p = rng.random(4)
            p /= p.sum()
            mat = sum(pi * projector(k) for pi, k in zip(p, bell_kets))
            rho = DensityMatrix(mat, 2, 2)
            c = np.array([p[0] - p[1] + p[2] - p[3], -p[0] + p[1] + p[2] - p[3], p[0] + p[1] - p[2] - p[3]])
            expected = np.sort(c**2)[-2:].sum()
            res = horodecki_m(rho)
            assert abs(res.m_rho - expected) < 1e-12
            assert abs(chsh_value(rho, res.settings) - 2 * np.sqrt(expected)) < 1e-8


class TestOptimalSettings:
    def test_singlet_reaches_tsirelson(self):
        s = optimal_settings(states.singlet())
        assert abs(chsh_value(states.singlet(), s) - 2 * np.sqrt(2)) < 1e-8

    def test_product_state_never_flagged(self):
        from nonlocal_lab.qmat import PAULIS

        for _ in range(10):
            rho = states.random_pure_product(2, 2, rng)
            res = horodecki_m(rho)
            assert res.value <= 2 + 1e-9
            assert res.m_rho <= 1 + 1e-9
            # value is twice the largest product of local Bloch lengths
            a = states.DensityMatrix(rho.reduced("A"), 1, 2)
            b = states.DensityMatrix(rho.reduced("B"), 1, 2)
            na = np.linalg.norm([np.trace(a.mat @ s).real for s in PAULIS])
            nb = np.linalg.norm([np.trace(b.mat @ s).real for s in PAULIS])
            assert abs(res.value - 2 * na * nb) < 1e-8

    def test_mixture_value(self):
        res = horodecki_m(states.werner2x2(0.8))
        assert abs(res.value - 2 * np.sqrt(2 * 0.64)) < 1e-8

    def test_random_states_attain_bound(self):
        for k in range(100):
            rho = states.random_density(2, 2, rng)
            res = horodecki_m(rho)
            bound = 2 * np.sqrt(res.m_rho)
            assert chsh_max_random(rho, 10_000, seed=k) <= bound + 1e-9
            assert chsh_value(rho, res.settings) >= bound - 1e-6

    def test_random_search_matches_four_term_reference(self):
        """The two row dots against the four three-operand einsums they
        replaced, on the same settings."""
        for k in range(20):
            rho = states.random_density(2, 2, rng)
            vs = np.random.default_rng(k).standard_normal((4, 5_000, 3))
            vs /= np.linalg.norm(vs, axis=2, keepdims=True)
            x, x2, y, y2 = vs
            t = correlation_matrix(rho)
            ref = (
                np.einsum("ni,ij,nj->n", x, t, y)
                + np.einsum("ni,ij,nj->n", x2, t, y)
                + np.einsum("ni,ij,nj->n", x2, t, y2)
                - np.einsum("ni,ij,nj->n", x, t, y2)
            ).max()
            assert abs(chsh_max_random(rho, 5_000, seed=k) - ref) <= 1e-12

    def test_zero_correlation_state(self):
        rho = DensityMatrix(np.eye(4) / 4, 2, 2)
        res = horodecki_m(rho)
        assert res.m_rho < 1e-20
        assert abs(res.value) < 1e-12

    def test_result_json_schema(self):
        res = horodecki_m(states.singlet())
        payload = res.to_dict()
        assert set(payload) == {"value", "M", "settings", "eigenvalues"}
        assert set(payload["settings"]) == {"x", "x'", "y", "y'"}


def four_candidate_spec(t):
    """The optimal settings by the plain rule: build each sign candidate for
    (z, z') in the order (+, +), (+, -), (-, +), (-, -), value it with
    chsh_value_from_t and keep the first strict maximum. Returns the
    settings, their value, M, the branch taken and the winning signs."""
    vals, vecs = np.linalg.eigh(t.T @ t)
    z, zp = vecs[:, 2], vecs[:, 1]
    m = float(vals[2]) + float(vals[1])
    if np.linalg.norm(t @ z) < _RANK_TOL and np.linalg.norm(t @ zp) < _RANK_TOL:
        e = np.eye(3)
        return (e[0], e[1], e[0], e[1]), chsh_value_from_t(t, e[0], e[1], e[0], e[1]), m, "canonical", None
    best = None
    fallback = np.array([1.0, 0.0, 0.0])
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            za, zb = s1 * z, s2 * zp
            ta, tb = t @ za, t @ zb
            na, nb = np.linalg.norm(ta), np.linalg.norm(tb)
            xa = ta / na if na > _RANK_TOL else fallback
            xb = tb / nb if nb > _RANK_TOL else fallback
            theta = np.arctan2(nb, na)
            cand = (xb, xa, np.cos(theta) * za + np.sin(theta) * zb, np.cos(theta) * za - np.sin(theta) * zb)
            val = chsh_value_from_t(t, *cand)
            if best is None or val > best[0]:
                best = (val, cand, (s1, s2))
    return best[1], best[0], m, "rank-1" if nb <= _RANK_TOL else "full", best[2]


def differential_states():
    gen = np.random.default_rng(2024)
    for _ in range(800):
        yield states.random_density(2, 2, gen)
    for k in range(500):
        yield states.random_separable(2, 2, gen, max_terms=1 + k % 4)
    for _ in range(300):
        yield states.random_pure_product(2, 2, gen)
    for q in np.linspace(0.0, 1.0, 41):
        yield states.rho_g(q)
        yield states.rho_g_prime(q)
    yield DensityMatrix(np.eye(4) / 4, 2, 2)
    for q in (0.0, 0.2, 0.5, 0.9):
        for eps in np.geomspace(1e-3, 1.0, 40):
            for family in (states.rho_g, states.rho_g_prime):
                out = filters.apply_filters(family(q), filters.hirsch_filters(eps, q if q > 0 else 1.0))
                if out.post_state is not None:
                    yield out.post_state


class TestOptimalSettingsDifferential:
    def test_bit_identical_to_the_four_candidate_rule(self):
        # the bytes are compared, not just the values: the sign of a zero
        # component reaches the JSON that chsh --optimal prints
        seen = collections.Counter()
        for rho in differential_states():
            t = correlation_matrix(rho)
            spec, spec_value, spec_m, branch, signs = four_candidate_spec(t)
            res = horodecki_m(rho)
            got = (res.settings.x, res.settings.x2, res.settings.y, res.settings.y2)
            assert all(np.array_equal(g, e) and g.tobytes() == e.tobytes() for g, e in zip(got, spec))
            assert optimal_settings(rho).y.tobytes() == spec[2].tobytes()
            assert res.value == spec_value
            assert res.m_rho == spec_m
            assert res.value == chsh_value(rho, res.settings)
            seen[branch] += 1
            seen["flipped"] += signs not in (None, (1.0, 1.0))
        # every branch is reached: I/4 and rho_g(0) are canonical, product
        # states and rho_g_prime(0) have rank-1 T, and rounding often makes
        # a sign-flipped candidate win
        assert sum(seen[b] for b in ("canonical", "rank-1", "full")) >= 2000
        assert seen["canonical"] >= 2 and seen["rank-1"] >= 100 and seen["flipped"] >= 100


class TestStackOfOne:
    """A single state goes through the stacked path as a stack of one, and a
    stack of one gives the single call's bytes."""

    def test_differential_states(self):
        stack = list(differential_states())
        singles = [horodecki_m(rho) for rho in stack]
        for rho, single in zip(stack, singles):
            assert repr(is_density(rho.mat[None])) == repr(is_density(rho.mat))
            assert correlation_matrix([rho]).tobytes() == correlation_matrix(rho)[None].tobytes()
            (one,) = horodecki_m([rho])
            assert _result_bytes(one) == _result_bytes(single)
        assert [_result_bytes(r) for r in horodecki_m(stack)] == [_result_bytes(r) for r in singles]

    def test_given_settings(self):
        s = example_chsh_settings()
        batch = [states.rho_g(q) for q in (0.0, 0.3, 1.0)]
        assert [_result_bytes(r) for r in horodecki_m(batch, s)] == [_result_bytes(horodecki_m(rho, s)) for rho in batch]

    def test_empty_list(self):
        assert horodecki_m([]) == []
        assert correlation_matrix([]).shape == (0, 3, 3)

    def test_a_stack_names_no_other_dimension(self):
        with pytest.raises(ValueError, match="two-qubit state required, got 3x2"):
            horodecki_m([states.rho_g(0.3), states.rho_e(0.3)])


def _result_bytes(res):
    s = res.settings
    return (float(res.value).hex(), float(res.m_rho).hex(), tuple(float(u).hex() for u in res.eigen_pair), s.x.tobytes(), s.x2.tobytes(), s.y.tobytes(), s.y2.tobytes())
