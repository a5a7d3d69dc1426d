import numpy as np
import pytest

from nonlocal_lab import measure, states
from nonlocal_lab.qmat import basis_ket, flip, is_density, projector, tensor
from nonlocal_lab.states import (
    DensityMatrix,
    barrett_alpha,
    barrett_state,
    embed_local,
    flip_witness,
    lift_state,
    rho_e,
    rho_g,
    rho_g_prime,
    singlet,
    twirl,
    werner2x2,
    werner_local,
    werner_local_phi,
    werner_phi,
)

rng = np.random.default_rng(7230)

SINGLET_MAT = 0.5 * np.array(
    [
        [0, 0, 0, 0],
        [0, 1, -1, 0],
        [0, -1, 1, 0],
        [0, 0, 0, 0],
    ],
    dtype=complex,
)


class TestSinglet:
    def test_matrix(self):
        assert np.allclose(singlet().mat, SINGLET_MAT, atol=1e-15)

    def test_flip_witness(self):
        assert np.isclose(flip_witness(singlet()), -1.0, atol=1e-12)

    def test_reduced(self):
        assert np.allclose(singlet().reduced("A"), np.eye(2) / 2, atol=1e-12)


class TestWernerPhi:
    def test_flip_trace_matches_parameter(self):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            phi = float(rng.uniform(-1, 1))
            w = werner_phi(d, phi)
            assert abs(flip_witness(w) - phi) < 1e-12
            assert is_density(w.mat)

    def test_phi_one_has_positive_witness(self):
        assert np.isclose(flip_witness(werner_phi(2, 1.0)), 1.0, atol=1e-12)

    def test_equal_projector_joint_probability(self):
        for d, phi in ((2, 0.3), (3, -0.5), (4, -1.0)):
            p = projector(basis_ket(d, 0))
            got = measure.born_table(werner_phi(d, phi), [p], [p])[0, 0]
            assert np.isclose(got, (1 + phi) / (d * (d + 1)), atol=1e-12)

    def test_matches_two_qubit_mixture(self):
        # phi = 1/2 - 3 alpha/2 from the flip traces of both mixture terms
        assert np.max(np.abs(werner_phi(2, -0.25).mat - werner2x2(0.5).mat)) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            werner_phi(3, 1.5)
        with pytest.raises(ValueError):
            werner_phi(1, 0.0)


class TestWernerLocal:
    def test_small_dimensions(self):
        assert np.isclose(werner_local_phi(2), -0.25)
        assert np.isclose(werner_local_phi(3), -5 / 9)

    def test_matrix_form(self):
        # oracle: the alternative closed form ((d+1)/d^3) I - (1/d^2) V
        for d in range(2, 7):
            direct = ((d + 1) / d**3) * np.eye(d * d) - flip(d) / d**2
            assert np.max(np.abs(werner_local(d).mat - direct)) < 1e-12

    def test_witness_d5(self):
        assert np.isclose(flip_witness(werner_local(5)), -0.76, atol=1e-12)


class TestWerner2x2:
    def test_endpoints(self):
        assert np.allclose(werner2x2(0).mat, np.eye(4) / 4)
        assert np.allclose(werner2x2(1).mat, SINGLET_MAT)

    def test_joint_expectation_scales_with_alpha(self):
        for alpha in (0.25, 0.5, 0.9):
            w = werner2x2(alpha)
            for _ in range(5):
                x = rng.standard_normal(3)
                x /= np.linalg.norm(x)
                y = rng.standard_normal(3)
                y /= np.linalg.norm(y)
                ma, mb = measure.obs_from_bloch(x), measure.obs_from_bloch(y)
                e = np.array(ma.labels) @ measure.born_table(w, ma.projectors, mb.projectors) @ np.array(mb.labels)
                assert np.isclose(e, -alpha * float(x @ y), atol=1e-10)


class TestBarrett:
    def test_alpha_d2(self):
        # (d-1)^(d-1) (3d-1) / ((d+1) d^d) at d=2: 1*5/(3*4)
        assert np.isclose(barrett_alpha(2), 5 / 12)

    def test_d2_antisymmetric_part_is_singlet(self):
        w = barrett_state(2)
        expected = (5 / 12) * SINGLET_MAT + (7 / 12) * np.eye(4) / 4
        assert np.max(np.abs(w.mat - expected)) < 1e-12

    def test_entangled_threshold(self):
        for d in range(2, 7):
            assert barrett_alpha(d) > 1 / (1 + d)
            assert flip_witness(barrett_state(d)) < 0


class TestRhoG:
    def test_q0_is_product(self):
        expected = tensor(projector(basis_ket(2, 0)), np.eye(2) / 2)
        assert np.allclose(rho_g(0).mat, expected)

    def test_witness_formula(self):
        for q in (0.0, 0.2, 1 / 3, 0.8, 1.0):
            assert np.isclose(flip_witness(rho_g(q)), -q + (1 - q) / 2, atol=1e-12)

    def test_witness_vanishes_at_one_third(self):
        assert abs(flip_witness(rho_g(1 / 3))) < 1e-12


class TestLiftState:
    def test_lifted_singlet_mixture_matches_explicit_weights(self):
        # oracle: the four-term mixture with weights q/4, (2-q)/4, q/4, (2-q)/4
        q = 0.4
        p0 = projector(basis_ket(2, 0))
        expected = (
            q * SINGLET_MAT
            + (2 - q) * tensor(p0, np.eye(2) / 2)
            + q * tensor(np.eye(2) / 2, p0)
            + (2 - q) * tensor(p0, p0)
        ) / 4
        assert np.max(np.abs(rho_g_prime(q).mat - expected)) < 1e-12

    def test_lift_of_product_state_stays_unwitnessed(self):
        rho0 = states.random_pure_product(2, 2, rng)
        sig = projector(basis_ket(2, 0))
        assert flip_witness(lift_state(rho0, sig, sig)) >= -1e-12

    def test_flagged_qutrit_lift_weights(self):
        # oracle: 1/9 [q singlet + (3-q)|2><2| (x) Itilde/2 + 2q Itilde/2 (x) |2><2| + (6-2q)|22><22|]
        q = 0.7
        base = embed_local(rho_e(q), 3, 3)
        p2 = projector(basis_ket(3, 2))
        lifted = lift_state(base, p2, p2)
        itilde = projector(basis_ket(3, 0)) + projector(basis_ket(3, 1))
        psi = states.singlet_ket(3, 3)
        expected = (
            q * projector(psi)
            + (3 - q) * tensor(p2, itilde / 2)
            + 2 * q * tensor(itilde / 2, p2)
            + (6 - 2 * q) * tensor(p2, p2)
        ) / 9
        assert np.max(np.abs(lifted.mat - expected)) < 1e-12

    def test_random_lifts_are_states(self):
        for _ in range(5):
            rho0 = states.random_density(2, 2, rng)
            s1 = states.random_density(1, 2, rng).mat
            s2 = states.random_density(1, 2, rng).mat
            lifted = lift_state(rho0, s1, s2)
            assert is_density(lifted.mat)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lift_state(rho_e(0.5), projector(basis_ket(3, 2)), projector(basis_ket(2, 0)))


class TestRhoE:
    def test_shape(self):
        r = rho_e(0.5)
        assert (r.d_a, r.d_b) == (3, 2)
        assert r.mat.shape == (6, 6)

    def test_endpoints(self):
        assert np.allclose(rho_e(1.0).mat, projector(states.singlet_ket(3, 2)), atol=1e-15)
        assert np.allclose(rho_e(0.0).mat, tensor(projector(basis_ket(3, 2)), np.eye(2) / 2))


class TestFlipWitness:
    def test_orthogonal_product_vanishes(self):
        m = DensityMatrix(tensor(projector(basis_ket(2, 0)), projector(basis_ket(2, 1))), 2, 2)
        assert abs(flip_witness(m)) < 1e-12

    def test_separable_states_non_negative(self):
        for k in range(100):
            d = 2 if k % 2 == 0 else 3
            assert flip_witness(states.random_separable(d, d, rng)) >= -1e-9

    def test_requires_equal_dims(self):
        with pytest.raises(ValueError):
            flip_witness(rho_e(0.5))


class TestTwirl:
    def test_orthogonal_product_gives_phi_zero(self):
        rho = DensityMatrix(tensor(projector(basis_ket(3, 0)), projector(basis_ket(3, 1))), 3, 3)
        assert np.max(np.abs(twirl(rho).mat - werner_phi(3, 0.0).mat)) < 1e-12

    def test_aligned_product_gives_phi_one(self):
        psi = tensor(basis_ket(2, 1), basis_ket(2, 1))
        rho = DensityMatrix(projector(psi), 2, 2)
        assert np.max(np.abs(twirl(rho).mat - werner_phi(2, 1.0).mat)) < 1e-12

    def test_idempotent_on_werner_states(self):
        w = werner_phi(3, -0.4)
        assert np.max(np.abs(twirl(w).mat - w.mat)) < 1e-12

    def test_preserves_flip_trace(self):
        rho = states.random_density(2, 2, rng)
        assert abs(flip_witness(twirl(rho)) - flip_witness(rho)) < 1e-12


class TestSerialization:
    def test_roundtrip(self):
        rho = states.random_density(2, 3, rng)
        again = DensityMatrix.from_json(rho.to_json())
        assert (again.d_a, again.d_b) == (2, 3)
        assert np.max(np.abs(again.mat - rho.mat)) < 1e-15

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError):
            DensityMatrix.from_json('{"dA": 2, "dB": 2, "entries": [[1, 0]]}')


class TestValidation:
    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4), 2, 2)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, 2, 3)

    def test_restrict_block_renormalizes(self):
        block = states.restrict_block(rho_e(1.0), (0, 1), (0, 1))
        assert np.allclose(block.mat, SINGLET_MAT, atol=1e-12)

    def test_restrict_block_rejects_empty(self):
        with pytest.raises(ValueError):
            states.restrict_block(rho_e(1.0), (2,), (0, 1))


def _closed_form_states():
    """Every closed-form constructor that skips the eigensolve check, over a
    grid of its parameters up to d=24."""
    grid = [("singlet", singlet())]
    for d in (2, 3, 5, 8, 16, 24):
        grid += [(f"werner_phi(d={d}, phi={phi})", werner_phi(d, phi)) for phi in (-1.0, -0.5, 0.0, 0.7, 1.0)]
        grid += [(f"werner_local({d})", werner_local(d)), (f"barrett_state({d})", barrett_state(d))]
    for t in (0.0, 0.25, 1 / 3, 0.5, 1.0):
        grid += [(f"werner2x2({t})", werner2x2(t)), (f"rho_g({t})", rho_g(t)), (f"rho_e({t})", rho_e(t))]
    return grid


@pytest.mark.parametrize("rho", [pytest.param(rho, id=name) for name, rho in _closed_form_states()])
def test_closed_form_states_are_density_matrices(rho):
    assert is_density(rho.mat)
    assert rho.mat.dtype == complex
    assert rho.mat.shape == (rho.d_a * rho.d_b, rho.d_a * rho.d_b)


def test_caller_supplied_matrices_keep_the_check():
    bad = -states.werner_phi(2, 0.0).mat
    with pytest.raises(ValueError, match="not a density matrix"):
        DensityMatrix(bad, 2, 2)
    with pytest.raises(ValueError, match="not a density matrix"):
        DensityMatrix.from_json(DensityMatrix(np.eye(4) / 4, 2, 2).to_json().replace("0.25", "-0.25", 1))
    with pytest.raises(ValueError, match="sigma is not a valid state"):
        lift_state(rho_g(0.3), -np.eye(2) / 2, np.eye(2) / 2)
