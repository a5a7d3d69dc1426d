import inspect
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from nonlocal_lab import measure, qmat, states
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
                e = np.array(ma.labels) @ measure.born_table(w, ma.elements, mb.elements) @ np.array(mb.labels)
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

    @pytest.mark.parametrize("d, message", [(-1, "d must be >= 2, got -1"), (1, "d must be >= 2, got 1"), (0, ">= 2"), (2.5, "integer"), ("x", "integer"), (None, "integer")])
    def test_alpha_rejects_what_barrett_state_rejects(self, d, message):
        for build in (barrett_alpha, barrett_state):
            with pytest.raises(ValueError, match=message):
                build(d)


class TestInPlaceConstruction:
    """werner_phi builds the state in flip's one d^2 x d^2 array: the bytes
    of the plain formula, signed zeros included, at the memory of one
    matrix. barrett_state is a werner_phi, so it peaks at one matrix too."""

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 24])
    def test_bytes_of_the_plain_formulas(self, d):
        v = flip(d)
        for phi in (werner_local_phi(d), 0.3, -1.0, 1.0):
            plain = ((d - phi) * np.eye(d * d) + (d * phi - 1) * v) / (d**3 - d)
            assert werner_phi(d, phi).mat.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("build", [werner_local, barrett_state])
    def test_peak_is_one_matrix(self, build):
        d = 24
        tracemalloc.start()
        try:
            build(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * d**4


class TestOneFormulaPerState:
    """Each Werner-family state is werner_phi(d, phi) and rho_g' is a closed
    form: each matches the formula it replaced, kept here as the reference."""

    @pytest.mark.parametrize("d", range(2, 25))
    def test_barrett_is_the_antisymmetric_mixture(self, d):
        alpha = barrett_alpha(d)
        anti = (np.eye(d * d) - flip(d)) / 2
        plain = alpha * anti / np.trace(anti).real + (1 - alpha) * np.eye(d * d) / d**2
        assert np.max(np.abs(barrett_state(d).mat - plain)) <= 1e-16

    def test_werner2x2_is_the_singlet_mixture(self):
        for alpha in np.linspace(0, 1, 41):
            plain = alpha * SINGLET_MAT + (1 - alpha) * np.eye(4) / 4
            assert np.max(np.abs(werner2x2(alpha).mat - plain)) <= 5e-16

    def test_rho_g_prime_is_the_lift_of_rho_g(self):
        p0 = projector(basis_ket(2, 0))
        for q in np.linspace(0, 1, 41):
            lifted = lift_state(rho_g(q), p0, p0)
            assert np.max(np.abs(rho_g_prime(q).mat - lifted.mat)) <= 5e-16

    def test_flip_witness_is_phi(self):
        members = [(werner_phi(d, phi), phi) for d in (2, 3, 5) for phi in (-1.0, -0.4, 0.0, 0.7, 1.0)]
        members += [(werner_local(d), werner_local_phi(d)) for d in range(2, 9)]
        members += [(werner2x2(alpha), (1 - 3 * alpha) / 2) for alpha in np.linspace(0, 1, 21)]
        members += [(barrett_state(d), -barrett_alpha(d) + (1 - barrett_alpha(d)) / d) for d in range(2, 9)]
        for rho, phi in members:
            assert abs(flip_witness(rho) - phi) <= 1e-15

    def test_werner_states_are_the_werner_family(self):
        """The named states in WERNER_STATES, and only those, are fixed by
        the twirl onto span{I, V}."""
        args = {"d": 3, "phi": 0.3, "alpha": 0.6, "q": 0.4}
        for name, make in states.STATES.items():
            rho = make(**{p: args[p] for p in inspect.signature(make).parameters})
            fixed = rho.d_a == rho.d_b and np.max(np.abs(twirl(rho).mat - rho.mat)) < 1e-12
            assert fixed == (name in states.WERNER_STATES), name


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
        assert np.max(np.abs(lift_state(rho_g(q), p0, p0).mat - expected)) < 1e-12

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


# a grid for each parameter name of the STATES constructors
_STATE_ARGS = {"d": (2, 3, 5, 8), "phi": (-1.0, -0.5, 0.0, 1 / 3, 1.0), "alpha": (0.0, 0.5, 1.0), "q": (0.0, 1 / 3, 0.5, 1.0)}


def _assert_witness_bits(rho):
    """flip_witness has the bits of its definition tr(V rho), sign of zero included."""
    want = np.trace(flip(rho.d_a) @ rho.mat).real
    got = flip_witness(rho)
    assert got == want and np.signbit(got) == np.signbit(want)


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

    @pytest.mark.parametrize("d", range(2, 9))
    def test_bit_identical_to_the_trace_of_v_rho_on_random_states(self, d):
        gen = np.random.default_rng(d)
        for _ in range(10):
            _assert_witness_bits(states.random_density(d, d, gen))
            _assert_witness_bits(states.random_separable(d, d, gen))

    @pytest.mark.parametrize("name", list(states.STATES))
    def test_bit_identical_to_the_trace_of_v_rho_on_named_states(self, name):
        make = states.STATES[name]
        grids = [_STATE_ARGS[p] for p in inspect.signature(make).parameters]
        for args in itertools.product(*grids):
            rho = make(*args)
            if rho.d_a == rho.d_b:
                _assert_witness_bits(rho)
            else:
                with pytest.raises(ValueError, match="equal local dimensions"):
                    flip_witness(rho)

    def test_reads_the_witness_without_building_v(self, monkeypatch):
        w = werner_phi(5, -0.3)
        monkeypatch.setattr(states, "flip", None)
        assert abs(flip_witness(w) + 0.3) < 1e-12


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

    @pytest.mark.parametrize("d, phi", [(8, 1.0), (10, 1.0), (9, -1.0)])
    def test_end_of_range_rounding_is_clamped(self, d, phi):
        """These witnesses round one ulp outside [-1, 1]; the twirl is the
        Werner state at phi exactly +-1."""
        w = werner_phi(d, phi)
        assert abs(flip_witness(w)) > 1.0
        assert np.array_equal(twirl(w).mat, werner_phi(d, phi).mat)

    @pytest.mark.parametrize("phi", [1.0 + 1e-9, -1.0 - 1e-9, float("nan")])
    def test_witness_beyond_rounding_raises(self, phi, monkeypatch):
        monkeypatch.setattr(states, "flip_witness", lambda rho: phi)
        with pytest.raises(ValueError, match=r"phi must lie in \[-1, 1\]"):
            twirl(werner_phi(2, 1.0))


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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: werner_phi(2.5, 0.0),
            lambda: werner_local(3.5),
            lambda: barrett_state(2.5),
            lambda: flip(2.0),
            lambda: DensityMatrix(np.eye(4) / 4, 2.0, 2.0),
            lambda: DensityMatrix(np.eye(4) / 4, 2, 2.0),
        ],
        ids=["werner_phi", "werner_local", "barrett_state", "flip", "density-both", "density-d_b"],
    )
    def test_non_integer_dimension_is_a_value_error(self, build):
        with pytest.raises(ValueError, match="must be an integer, got"):
            build()

    def test_numpy_integer_dimensions_are_accepted(self):
        two = np.int64(2)
        assert np.array_equal(werner_phi(two, 0.3).mat, werner_phi(2, 0.3).mat)
        assert np.array_equal(barrett_state(np.int64(3)).mat, barrett_state(3).mat)
        assert barrett_alpha(np.int64(30)) == barrett_alpha(30)  # exact integer powers: 29**29 overflows an int64
        rho = DensityMatrix(np.eye(4) / 4, two, two)
        assert (type(rho.d_a), type(rho.d_b)) == (int, int)
        assert flip_witness(rho) == 0.5
        assert DensityMatrix.from_json(rho.to_json()).d_a == 2

    @pytest.mark.parametrize("max_terms, message", [(0, "max_terms must be >= 1, got 0"), (-3, ">= 1"), (2.0, "max_terms must be an integer")])
    def test_random_separable_needs_a_term(self, max_terms, message):
        with pytest.raises(ValueError, match=message):
            states.random_separable(2, 2, np.random.default_rng(0), max_terms=max_terms)

    def test_restrict_block_renormalizes(self):
        block = states.restrict_block(rho_e(1.0), (0, 1), (0, 1))
        assert np.allclose(block.mat, SINGLET_MAT, atol=1e-12)

    def test_restrict_block_rejects_empty(self):
        with pytest.raises(ValueError):
            states.restrict_block(rho_e(1.0), (2,), (0, 1))


class TestArgumentsBeforeComparisons:
    """The type of an argument is checked before it is compared, so a wrong
    type is a ValueError, not a TypeError from the comparison."""

    @pytest.mark.parametrize(
        "build", [lambda: werner_phi("3", 0.0), lambda: barrett_state("3"), lambda: werner_local("3")],
        ids=["werner_phi", "barrett_state", "werner_local"],
    )
    def test_string_dimension(self, build):
        with pytest.raises(ValueError, match="d must be an integer, got '3'"):
            build()

    @pytest.mark.parametrize("phi", [None, "0.5", 0.5j])
    def test_phi_that_is_not_a_real_number(self, phi):
        with pytest.raises(ValueError, match=r"phi must lie in \[-1, 1\]"):
            werner_phi(3, phi)

    @pytest.mark.parametrize("d", [-1, 0, 1])
    def test_werner_local_rejects_d_below_two_before_its_phi(self, d):
        # werner_local_phi(0) divides by d^2
        with pytest.raises(ValueError, match=f"d must be >= 2, got {d}"):
            werner_local(d)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: rho_g("0.3"), r"q must lie in \[0, 1\], got '0.3'"),
            (lambda: rho_e("0.3"), r"q must lie in \[0, 1\], got '0.3'"),
            (lambda: rho_g_prime(None), r"q must lie in \[0, 1\], got None"),
            (lambda: rho_g_prime(1.5), r"q must lie in \[0, 1\], got 1.5"),  # checked by the closed form itself
            (lambda: werner2x2(None), r"alpha must lie in \[0, 1\], got None"),
            (lambda: werner_local_phi(0), "d must be >= 2, got 0"),  # it divides by d^2
        ],
        ids=["rho_g", "rho_e", "rho_g_prime", "rho_g_prime_range", "werner2x2", "werner_local_phi"],
    )
    def test_state_parameters(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("d_a, d_b, who", [(-2, -2, "d_a"), (4, 0, "d_b"), (1, -4, "d_b")])
    def test_density_matrix_dimensions_below_one(self, d_a, d_b, who):
        # the product d_a d_b = 4 matches the matrix, so only the floor rejects them
        with pytest.raises(ValueError, match=f"{who} must be >= 1"):
            DensityMatrix(np.eye(4) / 4, d_a, d_b)

    def test_embed_local_does_not_shrink(self):
        with pytest.raises(ValueError, match="d_b must be >= 2, got 1"):
            embed_local(singlet(), 2, 1)

    def test_embed_local_dimension(self):
        with pytest.raises(ValueError, match="d_a must be an integer, got 2.5"):
            embed_local(singlet(), 2.5, 2)


class TestRestrictBlock:
    """Levels are checked before any index is formed."""

    RHO = states.random_density(2, 3, np.random.default_rng(23))

    def test_bob_level_beyond_his_dimension_is_not_read_as_alices_next(self):
        # unchecked, (Alice 0, Bob 3) is index 0 * 3 + 3, which is (Alice 1, Bob 0)
        with pytest.raises(ValueError, match=r"Bob's levels must be distinct and in range\(3\), got \(0, 3\)"):
            states.restrict_block(self.RHO, (0,), (0, 3))

    @pytest.mark.parametrize(
        "keep_a, keep_b, who", [((-1,), (0,), "Alice"), ((0, 2), (0,), "Alice"), ((0,), (1, 1), "Bob"), ((0, 0), (1,), "Alice")]
    )
    def test_negative_out_of_range_and_repeated_levels(self, keep_a, keep_b, who):
        with pytest.raises(ValueError, match=f"{who}'s levels must be distinct and in range"):
            states.restrict_block(self.RHO, keep_a, keep_b)

    def test_non_integer_level(self):
        with pytest.raises(ValueError, match="Bob's level must be an integer, got 0.5"):
            states.restrict_block(self.RHO, (0,), (0.5,))

    @pytest.mark.parametrize("keep_a, keep_b, who", [(0, (0,), "Alice"), ((0,), None, "Bob")])
    def test_levels_that_are_not_a_sequence(self, keep_a, keep_b, who):
        with pytest.raises(ValueError, match=f"{who}'s levels must be a sequence of integers, got {keep_a if who == 'Alice' else keep_b}"):
            states.restrict_block(self.RHO, keep_a, keep_b)

    def test_numpy_integer_levels_read_the_same_block(self):
        block = states.restrict_block(self.RHO, (np.int64(1),), (np.int64(0), 2))
        assert np.array_equal(block.mat, states.restrict_block(self.RHO, (1,), (0, 2)).mat)


class TestStateJsonBudget:
    """dA and dB are checked against qmat.MATRIX_BUDGET, and the text's
    length against their size, before the text is parsed or the entries are
    decoded; the parser or decoder is patched to fail, so nothing is
    allocated."""

    @pytest.fixture
    def no_decoding(self, monkeypatch):
        def decoded(*args, **kwargs):
            raise AssertionError("the entries were decoded")

        monkeypatch.setattr(states, "complex", decoded, raising=False)  # each entry is decoded by complex()

    @pytest.mark.parametrize("d_a, d_b", [(65, 65), (4097, 1), (1, 10**9)])
    def test_over_budget_dimensions(self, no_decoding, d_a, d_b):
        with pytest.raises(ValueError, match="above the 256 MiB budget"):
            DensityMatrix.from_json(json.dumps({"dA": d_a, "dB": d_b, "entries": [[1, 0]]}))

    def test_the_largest_state_within_budget_reaches_the_decoder(self, no_decoding):
        with pytest.raises(AssertionError, match="decoded"):
            DensityMatrix.from_json('{"dA": 64, "dB": 64, "entries": [[1, 0]]}')

    @pytest.mark.parametrize("d_a, d_b", [(0, 2), (2, -1), (2.0, 2), (True, 2)])
    def test_dimensions_that_are_not_positive_integers(self, no_decoding, d_a, d_b):
        with pytest.raises(ValueError, match="expected positive integers dA, dB"):
            DensityMatrix.from_json(json.dumps({"dA": d_a, "dB": d_b, "entries": [[1, 0]]}))

    @pytest.fixture
    def no_parsing(self, monkeypatch):
        def parsed(*args, **kwargs):
            raise AssertionError("the text was parsed")

        monkeypatch.setattr(states.json, "loads", parsed)

    def test_more_entries_than_the_declared_size_are_not_parsed(self, no_parsing):
        text = json.dumps({"dA": 2, "dB": 2, "entries": [[0.25, 0.0]] * 10**5})
        with pytest.raises(ValueError, match=r"more than any 2x2 state's JSON \(928\)"):
            DensityMatrix.from_json(text)

    def test_an_over_budget_size_is_not_parsed(self, no_parsing):
        with pytest.raises(ValueError, match=r"dA\*dB = 4225 needs a 4225x4225 complex matrix, above the 256 MiB budget"):
            DensityMatrix.from_json('{"dA": 65, "dB": 65, "entries": [[1, 0]]}')

    def test_the_longest_text_of_a_size_reaches_the_parser(self, no_parsing):
        worst = -2.2250738585072014e-308 * (1 + 1j)
        with pytest.raises(AssertionError, match="parsed"):
            DensityMatrix.from_json(DensityMatrix._trusted(np.full((4, 4), worst), 2, 2).to_json())

    def test_key_order_and_whitespace_are_free(self):
        rho = states.random_density(2, 3, np.random.default_rng(8))
        text = json.dumps({"entries": json.loads(rho.to_json())["entries"], "dB": 3, "dA": 2}, indent="\t")
        again = DensityMatrix.from_json(text.replace('"dA":', '"dA" \n :'))
        assert np.array_equal(again.mat, DensityMatrix.from_json(rho.to_json()).mat)
        assert (again.d_a, again.d_b) == (2, 3)

    def test_json_bytes_bound_the_longest_text_to_json_writes(self):
        """Per entry ", [re, im]" with two floats of the longest repr, and a
        header with the widest dimensions that fit the budget."""
        worst = -2.2250738585072014e-308 * (1 + 1j)
        rho = DensityMatrix._trusted(np.full((2, 2), worst), 4096, 4096)
        assert len(rho.to_json()) <= 64 + 4 * 54
        assert DensityMatrix.JSON_BYTES == 64 + (qmat.MATRIX_BUDGET // 16) * 54


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


class TestReadOnly:
    """A state's matrix cannot change after it was checked: it is read-only,
    and a copy wherever np.asarray would have kept the caller's array."""

    def test_a_named_state_cannot_be_written(self):
        s = singlet()
        with pytest.raises(ValueError, match="read-only"):
            s.mat[0, 0] = 7
        assert flip_witness(s) == flip_witness(singlet()) < -0.99

    def test_a_write_to_the_callers_matrix_does_not_reach_the_state(self):
        from nonlocal_lab.bell import horodecki_m

        m = np.eye(4, dtype=complex) / 4
        rho = DensityMatrix(m, 2, 2)
        m[0, 0] = np.nan
        assert not rho.mat.flags.writeable and rho.mat[0, 0] == 0.25
        assert horodecki_m(rho).m_rho == 0.0

    @pytest.mark.parametrize("m", [np.eye(4) / 4, (np.eye(4) / 4).tolist(), np.eye(8, dtype=complex)[::2, ::2] / 4])
    def test_every_input_is_held_read_only(self, m):
        rho = DensityMatrix(m, 2, 2)
        assert not rho.mat.flags.writeable and not np.shares_memory(rho.mat, np.asarray(m))

    @pytest.mark.parametrize("build", [werner_local, barrett_state])
    def test_in_place_builders_freeze_their_one_matrix(self, build):
        rho = build(24)
        assert not rho.mat.flags.writeable and rho.mat.base is None
        m = np.eye(4, dtype=complex) / 4
        assert DensityMatrix._trusted(m, 2, 2).mat is m and not m.flags.writeable

    @pytest.mark.parametrize("rho", [pytest.param(rho, id=name) for name, rho in _closed_form_states()[:12]])
    def test_closed_form_states_are_read_only(self, rho):
        assert not rho.mat.flags.writeable

    def test_derived_states_are_read_only(self):
        for rho in (lift_state(rho_g(0.3), np.eye(2) / 2, np.eye(2) / 2), embed_local(singlet(), 3, 3), twirl(singlet()),
                    states.random_density(2, 3, rng), DensityMatrix.from_json(singlet().to_json())):
            assert not rho.mat.flags.writeable


@pytest.mark.parametrize("d_a, d_b, what", [(0, 2, "d_a"), (2, 0, "d_b"), (-1, 2, "d_a")])
def test_random_density_counts_levels_from_one(d_a, d_b, what):
    with pytest.raises(ValueError, match=f"^{what} must be >= 1, got {min(d_a, d_b)}$"):
        states.random_density(d_a, d_b, np.random.default_rng(0))


@pytest.mark.parametrize("d_a, d_b, message", [(2.5, 2, "d_a must be an integer, got 2.5"), (2, 0, "d_b must be >= 1, got 0"), (2, 2.0, "d_b must be an integer, got 2.0")])
def test_random_pure_product_checks_both_dimensions_before_a_draw(d_a, d_b, message):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        states.random_pure_product(d_a, d_b, rng)
    assert rng.random() == np.random.default_rng(0).random()
