import re

import numpy as np
import pytest

from nonlocal_lab import filters, measure, qmat, states
from nonlocal_lab.qmat import (
    SX,
    SY,
    SZ,
    basis_ket,
    flip,
    hermitian_eig,
    is_density,
    partial_trace,
    partial_transpose,
    projector,
    tensor,
)

rng = np.random.default_rng(20240811)


def rand_c(d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def rand_herm(d):
    a = rand_c(d)
    return a + a.conj().T


class TestArgumentChecks:
    """The two helpers that check every integer and bounded real argument."""

    @pytest.mark.parametrize("d", [2, np.int64(2), True, 7])
    def test_integer_at_or_above_the_floor(self, d):
        assert qmat._check_dim(d, lo=1) == int(d)

    @pytest.mark.parametrize("d", [1, 0, -3, np.int64(1), False])
    def test_integer_below_the_floor(self, d):
        with pytest.raises(ValueError, match=f"n must be >= 2, got {int(d)}"):
            qmat._check_dim(d, "n", 2)

    @pytest.mark.parametrize("d", [2.0, "2", None, float("nan")])
    def test_non_integer_is_named_before_the_floor(self, d):
        with pytest.raises(ValueError, match=f"n must be an integer, got {d!r}"):
            qmat._check_dim(d, "n", 2)

    @pytest.mark.parametrize("x", [0, 0.25, 1, np.float64(0.5), np.int64(1), True])
    def test_real_in_a_closed_interval(self, x):
        out = qmat._check_real(x, 0, 1, "q")
        assert type(out) is float and out == x

    @pytest.mark.parametrize("x", [-0.1, 1.5, float("nan"), float("inf"), "0.5", None, 0.5j, np.array([0.5])])
    def test_anything_else_against_a_closed_interval(self, x):
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\], got "):
            qmat._check_real(x, 0, 1, "q")

    @pytest.mark.parametrize(
        "ends, inside, outside", [("(]", [1, 0.5], [0]), ("[)", [0, 0.5], [1]), ("()", [0.5, 1e-300], [0, 1])]
    )
    def test_open_ends(self, ends, inside, outside):
        for x in inside:
            assert qmat._check_real(x, 0, 1, "q", ends) == x
        for x in outside:
            with pytest.raises(ValueError, match=rf"q must lie in \{ends[0]}0, 1\{ends[1]}, got {x}"):
                qmat._check_real(x, 0, 1, "q", ends)


def _rule(what, want, got):
    """The message of qmat._check_operator, as a full-match regex."""
    return "^" + re.escape(f"{what} must be an array of numbers of shape {want}, got shape {got}") + "$"


class TestCheckOperator:
    """The third input rule: every matrix argument is a square matrix, of a
    given side if one is named, or with stack also a (k, n, n) stack."""

    @pytest.mark.parametrize("m", [np.eye(3), [[1, 0], [0, 1]], np.ones((1, 1)), np.eye(2, dtype=np.float32)])
    def test_square_matrices_pass_as_complex(self, m):
        a = qmat._check_operator(m, "m")
        assert a.dtype == complex and a.shape == np.shape(m)
        assert np.array_equal(a, np.asarray(m))

    def test_a_complex_array_is_returned_as_is(self):
        m = np.eye(2, dtype=complex)
        assert qmat._check_operator(m, "m") is m
        assert qmat._check_operator(np.array([m, m]), "m", 2, stack=True).shape == (2, 2, 2)
        assert qmat._check_operator(np.zeros((0, 2, 2)), "m", stack=True).shape == (0, 2, 2)

    @pytest.mark.parametrize(
        "m, side, stack, want, got",
        [
            (np.ones(3), None, False, "(n, n)", "(3,)"),
            (np.ones((2, 3)), None, False, "(n, n)", "(2, 3)"),
            (np.ones((2, 2, 2)), None, False, "(n, n)", "(2, 2, 2)"),
            (np.ones((1, 1, 2, 2)), None, True, "(n, n) or (k, n, n)", "(1, 1, 2, 2)"),
            (np.ones((0, 0)), None, False, "(n, n)", "(0, 0)"),
            (5.0, None, False, "(n, n)", "()"),
            (None, None, False, "(n, n)", "()"),
            (np.eye(3), 2, False, "(2, 2)", "(3, 3)"),
            (np.ones((2, 3, 3)), 2, True, "(2, 2) or (k, 2, 2)", "(2, 3, 3)"),
            ([np.eye(2), np.eye(3)], None, True, "(n, n) or (k, n, n)", "[(2, 2), (3, 3)]"),
            ([np.eye(2), [[1, 0], [0]]], None, True, "(n, n) or (k, n, n)", "[(2, 2), [(2,), (1,)]]"),
            ([["a", "b"], ["c", "d"]], None, False, "(n, n)", "(2, 2)"),
        ],
        ids=["ket", "rectangular", "stack-not-allowed", "rank-4", "empty", "scalar", "None", "side", "stack-side", "ragged",
             "ragged-within", "not-numbers"],
    )
    def test_anything_else_is_named(self, m, side, stack, want, got):
        with pytest.raises(ValueError, match=_rule("k_a", want, got)):
            qmat._check_operator(m, "k_a", side, stack)

    @pytest.mark.parametrize(
        "call, what, want, got",
        [
            (lambda: hermitian_eig(np.ones((2, 3))), "m", "(n, n)", "(2, 3)"),
            (lambda: is_density(np.ones(3)), "m", "(n, n) or (k, n, n)", "(3,)"),
            (lambda: partial_trace(np.eye(4), 2, 3), "m", "(6, 6)", "(4, 4)"),
            (lambda: partial_transpose(np.ones((6, 6, 1)), 2, 3), "m", "(6, 6)", "(6, 6, 1)"),
            (lambda: states.DensityMatrix(np.ones(4) / 4, 2, 2), "mat", "(4, 4)", "(4,)"),
            (lambda: states.DensityMatrix(np.eye(4)[None] / 4, 2, 2), "mat", "(4, 4)", "(1, 4, 4)"),
            (lambda: states.lift_state(states.singlet(), np.eye(3) / 3, np.eye(2) / 2), "sigma", "(2, 2)", "(3, 3)"),
            (lambda: measure.Povm([1.0]), "POVM elements", "(n, n) or (k, n, n)", "(1,)"),
            (lambda: measure.Povm([np.ones((2, 3))]), "POVM elements", "(n, n) or (k, n, n)", "(1, 2, 3)"),
            (lambda: measure.Povm([np.eye(2), np.eye(3)]), "POVM elements", "(n, n) or (k, n, n)", "[(2, 2), (3, 3)]"),
            (lambda: measure.born_table(states.singlet(), [np.eye(3)], [np.eye(2)]), "elements_a", "(2, 2) or (k, 2, 2)", "(1, 3, 3)"),
            (lambda: measure.born_table(states.singlet(), np.eye(2), np.ones(2)), "elements_b", "(2, 2) or (k, 2, 2)", "(2,)"),
            (lambda: filters.LocalFilter(np.eye(2), np.ones((2, 3))), "k_b", "(n, n) or (k, n, n)", "(2, 3)"),
            (lambda: filters.apply_filters(states.rho_e(0.5), filters.LocalFilter(np.eye(2), np.eye(2))), "k_a", "(3, 3) or (k, 3, 3)", "(2, 2)"),
        ],
        ids=["hermitian_eig", "is_density", "partial_trace", "partial_transpose", "DensityMatrix", "DensityMatrix-stack",
             "lift_state", "Povm-scalar", "Povm-rectangular", "Povm-ragged", "born_table-side", "born_table-ket",
             "LocalFilter", "apply_filters"],
    )
    def test_every_matrix_argument_goes_through_it(self, call, what, want, got):
        with pytest.raises(ValueError, match=_rule(what, want, got)):
            call()

    def test_a_shape_is_checked_before_any_eigensolve(self, monkeypatch):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve before the shape check")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        for call in (lambda: hermitian_eig(np.ones((2, 3))), lambda: is_density(np.ones(3)), lambda: measure.Povm([np.ones((2, 3))]),
                     lambda: states.DensityMatrix(np.ones(4) / 4, 2, 2)):
            with pytest.raises(ValueError, match="must be an array of numbers of shape"):
                call()

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_hermiticity_error_is_inf_without_a_warning(self):
        m = np.array([[0.25 + 1e308j]])
        assert qmat.hermiticity_error(m) == np.inf
        assert not is_density(m)


class TestFrozen:
    """What a validated value holds is read-only, and a copy only where
    np.asarray would hand back the caller's memory."""

    def test_the_callers_array_is_copied(self):
        for m in (np.eye(2, dtype=complex), np.eye(3, dtype=complex)[:2, :2]):
            a = qmat._frozen(np.asarray(m, dtype=complex), m)
            assert not a.flags.writeable and not np.shares_memory(a, m)
            m[0, 0] = 7
            assert a[0, 0] == 1

    def test_a_converted_array_is_kept_without_a_copy(self):
        for m in ([[1.0, 0.0], [0.0, 1.0]], np.eye(2)):
            a = np.asarray(m, dtype=complex)
            assert qmat._frozen(a, m) is a and not a.flags.writeable


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_trace_multiplicative(self):
        for _ in range(20):
            a, b = rand_c(3), rand_c(3)
            assert np.isclose(np.trace(tensor(a, b)), np.trace(a) * np.trace(b), atol=1e-12)

    def test_sigma_z_pair_on_01(self):
        # oracle: sigma_z (x) sigma_z written out by hand in the product basis
        zz = np.diag([1, -1, -1, 1]).astype(complex)
        assert np.allclose(tensor(SZ, SZ), zz)
        ket01 = basis_ket(4, 1)
        assert np.allclose(tensor(SZ, SZ) @ ket01, -ket01)

    def test_bilinear(self):
        a, b, c = rand_c(2), rand_c(3), rand_c(3)
        lhs = tensor(a, 2.5 * b + c)
        rhs = 2.5 * tensor(a, b) + tensor(a, c)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_associative(self):
        a, b, c = rand_c(2), rand_c(2), rand_c(2)
        lhs = tensor(tensor(a, b), c)
        rhs = tensor(a, tensor(b, c))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("shapes", [((3,), (2,)), ((1,), (4,)), ((2, 2), (2, 2)), ((3, 3), (2, 2)), ((2, 3), (4, 1)), ((1, 5), (3, 2))])
    def test_bytes_equal_kron(self, shapes):
        """Both form each entry as the one product a_ij b_kl; signed zeros,
        in either part of either factor, come out as np.kron's."""
        for _ in range(50):
            a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
            for m in (a, b):
                m.real[rng.random(m.shape) < 0.3] = -0.0
                m.imag[rng.random(m.shape) < 0.3] = -0.0
                m.imag[rng.random(m.shape) < 0.2] = 0.0
            assert tensor(a, b).tobytes() == np.kron(a, b).tobytes()
            assert tensor(a, b).shape == np.kron(a, b).shape
        real = (-np.eye(2), np.eye(2))  # real factors with -0.0 entries, taken as complex
        assert tensor(*real).tobytes() == np.kron(*(np.asarray(m, dtype=complex) for m in real)).tobytes()

    @pytest.mark.parametrize("shapes", [((3, 2, 2), (3, 2, 2)), ((4, 3, 3), (4, 2, 2)), ((2, 2, 3), (2, 4, 1)), ((1, 5, 5), (1, 3, 3))])
    def test_stacks_give_the_bytes_of_each_pairs_kron(self, shapes):
        """Two equal-length stacks give np.kron of each pair, signed zeros
        included, as one (k, ., .) stack."""
        for _ in range(50):
            a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
            for m in (a, b):
                m.real[rng.random(m.shape) < 0.3] = -0.0
                m.imag[rng.random(m.shape) < 0.3] = -0.0
            got = tensor(a, b)
            assert got.shape == (len(a), *np.kron(a[0], b[0]).shape)
            assert got.tobytes() == np.stack([np.kron(x, y) for x, y in zip(a, b)]).tobytes()

    @pytest.mark.parametrize(
        "a, b",
        [
            (1.0, 2.0), (np.eye(2), np.ones(2)), (np.ones(2), np.eye(2)), (np.eye(2), 3.0),
            (np.ones((2, 2, 2)), np.ones((3, 2, 2))), (np.ones((2, 2, 2)), np.eye(2)), (np.eye(2), np.ones((1, 2, 2))),
            (np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 2))),
        ],
    )
    def test_other_ranks_are_rejected(self, a, b):
        with pytest.raises(ValueError, match="tensor takes two kets, two operators or two equal-length stacks of operators, got shapes"):
            tensor(a, b)


class TestFlip:
    def test_trace_is_d(self):
        # only the d vectors |ii> are fixed, each contributing 1
        assert np.isclose(np.trace(flip(3)), 3.0)

    def test_swap_trace_identity(self):
        v = flip(2)
        for _ in range(20):
            a, b = rand_c(2), rand_c(2)
            assert np.isclose(np.trace(v @ tensor(a, b)), np.trace(a @ b), atol=1e-12)

    def test_defining_action(self):
        ket01 = basis_ket(4, 1)
        ket10 = basis_ket(4, 2)
        assert np.array_equal(flip(2) @ ket01, ket10)

    def test_involution_and_hermitian(self):
        for d in (2, 3, 4):
            v = flip(d)
            assert np.array_equal(v @ v, np.eye(d * d).astype(complex))
            assert np.array_equal(v, v.conj().T)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            flip(1)

    def test_matches_elementwise_construction(self):
        for d in range(2, 9):
            v = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    v[j * d + i, i * d + j] = 1.0
            assert flip(d).tobytes() == v.tobytes()


class TestPartialTrace:
    def test_singlet_reduced_is_maximally_mixed(self):
        psi = (basis_ket(4, 1) - basis_ket(4, 2)) / np.sqrt(2)
        reduced = partial_trace(projector(psi), 2, 2, side="B")
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_product_operator(self):
        for _ in range(10):
            a, b = rand_c(2), rand_c(3)
            assert np.allclose(partial_trace(tensor(a, b), 2, 3, "B"), a * np.trace(b), atol=1e-12)
            assert np.allclose(partial_trace(tensor(a, b), 2, 3, "A"), b * np.trace(a), atol=1e-12)

    def test_singlet_noise_mixture_reduced(self):
        # term-by-term oracle: q tr_B(singlet) + (1-q) |0><0| tr(I/2)
        q = 0.37
        psi = (basis_ket(4, 1) - basis_ket(4, 2)) / np.sqrt(2)
        m = q * projector(psi) + (1 - q) * tensor(projector(basis_ket(2, 0)), np.eye(2) / 2)
        expected = q * np.eye(2) / 2 + (1 - q) * projector(basis_ket(2, 0))
        assert np.allclose(partial_trace(m, 2, 2, "B"), expected, atol=1e-12)

    def test_trace_preserved(self):
        m = rand_herm(6)
        assert np.isclose(np.trace(partial_trace(m, 2, 3, "A")), np.trace(m), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), 2, 2, "B")


class TestPartialTranspose:
    def test_singlet(self):
        # oracle: hand-transposed 4x4 matrix of the singlet projector
        psi = (basis_ket(4, 1) - basis_ket(4, 2)) / np.sqrt(2)
        expected = 0.5 * np.array(
            [
                [0, 0, 0, -1],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [-1, 0, 0, 0],
            ],
            dtype=complex,
        )
        pt = partial_transpose(projector(psi), 2, 2, "B")
        assert np.allclose(pt, expected, atol=1e-12)
        assert np.isclose(np.linalg.eigvalsh(pt).min(), -0.5, atol=1e-12)

    def test_product_spectrum(self):
        a, b = rand_herm(2), rand_herm(3)
        pt = partial_transpose(tensor(a, b), 2, 3, "B")
        ref = tensor(a, b.T)
        assert np.allclose(np.linalg.eigvalsh(pt), np.linalg.eigvalsh(ref), atol=1e-10)

    def test_singlet_noise_mixture_is_npt(self):
        q = 0.2
        psi = (basis_ket(4, 1) - basis_ket(4, 2)) / np.sqrt(2)
        m = q * projector(psi) + (1 - q) * tensor(projector(basis_ket(2, 0)), np.eye(2) / 2)
        assert np.linalg.eigvalsh(partial_transpose(m, 2, 2, "B")).min() < 0

    def test_hermiticity_preserved(self):
        m = rand_herm(4)
        pt = partial_transpose(m, 2, 2, "A")
        assert qmat.hermiticity_error(pt) < 1e-12


class TestHermitianEig:
    def test_sigma_x(self):
        vals, vecs = hermitian_eig(SX)
        assert np.allclose(vals, [1, -1])
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        # eigenvectors defined up to phase: compare projectors
        assert np.allclose(projector(vecs[:, 0]), projector(plus), atol=1e-12)

    def test_identity(self):
        vals, _ = hermitian_eig(np.eye(4))
        assert np.allclose(vals, np.ones(4))

    def test_spin_observable_spectrum(self):
        for _ in range(10):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            obs = v[0] * SX + v[1] * SY + v[2] * SZ
            vals, _ = hermitian_eig(obs)
            assert np.allclose(vals, [1, -1], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        for d in (2, 3, 6):
            m = rand_herm(d)
            vals, vecs = hermitian_eig(m)
            recon = (vecs * vals) @ vecs.conj().T
            assert np.max(np.abs(recon - m)) < 1e-10 * max(1, np.abs(vals).max())
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) < 1e-10
            assert np.all(np.diff(vals) <= 1e-12)

    def test_degenerate_subspace_projector_is_stable(self):
        # eigenspace projector must not depend on the basis chosen inside it
        m = np.diag([2.0, 2.0, 1.0]).astype(complex)
        u = qmat.haar_unitary(3, rng)
        vals, vecs = hermitian_eig(u @ m @ u.conj().T)
        block = vecs[:, :2] @ vecs[:, :2].conj().T
        expected = u @ np.diag([1.0, 1.0, 0.0]) @ u.conj().T
        assert np.max(np.abs(block - expected)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.full((2, 2), np.nan), np.array([[0.5, np.inf], [np.inf, 0.5]])])
    def test_rejects_non_finite(self, bad):
        # NaN compares false with every tolerance, so the check reads `not err <= tol`
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(bad)


class TestIsDensity:
    def test_maximally_mixed(self):
        assert is_density(np.eye(2) / 2)

    def test_sigma_z_is_not(self):
        check = is_density(SZ)
        assert not check
        assert check.min_eigenvalue < -1e-9

    def test_diagnostics(self):
        check = is_density(np.eye(2))
        assert not check
        assert check.trace_error > 0.9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bad", [np.full((2, 2), np.nan), np.array([[0.5, np.inf], [np.inf, 0.5]]), np.diag([np.inf, -np.inf])]
    )
    def test_non_finite_is_not(self, bad):
        check = is_density(bad)
        assert not check
        assert np.isnan(check.hermiticity_error)

    def test_stack_reports_its_worst_item(self):
        good, low, trace = np.eye(2) / 2, np.diag([1.2, -0.2]), np.diag([0.5, 0.6])
        assert is_density(np.array([good, good]))
        check = is_density(np.array([good, low, trace, good]))
        assert not check
        assert check.min_eigenvalue == -0.2
        assert check.trace_error == abs(1.1 - 1.0)
        skew = good + np.array([[0, 1e-6], [0, 0]])
        assert qmat.hermiticity_error(np.array([good, skew, good])) == 1e-6
        assert np.isnan(is_density(np.array([good, np.full((2, 2), np.nan)])).hermiticity_error)
        assert is_density(np.zeros((0, 2, 2)))  # no item fails

    def test_stack_of_one_is_the_single_check(self):
        for _ in range(200):
            g = rand_c(4)
            m = g @ g.conj().T
            m = m / np.trace(m) + 1e-9 * rand_herm(4)
            single, stacked = is_density(m), is_density(m[None])
            assert repr(single) == repr(stacked)
