import numpy as np
import pytest

from nonlocal_lab import states
from nonlocal_lab.measure import (
    Povm,
    ProjectiveMeasurement,
    born_table,
    obs_from_bloch,
    outcome_sum,
    povm_refine,
    random_povm,
    random_projective,
    unit_bloch,
)
from nonlocal_lab.qmat import PAULIS, SZ, basis_ket, haar_ket, projector, tensor

rng = np.random.default_rng(515)


def coarse_grain(table, back_map_a, back_map_b, ka, kb):
    """A refined-outcome table summed onto coarse outcomes on both axes."""
    return outcome_sum(back_map_b, kb)(outcome_sum(back_map_a, ka)(np.asarray(table, dtype=float), 0), 1)


def rand_unit3():
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def spin(v):
    """The spin matrix v . sigma."""
    return sum(vi * s for vi, s in zip(v, PAULIS))


class TestObsFromBloch:
    def test_z_axis(self):
        meas = obs_from_bloch([0, 0, 1])
        assert np.allclose(meas.projectors[0] - meas.projectors[1], SZ)
        assert np.allclose(meas.projectors[0], projector(basis_ket(2, 0)))
        assert np.allclose(meas.projectors[1], projector(basis_ket(2, 1)))
        assert meas.labels == [1.0, -1.0]

    def test_projectors_complete(self):
        for _ in range(10):
            meas = obs_from_bloch(rand_unit3())
            assert np.allclose(meas.projectors[0] + meas.projectors[1], np.eye(2), atol=1e-12)

    def test_pure_state_probabilities(self):
        v = rand_unit3()
        meas = obs_from_bloch(v)
        psi = haar_ket(2, rng)
        expect = np.vdot(psi, spin(v) @ psi).real
        p_plus = np.vdot(psi, meas.projectors[0] @ psi).real
        p_minus = np.vdot(psi, meas.projectors[1] @ psi).real
        assert np.isclose(p_plus, (1 + expect) / 2, atol=1e-12)
        assert np.isclose(p_plus + p_minus, 1.0, atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            obs_from_bloch([0, 0, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            obs_from_bloch([bad, 0, 1])
        with pytest.raises(ValueError):
            unit_bloch([bad, 0, 1])


class TestBornJoint:
    """Single cells tr(rho A (x) B) of born_table."""

    def test_singlet_perfect_anticorrelation(self):
        v = rand_unit3()
        p_plus = obs_from_bloch(v).projectors[0]
        assert np.isclose(born_table(states.singlet(), [p_plus], [p_plus])[0, 0], 0.0, atol=1e-12)

    def test_werner_closed_form(self):
        # oracle: ((d - phi) + (d phi - 1) tr(Pa Qb)) / (d^3 - d) for rank-1 pairs
        for d, phi in ((2, -0.25), (3, 0.6)):
            w = states.werner_phi(d, phi)
            pa = projector(haar_ket(d, rng))
            qb = projector(haar_ket(d, rng))
            overlap = np.trace(pa @ qb).real
            expected = ((d - phi) + (d * phi - 1) * overlap) / (d**3 - d)
            assert np.isclose(born_table(w, [pa], [qb])[0, 0], expected, atol=1e-12)

    def test_identity_pair(self):
        rho = states.random_density(2, 3, rng)
        assert np.isclose(born_table(rho, [np.eye(2)], [np.eye(3)])[0, 0], 1.0, atol=1e-12)

    def test_sums_to_one_over_complete_pair(self):
        rho = states.random_density(3, 2, rng)
        ma = random_projective(3, rng)
        nb = random_povm(4, 2, rng)
        total = born_table(rho, ma.projectors, nb.elements).sum()
        assert np.isclose(total, 1.0, atol=1e-9)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            born_table(states.singlet(), [np.eye(3)], [np.eye(2)])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            born_table(states.singlet(), [np.full((2, 2), np.nan)], [np.eye(2)])


def kron_table(rho, elements_a, elements_b):
    # reference: one Kronecker product and full trace per cell
    return np.array([[np.trace(rho.mat @ np.kron(a, b)).real for b in elements_b] for a in elements_a])


class TestBornTable:
    @pytest.mark.parametrize("d_a,d_b", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 4), (5, 5), (6, 6)])
    def test_matches_kron_reference(self, d_a, d_b):
        for _ in range(3):
            rho = states.random_density(d_a, d_b, rng)
            ma = random_povm(3, d_a, rng).elements
            nb = random_povm(4, d_b, rng).elements
            table = born_table(rho, ma, nb)
            assert table.shape == (3, 4)
            assert np.max(np.abs(table - kron_table(rho, ma, nb))) < 1e-12

    @pytest.mark.parametrize(
        "elements_a,elements_b,match",
        [
            ([np.eye(2) / 2, np.full((2, 2), np.nan)], [np.eye(2)], "not finite"),
            ([np.eye(2)], [np.eye(2) / 2, np.full((2, 2), np.inf)], "not finite"),
            ([1j * np.eye(2)], [np.eye(2)], "non-real"),
            ([2 * np.eye(2)], [np.eye(2)], "outside"),
            ([np.eye(2) / 2, np.eye(3)], [np.eye(2)], "do not match state"),
            ([np.eye(2)], [np.eye(2), np.eye(4)], "do not match state"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejects_invalid_tables(self, elements_a, elements_b, match):
        with pytest.raises(ValueError, match=match):
            born_table(states.singlet(), elements_a, elements_b)


class TestExpectationJoint:
    """E(AB) of two spin measurements as labels_a @ born_table @ labels_b."""

    def test_singlet_gives_minus_cosine(self):
        x, y = rand_unit3(), rand_unit3()
        ma, mb = obs_from_bloch(x), obs_from_bloch(y)
        e = np.array(ma.labels) @ born_table(states.singlet(), ma.projectors, mb.projectors) @ np.array(mb.labels)
        assert np.isclose(e, -float(x @ y), atol=1e-10)

    def test_product_state_factorizes(self):
        rho_a = states.random_density(1, 2, rng).mat
        rho_b = states.random_density(1, 2, rng).mat
        rho = states.DensityMatrix(tensor(rho_a, rho_b), 2, 2)
        x, y = rand_unit3(), rand_unit3()
        ma, mb = obs_from_bloch(x), obs_from_bloch(y)
        e = np.array(ma.labels) @ born_table(rho, ma.projectors, mb.projectors) @ np.array(mb.labels)
        ea = np.trace(rho_a @ spin(x)).real
        eb = np.trace(rho_b @ spin(y)).real
        assert np.isclose(e, ea * eb, atol=1e-10)

    def test_half_singlet_mixture(self):
        x, y = rand_unit3(), rand_unit3()
        ma, mb = obs_from_bloch(x), obs_from_bloch(y)
        table = born_table(states.werner2x2(0.5), ma.projectors, mb.projectors)
        e = np.array(ma.labels) @ table @ np.array(mb.labels)
        assert np.isclose(e, -float(x @ y) / 2, atol=1e-10)

    def test_matches_trace_formula(self):
        for _ in range(5):
            rho = states.random_density(2, 2, rng)
            x, y = rand_unit3(), rand_unit3()
            ma, mb = obs_from_bloch(x), obs_from_bloch(y)
            e = np.array(ma.labels) @ born_table(rho, ma.projectors, mb.projectors) @ np.array(mb.labels)
            direct = np.trace(rho.mat @ tensor(spin(x), spin(y))).real
            assert np.isclose(e, direct, atol=1e-10)


class TestPovmRefine:
    def test_projective_input_is_fixed_point(self):
        meas = random_projective(3, rng)
        refined, back = povm_refine(Povm(list(meas.projectors)))[:2]
        assert back == [0, 1, 2]
        for orig, ref in zip(meas.projectors, refined.elements):
            assert np.max(np.abs(orig - ref)) < 1e-10

    def test_coin_flip_povm(self):
        # oracle: eigendecomposition of I/2 gives two half-weight projectors per element
        refined, back = povm_refine(Povm([np.eye(2) / 2, np.eye(2) / 2]))[:2]
        assert len(refined.elements) == 4
        assert back == [0, 0, 1, 1]
        for el in refined.elements:
            assert np.isclose(np.trace(el).real, 0.5, atol=1e-12)
            vals = np.linalg.eigvalsh(el)
            assert np.isclose(vals[-1], 0.5, atol=1e-12)
            assert abs(vals[0]) < 1e-12

    def test_weights_sum_to_dimension(self):
        for d in (2, 3):
            povm = random_povm(4, d, rng)
            refined, _ = povm_refine(povm)[:2]
            weights = [np.trace(el).real for el in refined.elements]
            assert np.isclose(sum(weights), d, atol=1e-10)
            for w, el in zip(weights, refined.elements):
                assert 0 < w <= 1 + 1e-10
                assert np.isclose(np.linalg.eigvalsh(el)[-1], w, atol=1e-10)

    def test_weights_and_kets_rebuild_the_pieces(self):
        # element 0 is 0.7 times a random rank-2 projector: two pieces of weight 0.7
        ps = random_projective(3, np.random.default_rng(518)).projectors
        p0 = ps[0] + ps[1]
        povm = Povm([0.7 * p0, np.eye(3) - 0.7 * p0])
        refined, back, weights, kets = povm_refine(povm)
        assert back == [0, 0, 1, 1, 1]
        assert weights.shape == (5,) and kets.shape == (5, 3)
        assert np.allclose(weights[:2], 0.7, atol=1e-12)
        assert np.allclose(np.linalg.norm(kets, axis=1), 1, atol=1e-12)
        for el, w, v in zip(refined.elements, weights, kets):
            assert np.max(np.abs(w * np.outer(v, v.conj()) - el)) <= 1e-12
        for i, e in enumerate(povm.elements):
            pieces = sum(w * np.outer(v, v.conj()) for w, v, j in zip(weights, kets, back) if j == i)
            assert np.max(np.abs(pieces - e)) <= 1e-12

    def test_coarse_probabilities_preserved(self):
        rho = states.random_density(2, 2, rng)
        pa = random_povm(3, 2, rng)
        pb = random_povm(2, 2, rng)
        ra, ba = povm_refine(pa)[:2]
        rb, bb = povm_refine(pb)[:2]
        fine = born_table(rho, ra.elements, rb.elements)
        coarse = coarse_grain(fine, ba, bb, 3, 2)
        assert np.max(np.abs(coarse - born_table(rho, pa.elements, pb.elements))) < 1e-10

    def test_zero_element_gets_zero_row(self):
        gen = np.random.default_rng(516)
        rho = states.random_density(3, 3, gen)
        a = random_povm(2, 3, gen).elements
        pa = Povm([a[0], np.zeros((3, 3)), a[1]])
        pb = Povm([np.zeros((3, 3)), *random_povm(2, 3, gen).elements])
        ra, ba = povm_refine(pa)[:2]
        rb, bb = povm_refine(pb)[:2]
        assert 1 not in ba and 0 not in bb
        coarse = coarse_grain(born_table(rho, ra.elements, rb.elements), ba, bb, 3, 3)
        assert coarse.shape == (3, 3)
        assert not coarse[1].any() and not coarse[:, 0].any()
        assert np.max(np.abs(coarse - born_table(rho, pa.elements, pb.elements))) < 1e-10

    def test_unsorted_back_maps(self):
        # unsorted maps, a negative index and an outcome with no cell, as the loop allowed
        table = np.random.default_rng(517).random((5, 4))
        ba, bb = [2, 0, 2, -1, 0], [1, 1, 0, 1]
        expected = np.zeros((4, 3))
        for i, a in enumerate(ba):
            for j, b in enumerate(bb):
                expected[a, b] += table[i, j]
        assert np.allclose(coarse_grain(table, ba, bb, 4, 3), expected, rtol=0, atol=1e-15)
        assert np.array_equal(coarse_grain(table, range(5), range(4), 5, 4), table)


class TestValidation:
    def test_projective_rejects_non_orthogonal(self):
        p = projector(haar_ket(2, rng))
        with pytest.raises(ValueError):
            ProjectiveMeasurement([p, p], [1, -1])

    def test_projective_names_first_failing_pair(self):
        e = np.eye(3)
        p = [projector(e[:, k]) for k in range(3)]
        # the first failing pair in (i, j) order is named
        with pytest.raises(ValueError, match=r"^projectors 1,1 are not orthogonal idempotents$"):
            ProjectiveMeasurement([p[0], 2 * p[1], p[2]], [0, 1, 2])
        v = (e[:, 1] + e[:, 2]) / np.sqrt(2)
        with pytest.raises(ValueError, match=r"^projectors 1,2 are not orthogonal idempotents$"):
            ProjectiveMeasurement([p[0], p[1], projector(v)], [0, 1, 2])
        with pytest.raises(ValueError, match="do not sum to the identity"):
            ProjectiveMeasurement([p[0], p[1]], [0, 1])

    def test_empty_measurements_are_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ProjectiveMeasurement([], [])
        with pytest.raises(ValueError, match="at least one"):
            Povm([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_projective_rejects_non_finite(self, bad):
        ops = [np.full((2, 2), bad), np.eye(2)]
        with pytest.raises(ValueError, match="^projectors must be finite$"):
            ProjectiveMeasurement(ops, [0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_povm_rejects_non_finite(self, bad):
        ops = [np.full((2, 2), bad), np.eye(2)]
        with pytest.raises(ValueError, match="^POVM elements must be finite$"):
            Povm(ops)

    def test_povm_rejects_incomplete(self):
        with pytest.raises(ValueError):
            Povm([np.eye(2) / 2])

    def test_povm_rejects_negative(self):
        with pytest.raises(ValueError):
            Povm([1.5 * np.eye(2), -0.5 * np.eye(2)])
