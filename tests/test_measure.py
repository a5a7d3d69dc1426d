import re
import tracemalloc

import numpy as np
import pytest

from nonlocal_lab import measure, states
from nonlocal_lab.measure import (
    Povm,
    born_table,
    obs_from_bloch,
    outcome_sum,
    povm_refine,
    random_povm,
    random_projective,
    unit_bloch,
)
from nonlocal_lab.qmat import PAULIS, SZ, basis_ket, haar_ket, haar_unitary, hermitian_eig, projector, tensor

rng = np.random.default_rng(515)


def coarse_grain(table, back_map_a, back_map_b, ka, kb):
    """A refined-outcome table summed onto coarse outcomes on both axes."""
    rows = outcome_sum(back_map_a, ka)(np.asarray(table, dtype=float))
    return outcome_sum(back_map_b, kb)(rows.T).T


def rand_unit3():
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def spin(v):
    """The spin matrix v . sigma."""
    return sum(vi * s for vi, s in zip(v, PAULIS))


class TestObsFromBloch:
    def test_z_axis(self):
        meas = obs_from_bloch([0, 0, 1])
        assert np.allclose(meas.elements[0] - meas.elements[1], SZ)
        assert np.allclose(meas.elements[0], projector(basis_ket(2, 0)))
        assert np.allclose(meas.elements[1], projector(basis_ket(2, 1)))
        assert meas.labels == [1.0, -1.0]

    def test_projectors_complete(self):
        for _ in range(10):
            meas = obs_from_bloch(rand_unit3())
            assert np.allclose(meas.elements[0] + meas.elements[1], np.eye(2), atol=1e-12)

    def test_pure_state_probabilities(self):
        v = rand_unit3()
        meas = obs_from_bloch(v)
        psi = haar_ket(2, rng)
        expect = np.vdot(psi, spin(v) @ psi).real
        p_plus = np.vdot(psi, meas.elements[0] @ psi).real
        p_minus = np.vdot(psi, meas.elements[1] @ psi).real
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


def _norm_rule_accepts(v) -> bool:
    """unit_bloch's acceptance test as written with np.linalg.norm."""
    n = np.linalg.norm(v)
    return bool(np.isfinite(n) and abs(n - 1.0) <= 1e-12)


class TestUnitBloch:
    def test_accepts_exactly_as_the_norm_rule_near_the_tolerance(self):
        gen = np.random.default_rng(1212)
        dirs = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0])]
        dirs += [u / np.linalg.norm(u) for u in gen.standard_normal((30, 3))]
        scales = []
        for edge in (1 - 1e-12, 1 + 1e-12):
            up = down = edge
            scales.append(edge)
            for _ in range(6):
                up, down = np.nextafter(up, 2.0), np.nextafter(down, 0.0)
                scales += [up, down]
        verdicts = set()
        for u in dirs:
            for s in scales:
                v = u * s
                if _norm_rule_accepts(v):
                    verdicts.add(True)
                    assert np.array_equal(unit_bloch(v), v)
                else:
                    verdicts.add(False)
                    with pytest.raises(ValueError, match="must be a finite unit 3-vector"):
                        unit_bloch(v)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "bad",
        [[np.nan, 0, 1], [np.nan] * 3, [np.inf, 0, 0], [-np.inf, 0, 0], [np.inf, -np.inf, 0],
         [0.6, 0.8], [1.0, 0, 0, 0], [[1.0, 0, 0]], 1.0],
        ids=["nan", "all-nan", "inf", "-inf", "inf-inf", "shape-2", "shape-4", "shape-1x3", "shape-0d"],
    )
    def test_rejects_non_finite_and_misshapen_input(self, bad):
        with pytest.raises(ValueError, match="must be a finite unit 3-vector"):
            unit_bloch(bad)


class TestBornJoint:
    """Single cells tr(rho A (x) B) of born_table."""

    def test_singlet_perfect_anticorrelation(self):
        v = rand_unit3()
        p_plus = obs_from_bloch(v).elements[0]
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
        total = born_table(rho, ma.elements, nb.elements).sum()
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

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_realigned_product(self, d):
        # reference: the whole realigned product rows_a R rows_b^T, with rows
        # A.T.ravel() and R[(a, c), (b, d)] = rho[(a, b), (c, d)] built in full
        def rows(ops, d):
            return np.array(ops).reshape(len(ops), d, d).transpose(0, 2, 1).reshape(len(ops), d * d)

        def realigned(rho, elements_a, elements_b):
            da, db = rho.d_a, rho.d_b
            r = rho.mat.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
            return np.clip((rows(elements_a, da) @ r @ rows(elements_b, db).T).real, 0.0, 1.0)

        gen = np.random.default_rng(520 + d)
        cases = [
            (states.werner_local(d), random_projective(d, gen), random_projective(d, gen)),
            (states.barrett_state(d), random_povm(3, d, gen), random_povm(d + 1, d, gen)),
            (states.random_density(d, d, gen), random_projective(d, gen), random_povm(2, d, gen)),
            (states.rho_e(0.3), random_projective(3, gen), random_povm(d, 2, gen)),
            (states.random_density(2, d, gen), random_povm(d, 2, gen), random_projective(d, gen)),
        ]
        for rho, ma, mb in cases:
            table = born_table(rho, ma.elements, mb.elements)
            assert np.max(np.abs(table - realigned(rho, ma.elements, mb.elements))) <= 1e-15

    def test_holds_no_realigned_copy(self):
        # the state is built first, as a plain matrix, so that the table takes
        # the matrix path; its own arrays stay below a quarter of one d^2 x d^2
        # complex matrix, which a realigned copy would fill
        d = 24
        rho = states.DensityMatrix._trusted(states.werner_local(d).mat, d, d)
        gen = np.random.default_rng(519)
        ma, mb = random_projective(d, gen), random_projective(d, gen)
        tracemalloc.start()
        try:
            born_table(rho, ma.elements, mb.elements)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d**4 * 16 / 4

    @pytest.mark.parametrize(
        "elements_a,elements_b,match",
        [
            ([np.eye(2) / 2, np.full((2, 2), np.nan)], [np.eye(2)], "not finite"),
            ([np.eye(2)], [np.eye(2) / 2, np.full((2, 2), np.inf)], "not finite"),
            ([1j * np.eye(2)], [np.eye(2)], "non-real"),
            ([2 * np.eye(2)], [np.eye(2)], "outside"),
            ([np.eye(2) / 2, np.eye(3)], [np.eye(2)], r"^elements_a must be .* of shape \(2, 2\) or \(k, 2, 2\), got shape \[\(2, 2\), \(3, 3\)\]$"),
            ([np.eye(2)], [np.eye(2), np.eye(4)], r"^elements_b must be .* of shape \(2, 2\) or \(k, 2, 2\), got shape \[\(2, 2\), \(4, 4\)\]$"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejects_invalid_tables(self, elements_a, elements_b, match):
        with pytest.raises(ValueError, match=match):
            born_table(states.singlet(), elements_a, elements_b)


def _plain(rho):
    """The state as a plain DensityMatrix, whose table takes the matrix path."""
    return states.DensityMatrix._trusted(rho.mat, rho.d_a, rho.d_b)


class TestWernerClosedForm:
    """born_table of a werner_phi state is [(d - phi) tr A tr B + (d phi - 1)
    tr(AB)] / (d^3 - d), from (d, phi) alone, through the checks of the
    matrix path."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_the_matrix_path(self, d):
        gen = np.random.default_rng(600 + d)
        phis = (-1.0, states.werner_local_phi(d), -0.3, 0.0, 0.5, 1.0)
        for phi in (*phis, states.barrett_state(d).phi):
            rho = states.werner_phi(d, phi)
            pairs = [
                (random_projective(d, gen), random_projective(d, gen)),
                (random_povm(3, d, gen), random_povm(d + 1, d, gen)),
                (random_projective(d, gen), random_povm(2, d, gen)),
            ]
            closed = [born_table(rho, ma.elements, mb.elements) for ma, mb in pairs]
            assert "mat" not in vars(rho)  # no table built the matrix
            for table, (ma, mb) in zip(closed, pairs):
                assert np.max(np.abs(table - born_table(_plain(rho), ma.elements, mb.elements))) <= 1e-15

    def test_builds_no_matrix(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("the d^2 x d^2 matrix was built")

        gen = np.random.default_rng(624)
        ma, mb = random_projective(24, gen), random_projective(24, gen)
        monkeypatch.setattr(states, "flip", built)
        for rho in (states.werner_local(24), states.barrett_state(24)):
            table = born_table(rho, ma.elements, mb.elements)
            assert table.shape == (24, 24) and abs(table.sum() - 1) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("phi", [-1.0, 0.2, 1.0])
    def test_rejects_what_the_matrix_path_rejects(self, phi):
        """The same error, but for the digits of a value, on elements that are
        not finite, overflow, give non-real or out-of-range probabilities, or
        have the wrong shape."""
        half, big = np.eye(2) / 2, np.full((2, 2), 1e300)
        cases = [
            ([half, np.full((2, 2), np.nan)], [np.eye(2)]),
            ([np.eye(2)], [half, np.full((2, 2), -np.inf)]),
            ([big], [big]),
            ([1j * np.eye(2)], [np.eye(2)]),
            ([np.array([[0.0, 1.0], [0.0, 0.0]])], [np.array([[0.0, 0.0], [1j, 0.0]])]),
            ([3 * np.eye(2)], [np.eye(2)]),
            ([-3 * np.eye(2)], [np.eye(2)]),
            ([half, np.eye(3)], [np.eye(2)]),
            ([np.eye(2)], np.eye(4)),
            ([np.eye(2)], []),
        ]
        rho = states.werner_phi(2, phi)

        def error(state, ea, eb):
            with pytest.raises(ValueError) as err:
                born_table(state, ea, eb)
            return re.sub(r"\(?-?\d[\d.e+-]*j?\)?", "#", str(err.value))

        for ea, eb in cases:
            assert error(rho, ea, eb) == error(_plain(rho), ea, eb)


class TestRandomProjective:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 24])
    def test_is_the_checked_construction_bit_for_bit(self, d):
        """The projectors of the Haar basis' columns, the checked Povm's bytes
        and labels, held read-only without Povm's checks."""
        got = random_projective(d, np.random.default_rng(d))
        ref = Povm([projector(c) for c in haar_unitary(d, np.random.default_rng(d)).T])
        assert type(got) is Povm and got.labels == ref.labels == list(range(d))
        assert [e.tobytes() for e in got.elements] == [e.tobytes() for e in ref.elements]
        for e in got.elements:
            assert not e.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                e[0, 0] = 0.0


class TestExpectationJoint:
    """E(AB) of two spin measurements as labels_a @ born_table @ labels_b."""

    def test_singlet_gives_minus_cosine(self):
        x, y = rand_unit3(), rand_unit3()
        ma, mb = obs_from_bloch(x), obs_from_bloch(y)
        e = np.array(ma.labels) @ born_table(states.singlet(), ma.elements, mb.elements) @ np.array(mb.labels)
        assert np.isclose(e, -float(x @ y), atol=1e-10)

    def test_product_state_factorizes(self):
        rho_a = states.random_density(1, 2, rng).mat
        rho_b = states.random_density(1, 2, rng).mat
        rho = states.DensityMatrix(tensor(rho_a, rho_b), 2, 2)
        x, y = rand_unit3(), rand_unit3()
        ma, mb = obs_from_bloch(x), obs_from_bloch(y)
        e = np.array(ma.labels) @ born_table(rho, ma.elements, mb.elements) @ np.array(mb.labels)
        ea = np.trace(rho_a @ spin(x)).real
        eb = np.trace(rho_b @ spin(y)).real
        assert np.isclose(e, ea * eb, atol=1e-10)

    def test_half_singlet_mixture(self):
        x, y = rand_unit3(), rand_unit3()
        ma, mb = obs_from_bloch(x), obs_from_bloch(y)
        table = born_table(states.werner2x2(0.5), ma.elements, mb.elements)
        e = np.array(ma.labels) @ table @ np.array(mb.labels)
        assert np.isclose(e, -float(x @ y) / 2, atol=1e-10)

    def test_matches_trace_formula(self):
        for _ in range(5):
            rho = states.random_density(2, 2, rng)
            x, y = rand_unit3(), rand_unit3()
            ma, mb = obs_from_bloch(x), obs_from_bloch(y)
            e = np.array(ma.labels) @ born_table(rho, ma.elements, mb.elements) @ np.array(mb.labels)
            direct = np.trace(rho.mat @ tensor(spin(x), spin(y))).real
            assert np.isclose(e, direct, atol=1e-10)


def refined_elements(povm: Povm) -> tuple[list[np.ndarray], list[int]]:
    """The rank-1 pieces w |v><v| of povm_refine as matrices, and its back-map."""
    back_map, weights, kets = povm_refine(povm)
    return [w * projector(v) for w, v in zip(weights, kets)], back_map


class TestPovmRefine:
    def test_projective_input_is_fixed_point(self):
        meas = random_projective(3, rng)
        refined, back = refined_elements(meas)
        assert back == [0, 1, 2]
        for orig, ref in zip(meas.elements, refined):
            assert np.max(np.abs(orig - ref)) < 1e-10

    def test_coin_flip_povm(self):
        # oracle: eigendecomposition of I/2 gives two half-weight projectors per element
        refined, back = refined_elements(Povm([np.eye(2) / 2, np.eye(2) / 2]))
        assert len(refined) == 4
        assert back == [0, 0, 1, 1]
        for el in refined:
            assert np.isclose(np.trace(el).real, 0.5, atol=1e-12)
            vals = np.linalg.eigvalsh(el)
            assert np.isclose(vals[-1], 0.5, atol=1e-12)
            assert abs(vals[0]) < 1e-12

    def test_weights_sum_to_dimension(self):
        for d in (2, 3):
            povm = random_povm(4, d, rng)
            refined, _ = refined_elements(povm)
            weights = [np.trace(el).real for el in refined]
            assert np.isclose(sum(weights), d, atol=1e-10)
            for w, el in zip(weights, refined):
                assert 0 < w <= 1 + 1e-10
                assert np.isclose(np.linalg.eigvalsh(el)[-1], w, atol=1e-10)

    def test_weights_and_kets_rebuild_the_pieces(self):
        # element 0 is 0.7 times a random rank-2 projector: two pieces of weight 0.7
        ps = random_projective(3, np.random.default_rng(518)).elements
        p0 = ps[0] + ps[1]
        povm = Povm([0.7 * p0, np.eye(3) - 0.7 * p0])
        back, weights, kets = povm_refine(povm)
        assert back == [0, 0, 1, 1, 1]
        assert weights.shape == (5,) and kets.shape == (5, 3)
        assert np.allclose(weights[:2], 0.7, atol=1e-12)
        assert np.allclose(np.linalg.norm(kets, axis=1), 1, atol=1e-12)
        for i, e in enumerate(povm.elements):
            pieces = sum(w * np.outer(v, v.conj()) for w, v, j in zip(weights, kets, back) if j == i)
            assert np.max(np.abs(pieces - e)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 8, 24])
    def test_rank1_elements_match_the_eigensolve(self, d, monkeypatch):
        # a projective measurement, and two bases at weight 1/2: every element
        # rank 1, each refined without an eigensolve to the eigensolve's piece
        gen = np.random.default_rng(530 + d)
        half = [e / 2 for e in random_projective(d, gen).elements + random_projective(d, gen).elements]
        probe = haar_ket(d, gen)
        for povm in (random_projective(d, gen), Povm(half)):
            ref_back, ref_weights, ref_kets = [], [], []
            for i, e in enumerate(povm.elements):
                vals, vecs = hermitian_eig(e)
                keep = vals > 1e-12
                ref_back += [i] * int(keep.sum())
                ref_weights += list(vals[keep])
                ref_kets += list(vecs[:, keep].T)
            monkeypatch.setattr(measure, "hermitian_eig", lambda e: pytest.fail("eigensolve of a rank-1 element"))
            back, weights, kets = povm_refine(povm)
            monkeypatch.undo()
            assert back == ref_back
            assert np.max(np.abs(weights - ref_weights)) <= 1e-14
            assert np.allclose(np.linalg.norm(kets, axis=1), 1, atol=1e-14)
            overlaps = np.abs(kets.conj() @ probe) ** 2
            assert np.max(np.abs(overlaps - np.abs(np.array(ref_kets).conj() @ probe) ** 2)) <= 1e-14

    def test_rank2_element_of_unit_trace_takes_the_eigensolve(self, monkeypatch):
        # eigenvalues (1/2, 1/2, 0): trace 1 but rank 2, so two pieces of 1/2
        calls = []
        monkeypatch.setattr(measure, "hermitian_eig", lambda e: calls.append(e) or hermitian_eig(e))
        mixed = np.diag([0.5, 0.5, 0.0])
        back, weights, kets = povm_refine(Povm([mixed, mixed, np.diag([0.0, 0.0, 1.0])]))
        assert len(calls) == 2 and all(np.array_equal(c, mixed) for c in calls)
        assert back == [0, 0, 1, 1, 2]
        assert np.allclose(weights, [0.5, 0.5, 0.5, 0.5, 1.0], atol=1e-15)
        assert np.array_equal(kets[4], [0, 0, 1])

    def test_coarse_probabilities_preserved(self):
        rho = states.random_density(2, 2, rng)
        pa = random_povm(3, 2, rng)
        pb = random_povm(2, 2, rng)
        ra, ba = refined_elements(pa)
        rb, bb = refined_elements(pb)
        fine = born_table(rho, ra, rb)
        coarse = coarse_grain(fine, ba, bb, 3, 2)
        assert np.max(np.abs(coarse - born_table(rho, pa.elements, pb.elements))) < 1e-10

    def test_zero_element_gets_zero_row(self):
        gen = np.random.default_rng(516)
        rho = states.random_density(3, 3, gen)
        a = random_povm(2, 3, gen).elements
        pa = Povm([a[0], np.zeros((3, 3)), a[1]])
        pb = Povm([np.zeros((3, 3)), *random_povm(2, 3, gen).elements])
        ra, ba = refined_elements(pa)
        rb, bb = refined_elements(pb)
        assert 1 not in ba and 0 not in bb
        coarse = coarse_grain(born_table(rho, ra, rb), ba, bb, 3, 3)
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
        with pytest.raises(ValueError, match="do not sum to the identity"):
            Povm([p, p], [1, -1])

    def test_projector_sets_must_sum_to_identity(self):
        # a scaled projector, overlapping projectors and an incomplete set
        e = np.eye(3)
        p = [projector(e[:, k]) for k in range(3)]
        v = (e[:, 1] + e[:, 2]) / np.sqrt(2)
        for elements in ([p[0], 2 * p[1], p[2]], [p[0], p[1], projector(v)], [p[0], p[1]]):
            with pytest.raises(ValueError, match="^POVM elements do not sum to the identity$"):
                Povm(elements)

    def test_random_projective_is_a_povm_of_orthogonal_projectors(self):
        meas = random_projective(4, np.random.default_rng(519))
        assert meas.labels == [0, 1, 2, 3]
        for i, p in enumerate(meas.elements):
            for j, q in enumerate(meas.elements):
                assert np.max(np.abs(p @ q - (p if i == j else 0))) < 1e-12

    def test_empty_measurements_are_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Povm([])
        with pytest.raises(ValueError, match="do not sum to the identity"):
            Povm(np.zeros((0, 2, 2)))

    @pytest.mark.parametrize("bad", [3, 2.5, np.float64(1.0), np.array(3.0), None])
    def test_a_scalar_is_named_by_the_shape_rule(self, bad):
        with pytest.raises(ValueError, match=r"POVM elements must be an array of numbers of shape \(n, n\) or \(k, n, n\), got shape \(\)"):
            Povm(bad)

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


class TestPovmStack:
    """A Povm checks its elements as one (k, n, n) stack and keeps them as a
    list of read-only views of it."""

    def test_elements_are_read_only_views_of_one_stack(self):
        p = random_projective(3, np.random.default_rng(3))
        assert isinstance(p.elements, list) and len(p.elements) == 3
        base = p.elements[0].base
        assert base is not None and all(e.base is base for e in p.elements)
        assert not any(e.flags.writeable for e in p.elements)
        with pytest.raises(ValueError, match="read-only"):
            p.elements[0][0, 0] = 1.0
        assert len(p.elements + p.elements) == 6 and p.elements[-1].shape == (3, 3)

    @pytest.mark.parametrize("as_stack", [False, True])
    def test_a_write_to_the_callers_elements_does_not_reach_the_povm(self, as_stack):
        e = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        given = np.array(e) if as_stack else e
        p = Povm(given)
        for g in given:
            g[0, 0] = 5.0
        assert p.elements[0][0, 0] == 1.0 and p.elements[1][0, 0] == 0.0
        assert born_table(states.singlet(), p.elements, p.elements).sum() == pytest.approx(1.0)

    def test_a_matrix_is_the_stack_of_one(self):
        p = Povm(np.eye(2))
        assert len(p.elements) == 1 and p.labels == [0] and p.dim == 2
        table = born_table(states.singlet(), np.eye(2), np.eye(2))
        assert table.shape == (1, 1) and table[0, 0] == pytest.approx(1.0)

    def test_a_stack_gives_the_table_of_its_list(self):
        gen = np.random.default_rng(4)
        rho, pa, pb = states.random_density(2, 3, gen), random_povm(3, 2, gen), random_povm(4, 3, gen)
        listed = born_table(rho, pa.elements, pb.elements)
        assert born_table(rho, np.array(pa.elements), np.array(pb.elements)).tobytes() == listed.tobytes()

    @pytest.mark.parametrize(
        "elements, message",
        [
            ([np.eye(2) / 2, np.array([[0.5, 0.1], [0.0, 0.5]])], "POVM element 1 is not Hermitian"),
            ([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])], "POVM element 1 is not positive semi-definite"),
            ([np.diag([1.0, 0.5]), np.diag([0.0, 0.5]), np.diag([0.0, 0.0]) + 1e-3 * np.array([[0, 1], [0, 0]])], "POVM element 2 is not Hermitian"),
        ],
    )
    def test_each_check_names_its_first_failing_element(self, elements, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Povm(elements)

    def test_random_povm_needs_an_outcome(self):
        with pytest.raises(ValueError, match="^n_outcomes must be >= 1, got 0$"):
            random_povm(0, 2, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda rng: random_projective(2.5, rng), "^d must be an integer, got 2.5$"),
            (lambda rng: random_povm(3, 2.5, rng), "^d must be an integer, got 2.5$"),
            (lambda rng: random_povm(3, 0, rng), "^d must be >= 1, got 0$"),
        ],
        ids=["projective_fraction", "povm_fraction", "povm_empty"],
    )
    def test_random_measurement_dimension(self, call, message):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=message):
            call(rng)
        assert rng.random() == np.random.default_rng(0).random()  # rejected before any draw


def test_unit_bloch_keeps_no_callers_array():
    dirs = np.eye(3)
    v = unit_bloch(dirs[0])
    dirs[0, 0] = 5.0
    assert v[0] == 1.0 and not v.flags.writeable
    w = np.array([0.0, 0.0, 1.0])
    assert not np.shares_memory(unit_bloch(w), w)
