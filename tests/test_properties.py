"""Property tests of physical invariants over random states and measurements.

Each example draws its objects from a numpy generator seeded by hypothesis,
so a failure reports the seed and dimensions that reproduce it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nonlocal_lab import lhv
from nonlocal_lab.bell import horodecki_m
from nonlocal_lab.measure import born_table, povm_refine, random_povm, unit_bloch
from nonlocal_lab.qmat import is_density
from nonlocal_lab.states import DensityMatrix, flip_witness, lift_state, random_density, twirl

SEEDS = st.integers(0, 2**32 - 1)
CHECK = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@CHECK
@given(seed=SEEDS, d_a=st.integers(2, 3), d_b=st.integers(2, 3), k_a=st.integers(1, 4), k_b=st.integers(1, 4))
def test_born_table_is_a_joint_distribution(seed, d_a, d_b, k_a, k_b):
    rng = np.random.default_rng(seed)
    rho = random_density(d_a, d_b, rng)
    table = born_table(rho, random_povm(k_a, d_a, rng).elements, random_povm(k_b, d_b, rng).elements)
    assert table.shape == (k_a, k_b)
    assert table.min() >= 0
    assert abs(table.sum() - 1) <= 1e-10


@CHECK
@given(seed=SEEDS, d=st.integers(2, 3))
def test_lift_and_twirl_give_states(seed, d):
    rng = np.random.default_rng(seed)
    rho = random_density(d, d, rng)
    sigma_a, sigma_b = random_density(d, 1, rng).mat, random_density(d, 1, rng).mat
    assert is_density(lift_state(rho, sigma_a, sigma_b).mat)
    twirled = twirl(rho)
    assert is_density(twirled.mat)
    assert abs(flip_witness(twirled) - flip_witness(rho)) <= 1e-12


# entries of a 4x4 complex Ginibre-like factor G, with exact zeros so that
# rank-deficient and product-like states G G^dag are reached
FACTOR = hnp.arrays(float, (2, 4, 4), elements=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))


@CHECK
@given(g=FACTOR)
def test_horodecki_settings_are_unit_bloch_vectors(g):
    m = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    tr = m.trace().real
    assume(tr > 1e-6)
    settings = horodecki_m(DensityMatrix(m / tr, 2, 2)).settings
    for v in (settings.x, settings.x2, settings.y, settings.y2):
        assert np.array_equal(unit_bloch(v), v)


@CHECK
@given(seed=SEEDS, d=st.integers(2, 5), k_a=st.integers(1, 4), k_b=st.integers(1, 4))
def test_barrett_responses_are_distributions(seed, d, k_a, k_b):
    rng = np.random.default_rng(seed)
    _, xw, kets_a = povm_refine(random_povm(k_a, d, rng))
    _, yw, kets_b = povm_refine(random_povm(k_b, d, rng))
    lam = lhv.sample_sphere_cd(rng, d, 64)
    u = lhv._overlaps(lhv._overlap_rows(kets_a), lam)
    v = lhv._overlaps(lhv._overlap_rows(kets_b), lam)
    for p in lhv._barrett_responses(u, xw, v, yw, d):
        assert p.min() >= -1e-12
        assert np.max(np.abs(p.sum(axis=0) - 1)) <= 1e-12


# Values that tie often, -0.0 against 0.0 among them, mixed with any finite float.
TIED = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), st.floats(allow_nan=False, allow_infinity=False))


@CHECK
@given(u=hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 40)), elements=TIED))
def test_argmin_rows_is_argmin_with_ties_to_the_lowest_row(u):
    assert np.array_equal(lhv._argmin_rows(u), np.argmin(u, axis=0))


# -- the sign models' rules --------------------------------------------------
BATCH = st.integers(1, 64)


class _Normals:
    """A generator stand-in whose standard_normal hands out prepared draws in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, size):
        return self.draws.pop(0).reshape(size).copy()


@given(flags=hnp.arrays(bool, st.tuples(st.just(3), st.integers(0, 40))))
def test_select_is_where_on_booleans(flags):
    mask, a, b = flags
    assert np.array_equal(lhv._select(mask, a, b), np.where(mask, a, b))


@pytest.mark.parametrize("kind", ["random", "all true", "all false"])
def test_select_index_is_where_on_integers(kind):
    rng = np.random.default_rng(11)
    m = 1 << 15
    a, b = rng.integers(0, 6, (2, m)).astype(np.intp)
    mask = {"random": rng.random(m) < 0.5, "all true": np.ones(m, bool), "all false": np.zeros(m, bool)}[kind]
    picked = lhv._select_index(mask, a, b)
    assert picked.dtype == np.intp and np.array_equal(picked, np.where(mask, a, b))


@CHECK
@given(seed=SEEDS, m=BATCH)
def test_choice_keeps_the_larger_overlap_with_ties_to_l1(seed, m):
    rng = np.random.default_rng(seed)
    x = lhv.sample_sphere_r3(rng, 1)[:, 0]
    g0, g1 = rng.standard_normal((2, m, 3))
    # some rows of l1 are +-l0, whose overlaps with x have equal magnitude
    tied = rng.random(m) < 0.3
    g1[tied] = g0[tied] * np.where(rng.random(m) < 0.5, -1.0, 1.0)[tied, None]
    l0, l1 = (lhv.sample_sphere_r3(_Normals(g), m) for g in (g0, g1))
    pick0, a_plus = lhv._choice(l0, l1, x)
    x0, x1 = lhv._dot_rows(l0, x), lhv._dot_rows(l1, x)
    assert np.array_equal(pick0, np.abs(x0) > np.abs(x1))
    assert not pick0[tied].any()
    kept = np.where(pick0, l0, l1)  # (3, m) rows
    assert np.array_equal(a_plus, lhv._dot_rows(kept, x) < 0)


@CHECK
@given(seed=SEEDS, m=BATCH, q=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)), rows=st.booleans())
def test_hirsch_alice_accepts_only_inside_the_protocol(seed, m, q, rows):
    rng = np.random.default_rng(seed)
    v = lhv.sample_sphere_r3(rng, m) if rows else lhv.sample_sphere_r3(rng, 1)[:, 0]
    lam, r = lhv.sample_sphere_r3(rng, m), rng.random(m)
    u1, u2 = np.random.default_rng(seed + 1).random((2, m))
    a_plus, acc = lhv._hirsch_alice(v, lam, r < 2 * q, u1, u2)
    vl = lhv._dot_rows(lam, v)
    assert np.array_equal(acc, (r < 2 * q) & (u1 < np.abs(vl)))
    assert not (acc & (r >= 2 * q)).any()
    assert np.array_equal(a_plus[acc], vl[acc] < 0)
    noise = u2 < (1 + v[2]) / 2
    assert np.array_equal(a_plus[~acc], noise[~acc])
    if q == 0:
        assert not acc.any()


@CHECK
@given(flags=hnp.arrays(bool, st.tuples(st.just(2), BATCH)))
def test_pm_counts_are_the_joint_histogram_of_the_flags(flags):
    a, b = flags
    counts = lhv._pm_counts(a, b)
    assert counts.sum() == len(a)
    assert np.array_equal(counts, [np.sum(a & b), np.sum(a & ~b), np.sum(~a & b), np.sum(~a & ~b)])
