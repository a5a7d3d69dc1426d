"""Property tests of physical invariants over random states and measurements.

Each example draws its objects from a numpy generator seeded by hypothesis,
so a failure reports the seed and dimensions that reproduce it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nonlocal_lab import lhv
from nonlocal_lab.measure import born_table, povm_refine, random_povm
from nonlocal_lab.qmat import is_density
from nonlocal_lab.states import flip_witness, lift_state, random_density, twirl

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
