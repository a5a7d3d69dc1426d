"""Locality as an exact invariant of every local model.

A local model gives P(a, b | x, y) = sum over lambda of rho(lambda)
P(a | x, lambda) P(b | y, lambda). On shared draws, Alice's outcomes can
then not depend on Bob's setting, sample by sample, and Bob's not on
Alice's. So two setting pairs that share Alice's setting, run on one seed,
give Alice the same marginal. The 5-sigma gates compare averages with an
oracle and cannot see a response that peeks at the other party's setting
while the averages still match; this check sees it at any n.

The spin models count integers, so their marginal counts agree bit for bit.
The one-bit model (Toner & Bacon, PRL 91, 187904, 2003) sends Alice's bit
to Bob: it is the positive control, local on Alice's side only.
"""

import numpy as np
import pytest

from nonlocal_lab import lhv
from nonlocal_lab.measure import random_povm, random_projective

N, SEED = 5000, 11
_rng = np.random.default_rng(2024)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


X, X2 = _unit([0.3, -0.2, 0.9]), _unit([-0.7, 0.5, 0.1])
Y, Y2 = _unit([0.1, 0.8, -0.4]), _unit([0.6, 0.2, 0.7])


def _counts(result) -> np.ndarray:
    """The joint counts of a spin or lift table: its means times n, exact
    below 2^52."""
    return np.rint(result.table.means * result.table.n)


def _marginals(pair) -> tuple[list, list]:
    """Alice's and Bob's marginal counts of each result of a pair of runs."""
    counts = [_counts(r) for r in pair]
    return [c.sum(axis=1).tolist() for c in counts], [c.sum(axis=0).tolist() for c in counts]


# Each model runs two setting pairs on one seed: (alice_fixed, bob_fixed).
# alice_fixed shares Alice's setting and varies Bob's, bob_fixed the reverse.
# A simulator that stacks runs both pairs as one stack (a stacked pair reads
# the draws of its single run: tests/test_lhv.py); the others run twice.
_SIGMA = np.diag([1.0, 0.0]).astype(complex)
_POVMS = [random_povm(3, 2, _rng) for _ in range(3)]


def _gd(xs, ys):
    return lhv.simulate_gd_w2x2(xs, ys, N, SEED)


def _epr(xs, ys):
    return lhv.simulate_epr_one_bit(xs, ys, N, SEED)


def _hirsch(xs, ys):
    return [lhv.simulate_hirsch_projective(0.4, x, y, N, SEED) for x, y in zip(xs, ys)]


def _lift(pas, pbs):
    return lhv.simulate_povm_lift(0.3, _SIGMA, _SIGMA, pas, pbs, N, SEED)


SPIN_MODELS = {
    "gd": (_gd, ([X, X], [Y, Y2]), ([X, X2], [Y, Y])),
    "epr1bit": (_epr, ([X, X], [Y, Y2]), ([X, X2], [Y, Y])),
    "hirsch": (_hirsch, ([X, X], [Y, Y2]), ([X, X2], [Y, Y])),
    "povm-lift": (_lift, (_POVMS[:1] * 2, _POVMS[1:]), (_POVMS[1:], _POVMS[:1] * 2)),
}


@pytest.mark.parametrize("model", ["gd", "hirsch", "povm-lift"])
def test_a_local_spin_model_keeps_each_marginal_bit_for_bit(model):
    run, alice_fixed, bob_fixed = SPIN_MODELS[model]
    (a0, a1), (b0, b1) = _marginals(run(*alice_fixed))
    assert a0 == a1 and b0 != b1  # Bob's setting moves his own marginal only
    (a0, a1), (b0, b1) = _marginals(run(*bob_fixed))
    assert b0 == b1 and a0 != a1


def test_the_one_bit_model_is_local_for_alice_only():
    """Bob reads the index Alice kept, which depends on her setting."""
    run, alice_fixed, bob_fixed = SPIN_MODELS["epr1bit"]
    (a0, a1), _ = _marginals(run(*alice_fixed))
    assert a0 == a1
    _, (b0, b1) = _marginals(run(*bob_fixed))
    assert b0 != b1


def _overlap_pair(simulate, d, alice_fixed):
    rng = np.random.default_rng(d)
    p, q, q2 = (random_projective(d, rng) for _ in range(3))
    pairs = [(p, q), (p, q2)] if alice_fixed else [(q, p), (q2, p)]
    return [simulate(d, a, b, N, SEED) for a, b in pairs]


@pytest.mark.parametrize("simulate", [lhv.simulate_werner, lhv.simulate_barrett], ids=["werner", "barrett"])
@pytest.mark.parametrize("d", [2, 3])
def test_an_overlap_model_keeps_each_marginal_to_rounding(simulate, d):
    """The overlap models weight outcome probabilities, not counts: a cell
    averages pa * pb, and a marginal sums a row of cells. Bob's weights sum
    to 1 only to rounding, a few ulps per sample, so the two marginals agree
    within 1e-15 rather than bit for bit, against cell standard errors near
    1e-3 at this n."""
    t0, t1 = _overlap_pair(simulate, d, alice_fixed=True)
    assert np.abs(t0.means.sum(axis=1) - t1.means.sum(axis=1)).max() <= 1e-15
    assert np.abs(t0.means.sum(axis=0) - t1.means.sum(axis=0)).max() > 1e-4
    t0, t1 = _overlap_pair(simulate, d, alice_fixed=False)
    assert np.abs(t0.means.sum(axis=0) - t1.means.sum(axis=0)).max() <= 1e-15
    assert np.abs(t0.means.sum(axis=1) - t1.means.sum(axis=1)).max() > 1e-4


class TestPlantedSignalling:
    """An Alice response that reads Bob's setting fails the check at tiny n,
    with no statistics involved."""

    @pytest.mark.parametrize("model", ["gd", "epr1bit", "hirsch"])
    def test_alice_reading_bobs_outcome(self, monkeypatch, model):
        pm_counts = lhv._pm_counts
        # Alice flips her output where Bob's, which follows his setting, is +1
        monkeypatch.setattr(lhv, "_pm_counts", lambda a_plus, b_plus: pm_counts(a_plus ^ b_plus, b_plus))
        run, alice_fixed, _ = SPIN_MODELS[model]
        (a0, a1), _ = _marginals(run(*alice_fixed))
        assert a0 != a1

    @pytest.mark.parametrize("model", ["werner", "barrett"])
    def test_alice_reading_bobs_overlaps(self, monkeypatch, model):
        responses = getattr(lhv, f"_{model}_responses")

        def peeking(u, xw, v, yw, d):
            pa, pb = responses(u, xw, v, yw, d)
            return (pa + pb) / 2, pb  # half of Alice's weight follows Bob's measurement

        monkeypatch.setattr(lhv, f"_{model}_responses", peeking)
        t0, t1 = _overlap_pair(getattr(lhv, f"simulate_{model}"), 2, alice_fixed=True)
        assert np.abs(t0.means.sum(axis=1) - t1.means.sum(axis=1)).max() > 1e-4
