"""Full verification suite at calibrated sample counts (seed 0, n = 1e6).

Runs every criterion once in a session-scoped fixture and emits one
PASS/FAIL line per criterion; `nonlocal-lab reproduce` executes the same
checks and writes the report files.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from nonlocal_lab import acceptance, lhv, measure

CRITERION_IDS = list(range(1, 14))

# Golden bytes at seed 0, n = 1e6, recorded before the model trials were
# shared with the CLI; a change to any of them is logged in CHANGES.md.
DETAILS = [
    "value 2.82842712475, |err| 8.88e-16 (tol 1e-10)",
    "max excess -0.0257 (tol 1e-9), max shortfall 4.44e-16 (tol 1e-6)",
    "max cell deviation 2.72 sigma over 10 runs (tol 5.0)",
    "estimate 0.036942109 vs 1/27 = 0.037037037, 1.37 sigma",
    "max deviation 2.32 sigma over 10 direction pairs; rewrite mismatches 0",
    "max deviation 1.72 sigma over 3 direction pairs",
    "max table/marginal deviation 1.54 sigma; acceptance q=0.1: rates 0.4996/0.4999; "
    "q=0.3: rates 0.4994/0.5000; q=0.5: rates 0.5000/0.4994",
    "max cell deviation 2.56 sigma; fallback-branch rate off 1/2 by 1.85 sigma",
    "q=0.25: |M-(1+q)|=6.7e-06, |M'-(1+q/4)|=2.3e-05; q=0.5: |M-(1+q)|=2.5e-06, |M'-(1+q/4)|=1.1e-05; "
    "flag-state filter: singlet deviation 1.1e-16, CHSH 2.82842712475",
    "max |err| 8.88e-16 over d=3..8 (tol 1e-10)",
    "max formula error 3.3e-16; min witness over 100 separable states 0.0678",
    "determinism ok; d=2 minimizer: min 0.0e+00, norm err 0.0e+00; d=2 quantum: min 6.5e-06, norm err 1.0e-15; "
    "d=2 threshold: min 1.0e-04, norm err 6.7e-16; d=2 inverted: min 2.5e-09, norm err 1.6e-15; "
    "d=3 minimizer: min 0.0e+00, norm err 0.0e+00; d=3 quantum: min 4.9e-07, norm err 1.2e-15; "
    "d=3 threshold: min 2.4e-06, norm err 6.7e-16; d=3 inverted: min 1.6e-06, norm err 1.8e-15",
    "max cell deviation 1.92 sigma (tol 5.0)",
]
REPORT_SHA256 = {
    "barrett_d2_table.csv": "5097bc3b70b93ceb734b9c19db4d53073b290cc4a27e637d330b7042e8e2657d",
    "report.json": "b687999a51017f45154a9b0db58bd491fbe461f1b2ee79f5c8a7373e350b4a33",
    "scan_rho_g_prime_q0.25.csv": "8d8535eb2474bc7d266a2386d9700b52ea2dfa404f0f8d0e1b88f6bf2064e618",
    "scan_rho_g_prime_q0.5.csv": "f0386eba1417f2cd353c1cc0b40320309f96e1d6ea94dae0339c2784da7ffdaf",
    "scan_rho_g_q0.25.csv": "585bf77d51d33a1e296ea3bd83c0ec3ee1a47272dc6be4d0b724007212d7d7c7",
    "scan_rho_g_q0.5.csv": "1f9637a628a90d84e7ae80b7e5c90179b6d045435aaba7e781f5489b2637668f",
}


@pytest.fixture(scope="module")
def results():
    res = acceptance.run_all(seed=0, n=acceptance.FULL_POWER_N)
    print()
    for r in res:
        print(f"{r.status}  C{r.cid:02d}  {r.name} -- {r.detail}")
        for f in r.findings:
            print(f"      note: {f}")
    return {r.cid: r for r in res}


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_criterion(results, cid):
    r = results[cid]
    print(f"{r.status}  C{r.cid:02d}  {r.name} -- {r.detail}")
    assert r.passed, f"criterion {cid} failed: {r.detail}"


def test_threshold_table_is_reported(results):
    r = results[13]
    assert any("sigma" in f for f in r.findings)
    assert "barrett_d2_table.csv" in r.artifacts


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_detail_is_golden(results, cid):
    assert results[cid].detail == DETAILS[cid - 1]


def test_report_bytes_are_golden(results, tmp_path):
    acceptance.write_report([results[cid] for cid in CRITERION_IDS], tmp_path, 0, acceptance.FULL_POWER_N)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == REPORT_SHA256


def _one_shot_validity(seed: int, n_lambda: int) -> list[tuple[str, float, float]]:
    """C12's validity rows evaluated over all n_lambda draws at once, in the
    order of its draws: per d, the projective measurement, the hidden
    variables, then the POVM."""
    rng = np.random.default_rng(seed)
    rows = []
    for d in (2, 3):
        proj = measure.random_projective(d, rng)
        lam = lhv.sample_sphere_cd(rng, d, n_lambda)
        povm = measure.random_povm(3, d, rng)
        models = [(("minimizer", "quantum"), lhv._werner_responses, proj), (("threshold", "inverted"), lhv._barrett_responses, povm)]
        for names, responses, m in models:
            _, w, kets = measure.povm_refine(m)
            u = lhv._overlaps(lhv._overlap_rows(kets), lam)
            for name, p in zip(names, responses(u, w, u, w, d)):
                rows.append((f"d={d} {name}", float(p.min()), float(np.max(np.abs(p.sum(axis=0) - 1)))))
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_validity_blocks_equal_one_draw(seed):
    """Walking the draws in blocks, the last one partial, keeps every draw
    and every raw float."""
    rows = acceptance._response_validity(acceptance._seed(seed, 12), 100_000)
    assert rows == _one_shot_validity(acceptance._seed(seed, 12), 100_000)


def test_validity_holds_one_block_at_a_time():
    """One piece of all 1e5 draws peaked at 39 MiB of draws, overlaps and responses."""
    tracemalloc.start()
    try:
        acceptance._response_validity(acceptance._seed(0, 12), 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
