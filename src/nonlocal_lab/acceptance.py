"""The reproducible verification suite behind `nonlocal-lab reproduce`.

Every criterion takes (seed, n, workers) and returns a CriterionResult with
a pass flag and a one-line detail string; exact checks ignore n and
workers. MC-backed checks use five-standard-error tolerances and fixed
per-criterion seeds derived from the master seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bell, filters, lhv, mc, measure, states
from .measure import random_povm, random_projective

SIGMA = 5.0
FULL_POWER_N = 1_000_000


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    findings: list[str] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _seed(master: int, cid: int, k: int = 0) -> int:
    return master * 10_000 + cid * 100 + k


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _worst(runs, scalars=lambda res, extra: ()) -> float:
    """Largest deviation in standard errors over the table cells of trial
    runs (res, table, oracle, extra) against their Born oracles, and over
    the (estimate, target) pairs that scalars(res, extra) names."""
    worst = 0.0
    for res, table, oracle, extra in runs:
        worst = max(worst, table.max_sigma(oracle), *(abs(est.sigma_ratio(t)) for est, t in scalars(res, extra)))
    return worst


def _noise(x: float, fmt: str) -> str:
    """x as fmt, or as the bound "<= 1e-12" when |x| is under it: rounding
    noise whose last bits the BLAS kernel's summation order moves."""
    return "<= 1e-12" if abs(x) <= 1e-12 else format(x, fmt)


def criterion_01(seed: int, n: int, workers=None) -> CriterionResult:
    value = bell.chsh_value(states.singlet(), bell.example_chsh_settings())
    target = 2 * np.sqrt(2)
    err = abs(value - target)
    return CriterionResult(
        1,
        "singlet CHSH at the standard settings equals 2*sqrt(2)",
        err <= 1e-10,
        f"value {value:.12g}, |err| {_noise(err, '.3g')} (tol 1e-10)",
    )


def criterion_02(seed: int, n: int, workers=None) -> CriterionResult:
    rng = np.random.default_rng(_seed(seed, 2))
    worst_excess = -np.inf
    worst_gap = -np.inf
    for k in range(50):
        rho = states.random_density(2, 2, rng)
        res = bell.horodecki_m(rho)
        bound = 2 * np.sqrt(res.m_rho)
        excess = bell.chsh_max_random(rho, 10_000, _seed(seed, 2, k + 1)) - bound
        gap = bound - bell.chsh_value(rho, res.settings)
        worst_excess = max(worst_excess, excess)
        worst_gap = max(worst_gap, gap)
    ok = worst_excess <= 1e-9 and worst_gap <= 1e-6
    return CriterionResult(
        2,
        "random search never beats 2*sqrt(M); constructed settings attain it",
        ok,
        f"max excess {worst_excess:.3g} (tol 1e-9), max shortfall {_noise(worst_gap, '.3g')} (tol 1e-6)",
    )


def criterion_03(seed: int, n: int, workers=None) -> CriterionResult:
    rngs = {d: np.random.default_rng(_seed(seed, 3, d)) for d in (2, 3)}
    worst = _worst(lhv.werner_trial(d, rngs[d], n, _seed(seed, 3, 10 * d + k), workers) for d in (2, 3) for k in range(5))
    return CriterionResult(
        3,
        "Werner minimizer model reproduces the closed-form joint table (d=2,3)",
        worst <= SIGMA,
        f"max cell deviation {worst:.2f} sigma over 10 runs (tol {SIGMA})",
    )


def criterion_04(seed: int, n: int, workers=None) -> CriterionResult:
    rng = np.random.default_rng(_seed(seed, 4))
    est = lhv.simplex_integral_mc(3, 0, random_projective(3, rng), n, _seed(seed, 4, 1), workers)
    dev = abs(est.sigma_ratio(1 / 27))
    return CriterionResult(
        4,
        "restricted overlap integral at d=3 equals 1/27",
        dev <= SIGMA,
        f"estimate {est.mean:.8g} vs 1/27 = {1 / 27:.8g}, {dev:.2f} sigma",
    )


def criterion_05(seed: int, n: int, workers=None) -> CriterionResult:
    rng = np.random.default_rng(_seed(seed, 5))
    x, y = np.array([(_unit(rng), _unit(rng)) for _ in range(10)]).transpose(1, 0, 2)  # (k, 3) stacks
    runs = lhv.gd_trial(x, y, n, _seed(seed, 5, 1), workers)
    worst = _worst(runs, lambda res, extra: [(res.e_ab, extra["E_AB_target"]), (res.e_a, 0.0), (res.e_b, 0.0)])
    mismatches = sum(res.rewrite_mismatches for res, *_ in runs)
    ok = worst <= SIGMA and mismatches == 0
    return CriterionResult(
        5,
        "choice-method model: E(AB) = -(x.y)/2, flat marginals, sum-form rewrite exact",
        ok,
        f"max deviation {worst:.2f} sigma over 10 direction pairs; rewrite mismatches {mismatches}",
    )


def criterion_06(seed: int, n: int, workers=None) -> CriterionResult:
    rng = np.random.default_rng(_seed(seed, 6))
    x, y = np.array([(_unit(rng), _unit(rng)) for _ in range(3)]).transpose(1, 0, 2)  # (k, 3) stacks
    runs = lhv.epr1bit_trial(x, y, n, _seed(seed, 6, 1), workers)
    worst = _worst(runs, lambda res, extra: [(res.e_ab, extra["E_AB_target"])])
    return CriterionResult(
        6,
        "one-bit-assisted simulation reproduces E(AB) = -x.y",
        worst <= SIGMA,
        f"max deviation {worst:.2f} sigma over 3 direction pairs",
    )


def criterion_07(seed: int, n: int, workers=None) -> CriterionResult:
    rng = np.random.default_rng(_seed(seed, 7))
    runs = []
    rate_msgs = []
    ok = True
    for k, q in enumerate((0.1, 0.3, 0.5)):
        x, y = _unit(rng), _unit(rng)
        runs.append(lhv.hirsch_trial(q, x, y, n, _seed(seed, 7, k + 1), workers))
        res2 = lhv.simulate_hirsch_projective(q, _unit(rng), y, n, _seed(seed, 7, 10 + k), workers)
        r1, r2 = runs[-1][0].accept_rate, res2.accept_rate
        if r1 is None or r2 is None:  # no sample fell inside the protocol
            ok = False
            rate_msgs.append(f"q={q}: no rate")
            continue
        # r1 - r2 against the stderr of the difference of independent runs, and each rate against 1/2
        diffs = [r1.mean - r2.mean, r1.mean - 0.5, r2.mean - 0.5]
        ok = ok and np.abs(mc._sigma_ratios(diffs, [np.hypot(r1.stderr, r2.stderr), r1.stderr, r2.stderr])).max() <= SIGMA
        rate_msgs.append(f"q={q}: rates {r1.mean:.4f}/{r2.mean:.4f}")
    worst = _worst(runs, lambda res, extra: [(res.e_a, extra["E_A_target"])])
    ok = ok and worst <= SIGMA
    return CriterionResult(
        7,
        "singlet/|0>-mixture model matches its state for q in {0.1, 0.3, 0.5}",
        ok,
        f"max table/marginal deviation {worst:.2f} sigma; acceptance " + "; ".join(rate_msgs),
    )


def criterion_08(seed: int, n: int, workers=None) -> CriterionResult:
    rng = np.random.default_rng(_seed(seed, 8))
    runs = lhv.povm_lift_trial(0.4, rng, n, _seed(seed, 8, 1), workers, pairs=5)  # one stream for all 5 pairs
    worst = _worst(runs)
    rate_worst = max(abs(est.sigma_ratio(0.5)) for res, *_ in runs for est in (res.step4_a, res.step4_b))
    # every trial lifts rho_g(q) with |0><0| on both sides: rho_g'(q), whose builder is a closed form
    target_check = np.max(np.abs(runs[-1][0].target.mat - states.rho_g_prime(0.4).mat))
    ok = worst <= SIGMA and rate_worst <= SIGMA and target_check <= 1e-12
    return CriterionResult(
        8,
        "POVM-lift protocol matches the lifted state for 5 random POVM pairs",
        ok,
        f"max cell deviation {worst:.2f} sigma; fallback-branch rate off 1/2 by {rate_worst:.2f} sigma",
    )


def criterion_09(seed: int, n: int, workers=None) -> CriterionResult:
    msgs = []
    artifacts = {}
    ok = True
    for q in (0.25, 0.5):
        scan_g = filters.hidden_nonlocality_scan("rho_g", q)
        scan_p = filters.hidden_nonlocality_scan("rho_g_prime", q)
        artifacts[f"scan_rho_g_q{q}.csv"] = filters.scan_to_csv(scan_g)
        artifacts[f"scan_rho_g_prime_q{q}.csv"] = filters.scan_to_csv(scan_p)
        m_g, m_p = scan_g[-1].m, scan_p[-1].m
        err_g, err_p = abs(m_g - (1 + q)), abs(m_p - (1 + q / 4))
        ok = ok and err_g <= 1e-4 and err_p <= 1e-4
        msgs.append(f"q={q}: |M-(1+q)|={err_g:.2g}, |M'-(1+q/4)|={err_p:.2g}")
    q = 0.3
    flt = filters.LocalFilter(np.diag([1.0, 1.0, 0.0]), np.eye(2))
    outcome = filters.apply_filters(states.rho_e(q), flt)
    assert outcome.post_state is not None
    embedded = states.embed_local(states.singlet(), 3, 2)
    exact = np.max(np.abs(outcome.post_state.mat - embedded.mat))
    block = states.restrict_block(outcome.post_state, (0, 1), (0, 1))
    chsh = bell.chsh_value(block, bell.optimal_settings(block))
    ok = (
        ok
        and exact <= 1e-12
        and abs(outcome.success_prob - q) <= 1e-12
        and abs(chsh - 2 * np.sqrt(2)) <= 1e-10
    )
    msgs.append(f"flag-state filter: singlet deviation {_noise(exact, '.2g')}, CHSH {chsh:.12g}")
    return CriterionResult(
        9,
        "filtering limits: M -> 1+q, 1+q/4; flag state filters to the exact singlet",
        ok,
        "; ".join(msgs),
        artifacts=artifacts,
    )


def criterion_10(seed: int, n: int, workers=None) -> CriterionResult:
    d = np.arange(3, 9)
    chsh = np.array([filters.popescu_protocol(k).chsh for k in range(3, 9)])
    worst = float(np.max(np.abs(chsh - 2 * np.sqrt(2) * d / (d + 2))))  # NaN included
    return CriterionResult(
        10,
        "projection protocol: CHSH = 2*sqrt(2) d/(d+2); violation exactly for d >= 5",
        worst <= 1e-10 and np.array_equal(chsh > 2, d >= 5),
        f"max |err| {_noise(worst, '.3g')} over d=3..8 (tol 1e-10)",
    )


def criterion_11(seed: int, n: int, workers=None) -> CriterionResult:
    rng = np.random.default_rng(_seed(seed, 11))
    worst = 0.0
    for q in np.linspace(0, 1, 11):
        worst = max(worst, abs(states.flip_witness(states.rho_g(float(q))) - (1 - 3 * q) / 2))
    sign_ok = (
        states.flip_witness(states.rho_g(1 / 3 - 0.01)) > 0
        and states.flip_witness(states.rho_g(1 / 3 + 0.01)) < 0
        and abs(states.flip_witness(states.rho_g(1 / 3))) <= 1e-12
    )
    min_sep = np.inf
    for k in range(100):
        d = 2 if k % 2 == 0 else 3
        min_sep = min(min_sep, states.flip_witness(states.random_separable(d, d, rng)))
    ok = worst <= 1e-12 and sign_ok and min_sep >= -1e-9
    return CriterionResult(
        11,
        "flip witness: (1-3q)/2 on the singlet mixture, sign flip at q=1/3, non-negative on separables",
        ok,
        f"max formula error {_noise(worst, '.2g')}; min witness over 100 separable states {min_sep:.3g}",
    )


def _response_validity(seed: int, n_lambda: int) -> list[tuple[str, float, float]]:
    """(label, least weight, largest |sum over outcomes - 1|) of each
    response of both overlap models: per d, one generator draws a projective
    measurement, a POVM, then n_lambda hidden variables, walked once in the
    overlap kernels' blocks with both measurements' refined kets stacked:
    the minimizer and quantum responses read the projective rows, the
    threshold and inverted responses the POVM's. Each block is folded, NaN
    included, before the next is drawn."""
    rng = np.random.default_rng(seed)
    rows = []
    for d in (2, 3):
        (_, pw, proj), (_, w, povm) = (measure.povm_refine(m) for m in (random_projective(d, rng), random_povm(3, d, rng)))
        k = len(proj)

        def errors(u: np.ndarray):
            p = lhv._werner_responses(u[:k], pw, u[:k], pw, d) + lhv._barrett_responses(u[k:], w, u[k:], w, d)
            return [(q.min(), np.max(np.abs(q.sum(axis=0) - 1))) for q in p]

        folded = np.array(list(map(errors, lhv._overlap_blocks(rng, d, n_lambda, np.concatenate([proj, povm])))))  # (blocks, 4, 2)
        negs, errs = folded[..., 0].min(axis=0), folded[..., 1].max(axis=0)
        for name, neg, err in zip(("minimizer", "quantum", "threshold", "inverted"), negs, errs):
            rows.append((f"d={d} {name}", float(neg), float(err)))
    return rows


def criterion_12(seed: int, n: int, workers=None) -> CriterionResult:
    # each response must be a probability distribution over outcomes for every hidden variable
    validity = _response_validity(_seed(seed, 12), 100_000)
    valid = all(neg >= -1e-12 and norm_err <= 1e-12 for _, neg, norm_err in validity)
    detail = "; ".join(f"{label}: min {neg:.1e}, norm err {_noise(norm_err, '.1e')}" for label, neg, norm_err in validity)
    n_small = min(n, 2 * mc.BATCH_SIZE)  # two batches, so four workers still split each run
    deterministic = True
    for k, trial in enumerate(lhv.MODELS.values()):
        runs = []
        for w in (1, 4):
            rng = np.random.default_rng(_seed(seed, 12, 1))
            values = {
                "d": 2, "q": 0.3, "x": _unit(rng), "y": _unit(rng), "rng": rng,
                "n": n_small, "seed": _seed(seed, 12, 2 + k),
            }
            _, table, _, extra = trial(**lhv._by_name(trial, values), workers=w)
            runs.append((table.means, table.stderrs, extra))
        (m1, s1, e1), (m4, s4, e4) = runs
        deterministic = deterministic and np.array_equal(m1, m4) and np.array_equal(s1, s4) and e1 == e4
    ok = valid and deterministic
    return CriterionResult(
        12,
        "response functions are normalized distributions; every model is worker-count invariant",
        ok,
        f"determinism {'ok' if deterministic else 'BROKEN'}; {detail}",
    )


def criterion_13(seed: int, n: int, workers=None) -> CriterionResult:
    rng = np.random.default_rng(_seed(seed, 13, 1))
    run = lhv.barrett_trial(2, rng, 10 * n, _seed(seed, 13, 2), workers)
    _, table, oracle, _ = run
    worst = _worst([run])
    return CriterionResult(
        13,
        "threshold-response model reproduces the joint table of its target state (d=2)",
        worst <= SIGMA,
        f"max cell deviation {worst:.2f} sigma (tol {SIGMA})",
        findings=[f"threshold-model joint table at d=2, n={10 * n}: max deviation {worst:.2f} sigma"],
        artifacts={"barrett_d2_table.csv": table.to_csv(oracle)},
    )


CRITERIA = [
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
]


def run_all(seed: int = 0, n: int = FULL_POWER_N, workers=None) -> list[CriterionResult]:
    return [crit(seed, n, workers) for crit in CRITERIA]


def write_report(results: list[CriterionResult], out_dir: str | Path, seed: int, n: int) -> Path:
    """Write report.json plus per-criterion artifacts; returns the JSON path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "seed": seed,
        "n": n,
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"id": r.cid, "name": r.name, "status": r.status, "detail": r.detail, "findings": r.findings}
            for r in results
        ],
    }
    path = out / "report.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    for r in results:
        for fname, text in r.artifacts.items():
            (out / fname).write_text(text)
    return path
