"""The three closed-loop workloads of the benchmark.

Each workload is one client in one process that issues its next call only
after the previous one returned. `unit()` runs one fixed unit of work and
returns the latency of every call in it; the outputs of each call are
checked into the shared `Checks` tally outside the timed region. Inputs
depend only on the seed given to the constructor, so two instances built
with one seed replay the same calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nonlocal_lab import acceptance, bell, cli, filters, lhv, qmat, states

SIGMA = 5.0
clock = time.perf_counter


@dataclass
class Checks:
    """Output checks attempted and failed; the first few failures are kept."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def error(self, what: str) -> None:
        """A call that raised: one failed check, with its traceback kept."""
        self.check(False, f"{what}: {traceback.format_exc(limit=3)}")


def _quiet_main(argv: list[str]) -> tuple[int, float]:
    """cli.main with its console output swallowed; returns (exit code, latency)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = clock()
        code = cli.main(argv)
        return code, clock() - t0


class Reproduce:
    """`nonlocal-lab reproduce --n 1e6 --seed <seed>`: the headline command.

    About 90% of it is mc.run_batched driving the lhv kernels, so it shows
    kernel and sampling changes and is blind to the exact oracle layers.
    """

    name = "reproduce"

    def __init__(self, seed: int, out: Path, checks: Checks, n: int = 1_000_000, warm_n: int = 30_000):
        self.seed, self.out, self.checks, self.n, self.warm_n = seed, out, checks, n, warm_n
        self.reports: list[bytes] = []
        self.report_bytes = 0
        self._units = 0

    def warm_up(self) -> None:
        # The first in-process reproduce pays allocator and BLAS start-up
        # (about 12 s against 9-10 s afterwards); a small-n pass absorbs it.
        _quiet_main(["reproduce", "--n", str(self.warm_n), "--seed", str(self.seed), "--out", str(self.out / "warm")])

    def unit(self) -> list[float]:
        out = self.out / f"unit{self._units}"
        self._units += 1
        try:
            code, dt = _quiet_main(["reproduce", "--n", str(self.n), "--seed", str(self.seed), "--out", str(out)])
            raw = (out / "report.json").read_bytes()
        except Exception:
            self.checks.error("reproduce raised or wrote no report")
            return []
        self.checks.check(code == 0, f"reproduce exit code {code}")
        for c in json.loads(raw)["criteria"]:
            self.checks.check(c["status"] == "PASS", f"C{c['id']:02d} {c['status']}: {c['detail']}")
        if self.reports:
            self.checks.check(raw == self.reports[0], "report.json bytes differ between two runs at one seed")
        self.reports.append(raw)
        self.report_bytes = sum(p.stat().st_size for p in out.iterdir())
        return [dt]


class LargeD:
    """`simulate werner|barrett --d 8,16,24 --n 1e5` through cli.main.

    measure.born_table dominates (O(k_a k_b d^6) today), so this workload
    exercises the exact-oracle contraction and records how cost grows with d,
    while the lhv kernels barely register.
    """

    name = "large-d"
    models = ("werner", "barrett")

    def __init__(self, seed: int, out: Path, checks: Checks, ds=(8, 16, 24), n: int = 100_000):
        self.seed, self.out, self.checks, self.ds, self.n = seed, out, checks, ds, n
        self.report_bytes = 0

    def _simulate(self, model: str, d: int, n: int) -> float | None:
        path = self.out / f"{model}_d{d}.json"
        argv = ["simulate", model, "--d", str(d), "--n", str(n), "--seed", str(self.seed), "--format", "json", "--out", str(path)]
        try:
            code, dt = _quiet_main(argv)
            payload = json.loads(path.read_text())
        except Exception:
            self.checks.error(f"simulate {model} d={d} raised or wrote no output")
            return None
        self.checks.check(code == 0, f"simulate {model} d={d} exit code {code}")
        self.checks.check(payload["max_sigma"] <= SIGMA, f"simulate {model} d={d}: max_sigma {payload['max_sigma']}")
        total = float(np.sum(payload["oracle"]))
        self.checks.check(abs(total - 1.0) <= 1e-9, f"simulate {model} d={d}: oracle sums to {total!r}")
        return dt

    def warm_up(self) -> None:
        for model in self.models:
            self._simulate(model, 4, 10_000)

    def unit(self) -> list[float]:
        lat = [self._simulate(model, d, self.n) for d in self.ds for model in self.models]
        return [t for t in lat if t is not None]


# Every HEAVY_EVERY-th query adds a heavy call: one in four of them is a
# hidden-nonlocality scan (alternating family), the rest are
# popescu_protocol(d) with d cycling through 3..8. Any block of
# BLOCK_QUANTUM queries carries the same mix, so block times differ only
# through the random states. Scans are the slowest calls (about 8 ms against
# 3 ms and 1.2 ms) and 2.5% of the stream, so p99 falls inside them rather
# than on the edge between two kinds of call.
HEAVY_EVERY = 10
BLOCK_QUANTUM = HEAVY_EVERY * 8
_SCAN_FAMILIES = ("rho_g", "rho_g_prime")
_WITNESS_NEG_TOL = 1e-12
_PPT_NEG_TOL = 1e-9


@dataclass
class _Query:
    mat: np.ndarray
    dirs: np.ndarray
    heavy: tuple | None


def _stream(rng: np.random.Generator):
    i = 0
    while True:
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        dirs = rng.standard_normal((4, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        heavy = None
        if i % HEAVY_EVERY == HEAVY_EVERY - 1:
            h = i // HEAVY_EVERY
            if h % 4 == 0:
                heavy = ("scan", _SCAN_FAMILIES[(h // 4) % 2], float(rng.uniform(0.1, 0.9)))
            else:
                heavy = ("popescu", 3 + (h - h // 4 - 1) % 6)
        yield _Query(m / np.trace(m).real, dirs, heavy)
        i += 1


def _exact_query(q: _Query):
    """One client call: validate a raw 2x2 state and diagnose it."""
    rho = states.DensityMatrix(q.mat, 2, 2)
    w = states.flip_witness(rho)
    ppt_min = float(np.linalg.eigvalsh(qmat.partial_transpose(rho.mat, 2, 2, "B")).min())
    hor = bell.horodecki_m(rho)
    chsh = bell.chsh_value(rho, bell.ChshSettings(*q.dirs))
    extra = None
    if q.heavy is not None and q.heavy[0] == "scan":
        extra = filters.hidden_nonlocality_scan(q.heavy[1], q.heavy[2])
    elif q.heavy is not None:
        extra = filters.popescu_protocol(q.heavy[1])
    return w, ppt_min, hor, chsh, extra


class ExactStream:
    """A seeded stream of small d=2 queries through the exact layers.

    Each query validates a random full-rank two-qubit state, then runs the
    flip witness with PPT eigenvalues, horodecki_m and chsh_value at random
    explicit settings. mc and lhv do no work; validation eigensolves and
    Python overhead dominate, the opposite regime of large-d.
    """

    name = "exact-stream"

    def __init__(self, seed: int, out: Path, checks: Checks, block: int = 6 * BLOCK_QUANTUM, warm: int = 12 * BLOCK_QUANTUM):
        self.checks, self.block, self.warm = checks, block, warm
        self.queries = _stream(np.random.default_rng(seed))
        self._warm_queries = _stream(np.random.default_rng([seed, 1]))
        self.report_bytes = 0

    def _run(self, queries) -> list[float]:
        lat = []
        for q in queries:
            try:
                t0 = clock()
                res = _exact_query(q)
                lat.append(clock() - t0)
            except Exception:
                self.checks.error("exact query raised")
                continue
            self._check(q, *res)
        return lat

    def _check(self, q: _Query, w, ppt_min, hor, chsh, extra) -> None:
        c = self.checks
        bound = 2 * np.sqrt(hor.m_rho)
        c.check(abs(hor.value - bound) <= 1e-6, f"horodecki value {hor.value!r} vs 2 sqrt(M) {bound!r}")
        c.check(chsh <= bound + 1e-9, f"chsh {chsh!r} above 2 sqrt(M) {bound!r}")
        if w < -_WITNESS_NEG_TOL:
            c.check(ppt_min < -_PPT_NEG_TOL, f"witness {w!r} certifies entanglement, PPT min {ppt_min!r} does not")
        if q.heavy is not None and q.heavy[0] == "scan":
            gap = max(abs(r.chsh_at_optimal - r.chsh_bound) for r in extra)
            c.check(gap <= 1e-6, f"scan {q.heavy[1:]}: optimal settings miss the bound by {gap!r}")
        elif q.heavy is not None:
            d = q.heavy[1]
            target = 2 * np.sqrt(2) * d / (d + 2)
            c.check(abs(extra.chsh - target) <= 1e-10, f"popescu d={d}: chsh {extra.chsh!r} vs {target!r}")

    def warm_up(self) -> None:
        self._run([next(self._warm_queries) for _ in range(self.warm)])

    def unit(self) -> list[float]:
        return self._run([next(self.queries) for _ in range(self.block)])


WORKLOADS = {w.name: w for w in (Reproduce, LargeD, ExactStream)}


def speedup_w2(seed: int, n: int, checks: Checks) -> float:
    """Time of C03's simulations at 1 worker over their time at 2 workers.

    criterion_03 runs unchanged; lhv.simulate_werner is swapped for a
    recorder for the duration of each call, so the tables of both worker
    counts can be compared bit for bit.
    """
    original = lhv.simulate_werner
    tables: dict[int, list] = {1: [], 2: []}
    busy = {1: 0.0, 2: 0.0}
    for workers in (1, 2):
        def record(*args, _w=workers, **kwargs):
            t0 = clock()
            table = original(*args, **kwargs)
            busy[_w] += clock() - t0
            tables[_w].append(table)
            return table

        lhv.simulate_werner = record
        try:
            acceptance.criterion_03(seed, n, workers=workers)
        finally:
            lhv.simulate_werner = original
    same = len(tables[1]) == len(tables[2]) > 0 and all(
        np.array_equal(a.means, b.means) and np.array_equal(a.stderrs, b.stderrs) for a, b in zip(tables[1], tables[2])
    )
    checks.check(same, "C03 tables differ between 1 and 2 workers")
    return busy[1] / busy[2]
