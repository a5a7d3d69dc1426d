"""Deterministic Monte Carlo plumbing.

Samples are processed in batches whose size depends on n alone (see
batch_size). Batch j of a run draws from its own SFC64 stream keyed by
(seed, label, j) (see batch_rng), so the value of every sample depends
only on (seed, n) and never on scheduling. Per-batch partial sums are
reduced in batch order, which makes results bit-identical across worker
counts.

Batches run on a thread pool with one worker per usable core by default,
at most IN_FLIGHT_PER_WORKER of them per worker submitted ahead of the
fold; numpy releases the GIL in the SFC64 draws and array arithmetic. Importing
this module sets numpy's bundled OpenBLAS to one thread for the whole
process, so the pool's workers, not BLAS threads, occupy the cores: a
threaded product, such as the complex GEMM of one Born table at d >= 12,
leaves an OpenBLAS thread spinning for about 135 ms of CPU after it
returns, which on two cores takes one from the pool.

Importing it also pins glibc's malloc: the mmap threshold at 32 MiB and
the trim threshold at 64 MiB, the ceiling glibc's dynamic threshold
drifts to on 64-bit and twice it, whatever the process allocated before.
Unpinned, a kernel's per-batch arrays (786 KB of S^2 points per 2^15
samples) were mmapped and page-faulted afresh in every batch until
something large raised the threshold: a second `simulate_gd_w2x2` at
n = 1e6 took about 20k minor faults, a second
`acceptance.run_all(0, 10**6, 2)` about 5k; pinned, 0 and about 200.
It also pins glibc to one malloc arena. Unpinned, each pool thread
allocates from an arena of its own, and under the trim threshold each
arena keeps its high-water mark resident, so peak RSS grew with the
worker count: the six `simulate werner|barrett --d 8,16,24 --n 1e5` calls
in one process peaked at 50.9, 58.8 and 65.2 MiB at 1, 2 and 4 workers,
and with one arena at 51.0, 51.2 and 51.3: a batch reuses what the last
one freed, whichever thread ran it. Sharing it may cost the workers a
little time: at 2 workers C03, C08 and C13 read 3-4% slower over 18
alternated process pairs, at 1 worker no slower. Off glibc the pins are
skipped.
"""

from __future__ import annotations

import ctypes
import glob
import os
import zlib
from collections import deque
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .qmat import _check_dim

BATCH_SIZE = 1 << 15
# Batches submitted to the pool and not yet folded, per worker: enough to keep
# every worker busy while the fold waits on the oldest, and memory bounded in n
IN_FLIGHT_PER_WORKER = 2
# Largest sample count: tables count in float64, exact for integers up to 2^53
MAX_SAMPLES = 1 << 53

Kernel = Callable[[np.random.Generator, int], tuple[np.ndarray, ...]]


def _numpy_openblas() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """(set_num_threads, get_num_threads) of the OpenBLAS that numpy's wheel
    bundles in numpy.libs, or None when there is none (a numpy built
    against a system BLAS, or a platform that keeps its libraries elsewhere).
    Loading a library numpy has already loaded returns the same handle."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        # numpy 2.x wheels prefix scipy_ and suffix 64_; numpy 1.x wheels only suffix 64_
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                set_n = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get_n = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            set_n.argtypes, set_n.restype, get_n.restype = [ctypes.c_int], None, ctypes.c_int
            return set_n, get_n
    return None


_OPENBLAS = _numpy_openblas()
if _OPENBLAS is not None:
    _OPENBLAS[0](1)


def _glibc_mallopt() -> Callable[[int, int], int] | None:
    """glibc's mallopt(param, value), or None when the C library is not
    glibc (musl and macOS have no such thresholds to pin)."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return None
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


# mallopt parameters from glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MALLOPT = _glibc_mallopt()
if _MALLOPT is not None:
    _MALLOPT(_M_MMAP_THRESHOLD, 32 << 20)
    _MALLOPT(_M_TRIM_THRESHOLD, 64 << 20)
    _MALLOPT(_M_ARENA_MAX, 1)


def worker_count(workers: int | None = None) -> int:
    """Worker count: `workers` if given, else NONLOCAL_LAB_THREADS, else one
    per usable core (the CPU affinity set, or os.cpu_count() where the
    platform has none). The count never changes a result; a `workers` or
    NONLOCAL_LAB_THREADS that is not a positive integer is a ValueError."""
    if workers is not None:
        return _check_dim(workers, "workers", 1)
    env = os.environ.get("NONLOCAL_LAB_THREADS")
    if env is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"NONLOCAL_LAB_THREADS must be a positive integer, got {env!r}")
    return int(env)


def batch_rng(seed: int, label: str, batch: int) -> np.random.Generator:
    """SFC64 generator for one batch of one labelled run, seeded through
    SeedSequence from four 32-bit words: the low and high halves of seed
    mod 2^64, the CRC-32 of the label and batch mod 2^32. The words are
    fixed-width because SeedSequence zero-pads short entropy: a plain list
    [seed, crc, batch] would give (5, 7, 9) the stream of
    (5 + 7 * 2^32, 9, 0), whose seed takes two words."""
    seed64 = seed & 0xFFFFFFFFFFFFFFFF
    words = [seed64 & 0xFFFFFFFF, seed64 >> 32, zlib.crc32(label.encode()), batch & 0xFFFFFFFF]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


def batch_size(n: int) -> int:
    """Samples per batch of a run of n samples: n/8 rounded up, clamped to
    [BATCH_SIZE/8, BATCH_SIZE]. A run of up to BATCH_SIZE/8 samples is one
    batch, and one of 8 BATCH_SIZE or more is cut into full BATCH_SIZE
    batches. From BATCH_SIZE to 8 BATCH_SIZE samples a run is eight even
    batches, the last up to 7 samples short, so that 1, 2, 4 or 8 workers
    finish together (n = 1e5 is 8 x 12500, not 3 x 2^15 and one of 1696)."""
    return min(BATCH_SIZE, max(BATCH_SIZE // 8, -(-n // 8)))


def run_batched(
    n: int,
    seed: int,
    label: str,
    kernel: Kernel,
    workers: int | None = None,
) -> tuple[np.ndarray, ...]:
    """Accumulate kernel partials over ceil(n / batch_size(n)) batches.

    The kernel receives (rng, count) and must return a tuple of float
    arrays whose shapes do not depend on count. Partials are summed in
    batch order regardless of which worker computed them. A non-integer n or
    seed (1000.0, NaN), or an n above MAX_SAMPLES, is a ValueError before
    the first draw.
    """
    n, seed = _check_dim(n, "sample count", 1), _check_dim(seed, "seed")
    if n > MAX_SAMPLES:
        raise ValueError(f"sample count must be <= 2^53, where float64 counts stay exact, got {n}")
    size = batch_size(n)
    batches = (n + size - 1) // size

    def one(j: int) -> tuple[np.ndarray, ...]:
        return kernel(batch_rng(seed, label, j), min(size, n - j * size))

    nw = worker_count(workers)
    if nw == 1 or batches == 1:
        return ordered_sum(map(one, range(batches)))
    with ThreadPoolExecutor(max_workers=nw) as pool:
        return ordered_sum(_in_order(pool, one, batches, IN_FLIGHT_PER_WORKER * nw))


def _in_order(pool: Executor, fn: Callable, count: int, window: int) -> Iterable:
    """fn(0), ..., fn(count - 1) run on pool and yielded in index order, with
    at most `window` calls submitted and not yet yielded, so memory does not
    grow with count (Executor.map submits every call up front). The calls
    not yet started are cancelled when the consumer stops or a call raises."""
    pending: deque = deque()
    try:
        for j in range(count):
            pending.append(pool.submit(fn, j))
            if len(pending) == window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def ordered_sum(parts: Iterable[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """Elementwise sum of equally shaped tuples of float arrays, taken in
    iteration order so that the rounding never depends on scheduling."""
    it = iter(parts)
    acc = [np.array(a, dtype=float, copy=True) for a in next(it)]
    for part in it:
        for a, p in zip(acc, part):
            a += p
    return tuple(acc)


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    n: int
    seed: int

    @classmethod
    def from_sums(cls, s: float, s2: float, n: int, seed: int) -> "McEstimate":
        # n and seed as Python ints, so that a run on numpy integers is JSON
        return cls(float(s / n), float(_stderr_table(np.float64(s), np.float64(s2), n)), int(n), int(seed))

    def sigma_ratio(self, target: float) -> float:
        """(mean - target) in units of the standard error."""
        return float(_sigma_ratios(self.mean - target, self.stderr))


# Largest |diff| that an exact estimate (standard error 0) may show against
# its target and still read 0 sigma: targets and oracles are computed in
# floating point, so an exact zero or -1 can meet a target of 1e-17 or
# -1.0000000000000002.
EXACT_TOL = 1e-12


def _sigma_ratios(diff, stderr) -> np.ndarray:
    """diff / stderr elementwise, the statistic of every 5-sigma gate. Where
    the standard error is 0 it reads 0 if |diff| <= EXACT_TOL, else inf
    (NaN included)."""
    diff, stderr = np.asarray(diff, dtype=float), np.asarray(stderr, dtype=float)
    positive = stderr > 0
    exact = np.where(np.abs(diff) <= EXACT_TOL, 0.0, np.inf)
    return np.where(positive, diff / np.where(positive, stderr, 1.0), exact)


def _stderr_table(sums: np.ndarray, sumsq: np.ndarray, n: int) -> np.ndarray:
    """Standard errors of the means of n samples from their sums and sums
    of squares, elementwise; the one variance formula of every estimate."""
    means = sums / n
    var = np.maximum(sumsq - n * means**2, 0.0) / max(n - 1, 1)
    return np.sqrt(var / n)


@dataclass
class JointTable:
    """Estimated joint outcome probabilities with per-cell standard errors."""

    means: np.ndarray
    stderrs: np.ndarray
    n: int
    seed: int
    labels_a: list
    labels_b: list

    @classmethod
    def from_sums(cls, sums, sumsq, n, seed, labels_a, labels_b) -> "JointTable":
        stderrs = _stderr_table(np.asarray(sums), np.asarray(sumsq), n)
        return cls(sums / n, stderrs, int(n), int(seed), list(labels_a), list(labels_b))  # ints: as McEstimate

    def cell(self, a: int, b: int) -> McEstimate:
        return McEstimate(float(self.means[a, b]), float(self.stderrs[a, b]), self.n, self.seed)

    def _deviations(self, oracle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|mean - oracle| of each cell and its ratio to the stderr; an oracle of another shape is a ValueError."""
        if np.shape(oracle) != self.means.shape:
            raise ValueError(f"oracle of shape {np.shape(oracle)} does not match the table's shape {self.means.shape}")
        diffs = np.abs(self.means - oracle)
        return diffs, _sigma_ratios(diffs, self.stderrs)

    def max_sigma(self, oracle: np.ndarray) -> float:
        """Largest |mean - oracle| / stderr over all cells."""
        return float(self._deviations(oracle)[1].max())

    def to_dict(self) -> dict:
        """The JSON payload: one {a, b, mean, stderr} cell per outcome pair, n and seed."""
        cells = [
            {"a": self.labels_a[i], "b": self.labels_b[j], "mean": float(self.means[i, j]), "stderr": float(self.stderrs[i, j])}
            for i, j in np.ndindex(self.means.shape)
        ]
        return {"cells": cells, "n": self.n, "seed": self.seed}

    def to_csv(self, oracle: np.ndarray) -> str:
        diffs, ratios = self._deviations(oracle)
        lines = ["a,b,mean,stderr,oracle,abs_diff,sigma_ratio"]
        for i, j in np.ndindex(self.means.shape):
            lines.append(
                f"{self.labels_a[i]},{self.labels_b[j]},{self.means[i, j]:.12g},{self.stderrs[i, j]:.12g},"
                f"{oracle[i, j]:.12g},{diffs[i, j]:.12g},{ratios[i, j]:.12g}"
            )
        return "\n".join(lines) + "\n"
