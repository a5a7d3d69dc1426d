import json
import os
import platform
import zlib

import numpy as np
import pytest

from nonlocal_lab.mc import BATCH_SIZE, EXACT_TOL, JointTable, McEstimate, _sigma_ratios, batch_rng, ordered_sum
from nonlocal_lab.mc import run_batched, worker_count


def bernoulli_kernel(rng, m):
    hits = (rng.random(m) < 0.3).astype(float)
    return np.array([hits.sum()]), np.array([hits.sum()])


class TestRunBatched:
    def test_worker_count_does_not_change_bits(self):
        n = 3 * BATCH_SIZE + 17
        ref = run_batched(n, 11, "t", bernoulli_kernel, workers=1)
        for w in (2, 4, 8):
            got = run_batched(n, 11, "t", bernoulli_kernel, workers=w)
            assert all(np.array_equal(a, b) for a, b in zip(ref, got))

    def test_seed_changes_stream(self):
        a = run_batched(BATCH_SIZE, 1, "t", bernoulli_kernel)
        b = run_batched(BATCH_SIZE, 2, "t", bernoulli_kernel)
        assert a[0][0] != b[0][0]

    def test_label_changes_stream(self):
        a = run_batched(BATCH_SIZE, 1, "alpha", bernoulli_kernel)
        b = run_batched(BATCH_SIZE, 1, "beta", bernoulli_kernel)
        assert a[0][0] != b[0][0]

    def test_batches_have_distinct_streams(self):
        r0 = batch_rng(5, "x", 0).random(4)
        r1 = batch_rng(5, "x", 1).random(4)
        assert not np.allclose(r0, r1)
        again = batch_rng(5, "x", 0).random(4)
        assert np.array_equal(r0, again)

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            run_batched(0, 1, "t", bernoulli_kernel)

    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv("NONLOCAL_LAB_THREADS", "3")
        assert worker_count() == 3
        assert worker_count(2) == 2
        monkeypatch.delenv("NONLOCAL_LAB_THREADS")
        assert worker_count() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "", "1.5"])
    def test_env_var_rejects_non_positive_integers(self, monkeypatch, value):
        monkeypatch.setenv("NONLOCAL_LAB_THREADS", value)
        with pytest.raises(ValueError, match="NONLOCAL_LAB_THREADS"):
            worker_count()
        assert worker_count(2) == 2
        with pytest.raises(ValueError, match="NONLOCAL_LAB_THREADS"):
            run_batched(10, 1, "t", bernoulli_kernel)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, 2.0, float("nan"), "2"])
    def test_rejects_non_positive_integer_workers(self, workers):
        # the rule NONLOCAL_LAB_THREADS already follows; a float, even 2.0, is no count
        with pytest.raises(ValueError, match="workers"):
            worker_count(workers)
        with pytest.raises(ValueError, match="workers"):
            run_batched(10, 1, "t", bernoulli_kernel, workers=workers)

    def test_numpy_integer_workers(self):
        assert worker_count(np.int64(3)) == 3
        assert type(worker_count(np.int64(3))) is int

    def test_ordered_sum_follows_iteration_order(self):
        parts = [(np.array([1e16]), np.array([1.0, 2.0])), (np.array([1.0]), np.array([3.0, 4.0])), (np.array([-1e16]), np.array([0.5, 0.5]))]
        s, t = ordered_sum(iter(parts))
        assert s[0] == (1e16 + 1.0) - 1e16
        assert np.array_equal(t, [4.5, 6.5])
        assert parts[0][1].tolist() == [1.0, 2.0]  # the first part is copied, not summed into


def first_draws(seed: int, label: str, batch: int) -> np.ndarray:
    return batch_rng(seed, label, batch).random(4)


# labels whose CRC-32 is 7 and 9: a prefix and four bytes that force the CRC
CRC7, CRC9 = "label38:\x02\x1e\x1a]", "label34:\x06c'*"


class TestBatchKey:
    def test_fixed_width_words_avoid_the_zero_padding_collision(self):
        assert zlib.crc32(CRC7.encode()) == 7 and zlib.crc32(CRC9.encode()) == 9
        # a list key [seed, crc, batch] is [5, 7, 9] against [5, 7, 9, 0]:
        # SeedSequence zero-pads, so the two would share one stream
        pad = [np.random.SeedSequence(w).generate_state(4) for w in ([5, 7, 9], [5, 7, 9, 0])]
        assert np.array_equal(*pad)
        assert not np.array_equal(first_draws(5, CRC7, 9), first_draws(5 + 7 * 2**32, CRC9, 0))

    def test_high_seed_word_and_high_batch_change_the_stream(self):
        assert not np.array_equal(first_draws(2**32, "x", 0), first_draws(1, "x", 0))
        assert not np.array_equal(first_draws(3, "x", 0), first_draws(3, "x", 2**32 - 1))

    def test_negative_seed_is_its_64_bit_twos_complement(self):
        for seed in (-1, -5, -(2**63)):
            assert np.array_equal(first_draws(seed, "x", 2), first_draws(seed + 2**64, "x", 2))
        assert not np.array_equal(first_draws(-1, "x", 2), first_draws(1, "x", 2))

    def test_stream_is_sfc64_seeded_from_the_four_words(self):
        rng = batch_rng(5 + 7 * 2**32, "x", 9)
        assert type(rng.bit_generator) is np.random.SFC64
        words = [5, 7, zlib.crc32(b"x"), 9]
        expected = np.random.Generator(np.random.SFC64(np.random.SeedSequence(words))).random(4)
        assert np.array_equal(rng.random(4), expected)


class TestMcEstimate:
    def test_bernoulli_moments(self):
        n = 400_000
        s, s2 = run_batched(n, 3, "bern", bernoulli_kernel)
        est = McEstimate.from_sums(float(s[0]), float(s2[0]), n, 3)
        expected_se = np.sqrt(0.3 * 0.7 / n)
        assert abs(est.mean - 0.3) < 5 * expected_se
        assert abs(est.stderr - expected_se) / expected_se < 0.05
        assert abs(est.sigma_ratio(0.3)) < 5

    def test_zero_variance(self):
        est = McEstimate.from_sums(10.0, 10.0 * 10.0 / 10, 10, 0)
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.sigma_ratio(1.0) == 0.0
        assert est.sigma_ratio(0.5) == np.inf


class TestSigmaRatios:
    def test_exact_estimate_reads_zero_within_rounding_of_its_target(self):
        assert EXACT_TOL == 1e-12
        assert np.array_equal(_sigma_ratios([2e-16, -2e-16, 0.0], [0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
        assert McEstimate(-1.0, 0.0, 10, 0).sigma_ratio(-1.0000000000000002) == 0.0

    def test_exact_estimate_reads_inf_beyond_the_tolerance(self):
        assert np.array_equal(_sigma_ratios([1e-9, -1e-9, 0.5], [0.0, 0.0, 0.0]), [np.inf] * 3)

    def test_exact_estimate_against_nan_reads_inf(self):
        assert _sigma_ratios(np.nan, 0.0) == np.inf

    def test_positive_stderr_is_a_plain_ratio(self):
        diff = np.array([2e-16, 1e-9, -0.3, 0.0])
        stderr = np.array([1e-3, 1e-9, 0.1, 0.5])
        assert np.array_equal(_sigma_ratios(diff, stderr), diff / stderr)


class TestJointTable:
    def make(self):
        sums = np.array([[100.0, 300.0], [300.0, 300.0]])
        return JointTable.from_sums(sums, sums, 1000, 7, [1, -1], [1, -1])

    def test_means_sum_to_one(self):
        t = self.make()
        assert np.isclose(t.means.sum(), 1.0, atol=1e-12)

    def test_json_schema(self):
        payload = json.loads(json.dumps(self.make().to_dict()))
        assert set(payload) == {"cells", "n", "seed"}
        assert set(payload["cells"][0]) == {"a", "b", "mean", "stderr"}
        assert len(payload["cells"]) == 4

    def test_csv_columns(self):
        t = self.make()
        header = t.to_csv(np.full((2, 2), 0.25)).splitlines()[0]
        assert header == "a,b,mean,stderr,oracle,abs_diff,sigma_ratio"
        row = t.to_csv(np.full((2, 2), 0.25)).splitlines()[1]
        assert row.split(",")[:5] == ["1", "1", "0.1", f"{t.stderrs[0, 0]:.12g}", "0.25"]

    def test_max_sigma(self):
        t = self.make()
        oracle = t.means.copy()
        assert t.max_sigma(oracle) == 0.0
        oracle[0, 0] += 10 * t.stderrs[0, 0]
        assert t.max_sigma(oracle) > 9


def test_importing_the_package_pins_numpys_openblas_to_one_thread():
    import nonlocal_lab  # noqa: F401
    from nonlocal_lab import mc

    # fails, rather than silently slowing down, when a numpy build moves or renames its OpenBLAS
    assert mc._OPENBLAS is not None, "numpy's bundled OpenBLAS was not found"
    assert mc._OPENBLAS[1]() == 1


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc pin is glibc's")
def test_importing_the_package_pins_glibc_malloc():
    """A kernel's per-batch arrays come from the heap, not from fresh mmaps:
    unpinned, a second run of this call took about 20k minor faults."""
    resource = pytest.importorskip("resource")
    from nonlocal_lab import lhv, mc

    assert mc._MALLOPT is not None
    x, y = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.6, 0.8])
    lhv.simulate_gd_w2x2(x, y, 10**6, 0, workers=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    lhv.simulate_gd_w2x2(x, y, 10**6, 0, workers=1)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
