"""Unit tests for the sampling layer.

Statistical assertions use fixed seeds chosen once; each has at least a
3-standard-error margin at the frozen seed, so they are deterministic
regressions, not flaky coin flips. Size-one products have exactly known
moments: (k!)^m for complex entries and ((2k-1)!!)^m for real ones.
"""

import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import ginprod.montecarlo
from ginprod.moment_engine import MomentQuery, moment_falling_sum
from ginprod.montecarlo import (
    GinibreSpec,
    MAX_WORKERS,
    RunConfig,
    WORKERS_ENV_VAR,
    _batches,
    _blas_threads,
    _replicate_states,
    _seed_prefix,
    blas_pinned,
    collect_spectra,
    convergence_table,
    default_workers,
    edge_from_values,
    moments_from_spectra,
    replicate_rng,
)

SEED = 20260825


def _reference_factors(spec, r):
    """Replicate r's factors, drawn one n x n block at a time from its stream:
    real part, then imaginary part for complex entries, entry variance 1/n."""
    n = spec.n
    rng = replicate_rng(spec, SEED, r)
    factors = []
    for _ in range(spec.m):
        if spec.field == "real":
            factors.append(rng.standard_normal((n, n)) / np.sqrt(n))
        else:
            factors.append((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n))
    return factors


def _reference_product(spec, r):
    factors = _reference_factors(spec, r)
    product = factors[0]
    for w in factors[1:]:
        product = product @ w
    return product


def _reference_spectrum(spec, r):
    """Replicate r's squared singular values, one product and one SVD at a time."""
    return np.linalg.svd(_reference_product(spec, r), compute_uv=False) ** 2


def _spectra(spec, replicates, workers=1):
    return collect_spectra(spec, RunConfig(replicates=replicates, master_seed=SEED, workers=workers))


class TestSpecValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            GinibreSpec(n=0, m=1)
        with pytest.raises(ValueError):
            GinibreSpec(n=4, m=0)

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            GinibreSpec(n=4, m=1, field="quaternion")

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            RunConfig(replicates=0, master_seed=1)
        with pytest.raises(ValueError):
            RunConfig(replicates=5, master_seed=-1)
        with pytest.raises(ValueError):
            RunConfig(replicates=5, master_seed=2**64)
        with pytest.raises(ValueError):
            RunConfig(replicates=5, master_seed=1, workers=0)
        assert RunConfig(replicates=5, master_seed=1, workers=MAX_WORKERS).workers == MAX_WORKERS
        with pytest.raises(ValueError, match=f"^workers must be <= {MAX_WORKERS}, got {MAX_WORKERS + 1}$"):
            RunConfig(replicates=5, master_seed=1, workers=MAX_WORKERS + 1)
        # Every replicate index is one 32-bit seed word; only the configs are built.
        assert RunConfig(replicates=2**32, master_seed=1).replicates == 2**32
        with pytest.raises(ValueError, match=r"replicates must be <= 2\*\*32"):
            RunConfig(replicates=2**32 + 1, master_seed=1)

    def test_rejects_bools_and_non_ints(self):
        for kwargs in ({"n": 2.5, "m": 1}, {"n": 4, "m": True}, {"n": "4", "m": 1}):
            with pytest.raises(TypeError):
                GinibreSpec(**kwargs)
        for kwargs in (
            {"replicates": 1.5, "master_seed": 1},
            {"replicates": True, "master_seed": 1},
            {"replicates": 5, "master_seed": 1.0},
            {"replicates": 5, "master_seed": 1, "workers": 2.0},
        ):
            with pytest.raises(TypeError):
                RunConfig(**kwargs)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert default_workers() == len(os.sched_getaffinity(0))
        assert RunConfig(replicates=1, master_seed=1).workers == default_workers()
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert default_workers() == 5
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(ValueError):
            default_workers()
        monkeypatch.setenv(WORKERS_ENV_VAR, str(MAX_WORKERS))
        assert default_workers() == MAX_WORKERS
        monkeypatch.setenv(WORKERS_ENV_VAR, str(MAX_WORKERS + 1))
        with pytest.raises(ValueError, match=rf"^{WORKERS_ENV_VAR} must be in \[1, {MAX_WORKERS}\], got {MAX_WORKERS + 1}$"):
            default_workers()
        monkeypatch.delenv(WORKERS_ENV_VAR)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4 * MAX_WORKERS)))
        assert default_workers() == MAX_WORKERS
        monkeypatch.setenv(WORKERS_ENV_VAR, "abc")
        with pytest.raises(ValueError, match=f"{WORKERS_ENV_VAR} must be an integer, got 'abc'"):
            default_workers()


class TestSampleContract:
    def test_spectrum_shape_and_order(self):
        for field in ("real", "complex"):
            spec = GinibreSpec(n=9, m=2, field=field)
            spectra = _spectra(spec, 2)
            assert spectra.shape == (2, 9)
            assert np.all(spectra > 0)
            assert np.all(np.diff(spectra, axis=1) <= 0)  # each row descending

    def test_frobenius_consistency(self):
        spec = GinibreSpec(n=16, m=3, field="complex")
        frobenius_sq = float(np.sum(np.abs(_reference_product(spec, 1)) ** 2))
        assert float(np.sum(_spectra(spec, 2)[1])) == pytest.approx(frobenius_sq, rel=1e-10)

    def test_entry_scale_convention(self):
        # Entry variance 1/n in both fields, so E ||W||_F^2 = n; at one
        # factor a row of the spectrum sums to ||W||_F^2.
        for field in ("real", "complex"):
            spec = GinibreSpec(n=64, m=1, field=field)
            assert float(np.sum(_spectra(spec, 3)[2])) == pytest.approx(64.0, rel=0.25)

    def test_scale_covariance(self):
        # Rescaling one factor by c rescales every squared singular value
        # by c^2: redraw the sampled factors and compare decompositions.
        spec = GinibreSpec(n=8, m=2, field="complex")
        c = 3.0
        factors = _reference_factors(spec, 3)
        scaled = np.linalg.svd((c * factors[0]) @ factors[1], compute_uv=False) ** 2
        assert np.allclose(scaled, c**2 * _spectra(spec, 4)[3], rtol=1e-10)

    def test_numerical_failure_is_explicit(self, monkeypatch):
        spec = GinibreSpec(n=4, m=1)

        def bad_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic non-convergence")

        monkeypatch.setattr(np.linalg, "svd", bad_svd)
        with pytest.raises(ArithmeticError):
            _spectra(spec, 1)


def _replicate_bytes(spec):
    """One replicate's share of the batch budget: its draws and its seeding."""
    return spec.m * (1 if spec.field == "real" else 2) * spec.n**2 * 8 + ginprod.montecarlo.SEED_BYTES


def _batch_sizes(spec, replicates, workers):
    """The replicate count of each batch a run samples, in order."""
    batches = _batches(spec, RunConfig(replicates=replicates, master_seed=SEED, workers=workers))
    assert [b.start for b in batches] == [0, *(b.stop for b in batches[:-1])]
    assert batches[-1].stop == replicates
    return [len(b) for b in batches]


def _split(replicates, size):
    """Batches of ``size`` with a smaller last one for the rest."""
    return [size] * (replicates // size) + ([replicates % size] if replicates % size else [])


#: Run sizes the sizing tests split: fewer replicates than workers, shares
#: below and above the floor, and ragged ends.
_RUN_SIZES = (1, 2, 3, 7, 16, 33, 200, 1001)


class TestBatchSizing:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("n", [5, 125, 126, 250, 251, 384, 500, 501])
    def test_parallel_batches_are_above_the_svd_gil_threshold(self, field, workers, n):
        # numpy's stacked SVD releases the GIL only when stack size x n > 500
        # (NPY_BEGIN_THREADS_THRESHOLDED). Every batch but the last is above
        # that wherever the per-worker share allows it, and its draws stay
        # within the byte budget or about 4 MB per n x n block (n = 500, floor 2).
        spec = GinibreSpec(n=n, m=1, field=field)
        parts = 1 if field == "real" else 2
        for replicates in _RUN_SIZES:
            sizes = _batch_sizes(spec, replicates, workers)
            share = -(-replicates // workers)
            assert max(sizes) <= share
            for size in sizes[:-1]:
                assert size * n > 500 or size == share, (replicates, sizes)
            assert sizes[0] * n * n * 8 * parts <= max(ginprod.montecarlo.BATCH_DRAW_BYTES, 4_000_000 * parts)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [5, 125, 126, 250, 251, 384, 500, 501])
    def test_one_worker_keeps_byte_bounded_batches(self, field, n):
        spec = GinibreSpec(n=n, m=2, field=field)
        budget = max(1, ginprod.montecarlo.BATCH_DRAW_BYTES // _replicate_bytes(spec))
        for replicates in _RUN_SIZES:
            assert _batch_sizes(spec, replicates, 1) == _split(replicates, min(budget, replicates))


class TestBatchKernel:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_batches_match_single_replicates(self, monkeypatch, field, m, workers):
        # Three replicates per batch by bytes at one worker. More workers raise
        # a batch to the floor of 500 // 5 + 1 = 101 replicates, capped at the
        # per-worker share: six at two workers, two at eight. 11 replicates
        # leave a ragged last batch at every worker count.
        spec = GinibreSpec(n=5, m=m, field=field)
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", 3 * _replicate_bytes(spec))
        assert _batch_sizes(spec, 11, workers) == {1: [3, 3, 3, 2], 2: [6, 5], 8: [2, 2, 2, 2, 2, 1]}[workers]
        rows = [_reference_spectrum(spec, r) for r in range(11)]
        assert np.array_equal(_spectra(spec, 11, workers), np.vstack(rows))

    def test_draw_factors_are_the_multiplied_factors(self):
        # Each factor consumes the stream in order: n x n real parts, then
        # n x n imaginary parts for complex entries. The sampler's row is
        # the SVD of exactly those factors multiplied left to right.
        for field in ("real", "complex"):
            spec = GinibreSpec(n=6, m=3, field=field)
            factors = _reference_factors(spec, 4)
            product = factors[0] @ factors[1] @ factors[2]
            squared = np.linalg.svd(product, compute_uv=False) ** 2
            assert np.array_equal(_spectra(spec, 5)[4], squared)

    @pytest.mark.parametrize("scale, message", [(np.nan, "non-finite"), (1.01, "Frobenius")])
    def test_bad_replicate_is_named(self, monkeypatch, scale, message):
        # Spoil the second row of the second batch (of four replicates):
        # the error must name replicate 5, not the row within its batch.
        spec = GinibreSpec(n=3, m=2, field="complex")
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", 4 * _replicate_bytes(spec))
        real_svd = np.linalg.svd
        shapes = []

        def svd(a, *args, **kwargs):
            singular = real_svd(a, *args, **kwargs)
            shapes.append(a.shape)
            if len(shapes) == 2:
                singular[1] *= scale
            return singular

        monkeypatch.setattr(np.linalg, "svd", svd)
        with pytest.raises(ArithmeticError, match=f"{message}.*replicate 5"):
            collect_spectra(spec, RunConfig(replicates=10, master_seed=SEED, workers=1))
        assert shapes == [(4, 3, 3), (4, 3, 3)]


class TestSeeding:
    def test_same_replicate_reproduces(self):
        # Replicate 17 is the same in a run of 18 and in a run of 40.
        spec = GinibreSpec(n=6, m=2, field="real")
        a = _spectra(spec, 18)[17]
        b = _spectra(spec, 40)[17]
        assert np.array_equal(a, b)
        assert np.array_equal(a, _reference_spectrum(spec, 17))

    def test_distinct_replicates_differ(self):
        spectra = _spectra(GinibreSpec(n=6, m=2, field="real"), 2)
        assert not np.array_equal(spectra[0], spectra[1])

    def test_streams_keyed_by_spec(self):
        a = _spectra(GinibreSpec(n=6, m=1), 1)[0]
        b = _spectra(GinibreSpec(n=6, m=2), 1)[0]
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bulk_states_match_replicate_rng(self, field, m):
        # The sampler's bulk-derived states are the contract's generators, bit
        # for bit, at the extremes of the seed and the replicate index. Sizes
        # of two 32-bit words move the hash constant of r's mixing round.
        replicates = [*range(64), 2**20, 2**32 - 1]
        for n in (7, 2**32, 2**40):
            spec = GinibreSpec(n=n, m=m, field=field)
            for master_seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # wrapping uint32 arithmetic must stay silent
                    states = list(_replicate_states(_seed_prefix(spec, master_seed), replicates))
                want = [replicate_rng(spec, master_seed, r).bit_generator.state for r in replicates]
                assert states == want, (n, master_seed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_seed_prefix_derived_once_per_run(self, monkeypatch, workers):
        # Every batch shares one derivation of the run's fixed words: five
        # batches of one replicate at one worker, and at two workers the
        # per-worker share of three, which caps the floor of 500 // 4 + 1.
        spec = GinibreSpec(n=4, m=2, field="complex")
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", _replicate_bytes(spec))
        sizes = {1: [1, 1, 1, 1, 1], 2: [3, 2]}[workers]
        assert _batch_sizes(spec, 5, workers) == sizes
        derived, used = [], []

        def seed_prefix(*args):
            derived.append(_seed_prefix(*args))
            return derived[-1]

        def replicate_states(prefix, replicates):
            used.append(prefix)
            return _replicate_states(prefix, replicates)

        monkeypatch.setattr(ginprod.montecarlo, "_seed_prefix", seed_prefix)
        monkeypatch.setattr(ginprod.montecarlo, "_replicate_states", replicate_states)
        spectra = _spectra(spec, 5, workers)
        assert len(derived) == 1
        assert len(used) == len(sizes) and all(prefix is derived[0] for prefix in used)
        assert np.array_equal(spectra, np.vstack([_reference_spectrum(spec, r) for r in range(5)]))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sampling_reads_no_os_entropy(self, monkeypatch, workers):
        # numpy gathers OS entropy only for an unseeded generator; every batch's
        # generator is seeded from the run's own sequence.
        def no_entropy(*args):
            raise AssertionError("read OS entropy while sampling")

        spec = GinibreSpec(n=4, m=2, field="complex")
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", 2 * _replicate_bytes(spec))
        want = np.vstack([_reference_spectrum(spec, r) for r in range(5)])
        monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
        assert np.array_equal(_spectra(spec, 5, workers), want)

    def test_worker_count_never_changes_results(self):
        spec = GinibreSpec(n=12, m=2, field="complex")
        one = collect_spectra(spec, RunConfig(replicates=40, master_seed=SEED, workers=1))
        eight = collect_spectra(spec, RunConfig(replicates=40, master_seed=SEED, workers=8))
        assert np.array_equal(one, eight)


@pytest.fixture
def blas_count():
    """BLAS's thread-count getter, with the count set to 2 for the test and put back after it."""
    if _blas_threads() is None:
        pytest.skip("no BLAS thread control found for this numpy")
    get, set_ = _blas_threads()
    saved = get()
    set_(2)
    yield get
    set_(saved)


class TestBlasPinning:
    def _svd_recording(self, monkeypatch, get, spoil=False):
        real_svd = np.linalg.svd
        counts = []

        def svd(a, *args, **kwargs):
            counts.append(get())
            singular = real_svd(a, *args, **kwargs)
            if spoil:
                singular[0] *= np.nan
            return singular

        monkeypatch.setattr(np.linalg, "svd", svd)
        return counts

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_thread_while_sampling_and_restored_after(self, monkeypatch, blas_count, workers):
        # Four batches of one replicate at one worker; at two, two batches of
        # the per-worker share, which caps the floor of 500 // 4 + 1.
        spec = GinibreSpec(n=4, m=2, field="complex")
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", _replicate_bytes(spec))
        counts = self._svd_recording(monkeypatch, blas_count)
        _spectra(spec, 4, workers)
        assert counts == [1] * {1: 4, 2: 2}[workers]
        assert blas_count() == 2
        assert blas_pinned()

    def test_restored_after_a_spoiled_replicate(self, monkeypatch, blas_count):
        counts = self._svd_recording(monkeypatch, blas_count, spoil=True)
        with pytest.raises(ArithmeticError, match="non-finite"):
            _spectra(GinibreSpec(n=3, m=1), 2, 1)
        assert counts == [1]
        assert blas_count() == 2

    def test_overlapping_runs_stay_pinned_until_the_last_ends(self, monkeypatch, blas_count):
        # Run a (n = 3) waits inside its SVD until run b (n = 4) has finished in
        # another thread; neither may block the other or unpin while a is running.
        a_inside, b_done = threading.Event(), threading.Event()
        real_svd = np.linalg.svd
        counts = []

        def svd(a, *args, **kwargs):
            counts.append(blas_count())
            if a.shape[-1] == 3:
                a_inside.set()
                assert b_done.wait(timeout=60), "run b never finished while run a was sampling"
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        results, errors = {}, []

        def sample(n):
            try:
                results[n] = _spectra(GinibreSpec(n=n, m=1), 2, 1)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        run_a = threading.Thread(target=sample, args=(3,))
        run_a.start()
        try:
            assert a_inside.wait(timeout=60)
            run_b = threading.Thread(target=sample, args=(4,))
            run_b.start()
            run_b.join(timeout=60)
            assert not run_b.is_alive() and 4 in results, "run b waited for run a"
            assert blas_count() == 1  # a still samples: b must not have restored the count
        finally:
            b_done.set()  # let run a end, whatever failed
            run_a.join(timeout=60)
        assert not errors and 3 in results
        assert counts and set(counts) == {1}
        assert blas_count() == 2

    def test_many_overlapping_runs_keep_the_count(self, monkeypatch, blas_count):
        # More sampling threads than cores, switching often: a lost update of the
        # run count would unpin during a run or leave BLAS pinned after the last.
        counts = self._svd_recording(monkeypatch, blas_count)
        errors = []

        def sample():
            try:
                for _ in range(1000):
                    _spectra(GinibreSpec(n=1, m=1), 1, 1)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sample) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert len(counts) == 8 * 1000 and set(counts) == {1}
        assert blas_count() == 2

    def test_no_thread_control_samples_unpinned(self, monkeypatch):
        spec = GinibreSpec(n=6, m=2, field="complex")
        pinned = _spectra(spec, 5)
        monkeypatch.setattr(ginprod.montecarlo, "_blas_threads", lambda: None)
        assert not blas_pinned()
        assert np.array_equal(_spectra(spec, 5), pinned)

    def test_lookup_does_not_run_at_import(self):
        code = ("import ginprod, ginprod.cli, ginprod.montecarlo as mc; "
                "print(mc._blas_threads.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(ginprod.montecarlo.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"


class TestMoments:
    def test_size_one_closed_forms(self):
        # Complex: E s^(2k) = k!; real: E s^(2k) = (2k-1)!!.
        config = RunConfig(replicates=100_000, master_seed=SEED)
        wants = {"complex": [1.0, 2.0, 6.0], "real": [1.0, 3.0, 15.0]}
        for field, want in wants.items():
            moments = moments_from_spectra(collect_spectra(GinibreSpec(n=1, m=1, field=field), config), 3)
            for k in (1, 2, 3):
                dev = abs(moments.mean(k) - want[k - 1])
                assert dev <= 3 * moments.standard_error(k), (field, k)

    def test_real_field_second_moment_offset(self):
        # At one factor the real-entry second moment is 2 + 1/n, separated
        # from the complex value 2 by many standard errors at n = 32.
        spec = GinibreSpec(n=32, m=1, field="real")
        config = RunConfig(replicates=2000, master_seed=SEED)
        moments = moments_from_spectra(collect_spectra(spec, config), 2)
        se = moments.standard_error(2)
        assert abs(moments.mean(2) - (2 + 1 / 32)) <= 3 * se
        assert moments.mean(2) - 2 > 4 * se

    def test_complex_field_matches_exact_engine(self):
        spec = GinibreSpec(n=24, m=2, field="complex")
        config = RunConfig(replicates=800, master_seed=SEED)
        moments = moments_from_spectra(collect_spectra(spec, config), 2)
        for k in (1, 2):
            exact = float(moment_falling_sum(MomentQuery(m=2, n=24, k=k)).value)
            assert abs(moments.mean(k) - exact) <= 3 * moments.standard_error(k)

    def test_single_replicate_has_zero_se(self):
        spec = GinibreSpec(n=5, m=1)
        moments = moments_from_spectra(_spectra(spec, 1), 2)
        assert moments.standard_error(1) == 0.0
        assert moments.standard_error(2) == 0.0

    def test_rejects_bad_kmax(self):
        spec = GinibreSpec(n=5, m=1)
        with pytest.raises(ValueError):
            moments_from_spectra(_spectra(spec, 2), 0)


class TestEdgeEstimate:
    def test_quantiles_ordered_and_consistent(self):
        spec = GinibreSpec(n=16, m=1, field="real")
        est = edge_from_values(_spectra(spec, 100)[:, 0])
        assert est.q05 <= est.q50 <= est.q95
        assert est.values.shape == (100,)
        assert est.mean_s1sq == pytest.approx(float(est.values.mean()))

    def test_edge_from_values_matches_estimate(self):
        # Each convergence row is edge_from_values over that size's top values.
        config = RunConfig(replicates=50, master_seed=SEED)
        rows = convergence_table(2, [5, 10], config, field="complex")
        for row in rows:
            spectra = collect_spectra(GinibreSpec(n=row.n, m=2, field="complex"), config)
            est = edge_from_values(spectra[:, 0])
            assert row.mean_s1sq == est.mean_s1sq
            assert row.standard_error == est.standard_error
            assert row.gap == 6.75 - est.mean_s1sq
            assert row.replicates == 50


class TestConvergenceTable:
    def test_single_point_grid(self):
        rows = convergence_table(1, [32], RunConfig(replicates=10, master_seed=SEED))
        assert len(rows) == 1
        assert rows[0].n == 32
        assert rows[0].replicates == 10

    def test_gap_reported_against_edge_constant(self):
        rows = convergence_table(1, [16, 32], RunConfig(replicates=25, master_seed=SEED))
        for row in rows:
            assert row.gap == pytest.approx(4.0 - row.mean_s1sq)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            convergence_table(1, [32, 16], RunConfig(replicates=2, master_seed=SEED))
        with pytest.raises(ValueError):
            convergence_table(1, [16, 16], RunConfig(replicates=2, master_seed=SEED))

    def test_bad_grid_refused_before_sampling(self, monkeypatch):
        def collect_spectra(*args):
            raise AssertionError("sampled before the grid was checked")

        monkeypatch.setattr(ginprod.montecarlo, "collect_spectra", collect_spectra)
        config = RunConfig(replicates=2, master_seed=SEED)
        with pytest.raises(ValueError, match="empty n-grid"):
            convergence_table(1, [], config)
        with pytest.raises(TypeError, match="n must be an int"):
            convergence_table(1, [256, 512.0], config)
        with pytest.raises(ValueError, match="n must be >= 1"):
            convergence_table(1, [8, 0], config)
