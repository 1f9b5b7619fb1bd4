"""Unit tests for the sampling layer.

Statistical assertions use fixed seeds chosen once; each has at least a
3-standard-error margin at the frozen seed, so they are deterministic
regressions, not flaky coin flips. Size-one products have exactly known
moments: (k!)^m for complex entries and ((2k-1)!!)^m for real ones.
"""

import functools
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
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
    _add128,
    _batches,
    _blas_threads,
    _moment_bytes,
    _mul128,
    _pcg64_word_order,
    _replicate_states,
    _run_bytes,
    _seed_prefix,
    _state_words,
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


def _streaming_budget(spec):
    """A batch budget one byte below one replicate's draws, so that every batch streams."""
    return _replicate_bytes(spec) - ginprod.montecarlo.SEED_BYTES - 1


def _traced_peak(spec):
    """Traced peak of one warmed-up replicate at one worker, in n x n arrays of its entries."""
    _spectra(spec, 1)
    tracemalloc.start()
    try:
        _spectra(spec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (spec.n**2 * (8 if spec.field == "real" else 16))


def _cores(monkeypatch, cores):
    """Make the sampler see ``cores`` usable cores, which set a run's thread count and so its batches."""
    monkeypatch.setattr(ginprod.montecarlo, "_usable_cores", lambda: cores)


def _batch_sizes(spec, replicates, workers):
    """The replicate count of each batch a run samples, in order."""
    size, count, *_ = _batches(spec, RunConfig(replicates=replicates, master_seed=SEED, workers=workers))
    assert (count - 1) * size < replicates <= count * size
    return [min(size, replicates - start) for start in range(0, count * size, size)]


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
    def test_parallel_batches_are_above_the_svd_gil_threshold(self, monkeypatch, field, workers, n):
        # numpy's stacked SVD releases the GIL only when stack size x n > 500
        # (NPY_BEGIN_THREADS_THRESHOLDED). Every batch but the last is above
        # that wherever the per-thread share allows it, and its draws stay
        # within the byte budget or about 4 MB per n x n block (n = 500, floor 2).
        # A run's threads are its workers, and a helper for each of them a
        # spare core is left to: one worker on two cores has two threads, and
        # two workers on 16 have four.
        spec = GinibreSpec(n=n, m=1, field=field)
        parts = 1 if field == "real" else 2
        for run_workers, cores, threads in ((workers, 1, workers), (1, 2, 2), (workers, 16, min(2 * workers, 16))):
            _cores(monkeypatch, cores)
            for replicates in _RUN_SIZES:
                sizes = _batch_sizes(spec, replicates, run_workers)
                share = -(-replicates // threads)
                assert max(sizes) <= share
                for size in sizes[:-1]:
                    assert size * n > 500 or size == share, (replicates, sizes)
                assert sizes[0] * n * n * 8 * parts <= max(ginprod.montecarlo.BATCH_DRAW_BYTES, 4_000_000 * parts)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [5, 125, 126, 250, 251, 384, 500, 501])
    def test_one_worker_keeps_byte_bounded_batches(self, monkeypatch, field, n):
        # One worker on one core runs one thread, and its batches follow the budget alone.
        _cores(monkeypatch, 1)
        spec = GinibreSpec(n=n, m=2, field=field)
        budget = max(1, ginprod.montecarlo.BATCH_DRAW_BYTES // _replicate_bytes(spec))
        for replicates in _RUN_SIZES:
            assert _batch_sizes(spec, replicates, 1) == _split(replicates, min(budget, replicates))


class TestBatchKernel:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_batches_match_single_replicates(self, monkeypatch, field, m, workers):
        # Three replicates per batch by bytes at one worker on one core, or one
        # when the budget is below one replicate's draws and every batch
        # streams. More threads raise a batch to the floor of 500 // 5 + 1 = 101
        # replicates, capped at the per-thread share: six at two threads (two
        # workers, or one worker on two cores), two at eight. 11 replicates
        # leave a ragged last batch at every floor.
        spec = GinibreSpec(n=5, m=m, field=field)
        rows = np.vstack([_reference_spectrum(spec, r) for r in range(11)])
        for cores in (1, 2):
            _cores(monkeypatch, cores)
            for budget, by_bytes in ((3 * _replicate_bytes(spec), [3, 3, 3, 2]), (_streaming_budget(spec), [1] * 11)):
                monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", budget)
                one = by_bytes if cores == 1 else [6, 5]
                assert _batch_sizes(spec, 11, workers) == {1: one, 2: [6, 5], 8: [2, 2, 2, 2, 2, 1]}[workers]
                assert np.array_equal(_spectra(spec, 11, workers), rows)

    @pytest.mark.parametrize(
        "field, m, limit", [("real", 3, 3.5), ("complex", 2, 3.5), ("real", 1, 2.03), ("complex", 1, 2.14)]
    )
    def test_streamed_replicate_memory(self, monkeypatch, field, m, limit):
        # tracemalloc sees numpy's array data, not LAPACK's workspace. At
        # n = 256 one real m = 3 or complex m = 2 replicate is over the byte
        # budget: streamed, it holds three n x n arrays of its entries, where
        # holding its draws took six and five. At m = 1 a replicate fits the
        # budget, and streaming it holds no more than holding its draws did
        # before the entries were written in place: 2.03 and 2.14 arrays.
        spec = GinibreSpec(n=256, m=m, field=field)
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", _streaming_budget(spec))
        assert _traced_peak(spec) <= limit

    def test_held_complex_replicate_memory(self):
        # A held complex m = 1 replicate holds its draws and its entries,
        # written in place: two n x n arrays, with no complex temporaries.
        assert _traced_peak(GinibreSpec(n=256, m=1, field="complex")) <= 2.05

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

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("scale, message", [(np.nan, "non-finite"), (1.01, "Frobenius")])
    def test_bad_replicate_is_named(self, monkeypatch, scale, message, cores):
        # Spoil replicate 5, a row inside its batch but not the first: the error
        # must name replicate 5, not the row within its batch. Within the budget,
        # 12 replicates at one worker on one core make batches of four (replicate
        # 5 is the second row of the second); on two cores its two threads take
        # floor batches capped at their share of six (the last row of the
        # first). Below one replicate's draws, 8 replicates at two workers make
        # streamed floor batches capped at the share of four (the second row of
        # the second). Every thread is gone once the error is raised.
        _cores(monkeypatch, cores)
        spec = GinibreSpec(n=3, m=2, field="complex")
        spoiled = _reference_product(spec, 5)
        real_svd = np.linalg.svd
        shapes, spoiled_on = [], []

        def svd(a, *args, **kwargs):
            singular = real_svd(a, *args, **kwargs)
            shapes.append(a.shape)
            for i in range(len(a)):
                if np.array_equal(a[i], spoiled):
                    singular[i, 1] *= scale
                    spoiled_on.append(threading.current_thread())
            return singular

        monkeypatch.setattr(np.linalg, "svd", svd)
        # One thread decomposes the first two batches in order and skips the
        # rest; two threads may each have started their batch.
        one_thread = cores == 1
        for budget, replicates, workers, sizes in (
            (4 * _replicate_bytes(spec), 12, 1, [4, 4, 4] if one_thread else [6, 6]),
            (_streaming_budget(spec), 8, 2, [4, 4]),
        ):
            monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", budget)
            assert _batch_sizes(spec, replicates, workers) == sizes
            shapes.clear()
            spoiled_on.clear()
            threads = set(threading.enumerate())
            with pytest.raises(ArithmeticError, match=f"{message}.*replicate 5"):
                collect_spectra(spec, RunConfig(replicates=replicates, master_seed=SEED, workers=workers))
            assert set(threading.enumerate()) == threads
            assert len(spoiled_on) == 1
            if workers == 1 and one_thread:
                assert shapes == [(4, 3, 3), (4, 3, 3)] and spoiled_on[0] is threading.current_thread()
            else:
                assert set(shapes) == {(sizes[0], 3, 3)} and len(shapes) <= 2, shapes


def _record_stages(monkeypatch):
    """Patch both stages to record, per call, (stage, thread, batch, buffers, products, enter, exit):
    the buffers a draw was given (None for a reduce) and the products it returned or a reduce was handed."""
    calls = []
    draw, reduce = ginprod.montecarlo._draw_stage, ginprod.montecarlo._reduce_stage

    def draw_stage(spec, prefix, batch, buffers):
        enter = time.perf_counter()
        products = draw(spec, prefix, batch, buffers)
        calls.append(("draw", threading.current_thread(), batch, buffers, products, enter, time.perf_counter()))
        return products

    def reduce_stage(spec, batch, products):
        enter = time.perf_counter()
        squared = reduce(spec, batch, products)
        calls.append(("reduce", threading.current_thread(), batch, None, products, enter, time.perf_counter()))
        return squared

    monkeypatch.setattr(ginprod.montecarlo, "_draw_stage", draw_stage)
    monkeypatch.setattr(ginprod.montecarlo, "_reduce_stage", reduce_stage)
    return calls


def _record_starts(monkeypatch):
    """Patch ``threading.Thread.start`` to record every thread started; return the records."""
    started, start = [], threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


def _by_thread(calls, stage):
    """The ``stage`` calls of each thread, keyed by thread."""
    by_thread = {}
    for call in calls:
        if call[0] == stage:
            by_thread.setdefault(call[1], []).append(call)
    return by_thread


class TestScheduling:
    @pytest.mark.parametrize("streamed", [False, True])
    def test_one_worker_on_one_core_starts_no_thread(self, monkeypatch, streamed):
        # Three batches of one replicate, held or streamed: with no core to
        # spare, both stages of each run on the caller, and no thread is started.
        _cores(monkeypatch, 1)
        spec = GinibreSpec(n=4, m=2, field="complex")
        budget = _streaming_budget(spec) if streamed else _replicate_bytes(spec)
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", budget)
        calls = _record_stages(monkeypatch)

        def start(thread):
            raise AssertionError("a one-worker run on one core started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        spectra = _spectra(spec, 3, 1)
        caller = threading.current_thread()
        assert [(stage, thread, len(batch)) for stage, thread, batch, *_ in calls] == [
            ("draw", caller, 1), ("reduce", caller, 1)] * 3
        assert np.array_equal(spectra, np.vstack([_reference_spectrum(spec, r) for r in range(3)]))

    def _one_worker_on_two_cores(self, monkeypatch, streamed):
        """Sample 40 complex m = 2 replicates at n = 50 with one worker on two cores, held
        or streamed: two threads, so floor batches of 500 // 50 + 1 = 11. Return the
        recorded stage calls and the threads the run started."""
        _cores(monkeypatch, 2)
        spec = GinibreSpec(n=50, m=2, field="complex")
        budget = _streaming_budget(spec) if streamed else 11 * _replicate_bytes(spec)
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", budget)
        assert _batches(spec, RunConfig(40, SEED, 1)) == (11, 4, streamed, 2)
        threads = set(threading.enumerate())
        calls, started = _record_stages(monkeypatch), _record_starts(monkeypatch)
        spectra = _spectra(spec, 40, 1)
        assert set(threading.enumerate()) == threads  # every started thread is joined
        assert np.array_equal(spectra, np.vstack([_reference_spectrum(spec, r) for r in range(40)]))
        return calls, started

    @pytest.mark.parametrize("streamed", [False, True])
    def test_one_worker_on_two_cores_runs_two_threads(self, monkeypatch, streamed):
        # The caller and one started thread each take batches from the run's one
        # sequence: every batch is drawn exactly once, and a thread reduces
        # exactly the batches it drew, from views of its own product array.
        calls, started = self._one_worker_on_two_cores(monkeypatch, streamed)
        assert len(started) == 1
        draws, reduces = _by_thread(calls, "draw"), _by_thread(calls, "reduce")
        assert draws.keys() <= {threading.current_thread(), *started} and reduces.keys() <= draws.keys()
        drawn = sorted((call[2].start, len(call[2])) for made in draws.values() for call in made)
        assert drawn == [(0, 11), (11, 11), (22, 11), (33, 7)]
        products = set()
        for thread, made in draws.items():
            assert {call[2] for call in made} == {call[2] for call in reduces[thread]}
            handed = {call[2]: call[4] for call in reduces[thread]}
            product = made[0][3][1]
            for _, _, batch, buffers, returned, *_ in made:
                assert handed[batch] is returned and returned.base is buffers[1] is product
            products.add(id(product))
        assert len(products) == len(draws)

    @pytest.mark.parametrize("streamed", [False, True])
    def test_a_workers_threads_share_its_scratch_and_draw_in_turn(self, monkeypatch, streamed):
        # Both threads draw with the worker's one set of draws, spare and factor,
        # and the worker's draw lock keeps their draw stages from overlapping.
        calls, _ = self._one_worker_on_two_cores(monkeypatch, streamed)
        draws = sorted((call for call in calls if call[0] == "draw"), key=lambda call: call[5])
        first = draws[0][3]
        assert (first[0] is None) == streamed and all(a is not None for a in first[2:])
        assert all(call[3][k] is first[k] for call in draws for k in (0, 2, 3))
        assert all(a[6] <= b[5] for a, b in zip(draws, draws[1:])), [call[5:] for call in draws]

    # Runs of each shape: one thread (1 worker, 1 core), a worker with a helper
    # (1 on 2), workers alone (2 on 2, 8 on 2), every worker with a helper (2 on
    # 16) and, at 8 on 16, more threads than batches for the held run's 13.
    @pytest.mark.parametrize("workers, cores, threads", [(1, 1, 1), (1, 2, 2), (2, 2, 2), (2, 16, 4), (8, 2, 8),
                                                         (8, 16, 16)])
    def test_a_run_draws_all_its_batches_one_way(self, monkeypatch, workers, cores, threads):
        # At n = 200 a complex m = 2 replicate is over the budget, so its run
        # streams: 25 batches of one on one thread, else floor batches of three
        # capped at the per-thread share (two at 16 threads) and a last one of
        # one, which streams too. Three real m = 1 replicates fit the budget,
        # so that run holds batches of three, or two at 16 threads, at every
        # thread count. Only a held run's scratch has draws. The run starts
        # one thread fewer than it has threads, up to its batch count; each
        # worker makes one scratch set, which its threads share, and each
        # thread one product array, both for a full batch.
        _cores(monkeypatch, cores)
        for spec, streamed in ((GinibreSpec(n=200, m=2, field="complex"), True), (GinibreSpec(n=200, m=1), False)):
            want = _spectra(spec, 25)
            size = 1 if streamed and threads == 1 else 2 if threads == 16 else 3
            count = -(-25 // size)
            run_threads, run_workers = min(threads, count), min(workers, count)
            with monkeypatch.context() as patch:
                calls, started = _record_stages(patch), _record_starts(patch)
                assert np.array_equal(_spectra(spec, 25, workers), want)
            assert len(started) == run_threads - 1
            draws = _by_thread(calls, "draw")
            assert draws.keys() <= {threading.current_thread(), *started}
            assert _by_thread(calls, "reduce").keys() <= draws.keys()
            assert sorted(call[2].start for made in draws.values() for call in made) == list(range(0, 25, size))
            scratch, products, arrays = {}, set(), {}
            for made in draws.values():
                arrays.update((id(a), a.nbytes) for a in made[0][3] if a is not None)
                held_draws, product, spare, _ = made[0][3]
                assert all(call[3] is made[0][3] for call in made)
                assert product.shape == (size, 200, 200) and id(product) not in products
                products.add(id(product))
                assert held_draws is None if streamed else held_draws.shape == (size, spec.m, 1, 200, 200)
                key = id(spare if streamed else held_draws)
                scratch[key] = scratch.get(key, 0) + 1
            assert len(scratch) <= run_workers and max(scratch.values()) <= 2
            # Beside the result and each thread's SVD copy, the pre-flight counts
            # the arrays the threads drew with, and no more.
            svd_copies = run_threads * 200**2 * (8 if spec.field == "real" else 16)
            budgeted = _run_bytes(spec, RunConfig(25, SEED, workers)) - 25 * 200 * 8 - svd_copies
            assert sum(arrays.values()) <= budgeted
            assert sum(arrays.values()) == budgeted or len(draws) < run_threads

    def test_every_batch_is_drawn_once_under_frequent_switches(self, monkeypatch):
        # Eight workers on 16 cores run 16 threads over one sequence of 600
        # one-replicate batches (floor and budget patched down to one), switching
        # often: a batch handed out twice or lost would show in the draws or the bits.
        _cores(monkeypatch, 16)
        spec = GinibreSpec(n=2, m=2, field="complex")
        want = _spectra(spec, 600)
        monkeypatch.setattr(ginprod.montecarlo, "SVD_GIL_THRESHOLD", 0)
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", _replicate_bytes(spec))
        assert _batches(spec, RunConfig(600, SEED, 8)) == (1, 600, False, 16)
        calls, results = _record_stages(monkeypatch), []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = threading.Thread(target=lambda: results.append(_spectra(spec, 600, 8)))
            run.start()
            run.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive() and len(results) == 1
        assert sorted(call[2].start for call in calls if call[0] == "draw") == list(range(600))
        assert np.array_equal(results[0], want)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("streamed", [False, True])
    def test_products_are_views_of_the_workers_product_buffer(self, monkeypatch, field, m, streamed):
        # Held or streamed, the draw stage writes every batch's products into
        # its thread's product array and returns its front rows, the ragged
        # last batch included: 7 replicates in batches of three on one core,
        # or at two workers two floor batches capped at the share of four.
        _cores(monkeypatch, 1)
        spec = GinibreSpec(n=5, m=m, field=field)
        budget = _streaming_budget(spec) if streamed else 3 * _replicate_bytes(spec)
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", budget)
        for workers, sizes in ((1, [1] * 7 if streamed else [1, 3, 3]), (2, [3, 4])):
            calls = _record_stages(monkeypatch)
            _spectra(spec, 7, workers)
            draws = [call for call in calls if call[0] == "draw"]
            assert sorted(len(batch) for _, _, batch, *_ in draws) == sizes
            for _, _, batch, buffers, products, *_ in draws:
                assert products.base is buffers[1] and products.shape == (len(batch), 5, 5)
                assert (buffers[0] is None) == streamed


def _record_empties(monkeypatch):
    """Patch ``np.empty`` to record the bytes of every array it makes; return the records."""
    made, empty = [], np.empty

    def record(*args, **kwargs):
        array = empty(*args, **kwargs)
        made.append(array.nbytes)
        return array

    monkeypatch.setattr(np, "empty", record)
    return made


def _never(*args, **kwargs):
    raise AssertionError("worked before the run's memory was checked")


class TestMemoryPreflight:
    @pytest.mark.parametrize("workers, cores", [(1, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("streamed", [False, True])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_run_bytes_are_what_a_run_allocates(self, monkeypatch, m, field, streamed, workers, cores):
        # The arrays a run makes, its result and every worker's and thread's
        # buffers, add up to _run_bytes less the n x n copy each thread's SVD
        # makes inside numpy: the count follows the rule the run allocates by.
        _cores(monkeypatch, cores)
        spec = GinibreSpec(n=6, m=m, field=field)
        if streamed:
            monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", _streaming_budget(spec))
        config = RunConfig(23, SEED, workers)
        _, _, streams, threads = _batches(spec, config)
        assert streams == streamed and threads == min(cores, 2)
        _pcg64_word_order()  # the once-a-process probe, whose state read makes a small array
        made = _record_empties(monkeypatch)
        collect_spectra(spec, config)
        assert sum(made) == _run_bytes(spec, config) - threads * 36 * (8 if field == "real" else 16)

    def test_library_run_past_memory_is_refused_before_any_work(self, monkeypatch):
        # One byte short of _run_bytes, collect_spectra raises the command line's
        # refusal before it allocates, seeds or starts a thread; at _run_bytes it samples.
        _cores(monkeypatch, 2)
        spec, config = GinibreSpec(n=6, m=2, field="complex"), RunConfig(23, SEED, 1)
        need, want = _run_bytes(spec, config), _spectra(spec, 23)
        with monkeypatch.context() as patch:
            patch.setattr(ginprod.montecarlo, "_available_bytes", lambda: need - 1)
            patch.setattr(ginprod.montecarlo, "_seed_prefix", _never)
            patch.setattr(ginprod.montecarlo, "_draw_stage", _never)
            made, started = _record_empties(patch), _record_starts(patch)
            with pytest.raises(ValueError) as refused:
                collect_spectra(spec, config)
            assert (made, started) == ([], [])
        assert str(refused.value) == ("sampling 23 replicates at n = 6 needs 0.0 GiB of arrays, "
                                      "more than the 0.0 GiB this process can have")
        monkeypatch.setattr(ginprod.montecarlo, "_available_bytes", lambda: need)
        assert np.array_equal(collect_spectra(spec, config), want)

    def test_memory_limit_is_read_on_the_first_run_only(self, monkeypatch):
        # The cgroup files are read once a process, by its first sampling run.
        read, opened = functools.cache(ginprod.montecarlo._available_bytes.__wrapped__), []

        def recording_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(ginprod.montecarlo, "_available_bytes", read)
        monkeypatch.setattr(ginprod.montecarlo, "open", recording_open, raising=False)
        for _ in range(3):
            _spectra(GinibreSpec(n=2, m=1), 2)
        assert opened.count("/proc/self/cgroup") == 1 and read.cache_info().misses == 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB, as Linux reports it")
    def test_run_bytes_bound_the_resident_peak(self):
        # tracemalloc cannot see the n x n copy numpy's stacked SVD makes of each
        # matrix for LAPACK, so a fresh interpreter's peak resident set is read. One
        # real m = 1 replicate at n = 1000 streams: its row, its product array and
        # the SVD's copy, 15.3 MiB. After a warm-up run loads what a first run
        # loads, the peak rises by no more than that and 2 MiB of LAPACK's
        # workspace and BLAS's packing buffers (1.0 MiB was seen on x86-64).
        code = ("import resource\n"
                "from ginprod.montecarlo import GinibreSpec, RunConfig, _run_bytes, collect_spectra\n"
                "config = RunConfig(1, 7, 1)\n"
                "collect_spectra(GinibreSpec(n=2, m=1), config)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "collect_spectra(GinibreSpec(n=1000, m=1), config)\n"
                "rise = 1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
                "print(rise, _run_bytes(GinibreSpec(n=1000, m=1), config))\n")
        src = os.path.dirname(os.path.dirname(ginprod.montecarlo.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        rise, need = map(int, out.stdout.split())
        assert need == 1000 * 8 + 2 * 1000**2 * 8
        assert rise <= need + 2 * 2**20


def _written_state(words):
    """The public state of a fresh PCG64 after the draw stage's write of a row of ``_replicate_states``."""
    bit_generator = np.random.PCG64(0)
    _state_words(bit_generator)[:] = words
    return bit_generator.state


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
        # Each state is written as the draw stage writes it, so the word order
        # the probe found is checked too; numpy keeps one of the two it knows.
        assert _pcg64_word_order() in ((1, 0, 3, 2), (0, 1, 2, 3))
        replicates = [*range(64), 2**20, 2**32 - 1]
        for n in (7, 2**32, 2**40):
            spec = GinibreSpec(n=n, m=m, field=field)
            for master_seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # wrapping uint32 arithmetic must stay silent
                    states = _replicate_states(_seed_prefix(spec, master_seed), replicates)
                assert states.shape == (len(replicates), 4)
                for r, state in zip(replicates, states):
                    want = replicate_rng(spec, master_seed, r).bit_generator.state
                    assert _written_state(state) == want, (n, master_seed, r)

    def test_word_arithmetic_matches_python_ints(self):
        # PCG64's seeding runs on (high, low) uint64 words: every pair of words
        # from the edges of the 32- and 64-bit ranges, against 128-bit Python ints.
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        pairs = [(high, low) for high in edges for low in edges]
        a_high, a_low = (np.array(words * len(pairs), dtype=np.uint64) for words in zip(*pairs))
        b_high, b_low = (np.repeat(np.array(words, dtype=np.uint64), len(pairs)) for words in zip(*pairs))
        a = [high << 64 | low for high, low in zip(a_high.tolist(), a_low.tolist())]
        b = [high << 64 | low for high, low in zip(b_high.tolist(), b_low.tolist())]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # wrapping uint64 arithmetic must stay silent
            for op, want in ((_add128, [x + y for x, y in zip(a, b)]), (_mul128, [x * y for x, y in zip(a, b)])):
                high, low = op((a_high, a_low), (b_high, b_low))
                assert [h << 64 | l for h, l in zip(high.tolist(), low.tolist())] == [w % 2**128 for w in want]

    @pytest.mark.parametrize("replicate", [0, 2**32 - 1])
    def test_one_replicate_batch_is_silent(self, replicate):
        # A batch of one keeps its words in arrays of one: numpy warns on uint64
        # scalar overflow, not on array overflow.
        spec = GinibreSpec(n=5, m=2, field="complex")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (state,) = _replicate_states(_seed_prefix(spec, 2**64 - 1), [replicate])
        assert _written_state(state) == replicate_rng(spec, 2**64 - 1, replicate).bit_generator.state

    @pytest.mark.parametrize("workers", [1, 2])
    def test_setter_fallback_gives_the_same_bits(self, monkeypatch, workers):
        # Where the probe finds no word order, every state goes through numpy's
        # public setter instead of the word write: a held and a streamed run keep their bits.
        held, streamed = GinibreSpec(n=4, m=2, field="complex"), GinibreSpec(n=300, m=1, field="complex")
        assert not _batches(held, RunConfig(2000, SEED, workers))[2]
        assert _batches(streamed, RunConfig(3, SEED, workers))[2]
        want = [_spectra(held, 2000, workers), _spectra(streamed, 3, workers)]
        monkeypatch.setattr(ginprod.montecarlo, "_pcg64_word_order", lambda: None)
        assert isinstance(_state_words(np.random.PCG64(0)), ginprod.montecarlo._StateSetter)
        assert np.array_equal(_spectra(held, 2000, workers), want[0])
        assert np.array_equal(_spectra(streamed, 3, workers), want[1])

    def test_word_write_leaves_no_buffered_draw(self, monkeypatch):
        # The word write sets only (state, inc), not the buffered 32-bit draw the
        # setter clears: after a held batch every generator still holds none.
        generators = []

        def state_words(bit_generator):
            generators.append(bit_generator)
            return _state_words(bit_generator)

        monkeypatch.setattr(ginprod.montecarlo, "_state_words", state_words)
        _spectra(GinibreSpec(n=4, m=2, field="complex"), 2000)
        assert generators
        for bit_generator in generators:
            assert (bit_generator.state["has_uint32"], bit_generator.state["uinteger"]) == (0, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_seed_prefix_derived_once_per_run(self, monkeypatch, workers):
        # Every batch shares one derivation of the run's fixed words: five
        # batches of one replicate at one worker on one core, and at two
        # workers the per-thread share of three, which caps the floor of 500 // 4 + 1.
        _cores(monkeypatch, 1)
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

    @pytest.mark.parametrize("cores", [1, 2, 16])
    def test_worker_count_never_changes_results(self, monkeypatch, cores):
        # 1000 replicates make batches of 204 by bytes at one and at two
        # workers (five each: a helper at two cores for one worker, at 16 for
        # both) and of the per-thread share at eight: 125 on up to eight
        # cores, and 63 at 16, where every worker has a helper.
        _cores(monkeypatch, cores)
        spec = GinibreSpec(n=12, m=2, field="complex")
        eight = (63, 16) if cores == 16 else (125, 8)
        assert [_batches(spec, RunConfig(1000, SEED, w))[:2] for w in (1, 2, 8)] == [(204, 5), (204, 5), eight]
        one, two, eight = (collect_spectra(spec, RunConfig(1000, SEED, w)) for w in (1, 2, 8))
        assert np.array_equal(one, two) and np.array_equal(one, eight)


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
        # Four batches of one replicate at one worker on one core; at two
        # workers, two batches of the per-thread share, which caps the floor of 500 // 4 + 1.
        _cores(monkeypatch, 1)
        spec = GinibreSpec(n=4, m=2, field="complex")
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", _replicate_bytes(spec))
        counts = self._svd_recording(monkeypatch, blas_count)
        _spectra(spec, 4, workers)
        assert counts == [1] * {1: 4, 2: 2}[workers]
        assert blas_count() == 2
        assert blas_pinned()

    def test_restored_after_a_spoiled_replicate(self, monkeypatch, blas_count):
        _cores(monkeypatch, 1)  # one thread, so the spoiled first batch is the only one decomposed
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
        # Nor does the memory limit's read.
        code = ("import ginprod, ginprod.cli, ginprod.montecarlo as mc; "
                "print(mc._blas_threads.cache_info().currsize + mc._available_bytes.cache_info().currsize)")
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

    @pytest.mark.parametrize("spectra, order", [
        ([[1e200, 1.0], [1e200, 1.0]], 2),  # s^4 overflows: the mean is not finite
        ([[1e100, 1.0], [3e100, 2.0]], 2),  # the means are finite, the squared deviations are not
        ([[1e50, 1.0], [1e50, 1.0]], 7),  # s^14 overflows
    ])
    def test_moment_past_the_float_range_is_refused(self, spectra, order):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused by the check, not by a numpy warning
            with pytest.raises(ArithmeticError, match=f"empirical moment of order {order} is not finite"):
                moments_from_spectra(np.array(spectra), 9)
            assert np.isfinite(moments_from_spectra(np.array(spectra), order - 1).means).all()

    @pytest.mark.parametrize("k, error", [
        (0, ValueError), (-1, ValueError), (4, IndexError),
        (True, TypeError), (1.0, TypeError), (np.int64(1), TypeError),
    ])
    def test_order_outside_one_to_kmax_is_refused(self, k, error):
        # An order is not a Python index: 0 and -1 must not wrap round to the
        # last moments, nor True pass for the first.
        moments = moments_from_spectra(np.array([[2.0, 1.0], [3.0, 1.0]]), 3)
        assert [moments.mean(order) for order in (1, 2, 3)] == [1.75, 3.75, 9.25]
        for read in (moments.mean, moments.standard_error):
            with pytest.raises(error):
                read(k)

    @pytest.mark.parametrize("rows", [1, 7, 64, 300])
    def test_moments_are_taken_in_blocks_of_rows(self, monkeypatch, rows):
        # Blocks of 1, 7, 64 and all 300 rows give the same bits as the whole
        # array raised to each power, and the traced peak stays within what
        # the pre-flight counts beside the spectra.
        spectra = np.random.default_rng(SEED).random((300, 50)) * 4
        powers, want = spectra.copy(), np.empty((300, 9))
        for k in range(9):
            want[:, k] = powers.mean(axis=1)
            powers *= spectra
        monkeypatch.setattr(ginprod.montecarlo, "MOMENT_BLOCK_BYTES", rows * 50 * 8)
        tracemalloc.start()
        try:
            moments = moments_from_spectra(spectra, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(moments.means, want.mean(axis=0))
        assert np.array_equal(moments.standard_errors, want.std(axis=0, ddof=1) / np.sqrt(300))
        assert peak <= _moment_bytes(300, 50, 9) - spectra.nbytes

    def test_rejects_bad_kmax(self):
        spec = GinibreSpec(n=5, m=1)
        with pytest.raises(ValueError):
            moments_from_spectra(_spectra(spec, 2), 0)

    @pytest.mark.parametrize("spectra", [np.ones(3), np.ones((2, 3, 1)), np.empty((0, 3)), np.empty((2, 0))],
                             ids=["1-D", "3-D", "no-replicates", "no-values"])
    def test_rejects_a_spectra_array_of_the_wrong_shape(self, spectra):
        with pytest.raises(ValueError, match=r"^spectra must be a non-empty 2-D \(replicates, n\) array, "
                                             rf"got shape {re.escape(str(spectra.shape))}$"):
            moments_from_spectra(spectra, 2)


class TestEdgeEstimate:
    def test_quantiles_ordered_and_consistent(self):
        spec = GinibreSpec(n=16, m=1, field="real")
        est = edge_from_values(_spectra(spec, 100)[:, 0])
        assert est.q05 <= est.q50 <= est.q95
        assert est.values.shape == (100,)
        assert est.mean_s1sq == pytest.approx(float(est.values.mean()))

    @pytest.mark.parametrize("values", [np.empty(0), np.ones((3, 2))], ids=["empty", "2-D"])
    def test_rejects_values_of_the_wrong_shape(self, values):
        with pytest.raises(ValueError, match=rf"^values must be a non-empty 1-D array, "
                                             rf"got shape {re.escape(str(values.shape))}$"):
            edge_from_values(values)

    @pytest.mark.parametrize("n", [*range(1, 65), 999, 1000, 20000])
    def test_quantiles_match_numpy_bit_for_bit(self, n):
        # numpy's 'linear' rule, term for term: on draws, on draws rounded to
        # two digits (some ties) and on draws of ten values (mostly ties).
        rng = np.random.default_rng(n)
        draws = rng.standard_normal(n) + 3
        for values in (draws, np.round(draws, 2), rng.integers(0, 10, n).astype(np.float64)):
            est = edge_from_values(values)
            want = np.quantile(values, [0.05, 0.5, 0.95])
            assert np.array([est.q05, est.q50, est.q95]).tobytes() == want.tobytes()

    def test_a_nan_makes_every_quantile_nan(self):
        values = np.array([1.0, np.nan, 0.5, 2.0])
        est = edge_from_values(values)
        assert np.isnan(np.quantile(values, [0.05, 0.5, 0.95])).all()
        assert all(math.isnan(q) for q in (est.q05, est.q50, est.q95))

    def test_edge_runs_leave_numpy_ma_unloaded(self):
        # np.quantile reaches numpy.ma through np.unique; the edge summary does not.
        code = ("import contextlib, io, sys; from ginprod.cli import main\n"
                "for argv in (['simulate', '--m', '2', '--n', '4', '--field', 'complex', '--replicates', '50',\n"
                "              '--seed', '3', '--workers', '1'],\n"
                "             ['converge', '--m', '1', '--n-grid', '4,8', '--replicates', '20', '--seed', '3',\n"
                "              '--workers', '2']):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main(argv) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(ginprod.montecarlo.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

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

    def test_one_grid_point_is_held_at_a_time(self):
        # A point's spectra are released before the next point samples: the
        # traced peak of the grid 40, 41 stays below that of 41 alone plus half
        # of the (replicates, 40) array it would otherwise keep.
        config = RunConfig(replicates=2000, master_seed=SEED, workers=1)

        def peak(grid):
            tracemalloc.start()
            try:
                convergence_table(1, grid, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        convergence_table(1, [41], config)  # warm up
        assert peak([40, 41]) < peak([41]) + 2000 * 40 * 8 / 2

    def test_grid_is_sampled_largest_first(self, monkeypatch):
        # Points go to collect_spectra in descending _run_bytes, which need not
        # follow n: on one core, 6 real m = 2 replicates take one batch of six
        # at n = 104, two of five at 105 and six of one at 181. The rows still
        # come back in grid order, each equal to its own point's run.
        monkeypatch.setattr(ginprod.montecarlo, "_usable_cores", lambda: 1)
        config = RunConfig(replicates=6, master_seed=SEED, workers=1)
        sampled, collect = [], ginprod.montecarlo.collect_spectra

        def recording(spec, config):
            sampled.append(spec.n)
            return collect(spec, config)

        monkeypatch.setattr(ginprod.montecarlo, "collect_spectra", recording)
        rows = convergence_table(2, [16, 104, 105, 181], config)
        assert sampled == [104, 105, 181, 16]
        need = [_run_bytes(GinibreSpec(n=n, m=2), config) for n in sampled]
        assert need == sorted(need, reverse=True)
        assert [row.n for row in rows] == [16, 104, 105, 181]
        assert rows == [convergence_table(2, [n], config)[0] for n in [16, 104, 105, 181]]

    def test_grid_past_memory_is_refused_before_any_point_is_drawn(self, monkeypatch):
        # On the grid above the largest need is at n = 104, not at the largest n.
        # One byte short of it the run is refused, naming n = 104, before any
        # point is drawn; at that need the run passes every point's check.
        monkeypatch.setattr(ginprod.montecarlo, "_usable_cores", lambda: 1)
        config = RunConfig(replicates=6, master_seed=SEED, workers=1)
        grid = [16, 104, 105, 181]
        need = max(_run_bytes(GinibreSpec(n=n, m=2), config) for n in grid)
        assert need == _run_bytes(GinibreSpec(n=104, m=2), config)
        sampled, draw = [], ginprod.montecarlo._draw_stage

        def recording(spec, *args):
            sampled.append(spec.n)
            return draw(spec, *args)

        monkeypatch.setattr(ginprod.montecarlo, "_draw_stage", recording)
        monkeypatch.setattr(ginprod.montecarlo, "_available_bytes", lambda: need - 1)
        with pytest.raises(ValueError) as refused:
            convergence_table(2, grid, config)
        assert sampled == []
        assert str(refused.value) == ("sampling 6 replicates at n = 104 needs 0.0 GiB of arrays, "
                                      "more than the 0.0 GiB this process can have")
        monkeypatch.setattr(ginprod.montecarlo, "_available_bytes", lambda: need)
        assert convergence_table(2, grid, config) == [convergence_table(2, [n], config)[0] for n in grid]
        assert sorted(set(sampled)) == grid

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
