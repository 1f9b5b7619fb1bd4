"""Unit tests for the sampling layer.

Statistical assertions use fixed seeds chosen once; each has at least a
3-standard-error margin at the frozen seed, so they are deterministic
regressions, not flaky coin flips. Size-one products have exactly known
moments: (k!)^m for complex entries and ((2k-1)!!)^m for real ones.
"""

import math
import warnings

import numpy as np
import pytest

import ginprod.montecarlo
from ginprod.moment_engine import MomentQuery, moment_falling_sum
from ginprod.montecarlo import (
    GinibreSpec,
    RunConfig,
    WORKERS_ENV_VAR,
    _replicate_states,
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
        assert default_workers() == 1
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert default_workers() == 5
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(ValueError):
            default_workers()
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


def _draw_bytes(spec):
    return spec.m * (1 if spec.field == "real" else 2) * spec.n**2 * 8


class TestBatchKernel:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_batches_match_single_replicates(self, monkeypatch, field, m, workers):
        # Three replicates per batch by bytes; 11 replicates leave a ragged
        # last batch at every worker count.
        spec = GinibreSpec(n=5, m=m, field=field)
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", 3 * _draw_bytes(spec))
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
        monkeypatch.setattr(ginprod.montecarlo, "BATCH_DRAW_BYTES", 4 * _draw_bytes(spec))
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
            collect_spectra(spec, RunConfig(replicates=10, master_seed=SEED))
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
        # for bit, at the extremes of the seed and the replicate index.
        spec = GinibreSpec(n=7, m=m, field=field)
        replicates = [*range(64), 2**20, 2**32 - 1]
        for master_seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # wrapping uint32 arithmetic must stay silent
                states = list(_replicate_states(spec, master_seed, replicates))
            want = [replicate_rng(spec, master_seed, r).bit_generator.state for r in replicates]
            assert states == want, master_seed

    def test_worker_count_never_changes_results(self):
        spec = GinibreSpec(n=12, m=2, field="complex")
        one = collect_spectra(spec, RunConfig(replicates=40, master_seed=SEED, workers=1))
        eight = collect_spectra(spec, RunConfig(replicates=40, master_seed=SEED, workers=8))
        assert np.array_equal(one, eight)


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
