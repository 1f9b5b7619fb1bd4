"""Unit tests for the sampling layer.

Statistical assertions use fixed seeds chosen once; each has at least a
3-standard-error margin at the frozen seed, so they are deterministic
regressions, not flaky coin flips. Size-one products have exactly known
moments: (k!)^m for complex entries and ((2k-1)!!)^m for real ones.
"""

import math

import numpy as np
import pytest

import ginprod.montecarlo
from ginprod.moment_engine import MomentQuery, moment_falling_sum
from ginprod.montecarlo import (
    GinibreSpec,
    RunConfig,
    WORKERS_ENV_VAR,
    collect_spectra,
    convergence_table,
    default_workers,
    draw_factors,
    edge_from_values,
    empirical_moments,
    estimate_edge,
    moments_from_spectra,
    power_largest_sq_singular_value,
    replicate_rng,
    sample_product,
)

SEED = 20260825


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


class TestSampleContract:
    def test_spectrum_shape_and_order(self):
        for field in ("real", "complex"):
            spec = GinibreSpec(n=9, m=2, field=field)
            result = sample_product(spec, replicate_rng(spec, SEED, 0))
            s = result.squared_singular_values
            assert s.shape == (9,)
            assert np.all(s > 0)
            assert np.all(np.diff(s) <= 0)  # descending
            assert result.s1_sq == s[0]

    def test_frobenius_consistency(self):
        spec = GinibreSpec(n=16, m=3, field="complex")
        result = sample_product(spec, replicate_rng(spec, SEED, 1))
        assert float(np.sum(result.squared_singular_values)) == pytest.approx(
            result.frobenius_sq, rel=1e-10
        )

    def test_entry_scale_convention(self):
        # Entry variance 1/n in both fields, so E ||W||_F^2 = n.
        for field in ("real", "complex"):
            spec = GinibreSpec(n=64, m=1, field=field)
            rng = replicate_rng(spec, SEED, 2)
            w = draw_factors(spec, rng)[0]
            assert float(np.sum(np.abs(w) ** 2)) == pytest.approx(64.0, rel=0.25)

    def test_scale_covariance(self):
        # Rescaling one factor by c rescales every squared singular value
        # by c^2: redraw with the same seed and compare decompositions.
        spec = GinibreSpec(n=8, m=2, field="complex")
        c = 3.0

        def spectrum(scale_first: float) -> np.ndarray:
            factors = draw_factors(spec, replicate_rng(spec, SEED, 3))
            factors[0] = scale_first * factors[0]
            product = factors[0] @ factors[1]
            return np.linalg.svd(product, compute_uv=False) ** 2

        base = spectrum(1.0)
        scaled = spectrum(c)
        assert np.allclose(scaled, c**2 * base, rtol=1e-10)

    def test_numerical_failure_is_explicit(self, monkeypatch):
        spec = GinibreSpec(n=4, m=1)

        def bad_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic non-convergence")

        monkeypatch.setattr(np.linalg, "svd", bad_svd)
        with pytest.raises(ArithmeticError):
            sample_product(spec, replicate_rng(spec, SEED, 0))


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
        config = RunConfig(replicates=11, master_seed=SEED, workers=workers)
        rows = [
            sample_product(spec, replicate_rng(spec, SEED, r)).squared_singular_values
            for r in range(config.replicates)
        ]
        assert np.array_equal(collect_spectra(spec, config), np.vstack(rows))

    def test_draw_factors_are_the_multiplied_factors(self):
        # Each factor consumes the stream in order: n x n real parts, then
        # n x n imaginary parts for complex entries.
        for field in ("real", "complex"):
            spec = GinibreSpec(n=6, m=3, field=field)
            factors = draw_factors(spec, replicate_rng(spec, SEED, 4))
            rng = replicate_rng(spec, SEED, 4)
            for w in factors:
                if field == "real":
                    want = rng.standard_normal((6, 6)) / np.sqrt(6)
                else:
                    want = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) / np.sqrt(12)
                assert np.array_equal(w, want)
            product = factors[0] @ factors[1] @ factors[2]
            squared = np.linalg.svd(product, compute_uv=False) ** 2
            sampled = sample_product(spec, replicate_rng(spec, SEED, 4))
            assert np.array_equal(sampled.squared_singular_values, squared)

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
        spec = GinibreSpec(n=6, m=2, field="real")
        a = sample_product(spec, replicate_rng(spec, SEED, 17)).squared_singular_values
        b = sample_product(spec, replicate_rng(spec, SEED, 17)).squared_singular_values
        assert np.array_equal(a, b)

    def test_distinct_replicates_differ(self):
        spec = GinibreSpec(n=6, m=2, field="real")
        a = sample_product(spec, replicate_rng(spec, SEED, 0)).squared_singular_values
        b = sample_product(spec, replicate_rng(spec, SEED, 1)).squared_singular_values
        assert not np.array_equal(a, b)

    def test_streams_keyed_by_spec(self):
        a = sample_product(GinibreSpec(n=6, m=1), replicate_rng(GinibreSpec(n=6, m=1), SEED, 0))
        b = sample_product(GinibreSpec(n=6, m=2), replicate_rng(GinibreSpec(n=6, m=2), SEED, 0))
        assert not np.array_equal(
            a.squared_singular_values, b.squared_singular_values[: 6]
        )

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
            moments = empirical_moments(GinibreSpec(n=1, m=1, field=field), config, 3)
            for k in (1, 2, 3):
                dev = abs(moments.mean(k) - want[k - 1])
                assert dev <= 3 * moments.standard_error(k), (field, k)

    def test_real_field_second_moment_offset(self):
        # At one factor the real-entry second moment is 2 + 1/n, separated
        # from the complex value 2 by many standard errors at n = 32.
        spec = GinibreSpec(n=32, m=1, field="real")
        config = RunConfig(replicates=2000, master_seed=SEED)
        moments = empirical_moments(spec, config, 2)
        se = moments.standard_error(2)
        assert abs(moments.mean(2) - (2 + 1 / 32)) <= 3 * se
        assert moments.mean(2) - 2 > 4 * se

    def test_complex_field_matches_exact_engine(self):
        spec = GinibreSpec(n=24, m=2, field="complex")
        config = RunConfig(replicates=800, master_seed=SEED)
        moments = empirical_moments(spec, config, 2)
        for k in (1, 2):
            exact = float(moment_falling_sum(MomentQuery(m=2, n=24, k=k)).value)
            assert abs(moments.mean(k) - exact) <= 3 * moments.standard_error(k)

    def test_single_replicate_has_zero_se(self):
        spec = GinibreSpec(n=5, m=1)
        moments = empirical_moments(spec, RunConfig(replicates=1, master_seed=SEED), 2)
        assert moments.standard_error(1) == 0.0
        assert moments.standard_error(2) == 0.0

    def test_rejects_bad_kmax(self):
        spec = GinibreSpec(n=5, m=1)
        with pytest.raises(ValueError):
            empirical_moments(spec, RunConfig(replicates=2, master_seed=SEED), 0)


class TestEdgeEstimate:
    def test_quantiles_ordered_and_consistent(self):
        spec = GinibreSpec(n=16, m=1, field="real")
        est = estimate_edge(spec, RunConfig(replicates=100, master_seed=SEED))
        assert est.q05 <= est.q50 <= est.q95
        assert est.values.shape == (100,)
        assert est.mean_s1sq == pytest.approx(float(est.values.mean()))

    def test_edge_from_values_matches_estimate(self):
        spec = GinibreSpec(n=10, m=2, field="complex")
        config = RunConfig(replicates=50, master_seed=SEED)
        spectra = collect_spectra(spec, config)
        direct = edge_from_values(spec, spectra[:, 0])
        wrapped = estimate_edge(spec, config)
        assert np.array_equal(direct.values, wrapped.values)
        assert direct.mean_s1sq == wrapped.mean_s1sq

    def test_power_iteration_matches_dense(self):
        for n, m, field in [(64, 1, "real"), (128, 2, "complex"), (256, 3, "real")]:
            spec = GinibreSpec(n=n, m=m, field=field)
            config = RunConfig(replicates=3, master_seed=SEED)
            dense = estimate_edge(spec, config, method="dense")
            power = estimate_edge(spec, config, method="power")
            assert np.allclose(power.values, dense.values, rtol=1e-6)

    def test_power_iteration_on_explicit_matrix(self):
        rng = np.random.default_rng(0)
        w = np.diag([3.0, 2.0, 1.0])
        assert power_largest_sq_singular_value(w, rng) == pytest.approx(9.0, rel=1e-9)

    def test_unknown_method_rejected(self):
        spec = GinibreSpec(n=4, m=1)
        with pytest.raises(ValueError):
            estimate_edge(spec, RunConfig(replicates=2, master_seed=SEED), method="magic")


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
