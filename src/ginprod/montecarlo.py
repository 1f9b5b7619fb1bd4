"""Sampling of Ginibre-product spectra and their empirical statistics.

One sampler, :func:`collect_spectra`, returns every replicate's squared
singular values. Pure summarisers turn those arrays into statistics:
:func:`moments_from_spectra` (spectral moments) and
:func:`edge_from_values` (the largest value). :func:`convergence_table`
runs the two along an n-grid.

Entry convention: every factor has i.i.d. mean-zero Gaussian entries with
variance 1/n (standard deviation n^(-1/2)). In the complex case the real
and imaginary parts are independent with variance 1/(2n) each. This is
the normalisation under which the first spectral moment is exactly 1 and
the moments converge to Fuss-Catalan numbers.

Exact finite-n moments computed by the moment engine match the *complex*
ensemble; the real ensemble deviates at order 1/n (its second moment at
m = 1 is 2 + 1/n rather than 2) but has the same n -> infinity limits,
so edge-convergence experiments run on either field.

Reproducibility contract: replicate r of a run draws from
``numpy.random.default_rng(SeedSequence(master_seed, spawn_key=(n, m,
field, r)))``. Results are therefore a pure function of (spec, config)
and in particular independent of how replicates are scheduled across
workers. Bit-exactness is promised for repeated runs of this package on
one platform at one BLAS thread count (multithreaded BLAS may change the
last bits of large complex products), not across unrelated
implementations of the same contract.

Replicates are sampled in bounded batches: each replicate's draws come
from its own stream, and the batch shares one stacked matmul per factor,
one stacked SVD and one vectorised consistency check. Every operation
acts on each replicate's slice exactly as it would on that replicate
alone, so neither the batch size nor the worker count changes a bit.

The streams are derived in bulk: a batch computes every replicate's
PCG64 state at once by numpy's own SeedSequence and PCG64 seeding
arithmetic (frozen by numpy's RNG policy, NEP 19), vectorised over the
replicate index, and one generator per batch is set to each state in
turn. The draws are bit-identical to :func:`replicate_rng`, which
stays the contract's definition and the tests' reference.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .combinatorics import _natural
from .edge_analysis import edge_constant

__all__ = [
    "GinibreSpec",
    "RunConfig",
    "EmpiricalMoments",
    "EdgeEstimate",
    "ConvergenceRow",
    "replicate_rng",
    "collect_spectra",
    "moments_from_spectra",
    "edge_from_values",
    "convergence_table",
    "default_workers",
]

WORKERS_ENV_VAR = "GINPROD_WORKERS"

#: Relative tolerance for the sum-of-squares vs Frobenius-norm consistency
#: check applied to every sample.
SVD_CONSISTENCY_RTOL = 1e-8

#: Most bytes of Gaussian draws one batch of replicates holds at once. A
#: replicate whose draws alone exceed it is sampled in a batch of one.
BATCH_DRAW_BYTES = 1 << 20

_FIELD_CODES = {"real": 0, "complex": 1}

# numpy's SeedSequence and PCG64 seeding constants, frozen by its RNG policy (NEP 19).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def default_workers() -> int:
    """Worker count from the environment (GINPROD_WORKERS), default 1."""
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {workers}")
    return workers


@dataclass(frozen=True)
class GinibreSpec:
    """Matrix size n, number of factors m, and the entry field."""

    n: int
    m: int
    field: str = "real"

    def __post_init__(self) -> None:
        _natural("n", self.n, 1)
        _natural("m", self.m, 1)
        if self.field not in _FIELD_CODES:
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")


@dataclass(frozen=True)
class RunConfig:
    """Replicate count, master seed, and a worker-count hint.

    The worker count never influences results, only scheduling.
    """

    replicates: int
    master_seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        # Every replicate index must be one 32-bit seed word (see _replicate_states).
        if _natural("replicates", self.replicates, 1) > 2**32:
            raise ValueError(f"replicates must be <= 2**32, got {self.replicates}")
        if _natural("master_seed", self.master_seed) >= 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        _natural("workers", self.workers, 1)


@dataclass
class EmpiricalMoments:
    """Replicate-averaged spectral moments (1/n) sum_i s_i^(2k), k = 1 .. k_max."""

    means: np.ndarray
    standard_errors: np.ndarray

    def mean(self, k: int) -> float:
        return float(self.means[k - 1])

    def standard_error(self, k: int) -> float:
        return float(self.standard_errors[k - 1])


@dataclass
class EdgeEstimate:
    """Summary statistics of the largest squared singular value."""

    mean_s1sq: float
    q05: float
    q50: float
    q95: float
    standard_error: float
    values: np.ndarray  # per-replicate s_1^2, indexed by replicate


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    mean_s1sq: float
    gap: float  # u_m - mean
    standard_error: float
    replicates: int


def replicate_rng(spec: GinibreSpec, master_seed: int, replicate: int) -> np.random.Generator:
    """Deterministic per-replicate generator.

    The seed material mixes (master_seed, n, m, field, replicate) through
    numpy's SeedSequence, so any replicate can be (re)drawn in isolation
    and scheduling order cannot leak into the results.
    """
    ss = np.random.SeedSequence(
        entropy=master_seed,
        spawn_key=(spec.n, spec.m, _FIELD_CODES[spec.field], replicate),
    )
    return np.random.default_rng(ss)


def _words(value: int) -> list[int]:
    """SeedSequence's 32-bit words of a non-negative int, least significant first."""
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hashmix(value, hash_const: int, mult: int):
    """SeedSequence's hash of one word, or of a uint32 array of words.

    Returns the hashed value and the next hash constant. The same wrapping
    expressions serve Python ints (masked) and uint32 arrays (which wrap).
    """
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    """SeedSequence's mix of a pool word with a hashed word."""
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _replicate_states(
    spec: GinibreSpec, master_seed: int, replicates: Sequence[int]
) -> Iterator[dict]:
    """Yield the PCG64 state of ``replicate_rng(spec, master_seed, r)`` for each r, in bulk.

    Each state equals that generator's ``bit_generator.state``. The
    entropy words of (master_seed, n, m, field) are mixed once as
    Python ints; only the last word, r, differs between replicates, so
    its mixing round and ``generate_state(4, uint64)`` run once over a
    uint32 array of all r. PCG64's seeding runs on Python ints. Every r
    must be below 2**32, a single entropy word.
    """
    run = _words(master_seed)
    entropy = [*run, *[0] * (_POOL_SIZE - len(run))]  # padded because a spawn key follows
    for word in (spec.n, spec.m, _FIELD_CODES[spec.field]):
        entropy += _words(word)
    entropy.append(np.asarray(replicates, dtype=np.uint32))

    # SeedSequence.mix_entropy: fill the pool, mix it with itself, then mix in the rest.
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)

    # SeedSequence.generate_state(4, np.uint64): eight words, paired low word first.
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        words.append(value.astype(np.uint64))
    seeds = np.stack([words[i] | words[i + 1] << 32 for i in range(0, 8, 2)], axis=1)

    # PCG64's srandom: state 0, inc = 2 * seq + 1, step, add the seed, step.
    for high, low, seq_high, seq_low in seeds.tolist():
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        state = ((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _draw_shape(spec: GinibreSpec) -> tuple[int, int, int, int]:
    """Shape (m, parts, n, n) of one product's standard normals; parts is 1
    for real and 2 for complex entries."""
    return (spec.m, 1 if spec.field == "real" else 2, spec.n, spec.n)


def _factor(spec: GinibreSpec, draws: np.ndarray, j: int) -> np.ndarray:
    """Factor j of every product in ``draws``, shape (b, n, n), with the stated entry law."""
    n = spec.n
    if spec.field == "real":
        return draws[:, j, 0] / np.sqrt(n)
    return (draws[:, j, 0] + 1j * draws[:, j, 1]) / np.sqrt(2 * n)


def _sample_batch(spec: GinibreSpec, master_seed: int, batch: range) -> np.ndarray:
    """Squared singular values, shape (b, n), each row in descending order.

    Row i is replicate ``batch[i]``, drawn from the stream of
    ``replicate_rng(spec, master_seed, batch[i])``: one generator per
    batch is set to each replicate's state in turn. One fill per
    replicate consumes its stream factor by factor, each factor's real
    part before its imaginary part. Factors are built one at a time and
    the draws are freed before the decomposition, so a batch never holds
    all factors next to the raw draws. A failed or non-finite
    decomposition, or one whose sum of squares misses ||W||_F^2, raises
    and names the failing replicate.
    """
    draws = np.empty((len(batch), *_draw_shape(spec)))
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    states = _replicate_states(spec, master_seed, np.arange(batch.start, batch.stop))
    for i, state in enumerate(states):
        bit_generator.state = state
        rng.standard_normal(out=draws[i])
    product = _factor(spec, draws, 0)
    for j in range(1, spec.m):
        product = product @ _factor(spec, draws, j)
    del draws
    try:
        singular = np.linalg.svd(product, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"SVD failed for spec {spec} in replicates {batch.start}..{batch.stop - 1}: {exc}"
        ) from exc
    squared = singular**2
    frob = np.sum(np.abs(product) ** 2, axis=(1, 2))
    nonfinite = ~np.isfinite(squared).all(axis=1)
    if nonfinite.any():
        i = int(np.argmax(nonfinite))
        raise ArithmeticError(f"non-finite singular values for spec {spec} at replicate {batch[i]}")
    sums = np.sum(squared, axis=1)
    inconsistent = np.abs(sums - frob) > SVD_CONSISTENCY_RTOL * frob
    if inconsistent.any():
        i = int(np.argmax(inconsistent))
        raise ArithmeticError(
            f"SVD inconsistent with Frobenius norm for spec {spec} at replicate {batch[i]}: "
            f"sum s_i^2 = {sums[i]!r}, ||W||_F^2 = {frob[i]!r}"
        )
    return squared


def _batches(spec: GinibreSpec, config: RunConfig) -> list[range]:
    """Consecutive replicate ranges, each within BATCH_DRAW_BYTES of draws.

    A batch also holds at most ceil(replicates / workers) replicates, so
    every worker gets a share.
    """
    draw_bytes = math.prod(_draw_shape(spec)) * np.dtype(np.float64).itemsize
    per_worker = -(-config.replicates // config.workers)
    size = max(1, min(BATCH_DRAW_BYTES // draw_bytes, per_worker))
    return [
        range(start, min(start + size, config.replicates))
        for start in range(0, config.replicates, size)
    ]


def collect_spectra(spec: GinibreSpec, config: RunConfig) -> np.ndarray:
    """All squared singular values for every replicate, shape (replicates, n).

    Row r holds replicate r's spectrum in descending order, drawn from
    ``replicate_rng(spec, config.master_seed, r)``; column 0 holds the
    largest values s_1^2. Linear-algebra failures and non-finite spectra
    raise ArithmeticError rather than propagating NaN. Worker threads
    take whole batches; each writes only its own rows.
    """
    spectra = np.empty((config.replicates, spec.n))

    def run(batch: range) -> None:
        spectra[batch.start : batch.stop] = _sample_batch(spec, config.master_seed, batch)

    batches = _batches(spec, config)
    if config.workers == 1:
        for batch in batches:
            run(batch)
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            list(pool.map(run, batches))  # list() re-raises a worker's exception
    return spectra


def moments_from_spectra(spectra: np.ndarray, k_max: int) -> EmpiricalMoments:
    """Moments (1/n) sum_i s_i^(2k), k = 1 .. k_max, of a (replicates, n) spectrum array."""
    _natural("k_max", k_max, 1)
    replicates = spectra.shape[0]
    per_replicate = np.empty((replicates, k_max))
    powers = spectra.copy()
    for k in range(k_max):
        per_replicate[:, k] = powers.mean(axis=1)
        powers *= spectra
    means = per_replicate.mean(axis=0)
    if replicates > 1:
        ses = per_replicate.std(axis=0, ddof=1) / np.sqrt(replicates)
    else:
        ses = np.zeros(k_max)
    return EmpiricalMoments(
        means=means,
        standard_errors=ses,
    )


def edge_from_values(values: np.ndarray) -> EdgeEstimate:
    """Summarise per-replicate largest squared singular values, e.g. ``spectra[:, 0]``."""
    replicates = values.shape[0]
    q05, q50, q95 = np.quantile(values, [0.05, 0.5, 0.95])
    if replicates > 1:
        se = float(values.std(ddof=1) / np.sqrt(replicates))
    else:
        se = 0.0
    return EdgeEstimate(
        mean_s1sq=float(values.mean()),
        q05=float(q05),
        q50=float(q50),
        q95=float(q95),
        standard_error=se,
        values=values,
    )


def convergence_table(
    m: int,
    n_grid: Sequence[int],
    config: RunConfig,
    field: str = "real",
) -> list[ConvergenceRow]:
    """Edge estimates along an ascending n-grid, with gaps to u_m.

    The gap u_m - mean(s_1^2) should shrink along a doubling grid up to
    statistical noise; this function only reports, trend assertions live
    with the caller.
    """
    n_grid = list(n_grid)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(f"n_grid must be strictly ascending, got {n_grid}")
    u = float(edge_constant(m).u)
    rows = []
    for n in n_grid:
        est = edge_from_values(collect_spectra(GinibreSpec(n=n, m=m, field=field), config)[:, 0])
        rows.append(
            ConvergenceRow(
                n=n,
                mean_s1sq=est.mean_s1sq,
                gap=u - est.mean_s1sq,
                standard_error=est.standard_error,
                replicates=config.replicates,
            )
        )
    return rows
