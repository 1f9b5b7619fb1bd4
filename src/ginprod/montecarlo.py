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
one platform, not across unrelated implementations of the same contract.

Sampling holds the BLAS numpy loaded at one thread (the worker threads
own the cores), so the bits no longer depend on ``OPENBLAS_NUM_THREADS``:
multithreaded BLAS changes the last bits of large complex products. The
thread control is looked up on the first sampling run; where none is
found (:func:`blas_pinned` is False) sampling runs unpinned and the bits
hold only at one BLAS thread count. The cost falls on runs with fewer
batches than cores, which lose BLAS's own parallelism: on a 2-vCPU host
one complex m = 2, n = 1536 replicate took 3.3-3.6 s wall pinned, against
2.2-2.6 s with two BLAS threads (and 4.1-4.8 s of CPU time).

Replicates are sampled in bounded batches: each replicate's draws come
from its own stream, and the batch shares one stacked matmul per factor,
one stacked SVD and one vectorised consistency check. Every operation
acts on each replicate's slice exactly as it would on that replicate
alone, so neither the batch size nor the worker count changes a bit.
With more than one worker a batch holds at least
``SVD_GIL_THRESHOLD // n + 1`` replicates, where the per-worker share
allows, because numpy's stacked SVD releases the GIL only when stack
size x n exceeds 500 (``NPY_BEGIN_THREADS_THRESHOLDED`` in
``numpy/_core/include/numpy/ndarraytypes.h``); smaller batches would make
the workers take turns at their decompositions. The floor can exceed the
byte budget: a batch then holds at most about 4 MB x m x parts of draws
(parts is 2 for complex entries), reached at n = 500. One-worker runs
keep the byte-bounded batches. A run with fewer replicates than twice
the floor gets batches below it, whose decompositions still hold the
GIL and so run one at a time.

The streams are derived in bulk: once per run, numpy's own
``SeedSequence(master_seed, spawn_key=(n, m, field))`` mixes the run's
fixed words, and each batch mixes only r into that pool, for all its
replicates at once, by numpy's seeding arithmetic (frozen by its RNG
policy, NEP 19). One generator per batch is set to each state in turn.
The draws are bit-identical to :func:`replicate_rng`, which stays the
contract's definition and the tests' reference.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import importlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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
    "blas_pinned",
]

WORKERS_ENV_VAR = "GINPROD_WORKERS"

#: Most worker threads a run may ask for. The pool starts a thread per
#: batch up to its worker count, and :func:`_batches` makes about one batch
#: per worker, so an unbounded count would ask the OS for that many threads.
MAX_WORKERS = 256

#: Relative tolerance for the sum-of-squares vs Frobenius-norm consistency
#: check applied to every sample.
SVD_CONSISTENCY_RTOL = 1e-8

#: Most bytes of Gaussian draws and seeding one batch of replicates holds
#: at once. A replicate whose share alone exceeds it is sampled in a batch of
#: one. Runs with more than one worker may exceed it, up to about
#: 4 MB x m x parts of draws per batch, to reach the floor of
#: ``SVD_GIL_THRESHOLD // n + 1`` replicates (see :func:`_batches`).
BATCH_DRAW_BYTES = 1 << 20

#: numpy's stacked ``np.linalg.svd`` releases the GIL only for a loop of more
#: than this many elements, stack size times n: ``NPY_BEGIN_THREADS_THRESHOLDED``
#: in ``numpy/_core/include/numpy/ndarraytypes.h``. Smaller batches hold the GIL
#: through their whole decomposition, so worker threads would take turns.
SVD_GIL_THRESHOLD = 500

#: Peak bytes one replicate adds while its batch's streams are derived (hash
#: and state words, Python ints): about 410 measured with ``ru_maxrss``, rounded up.
SEED_BYTES = 512

_FIELD_CODES = {"real": 0, "complex": 1}

# numpy's SeedSequence and PCG64 seeding constants, frozen by its RNG policy (NEP 19).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: (get, set) thread-count symbols of the BLAS libraries numpy ships with, in lookup order.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("MKL_Get_Max_Threads", "MKL_Set_Num_Threads"),
)


def default_workers() -> int:
    """Worker count from the environment (GINPROD_WORKERS), default the usable cores.

    The cores are counted up to :data:`MAX_WORKERS`; a larger GINPROD_WORKERS is refused.
    """
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        return min(cores, MAX_WORKERS)
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from None
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"{WORKERS_ENV_VAR} must be in [1, {MAX_WORKERS}], got {workers}")
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
    workers: int = dataclasses.field(default_factory=default_workers)

    def __post_init__(self) -> None:
        # The run's fixed words come from numpy's SeedSequence pool once per run and only
        # r is mixed per replicate (see _seed_prefix), so r must be one 32-bit seed word.
        if _natural("replicates", self.replicates, 1) > 2**32:
            raise ValueError(f"replicates must be <= 2**32, got {self.replicates}")
        if _natural("master_seed", self.master_seed) >= 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if _natural("workers", self.workers, 1) > MAX_WORKERS:
            raise ValueError(f"workers must be <= {MAX_WORKERS}, got {self.workers}")


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


#: The nine hash constants of generate_state(4, np.uint64), which hashes pool words 0..3 twice.
_STATE_CONSTS = np.cumprod([0x8B51F9DD, *[0x58F38DED] * 8], dtype=np.uint32)


def _hash(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 words, column j with constants j and j + 1."""
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ words >> 16


def _seed_prefix(spec: GinibreSpec, master_seed: int) -> tuple[np.random.SeedSequence, np.ndarray]:
    """The sequence whose pool every replicate's seeding starts from, and the five hash constants.

    ``SeedSequence(master_seed, spawn_key=(n, m, field))`` mixes what
    ``replicate_rng``'s sequence mixes before r, so its pool is where that
    sequence stands before r. Its 16 + 4 * (spawn-key words) hashes fill the
    pool with master_seed padded to four words, self-mix it and mix the key.
    """
    key = (spec.n, spec.m, _FIELD_CODES[spec.field])
    key_words = sum(-(-max(word.bit_length(), 1) // 32) for word in key)
    start = _INIT_A * pow(_MULT_A, 16 + 4 * key_words, 2**32) % 2**32
    seq = np.random.SeedSequence(master_seed, spawn_key=key)
    return seq, np.cumprod([start, *[_MULT_A] * 4], dtype=np.uint32)


def _replicate_states(prefix: tuple, replicates: Sequence[int]) -> Iterator[dict]:
    """Yield the PCG64 state of ``replicate_rng(spec, master_seed, r)`` for each r.

    ``prefix`` is ``_seed_prefix(spec, master_seed)``. Only r is mixed here,
    as wrapping uint32 arrays over all r at once: into the four pool words,
    then into ``generate_state(4, np.uint64)``'s eight. PCG64's seeding runs
    on Python ints. Every r must be below 2**32, a single entropy word.
    """
    seq, consts = prefix
    r = np.asarray(replicates, dtype=np.uint32)[:, None]
    pool = _MIX_MULT_L * seq.pool - _MIX_MULT_R * _hash(r, consts)
    pool ^= pool >> 16
    words = _hash(np.concatenate((pool, pool), axis=1), _STATE_CONSTS).astype(np.uint64)
    seeds = words[:, 0::2] | words[:, 1::2] << 32  # paired low word first

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


def _sample_batch(spec: GinibreSpec, prefix: tuple, batch: range) -> np.ndarray:
    """Squared singular values, shape (b, n), each row in descending order.

    Row i is replicate ``batch[i]``, drawn from the stream of
    ``replicate_rng(spec, master_seed, batch[i])`` (``prefix`` is
    ``_seed_prefix(spec, master_seed)``): one generator per batch is set to
    each replicate's state in turn. One fill per replicate consumes its
    stream factor by factor, each factor's real part before its imaginary
    part. Factors are built one at a time and the draws are freed before
    the decomposition, so a batch never holds all factors next to the raw
    draws. A failed or non-finite decomposition, or one whose sum of
    squares misses ||W||_F^2, raises and names the failing replicate.
    """
    draws = np.empty((len(batch), *_draw_shape(spec)))
    # Seeded from the run's sequence, so no OS entropy is read; each replicate's state replaces it.
    rng = np.random.Generator(np.random.PCG64(prefix[0]))
    states = _replicate_states(prefix, np.arange(batch.start, batch.stop))
    for i, state in enumerate(states):
        rng.bit_generator.state = state
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
    flat = product.reshape(len(batch), -1).view(np.float64)  # real and imaginary parts side by side
    frob = np.einsum("ij,ij->i", flat, flat)
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
    """Consecutive replicate ranges, each within BATCH_DRAW_BYTES of draws and seeding
    unless the floor below needs more.

    A batch also holds at most ceil(replicates / workers) replicates, so
    every worker gets a share. With more than one worker it holds at least
    SVD_GIL_THRESHOLD // n + 1 replicates, capped at that share: numpy's
    stacked SVD releases the GIL only when stack size x n exceeds
    SVD_GIL_THRESHOLD (``NPY_BEGIN_THREADS_THRESHOLDED``, in numpy's
    ``ndarraytypes.h``), so smaller batches would serialise the workers'
    decompositions. The floor may exceed the byte budget, up to about
    4 MB x m x parts of draws at n = 500. One-worker runs keep the
    byte-bounded batches. A run of fewer than twice the floor's replicates
    gets batches below the floor, whose decompositions still hold the GIL.
    """
    draw_bytes = math.prod(_draw_shape(spec)) * np.dtype(np.float64).itemsize
    size = BATCH_DRAW_BYTES // (draw_bytes + SEED_BYTES)
    if config.workers > 1:
        size = max(size, SVD_GIL_THRESHOLD // spec.n + 1)
    per_worker = -(-config.replicates // config.workers)
    size = max(1, min(size, per_worker))
    return [
        range(start, min(start + size, config.replicates))
        for start in range(0, config.replicates, size)
    ]


@functools.cache
def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of the BLAS numpy loaded, or None.

    A symbol looked up in the handle of numpy's linear-algebra extension is
    searched for in the libraries it links, so this finds the BLAS numpy
    calls whatever its file is named. Run once, on the first sampling run,
    so importing the package never pays for it.
    """
    try:
        lib = ctypes.CDLL(importlib.import_module("numpy.linalg._umath_linalg").__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def blas_pinned() -> bool:
    """Whether sampling holds BLAS at one thread; if not, its bits depend on the BLAS thread count."""
    return _blas_threads() is not None


# BLAS's thread count is process-wide, so the count of the runs holding it is too.
_pin_lock = threading.Lock()
_pinned_runs = 0  # sampling runs now inside _one_blas_thread
_saved_blas_threads = 0  # the count the first of them found


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold BLAS at one thread while any sampling run is inside; restore the old count after the last.

    Overlapping runs are counted under a lock that is held only to count,
    so independent callers still sample side by side.
    """
    global _pinned_runs, _saved_blas_threads
    control = _blas_threads()
    if control is None:
        yield
        return
    get, set_ = control
    with _pin_lock:
        if _pinned_runs == 0:
            _saved_blas_threads = get()
            set_(1)
        _pinned_runs += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pinned_runs -= 1
            if _pinned_runs == 0:
                set_(_saved_blas_threads)


def collect_spectra(spec: GinibreSpec, config: RunConfig) -> np.ndarray:
    """All squared singular values for every replicate, shape (replicates, n).

    Row r holds replicate r's spectrum in descending order, drawn from
    ``replicate_rng(spec, config.master_seed, r)``; column 0 holds the
    largest values s_1^2. Linear-algebra failures and non-finite spectra
    raise ArithmeticError rather than propagating NaN. Worker threads
    take whole batches; each writes only its own rows. BLAS runs at one
    thread meanwhile (see :func:`blas_pinned`).
    """
    spectra = np.empty((config.replicates, spec.n))
    prefix = _seed_prefix(spec, config.master_seed)
    failed = threading.Event()  # set by a batch that raised, so the batches after it are skipped

    def run(batch: range) -> None:
        try:
            if not failed.is_set():
                spectra[batch.start : batch.stop] = _sample_batch(spec, prefix, batch)
        except BaseException:
            failed.set()
            raise

    batches = _batches(spec, config)
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=config.workers) as pool:
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
    with the caller. Every grid point is validated before any sampling.
    """
    n_grid = list(n_grid)
    if not n_grid:
        raise ValueError("empty n-grid")
    specs = [GinibreSpec(n=n, m=m, field=field) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(f"n_grid must be strictly ascending, got {n_grid}")
    u = float(edge_constant(m).u)
    rows = []
    for spec in specs:
        est = edge_from_values(collect_spectra(spec, config)[:, 0])
        rows.append(
            ConvergenceRow(
                n=spec.n,
                mean_s1sq=est.mean_s1sq,
                gap=u - est.mean_s1sq,
                standard_error=est.standard_error,
                replicates=config.replicates,
            )
        )
    return rows
