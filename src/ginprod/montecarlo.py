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

Sampling holds the BLAS numpy loaded at one thread (the sampling threads
own the cores), so the bits do not depend on ``OPENBLAS_NUM_THREADS``:
multithreaded BLAS changes the last bits of large complex products. The
thread control is looked up on the first sampling run; where none is
found (:func:`blas_pinned` is False) sampling runs unpinned and the bits
hold only at one BLAS thread count. The pin is for library callers: the
command line starts BLAS at one thread before numpy loads it (see
``ginprod.cli``), so the thread variables change no bit of a CLI run,
pinned or not, where the BLAS reads them. Runs with fewer batches than cores
pay for this, as they lose BLAS's own parallelism; a worker left a spare
core wins part of it back with a second thread that draws and decomposes
beside its first (see Workers below).

Replicates are sampled in batches, each in two stages. The draw stage
(:func:`_draw_stage`) builds the batch's products W_1...W_m, each
replicate's from its own stream; the reduce stage (:func:`_reduce_stage`)
decomposes them with one stacked SVD and checks them. Every operation
acts on each replicate's slice exactly as it would on that replicate
alone, so neither the batch size, the way a batch is drawn nor the thread
count changes a bit. The batching, scheduling and memory rules, stated
here once:

- Threads. A run's thread count is decided first: its W workers, and a
  helper for each worker w < usable cores - W (:func:`_usable_cores`), so
  a one-worker run has two threads where a core is free and one where none
  is. It starts only as many threads as it has batches. The calling thread
  is thread 0, and thread t belongs to worker t mod W.
- Budget. A batch holds at most ``BATCH_DRAW_BYTES`` of Gaussian draws
  and seeding (``SEED_BYTES`` a replicate), and at most
  ceil(replicates / threads) replicates, so every thread gets a share. A
  replicate over the budget alone is a batch of one. Batches all have one
  size but the last, which is shorter.
- GIL floor. With more than one thread a batch holds at least
  ``SVD_GIL_THRESHOLD // n + 1`` replicates, capped at the share:
  numpy's stacked SVD releases the GIL only when stack size x n exceeds
  ``SVD_GIL_THRESHOLD``, so smaller batches would make the threads take
  turns at their decompositions. A floor batch may exceed the budget, up
  to about 4 MB x m x parts of draws at n = 500 (parts is 2 for complex
  entries). One-thread runs keep the budget, and a run of fewer than
  twice the floor's replicates gets batches below it.
- Workers. Every thread runs one loop: it takes its worker's draw lock,
  takes the next batch start from one iterator over the run's batches,
  draws the batch, releases the lock and reduces what it drew. So at most
  one draw per worker runs at a time, and a worker's held draws, a Python
  loop that holds the GIL, never contend, while its other thread
  decomposes, or draws once its own decomposition is done. A stage that
  raises stops every thread before its next batch, and the run joins
  every thread it started before it returns.
- Held or streamed. A run streams when a full batch's draws exceed the
  budget (a replicate over it alone, or a floor batch); this is decided
  once, where the batches are made, and a short last batch follows it.
- Buffers. A run makes one scratch set per worker and one (b, n, n)
  product array per thread, for a full batch, the largest; a short last
  batch uses their front rows. The scratch set is the draws when held, a
  spare product when m > 1 or streamed complex entries need one, and a
  factor when m > 1 (:func:`_buffer_shapes`); the spare and the factor
  are b deep when held and one replicate deep when streamed. A worker's
  threads share its set, as they draw in turn, and each reduces from its
  own product array while the other draws. One chain (:func:`_chain`)
  builds every product: the partial products W_1...W_j alternate between
  the product array and the spare, starting where the last lands in the
  product array, and each factor after W_1 is written into the factor
  buffer before it is multiplied in. A held batch draws all
  its replicates first, one fill each, which is why small replicates keep
  this way, then runs the chain once over the batch: m + 3 n x n arrays a
  replicate, m + 1 at m = 1. A streamed batch never holds its draws: it
  runs the chain once per replicate, drawing each factor where the chain
  writes it, a complex factor's parts in whichever product-sized buffer
  is free. It holds b + 2 n x n arrays, three at b = 1 for any m; at
  m = 1 the rows alone, plus the spare for complex entries.

The streams are derived in bulk: once per run, numpy's own
``SeedSequence(master_seed, spawn_key=(n, m, field))`` mixes the run's
fixed words, and each batch mixes only r into that pool, for all its
replicates at once, by numpy's seeding arithmetic (frozen by its RNG
policy, NEP 19). PCG64's own seeding step, inc = 2 seq + 1 and state =
(inc + seed) x multiplier + inc mod 2^128, runs over the batch too, on
(high, low) uint64 word arrays, so a replicate costs only the joining of
its words into Python ints. One generator per batch is set to each state
in turn. The draws are bit-identical to :func:`replicate_rng`, which
stays the contract's definition and the tests' reference.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import importlib
import math
import os
import threading
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

#: Most workers a run may ask for. :func:`collect_spectra` starts a thread
#: for each worker but the first, and :func:`_batches` makes about one batch
#: per thread, so an unbounded count would ask the OS for that many threads.
#: Helper threads add at most as many again: they go only to cores the workers leave.
MAX_WORKERS = 256

#: Relative tolerance for the sum-of-squares vs Frobenius-norm consistency
#: check applied to every sample.
SVD_CONSISTENCY_RTOL = 1e-8

#: Most bytes of Gaussian draws and seeding a batch holds unless the GIL
#: floor needs more; a batch over it is streamed (see the module docstring).
BATCH_DRAW_BYTES = 1 << 20

#: Most bytes of spectrum powers :func:`moments_from_spectra` holds at once, so that it
#: never copies a whole spectrum array.
MOMENT_BLOCK_BYTES = 1 << 20

#: numpy's stacked ``np.linalg.svd`` releases the GIL only for a loop of more
#: than this many elements, stack size times n: ``NPY_BEGIN_THREADS_THRESHOLDED``
#: in ``numpy/_core/include/numpy/ndarraytypes.h`` (see the module docstring).
SVD_GIL_THRESHOLD = 500

#: Peak bytes one replicate adds while its batch's streams are derived (hash
#: and state words, Python ints): about 410 measured with ``ru_maxrss``, rounded up.
SEED_BYTES = 512

_FIELD_CODES = {"real": 0, "complex": 1}
_ENTRY_DTYPES = {"real": np.float64, "complex": np.complex128}

# numpy's SeedSequence and PCG64 seeding constants, frozen by its RNG policy (NEP 19).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_WORDS = (np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & 0xFFFFFFFFFFFFFFFF))  # (high, low)
_LOW32 = np.uint64(0xFFFFFFFF)

#: (get, set) thread-count symbols of the BLAS libraries numpy ships with, in lookup order.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("MKL_Get_Max_Threads", "MKL_Set_Num_Threads"),
)


def _usable_cores() -> int:
    """The cores this process may run on: its affinity set where the OS has one, else the CPU count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def default_workers() -> int:
    """Worker count from the environment (GINPROD_WORKERS), default the usable cores.

    The cores are counted up to :data:`MAX_WORKERS`; a larger GINPROD_WORKERS is refused.
    """
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return min(_usable_cores(), MAX_WORKERS)
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
        return float(self.means[self._row(k)])

    def standard_error(self, k: int) -> float:
        return float(self.standard_errors[self._row(k)])

    def _row(self, k: int) -> int:
        """Row of order k; TypeError for a bool or a non-int, ValueError below 1, IndexError past k_max."""
        if _natural("k", k, 1) > len(self.means):
            raise IndexError(f"k must be <= k_max = {len(self.means)}, got {k}")
        return k - 1


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


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2**128 of (high, low) uint64 word arrays, the carry taken from the low words."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _mul128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a * b mod 2**128 of (high, low) uint64 word arrays. The full product of the
    low words is built from their 32-bit halves, whose products fit 64 bits."""
    a0, a1, b0, b1 = a[1] & _LOW32, a[1] >> 32, b[1] & _LOW32, b[1] >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _LOW32) + p10  # at most 2**64 - 1
    high = a1 * b1 + (mid >> 32) + (p01 >> 32) + a[0] * b[1] + a[1] * b[0]
    return high, mid << 32 | p00 & _LOW32


def _replicate_states(prefix: tuple, replicates: Sequence[int]) -> Iterator[dict]:
    """Yield the PCG64 state of ``replicate_rng(spec, master_seed, r)`` for each r.

    ``prefix`` is ``_seed_prefix(spec, master_seed)``. Only r is mixed here,
    as wrapping uint32 arrays over all r at once: into the four pool words,
    then into ``generate_state(4, np.uint64)``'s eight. PCG64's seeding runs
    on the (high, low) uint64 words of its 128-bit numbers, over all r at
    once too. Every r must be below 2**32, a single entropy word.
    """
    seq, consts = prefix
    r = np.asarray(replicates, dtype=np.uint32)[:, None]
    pool = _MIX_MULT_L * seq.pool - _MIX_MULT_R * _hash(r, consts)
    pool ^= pool >> 16
    words = _hash(np.concatenate((pool, pool), axis=1), _STATE_CONSTS).astype(np.uint64)
    seed_high, seed_low, seq_high, seq_low = (words[:, 0::2] | words[:, 1::2] << 32).T  # paired low word first

    # PCG64's srandom: state 0, inc = 2 * seq + 1, step, add the seed, step.
    inc = (seq_high << 1 | seq_low >> 63, seq_low << 1 | 1)
    state = _add128(_mul128(_add128(inc, (seed_high, seed_low)), _PCG64_MULT_WORDS), inc)
    for state_high, state_low, inc_high, inc_low in zip(*(w.tolist() for w in (*state, *inc))):
        yield {"bit_generator": "PCG64", "state": {"state": state_high << 64 | state_low,
                                                   "inc": inc_high << 64 | inc_low},
               "has_uint32": 0, "uinteger": 0}


def _draw_shape(spec: GinibreSpec) -> tuple[int, int, int, int]:
    """Shape (m, parts, n, n) of one product's standard normals; parts is 1
    for real and 2 for complex entries."""
    return (spec.m, 1 if spec.field == "real" else 2, spec.n, spec.n)


def _draw_bytes(spec: GinibreSpec) -> int:
    """Bytes of one replicate's standard normals."""
    return math.prod(_draw_shape(spec)) * np.dtype(np.float64).itemsize


def _entries(spec: GinibreSpec, draws: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write factor entries with the stated law into ``out``, shape (..., n, n), and return it.

    They come from standard normals ``draws``, shape (..., parts, n, n): the
    real part over sqrt(n) for real entries, (real + i imaginary) over
    sqrt(2n) for complex ones.
    """
    if spec.field == "real":
        return np.divide(draws[..., 0, :, :], np.sqrt(spec.n), out=out)
    out.real, out.imag = draws[..., 0, :, :], draws[..., 1, :, :]
    out /= np.sqrt(2 * spec.n)
    return out


def _draw_factor(spec: GinibreSpec, rng: np.random.Generator, out: np.ndarray, free: np.ndarray | None) -> None:
    """Draw the stream's next factor into ``out``, shape (1, n, n): a real one in
    place, a complex one's parts in ``free``, an array of out's shape and dtype."""
    draws = out[:, None] if spec.field == "real" else free.view(np.float64).reshape(2, spec.n, spec.n)
    rng.standard_normal(out=draws)
    _entries(spec, draws, out)


def _buffer_shapes(spec: GinibreSpec, b: int, streamed: bool) -> tuple:
    """(shape, dtype), or None where the way uses none, of the buffers a thread draws batches
    of up to b replicates with: its worker's draws, its own product array, and its worker's
    spare and factor (see the module docstring)."""
    n, dtype = spec.n, _ENTRY_DTYPES[spec.field]
    draws = None if streamed else ((b, *_draw_shape(spec)), np.float64)
    deep = ((1 if streamed else b, n, n), dtype)
    spare = spec.m > 1 or streamed and spec.field == "complex"
    return draws, ((b, n, n), dtype), deep if spare else None, deep if spec.m > 1 else None


def _chain(
    spec: GinibreSpec, product: np.ndarray, spare: np.ndarray | None, factor: np.ndarray | None, fill: Callable
) -> np.ndarray:
    """The products W_1...W_m, written into ``product`` and returned. ``fill(j, out, free)``
    writes factor j + 1 into ``out`` and may use ``free``, a product-sized array not in use."""
    # partial[j] holds W_1...W_{j+1}; partial[1] is free while W_1 is
    # drawn, and partial[j] while W_{j+1} is, until the product lands in it.
    partial = [product if (spec.m - j) % 2 else spare for j in range(spec.m + 1)]
    fill(0, partial[0], partial[1])
    for j in range(1, spec.m):
        fill(j, factor, partial[j])
        np.matmul(partial[j - 1], factor, out=partial[j])
    return product


def _draw_stage(spec: GinibreSpec, prefix: tuple, batch: range, buffers: tuple) -> np.ndarray:
    """The products W_1...W_m of a batch, shape (b, n, n), held or streamed as this
    thread's ``buffers`` (:func:`_buffer_shapes`) say: a view of their product array.

    Row i is replicate ``batch[i]``, drawn from the stream of
    ``replicate_rng(spec, master_seed, batch[i])`` (``prefix`` is
    ``_seed_prefix(spec, master_seed)``), factor by factor, each factor's
    real part before its imaginary part.
    """
    draws, product, spare, factor = (a if a is None else a[: len(batch)] for a in buffers)
    # Seeded from the run's sequence, so no OS entropy is read; each replicate's state replaces it.
    rng = np.random.Generator(np.random.PCG64(prefix[0]))
    states = _replicate_states(prefix, np.arange(batch.start, batch.stop))
    if draws is None:  # streamed: the chain runs per replicate, drawing each factor where it goes
        for i, state in enumerate(states):
            rng.bit_generator.state = state
            _chain(spec, product[i : i + 1], spare, factor, lambda j, out, free: _draw_factor(spec, rng, out, free))
        return product
    bit_generator, standard_normal = rng.bit_generator, rng.standard_normal
    for row, state in zip(draws, states):
        bit_generator.state = state
        standard_normal(out=row)
    return _chain(spec, product, spare, factor, lambda j, out, free: _entries(spec, draws[:, j], out))


def _reduce_stage(spec: GinibreSpec, batch: range, product: np.ndarray) -> np.ndarray:
    """Squared singular values of a batch's products, shape (b, n), each row in descending order.

    A failed or non-finite decomposition, or one whose sum of squares
    misses ||W||_F^2, raises ArithmeticError naming the failing replicate.
    """
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


def _batches(spec: GinibreSpec, config: RunConfig) -> tuple[int, int, bool, int]:
    """The size and count of a run's batches under the budget, share and GIL-floor rules of
    the module docstring, whether the run streams them, and how many threads sample them.
    Batch i holds replicates i * size up to (i + 1) * size, or up to the run's end for the last."""
    threads = config.workers + max(0, min(config.workers, _usable_cores() - config.workers))
    size = BATCH_DRAW_BYTES // (_draw_bytes(spec) + SEED_BYTES)
    if threads > 1:
        size = max(size, SVD_GIL_THRESHOLD // spec.n + 1)
    size = max(1, min(size, -(-config.replicates // threads)))
    count = -(-config.replicates // size)
    return size, count, size * _draw_bytes(spec) > BATCH_DRAW_BYTES, min(threads, count)


def _run_bytes(spec: GinibreSpec, config: RunConfig) -> int:
    """Bytes of the arrays a run holds at once: its (replicates, n) result, the draws, spare
    and factor of each of its workers and the product array of each of its threads
    (:func:`_buffer_shapes`), made for a full batch, the largest. The decomposition's
    output and workspace, a few arrays of one batch's values, are not counted."""
    size, _, streamed, threads = _batches(spec, config)
    draws, product, spare, factor = (
        0 if shape is None else math.prod(shape[0]) * np.dtype(shape[1]).itemsize
        for shape in _buffer_shapes(spec, size, streamed)
    )
    return config.replicates * spec.n * 8 + min(config.workers, threads) * (draws + spare + factor) + threads * product


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
    raise ArithmeticError rather than propagating NaN. Each thread takes
    the run's next batch under its worker's draw lock, draws it, and
    reduces it with the lock released; the calling thread is the first,
    and a worker the run leaves a core has a second (see the module
    docstring). BLAS runs at one thread meanwhile (see :func:`blas_pinned`).
    """
    spectra = np.empty((config.replicates, spec.n))
    prefix = _seed_prefix(spec, config.master_seed)
    size, _, streamed, threads = _batches(spec, config)
    draws, product, spare, factor = _buffer_shapes(spec, size, streamed)
    # Each worker's draw lock and the draws, spare and factor its threads draw with in turn.
    workers = [(threading.Lock(), *(None if shape is None else np.empty(*shape) for shape in (draws, spare, factor)))
               for _ in range(min(config.workers, threads))]
    # Every thread takes batch starts from one sequence, handed out under a lock of its own.
    starts, handing_out = iter(range(0, config.replicates, size)), threading.Lock()
    # A stage that raises sets failed, so the threads stop before their next batch, and keeps its error.
    failed, errors = threading.Event(), []

    def work(t: int) -> None:
        lock, *scratch = workers[t % len(workers)]
        try:
            buffers = (scratch[0], np.empty(*product), *scratch[1:])
            while True:
                with lock:
                    with handing_out:
                        start = next(starts, None)
                    if start is None or failed.is_set():
                        return
                    batch = range(start, min(start + size, config.replicates))
                    products = _draw_stage(spec, prefix, batch, buffers)
                spectra[batch.start : batch.stop] = _reduce_stage(spec, batch, products)
        except BaseException as exc:
            failed.set()
            errors.append(exc)

    started = [threading.Thread(target=work, args=(t,)) for t in range(1, threads)]
    with _one_blas_thread():
        for thread in started:
            thread.start()
        work(0)
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return spectra


def _moment_rows(n: int) -> int:
    """Rows of a (replicates, n) spectrum array that :func:`moments_from_spectra` raises to
    each power at once: ``MOMENT_BLOCK_BYTES`` of them, or one row where a row is more."""
    return max(1, MOMENT_BLOCK_BYTES // (n * 8))


def _moment_bytes(replicates: int, n: int, k_max: int) -> int:
    """Most bytes held while :func:`moments_from_spectra` runs on a (replicates, n) spectrum
    array: the spectra, one block of their powers, the (replicates, k_max) per-replicate table
    (its standard errors are taken in place), and the buffer of ``np.getbufsize()`` elements
    numpy's reductions may fill meanwhile."""
    return 8 * (replicates * n + min(replicates, _moment_rows(n)) * n + replicates * k_max + np.getbufsize())


def moments_from_spectra(spectra: np.ndarray, k_max: int) -> EmpiricalMoments:
    """Moments (1/n) sum_i s_i^(2k), k = 1 .. k_max, of a (replicates, n) spectrum array.

    Raises ValueError unless ``spectra`` is 2-D and non-empty, and
    ArithmeticError naming the first order whose mean or standard error is
    not finite, as when s^(2k) passes the float range.
    """
    _natural("k_max", k_max, 1)
    if spectra.ndim != 2 or spectra.size == 0:
        raise ValueError(f"spectra must be a non-empty 2-D (replicates, n) array, got shape {spectra.shape}")
    replicates, rows = spectra.shape[0], _moment_rows(spectra.shape[1])
    per_replicate = np.empty((replicates, k_max))
    # Overflow shows as a non-finite moment, checked below, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, replicates, rows):  # each row's powers and means, a block of rows at a time
            block = spectra[start : start + rows]
            powers = block.copy()
            for k in range(k_max):
                per_replicate[start : start + rows, k] = powers.mean(axis=1)
                powers *= block
        means = per_replicate.mean(axis=0)
        if replicates > 1:
            # std(axis=0, ddof=1)'s own steps, taken in the table instead of a copy of it: the same bits.
            per_replicate -= means
            per_replicate *= per_replicate
            ses = np.sqrt(per_replicate.sum(axis=0) / (replicates - 1)) / np.sqrt(replicates)
        else:
            ses = np.zeros(k_max)
    nonfinite = ~(np.isfinite(means) & np.isfinite(ses))
    if nonfinite.any():
        k = int(np.argmax(nonfinite)) + 1
        raise ArithmeticError(
            f"the empirical moment of order {k} is not finite: mean {float(means[k - 1])}, "
            f"standard error {float(ses[k - 1])}"
        )
    return EmpiricalMoments(means=means, standard_errors=ses)


def edge_from_values(values: np.ndarray) -> EdgeEstimate:
    """Summarise per-replicate largest squared singular values, e.g. ``spectra[:, 0]``.

    The quantiles follow numpy's default 'linear' rule term for term, so
    they equal ``np.quantile(values, [0.05, 0.5, 0.95])`` bit for bit: for
    q, v = (n - 1) q, and a and b are the values of rank i = floor(v) and
    i + 1 in ascending order, both the last one (i = -1) where v >= n - 1;
    with t = v - i the quantile is a + (b - a) t, or b - (b - a)(1 - t)
    where t >= 0.5. A NaN makes all three NaN. The ranks come from one
    ``np.partition``; ``np.quantile`` itself would import ``numpy.ma``
    (through ``np.unique``), about 8 ms of every run that reports an edge.

    Raises ValueError unless ``values`` is 1-D and non-empty.
    """
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"values must be a non-empty 1-D array, got shape {values.shape}")
    replicates = values.shape[0]
    virtual = [(replicates - 1) * q for q in (0.05, 0.5, 0.95)]
    lower = [-1 if v >= replicates - 1 else math.floor(v) for v in virtual]
    upper = [i if i < 0 else i + 1 for i in lower]
    ordered = np.partition(values, sorted({replicates - 1, *(i % replicates for i in lower + upper)}))
    quantiles = [math.nan] * 3
    if not math.isnan(ordered[-1]):  # NaNs sort last
        for k, (v, i, j) in enumerate(zip(virtual, lower, upper)):
            a, b, t = float(ordered[i]), float(ordered[j]), v - i
            quantiles[k] = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    q05, q50, q95 = quantiles
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

    def row(spec: GinibreSpec) -> ConvergenceRow:
        # The estimate's values view this point's spectra: they go when the row is made,
        # so the next point samples without them.
        est = edge_from_values(collect_spectra(spec, config)[:, 0])
        return ConvergenceRow(n=spec.n, mean_s1sq=est.mean_s1sq, gap=u - est.mean_s1sq,
                              standard_error=est.standard_error, replicates=config.replicates)

    return [row(spec) for spec in specs]
