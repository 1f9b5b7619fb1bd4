"""A fixed piece of work that times the host, not the program.

Usage: python calibrate.py

Prints, as JSON, the monotonic-clock time at which ``import numpy`` was
done (comparable with the parent's ``time.perf_counter`` on Linux), then
seeds a numpy generator from a ``SeedSequence``, draws a 4 x 4 complex
matrix, multiplies it by its conjugate transpose and takes the singular
values, 4000 times over. ``run.py`` times this script in a fresh
interpreter: its start-up (spawn to numpy imported) is the kind of work a
CLI call's set-up is, and its whole time (spawn to exit) covers what an
interpreter-bound CLI call pays: start-up, importing numpy and
small-call numpy overhead. None of it is ginprod code, so no change to
the program moves it.

On a shared host (a virtual machine with a few vCPUs) other tenants' load
slows interpreter-bound work by up to a factor of two, in phases that
last from seconds to minutes; on a 2-vCPU Xeon VM the same workload's
median moved by up to 45% between 30-second runs a few minutes apart.
``run.py`` times this script after every repetition and scales the
repetition's set-up times by a fixed reference start-up time over the
script's start-up time, and, on the workloads in
``workloads.HOST_SCALED``, its wall and CPU times by a fixed reference
time over the script's whole time. That takes out the part of the
slow-down that hits the script and the workload alike. Of the scripts
tried (the same loop timed without start-up, Fraction and big-integer
arithmetic, a dictionary loop, single-threaded BLAS products), this one
tracked the host-scaled workloads most closely. Changing the loop
changes the reference times in ``run.py``.
"""

import json
import time

import numpy as np

READY = time.perf_counter()
ROUNDS = 4000


def work() -> float:
    """Run the fixed loop once and return the seconds it took."""
    start = time.perf_counter()
    for i in range(ROUNDS):
        rng = np.random.default_rng(np.random.SeedSequence([7, i]))
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.linalg.svd(a @ a.conj().T, compute_uv=False)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"ready": READY}), flush=True)
    work()
