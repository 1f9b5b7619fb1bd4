"""The benchmark's workloads: which CLI invocations each one runs, and how
each invocation's output is checked.

Every workload is a list of ``ginprod`` invocations, each run in a fresh
interpreter. Traced runs append the same small probe to every workload.
The probe touches every layer once (the exact suites, the tail bound and
a threaded complex simulation), so every per-layer metric is measured on
every workload; untraced runs leave it out, so the end-to-end metrics
cover the workload's own calls only.

Checks are exact where the program is exact: every rational the CLI
prints must equal ``reference.json``, which ``make_reference.py``
computes from the library with its independent formulations agreeing.
Monte Carlo outputs are checked against exact moments within frozen
z-margins and against each other (summary vs per-replicate files).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Largest |empirical - exact| moment deviation accepted, in standard
#: errors. Worst seen over 30 seeds per moment configuration was 3.0.
MOMENT_Z = 6.0
#: Slack, in standard errors of the difference, allowed for the gap to
#: u_m to grow between consecutive grid sizes. Worst seen over 20 seeds
#: was +0.37.
SHRINK_Z = 3.0
#: Relative tolerance for floats the CLI derives from exact values.
FLOAT_RTOL = 1e-12


class CheckError(Exception):
    """An output that does not match what the invocation must produce."""


@dataclass(frozen=True)
class Invocation:
    """One CLI call: arguments, the check of its output, and its outputs."""

    label: str
    argv: tuple[str, ...]
    check: Callable[["Output"], None]
    replicates: int = 0
    files: tuple[str, ...] = ()  # paths relative to the work directory


@dataclass
class Output:
    stdout: str
    work: Path
    reference: dict


# --------------------------------------------------------------- parsing


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    if not rows:
        raise CheckError("CSV has no header row")
    return meta, rows[0], rows[1:]


def rows_digest(rows) -> str:
    """SHA-256 of rows as the CLI prints them, one comma-joined line each."""
    return hashlib.sha256("\n".join(",".join(r) for r in rows).encode()).hexdigest()


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(got: float, want: float, what: str) -> None:
    _expect(
        math.isfinite(got) and abs(got - want) <= FLOAT_RTOL * max(abs(want), 1.0),
        f"{what}: got {got!r}, want {want!r}",
    )


def edge_constant(m: int) -> Fraction:
    return Fraction((m + 1) ** (m + 1), m**m)


# ------------------------------------------------------------ exact checks


def _check_verify(key: str):
    def check(out: Output) -> None:
        ref = out.reference["exact"][key]
        doc = json.loads(out.stdout)
        _expect(doc["ok"] is True, f"verify reports failures: {doc.get('suites')}")
        _expect(doc["checks"] == ref["checks"], f"verify ran {doc['checks']} checks, reference {ref['checks']}")
        got = {s["name"]: s["checks"] for s in doc["suites"]}
        _expect(got == ref["suites"], f"per-suite check counts {got} != {ref['suites']}")

    return check


def _check_moments(key: str):
    def check(out: Output) -> None:
        ref = out.reference["exact"][key]
        doc = json.loads(out.stdout)
        _expect(doc["agree"] is True, "formulations disagree")
        for name, want in ref.items():
            _expect(doc[name] == want, f"{name} = {doc[name]}, reference {want}")

    return check


def _check_csv(key: str, exact_cols: tuple[str, ...], float_cols: tuple[str, ...]):
    def check(out: Output) -> None:
        ref = out.reference["exact"][key]
        meta, header, rows = parse_csv(out.stdout)
        for name, want in ref["meta"].items():
            _expect(meta.get(name) == want, f"meta {name} = {meta.get(name)}, reference {want}")
        _expect(len(rows) == ref["rows"], f"{len(rows)} rows, reference {ref['rows']}")
        cols = {name: header.index(name) for name in exact_cols + float_cols}
        exact = [[row[cols[c]] for c in exact_cols] for row in rows]
        _expect(rows_digest(exact) == ref["sha256"], "exact columns differ from the reference")
        for i, row in enumerate(rows):
            for c in float_cols:
                _close(float(row[cols[c]]), ref["floats"][i][float_cols.index(c)], f"row {i} {c}")

    return check


DOMINANCE_EXACT = ("r", "term", "ratio_to_next", "ratio_bound", "pass")
TAILBOUND_EXACT = ("n", "k_n", "exact_bound")
TAILBOUND_FLOATS = ("log_exact", "log_surrogate", "minus_2_log_n")


def verify_call(profile: str) -> Invocation:
    argv = ("verify", "--profile", profile, "--json")
    return Invocation(f"verify-{profile}", argv, _check_verify(" ".join(argv)))


def moments_call(m: int, n: int, k: int) -> Invocation:
    argv = ("moments", "--m", str(m), "--n", str(n), "--k", str(k), "--all-formulas")
    return Invocation(f"moments-{m}-{n}-{k}", argv, _check_moments(" ".join(argv)))


def dominance_call(m: int, n: int, k: int) -> Invocation:
    argv = ("dominance", "--m", str(m), "--n", str(n), "--k", str(k))
    check = _check_csv(" ".join(argv), DOMINANCE_EXACT, ())
    return Invocation(f"dominance-{m}-{n}-{k}", argv, check)


def tailbound_call(m: int, z: str, grid: tuple[int, ...]) -> Invocation:
    argv = ("tailbound", "--m", str(m), "--z", z, "--n-grid", ",".join(map(str, grid)))
    check = _check_csv(" ".join(argv), TAILBOUND_EXACT, TAILBOUND_FLOATS)
    return Invocation(f"tailbound-{m}", argv, check)


# ------------------------------------------------------ Monte Carlo checks


def exact_moment(reference: dict, m: int, n: int, k: int) -> Fraction:
    return Fraction(reference["moments"][f"{m},{n},{k}"])


def _check_simulate_doc(doc: dict, ref: dict, m: int, n: int, replicates: int, kmax: int) -> None:
    _expect((doc["m"], doc["n"], doc["replicates"]) == (m, n, replicates), "summary echoes the wrong run")
    _expect(doc["edge"]["u"] == str(edge_constant(m)), f"edge constant {doc['edge']['u']}")
    _expect(0 < doc["edge"]["q05"] <= doc["edge"]["q50"] <= doc["edge"]["q95"], "edge quantiles out of order")
    _expect(len(doc["moments"]) == kmax, f"{len(doc['moments'])} moments, want {kmax}")
    for entry in doc["moments"]:
        k, mean, se = entry["k"], entry["mean"], entry["standard_error"]
        exact = float(exact_moment(ref, m, n, k))
        _expect(se > 0 and math.isfinite(mean), f"moment {k}: mean {mean}, standard error {se}")
        z = (mean - exact) / se
        _expect(abs(z) <= MOMENT_Z, f"moment {k}: {mean} is {z:+.2f} standard errors from exact {exact}")


def simulate_call(label: str, m: int, n: int, kmax: int, replicates: int, workers: int,
                  seed: int, files: bool = False) -> Invocation:
    argv = ["simulate", "--m", str(m), "--n", str(n), "--field", "complex", "--kmax", str(kmax),
            "--replicates", str(replicates), "--seed", str(seed), "--workers", str(workers)]
    outputs: tuple[str, ...] = ()
    if files:
        # Relative to the work directory the CLI runs in, so the invocation
        # the CLI copies into its outputs is the same wherever that is.
        outputs = ("replicates.csv", "spectra")
        argv += ["--replicate-csv", outputs[0], "--spectrum-dir", outputs[1]]

    def check(out: Output) -> None:
        doc = json.loads(out.stdout)
        _check_simulate_doc(doc, out.reference, m, n, replicates, kmax)
        if files:
            _check_spectrum_files(out.work, doc, n, replicates)

    return Invocation(label, tuple(argv), check, replicates=replicates, files=outputs)


def _check_spectrum_files(work: Path, doc: dict, n: int, replicates: int) -> None:
    _, header, rows = parse_csv((work / "replicates.csv").read_text(encoding="utf-8"))
    _expect(header == ["replicate_index", "s1_sq"], f"replicate CSV header {header}")
    _expect([r[0] for r in rows] == [str(i) for i in range(replicates)], "replicate CSV indices")
    names = sorted(p.name for p in (work / "spectra").iterdir())
    _expect(names == [f"spectrum_{r:06d}.csv" for r in range(replicates)], f"{len(names)} spectrum files")
    first_moments = []
    for r, name in enumerate(names):
        meta, header, body = parse_csv((work / "spectra" / name).read_text(encoding="utf-8"))
        _expect(header == ["rank", "s_sq"], f"{name}: header {header}")
        _expect(meta.get("replicate_index") == str(r), f"{name}: replicate_index {meta.get('replicate_index')}")
        _expect([row[0] for row in body] == [str(i) for i in range(1, n + 1)], f"{name}: ranks are not 1..{n}")
        values = [float(row[1]) for row in body]
        _expect(all(a >= b for a, b in zip(values, values[1:])) and values[-1] >= 0,
                f"{name}: values not descending and non-negative")
        _expect(body[0][1] == rows[r][1], f"{name}: s_1^2 {body[0][1]} != replicate CSV {rows[r][1]}")
        first_moments.append(math.fsum(values) / n)
    mean = math.fsum(first_moments) / replicates
    want = doc["moments"][0]["mean"]
    _expect(abs(mean - want) <= 1e-9 * abs(want), f"files give first moment {mean}, summary {want}")


def converge_call(m: int, grid: tuple[int, ...], replicates: int, seed: int) -> Invocation:
    argv = ("converge", "--m", str(m), "--n-grid", ",".join(map(str, grid)), "--field", "real",
            "--workers", "1", "--replicates", str(replicates), "--seed", str(seed))
    u = edge_constant(m)

    def check(out: Output) -> None:
        meta, header, rows = parse_csv(out.stdout)
        _expect(meta.get("u") == str(u), f"u = {meta.get('u')}, want {u}")
        _expect(header == ["n", "mean_s1sq", "gap", "standard_error", "replicates"], f"header {header}")
        _expect([int(r[0]) for r in rows] == list(grid), "rows do not follow the n-grid")
        stats = []
        for row in rows:
            mean, gap, se = float(row[1]), float(row[2]), float(row[3])
            _expect(int(row[4]) == replicates and se > 0, f"n = {row[0]}: replicates {row[4]}, se {se}")
            _expect(mean < u, f"n = {row[0]}: mean s1^2 {mean} not below u = {float(u)}")
            _close(gap, float(u) - mean, f"n = {row[0]} gap")
            stats.append((gap, se))
        for (g0, s0), (g1, s1), n1 in zip(stats, stats[1:], grid[1:]):
            slack = SHRINK_Z * math.hypot(s0, s1)
            _expect(g1 < g0 + slack, f"gap grew to {g1} at n = {n1} from {g0} (slack {slack:.3g})")

    return Invocation("converge", argv, check, replicates=replicates * len(grid))


# ----------------------------------------------------------------- sizes

FULL = {
    "verify": "full",
    "moments": (2, 2000, 10),
    "dominance": (3, 100_000, 100),
    "tailbound": (2, "9", (100, 200, 400, 800, 1600, 3200)),
    "edge_grid": (3, (64, 128, 256, 512), 32),
    "bridge": (2, 4, 4, 20_000),
    "spectra": (1, 384, 2, 32),
    "min_reps": 3,
}
#: Shrunk sizes for the benchmark's own tests, which swap them in for FULL.
SMOKE = {
    "verify": "quick",
    "moments": (2, 60, 6),
    "dominance": (3, 1000, 10),
    "tailbound": (2, "9", (100, 200)),
    "edge_grid": (3, (16, 32), 32),
    "bridge": (2, 4, 4, 2000),
    "spectra": (1, 32, 2, 8),
    "min_reps": 1,
}

WORKLOADS = ("exact_chain", "mc_edge_grid", "mc_bridge_small_n", "mc_spectra_parallel")
#: Workloads whose wall and CPU times are scaled by the calibration script
#: (calibrate.py): the interpreter-bound ones, which a shared host's slow
#: phases slow the way they slow the script. On a 2-vCPU Xeon VM scaling
#: narrowed the spread of their run medians (mc_bridge_small_n wall time 20%
#: to 4%, exact_chain 20% to 10%, in one set of ten runs). The other two
#: spend their time in BLAS and LAPACK kernels, and scaling did not help them
#: (mc_spectra_parallel 1% unscaled, 10% scaled, in another set; mc_edge_grid
#: within three points either way), so they stay unscaled. Set-up times are
#: scaled on every workload.
HOST_SCALED = frozenset({"exact_chain", "mc_bridge_small_n"})


#: The probe appended to every workload in traced runs.
PROBE = {
    "verify": "quick",
    "tailbound": (1, "6", (60, 120)),
    "simulate": (2, 8, 2, 256),  # m, n, kmax, replicates; two workers
}


def probe(seed: int) -> list[Invocation]:
    m, n, kmax, replicates = PROBE["simulate"]
    return [
        replace(verify_call(PROBE["verify"]), label="probe-verify"),
        replace(tailbound_call(*PROBE["tailbound"]), label="probe-tailbound"),
        simulate_call("probe-simulate", m, n, kmax, replicates, 2, seed),
    ]


def build(workload: str, seed: int, with_probe: bool = False) -> list[Invocation]:
    """The invocations of one repetition; the same seed gives the same list."""
    p = FULL
    rng = random.Random(f"{workload}:{seed}")
    cli_seed = rng.getrandbits(63)
    if workload == "exact_chain":
        calls = [
            verify_call(p["verify"]),
            moments_call(*p["moments"]),
            dominance_call(*p["dominance"]),
            tailbound_call(*p["tailbound"]),
        ]
        # The exact chain has no random input; the seed orders the calls.
        rng.shuffle(calls)
    elif workload == "mc_edge_grid":
        m, grid, replicates = p["edge_grid"]
        calls = [converge_call(m, grid, replicates, cli_seed)]
    elif workload == "mc_bridge_small_n":
        m, n, kmax, replicates = p["bridge"]
        calls = [simulate_call("simulate", m, n, kmax, replicates, 1, cli_seed)]
    elif workload == "mc_spectra_parallel":
        m, n, kmax, replicates = p["spectra"]
        calls = [simulate_call("simulate", m, n, kmax, replicates, 2, cli_seed, files=True)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return calls + probe(cli_seed ^ 1) if with_probe else calls


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
