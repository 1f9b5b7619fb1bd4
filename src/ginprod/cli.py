r"""Command-line front end.

One subcommand per quantity: exact edge constants, exact moments, the
coefficient vector with its bounds, term-dominance tables, tail bounds
along the k_n = ceil(w log n) schedule, Monte Carlo sampling, edge
convergence tables, and the exact identity suites. Each is one row of
``_COMMANDS``, from which ``--help`` builds both its command list and its
quantity-to-command map.

Handlers do no I/O: each returns its exit status and its documents (a
text block, a CSV table or a JSON object), each paired with a path or
None for stdout; ``_render`` formats each into what ``_writer`` opens.

Output contracts:
- JSON documents carry a ``meta`` object (tool, version, full
  invocation; seed and ``blas_pinned`` where applicable) and serialize
  exact rationals as "p/q" strings, never floats.
- CSV files start with '#'-prefixed metadata lines, then a mandatory
  header row; numeric columns use '.' decimals, no grouping. A line break
  inside a metadata value is written as its Python escape (\n, \r, \x0c,
  ... for every break ``str.splitlines`` knows), so each value stays on
  its one '#' line.
- Each CSV row is its cells joined by commas. Every cell is a number, a
  "p/q" rational, true/false, a header name or empty, so no cell needs
  quoting.
- Handlers return raw values and ``_cell`` alone writes them, in CSV and
  for JSON rationals: floats with 17 significant digits, bools as
  true/false, rationals as "p/q", None as an empty cell. The one
  exception is ``dominance``'s term column: its handler writes the
  report's reduced (p, q) pairs as "p/q", or "p" when q = 1, as a
  Fraction prints, and formats each distinct denominator once.
- A new or regular output file is replaced atomically (written under a
  temporary name in its directory, then renamed; its permission bits are
  kept), so a failed write never leaves a truncated file. A symlink,
  device or FIFO (``/dev/null``, ``/dev/stdout``) is written in place.
- An unusable destination exits 2 before any work: an ``--output`` or
  ``--replicate-csv`` path that is a directory, an unwritable file, or
  lies in a missing or unwritable directory, or a ``--spectrum-dir``
  whose nearest existing ancestor is not a writable directory. So do two
  destinations of a run that resolve to one file (not a device or pipe). The
  ``--spectrum-dir`` is made when its first file is written.
- Exit status: 0 success, 1 check failure, 2 usage error, 3 numerical
  failure, 4 internal error (any other exception, reported on one
  stderr line instead of a traceback), 141 a reader closed an output
  pipe early (``ginprod ... | head``; nothing is printed).

BLAS threads: importing this module before numpy sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to
1, so numpy loads its BLAS at one thread. No command runs BLAS at more:
the exact commands never call it, and sampling holds it at one thread
anyway (see :func:`montecarlo.blas_pinned`). An OpenBLAS started at more
threads keeps a worker per extra core busy-waiting for work through the
first tenth of a second or so of every call, which costs CPU and, where
it shares the main thread's core, start-up time. So the thread variables
change neither a command's bits nor its speed. Where numpy was imported
first (a library caller that imports this module), the variables and
BLAS are left as they are.

Start-up: importing this module imports numpy (for the thread variables
above and ``main``'s ``LinAlgError`` catch) and the four exact modules.
The sampler (``montecarlo``) and the identity suites (``verify``) are
registered in ``sys.modules`` and on the package but not executed
(``importlib.util.LazyLoader``): each runs on the first read of one of
its names, the sampler in ``simulate`` and ``converge`` and the suites
in ``verify``. The parser lists every command but adds the options of
the command being run only, so no other command reads the sampler's
``--workers`` limits or the suites' profiles. Before Python 3.12 that
first read takes no lock, so a library caller that imports this module
should make it from one thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import itertools
import json
import math
import os
import re
import shlex
import stat
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import Iterable, Iterator, NamedTuple, TextIO

if "numpy" not in sys.modules:
    # BLAS reads its thread count once, when numpy loads it; see "BLAS threads" above.
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np

from . import __version__, beta_poly, edge_analysis, moment_engine
from .combinatorics import _natural, fuss_catalan

__all__ = ["main", "build_parser"]


def _deferred(name: str) -> ModuleType:
    """Submodule ``name`` of the package, registered in ``sys.modules`` and on the package as
    an import would, but executed on the first read of one of its attributes (``LazyLoader``)."""
    qualified = f"{__package__}.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    spec = importlib.util.find_spec(qualified)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[qualified] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


montecarlo = _deferred("montecarlo")
verify_suites = _deferred("verify")


class _Table(NamedTuple):
    """A CSV document: its own '#' metadata lines, a header row and rows of raw values."""
    meta: dict
    header: list[str]
    rows: Iterable[Iterable]


_Result = tuple[int, Iterable[tuple[str | None, str | dict | _Table]]]


def _cell(value: object) -> str:
    """The written form of one value: a CSV cell or metadata value, or a JSON rational."""
    if isinstance(value, float):  # numpy's float64 too; first, as the most common cell
        return format(value, ".17g")
    if isinstance(value, bool):  # before int, of which bool is a subclass
        return "true" if value else "false"
    if isinstance(value, (int, str, Fraction)):
        return str(value)
    if value is None:
        return ""
    raise TypeError(f"no output format for {type(value).__name__}")


#: Every character ``str.splitlines`` breaks a line at, mapped to its escape.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _csv_line(cells: list[str]) -> str:
    """One CSV row and its line feed; no cell the CLI writes needs quoting."""
    return ",".join(cells) + "\n"


def _render(args: argparse.Namespace, doc: str | dict | _Table, fh: TextIO) -> None:
    """Format one document into ``fh``; JSON objects and CSV tables get the ``meta`` block."""
    meta = {"tool": "ginprod", "version": __version__, "invocation": args.invocation}
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
        meta["blas_pinned"] = montecarlo.blas_pinned()  # whether the bits hold across BLAS thread counts
    if isinstance(doc, str):
        fh.write(doc)
    elif isinstance(doc, dict):
        json.dump({"meta": meta, **doc}, fh, indent=2, default=_cell)
        fh.write("\n")
    else:
        for key, value in [*meta.items(), *doc.meta.items()]:
            fh.write(f"# {key}: {_cell(value).translate(_LINE_BREAKS)}\n")
        fh.write(_csv_line(doc.header))
        fh.writelines(_csv_line(list(map(_cell, row))) for row in doc.rows)


@contextmanager
def _any_int_digits() -> Iterator[None]:
    """Lift Python's limit on the digits of an int written as text, then restore it.

    Exact values are written in full: the terms of ``dominance --m 3 --n
    100000 --k 250`` have numerators past the default 4300 digits, and
    ``edge`` formats u_m in its handler, which runs inside this too.
    Interpreters older than 3.10.7 have no such limit, and nothing to lift.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _replaced(path: str) -> bool:
    """Whether ``path`` is written atomically: it does not exist yet or is a plain regular file.

    A symlink, device, FIFO or other special file is opened and written in place, as
    renaming onto it would destroy it (``--output /dev/null`` or ``/dev/stdout``).
    """
    return not os.path.lexists(path) or (os.path.isfile(path) and not os.path.islink(path))


@contextmanager
def _writer(path: str | None) -> Iterator[TextIO]:
    """stdout, or a temporary file that replaces ``path`` once it is completely written."""
    if path is None:
        try:
            yield sys.stdout
            sys.stdout.flush()  # so a reader that went away shows here, not at interpreter exit
        except BrokenPipeError:
            # Nothing more can reach the reader: send the flush at exit to /dev/null.
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise
        return
    if not _replaced(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    # The only missing parent the pre-flight lets through is a --spectrum-dir not made yet.
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    temp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        if os.path.exists(path):
            os.chmod(temp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _spectrum_file(args: argparse.Namespace, real: str) -> bool:
    """Whether the resolved path ``real`` is one of the files this run writes into its --spectrum-dir."""
    spectrum_dir = getattr(args, "spectrum_dir", None)
    name = re.fullmatch(r"spectrum_(\d+)\.csv", os.path.basename(real))
    return (spectrum_dir is not None and name is not None
            and os.path.dirname(real) == os.path.realpath(spectrum_dir)
            and name[1] == f"{int(name[1]):06d}" and int(name[1]) < args.replicates)


def _check_destinations(args: argparse.Namespace) -> None:
    """Refuse output paths that cannot be written, or one file that the run would write
    twice, before any work; nothing is created yet."""
    written: dict[str, str] = {}  # resolved path of each file to be written -> its option
    for option, path in (("--output", args.output), ("--replicate-csv", getattr(args, "replicate_csv", None))):
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if (
            os.path.isdir(path)
            or not os.path.isdir(parent)
            or (os.path.exists(path) and not os.access(path, os.W_OK))
            or (_replaced(path) and not os.access(parent, os.W_OK | os.X_OK))
        ):
            raise ValueError(f"cannot write {path}: not a writable file in a writable directory")
        real = os.path.realpath(path)
        # A new path, or one that resolves to a regular file (through a symlink, or
        # /dev/stdout redirected to a file), is truncated by each write; a device or pipe is not.
        if not os.path.lexists(path) or os.path.isfile(real):
            other = written.get(real) or ("--spectrum-dir" if _spectrum_file(args, real) else None)
            if other is not None:
                raise ValueError(f"cannot write {path} for {option}: the run writes that file for {other} too")
            written[real] = option
    spectrum_dir = getattr(args, "spectrum_dir", None)
    if spectrum_dir is not None:
        # The directory is made when its first spectrum is written; check that it can be.
        existing = Path(spectrum_dir).absolute()
        while not os.path.lexists(existing):
            existing = existing.parent
        if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
            raise ValueError(f"cannot create --spectrum-dir {spectrum_dir}: "
                             f"{existing} is not a writable directory")


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not grid:
        raise argparse.ArgumentTypeError("empty n-grid")
    return grid


def _fraction(text: str) -> Fraction:
    """A rational option value; a zero denominator is refused by the parser, like any non-fraction."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _cmd_edge(args: argparse.Namespace) -> _Result:
    return 0, [(args.output, f"{edge_analysis.edge_constant(args.m).u}\n")]


def _cmd_moments(args: argparse.Namespace) -> _Result:
    query = moment_engine.MomentQuery(m=args.m, n=args.n, k=args.k)
    exit_code = 0
    payload: dict = {"m": args.m, "n": args.n, "k": args.k}
    if args.all_formulas:
        report = moment_engine.moment_cross_check(query)
        falling = report.falling_sum.value
        payload.update(report.values, agree=report.agree)
        if not report.agree:
            exit_code = 1
    else:
        falling = moment_engine.moment_falling_sum(query).value
        payload.update(gamma_sum=None, falling_sum=falling, stirling_beta=None)
    fc = Fraction(fuss_catalan(args.m, args.k))  # so written as a "p/q" string like the rest
    payload.update(fuss_catalan=fc, gap=falling - fc)
    return exit_code, [(args.output, payload)]


def _cmd_beta(args: argparse.Namespace) -> _Result:
    report = beta_poly.beta_bounds_check(beta_poly.compute_beta(m=args.m, n=args.n, k=args.k))
    table = _Table(
        {"m": args.m, "n": args.n, "k": args.k, "all_pass": report.all_ok},
        ["r", "beta", "lower_bound", "upper_bound", "pass"],
        [[row.r, row.beta, row.lower, row.upper, row.ok] for row in report.rows],
    )
    return (0 if report.all_ok else 1), [(args.output, table)]


def _cmd_dominance(args: argparse.Namespace) -> _Result:
    report = edge_analysis.dominance_report(m=args.m, n=args.n, k=args.k)
    pairs = report.reduced_terms
    suffix = {q: f"/{q}" if q != 1 else "" for q in {q for _, q in pairs}}
    terms = [f"{p}{suffix[q]}" for p, q in pairs]
    # The last term has no successor: its ratio cells are left empty.
    rows = itertools.zip_longest(
        report.r_values, terms, report.ratios, report.ratio_bounds, report.ratio_ok
    )
    table = _Table(
        {
            "m": args.m,
            "n": args.n,
            "k": args.k,
            "first_term_share": report.first_term_share,
            "all_ratios_pass": report.all_ratios_ok,
        },
        ["r", "term", "ratio_to_next", "ratio_bound", "pass"],
        rows,
    )
    return (0 if report.all_ratios_ok else 1), [(args.output, table)]


def _cmd_tailbound(args: argparse.Namespace) -> _Result:
    summands = [edge_analysis.tail_summand(args.m, n, args.z, w=args.w) for n in args.n_grid]
    table = _Table(
        {"m": args.m, "z": args.z, "w": "default" if args.w is None else args.w},
        ["n", "k_n", "exact_bound", "log_exact", "log_surrogate", "minus_2_log_n"],
        [[s.n, s.k_n, s.exact_bound, s.log_exact, s.log_surrogate, -2.0 * math.log(s.n)]
         for s in summands],
    )
    return 0, [(args.output, table)]


def _run_config(args: argparse.Namespace) -> montecarlo.RunConfig:
    """The Monte Carlo run options; workers from --workers, else ``RunConfig``'s default."""
    workers = {} if args.workers is None else {"workers": args.workers}
    return montecarlo.RunConfig(replicates=args.replicates, master_seed=args.seed, **workers)


def _cmd_simulate(args: argparse.Namespace) -> _Result:
    spec = montecarlo.GinibreSpec(n=args.n, m=args.m, field=args.field)
    config = _run_config(args)
    if args.kmax is not None:  # refuse a bad order, or moments past the memory, before sampling
        _natural("k_max", args.kmax, 1)
        need, available = montecarlo._moment_bytes(config.replicates, spec.n, args.kmax), montecarlo._available_bytes()
        if need > available:
            raise ValueError(f"k_max {args.kmax} needs a {config.replicates} x {args.kmax} moment table, "
                             f"{need / 2**30:.1f} GiB with the spectra, more than the "
                             f"{available / 2**30:.1f} GiB this process can have")
    spectra = montecarlo.collect_spectra(spec, config)  # refuses a run past the memory before sampling
    edge = montecarlo.edge_from_values(spectra[:, 0])
    u = edge_analysis.edge_constant(args.m).u
    summary: dict = {
        "m": args.m,
        "n": args.n,
        "field": args.field,
        "replicates": args.replicates,
        "edge": {
            "u": u,
            "mean_s1sq": edge.mean_s1sq,
            "gap": float(u) - edge.mean_s1sq,
            "q05": edge.q05,
            "q50": edge.q50,
            "q95": edge.q95,
            "standard_error": edge.standard_error,
        },
    }
    if args.kmax is not None:
        moments = montecarlo.moments_from_spectra(spectra, args.kmax)
        summary["moments"] = [
            {"k": k, "mean": moments.mean(k), "standard_error": moments.standard_error(k)}
            for k in range(1, args.kmax + 1)
        ]
    run_meta = {"m": args.m, "n": args.n, "field": args.field}

    def documents():
        # Lazily, so one replicate's file is written before the next is built. The
        # rows hold Python floats, which format faster than numpy's scalars.
        if args.replicate_csv is not None:
            rows = enumerate(spectra[:, 0].tolist())
            yield args.replicate_csv, _Table(run_meta, ["replicate_index", "s1_sq"], rows)
        if args.spectrum_dir is not None:
            for r, spectrum in enumerate(spectra):
                rows = enumerate(spectrum.tolist(), start=1)
                path = str(Path(args.spectrum_dir) / f"spectrum_{r:06d}.csv")
                yield path, _Table({**run_meta, "replicate_index": r}, ["rank", "s_sq"], rows)
        yield args.output, summary

    return 0, documents()


def _cmd_converge(args: argparse.Namespace) -> _Result:
    config = _run_config(args)
    rows = montecarlo.convergence_table(args.m, args.n_grid, config, field=args.field)
    table = _Table(
        {"m": args.m, "field": args.field, "u": edge_analysis.edge_constant(args.m).u},
        ["n", "mean_s1sq", "gap", "standard_error", "replicates"],
        map(dataclasses.astuple, rows),
    )
    return 0, [(args.output, table)]


def _cmd_verify(args: argparse.Namespace) -> _Result:
    report = verify_suites.run_verify(args.profile)
    exit_code = 0 if report.ok else 1
    if args.json:
        return exit_code, [(args.output, report.as_dict())]
    lines = []
    for suite in report.suites:
        status = "ok" if suite.ok else "FAIL"
        lines.append(f"{suite.name}: {status} ({suite.checks} checks, {suite.seconds:.2f} s)\n")
        for failure in suite.failures:
            lines.append(f"  FAIL at {failure.point}: {failure.message}\n")
    overall = "ok" if report.ok else "FAIL"
    lines.append(f"verify [{report.profile}]: {overall} ({report.checks} checks)\n")
    return exit_code, [(args.output, "".join(lines))]


#: Each option group: a function giving the ``add_argument`` calls that make it, in help
#: order. ``main`` builds the running command's groups only, so only ``simulate`` and
#: ``converge`` read the sampler's constants (in ``run``) and only ``verify`` the suites'.
_OPTION_GROUPS = {
    "output": lambda: [("--output", dict(help="write the report to this path instead of stdout"))],
    "m": lambda: [("--m", dict(type=int, required=True, help="number of factors"))],
    "n": lambda: [("--n", dict(type=int, required=True, help="matrix size"))],
    "k": lambda: [("--k", dict(type=int, required=True, help="moment order"))],
    "grid": lambda: [("--n-grid", dict(
        type=_parse_grid, required=True,
        help="comma-separated matrix sizes (ascending for converge), e.g. 64,128,256,512"))],
    "run": lambda: [
        ("--field", dict(choices=("real", "complex"), default="real")),
        ("--replicates", dict(type=int, required=True)),
        ("--seed", dict(type=int, required=True, help="master seed (unsigned 64-bit)")),
        ("--workers", dict(type=int, default=None,
                           help=f"worker threads, at most {montecarlo.MAX_WORKERS}; a worker left a spare core "
                                "samples on a second thread, the two drawing in turn "
                                f"(default: ${montecarlo.WORKERS_ENV_VAR} or the usable cores)")),
    ],
    "formulas": lambda: [("--all-formulas", dict(
        action="store_true", help="evaluate all three formulations and cross-check them"))],
    "threshold": lambda: [
        ("--z", dict(type=_fraction, required=True,
                     help="threshold above the edge constant, e.g. 6 or 27/4 or 10.125")),
        ("--w", dict(type=float, default=None,
                     help="schedule slope; default is just above the admissible threshold")),
    ],
    "files": lambda: [
        ("--kmax", dict(type=int, default=None, help="also report empirical moments up to this order")),
        ("--replicate-csv", dict(default=None, help="write per-replicate s1_sq rows to this path")),
        ("--spectrum-dir", dict(default=None, help="write one full-spectrum CSV per replicate here")),
    ],
    "profile": lambda: [
        ("--profile", dict(choices=verify_suites.PROFILES, default="quick")),
        ("--json", dict(action="store_true", help="emit a machine-readable JSON report")),
    ],
}

#: Every subcommand: its name, its one description (argparse's help and the
#: quantity-to-command map), its handler and its option groups after ``output``.
_COMMANDS = (
    ("edge", "spectral-edge constant (m+1)^(m+1)/m^m", _cmd_edge, ("m",)),
    ("moments", "exact finite-n spectral moments (JSON)", _cmd_moments, ("m", "n", "k", "formulas")),
    ("beta", "edge-polynomial coefficients with two-sided bounds (CSV)", _cmd_beta, ("m", "n", "k")),
    ("dominance", "term decay of the coefficient-weighted moment sum (CSV)", _cmd_dominance, ("m", "n", "k")),
    ("tailbound", "tail bound on the k_n = ceil(w log n) schedule (CSV)", _cmd_tailbound,
     ("m", "grid", "threshold")),
    ("simulate", "sampled product spectra and their moments (JSON, CSVs)", _cmd_simulate,
     ("run", "m", "n", "files")),
    ("converge", "largest-value convergence table over an n-grid (CSV)", _cmd_converge, ("run", "m", "grid")),
    ("verify", "exact identity suites, quick or full grids", _cmd_verify, ("profile",)),
)


def _quantity_map() -> str:
    """The help epilog: each command's description, dotted out to its name."""
    width = max(len(description) for _, description, _, _ in _COMMANDS) + 4
    lines = [f"  {description} {'.' * (width - len(description))} {name}\n"
             for name, description, _, _ in _COMMANDS]
    return "quantity-to-command map:\n" + "".join(lines)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``ginprod`` parser. Every subcommand is listed with its help line; only
    ``command``'s options are added, or every subcommand's where it is None."""
    parser = argparse.ArgumentParser(
        prog="ginprod",
        description="Exact moments and edge behaviour of Ginibre-product spectra.",
        epilog=_quantity_map(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"ginprod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, description, handler, groups in _COMMANDS:
        subparser = sub.add_parser(name, help=description)
        subparser.set_defaults(func=handler)
        if command in (None, name):
            for group in ("output", *groups):
                for flag, options in _OPTION_GROUPS[group]():
                    subparser.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top-level options take no value, so the first word that is not one names the command.
    parser = build_parser(next((word for word in argv if not word.startswith("-")), ""))
    args = parser.parse_args(argv)
    args.invocation = shlex.join(["ginprod", *argv])
    try:
        _check_destinations(args)
        with _any_int_digits():
            exit_code, documents = args.func(args)
            for path, doc in documents:
                with _writer(path) as fh:
                    _render(args, doc, fh)
        return exit_code
    except BrokenPipeError:
        return 141  # the reader stopped early (`| head`): end quietly, as SIGPIPE would
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"ginprod: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"ginprod: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug or a resource limit, not a check failure
        print(f"ginprod: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
