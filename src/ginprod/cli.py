"""Command-line front end.

One subcommand per quantity: exact edge constants, exact moments, the
coefficient vector with its bounds, term-dominance tables, tail bounds
along the k_n = ceil(w log n) schedule, Monte Carlo sampling, edge
convergence tables, and the exact identity suites.

Output contracts:
- JSON documents carry a ``meta`` object (tool, version, full
  invocation, seed where applicable) and serialize exact rationals as
  "p/q" strings, never floats.
- CSV files start with '#'-prefixed metadata lines, then a mandatory
  header row; numeric columns use '.' decimals, no grouping; floats are
  written with 17 significant digits.
- Exit status: 0 success, 1 check failure, 2 usage error, 3 numerical
  failure, 4 internal error (any other exception, reported on one
  stderr line instead of a traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import shlex
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, beta_poly, edge_analysis, moment_engine, montecarlo
from . import verify as verify_suites
from .combinatorics import fuss_catalan

__all__ = ["main", "build_parser"]

_EPILOG = """\
quantity-to-command map:
  spectral-edge constant (m+1)^(m+1)/m^m ............... edge
  exact finite-n spectral moments ...................... moments
  edge-polynomial coefficients with two-sided bounds ... beta
  term decay of the coefficient-weighted moment sum .... dominance
  tail bound along the k_n = ceil(w log n) schedule .... tailbound
  sampled product spectra and empirical moments ........ simulate
  largest-value convergence table over an n-grid ....... converge
  exact identity suites (quick or full grids) .......... verify
"""


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def _sink(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit_json(args: argparse.Namespace, payload: dict, path: str | None = None) -> None:
    doc = {"meta": _meta(args)}
    doc.update(payload)
    with _sink(path if path is not None else args.output) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _meta(args: argparse.Namespace) -> dict:
    meta = {"tool": "ginprod", "version": __version__, "invocation": args.invocation}
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    return meta


def _write_csv(args: argparse.Namespace, header: list[str], rows: list[list[str]],
               extra_meta: dict | None = None, path: str | None = None) -> None:
    with _sink(path if path is not None else args.output) as fh:
        for key, value in _meta(args).items():
            fh.write(f"# {key}: {value}\n")
        for key, value in (extra_meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not grid:
        raise argparse.ArgumentTypeError("empty n-grid")
    return grid


def _cmd_edge(args: argparse.Namespace) -> int:
    with _sink(args.output) as fh:
        fh.write(f"{edge_analysis.edge_constant(args.m).u}\n")
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    query = moment_engine.MomentQuery(m=args.m, n=args.n, k=args.k)
    exit_code = 0
    payload: dict = {"m": args.m, "n": args.n, "k": args.k}
    falling = moment_engine.moment_falling_sum(query)
    fc = fuss_catalan(args.m, args.k)
    if args.all_formulas:
        report = moment_engine.moment_cross_check(query)
        payload["gamma_sum"] = str(report.gamma_sum.value)
        payload["falling_sum"] = str(report.falling_sum.value)
        payload["stirling_beta"] = str(report.stirling_beta.value)
        payload["agree"] = report.agree
        if not report.agree:
            exit_code = 1
    else:
        payload["gamma_sum"] = None
        payload["falling_sum"] = str(falling.value)
        payload["stirling_beta"] = None
    payload["fuss_catalan"] = str(fc)
    payload["gap"] = str(falling.value - fc)
    _emit_json(args, payload)
    return exit_code


def _cmd_beta(args: argparse.Namespace) -> int:
    report = beta_poly.beta_bounds_check(beta_poly.compute_beta(m=args.m, n=args.n, k=args.k))
    rows = [
        [str(row.r), str(row.beta), str(row.lower), str(row.upper), str(row.ok).lower()]
        for row in report.rows
    ]
    _write_csv(
        args,
        ["r", "beta", "lower_bound", "upper_bound", "pass"],
        rows,
        extra_meta={"m": args.m, "n": args.n, "k": args.k, "all_pass": str(report.all_ok).lower()},
    )
    return 0 if report.all_ok else 1


def _cmd_dominance(args: argparse.Namespace) -> int:
    report = edge_analysis.dominance_report(m=args.m, n=args.n, k=args.k)
    rows = []
    for i, r in enumerate(report.r_values):
        has_next = i < len(report.ratios)
        rows.append(
            [
                str(r),
                str(report.terms[i]),
                str(report.ratios[i]) if has_next else "",
                str(report.ratio_bounds[i]) if has_next else "",
                str(report.ratio_ok[i]).lower() if has_next else "",
            ]
        )
    _write_csv(
        args,
        ["r", "term", "ratio_to_next", "ratio_bound", "pass"],
        rows,
        extra_meta={
            "m": args.m,
            "n": args.n,
            "k": args.k,
            "first_term_share": _fmt_float(report.first_term_share),
            "all_ratios_pass": str(report.all_ratios_ok).lower(),
        },
    )
    return 0 if report.all_ratios_ok else 1


def _cmd_tailbound(args: argparse.Namespace) -> int:
    rows = []
    for n in args.n_grid:
        summand = edge_analysis.tail_summand(args.m, n, args.z, w=args.w)
        rows.append(
            [
                str(n),
                str(summand.k_n),
                str(summand.exact_bound),
                _fmt_float(summand.log_exact),
                _fmt_float(summand.log_surrogate),
                _fmt_float(-2.0 * math.log(n)),
            ]
        )
    _write_csv(
        args,
        ["n", "k_n", "exact_bound", "log_exact", "log_surrogate", "minus_2_log_n"],
        rows,
        extra_meta={"m": args.m, "z": str(Fraction(args.z)), "w": "default" if args.w is None else _fmt_float(args.w)},
    )
    return 0


def _run_config(args: argparse.Namespace) -> montecarlo.RunConfig:
    """The Monte Carlo run options; workers from --workers, else the environment."""
    workers = args.workers if args.workers is not None else montecarlo.default_workers()
    return montecarlo.RunConfig(replicates=args.replicates, master_seed=args.seed, workers=workers)


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = montecarlo.GinibreSpec(n=args.n, m=args.m, field=args.field)
    config = _run_config(args)
    spectra = montecarlo.collect_spectra(spec, config)
    edge = montecarlo.edge_from_values(spectra[:, 0])
    u = edge_analysis.edge_constant(args.m).u
    payload: dict = {
        "m": args.m,
        "n": args.n,
        "field": args.field,
        "replicates": args.replicates,
        "edge": {
            "u": str(u),
            "mean_s1sq": edge.mean_s1sq,
            "gap": float(u) - edge.mean_s1sq,
            "q05": edge.q05,
            "q50": edge.q50,
            "q95": edge.q95,
            "standard_error": edge.standard_error,
        },
    }
    if args.kmax is not None and not args.edge_only:
        moments = montecarlo.moments_from_spectra(spectra, args.kmax)
        payload["moments"] = [
            {"k": k, "mean": moments.mean(k), "standard_error": moments.standard_error(k)}
            for k in range(1, args.kmax + 1)
        ]
    if args.replicate_csv is not None:
        rows = [[str(r), _fmt_float(spectra[r, 0])] for r in range(config.replicates)]
        _write_csv(args, ["replicate_index", "s1_sq"], rows,
                   extra_meta={"m": args.m, "n": args.n, "field": args.field},
                   path=args.replicate_csv)
    if args.spectrum_dir is not None:
        out_dir = Path(args.spectrum_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for r in range(config.replicates):
            rows = [[str(i), _fmt_float(s)] for i, s in enumerate(spectra[r], start=1)]
            _write_csv(args, ["rank", "s_sq"], rows,
                       extra_meta={"m": args.m, "n": args.n, "field": args.field, "replicate_index": r},
                       path=str(out_dir / f"spectrum_{r:06d}.csv"))
    _emit_json(args, payload)
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    rows = montecarlo.convergence_table(args.m, args.n_grid, _run_config(args), field=args.field)
    csv_rows = [
        [str(row.n), _fmt_float(row.mean_s1sq), _fmt_float(row.gap),
         _fmt_float(row.standard_error), str(row.replicates)]
        for row in rows
    ]
    u = edge_analysis.edge_constant(args.m).u
    _write_csv(
        args,
        ["n", "mean_s1sq", "gap", "standard_error", "replicates"],
        csv_rows,
        extra_meta={"m": args.m, "field": args.field, "u": str(u)},
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_suites.run_verify(args.profile)
    if args.json:
        _emit_json(args, report.as_dict())
    else:
        with _sink(args.output) as fh:
            for suite in report.suites:
                status = "ok" if suite.ok else "FAIL"
                fh.write(
                    f"{suite.name}: {status} ({suite.checks} checks, {suite.seconds:.2f} s)\n"
                )
                for failure in suite.failures:
                    fh.write(f"  FAIL at {failure.point}: {failure.message}\n")
            overall = "ok" if report.ok else "FAIL"
            fh.write(f"verify [{report.profile}]: {overall} ({report.checks} checks)\n")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginprod",
        description="Exact moments and edge behaviour of Ginibre-product spectra.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"ginprod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    # Option groups shared by several subcommands, as argparse parent parsers.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write the report to this path instead of stdout")
    mnk = argparse.ArgumentParser(add_help=False)
    mnk.add_argument("--m", type=int, required=True, help="number of factors")
    mnk.add_argument("--n", type=int, required=True, help="matrix size")
    mnk.add_argument("--k", type=int, required=True, help="moment order")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--field", choices=("real", "complex"), default="real")
    run.add_argument("--replicates", type=int, required=True)
    run.add_argument("--seed", type=int, required=True, help="master seed (unsigned 64-bit)")
    run.add_argument("--workers", type=int, default=None,
                     help=f"worker threads (default: ${montecarlo.WORKERS_ENV_VAR} or 1)")

    def add(name: str, help_text: str, func,
            *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, parents=[output, *parents])
        p.set_defaults(func=func)
        return p

    p = add("edge", "print the spectral-edge constant for m factors", _cmd_edge)
    p.add_argument("--m", type=int, required=True, help="number of factors")

    p = add("moments", "exact finite-n spectral moments (JSON)", _cmd_moments, mnk)
    p.add_argument("--all-formulas", action="store_true",
                   help="evaluate all three formulations and cross-check them")

    add("beta", "edge-polynomial coefficients with two-sided bounds (CSV)", _cmd_beta, mnk)

    add("dominance", "term decay of the coefficient-weighted moment sum (CSV)", _cmd_dominance, mnk)

    p = add("tailbound", "tail bound along the k_n = ceil(w log n) schedule (CSV)", _cmd_tailbound)
    p.add_argument("--m", type=int, required=True, help="number of factors")
    p.add_argument("--z", type=Fraction, required=True,
                   help="threshold above the edge constant, e.g. 6 or 27/4 or 10.125")
    p.add_argument("--w", type=float, default=None,
                   help="schedule slope; default is just above the admissible threshold")
    p.add_argument("--n-grid", type=_parse_grid, required=True,
                   help="comma-separated matrix sizes, e.g. 60,120,240,480")

    p = add("simulate", "sample product spectra; JSON summary, optional CSVs", _cmd_simulate, run)
    p.add_argument("--m", type=int, required=True, help="number of factors")
    p.add_argument("--n", type=int, required=True, help="matrix size")
    p.add_argument("--kmax", type=int, default=None, help="also report empirical moments up to this order")
    p.add_argument("--edge-only", action="store_true", help="report only largest-value statistics")
    p.add_argument("--replicate-csv", default=None, help="write per-replicate s1_sq rows to this path")
    p.add_argument("--spectrum-dir", default=None, help="write one full-spectrum CSV per replicate here")

    p = add("converge", "largest-value convergence table over an n-grid (CSV)", _cmd_converge, run)
    p.add_argument("--m", type=int, required=True, help="number of factors")
    p.add_argument("--n-grid", type=_parse_grid, required=True,
                   help="comma-separated ascending matrix sizes, e.g. 64,128,256,512")

    p = add("verify", "run the exact identity suites", _cmd_verify)
    p.add_argument("--profile", choices=verify_suites.PROFILES, default="quick")
    p.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.invocation = shlex.join(["ginprod", *argv])
    try:
        return args.func(args)
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
