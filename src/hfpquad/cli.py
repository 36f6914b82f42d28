"""Command-line front end.

Subcommands: quad (single rule value), table (error-vs-n table), rate
(table plus fitted slope), solve-ie (manufactured integral-equation solve),
floor (roundoff-floor estimate).  Integrand families: the geometric-kernel
family selected by --eta, or a user trigonometric polynomial selected by
--cos/--sin.  Output is CSV or canonical JSON with %.16e floats, so emitted
files are byte-stable; the summary lines of rate and solve-ie go to stderr,
so stdout is exactly the CSV or JSON document.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import HfpquadError
from .harness import _preferred_path, convergence_table_for, empirical_rate
from .ie_solver import (
    build_advanced_system,
    build_simple_system,
    manufactured_rhs,
    solve_collocation,
    supersingular_cotangent_kernel,
)
from .integrands import PoissonKernelU, TrigPolynomial, singular_periodic_integrand
from .oracles import exact_hfp, exact_supersingular
from .quadrature import DOUBLE_UNIT, RuleSpec, roundoff_floor, t_hat

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    return "%.16e" % float(x)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats as %.16e, LF-terminated."""

    def emit(o) -> str:
        if isinstance(o, dict):
            items = ",".join(
                f"{json.dumps(str(k))}:{emit(v)}" for k, v in sorted(o.items())
            )
            return "{" + items + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(emit(v) for v in o) + "]"
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return format_float(o)
        return json.dumps(o)

    return emit(obj) + "\n"


def rows_to_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_float(v) if isinstance(v, float) else v for v in row]
        )
    return buf.getvalue()


def _write_output(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise HfpquadError(f"cannot write output file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def parse_n_range(text: str) -> list[int]:
    """Either one integer or an inclusive start:stop:step range."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"n range must be start:stop:step (got {text!r})")
        start, stop, step = (int(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad n range {text!r}")
        return list(range(start, stop + 1, step))
    return [int(text)]


def parse_float_list(text: str, flag: str) -> list[float]:
    """The comma-separated floats of --flag.  A list with no value (``,``)
    or with an empty item (``1,,2``, ``1,``) is an error: dropping the item
    would shift every value after it."""
    items = text.split(",")
    if not any(p.strip() for p in items):
        raise ValueError(f"--{flag} lists no value")
    if not all(p.strip() for p in items):
        raise ValueError(f"--{flag} has an empty item: {text!r}")
    return [float(p) for p in items]


def _cases(args):
    """(eta, u, integrand) for each case the family flags select: one per
    --eta value, or one for the --cos/--sin polynomial (eta None).

    The flags are checked, and the polynomial parsed, on this call; --eta
    is parsed when the cases are iterated.  The integrand carries g's
    derivatives at t to order m; the oracle is ``exact_hfp(u, m, t)``.
    """
    if args.eta is not None and (args.cos or args.sin):
        raise ValueError("choose either --eta or --cos/--sin, not both")
    if args.eta is None and not (args.cos or args.sin):
        raise ValueError("no integrand family given: pass --eta or --cos/--sin")
    poly = None
    if args.eta is None:
        cos = tuple(parse_float_list(args.cos, "cos")) if args.cos else (0.0,)
        sin = tuple(parse_float_list(args.sin, "sin")) if args.sin else ()
        poly = TrigPolynomial(cos, sin)

    def cases():
        etas = [None] if poly is not None else parse_float_list(args.eta, "eta")
        if args.command == "quad" and len(etas) != 1:
            raise ValueError("quad takes a single --eta value")
        for eta in etas:
            u = poly if eta is None else PoissonKernelU(eta)
            yield eta, u, singular_periodic_integrand(u, m=args.m, t=args.t, period=TWO_PI)

    return cases()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_quad(args) -> int:
    ((_, u, integrand),) = _cases(args)
    path = _preferred_path(args.m, args.s) if args.path == "auto" else args.path
    value = t_hat(RuleSpec(args.m, args.s, args.n, path=path), integrand)
    print(f"value = {format_float(value)}")
    if args.oracle:
        exact = exact_hfp(u, args.m, args.t)
        print(f"oracle = {format_float(exact)} (exact_hfp)")
        print(f"error = {format_float(abs(value - exact))}")
    return 0


def _report_payload(report) -> dict:
    payload = {
        "m": report.m,
        "s": report.s,
        "t": report.t,
        "period": report.period,
        "oracle": report.oracle_name,
        "oracle_value": report.oracle_value,
        "floor_estimate": report.floor_estimate,
        "rows": [{"n": r.n, "value": r.value, "error": r.error} for r in report.rows],
    }
    if report.eta is not None:
        payload["eta"] = report.eta
    if report.fitted_rate is not None:
        payload["fitted_rate"] = report.fitted_rate
    return payload


def _emit_reports(args, reports: list) -> int:
    if args.format == "json":
        if len(reports) == 1:
            payload = _report_payload(reports[0])
        else:
            payload = {"tables": [_report_payload(r) for r in reports]}
        _write_output(canonical_json(payload), args.output)
        return 0
    if len(reports) == 1:
        rep = reports[0]
        header = ["n", "value", "error"]
        rows = [[r.n, r.value, r.error] for r in rep.rows]
        if rep.fitted_rate is not None:
            rows.append(["fitted_rate", rep.fitted_rate, ""])
    else:
        header = ["n"] + [f"error_eta_{r.eta:g}" for r in reports]
        rows = [
            [int(r.n)] + [float(rep.rows[i].error) for rep in reports]
            for i, r in enumerate(reports[0].rows)
        ]
    _write_output(rows_to_csv(header, rows), args.output)
    return 0


def cmd_table(args) -> int:
    """table and rate: one convergence table per case; rate also fits each
    table's ln-error slope and prints it to stderr."""
    cases = _cases(args)
    n_list = parse_n_range(args.n)
    path = None if args.path == "auto" else args.path
    reports = []
    for eta, u, integrand in cases:
        exact = exact_hfp(u, args.m, args.t)
        rep = convergence_table_for(integrand, exact, "exact_hfp", s=args.s, n_list=n_list, eta=eta, path=path)
        if args.command == "rate":
            empirical_rate(rep)
        reports.append(rep)
    if args.command == "rate":
        for rep in reports:
            label = f"eta={rep.eta:g}: " if rep.eta is not None else ""
            print(f"{label}fitted ln-error slope = {format_float(rep.fitted_rate)}", file=sys.stderr)
    return _emit_reports(args, reports)


def cmd_solve_ie(args) -> int:
    kernel = supersingular_cotangent_kernel()
    phi = PoissonKernelU(args.eta)
    w = manufactured_rhs(kernel, phi, args.lam)
    if args.approach == "simple":
        system = build_simple_system(kernel, w, args.lam, args.n_base)
    else:
        system = build_advanced_system(kernel, w, args.lam, args.n_base)
    sol = solve_collocation(system)
    truth = np.asarray(phi(system.grid), dtype=float)
    errors = np.abs(sol.values - truth)
    max_err = float(np.max(errors))
    print(f"approach = {args.approach}, unknowns = {len(system.grid)}", file=sys.stderr)
    print(f"max node error vs manufactured solution = {format_float(max_err)}", file=sys.stderr)
    print(f"residual = {format_float(sol.residual)}", file=sys.stderr)
    print(f"condition = {format_float(sol.condition)} ({sol.structure})", file=sys.stderr)
    header = ["x", "phi_hat", "phi_true", "error"]
    rows = [[float(v) for v in row] for row in zip(system.grid, sol.values, truth, errors)]
    if args.format == "json":
        # the rhs the system was built with against its closed form
        fp_part = np.array([exact_supersingular(args.eta, float(t)) for t in system.grid])
        rhs_max_err = float(np.max(np.abs(system.rhs - (args.lam * truth + fp_part))))
        payload = {
            "approach": args.approach,
            "lambda": args.lam,
            "max_error": max_err,
            "rhs_max_error": rhs_max_err,
            "residual": sol.residual,
            "condition": sol.condition,
            "structure": sol.structure,
            "nodes": [dict(zip(header, row)) for row in rows],
        }
        _write_output(canonical_json(payload), args.output)
    else:
        _write_output(rows_to_csv(header, rows), args.output)
    return 0


def cmd_floor(args) -> int:
    value = roundoff_floor(
        args.gnorm, args.gpnorm, args.gpppnorm, args.period, args.n_base, args.unit
    )
    print(format_float(value))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfpquad",
        description="Finite-part quadrature of periodic integrands and "
        "supersingular integral-equation solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--eta", type=str, default=None, help="geometric-kernel family parameter(s), comma separated")
        p.add_argument("--cos", type=str, default=None, help="cosine coefficients a_0,a_1,... of a user integrand")
        p.add_argument("--sin", type=str, default=None, help="sine coefficients b_1,b_2,... of a user integrand")
        p.add_argument("--t", type=float, default=1.0, help="singular point")

    def add_rule(p):
        p.add_argument("--m", type=int, required=True, help="singularity order")
        p.add_argument("--s", type=int, default=0, help="extrapolation level")
        p.add_argument("--path", choices=["auto", "compact", "generic"], default="auto")

    def add_output(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", type=str, default=None, help="output path (default stdout)")

    p = sub.add_parser("quad", help="compute one rule value")
    add_rule(p)
    add_family(p)
    p.add_argument("--n", type=int, required=True, help="panel count")
    p.add_argument("--oracle", action="store_true", help="also report the oracle error")
    p.set_defaults(func=cmd_quad)

    for name, hint in (
        ("table", "emit an error-vs-n table"),
        ("rate", "table plus fitted ln-error slope"),
    ):
        p = sub.add_parser(name, help=hint)
        add_rule(p)
        add_family(p)
        p.add_argument("--n", type=str, required=True, help="n list as start:stop:step or single value")
        add_output(p)
        p.set_defaults(func=cmd_table)

    p = sub.add_parser("solve-ie", help="solve the manufactured integral equation")
    p.add_argument("--approach", choices=["simple", "advanced"], default="simple")
    p.add_argument("--n", dest="n_base", type=int, required=True, help="base rule count (simple grid has 4n points)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=0.3, help="manufactured solution parameter")
    add_output(p)
    p.set_defaults(func=cmd_solve_ie)

    p = sub.add_parser("floor", help="print the roundoff-floor estimate K(n) u n^2")
    p.add_argument("--n", dest="n_base", type=int, required=True)
    p.add_argument("--gnorm", type=float, default=0.0)
    p.add_argument("--gpnorm", type=float, default=0.0)
    p.add_argument("--gpppnorm", type=float, default=0.0)
    p.add_argument("--T", dest="period", type=float, default=TWO_PI)
    p.add_argument("--u", dest="unit", type=float, default=DOUBLE_UNIT)
    p.set_defaults(func=cmd_floor)

    return parser


def _join_signed_values(argv: Sequence[str]) -> list[str]:
    """``--opt -1,2`` as ``--opt=-1,2``: argparse takes a token that starts
    with ``-`` for an option unless it is a plain negative number, so a
    value such as ``-1,2``, ``-1e-3`` or ``-inf`` needs the ``=`` form."""
    out: list[str] = []
    for tok in argv:
        if out and re.match(r"-([\d.]|inf|nan)", tok, re.I) and re.fullmatch(r"--[\w-]+", out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (HfpquadError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
