"""Command-line front end: exact moments, identity verification, genus tables.

Exit codes: 0 success / all identities equal, 1 verification found
discrepancies (or a genus row failed its cross-check), 2 usage errors,
guardrail violations, poles, and output that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .exactq import PoleError, evaluate_at
from .moments import (
    GENUS_MAX_M,
    genus_table,
    hermite_norm,
    hermite_squared_moment,
    hook_moment_closed_form,
    integrate_power_sum,
    integrate_schur,
    p2m_closed_form,
    theorem5_rhs,
)
from .qxpoly import XPoly, functional_L, hermite
from .symschur import Partition, SizeError, _check_length
from .verify import (
    SUITE_NAMES,
    _json_text,
    has_discrepancies,
    render_json,
    summary_table,
    verify_suite,
)

# bound on the x-degree 2(m+s) of a --hermite-sq request, for every method
# (slowest inside it, in a cold process on a 2-vCPU machine: 0.15-0.25 s for
# --method closed at (m, s) = (30, 0), (20, 10), (19, 11), (23, 7) and (25, 5),
# 0.08-0.15 s for the fast path count at (30, 0), (20, 10), (15, 15) and
# (0, 30), and 0.37 s for the oracle's L(x^2m H_s H_s) at (0, 30))
HERMITE_SQ_MAX_DEGREE = 60
# bounds on the largest shadow degree kappa_1 + N - 1 and the weight of a fast
# or closed --schur or --power-sum request; the coefficient minor's cost grows
# with both (slowest inside them: 0.5-0.7 s in a cold process on a 2-vCPU
# machine, for kappa = 3,2,1,1,1,1,1,1,1 at N = 21 and p_12 at N = 12, and
# 0.5 s for 1^12 at N = 23)
MOMENT_MAX_DEGREE = 23
MOMENT_MAX_WEIGHT = 12
# bound on the digits of the numerator and the denominator of --at-q, and on a
# decimal exponent, which Fraction expands into a power of ten; the printed
# value grows with them (slowest inside it: --hermite-sq 0,30 at a 100-digit
# over 100-digit point prints 174 kB in 0.80-0.84 s, against 0.12-0.20 s
# without --at-q, in a cold process on a 2-vCPU machine)
AT_Q_MAX_DIGITS = 100
# bound on the digits of every other integer literal: the --schur parts and the
# values of --power-sum, --hermite-sq, --n-vars, --max-weight, --max-vars,
# --max-n and --max-m.  It lies far past every request bound, and it keeps a
# refusal that echoes such a value, or the sum of two, one short line.
INT_MAX_DIGITS = 30

CLOSED_FORM_BANNER = (
    "warning: closed-form evaluators are unverified transcriptions of printed "
    "formulas; run the verify command for their discrepancy status"
)


def _render_value(value, args, query) -> str:
    """Render a Scalar (or its specialization at q0) in the chosen format."""
    if args.at_q is not None:
        value = evaluate_at(value, args.at_q)
    if args.format == "json":
        return _json_text({"query": query, "value": str(value)})
    if args.format == "latex" and args.at_q is None:
        return value.latex() + "\n"
    return str(value) + "\n"


def _shown(text: str) -> str:
    # a long literal is echoed as a prefix and its length, so the error stays one short line
    return repr(text) if len(text) <= 40 else f"{text[:12]!r}... ({len(text)} characters)"


def _integer(text: str, kind: str = "an integer") -> int:
    # the digits are counted before int() parses them, as in _rational, so that
    # no literal meets Python's 4300-digit parsing limit or echoes whole in a refusal
    if sum(c.isdigit() for c in text) > INT_MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"expected {kind} of at most {INT_MAX_DIGITS} digits, got {_shown(text)}"
        )
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {kind}, got {_shown(text)}") from None


def _positive_int(text: str) -> int:
    n = _integer(text, "a positive integer")
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {_shown(text)}")
    return n


def _parse_int_pair(text: str, flag: str):
    try:
        a, b = (_integer(p) for p in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"{flag} expects two comma-separated integers of at most {INT_MAX_DIGITS} digits"
        ) from None
    return a, b


def _partition(text: str) -> Partition:
    # each part goes through _integer, so a refusal echoes the literal short
    text = text.strip()
    try:
        return Partition(_integer(p) for p in text.split(",")) if text else Partition()
    except argparse.ArgumentTypeError:
        raise ValueError(
            f"partition must be comma-separated integers of at most {INT_MAX_DIGITS} digits, "
            f"got {_shown(text)}"
        ) from None


def _rational(text: str) -> Fraction:
    # each digit run is counted before int() or Fraction parses it, so that no
    # literal meets Python's 4300-digit parsing limit, and the exponent is
    # checked before Fraction expands it into a power of ten
    mantissa, _, exponent = text.lower().partition("e")
    runs = (*mantissa.replace("/", ".").split("."), exponent)
    digits = max(sum(c.isdigit() for c in run) for run in runs)
    try:
        too_big = digits > AT_Q_MAX_DIGITS or (exponent and abs(int(exponent)) > AT_Q_MAX_DIGITS)
        value = None if too_big else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number, got {_shown(text)}")
    if value is None or max(abs(value.numerator), value.denominator) >= 10**AT_Q_MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"expected at most {AT_Q_MAX_DIGITS} digits in numerator and denominator, "
            f"got {_shown(text)}"
        )
    return value


def _check_moment_size(n_vars: int, first_part: int, weight: int) -> None:
    """Bound a fast or closed Schur or power-sum request before any work."""
    degree = first_part + n_vars - 1
    if degree > MOMENT_MAX_DEGREE or weight > MOMENT_MAX_WEIGHT:
        raise SizeError(
            f"fast and closed moments limited to largest part + N - 1 <= {MOMENT_MAX_DEGREE} "
            f"and weight <= {MOMENT_MAX_WEIGHT}, got {degree} and {weight}"
        )


def cmd_moment(args) -> int:
    n_vars = args.n_vars
    query = {"n_vars": n_vars, "method": args.method, "format": args.format}
    if args.at_q is not None:
        query["at_q"] = str(args.at_q)
    if args.method == "closed":
        print(CLOSED_FORM_BANNER, file=sys.stderr)

    if args.hermite_sq is not None:
        m, s = args.hermite_sq
        if 2 * (m + s) > HERMITE_SQ_MAX_DEGREE:
            raise SizeError(
                f"--hermite-sq limited to 2(m+s) <= {HERMITE_SQ_MAX_DEGREE}, got {2 * (m + s)}"
            )
        query.update({"kind": "hermite_squared", "m": m, "s": s})
        if args.method == "closed":
            value = theorem5_rhs(m, s) * hermite_norm(s + 1)
        elif args.method == "oracle":
            value = functional_L(XPoly.x_power(2 * m) * hermite(s) * hermite(s))
        else:
            value = hermite_squared_moment(m, s)
    elif args.power_sum is not None:
        if args.power_sum <= 0 or args.power_sum % 2:
            raise ValueError("--power-sum expects a positive even integer")
        m = args.power_sum // 2
        if args.method != "oracle":
            _check_moment_size(n_vars, 2 * m, 2 * m)
        query.update({"kind": "power_sum", "degree": 2 * m})
        if args.method == "closed":
            value = p2m_closed_form(m, n_vars)
        else:
            value = integrate_power_sum(m, n_vars, args.method)
    else:
        kappa = _partition(args.schur)
        if args.method != "oracle":
            _check_moment_size(n_vars, kappa.part(0), kappa.weight)
        query.update({"kind": "schur", "partition": str(kappa)})
        if args.method == "closed":
            _check_length(kappa, n_vars)
            parts = kappa.parts
            if not parts or any(p != 1 for p in parts[1:]) or kappa.weight % 2:
                raise ValueError("--method closed needs a hook partition of even weight")
            value = hook_moment_closed_form(parts[0] - 1, kappa.weight // 2, n_vars)
        else:
            value = integrate_schur(kappa, n_vars, args.method)
    sys.stdout.write(_render_value(value, args, query))
    return 0


def cmd_verify(args) -> int:
    suites = args.suite or ["all"]
    # check the report path before any suite runs, so a bad path fails fast;
    # the check creates nothing, so a refused request leaves no file behind
    if args.report:
        folder = os.path.dirname(args.report) or "."
        if (
            os.path.isdir(args.report)
            or not os.access(folder, os.W_OK)
            or (os.path.exists(args.report) and not os.access(args.report, os.W_OK))
        ):
            raise ValueError(f"cannot write report: no writable file at {args.report}")
    results = verify_suite(
        suites,
        max_weight=args.max_weight,
        max_vars=args.max_vars,
        max_n=args.max_n,
    )
    text = render_json(results)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write report: {exc}") from None
    if args.format == "json":
        sys.stdout.write(text)
    else:
        print(summary_table(results))
        if args.report:
            print(f"report written to {args.report}")
    return 1 if has_discrepancies(results) else 0


def cmd_table(args) -> int:
    if not args.harer_zagier:
        raise ValueError("table requires --harer-zagier")
    rows = genus_table(args.max_m)
    # each row's counts and its pairing oracle's, in order of genus
    counts = [
        [",".join(str(d[g]) for g in sorted(d)) for d in (r.coefficients, r.pairing)] for r in rows
    ]
    if args.format == "json":
        obj = [
            {
                "m": r.m,
                "coefficients": {str(g): c for g, c in sorted(r.coefficients.items())},
                "pairing": {str(g): c for g, c in sorted(r.pairing.items())},
                "match": r.matches,
            }
            for r in rows
        ]
        sys.stdout.write(_json_text(obj))
    elif args.format == "latex":
        print(r"\begin{tabular}{rlll}")
        print(r"m & counts by genus & pairing oracle & match \\")
        for r, (coeffs, oracle) in zip(rows, counts):
            ok = "yes" if r.matches else "no"
            print(f"{r.m} & {coeffs} & {oracle} & {ok} " + r"\\")
        print(r"\end{tabular}")
    else:
        fmt = "{:>3} {:>24} {:>24} {:>9}"
        print(fmt.format("m", "coefficients (g=0,1,..)", "pairing oracle", "match"))
        for r, (coeffs, oracle) in zip(rows, counts):
            print(fmt.format(r.m, coeffs, oracle, "match" if r.matches else "MISMATCH"))
    return 0 if all(r.matches for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgue",
        description="exact q-deformed GUE moments and printed-identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment", help="compute one exact moment")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--schur", metavar="PARTS", help='Schur moment, e.g. "3,1"')
    what.add_argument("--power-sum", type=_integer, metavar="2M", help="power-sum moment p_{2m}")
    what.add_argument(
        "--hermite-sq",
        type=lambda t: _parse_int_pair(t, "--hermite-sq"),
        metavar="M,S",
        help="univariate moment of x^(2m) H_s^2",
    )
    p.add_argument(
        "--n-vars", type=_positive_int, default=1, metavar="N", help="number of variables"
    )
    p.add_argument("--method", choices=("fast", "oracle", "closed"), default="fast")
    p.add_argument(
        "--at-q", type=_rational, default=None, metavar="RAT", help="evaluate at q = RAT"
    )
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("verify", help="compare printed identities against oracles")
    p.add_argument(
        "--suite",
        action="append",
        choices=("all",) + SUITE_NAMES,
        help="suite to run (repeatable; default all)",
    )
    p.add_argument("--max-weight", type=_integer, default=None)
    p.add_argument("--max-vars", type=_integer, default=None)
    p.add_argument("--max-n", type=_integer, default=None)
    p.add_argument("--report", metavar="FILE", help="write the JSON report here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="one-face map counts by genus at q = 1")
    p.add_argument("--harer-zagier", action="store_true", help="emit the genus table")
    p.add_argument(
        "--max-m", type=_integer, default=3, metavar="M", help=f"rows (M <= {GENUS_MAX_M})"
    )
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # an exact value at a large --at-q prints past Python's 4300-digit default;
    # lifted only after parsing, so a huge argument still fails fast, and
    # restored on the way out, so the caller's process keeps its limit
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    old_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:
            # the exit-time flush would fail again: send what is left to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    finally:
        set_limit(old_limit)


if __name__ == "__main__":
    sys.exit(main())
