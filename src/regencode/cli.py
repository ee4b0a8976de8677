"""Command-line front door: tradeoff curves as CSV, construct-and-verify, and
asymptotic convergence tables.

Exit codes: 0 success, 2 verification failure, 3 input error (a malformed
command line included), 4 resource budget exceeded. All output is
deterministic: exact rationals are rendered as p/q plus a 12-significant-digit
decimal column, never through floats.
"""

from __future__ import annotations

import argparse
import ast
import functools
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

from . import constructions
from .dss import InputError, LinearDss, ResourceError, rs_base
from .tradeoff import (
    OperatingPoint,
    RangeError,
    SystemParams,
    as_rational,
    asymptotic_fraction,
    AsymptoticSetup,
    functional_capacity,
    gamma_msr,
    p1_index_of_gamma,
    perf_p1_interpolated,
    points_at,
    rounded_index,
    timeshare_bound,
)
from .verifier import measure_and_compare

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4

SIG_DIGITS = 12
# most gamma samples a curve takes: each is an exact Fraction in a set held
# whole before the first line is written; 10^5 takes about 15 s
MAX_SAMPLES = 10**5
_CONTEXT = Context(prec=SIG_DIGITS, rounding=ROUND_HALF_EVEN)


def decimal_str(x: Fraction) -> str:
    """Render an exact rational with SIG_DIGITS significant digits, half-even.

    One correctly rounded `decimal` division; fixed notation for exponents
    from -4 to SIG_DIGITS + 2, otherwise mantissa and `e±N`. Trailing zeros
    after the point are stripped so the output is compact and byte-stable.
    """
    if x == 0:
        return "0"
    q = _CONTEXT.divide(Decimal(x.numerator), Decimal(x.denominator))
    sign = "-" if q < 0 else ""
    digits = "".join(map(str, q.as_tuple().digits)).rstrip("0")
    e = q.adjusted()
    if 0 <= e < SIG_DIGITS + 3:
        intpart = digits[: e + 1].ljust(e + 1, "0")
        frac = digits[e + 1 :]
        return sign + intpart + ("." + frac if frac else "")
    if -5 < e < 0:
        return sign + "0." + "0" * (-e - 1) + digits
    mant = digits[0] + ("." + digits[1:] if digits[1:] else "")
    return f"{sign}{mant}e{e:+d}"


def _frac_cell(x: Fraction | None) -> tuple[str, str]:
    if x is None:
        return "", ""
    return str(x), decimal_str(x)


CURVE_HEADER = (
    "gamma,gamma_dec,capacity,capacity_dec,p1,p1_dec,p1_realizable,"
    "p2,p2_dec,p3,p3_dec,p4,p4_dec,timeshare,timeshare_dec"
)


def curve_csv(p: SystemParams, alpha: Fraction, samples: int) -> str:
    """The tradeoff curve for one (n, k, d) at fixed alpha, as CSV.

    The gamma grid is `samples` uniform points over [alpha, gamma_MSR],
    merged with the discrete gammas where the P2/P3/P4 constructions are
    defined so those columns are populated; sorted ascending. More than
    MAX_SAMPLES samples raise ResourceError before any gamma is computed.
    """
    if samples < 2:
        raise RangeError("samples must be >= 2")
    if samples > MAX_SAMPLES:
        raise ResourceError(f"{samples} samples, over the ceiling of {MAX_SAMPLES}")
    g_lo, g_hi = alpha, gamma_msr(p, alpha)
    gammas = {g_lo + Fraction(t, samples - 1) * (g_hi - g_lo) for t in range(samples)}
    sizes = {
        name: {g: size for g, (size, _) in curve.items()}
        for name, curve in points_at(p, alpha).items()
    }
    gammas.update(*sizes.values())
    lines = [CURVE_HEADER]
    for g in sorted(gammas):
        x = p1_index_of_gamma(p, alpha, g)
        cells = list(_frac_cell(g))
        cells += _frac_cell(functional_capacity(p, alpha, g))
        cells += _frac_cell(perf_p1_interpolated(p, alpha, x))
        cells.append("1" if x.denominator == 1 else "0")
        for name in ("p2", "p3", "p4"):
            cells += _frac_cell(sizes[name].get(g))
        cells += _frac_cell(timeshare_bound(p, alpha, g))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


ASYMPTOTIC_HEADER = (
    "s,M,i,fraction,fraction_dec,h1_over_M3,h1_over_M3_dec,h2_over_M,h2_over_M_dec,"
    "h3_over_M2,h3_over_M2_dec,h4_over_M2,h4_over_M2_dec"
)


def asymptotic_csv(base: SystemParams, s_list, M_list) -> str:
    lines = [ASYMPTOTIC_HEADER]
    for s in s_list:
        for M in M_list:
            if M == 0:  # the last four columns are normalized by powers of M
                raise RangeError("M must be positive to normalize by it")
            setup = AsymptoticSetup(base, s, M)
            frac, h1, h2, h3, h4 = asymptotic_fraction(setup)
            cells = [str(s), str(M), str(rounded_index(setup))]
            cells += _frac_cell(frac)
            cells += _frac_cell(h1 / M**3)
            cells += _frac_cell(h2 / M)
            cells += _frac_cell(h3 / M**2)
            cells += _frac_cell(h4 / M**2)
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class RecipeError(InputError):
    """Unparseable or unknown construction recipe."""


# construction -> argument count: base takes integers, the others a recipe and
# then integers; concat takes one or more recipes
_ARITY = {
    "base": 2,
    "blowup_simple": 1,
    "blowup_full": 1,
    "filenode_blowup": 1,
    "iterate": 2,
    "copy_blowup": 2,
}


def _int(node: ast.expr) -> int:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    raise RecipeError("expected an integer")


def parse_recipe(text: str, budget: int | None = None) -> LinearDss:
    """Build the LinearDss described by a recipe string.

    Grammar: base(n,k) | blowup_simple(R) | blowup_full(R) | iterate(R,j) |
    concat(R,...) | copy_blowup(R,l) | filenode_blowup(R), read by Python's
    expression parser; only these calls and integer literals are accepted.
    The whole recipe is checked against the budget, by each construction's
    shape rule, before any composite part is built.
    """
    try:
        tree = ast.parse(text.strip(), mode="eval")
        canonical = "".join(ast.unparse(tree).split())
    except (SyntaxError, ValueError) as exc:  # ValueError: null bytes, on some versions
        raise RecipeError(f"malformed recipe: {getattr(exc, 'msg', exc)}") from None
    except (RecursionError, MemoryError):  # the parser's own nesting limits
        raise RecipeError("malformed recipe: too deeply nested") from None
    # Python syntax the grammar lacks: trailing commas, extra parentheses,
    # comments, hex or underscored integers
    if canonical != "".join(text.split()):
        raise RecipeError("malformed recipe: not of the form name(arg,...)")

    def parse(node):
        """One construction: its constructions.Shape, and a function that builds it."""
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            raise RecipeError("expected a construction like base(3,2)")
        name, args = node.func.id, node.args
        if node.keywords:
            raise RecipeError(f"{name} takes no keyword arguments")
        if name == "concat":
            if not args:
                raise RecipeError("concat needs at least one part")
            parts = [parse(a) for a in args]
            predicted = constructions.Shape.predict(name, [s for s, _ in parts], budget=budget)
            return predicted, lambda: constructions.concat([b() for _, b in parts], budget=budget)
        if name not in _ARITY:
            raise RecipeError(f"unknown construction {name!r}")
        if len(args) != _ARITY[name]:
            raise RecipeError(f"{name} takes {_ARITY[name]} arguments, got {len(args)}")
        if name == "base":
            base = rs_base(*map(_int, args))  # a code serves as its own Shape
            constructions.Shape.predict(name, [base], budget=budget)
            return base, lambda: base
        inner, build = parse(args[0])
        numbers = [_int(a) for a in args[1:]]
        fn = getattr(constructions, name)
        predicted = constructions.Shape.predict(name, [inner], *numbers, budget=budget)
        return predicted, lambda: fn(build(), *numbers, budget=budget)

    return parse(tree.body)[1]()


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _cmd_curve(args) -> int:
    p = SystemParams(args.n, args.k, args.d)
    _write(args.out, curve_csv(p, as_rational(args.alpha), args.samples))
    return EXIT_OK


def _cmd_construct(args) -> int:
    dss = parse_recipe(args.recipe, budget=args.budget)
    predicted = OperatingPoint(
        Fraction(dss.alpha_symbols), Fraction(dss.gamma_symbols), Fraction(dss.file_len)
    )
    report = measure_and_compare(dss, predicted, seed=args.seed)
    _write(args.out, report.to_json())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def _cmd_asymptotic(args) -> int:
    base = SystemParams(args.n, args.k, args.d)
    s_list = [as_rational(s) for s in args.s.split(",")]
    M_list = [int(m) for m in args.M.split(",")]
    _write(args.out, asymptotic_csv(base, s_list, M_list))
    return EXIT_OK


def _cmd_compare(args) -> int:
    p = SystemParams(args.n, args.k, args.d)
    alpha = as_rational(args.alpha)
    gamma = as_rational(args.gamma)
    out = []

    def line(name, value, note=""):
        if value is None:
            out.append(f"{name:<10} -")
        else:
            suffix = f"  {note}" if note else ""
            out.append(f"{name:<10} {value}  ({decimal_str(value)}){suffix}")

    line("capacity", functional_capacity(p, alpha, gamma))
    g_hi = gamma_msr(p, alpha)
    if alpha <= gamma <= g_hi:
        line("timeshare", timeshare_bound(p, alpha, gamma))
        x = p1_index_of_gamma(p, alpha, gamma)
        line(
            "p1",
            perf_p1_interpolated(p, alpha, x),
            note=f"x={x}" + ("" if x.denominator == 1 else " interpolated"),
        )
    else:
        line("timeshare", None)
        line("p1", None)
    for name, curve in points_at(p, alpha).items():
        size, l = curve.get(gamma, (None, None))
        line(name, size, note="" if l is None else f"l={l}")
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regencode",
        description="Exact-repair regenerating codes: curves, constructions, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--d", type=int, required=True)

    sp = sub.add_parser("curve", help="emit the tradeoff curve as CSV")
    add_params(sp)
    sp.add_argument("--alpha", default="1", help="node size, rational like 1 or 3/8")
    sp.add_argument(
        "--samples", type=int, default=50, help=f"gamma grid points, 2 to {MAX_SAMPLES}"
    )
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=_cmd_curve)

    sp = sub.add_parser("construct", help="build a code from a recipe and verify it")
    sp.add_argument("recipe", help="e.g. blowup_full(base(3,2))")
    sp.add_argument("--out", default="-")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--budget", type=int, default=None, help="most generator entries n*alpha*B to build"
    )
    sp.set_defaults(fn=_cmd_construct)

    sp = sub.add_parser("asymptotic", help="emit the convergence table as CSV")
    add_params(sp)
    sp.add_argument("--s", default="1", help="comma list of rationals in (0,1]")
    sp.add_argument("--M", default="100,1000,10000", help="comma list of shifts")
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=_cmd_asymptotic)

    sp = sub.add_parser("compare", help="print P1..P4 and capacity at one point")
    add_params(sp)
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--gamma", required=True)
    sp.set_defaults(fn=_cmd_compare)
    return parser


_parser = functools.cache(build_parser)  # main's parser; a parse leaves nothing on it


def main(argv=None) -> int:
    """Run one command line and return its exit code; calls share one parser,
    built by the first. argparse looks up sys.stdout, sys.stderr and the
    width when it prints."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error, or the help
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.fn(args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, RangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
