"""Command-line surface: derive | expand | check | bell.

``derive`` computes D_y^n of a composition by any route (or all routes at
once), ``expand`` prints the symbolic partition expansion, ``check`` is
the randomized cross-route verification harness, and ``bell`` evaluates
partial or complete Bell polynomials.

Exit codes: 0 success, 2 usage or input errors, 3 mathematical
disagreement between routes (a correctness alarm, distinct from bad
input by design: this command doubles as the project's continuous
verification harness).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence

from .composition import derivative_bell, derivative_partition_sum, partial_bell
from .determinant import (
    MIN_DETERMINANT_ORDER,
    build_matrix,
    derivative_determinant,
    determinant_expand,
)
from .exact import as_rational, check_order, format_rational, int_text, parse_rational
from .partitions import MAX_PARTITION_ORDER, multiplicity_vector, partition_parts, partition_weight
from .sequence import DerivativeSequence
from .series import derivative_via_jets
from .symbolic import (
    Expr,
    check_size,
    derivative_sequence_of,
    nth_derivative_of_composition,
    parse,
    taylor_polynomial,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3

# Most digits --decimal renders: a million take 20 s, 100000 take 0.3 s.
MAX_DECIMAL_DIGITS = 100000


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _decimal_digits(text: str) -> int:
    value = _nonnegative_int(text)
    if value > MAX_DECIMAL_DIGITS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_DECIMAL_DIGITS}, got {text}")
    return value


def decimal_string(value: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering with the given digit count.

    Display-only courtesy; rounding is half away from zero, a value that
    rounds to zero has no sign, and the exact value is never stored this way.
    """
    numerator, denominator = abs(value.numerator), value.denominator
    scaled = numerator * 10**digits
    quotient, remainder = divmod(scaled, denominator)
    if 2 * remainder >= denominator:
        quotient += 1
    sign = "-" if value < 0 and quotient else ""
    text = int_text(quotient).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _render(value: Fraction, args: argparse.Namespace) -> str:
    if args.decimal is not None:
        return decimal_string(value, args.decimal)
    return format_rational(value)


def _print_value(
    args: argparse.Namespace, fields: dict[str, Any], value: Fraction, expansion: str | None = None
) -> None:
    """One value on stdout: in JSON, ``fields``, then "value", then the expansion
    and the decimal if there are any; as text, the expansion line, then the value."""
    if args.json:
        payload = {**fields, "value": format_rational(value)}
        if expansion is not None:
            payload["expansion"] = expansion
        if args.decimal is not None:
            payload["decimal"] = decimal_string(value, args.decimal)
        print(json.dumps(payload))
    else:
        if expansion is not None:
            print(expansion)
        print(_render(value, args))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object; a repeated key is rejected, not read as its last value."""
    data = dict(pairs)
    if len(data) < len(pairs):
        key = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
        raise ValueError(f"duplicate key {key!r} in derivative sequence JSON")
    return data


def _parse_sequence_json(text: str, flag: str) -> DerivativeSequence:
    try:
        # JSON integers are read by parse_rational too, so they meet its digit bound;
        # they stay ints, so a message that shows the JSON shows 3, not Fraction(3, 1).
        data = json.loads(
            text, parse_int=lambda s: int(parse_rational(s)), object_pairs_hook=_unique_keys
        )
        if not isinstance(data, dict) or "derivs" not in data:
            raise ValueError(f"derivative sequence JSON needs 'derivs': {data!r}")
        unknown = sorted(str(key) for key in data if key not in ("derivs", "base"))
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in derivative sequence JSON")
        if not isinstance(data["derivs"], list):
            raise ValueError(f"'derivs' must be a list: {data['derivs']!r}")
        base = as_rational(data["base"]) if "base" in data else None  # "base": null is an error
        return DerivativeSequence(data["derivs"], base)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{flag}: invalid JSON: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{flag}: {exc}") from exc


# (phi, psi, at): parsed from --phi/--psi/--at in derive, and in check the
# Taylor polynomials of the drawn sequences with the drawn point.
Exprs = tuple[Expr, Expr, Fraction]


class _Route(NamedTuple):
    lowest_order: int
    highest_order: tuple[str, int] | None  # (name, value) of the bound ``all`` skips above
    reads_exprs: bool  # reads the parsed expressions, not the derivative sequences
    call: Callable[[Any, Any, int, Any], Fraction]  # (phi, psi, n, exprs) -> value


# Every route, in reporting order.  The library checks each route's inputs;
# with --method all (and in check), a route above its highest order is skipped.
# The keys become --method's choices once, when _build_parser first runs.  A
# call looks its route function up on this module when it runs, so a name
# rebound here later (a test's monkeypatch, a tracer's wrapper) still sees it.
ROUTES = {
    "partition": _Route(
        1,
        ("MAX_PARTITION_ORDER", MAX_PARTITION_ORDER),
        False,
        lambda phi, psi, n, _: derivative_partition_sum(phi, psi, n),
    ),
    "bell": _Route(1, None, False, lambda phi, psi, n, _: derivative_bell(phi, psi, n)),
    "determinant": _Route(
        MIN_DETERMINANT_ORDER,
        None,
        False,
        lambda phi, psi, n, _: derivative_determinant(phi, psi, n),
    ),
    "series": _Route(1, None, False, lambda phi, psi, n, _: derivative_via_jets(phi, psi, n)),
    "symbolic": _Route(
        1,
        None,
        True,
        lambda _phi, _psi, n, ex: nth_derivative_of_composition(ex[0], ex[1], n, ex[2]),
    ),
}


def _derive_inputs(
    args: argparse.Namespace,
) -> tuple[DerivativeSequence | None, DerivativeSequence | None, Exprs | None]:
    """Return (phi sequence, psi sequence, parsed expressions or None).

    Sequences are None when the one route asked for reads only the parsed
    expressions.
    """
    only_exprs = args.method != "all" and ROUTES[args.method].reads_exprs
    expr_flags = [args.phi, args.psi, args.at]
    derivs_flags = [args.phi_derivs, args.psi_derivs]
    has_exprs = any(v is not None for v in expr_flags)
    if has_exprs and any(v is not None for v in derivs_flags):
        raise ValueError("give either --phi/--psi/--at or --phi-derivs/--psi-derivs, not both")
    if has_exprs:
        if any(v is None for v in expr_flags):
            raise ValueError("expression input needs all of --phi, --psi and --at")
        phi_expr = parse(args.phi)
        psi_expr = parse(args.psi)
        at = parse_rational(args.at)
        check_size(phi_expr, psi_expr, at)  # before any route's work, not after it
        if only_exprs:
            return None, None, (phi_expr, psi_expr, at)
        psi_seq = derivative_sequence_of(psi_expr, at, args.order)
        phi_seq = derivative_sequence_of(phi_expr, psi_seq.base, args.order)
        return phi_seq, psi_seq, (phi_expr, psi_expr, at)
    if any(v is None for v in derivs_flags):
        raise ValueError("derivative input needs both --phi-derivs and --psi-derivs")
    phi_seq = _parse_sequence_json(args.phi_derivs, "--phi-derivs")
    psi_seq = _parse_sequence_json(args.psi_derivs, "--psi-derivs")
    if only_exprs:
        raise ValueError(f"the {args.method} route requires expression inputs (--phi/--psi/--at)")
    return phi_seq, psi_seq, None


def _route_values(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int, exprs: Exprs | None
) -> tuple[dict[str, Fraction], dict[str, str]]:
    """The value of every route that applies at order n, in reporting order,
    and the reason for each route skipped above its highest order."""
    values, skipped = {}, {}
    for name, route in ROUTES.items():
        if n < route.lowest_order or (exprs is None and route.reads_exprs):
            continue
        if route.highest_order is not None and n > route.highest_order[1]:
            bound, limit = route.highest_order
            skipped[name] = f"order {n} > {bound} = {limit}"
        else:
            values[name] = route.call(phi, psi, n, exprs)
    return values, skipped


def _disagreement(header: list[str], values: dict[str, Fraction]) -> int:
    """Report a disagreement on stderr, the header lines and then one line per route."""
    routes = (f"  {route} = {format_rational(value)}" for route, value in values.items())
    print(*header, *routes, sep="\n", file=sys.stderr)
    return EXIT_DISAGREEMENT


def _cmd_derive(args: argparse.Namespace) -> int:
    n = args.order
    if args.show_expansion and args.method != "determinant":
        raise ValueError("--show-expansion only applies to --method determinant")
    phi, psi, exprs = _derive_inputs(args)
    if args.method == "all":
        values, skipped = _route_values(phi, psi, n, exprs)
        agree = len(set(values.values())) == 1
        if args.json:
            payload: dict[str, Any] = {
                "n": n,
                "method": "all",
                "values": {m: format_rational(v) for m, v in values.items()},
            }
            if skipped:
                payload["skipped"] = skipped
            payload["agree"] = agree
            if args.decimal is not None:
                payload["decimal"] = {
                    m: decimal_string(v, args.decimal) for m, v in values.items()
                }
            print(json.dumps(payload))
        else:
            for m in ROUTES:
                if m in values:
                    print(f"{m}: {_render(values[m], args)}")
                elif m in skipped:
                    print(f"{m}: skipped ({skipped[m]})")
        return EXIT_OK if agree else _disagreement(["route disagreement detected"], values)

    value = ROUTES[args.method].call(phi, psi, n, exprs)
    expansion = None
    if args.show_expansion:
        expansion = str(determinant_expand(build_matrix(psi, n - 1)))
    _print_value(args, {"n": n, "method": args.method}, value, expansion)
    return EXIT_OK


def _psi_monomial(parts: list[tuple[int, int]]) -> str:
    pieces = [f"psi({j})" if mj == 1 else f"psi({j})^{mj}" for j, mj in parts]
    return "*".join(pieces)


def _cmd_expand(args: argparse.Namespace) -> int:
    # One line, or one JSON array element, per partition as the walk reaches it.
    n = args.order
    for index, parts in enumerate(partition_parts(n)):
        m = multiplicity_vector(n, parts)
        smallest_first = parts[::-1]
        coefficient = int_text(partition_weight(n, parts))
        p = sum(m)
        if args.json:
            term = {
                "m": m,
                "coefficient": coefficient,
                "phi_order": p,
                "psi_powers": [[j, mj] for j, mj in smallest_first],
            }
            print(", " if index else "[", json.dumps(term), sep="", end="")
        else:
            mvec_text = "(" + ",".join(str(v) for v in m) + ")"
            print(f"m={mvec_text} coeff={coefficient} p={p} psi={_psi_monomial(smallest_first)}")
    if args.json:
        print("]")
    return EXIT_OK


# Fraction(p, q) at index 4 * (p + 6) + q - 1, for |p| <= 6 and 1 <= q <= 4.
_DRAWS = tuple(Fraction(p, q) for p in range(-6, 7) for q in range(1, 5))


def _random_rational(rng: random.Random) -> Fraction:
    """Fraction(rng.randint(-6, 6), rng.randint(1, 4)), read from a table."""
    return _DRAWS[4 * (rng.randint(-6, 6) + 6) + rng.randint(1, 4) - 1]


def _random_sequence(rng: random.Random, n: int) -> DerivativeSequence:
    """n random derivative values, then a random base value."""
    derivs = tuple(_random_rational(rng) for _ in range(n))
    return DerivativeSequence(derivs, _random_rational(rng))


def _cmd_check(args: argparse.Namespace) -> int:
    check_order(args.max_n)
    rng = random.Random(args.seed)
    report = []
    for n in range(1, args.max_n + 1):
        for trial in range(args.trials):
            at = _random_rational(rng)
            psi = _random_sequence(rng, n)
            phi = _random_sequence(rng, n)
            exprs = (taylor_polynomial(phi, psi.base), taylor_polynomial(psi, at), at)
            values, _ = _route_values(phi, psi, n, exprs)
            if len(set(values.values())) != 1:
                header = [f"route disagreement at order {n}, trial {trial}:"]
                header.append(f"  at   = {format_rational(at)}")
                for role, seq in (("phi", phi), ("psi", psi)):
                    derivs = [format_rational(v) for v in seq.derivs]
                    data = {"base": format_rational(seq.base), "derivs": derivs}
                    header.append(f"  {role}  = {json.dumps(data)}")
                return _disagreement(header, values)
        report.append({"n": n, "trials": args.trials, "routes": list(values), "ok": True})
    if args.json:
        summary = {"max_n": args.max_n, "trials": args.trials, "seed": args.seed}
        print(json.dumps({**summary, "orders": report, "ok": True}))
    else:
        for row in report:
            print(f"order {row['n']:>2}: {row['trials']} trials, {len(row['routes'])} routes, ok")
        print(f"all routes agree up to order {args.max_n} (seed {args.seed})")
    return EXIT_OK


def _cmd_bell(args: argparse.Namespace) -> int:
    n = args.order
    k = args.parts
    check_order(n)  # before the n ones below are built
    ones = DerivativeSequence(derivs=(Fraction(1),) * n)
    psi = ones if args.psi_derivs is None else _parse_sequence_json(args.psi_derivs, "--psi-derivs")
    if k is None:
        # The complete Bell polynomial: sum_k phi^(k) * B_{n,k} with every phi^(k) = 1.
        value = derivative_bell(ones, psi, n)
    else:
        value = partial_bell(n, k, psi)
    _print_value(args, {"n": n, "k": k}, value)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Nothing mutates it after the build, so one process reuses it across
    ``main`` calls.  ``--method``'s choices (the keys of ``ROUTES``) and each
    subcommand's ``set_defaults(func=_cmd_*)`` handler are fixed at that
    build; the route functions themselves are looked up at call time.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a JSON object instead of text"
    )
    decimal = argparse.ArgumentParser(add_help=False)
    decimal.add_argument(
        "--decimal",
        type=_decimal_digits,
        default=None,
        metavar="DIGITS",
        help="also render values as fixed-point decimals (display only)",
    )
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("-n", "--order", type=_positive_int, required=True)

    parser = argparse.ArgumentParser(
        prog="compderiv",
        description="Exact n-th derivatives of function compositions, five ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser(
        "derive", parents=[common, decimal, order], help="compute D_y^n of phi(psi(y))"
    )
    p_derive.add_argument("--method", choices=(*ROUTES, "all"), default="partition")
    p_derive.add_argument("--phi", help="outer polynomial, e.g. 'x^3 + x'")
    p_derive.add_argument("--psi", help="inner polynomial, e.g. '2*y^2 + y'")
    p_derive.add_argument("--at", help="expansion point as 'p/q'")
    p_derive.add_argument("--phi-derivs", help='outer derivatives JSON {"derivs": [...]}')
    p_derive.add_argument("--psi-derivs", help='inner derivatives JSON {"derivs": [...]}')
    p_derive.add_argument(
        "--show-expansion",
        action="store_true",
        help="with --method determinant, also print the formal Phi-polynomial",
    )
    p_derive.set_defaults(func=_cmd_derive)

    p_expand = sub.add_parser(
        "expand", parents=[common, order], help="print the partition expansion of D_y^n"
    )
    p_expand.set_defaults(func=_cmd_expand)

    p_check = sub.add_parser(
        "check", parents=[common], help="randomized cross-route verification"
    )
    p_check.add_argument("--max-n", type=_positive_int, default=10)
    p_check.add_argument("--trials", type=_positive_int, default=100)
    p_check.add_argument("--seed", type=_nonnegative_int, default=0, help="PRNG seed")
    p_check.set_defaults(func=_cmd_check)

    p_bell = sub.add_parser(
        "bell", parents=[common, decimal, order], help="partial or complete Bell polynomial values"
    )
    p_bell.add_argument("-k", "--parts", type=int, default=None)
    p_bell.add_argument("--psi-derivs", help='inner derivatives JSON {"derivs": [...]}')
    p_bell.set_defaults(func=_cmd_bell)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit code; callable repeatedly in one process.

    argparse usage errors and ``--help`` raise ``SystemExit`` (2 and 0).
    """
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
