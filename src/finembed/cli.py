"""Command-line front end.

Machine-readable JSON goes to stdout (deterministic, sorted keys, exact
numbers); human summaries and timing go to stderr.  Exit codes: 0 = query
answered (including "no"/"avoiding"), 1 = a property violation found by a
verification run, 2 = usage or input error.

Only argparse, errors and jsonio load with this module; each handler
imports the layers it runs, so `finembed pr`, `--help` and usage errors
never import numpy, and `embed`, `rich`, `density` and `verify` load it
at their handler's first import.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import jsonio
from .errors import BudgetError, InputError, parse_fraction, parse_ints

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one `error:` line on stderr
    and exit 2, like every other bad input; subparsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use: building
    it costs more than a small query, and parse_args keeps no state
    between calls."""
    top = _Parser(
        prog="finembed",
        description="finite embeddability, richness, density and "
                    "partition-regularity searches on semigroup windows")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="decide A <=_F B with witnesses")
    p.add_argument("--set-a", required=True)
    p.add_argument("--set-b", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--probes", help="probe sizes for predicate A, e.g. 3,5,8")
    p.add_argument("--bound", type=int, help="bounded-scan magnitude cap")

    p = sub.add_parser("rich", help="structure detectors with certificates")
    p.add_argument("--set", required=True, dest="set_path")
    p.add_argument("--detect", required=True,
                   choices=["ap", "gap", "poly", "thick", "ps"])
    p.add_argument("--zero-based", action="store_true",
                   help="zero-based grid convention for --detect gap")
    p.add_argument("--d", type=int, default=2, help="polynomial degree cap")
    p.add_argument("--D", default="0,1", help="coefficient indices, e.g. 0,2")
    p.add_argument("--s-coeffs", default="all",
                   help="coefficient predicate for --detect poly")
    p.add_argument("--g", type=int, default=2, help="gap bound for --detect ps")
    p.add_argument("--probes", default="1,2,4,8",
                   help="interval lengths for --detect thick")
    p.add_argument("--spans", default="4,8,16",
                   help="span probes for --detect ps")

    p = sub.add_parser("density", help="generalized upper density reports")
    p.add_argument("action", nargs="?", default="report",
                   choices=["report", "verify-monotone"])
    p.add_argument("--set", dest="set_path")
    p.add_argument("--net", default="interval:100",
                   help="interval:<maxN>, the net F_n = {1..n} for n <= "
                        "maxN; needs a numeric window")
    p.add_argument("--tail", type=int, default=1)
    p.add_argument("--pairs")
    p.add_argument("--family")
    p.add_argument("--tol", default="0.02")

    p = sub.add_parser("pr", help="partition-regularity searches")
    prsub = p.add_subparsers(dest="pr_command", required=True)
    q = prsub.add_parser("search", help="avoiding coloring / forced record")
    q.add_argument("--pattern", required=True)
    q.add_argument("--colors", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q = prsub.add_parser("threshold", help="least forced N")
    q.add_argument("--pattern", required=True)
    q.add_argument("--colors", type=int, required=True)
    q.add_argument("--nmax", type=int, required=True)
    q = prsub.add_parser("equation", help="homogeneous equation experiment")
    q.add_argument("--poly", required=True)
    q.add_argument("--colors", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--distinct", action="store_true",
                   help="require pairwise distinct solution entries")
    q.add_argument("--strict-homogeneous", action="store_true",
                   help="reject non-homogeneous polynomials")

    p = sub.add_parser("verify", help="run the seeded property suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", default="small", help="default: small")
    return top


def _cmd_embed(args) -> tuple[dict, int]:
    from .embed import fe_decide, fe_probe
    a = jsonio.ground_set_from_json(jsonio.load_json(args.set_a))
    b = jsonio.ground_set_from_json(jsonio.load_json(args.set_b))
    if not a.window.compatible(b.window):
        raise InputError("set-a and set-b windows differ")
    family = jsonio.family_from_json(jsonio.load_json(args.family), a.window)
    if args.probes:
        report = fe_probe(a, b, family, parse_ints(args.probes, "--probes"),
                          bound=args.bound)
        return jsonio.probe_report_to_json(report), 0
    verdict = fe_decide(a, b, family, bound=args.bound)
    return jsonio.verdict_to_json(verdict), 0


def _cmd_rich(args) -> tuple[dict, int]:
    from .rich import (is_piecewise_syndetic_window, is_thick_window,
                       longest_ap, longest_gap_grid, longest_poly_progression)
    ground = jsonio.ground_set_from_json(jsonio.load_json(args.set_path))
    if args.detect == "ap":
        return jsonio.certificate_to_json(longest_ap(ground)), 0
    if args.detect == "gap":
        cert = longest_gap_grid(ground, zero_based=args.zero_based)
        return jsonio.certificate_to_json(cert), 0
    if args.detect == "poly":
        coeffs = jsonio.set_body_from_json(ground.window,
                                           {"predicate": args.s_coeffs})
        cert = longest_poly_progression(ground, args.d, coeffs,
                                        parse_ints(args.D, "--D"))
        return jsonio.certificate_to_json(cert), 0
    if args.detect == "thick":
        report = is_thick_window(ground, parse_ints(args.probes, "--probes"))
        return jsonio.shift_report_to_json(report), 0
    report = is_piecewise_syndetic_window(ground, args.g,
                                          parse_ints(args.spans, "--spans"))
    return jsonio.shift_report_to_json(report), 0


def _cmd_density(args) -> tuple[dict, int]:
    from .density import check_density_monotonicity, upper_density
    if args.action == "verify-monotone":
        if not args.pairs or not args.family:
            raise InputError("verify-monotone needs --pairs and --family")
        tolerance = parse_fraction(args.tol, "--tol")
        window, pairs, probes = jsonio.pairs_from_json(
            jsonio.load_json(args.pairs))
        family = jsonio.family_from_json(jsonio.load_json(args.family), window)
        net = jsonio.net_from_spec(args.net, window)
        report = check_density_monotonicity(
            pairs, family, net, tolerance=tolerance, probes=probes)
        payload = jsonio.monotonicity_report_to_json(report)
        return payload, 0 if report.all_ok else 1
    if not args.set_path:
        raise InputError("density report needs --set")
    ground = jsonio.ground_set_from_json(jsonio.load_json(args.set_path))
    net = jsonio.net_from_spec(args.net, ground.window)
    report = upper_density(ground, net, tail_start=args.tail)
    return jsonio.density_report_to_json(report), 0


def _cmd_pr(args) -> tuple[dict, int]:
    from .prsearch import (find_avoiding_coloring, homogeneous_pr_check,
                           parse_pattern, parse_polynomial, ramsey_threshold)
    if args.pr_command == "search":
        cert = find_avoiding_coloring(args.n, args.colors,
                                      parse_pattern(args.pattern))
        return jsonio.coloring_to_json(cert), 0
    if args.pr_command == "threshold":
        res = ramsey_threshold(parse_pattern(args.pattern), args.colors,
                               args.nmax)
        return jsonio.threshold_to_json(res), 0
    poly = parse_polynomial(args.poly)
    cert = homogeneous_pr_check(poly, args.colors, args.n,
                                distinct=args.distinct,
                                strict=args.strict_homogeneous)
    payload = jsonio.coloring_to_json(cert)
    payload["homogeneous"] = poly.is_homogeneous
    payload["monomial_degrees"] = sorted(set(poly.monomial_degrees))
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    import hashlib

    from .verify import run_suite
    report, ok = run_suite(args.suite, args.seed, args.budget)
    digest = hashlib.sha256(jsonio.dumps(
        {"suite": args.suite, "seed": args.seed,
         "budget": args.budget}).encode()).hexdigest()
    payload = {
        "command": ["verify", "--suite", args.suite, "--seed",
                    str(args.seed), "--budget", args.budget],
        "inputs_digest": digest,
        "seed": args.seed,
        "results": report,
    }
    return payload, 0 if ok else 1


_HANDLERS = {
    "embed": _cmd_embed,
    "rich": _cmd_rich,
    "density": _cmd_density,
    "pr": _cmd_pr,
    "verify": _cmd_verify,
}


def dispatch(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        payload, code = _HANDLERS[args.command](args)
    except (InputError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(jsonio.dumps(payload), flush=True)
    except BrokenPipeError:
        # The reader left early (`finembed verify | head`); the answer
        # stands.  Point stdout at devnull so the exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    elapsed = time.monotonic() - started
    print(f"{args.command}: done in {elapsed:.2f}s (exit {code})",
          file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
