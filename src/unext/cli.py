"""Command-line front end: bound, figure, np, check and selftest subcommands.

Output is CSV (with a versioned header comment) or JSON. Infinite rates are
the string "inf" in CSV and null plus a "vacuous": true flag in JSON. Exit
codes: 0 success (and Feasible for check), 1 usage or parse error, 2
infeasible-signal, 3 inconclusive, 4 internal numerical failure. Sweeps over
n run serially in n order; the environment variable UNEXT_THREADS is no
longer read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from . import bounds as bounds_mod
from . import extendibility as ext_mod
from . import hypothesis_testing as ht
from . import linalg, states
from .bounds import INF, BoundQuery, BoundResult, optimize_k, t_star
from .extendibility import ExtensionProblem, VerdictStatus, check_k_extendible
from .states import ChannelSpec, DensityMatrix

CSV_VERSION_HEADER = "#unext-bounds v1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the interface contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class FigureRow:
    n: int
    rate_primary: float
    rate_limit: float
    k_used: float
    method: str


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    if value == INF:
        return "inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _json_rate(value: float) -> tuple[Optional[float], bool]:
    return (None, True) if value == INF else (float(value), False)


def _emit(text: str, output: Optional[str], out: TextIO) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)


def _bound_rows_csv(rows: Sequence[BoundResult]) -> str:
    lines = [CSV_VERSION_HEADER, "n,rate_bound,k_used,sigma_param_used,method,divergence"]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.n),
                    _fmt(r.rate_bound),
                    _fmt(r.k_used),
                    _fmt(r.sigma_param_used),
                    r.method,
                    _fmt(r.divergence),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _bound_rows_json(rows: Sequence[BoundResult]) -> str:
    payload = []
    for r in rows:
        rate, vacuous = _json_rate(r.rate_bound)
        div, div_vac = _json_rate(r.divergence)
        payload.append(
            {
                "n": r.n,
                "rate_bound": rate,
                "vacuous": vacuous,
                "k_used": "inf" if r.k_used == INF else int(r.k_used),
                "sigma_param_used": r.sigma_param_used,
                "sigma_provenance": r.sigma_provenance,
                "method": r.method,
                "divergence": div if not div_vac else None,
            }
        )
    return json.dumps({"rows": payload}, indent=2) + "\n"


def _figure_rows_csv(rows: Sequence[FigureRow]) -> str:
    lines = [CSV_VERSION_HEADER, "n,rate_primary,rate_limit,k_used,method"]
    for r in rows:
        lines.append(
            ",".join(
                [str(r.n), _fmt(r.rate_primary), _fmt(r.rate_limit), _fmt(r.k_used), r.method]
            )
        )
    return "\n".join(lines) + "\n"


def _figure_rows_json(rows: Sequence[FigureRow]) -> str:
    payload = []
    for r in rows:
        rate, vacuous = _json_rate(r.rate_primary)
        limit, limit_vac = _json_rate(r.rate_limit)
        payload.append(
            {
                "n": r.n,
                "rate_primary": rate,
                "vacuous": vacuous,
                "rate_limit": limit,
                "limit_vacuous": limit_vac,
                "k_used": "inf" if r.k_used == INF else int(r.k_used),
                "method": r.method,
            }
        )
    return json.dumps({"rows": payload}, indent=2) + "\n"


def run_figure(
    channel_kind: str,
    p: float,
    eps: float,
    n_max: int,
    *,
    k_max: int = 1024,
    per_use: bool = True,
) -> list[FigureRow]:
    """Optimized-order bound and limiting curve for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    channel = ChannelSpec(channel_kind, p)

    def one(n: int) -> FigureRow:
        opt = optimize_k(channel, n, eps, k_max=k_max)
        limit = opt.limit
        scale = 1.0 if per_use else float(n)
        return FigureRow(
            n=n,
            rate_primary=opt.rate_bound * scale if opt.rate_bound != INF else INF,
            rate_limit=limit.rate_bound * scale if limit.rate_bound != INF else INF,
            k_used=opt.k_used,
            method=opt.method,
        )

    return [one(n) for n in range(1, n_max + 1)]


def _parse_fraction(raw: str) -> Fraction:
    # accepts decimals and fractions like 3/4; a zero denominator is malformed input
    try:
        return Fraction(raw)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {raw!r}") from exc


def _parse_k(raw: str) -> float:
    if raw == "inf":
        return INF
    return int(raw)


def _state_from_spec(spec: str) -> DensityMatrix:
    if os.path.exists(spec):
        matrix, dims = linalg.load_matrix_json(spec)
        return DensityMatrix(matrix, dims)
    return states.parse_state_spec(spec)


def _cmd_bound(args, out: TextIO) -> int:
    channel = ChannelSpec(args.channel, args.p)
    if args.n is not None:
        ns = [args.n]
    else:
        lo, _, hi = args.n_range.partition(":")
        ns = list(range(int(lo), int(hi) + 1))
        if not ns:
            raise ValueError(f"empty n-range {args.n_range!r}")

    if args.k == "opt":
        if args.sigma_param is not None:
            raise ValueError("--sigma-param cannot be combined with --k opt")

        def one(n: int) -> BoundResult:
            return optimize_k(channel, n, args.eps, k_max=args.k_max)

    else:
        k = _parse_k(args.k)

        def one(n: int) -> BoundResult:
            return bounds_mod._channel_bound(channel, n, args.eps, k, args.sigma_param)

    rows = [one(n) for n in ns]
    if not args.per_use:
        rows = [
            replace(r, rate_bound=r.rate_bound * r.n if r.rate_bound != INF else INF)
            for r in rows
        ]
    text = _bound_rows_csv(rows) if args.format == "csv" else _bound_rows_json(rows)
    _emit(text, args.output, out)
    return EXIT_OK


def _cmd_figure(args, out: TextIO) -> int:
    rows = run_figure(
        args.channel, args.p, args.eps, args.n_max, k_max=args.k_max, per_use=not args.raw
    )
    text = _figure_rows_csv(rows) if args.format == "csv" else _figure_rows_json(rows)
    _emit(text, args.output, out)
    return EXIT_OK


def _cmd_np(args, out: TextIO) -> int:
    p, t, eps = (_parse_fraction(raw) for raw in (args.p, args.t, args.eps))
    if args.engine == "exact":
        res = ht.np_divergence_exact(p, t, args.n, eps)[1]
    else:
        res = ht.np_divergence(ht.BinaryHypothesisPair(float(p), float(t), args.n), float(eps))
    d, d_vac = _json_rate(res.divergence)
    payload = {
        "D": d if not d_vac else None,
        "beta": res.beta,
        "threshold_weight": res.threshold_weight,
        "gamma": res.gamma,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output, out)
    return EXIT_OK


def _cmd_check(args, out: TextIO) -> int:
    state = _state_from_spec(args.state)
    problem = ExtensionProblem(state, args.k, tol=args.tol, max_iter=args.max_iter)
    verdict = check_k_extendible(problem)
    payload = {
        "status": verdict.status.value,
        "residual": float(f"{verdict.residual:.4g}"),
        "iterations": verdict.iterations,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output, out)
    if verdict.status is VerdictStatus.FEASIBLE:
        return EXIT_OK
    if verdict.status is VerdictStatus.INFEASIBLE_SIGNAL:
        return EXIT_INFEASIBLE
    return EXIT_INCONCLUSIVE


# --- selftest ---


def _selftest_checks() -> list[tuple[str, bool, str]]:
    results: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, ok, detail))

    # oracle agreement across the full verification grid
    worst = 0.0
    ok = True
    for p in (0.05, 0.25, 0.5, 0.75, 0.95):
        for t in (0.05, 0.25, 0.5, 0.75, 0.95):
            for eps in (0.0, 0.05, 0.3):
                for n in range(1, 9):
                    res = ht.np_divergence(ht.BinaryHypothesisPair(p, t, n), eps)
                    ref = ht.np_oracle(ht.BinaryHypothesisPair(p, t, n), eps)
                    if ref == float("-inf") or res.log2_beta == float("-inf"):
                        ok = ok and ref == res.log2_beta
                    else:
                        worst = max(worst, abs(res.log2_beta - ref))
    ok = ok and worst <= 1e-12
    record("oracle-grid-600", ok, f"worst |delta log2 beta| = {worst:.3e}")

    # identical-hypotheses closed form
    worst = 0.0
    for p in (0.0, 0.25, 0.5, 0.9, 1.0):
        for n, eps in ((1, 0.0), (3, 0.05), (7, 0.2), (20, 0.45)):
            res = ht.np_divergence(ht.BinaryHypothesisPair(p, p, n), eps)
            worst = max(worst, abs(res.divergence - math.log2(1.0 / (1.0 - eps))))
    record("identical-hypotheses-law", worst <= 1e-12, f"worst deviation = {worst:.3e}")

    # log-domain vs exact-rational engines
    worst = 0.0
    for n in (50, 100, 200):
        beta, ex = ht.np_divergence_exact(Fraction(17, 20), Fraction(3, 4), n, Fraction(1, 20))
        lg = ht.np_divergence(ht.BinaryHypothesisPair(0.85, 0.75, n), 0.05)
        worst = max(worst, abs(2.0 ** (lg.log2_beta - ex.log2_beta) - 1.0))
    record("engine-cross-validation", worst <= 1e-9, f"worst relative beta gap = {worst:.3e}")

    # constructive certificates
    worst = 0.0
    for k in (2, 3, 4):
        cert = ext_mod.erasure_certificate(k)
        defects = ext_mod.certificate_defects(cert, states.erasure_family(1.0 - 1.0 / k), k)
        worst = max(worst, max(defects.values()))
    record("erasure-certificates", worst <= 1e-10, f"worst defect = {worst:.3e}")

    # the named two-extendible example state
    verdict = check_k_extendible(ExtensionProblem(states.parse_state_spec("erasure:0.5"), 2))
    record(
        "half-erased-state-feasible",
        verdict.status is VerdictStatus.FEASIBLE,
        f"status = {verdict.status.value}",
    )

    # the closed-form thresholds agree with the solver at +-0.005 margins; the
    # point below is confirmed admissible by a certificate, which catches a
    # threshold drifted upward past the real boundary
    for k in (2, 3, 4, 5):
        t_fix = t_star(k)[0]
        lo = check_k_extendible(ExtensionProblem(states.isotropic(t_fix - 0.005, 2), k))
        hi = check_k_extendible(ExtensionProblem(states.isotropic(t_fix + 0.005, 2), k))
        record(
            f"threshold-margins-k{k}",
            lo.status is VerdictStatus.FEASIBLE
            and hi.status is VerdictStatus.INFEASIBLE_SIGNAL,
            f"below = {lo.status.value}, above = {hi.status.value}",
        )

    # cross-module equality: distillation on the Choi spectrum vs channel bound
    ok = True
    dep = ChannelSpec("depolarizing", 0.15)
    for n in (1, 2, 5):
        for k in (2, 3, INF):
            d1 = bounds_mod.distillation_bound_bell_diagonal(
                (0.85, 0.05, 0.05, 0.05), n, 0.05, k
            )
            d2 = bounds_mod.depolarizing_bound(BoundQuery(dep, n, 0.05, k))
            ok = ok and d1.rate_bound == d2.rate_bound
    record("distillation-channel-equality", ok)

    # limiting-curve consistency identity
    ok = True
    for n in (1, 4, 9):
        res = bounds_mod.depolarizing_bound(BoundQuery(dep, n, 0.05, INF, sigma_param=0.5))
        direct = ht.np_divergence(ht.BinaryHypothesisPair(0.85, 0.5, n), 0.05).divergence
        ok = ok and res.rate_bound == direct / n
    record("limit-curve-consistency", ok)

    # optimized order never beats the limiting curve
    ok = True
    for n in range(1, 13):
        opt = optimize_k(dep, n, 0.05, k_max=256)
        lim = bounds_mod.depolarizing_bound(BoundQuery(dep, n, 0.05, INF))
        ok = ok and opt.rate_bound <= lim.rate_bound + 1e-12
    record("order-optimization-dominance", ok)

    return results


def run_selftest(out: TextIO = sys.stdout) -> int:
    """Run the deterministic verification suites; nonzero exit on any failure."""
    results = _selftest_checks()
    failures = 0
    for name, ok, detail in results:
        if ok:
            out.write(f"ok   {name}{': ' + detail if detail else ''}\n")
        else:
            failures += 1
            out.write(f"FAIL {name}{': ' + detail if detail else ''}\n")
    out.write(f"{len(results)} checks, {failures} failures\n")
    return EXIT_OK if failures == 0 else EXIT_USAGE


def _build_parser() -> _Parser:
    parser = _Parser(prog="unext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="rate ceilings for a channel", parents=[])
    p_bound.add_argument("--channel", required=True, choices=["depolarizing", "erasure"])
    p_bound.add_argument("--p", type=float, required=True)
    p_bound.add_argument("--eps", type=float, required=True)
    group = p_bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--n-range", help="inclusive range lo:hi")
    p_bound.add_argument("--k", required=True, help="integer order, 'inf', or 'opt'")
    p_bound.add_argument("--k-max", type=int, default=1024)
    p_bound.add_argument("--sigma-param", type=float)
    p_bound.add_argument("--per-use", action="store_true", help="report log2(M)/n instead of log2(M)")
    p_bound.add_argument("--format", choices=["csv", "json"], default="csv")
    p_bound.add_argument("--output")

    p_fig = sub.add_parser("figure", help="optimized and limiting curves over n")
    p_fig.add_argument("channel", choices=["depolarizing", "erasure"])
    p_fig.add_argument("--p", type=float, required=True)
    p_fig.add_argument("--eps", type=float, required=True)
    p_fig.add_argument("--n-max", type=int, required=True)
    p_fig.add_argument("--k-max", type=int, default=1024)
    p_fig.add_argument("--raw", action="store_true", help="report log2(M) instead of per-use rates")
    p_fig.add_argument("--format", choices=["csv", "json"], default="csv")
    p_fig.add_argument("--output")

    p_np = sub.add_parser("np", help="binary hypothesis-testing optimum")
    p_np.add_argument("--p", required=True, help="per-copy success probability, true hypothesis")
    p_np.add_argument("--t", required=True, help="per-copy success probability, alternative")
    p_np.add_argument("--n", type=int, required=True)
    p_np.add_argument("--eps", required=True)
    p_np.add_argument("--engine", choices=["log", "exact"], default="log")
    p_np.add_argument("--output")

    p_check = sub.add_parser("check", help="k-extendibility of a state")
    p_check.add_argument("state", help="named state spec or path to a matrix JSON file")
    p_check.add_argument("--k", type=int, required=True)
    p_check.add_argument("--tol", type=float, default=1e-7)
    p_check.add_argument("--max-iter", type=int, default=50000)
    p_check.add_argument("--output")

    sub.add_parser("selftest", help="run the built-in verification suites")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bound":
            return _cmd_bound(args, sys.stdout)
        if args.command == "figure":
            return _cmd_figure(args, sys.stdout)
        if args.command == "np":
            return _cmd_np(args, sys.stdout)
        if args.command == "check":
            return _cmd_check(args, sys.stdout)
        if args.command == "selftest":
            return run_selftest(sys.stdout)
        parser.error(f"unknown command {args.command!r}")
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"unext: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"unext: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
