"""Correctness oracle, run after the timed phase.

Each check returns a list of failure reasons; an empty list means the output
passed. A reason starts with its kind: ``inadmissible`` marks an output that
rests on a reference state that is not k-extendible by the closed form,
``tie`` a divergence that is finite where the exact optimum is infinite
because the type-I budget ties a class mass exactly, and every other kind a
computed value that disagrees with an independent recomputation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import unext
from workloads import INF, t_star_closed_form

BETA_RTOL = 1e-9  # relative tolerance on beta = 2^-D
RATE_RTOL = 1e-12
IDENTITY_ATOL = 1e-9
ORACLE_MAX_N = 10  # np_oracle enumerates 2^(n+1) tests
EXACT_SMALL_N = 64
EXACT_SMALL_CAP = 150  # exact recomputations per run with 10 < n <= 64
EXACT_LARGE_CAP = 3  # and with n > 64, where one costs up to ~1.5 s
EXACT_AFFORDABLE_N = 1500  # divergence workload: np_divergence checked exactly up to here,
EXACT_NP_CAP = 1  # for this many ops per run
CERT_PSD_TOL = 1e-6
CERT_EXACT_TOL = 1e-9


def ref_max_log2_m(d_total: float, k: float) -> float:
    """Independent inversion of -log2(1/M + 1/k - 1/(M k)) <= D for log2(M)."""
    if k == INF:
        return d_total
    if d_total == INF or 2.0**-d_total <= 1.0 / k:
        return INF
    return max(0.0, math.log2((1.0 - 1.0 / k) / (2.0**-d_total - 1.0 / k)))


TIE_BETA = 2.0**-50  # a few ulps of the unit mass the type-I budget is counted in


def compare_divergence(d_got: float, d_ref: float, what: str) -> list[str]:
    """Failure reasons for a divergence against its reference, compared through beta = 2^-D."""
    if d_got == d_ref:
        return []
    if d_ref == INF and 2.0**-d_got <= TIE_BETA:
        return [f"tie: {what} D={d_got!r}, exact optimum inf"]
    if d_got == INF or d_ref == INF or abs(2.0 ** (d_ref - d_got) - 1.0) > BETA_RTOL:
        return [f"divergence: {what} D={d_got!r}, reference {d_ref!r}"]
    return []


def _rate_mismatch(got: float, want: float) -> bool:
    if got == INF or want == INF:
        return got != want
    return abs(got - want) > RATE_RTOL * max(1.0, abs(want))


def _frac(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10**12)


class Oracle:
    """Holds the subsampling budget and caches shared by every check of one run."""

    def __init__(self):
        self._divergence: dict[tuple, Optional[float]] = {}
        self._small_left = EXACT_SMALL_CAP
        self._large_left = EXACT_LARGE_CAP
        self._np_exact_left = EXACT_NP_CAP
        self.divergence_checks = 0

    # --- Bernoulli reference values ---

    def reference_divergence(self, p_true: float, p_alt: float, n: int, eps: float) -> Optional[float]:
        """D from np_oracle (n <= 10) or the exact engine; None when subsampled away."""
        key = (p_true, p_alt, n, eps)
        if key in self._divergence:
            return self._divergence[key]
        ht = unext.hypothesis_testing
        value: Optional[float] = None
        if n <= ORACLE_MAX_N:
            value = -ht.np_oracle(ht.BinaryHypothesisPair(p_true, p_alt, n), eps)
        elif n <= EXACT_SMALL_N and self._small_left > 0:
            self._small_left -= 1
            value = ht.np_divergence_exact(_frac(p_true), _frac(p_alt), n, _frac(eps))[1].divergence
        elif n > EXACT_SMALL_N and self._large_left > 0:
            self._large_left -= 1
            value = ht.np_divergence_exact(_frac(p_true), _frac(p_alt), n, _frac(eps))[1].divergence
        if value is not None:
            self.divergence_checks += 1
        self._divergence[key] = value
        return value

    def _check_divergence(self, p_true, p_alt, n, eps, d_got, what) -> list[str]:
        d_ref = self.reference_divergence(p_true, p_alt, n, eps)
        return [] if d_ref is None else compare_divergence(d_got, d_ref, f"{what} n={n}")

    # --- curve ---

    @staticmethod
    def _admissible(channel: str, k: float, sigma: float) -> bool:
        if channel == "depolarizing":
            return sigma <= t_star_closed_form(2, k) + 1e-12
        return sigma >= (1.0 if k == INF else 1.0 - 1.0 / k) - 1e-12

    @staticmethod
    def _alternative(channel: str, sigma: float) -> float:
        """Per-copy success probability of the reference state in the reduced Bernoulli problem."""
        return sigma if channel == "depolarizing" else 1.0 - sigma

    def check_curve(self, op, rows: list[dict]) -> list[str]:
        params = op.params
        if [int(r["n"]) for r in rows] != params["ns"]:
            return [f"rows: n column {[r['n'] for r in rows]} != requested {params['ns']}"]
        if op.kind == "figure":
            return self._check_figure(params, rows)
        reasons: list[str] = []
        channel, p, eps = params["channel"], params["p"], params["eps"]
        for row in rows:
            n, k, sigma = int(row["n"]), row["k_used"], row["sigma_param_used"]
            d = row["divergence"]
            if not self._admissible(channel, k, sigma):
                reasons.append(f"inadmissible: sigma {sigma!r} at k={k} ({op.kind})")
            if op.kind == "interleaved":
                reasons += self._check_interleaved(p, eps, n, k, sigma, d)
            else:
                alt = self._alternative(channel, sigma)
                reasons += self._check_divergence(1.0 - p, alt, n, eps, d, op.kind)
            log2_m = ref_max_log2_m(d, k)
            per_use = log2_m / n if log2_m != INF else INF
            want = per_use if params["per_use"] else (per_use * n if per_use != INF else INF)
            if _rate_mismatch(row["rate_bound"], want):
                reasons.append(f"rate: n={n} k={k} got {row['rate_bound']!r}, want {want!r}")
        return reasons

    def _check_interleaved(self, p, eps, n, k, t_sel, d_total) -> list[str]:
        """d_total = n * D_max(Choi || isotropic(t_sel)) + log2(1/(1-eps)), in closed form."""
        if t_sel > 1.0 - p:
            return [f"interleaved: t_sel {t_sel!r} above 1-p"]
        e_max = max(0.0, math.log2((1.0 - p) / t_sel), math.log2(p / (1.0 - t_sel))) if p > 0 else 0.0
        want = n * e_max + math.log2(1.0 / (1.0 - eps))
        if abs(d_total - want) > IDENTITY_ATOL * max(1.0, want):
            return [f"divergence: interleaved n={n} D={d_total!r}, closed form {want!r}"]
        return []

    def _check_figure(self, params, rows) -> list[str]:
        """Figure rows omit D and sigma: recompute both for the reported order, then check."""
        ht = unext.hypothesis_testing
        channel, p, eps = params["channel"], params["p"], params["eps"]
        reasons = []
        for row in rows:
            n, k = int(row["n"]), row["k_used"]
            if channel == "depolarizing":
                sigma = unext.bounds.t_star(k)[0]
            else:
                sigma = 1.0 if k == INF else 1.0 - 1.0 / k
            if not self._admissible(channel, k, sigma):
                reasons.append(f"inadmissible: sigma {sigma!r} at k={k} (figure)")
            for rate, order, sig in (
                (row["rate_primary"], k, sigma),
                (row["rate_limit"], INF, 0.5 if channel == "depolarizing" else 1.0),
            ):
                alt = self._alternative(channel, sig)
                d = ht.np_divergence(ht.BinaryHypothesisPair(1.0 - p, alt, n), eps).divergence
                reasons += self._check_divergence(1.0 - p, alt, n, eps, d, "figure")
                log2_m = ref_max_log2_m(d, order)
                want = log2_m / n if log2_m != INF else INF
                if _rate_mismatch(rate, want):
                    reasons.append(f"rate: figure n={n} k={order} got {rate!r}, want {want!r}")
            if row["rate_primary"] > row["rate_limit"] + 1e-12:
                reasons.append(f"rate: figure n={n} optimized rate above the limiting curve")
        return reasons

    # --- extend ---

    def check_extend(self, op, verdict) -> list[str]:
        params = op.params
        status = verdict.status.value
        if status == "inconclusive":
            return [f"inconclusive: {params['spec']} k={params['k']}"]
        want = "feasible" if params["expect_feasible"] else "infeasible-signal"
        if status != want:
            return [f"verdict: {params['spec']} k={params['k']} got {status}, closed form {want}"]
        if status != "feasible":
            return []
        if "path" in params:
            matrix, dims = unext.linalg.load_matrix_json(params["path"])
            rho = unext.states.DensityMatrix(matrix, dims)
        else:
            rho = unext.states.parse_state_spec(params["spec"])
        defects = unext.extendibility.certificate_defects(verdict.certificate, rho, params["k"])
        bad = {
            key: value
            for key, value in defects.items()
            if value > (CERT_PSD_TOL if key == "psd" else CERT_EXACT_TOL)
        }
        return [f"certificate: {params['spec']} k={params['k']} defects {bad}"] if bad else []

    # --- divergence ---

    def check_divergence(self, op, value) -> list[str]:
        params = op.params
        ht = unext.hypothesis_testing
        kind, n = op.kind, params["n"]
        if kind in ("commuting_dh", "d_max_commuting"):
            p, sigma = params["p"], params["sigma"]
            if params["channel"] == "depolarizing":
                p_true, p_alt, off_true, off_alt = 1.0 - p, sigma, p, 1.0 - sigma
            else:
                p_true, p_alt, off_true, off_alt = 1.0 - p, 1.0 - sigma, p, sigma
            if kind == "commuting_dh":
                want = ht.np_divergence(ht.BinaryHypothesisPair(p_true, p_alt, n), params["eps"]).divergence
            else:
                want = n * max(math.log2(p_true / p_alt), math.log2(off_true / off_alt))
            if abs(value - want) > IDENTITY_ATOL:
                return [f"identity: {kind} {params} got {value!r}, want {want!r}"]
            return []
        if kind == "fidelity":
            p, t = params["p"], params["t"]
            want = (math.sqrt((1.0 - p) * t) + math.sqrt(p * (1.0 - t))) ** (2 * n)
            if abs(value - want) > BETA_RTOL * want:
                return [f"closed-form: fidelity {params} got {value!r}, want {want!r}"]
            return []
        p, t, eps = params["p"], params["t"], params["eps"]
        if kind == "np_divergence_exact":
            log_engine = ht.np_divergence(ht.BinaryHypothesisPair(p, t, n), eps)
            return compare_divergence(log_engine.divergence, value[1].divergence, f"log engine vs exact {params}")
        d = value.divergence
        if n <= EXACT_AFFORDABLE_N and self._np_exact_left > 0:
            self._np_exact_left -= 1
            _, ref = ht.np_divergence_exact(_frac(p), _frac(t), n, _frac(eps))
            return compare_divergence(d, ref.divergence, f"np vs exact {params}")
        kl = p * math.log2(p / t) + (1.0 - p) * math.log2((1.0 - p) / (1.0 - t))
        ceiling = (n * kl + 1.0) / (1.0 - eps)
        if not 0.0 <= d <= ceiling:
            return [f"bound: np {params} D={d!r} outside [0, (n D(P||Q) + 1)/(1-eps) = {ceiling!r}]"]
        return []

    def check(self, workload: str, op, output) -> list[str]:
        if workload == "curve":
            return self.check_curve(op, output)
        if workload == "extend":
            return self.check_extend(op, output)
        return self.check_divergence(op, output)
