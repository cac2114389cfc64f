"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line (visible with pytest -s) after its
assertions hold. Criteria with a stated wall-clock budget assert it too.
The commuting-reduction criterion evaluates tensor powers up to dimension
4096; their joint spectrum comes from the single-copy pair (at most 126
outcome types here), so it takes milliseconds.
"""

import math
import time
from fractions import Fraction

import numpy as np

from unext import bounds as bounds_mod
from unext import extendibility as ext
from unext import hypothesis_testing as ht
from unext import states
from unext.bounds import INF, BoundQuery, antidegradable_bound, depolarizing_bound, erasure_bound, optimize_k
from unext.extendibility import ExtensionProblem, VerdictStatus, check_k_extendible
from unext.states import ChannelSpec

NEG_INF = float("-inf")


def _ok(label: str, detail: str = "") -> None:
    print(f"PASS {label}{': ' + detail if detail else ''}")


def test_criterion_01_oracle_agreement():
    start = time.monotonic()
    worst = 0.0
    cases = 0
    for p in (0.05, 0.25, 0.5, 0.75, 0.95):
        for t in (0.05, 0.25, 0.5, 0.75, 0.95):
            for eps in (0.0, 0.05, 0.3):
                for n in range(1, 9):
                    cases += 1
                    res = ht.np_divergence(ht.BinaryHypothesisPair(p, t, n), eps)
                    ref = ht.np_oracle(ht.BinaryHypothesisPair(p, t, n), eps)
                    if ref == NEG_INF or res.log2_beta == NEG_INF:
                        assert res.log2_beta == ref, (p, t, eps, n)
                    else:
                        delta = abs(res.log2_beta - ref)
                        worst = max(worst, delta)
                        assert delta <= 1e-12, (p, t, eps, n, delta)
    elapsed = time.monotonic() - start
    assert cases == 600
    assert elapsed < 10.0, f"grid took {elapsed:.1f}s, budget 10s"
    _ok("criterion 1 (oracle agreement)", f"600 cases, worst delta {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_identical_hypotheses_law():
    combos = [
        (p, n, eps)
        for p in (0.0, 0.3, 0.5, 0.85, 1.0)
        for n, eps in ((1, 0.0), (4, 0.05), (9, 0.3), (25, 0.45))
    ]
    assert len(combos) == 20
    worst = 0.0
    for p, n, eps in combos:
        res = ht.np_divergence(ht.BinaryHypothesisPair(p, p, n), eps)
        worst = max(worst, abs(res.divergence - math.log2(1.0 / (1.0 - eps))))
    assert worst <= 1e-12
    _ok("criterion 2 (identical-hypotheses law)", f"20 combos, worst deviation {worst:.2e}")


def test_criterion_03_commuting_reduction():
    worst = 0.0
    eps = 0.05
    for n in range(1, 13):
        rho = states.tensor_power(states.depolarizing_choi(0.15), n)
        sig = states.tensor_power(states.isotropic(0.75, 2), n)
        got = ht.commuting_dh(rho, sig, eps)
        want = ht.np_divergence(ht.BinaryHypothesisPair(0.85, 0.75, n), eps).divergence
        delta = abs(got - want)
        worst = max(worst, delta)
        assert delta <= 1e-9, ("depolarizing", n, delta)
    for n in range(1, 5):
        rho = states.tensor_power(states.erasure_output(0.35), n)
        sig = states.tensor_power(states.erasure_family(0.5), n)
        got = ht.commuting_dh(rho, sig, eps)
        want = ht.np_divergence(ht.BinaryHypothesisPair(0.65, 0.5, n), eps).divergence
        delta = abs(got - want)
        worst = max(worst, delta)
        assert delta <= 1e-9, ("erasure", n, delta)
    _ok("criterion 3 (commuting reduction)", f"worst delta {worst:.2e}")


def test_criterion_04_certificate_soundness():
    worst = 0.0
    for k in (2, 3, 4):
        cert = ext.erasure_certificate(k)
        target = states.erasure_family(1.0 - 1.0 / k)
        defects = ext.certificate_defects(cert, target, k)
        worst = max(worst, max(defects.values()))
        assert max(defects.values()) <= 1e-10, (k, defects)
    verdict = check_k_extendible(ExtensionProblem(states.parse_state_spec("erasure:0.5"), 2))
    assert verdict.status is VerdictStatus.FEASIBLE
    _ok("criterion 4 (certificate soundness)", f"worst defect {worst:.2e}")


def test_criterion_05_threshold_consistency():
    start = time.monotonic()
    rederived = {}
    for k, lo, hi in ((2, 0.55, 0.92), (3, 0.55, 0.92)):
        rederived[k] = ext.threshold_bisect(lambda t: states.isotropic(t, 2), k, lo, hi)
    fixtures = {k: bounds_mod.t_star(k)[0] for k in (2, 3)}
    for k in (2, 3):
        assert abs(rederived[k] - fixtures[k]) <= 0.01, (k, rederived[k], fixtures[k])
    assert fixtures[3] < fixtures[2] < 1.0
    for k in (2, 3):
        below = check_k_extendible(ExtensionProblem(states.isotropic(fixtures[k] - 0.05, 2), k))
        above = check_k_extendible(ExtensionProblem(states.isotropic(fixtures[k] + 0.05, 2), k))
        assert below.status is VerdictStatus.FEASIBLE, k
        assert above.status is VerdictStatus.INFEASIBLE_SIGNAL, k
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"threshold suite took {elapsed:.1f}s, budget 120s"
    _ok(
        "criterion 5 (threshold consistency)",
        f"t*(2)={rederived[2]:.4f}, t*(3)={rederived[3]:.4f}, {elapsed:.1f}s",
    )


def _fixed_qutrit_unitary() -> np.ndarray:
    rng = np.random.default_rng(20240815)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(m)
    return q


def test_criterion_06_free_channels_preserve_feasibility():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    combos = [
        (states.isotropic(0.70, 2), states.depolarizing_kraus(0.2), 2),
        (states.isotropic(0.70, 2), states.erasure_kraus(0.3), 2),
        (states.isotropic(0.70, 2), [hadamard], 2),
        (states.isotropic(0.60, 2), states.depolarizing_kraus(0.15), 3),
        (states.erasure_family(0.60), [_fixed_qutrit_unitary()], 2),
        (states.erasure_family(0.75), [_fixed_qutrit_unitary()], 3),
    ]
    assert len(combos) == 6
    for i, (rho, kraus, k) in enumerate(combos):
        v_in = check_k_extendible(ExtensionProblem(rho, k))
        assert v_in.status is VerdictStatus.FEASIBLE, f"combo {i}: input not feasible"
        out = states.apply_channel_b(rho, kraus)
        v_out = check_k_extendible(ExtensionProblem(out, k))
        assert v_out.status is VerdictStatus.FEASIBLE, f"combo {i}: output lost feasibility"
    _ok("criterion 6 (local channels preserve feasibility)", "6 combos")


def _dominance_sweep(channel: ChannelSpec, bound_fn) -> tuple[float, int]:
    best_margin = 0.0
    strict_n = 0
    for n in range(1, 51):
        opt = optimize_k(channel, n, 0.05)
        lim = bound_fn(BoundQuery(channel, n, 0.05, INF))
        if opt.rate_bound != INF or lim.rate_bound != INF:
            assert opt.rate_bound <= lim.rate_bound + 1e-12, (n, opt.rate_bound, lim.rate_bound)
        margin = lim.rate_bound - opt.rate_bound
        if margin > best_margin or (margin == INF and best_margin != INF):
            best_margin = margin
            strict_n = n
    assert best_margin >= 1e-3, f"no strict improvement found (best {best_margin})"
    return best_margin, strict_n


def test_criterion_07_depolarizing_dominance():
    start = time.monotonic()
    margin, at_n = _dominance_sweep(ChannelSpec("depolarizing", 0.15), depolarizing_bound)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget 60s"
    _ok(
        "criterion 7 (depolarizing dominance)",
        f"n=1..50, best margin {margin:.4f} qubits/use at n={at_n}, {elapsed:.1f}s",
    )


def test_criterion_08_erasure_dominance():
    margin, at_n = _dominance_sweep(ChannelSpec("erasure", 0.35), erasure_bound)
    _ok("criterion 8 (erasure dominance)", f"n=1..50, best margin {margin} at n={at_n}")


def test_criterion_09_closed_form_spot_values():
    anti = antidegradable_bound(1, 0.05)
    assert abs(anti.rate_bound - math.log2(1.0 / 0.9)) <= 1e-12
    chain = depolarizing_bound(
        BoundQuery(ChannelSpec("depolarizing", 0.15), 1, 0.05, 2, sigma_param=0.75)
    )
    assert abs(chain.rate_bound - math.log2(1.2)) <= 1e-9
    _ok("criterion 9 (closed-form spot values)")


def test_criterion_10_engine_cross_validation():
    cases = [
        (Fraction(17, 20), Fraction(3, 4)),
        (Fraction(13, 20), Fraction(1, 2)),
        (Fraction(3, 10), Fraction(3, 5)),
    ]
    worst = 0.0
    for n in (50, 100, 200, 1000, 3000):
        for p, t in cases:
            beta, exact_res = ht.np_divergence_exact(p, t, n, Fraction(1, 20))
            assert beta > 0
            log_res = ht.np_divergence(ht.BinaryHypothesisPair(float(p), float(t), n), 0.05)
            rel = abs(2.0 ** (log_res.log2_beta - exact_res.log2_beta) - 1.0)
            worst = max(worst, rel)
            assert rel <= 1e-9, (p, t, n, rel)
    _ok("criterion 10 (engine cross-validation)", f"worst relative beta gap {worst:.2e}")
