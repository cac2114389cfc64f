import math
from itertools import permutations

import numpy as np
import pytest

from unext import linalg
from unext.bounds import (
    INF,
    BoundQuery,
    antidegradable_bound,
    channel_bound,
    distillation_bound_bell_diagonal,
    interleaved_bound,
    max_log2_m,
    optimize_k,
    t_star,
)
from unext.extendibility import certificate_defects
from unext.hypothesis_testing import BinaryHypothesisPair, d_max_commuting, np_divergence
from unext.states import ChannelSpec, depolarizing_choi, isotropic, max_entangled

DEP = ChannelSpec("depolarizing", 0.15)
ERA = ChannelSpec("erasure", 0.35)


def test_threshold_table_shape():
    # the thresholds are the closed form t*(k) = (k + 1) / (2k), and each one
    # is k-extendible: the symmetric-subspace (optimal cloning) extension of
    # the maximally entangled pair reduces to isotropic(t*(k), 2) on (A, B_i)
    for k in (2, 3, 4, 5, 8, 1024):
        assert t_star(k) == ((k + 1) / (2 * k), "closed-form")
    assert t_star(INF) == (0.5, "limit")
    for k in (2, 3, 4, 5):
        p_sym = sum(linalg.permutation_operator(2, k, perm) for perm in permutations(range(k)))
        p_sym = linalg.kron(np.eye(2), p_sym / math.factorial(k))
        cloned = p_sym @ linalg.kron(max_entangled(2).matrix, np.eye(2 ** (k - 1))) @ p_sym
        cert = cloned / np.trace(cloned)
        defects = certificate_defects(cert, isotropic(t_star(k)[0], 2), k)
        assert max(defects.values()) <= 1e-12, (k, defects)


def test_max_log2_m_edges():
    assert max_log2_m(0.0, 2) == 0.0
    assert max_log2_m(0.0, 17) == 0.0
    assert max_log2_m(5.0, 2) == INF  # 2^-5 < 1/2: vacuous
    assert max_log2_m(2.0, INF) == 2.0
    # hand case: D = -log2(11/12), k = 2 -> log2(0.5 / (11/12 - 1/2)) = log2(1.2)
    d = -math.log2(11.0 / 12.0)
    assert abs(max_log2_m(d, 2) - math.log2(1.2)) < 1e-12
    with pytest.raises(ValueError):
        max_log2_m(-0.1, 2)
    with pytest.raises(ValueError):
        max_log2_m(1.0, 1)


def test_depolarizing_chain_spot_value():
    res = channel_bound(BoundQuery(DEP, 1, 0.05, 2, sigma_param=0.75))
    assert abs(res.rate_bound - math.log2(1.2)) < 1e-9
    assert res.method == "post-processing"
    assert res.sigma_provenance == "override"
    assert abs(res.divergence - math.log2(12.0 / 11.0)) < 1e-12


def test_depolarizing_limit_consistency():
    for n in (1, 3, 10):
        res = channel_bound(BoundQuery(DEP, n, 0.05, INF, sigma_param=0.5))
        direct = np_divergence(BinaryHypothesisPair(0.85, 0.5, n), 0.05).divergence
        assert res.rate_bound == direct / n
        assert res.method == "limit"


def test_depolarizing_override_validation():
    with pytest.raises(ValueError):
        channel_bound(BoundQuery(DEP, 1, 0.05, 2, sigma_param=0.80))
    with pytest.raises(ValueError):
        channel_bound(BoundQuery(DEP, 1, 0.05, 2, sigma_param=0.7501))
    with pytest.raises(ValueError):
        channel_bound(BoundQuery(DEP, 1, 0.05, INF, sigma_param=0.51))


def test_depolarizing_extendible_choi_regime():
    # 1 - p below the threshold: the Choi state itself is admissible, so the
    # divergence collapses to the identical-hypotheses floor at t = 1 - p
    chan = ChannelSpec("depolarizing", 0.35)  # 1 - p = 0.65 < t*(2)
    res = channel_bound(BoundQuery(chan, 1, 0.05, 2, sigma_param=0.65))
    floor = math.log2(1.0 / 0.95)
    assert abs(res.divergence - floor) < 1e-12
    ceiling = max_log2_m(floor, 2)
    assert abs(res.rate_bound - ceiling) < 1e-12


def test_erasure_bound_values():
    # p = 1/2, k = 2: reference equals the channel output, divergence floor
    chan = ChannelSpec("erasure", 0.5)
    res = channel_bound(BoundQuery(chan, 1, 0.05, 2))
    assert abs(res.rate_bound - math.log2(0.5 / 0.45)) < 1e-12
    assert res.sigma_param_used == 0.5
    assert res.sigma_provenance == "constructive"

    res = channel_bound(BoundQuery(ERA, 1, 0.05, 2))
    direct = np_divergence(BinaryHypothesisPair(0.65, 0.5, 1), 0.05)
    expected = max_log2_m(direct.divergence, 2)
    assert abs(res.rate_bound - expected) < 1e-12

    # full erasure: support-mismatch path; k = 2 is always vacuous there
    # (beta = (1-eps)/2 < 1/2) while k = 3 stays finite for eps < 1/2
    res = channel_bound(BoundQuery(ChannelSpec("erasure", 1.0), 1, 0.05, 2))
    assert res.rate_bound == INF
    res = channel_bound(BoundQuery(ChannelSpec("erasure", 1.0), 1, 0.05, 3))
    beta = 0.95 * (2.0 / 3.0)
    assert abs(res.rate_bound - math.log2((2.0 / 3.0) / (beta - 1.0 / 3.0))) < 1e-12


def test_erasure_override_validation():
    with pytest.raises(ValueError):
        channel_bound(BoundQuery(ERA, 1, 0.05, 2, sigma_param=0.4))  # below 1 - 1/k
    res = channel_bound(BoundQuery(ERA, 1, 0.05, 2, sigma_param=0.6))
    assert res.sigma_provenance == "override"


def test_distillation_matches_choi_bound():
    for n in (1, 2, 4):
        for k in (2, 3, 5, INF):
            d1 = distillation_bound_bell_diagonal((0.85, 0.05, 0.05, 0.05), n, 0.05, k)
            d2 = channel_bound(BoundQuery(DEP, n, 0.05, k))
            assert d1.rate_bound == d2.rate_bound
            assert d1.divergence == d2.divergence


def test_distillation_floor_and_pure_state():
    t2 = t_star(2)[0]
    res = distillation_bound_bell_diagonal((t2, (1 - t2) / 3, (1 - t2) / 3, (1 - t2) / 3), 1, 0.05, 2)
    assert abs(res.divergence - math.log2(1.0 / 0.95)) < 1e-12

    pure = distillation_bound_bell_diagonal((1.0, 0.0, 0.0, 0.0), 1, 0.0, 2)
    assert abs(pure.divergence - (-math.log2(t2))) < 1e-12
    assert abs(pure.rate_bound - math.log2(0.5 / (t2 - 0.5))) < 1e-12
    assert abs(pure.rate_bound - 1.0) < 0.01  # hand value at the ideal threshold


def test_distillation_rejects_malformed_spectra():
    with pytest.raises(ValueError):
        distillation_bound_bell_diagonal((0.7, 0.2, 0.05, 0.05), 1, 0.05, 2)
    with pytest.raises(ValueError):
        distillation_bound_bell_diagonal((0.7, 0.1, 0.1, 0.2), 1, 0.05, 2)
    with pytest.raises(ValueError):
        distillation_bound_bell_diagonal((0.5, 0.5), 1, 0.05, 2)


def test_interleaved_bound_values():
    res = interleaved_bound(BoundQuery(DEP, 1, 0.05, 2))
    t2 = t_star(2)[0]
    expected_e = math.log2(0.85 / t2)
    assert abs((res.divergence - math.log2(1 / 0.95)) - expected_e) < 1e-10
    assert res.method == "interleaved"

    # sigma = Choi regime (1 - p below the threshold): zero max-divergence
    # rate, pure eps floor
    low_noise = ChannelSpec("depolarizing", 0.3)
    res = interleaved_bound(BoundQuery(low_noise, 2, 0.05, 2))
    assert abs(res.divergence - math.log2(1 / 0.95)) < 1e-12
    assert abs(res.rate_bound - max_log2_m(math.log2(1 / 0.95), 2) / 2) < 1e-12


def test_interleaved_closed_form_matches_the_dense_states():
    # at n = 1 and eps = 0 the divergence is D_max(Choi || isotropic(t_sel)) alone
    for k in (2, 3, 5, 16, INF):
        for p in np.linspace(0.0, 1.0, 41)[:-1]:
            res = interleaved_bound(BoundQuery(ChannelSpec("depolarizing", float(p)), 1, 0.0, k))
            sigma = isotropic(res.sigma_param_used, 2)
            dense = max(0.0, d_max_commuting(depolarizing_choi(float(p)), sigma))
            assert abs(res.divergence - dense) <= 1e-12, (p, k)


def test_interleaved_asymptotics_at_limit_order():
    e_inf = math.log2(0.85 / 0.5)
    rates = []
    for n in (1, 5, 20, 100):
        res = interleaved_bound(BoundQuery(DEP, n, 0.05, INF))
        rates.append(res.rate_bound)
        assert abs(res.rate_bound - (e_inf + math.log2(1 / 0.95) / n)) < 1e-12
    assert rates == sorted(rates, reverse=True)  # monotone down to E


def test_interleaved_finite_at_single_use_for_all_orders():
    # the max-divergence part is finite for every finite order (t > 0), and a
    # single use stays below the vacuity threshold for all of them
    for k in (2, 3, 5, 8, 16, 64):
        res = interleaved_bound(BoundQuery(DEP, 1, 0.05, k))
        assert 0.0 <= res.rate_bound < INF, k
        assert res.divergence < INF


def test_interleaved_goes_vacuous_at_finite_order():
    finite = [n for n in range(1, 101) if interleaved_bound(BoundQuery(DEP, n, 0.05, 2)).rate_bound != INF]
    assert finite  # some prefix is finite
    assert finite == list(range(1, len(finite) + 1))  # vacuity is monotone in n
    assert len(finite) < 100


def test_antidegradable_closed_form():
    assert antidegradable_bound(1, 0.0).rate_bound == 0.0
    assert abs(antidegradable_bound(1, 0.05).rate_bound - math.log2(1 / 0.9)) < 1e-12
    assert abs(antidegradable_bound(10, 0.25).rate_bound - 0.1) < 1e-12
    with pytest.raises(ValueError):
        antidegradable_bound(1, 0.5)
    # agrees with the generic inversion at order 2
    chained = max_log2_m(math.log2(1 / 0.95), 2)
    assert abs(antidegradable_bound(1, 0.05).rate_bound - chained) < 1e-12


def test_optimize_k_never_beats_limit_and_prefers_small_k():
    for n in (1, 2, 5, 20):
        opt = optimize_k(DEP, n, 0.05)
        lim = channel_bound(BoundQuery(DEP, n, 0.05, INF))
        assert opt.rate_bound <= lim.rate_bound + 1e-12
    # strict win at n = 2 with a small order
    opt2 = optimize_k(DEP, 2, 0.05)
    lim2 = channel_bound(BoundQuery(DEP, 2, 0.05, INF))
    assert lim2.rate_bound - opt2.rate_bound > 1e-3
    assert opt2.k_used != INF
    assert opt2.k_used <= 8


def test_optimize_k_monotone_in_k_max():
    r16 = optimize_k(DEP, 10, 0.05, k_max=16).rate_bound
    r64 = optimize_k(DEP, 10, 0.05, k_max=64).rate_bound
    r256 = optimize_k(DEP, 10, 0.05, k_max=256).rate_bound
    assert r64 <= r16 + 1e-12
    assert r256 <= r64 + 1e-12


def test_optimize_k_all_vacuous_returns_limit():
    res = optimize_k(ERA, 50, 0.05, k_max=64)
    assert res.rate_bound == INF
    assert res.method == "limit"


def _erasure_rates_to_256():
    """Rates of erasure(0.6) at n = 100, eps = 0.05 for k = 2..256, by k."""
    channel = ChannelSpec("erasure", 0.6)
    return {k: channel_bound(BoundQuery(channel, 100, 0.05, k)).rate_bound for k in range(2, 257)}


def test_erasure_has_a_finite_order_between_vacuous_grid_orders():
    rates = _erasure_rates_to_256()
    assert min(rates, key=rates.get) == 3
    assert abs(rates[3] - 0.012736) < 1e-6
    assert all(rates[2**j] == INF for j in range(1, 9))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: every doubling-grid order is vacuous here, so the "
    "refine window never runs and k = 3 is never tried",
)
def test_optimize_k_finds_a_finite_order_between_vacuous_grid_orders():
    best = min(_erasure_rates_to_256().values())
    assert optimize_k(ChannelSpec("erasure", 0.6), 100, 0.05, k_max=256).rate_bound == best


def test_optimize_k_carries_its_limiting_result():
    for channel in (DEP, ERA):
        for n in (1, 7, 50):
            opt = optimize_k(channel, n, 0.05, k_max=64)
            assert opt.limit == channel_bound(BoundQuery(channel, n, 0.05, INF)), (channel, n)
            assert opt.limit.limit is None


def test_vacuity_monotone_in_n_for_fixed_k():
    finite = [
        n
        for n in range(1, 51)
        if channel_bound(BoundQuery(DEP, n, 0.05, 2)).rate_bound != INF
    ]
    assert finite == list(range(1, len(finite) + 1))
    # beta per copy count is non-increasing, so once vacuous always vacuous
    assert len(finite) < 50


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(DEP, 0, 0.05, 2)
    with pytest.raises(ValueError):
        BoundQuery(DEP, 1, 1.0, 2)
    with pytest.raises(ValueError):
        BoundQuery(DEP, 1, 0.05, 1)
    with pytest.raises(ValueError):
        BoundQuery(DEP, 1, 0.05, 2.5)
