import math
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from unext import hypothesis_testing as ht
from unext import states
from unext.hypothesis_testing import (
    BinaryHypothesisPair,
    NPResult,
    _binomial_log2_masses,
    _solve_outcome_classes,
    commuting_dh,
    d_max_commuting,
    log2_fraction,
    np_divergence,
    np_divergence_exact,
    np_oracle,
)

NEG_INF = float("-inf")


def test_identical_hypotheses_closed_form():
    for p in (Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(19, 20), Fraction(1)):
        for n in (1, 4, 9, 1000):
            for eps in (0.0, 1e-300, 1e-12, 0.05, 0.3, 0.9):
                res = np_divergence(BinaryHypothesisPair(float(p), float(p), n), eps)
                assert abs(res.divergence - math.log2(1.0 / (1.0 - eps))) < 1e-12
                _, want = np_divergence_exact(p, p, n, Fraction(eps))
                assert abs(res.log2_beta - want.log2_beta) <= 1e-12, (p, n, eps)
                fields = (res.threshold_weight, res.gamma, res.achieved_type1)
                assert fields == (want.threshold_weight, want.gamma, want.achieved_type1)


def test_point_mass_true_hypothesis():
    # P concentrated on all-success; boundary randomization gives beta = 0.95 * 0.5
    res = np_divergence(BinaryHypothesisPair(1.0, 0.5, 1), 0.05)
    assert abs(res.beta - 0.475) < 1e-14
    assert abs(res.log2_beta - math.log2(0.475)) < 1e-12
    assert res.threshold_weight == 1
    assert abs(res.gamma - 0.95) < 1e-14


def test_boundary_randomization_hand_case():
    # accept the success class fully, then 2/3 of the failure class
    res = np_divergence(BinaryHypothesisPair(0.85, 0.75, 1), 0.05)
    assert abs(res.beta - 11.0 / 12.0) < 1e-14
    assert abs(res.log2_beta - math.log2(11.0 / 12.0)) < 1e-12
    assert res.threshold_weight == 0
    assert abs(res.gamma - 2.0 / 3.0) < 1e-14
    assert res.achieved_type1 <= 0.05 + 1e-12


def test_support_mismatch_paths():
    # alternative concentrated on all-failure: free-to-accept classes carry P mass 1 - 0.35^n
    res = np_divergence(BinaryHypothesisPair(0.65, 0.0, 3), 0.05)
    assert res.log2_beta == NEG_INF
    assert res.divergence == float("inf")

    res = np_divergence(BinaryHypothesisPair(0.65, 0.0, 3), 0.01)
    expected_beta = (0.35**3 - 0.01) / 0.35**3
    assert abs(res.beta - expected_beta) < 1e-12

    # both distributions are the same point mass
    res = np_divergence(BinaryHypothesisPair(0.0, 0.0, 5), 0.2)
    assert abs(res.beta - 0.8) < 1e-14


def test_eps_zero_full_support():
    res = np_divergence(BinaryHypothesisPair(0.3, 0.7, 4), 0.0)
    assert abs(res.beta - 1.0) < 1e-12
    assert abs(res.divergence) < 1e-12
    assert res.achieved_type1 <= 1e-12


def test_eps_one_rejected():
    with pytest.raises(ValueError):
        np_divergence(BinaryHypothesisPair(0.5, 0.4, 2), 1.0)
    with pytest.raises(ValueError):
        BinaryHypothesisPair(1.2, 0.4, 2)
    with pytest.raises(ValueError):
        BinaryHypothesisPair(0.5, 0.4, 0)


def test_monotone_in_eps():
    hyp = BinaryHypothesisPair(0.8, 0.55, 6)
    values = [np_divergence(hyp, e).divergence for e in (0.0, 0.01, 0.05, 0.2, 0.45)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_oracle_agreement_small_grid():
    # reduced grid here; the full acceptance grid lives in test_acceptance
    probs = (0.05, 0.5, 0.95)
    for p in probs:
        for t in probs:
            for eps in (0.0, 0.05, 0.3):
                for n in (1, 3, 5):
                    res = np_divergence(BinaryHypothesisPair(p, t, n), eps)
                    ref = np_oracle(BinaryHypothesisPair(p, t, n), eps)
                    if ref == NEG_INF:
                        assert res.log2_beta == NEG_INF
                    else:
                        assert abs(res.log2_beta - ref) <= 1e-12, (p, t, eps, n)


def test_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        np_oracle(BinaryHypothesisPair(0.5, 0.4, 11), 0.1)


def test_exact_engine_matches_log_engine():
    cases = [
        (Fraction(17, 20), Fraction(3, 4), 50),
        (Fraction(13, 20), Fraction(1, 2), 50),
        (Fraction(3, 10), Fraction(3, 5), 64),
    ]
    for p, t, n in cases:
        beta, exact_res = np_divergence_exact(p, t, n, Fraction(1, 20))
        log_res = np_divergence(BinaryHypothesisPair(float(p), float(t), n), 0.05)
        assert beta > 0
        rel = abs(2.0 ** (log_res.log2_beta - exact_res.log2_beta) - 1.0)
        assert rel < 1e-9, (p, t, n, rel)


def test_exact_engine_degenerate_inputs_match_oracle():
    # point masses, identical hypotheses and eps = 0 take the merged-key paths
    probs = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 7))
    for p in probs:
        for t in probs:
            for eps in (Fraction(0), Fraction(1, 20), Fraction(1, 3)):
                for n in (1, 2, 5, 10):
                    if 0 < p < 1 and 0 < t < 1 and p != t and eps > 0:
                        continue
                    beta, res = np_divergence_exact(p, t, n, eps)
                    ref = np_oracle(BinaryHypothesisPair(float(p), float(t), n), float(eps))
                    if ref == NEG_INF:
                        assert beta == 0 and res.log2_beta == NEG_INF, (p, t, eps, n)
                    else:
                        assert abs(res.log2_beta - ref) <= 1e-12, (p, t, eps, n)
                    assert res.achieved_type1 <= float(eps) + 1e-15


def _reference_exact(p, t, n, eps):
    """The exact optimum from first principles: Fraction masses, classes by ratio, the fill.

    Returns beta and the NPResult fields np_divergence_exact must equal.
    """
    classes = {}  # ratio -> [true mass, alternative mass, smallest w]
    for w in range(n + 1):
        pm = math.comb(n, w) * p**w * (1 - p) ** (n - w)
        qm = math.comb(n, w) * t**w * (1 - t) ** (n - w)
        if pm:
            merged = classes.setdefault(pm / qm if qm else math.inf, [0, 0, w])
            merged[0] += pm
            merged[1] += qm
    remaining, beta, gamma = 1 - eps, Fraction(0), 1.0
    for ratio in sorted(classes, reverse=True):
        pm, qm, weight = classes[ratio]
        if pm > remaining:
            gamma = float(remaining / pm)
            beta += remaining / pm * qm
            remaining = 0
            break
        beta += qm
        remaining -= pm
        if remaining == 0:
            break
    return beta, weight, gamma, float(eps + remaining)


def test_exact_engine_matches_the_reference_bit_for_bit():
    # p < t, p > t, point masses, p = t and eps = 0, denominators 2 to 1000
    rng = np.random.default_rng(22)
    probs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(17, 20)]
    probs += [Fraction(1, 1000), Fraction(999, 1000)]
    probs += [Fraction(int(rng.integers(1, d)), d) for d in rng.integers(2, 1001, size=4).tolist()]
    epss = [Fraction(0), Fraction(1, 20), Fraction(1, 3), Fraction(997, 1000), Fraction(1, 10**30)]
    cases = [(p, t, n, eps) for p in probs for t in probs for eps in epss for n in (1, 2, 7, 40)]
    cases += [(p, t, 200, eps) for p in probs[:6] for t in probs[:6] for eps in epss[:3]]
    for p, t, n, eps in cases:
        beta, res = np_divergence_exact(p, t, n, eps)
        fields = (res.threshold_weight, res.gamma, res.achieved_type1)
        assert (beta, *fields) == _reference_exact(p, t, n, eps), (p, t, n, eps)


def test_engines_return_python_floats():
    log_res = np_divergence(BinaryHypothesisPair(0.85, 0.6, 3000), 0.05)
    _, exact_res = np_divergence_exact(Fraction(17, 20), Fraction(3, 5), 300, Fraction(1, 20))
    for res in (log_res, exact_res):
        assert type(res.log2_beta) is float
        assert type(res.gamma) is float
        assert type(res.achieved_type1) is float
        assert type(res.threshold_weight) is int


# (p, t) and eps that take the window, its fallback and the degenerate paths
PAIRS = [(0.5, 0.5), (0.3, 0.3 + 1e-7), (0.6, 0.0), (1.0, 0.4), (0.99, 0.01), (0.85, 0.6)]
PAIRS.append((0.3, 0.6))
EPSS = (0.0, 1e-300, 1e-30, 1e-17, 1e-12, 1e-6, 0.01, 0.05, 0.3, 0.9)


def _bits(res):
    floats = (res.log2_beta, res.gamma, res.achieved_type1)
    return res.threshold_weight, [x.hex() for x in floats]


def test_window_matches_full_class_list_bit_for_bit(monkeypatch):
    # the windowed fill, when certified, must return exactly what the fill on
    # all n + 1 classes returns; the fallback returns it by construction.
    # Identical hypotheses take the closed form, checked against the exact engine
    certified = []
    window_certified = ht._window_certified

    def spy(*args):
        certified.append(window_certified(*args))
        return certified[-1]

    monkeypatch.setattr(ht, "_window_certified", spy)
    cases = [(p, t, n, eps) for p, t in PAIRS if p != t for eps in EPSS for n in (1, 9, 120, 1000)]
    cases += [(0.85, 0.6, 20000, 0.05), (0.01, 0.99, 20000, 0.3), (0.3, 0.3 + 1e-7, 20000, 0.9)]
    for p, t, n, eps in cases:
        got = np_divergence(BinaryHypothesisPair(p, t, n), eps)
        full = _solve_outcome_classes(
            _binomial_log2_masses(n, p).tolist(),
            _binomial_log2_masses(n, t).tolist(),
            list(range(n + 1)),
            eps,
        )
        assert _bits(got) == _bits(full), (p, t, n, eps)
    assert sum(certified) >= 40, sum(certified)


def _kahan_append(total, comp, value):
    y = value - comp
    t = total + y
    return t, (t - total) - y


def _reference_solve_outcome_classes(log2_p, log2_q, weights, eps):
    """The dict-and-Kahan fill _solve_outcome_classes must reproduce bit for bit."""
    groups = {}
    for i, (lp, lq) in enumerate(zip(log2_p, log2_q)):
        if lp == NEG_INF:
            continue
        ratio = float("inf") if lq == NEG_INF else lp - lq
        groups.setdefault(ratio, []).append(i)

    merged = []
    for ratio, idx in groups.items():
        p_mass = 2.0 ** ht._log2_sum([log2_p[i] for i in idx])
        lq_group = ht._log2_sum([log2_q[i] for i in idx])
        merged.append((ratio, p_mass, lq_group, min(weights[i] for i in idx)))
    merged.sort(key=lambda g: g[0], reverse=True)

    target = 1.0 - eps
    suffixes = [0.0] * (len(merged) + 1)
    s_tot, s_comp = 0.0, 0.0
    for i in range(len(merged) - 1, -1, -1):
        s_tot, s_comp = _kahan_append(s_tot, s_comp, merged[i][1])
        suffixes[i] = s_tot
    offset = suffixes[0] - target

    cum, comp = 0.0, 0.0
    accepted_q = []
    gamma = 1.0
    boundary_weight = merged[0][3] if merged else 0
    boundary_lq = NEG_INF
    for i, (ratio, p_mass, lq_group, wmin) in enumerate(merged):
        remaining = suffixes[i] - offset
        if remaining <= 0.0:
            break
        boundary_weight = wmin
        if p_mass <= remaining or remaining >= p_mass * (1.0 - 1e-9):
            accepted_q.append(lq_group)
            cum, comp = _kahan_append(cum, comp, p_mass)
            gamma = 1.0
            boundary_lq = NEG_INF
        else:
            gamma = remaining / p_mass
            boundary_lq = lq_group
            cum, comp = _kahan_append(cum, comp, gamma * p_mass)
            break

    terms = list(accepted_q)
    if boundary_lq != NEG_INF and gamma > 0.0:
        terms.append(math.log2(gamma) + boundary_lq)
    return NPResult(
        log2_beta=min(0.0, ht._log2_sum(terms)),
        threshold_weight=int(boundary_weight),
        gamma=min(max(gamma, 0.0), 1.0),
        achieved_type1=max(0.0, 1.0 - cum),
    )


def _assert_fill_matches_reference(log2_p, log2_q, weights, eps, case):
    got = _solve_outcome_classes(log2_p, log2_q, weights, eps)
    want = _reference_solve_outcome_classes(
        np.asarray(log2_p, dtype=float).tolist(),
        np.asarray(log2_q, dtype=float).tolist(),
        np.asarray(weights).tolist(),
        eps,
    )
    assert type(got.threshold_weight) is int
    assert _bits(got) == _bits(want), case


def test_fill_matches_the_dict_and_kahan_fill_bit_for_bit():
    # binomial windows and full class lists over PAIRS and EPSS; the
    # reference takes up to 0.1 s on a full list of 20001 classes and
    # 0.7 s on 150001, so those are filled whole at one eps, and the largest
    # only for one pair of each kind: all ratios equal, all distinct, and one
    # group of all classes but one at ratio +inf
    whole_at_150000 = {(0.5, 0.5), (0.85, 0.6), (0.6, 0.0)}
    for p, t in PAIRS:
        for n in [*range(1, 121), 1000, 20000, 150000]:
            log2_p, log2_q = _binomial_log2_masses(n, (p, t))
            for eps in EPSS:
                if n <= 1000 or eps == 0.05 and (n == 20000 or (p, t) in whole_at_150000):
                    whole = (log2_p, log2_q, np.arange(n + 1))
                    _assert_fill_matches_reference(*whole, eps, (p, t, n, eps))
                if eps == 0.0:
                    continue
                lo, hi = np.flatnonzero(log2_p >= math.log2(eps) - ht._WINDOW_BITS)[[0, -1]]
                if hi - lo < n:
                    window = (log2_p[lo : hi + 1], log2_q[lo : hi + 1], np.arange(lo, hi + 1))
                    _assert_fill_matches_reference(*window, eps, (p, t, n, eps, lo, hi))

    # random class lists with exact ratio ties, zero masses on either side or
    # both, and unsorted weights; dyadic log2 masses keep the ties exact
    rng = np.random.default_rng(17)
    for trial in range(2000):
        size = int(rng.integers(1, 60))
        ratios = rng.integers(-16, 17, size=int(rng.integers(1, 6))) / 4.0
        log2_p = -rng.integers(0, 64, size=size) / 8.0 - rng.integers(0, 8)
        log2_q = log2_p - rng.choice(ratios, size=size)
        fresh = rng.random(size) < 0.3
        log2_p[fresh] = -30.0 * rng.random(int(fresh.sum()))
        log2_p[rng.random(size) < 0.1] = NEG_INF
        log2_q[rng.random(size) < 0.1] = NEG_INF
        weights = rng.permutation(size) + int(rng.integers(0, 100))
        eps = float(rng.choice([0.0, 1e-300, 1e-12, 0.05, 0.3, 0.9, rng.random()]))
        _assert_fill_matches_reference(log2_p, log2_q, weights, eps, trial)

    for eps in (0.0, 0.05):
        _assert_fill_matches_reference([], [], [], eps, "empty")
        _assert_fill_matches_reference([NEG_INF], [0.0], [3], eps, "no true mass")


def test_fill_matches_the_dict_and_kahan_fill_on_lumped_classes(monkeypatch):
    # the lumped outcome lists commuting_dh fills for the criterion-03 pairs
    lumped = []
    fill = ht._solve_outcome_classes

    def spy(*args):
        lumped.append(args)
        return fill(*args)

    monkeypatch.setattr(ht, "_solve_outcome_classes", spy)
    powers = [(states.depolarizing_choi(0.15), states.isotropic(0.75, 2), n) for n in range(1, 7)]
    powers += [(states.erasure_output(0.35), states.erasure_family(0.5), n) for n in range(1, 5)]
    for rho, sig, n in powers:
        commuting_dh(states.tensor_power(rho, n), states.tensor_power(sig, n), 0.05)
    assert len(lumped) == len(powers)
    for args in lumped:
        _assert_fill_matches_reference(*args, args)


def _reference_log2_masses(n, s):
    """The per-class recursion _binomial_log2_masses must reproduce bit for bit."""
    masses = np.full(n + 1, NEG_INF)
    if s == 0.0:
        masses[0] = 0.0
        return masses
    if s == 1.0:
        masses[n] = 0.0
        return masses
    log2_s = math.log2(s)
    log2_f = math.log2(1.0 - s)
    log2_c = 0.0
    for w in range(n + 1):
        masses[w] = log2_c + w * log2_s + (n - w) * log2_f
        if w < n:
            log2_c += math.log2(n - w) - math.log2(w + 1)
    return masses


def test_binomial_masses_match_the_recursion_bit_for_bit():
    rng = np.random.default_rng(12)
    fixed = (1e-300, 1e-12, 0.5, 1 - 1e-12, 0.0, 1.0)
    edges = [ht._MASS_BLOCK - 1, ht._MASS_BLOCK, ht._MASS_BLOCK + 1, 2 * ht._MASS_BLOCK + 1]
    sizes = list(range(1, 601)) + [1500, 5000, 10000, 20000, 60000, 150000, 10**6] + edges
    for n in sizes:
        probs = (*fixed, float(rng.random()))
        want = [_reference_log2_masses(n, s) for s in probs]
        for s, ref in zip(probs, want):
            assert np.array_equal(_binomial_log2_masses(n, s), ref), (n, s)
        # rows computed in one call share the running log2 C(n, w)
        rows = _binomial_log2_masses(n, probs)
        assert rows.shape == (len(probs), n + 1)
        assert all(np.array_equal(row, ref) for row, ref in zip(rows, want)), n


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_binomial_masses_scratch_stays_block_sized():
    n = 10**6
    peak = _peak_bytes(lambda: _binomial_log2_masses(n, 0.37))
    assert peak <= 8 * (n + 1) + 2 * 2**20, peak
    peak = _peak_bytes(lambda: _binomial_log2_masses(n, (0.37, 0.6)))
    assert peak <= 16 * (n + 1) + 2 * 2**20, peak


def test_np_divergence_holds_two_mass_rows_and_block_scratch():
    # the two mass rows are the only full-length arrays: the fill runs on the
    # window and the certificate reads the dropped tails block by block
    n = 150000
    peak = _peak_bytes(lambda: np_divergence(BinaryHypothesisPair(0.85, 0.7, n), 0.05))
    assert peak <= 16 * (n + 1) + 2**20, peak


def test_log2_fraction_handles_huge_values():
    fr = Fraction(3**400, 7**350)
    expected = 400 * math.log2(3) - 350 * math.log2(7)
    assert abs(log2_fraction(fr) - expected) < 1e-9


def test_lumping_never_increases_divergence():
    # data processing: merging adjacent weight classes can only lose power
    hyp = BinaryHypothesisPair(0.85, 0.6, 4)
    eps = 0.05
    base = np_divergence(hyp, eps).divergence

    def masses(s):
        w = np.arange(5)
        c = np.array([math.comb(4, int(i)) for i in w], dtype=float)
        return c * s**w * (1 - s) ** (4 - w)

    p_mass, q_mass = masses(0.85), masses(0.6)
    for cut in range(4):  # merge classes cut and cut+1
        pm = list(p_mass)
        qm = list(q_mass)
        pm[cut] += pm.pop(cut + 1)
        qm[cut] += qm.pop(cut + 1)
        res = _solve_outcome_classes(
            [math.log2(x) for x in pm], [math.log2(x) for x in qm], list(range(4)), eps
        )
        assert res.divergence <= base + 1e-12


def test_divergence_dominated_by_d_max():
    pairs = [
        (states.depolarizing_choi(0.15), states.isotropic(0.75, 2)),
        (states.erasure_output(0.35), states.erasure_family(0.5)),
        (states.isotropic(0.9, 2), states.isotropic(0.55, 2)),
    ]
    for eps in (0.0, 0.05, 0.3):
        for rho, sig in pairs:
            dh = commuting_dh(rho, sig, eps)
            dmax = d_max_commuting(rho, sig)
            assert dh <= dmax + math.log2(1.0 / (1.0 - eps)) + 1e-9


def test_commuting_dh_identical_states():
    rho = states.depolarizing_choi(0.2)
    for eps in (0.05, 0.3):
        assert abs(commuting_dh(rho, rho, eps) - math.log2(1 / (1 - eps))) < 1e-12


def _dense(power):
    return states.DensityMatrix(power.matrix, power.dims)


def test_commuting_dh_matches_binary_reduction_small():
    eps = 0.05
    for n in (1, 2, 3, 4):
        rho = states.tensor_power(states.depolarizing_choi(0.15), n)
        sig = states.tensor_power(states.isotropic(0.75, 2), n)
        got = commuting_dh(rho, sig, eps)
        want = np_divergence(BinaryHypothesisPair(0.85, 0.75, n), eps).divergence
        assert abs(got - want) < 1e-9, n
        # the factored path agrees with diagonalizing the dense power
        assert abs(got - commuting_dh(_dense(rho), _dense(sig), eps)) < 1e-9, n
        assert abs(d_max_commuting(rho, sig) - d_max_commuting(_dense(rho), _dense(sig))) < 1e-9, n

    for n in (1, 2, 3):
        rho = states.tensor_power(states.erasure_output(0.35), n)
        sig = states.tensor_power(states.erasure_family(0.5), n)
        got = commuting_dh(rho, sig, eps)
        want = np_divergence(BinaryHypothesisPair(0.65, 0.5, n), eps).divergence
        assert abs(got - want) < 1e-9, n
        assert abs(got - commuting_dh(_dense(rho), _dense(sig), eps)) < 1e-9, n
        assert abs(d_max_commuting(rho, sig) - d_max_commuting(_dense(rho), _dense(sig))) < 1e-9, n


def test_joint_spectrum_types_match_a_per_type_loop():
    # the type counts come from one bincount over all types; a bincount per
    # type, in combinations_with_replacement order, is the reference
    pairs = [(states.depolarizing_choi(0.15), states.isotropic(0.75, 2), n) for n in (1, 2, 5)]
    pairs += [(states.erasure_output(0.35), states.erasure_family(0.5), n) for n in (1, 3)]
    for rho, sig, n in pairs:
        r, s = ht._co_diagonalize(rho, sig)
        m = len(r)
        counts = np.array(
            [np.bincount(c, minlength=m) for c in combinations_with_replacement(range(m), n)]
        )
        factorial = np.array([math.factorial(c) for c in range(n + 1)], dtype=float)
        want = (
            np.prod(np.clip(r, 0.0, None) ** counts, axis=1),
            np.prod(np.clip(s, 0.0, None) ** counts, axis=1),
            factorial[n] / np.prod(factorial[counts], axis=1),
        )
        got = ht._joint_spectrum(states.tensor_power(rho, n), states.tensor_power(sig, n))
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (m, n)


def test_commuting_dh_rejects_noncommuting():
    plus = np.ones((2, 2), dtype=complex) / 2
    rho = states.DensityMatrix(np.kron(plus, plus), (2, 2))
    sig = states.isotropic(0.75, 2)
    with pytest.raises(ValueError):
        commuting_dh(rho, sig, 0.05)
    for n in (2, 3):
        with pytest.raises(ValueError, match="do not commute"):
            commuting_dh(states.tensor_power(rho, n), states.tensor_power(sig, n), 0.05)
        with pytest.raises(ValueError, match="do not commute"):
            d_max_commuting(states.tensor_power(rho, n), states.tensor_power(sig, n))
    # powers of unequal n live on different dims
    choi = states.depolarizing_choi(0.15)
    with pytest.raises(ValueError, match="dimension mismatch"):
        commuting_dh(states.tensor_power(choi, 2), states.tensor_power(sig, 3), 0.05)
    with pytest.raises(ValueError, match="dimension mismatch"):
        d_max_commuting(states.tensor_power(choi, 3), states.tensor_power(sig, 2))


def test_d_max_spot_values():
    rho = states.depolarizing_choi(0.15)
    assert abs(d_max_commuting(rho, rho)) < 1e-12
    phi = states.max_entangled(2)
    for t in (0.4, 0.75, 0.9):
        assert abs(d_max_commuting(phi, states.isotropic(t, 2)) - math.log2(1.0 / t)) < 1e-10
    got = d_max_commuting(rho, states.isotropic(0.75, 2))
    assert abs(got - math.log2(0.85 / 0.75)) < 1e-10
    # support failure: sigma pure, rho full rank
    assert d_max_commuting(states.isotropic(0.75, 2), phi) == float("inf")


def test_np_result_invariants():
    res = np_divergence(BinaryHypothesisPair(0.7, 0.4, 8), 0.13)
    assert res.log2_beta <= 0.0
    assert 0.0 <= res.gamma <= 1.0
    assert 0 <= res.threshold_weight <= 8
    assert res.achieved_type1 <= 0.13 + 1e-12
    assert isinstance(res, NPResult)
