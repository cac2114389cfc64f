"""Exact binary hypothesis testing for product Bernoulli distributions.

The central object is the minimum type-II error beta of a test whose type-I
error is at most eps. For n iid copies the optimal test is constant on the
n+1 success-count classes, so the optimum is found exactly by sorting classes
by likelihood ratio and filling probability mass up to 1-eps, randomizing on
the boundary class. Everything runs in the log2 domain with compensated
summation so that n in the hundreds stays accurate; an exact big-rational
engine is provided for cross-validation, and a brute-force enumeration oracle
covers small n.

The same sort-and-fill core also evaluates the divergence for commuting pairs
of density matrices by reducing their joint spectrum to a classical outcome
list, and the max-relative entropy for commuting pairs comes from the largest
eigenvalue ratio. Two n-fold tensor powers are never diagonalized densely:
their joint spectrum is built from the single-copy pair, one outcome per
type (count of each factor eigenpair) weighted by its multinomial
multiplicity, so the cost is polynomial in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL
from .states import State, same_power

NEG_INF = float("-inf")
# sigma eigenvalues closer than this share one eigenspace in _co_diagonalize
_GROUP_TOL = 1e-9


@dataclass(frozen=True)
class BinaryHypothesisPair:
    """Per-copy success probabilities under the true and alternative hypotheses, and a copy count."""

    p_success: float
    t_success: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.p_success <= 1.0:
            raise ValueError(f"p_success {self.p_success} outside [0, 1]")
        if not 0.0 <= self.t_success <= 1.0:
            raise ValueError(f"t_success {self.t_success} outside [0, 1]")
        if self.n < 1:
            raise ValueError("copy count must be >= 1")


@dataclass(frozen=True)
class NPResult:
    """Optimal test summary: log2 of the minimum type-II error plus the boundary randomization."""

    log2_beta: float
    threshold_weight: int
    gamma: float
    achieved_type1: float

    @property
    def beta(self) -> float:
        return 2.0**self.log2_beta

    @property
    def divergence(self) -> float:
        """-log2(beta), in bits; +inf when beta = 0."""
        return -self.log2_beta


def _kahan_append(total: float, comp: float, value: float) -> tuple[float, float]:
    y = value - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _log2_sum(terms: Sequence[float]) -> float:
    """log2 of a sum of 2**term values, compensated; -inf for an empty sum."""
    finite = [t for t in terms if t != NEG_INF]
    if not finite:
        return NEG_INF
    m = max(finite)
    total, comp = 0.0, 0.0
    for t in finite:
        total, comp = _kahan_append(total, comp, 2.0 ** (t - m))
    return m + math.log2(total)


def _binomial_log2_masses(n: int, s: float) -> np.ndarray:
    """log2 of Binomial(n, s) masses over success counts 0..n; point masses at s in {0, 1}."""
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


def _solve_outcome_classes(
    log2_p: Sequence[float],
    log2_q: Sequence[float],
    weights: Sequence[int],
    eps: float,
) -> NPResult:
    """Sort-and-fill optimum over outcome classes given by log2 masses.

    Classes with equal likelihood ratio (exact float equality, infinities
    included) are merged before filling, which makes the boundary
    randomization weight unique. Classes carrying no mass under either
    hypothesis are dropped; classes with zero true-hypothesis mass are never
    accepted.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps {eps} outside [0, 1)")
    groups: dict[float, list[int]] = {}
    for i, (lp, lq) in enumerate(zip(log2_p, log2_q)):
        if lp == NEG_INF and lq == NEG_INF:
            continue
        if lp == NEG_INF:
            continue  # zero true-mass outcomes only ever add type-II error
        ratio = float("inf") if lq == NEG_INF else lp - lq
        groups.setdefault(ratio, []).append(i)

    merged = []
    for ratio, idx in groups.items():
        p_mass = 2.0 ** _log2_sum([log2_p[i] for i in idx])
        lq_group = _log2_sum([log2_q[i] for i in idx])
        merged.append((ratio, p_mass, lq_group, min(weights[i] for i in idx)))
    merged.sort(key=lambda g: g[0], reverse=True)

    target = 1.0 - eps
    # the acceptance budget left at class i equals target minus the accepted
    # prefix; computing it as suffix_i - (total - target) avoids the O(1)
    # cancellation that a running prefix subtraction would amplify on the
    # final, tiny classes
    suffixes = [0.0] * (len(merged) + 1)
    s_tot, s_comp = 0.0, 0.0
    for i in range(len(merged) - 1, -1, -1):
        s_tot, s_comp = _kahan_append(s_tot, s_comp, merged[i][1])
        suffixes[i] = s_tot
    offset = suffixes[0] - target

    cum, comp = 0.0, 0.0
    accepted_q: list[float] = []
    gamma = 1.0
    boundary_weight = merged[0][3] if merged else 0
    boundary_lq = NEG_INF
    for i, (ratio, p_mass, lq_group, wmin) in enumerate(merged):
        remaining = suffixes[i] - offset
        if remaining <= 0.0:
            break
        boundary_weight = wmin
        # within relative 1e-9 of the class mass the intended decision is full
        # acceptance (accepting more only lowers the type-I error)
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
    log2_beta = min(0.0, _log2_sum(terms))
    achieved_type1 = max(0.0, 1.0 - cum)
    return NPResult(
        log2_beta=log2_beta,
        threshold_weight=int(boundary_weight),
        gamma=min(max(gamma, 0.0), 1.0),
        achieved_type1=achieved_type1,
    )


def np_divergence(hyp: BinaryHypothesisPair, eps: float) -> NPResult:
    """Exact Neyman-Pearson optimum for n-copy Bernoulli discrimination.

    Minimizes the alternative-hypothesis mass of a test accepting true-
    hypothesis mass at least 1-eps; the divergence is -log2 of that minimum.
    eps = 1 is rejected (the minimum would be 0 for every pair).
    """
    log2_p = _binomial_log2_masses(hyp.n, hyp.p_success)
    log2_q = _binomial_log2_masses(hyp.n, hyp.t_success)
    return _solve_outcome_classes(log2_p, log2_q, list(range(hyp.n + 1)), eps)


def np_oracle(hyp: BinaryHypothesisPair, eps: float) -> float:
    """Brute-force verification oracle: log2 beta by exhaustive enumeration.

    Enumerates every test that is constant on success-count classes: all 2^(n+1)
    fully-accepted subsets, each optionally extended by one fractionally
    accepted class whose weight is solved from the type-I constraint. The
    Neyman-Pearson optimum is contained in this family. Limited to n <= 10.
    """
    n = hyp.n
    if n > 10:
        raise ValueError("oracle is limited to n <= 10")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps {eps} outside [0, 1)")
    w = np.arange(n + 1)
    comb = np.array([math.comb(n, int(i)) for i in w], dtype=float)
    p_mass = comb * hyp.p_success**w * (1.0 - hyp.p_success) ** (n - w)
    q_mass = comb * hyp.t_success**w * (1.0 - hyp.t_success) ** (n - w)
    target = 1.0 - eps

    masks = ((np.arange(2 ** (n + 1))[:, None] >> w[None, :]) & 1).astype(float)
    q_s = masks @ q_mass
    # the needed extra mass target - P(S) is computed through the complement
    # mass, which keeps it relatively accurate even when it is tiny; a direct
    # target - P(S) subtraction would drown small classes in O(1) rounding
    total = math.fsum(p_mass)
    need = (1.0 - masks) @ p_mass - (total - target)

    slack = 1e-12
    best = np.inf
    full = need <= slack
    if np.any(full):
        best = float(np.min(q_s[full]))
    for b in range(n + 1):
        if p_mass[b] <= 0.0:
            continue
        ok = (masks[:, b] == 0.0) & (need > 0.0) & (need <= p_mass[b] * (1.0 + slack))
        if np.any(ok):
            gam = np.minimum(need[ok] / p_mass[b], 1.0)
            # same snap-to-full convention as the engine's fill step
            gam = np.where(gam >= 1.0 - 1e-9, 1.0, gam)
            cand = q_s[ok] + gam * q_mass[b]
            best = min(best, float(np.min(cand)))
    if best == 0.0:
        return NEG_INF
    return math.log2(best)


# --- exact big-rational engine ---


def _log2_int(x: int) -> float:
    if x <= 0:
        raise ValueError("positive integer required")
    shift = max(0, x.bit_length() - 64)
    return math.log2(x >> shift) + shift


def log2_fraction(fr: Fraction) -> float:
    """log2 of a positive rational, accurate to double precision regardless of magnitude."""
    return _log2_int(fr.numerator) - _log2_int(fr.denominator)


def np_divergence_exact(
    p_success: Fraction,
    t_success: Fraction,
    n: int,
    eps: Fraction,
) -> tuple[Fraction, NPResult]:
    """Arbitrary-precision Neyman-Pearson optimum for rational inputs.

    Returns the exact beta as a Fraction together with an NPResult whose float
    fields are derived from the exact values. Used to cross-validate the
    log-domain engine.
    """
    p_success = Fraction(p_success)
    t_success = Fraction(t_success)
    eps = Fraction(eps)
    if not 0 <= p_success <= 1 or not 0 <= t_success <= 1:
        raise ValueError("success probabilities must lie in [0, 1]")
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    if n < 1:
        raise ValueError("copy count must be >= 1")

    classes = []
    for w in range(n + 1):
        pm = Fraction(math.comb(n, w)) * p_success**w * (1 - p_success) ** (n - w)
        qm = Fraction(math.comb(n, w)) * t_success**w * (1 - t_success) ** (n - w)
        if pm == 0:
            continue
        ratio: tuple[int, Fraction] = (1, Fraction(0)) if qm == 0 else (0, pm / qm)
        classes.append((ratio, pm, qm, w))

    groups: dict[tuple[int, Fraction], list[int]] = {}
    for i, (ratio, _, _, _) in enumerate(classes):
        groups.setdefault(ratio, []).append(i)
    merged = []
    for ratio, idx in groups.items():
        merged.append(
            (
                ratio,
                sum(classes[i][1] for i in idx),
                sum(classes[i][2] for i in idx),
                min(classes[i][3] for i in idx),
            )
        )
    merged.sort(key=lambda g: g[0], reverse=True)

    target = 1 - eps
    cum = Fraction(0)
    beta = Fraction(0)
    gamma = Fraction(1)
    boundary_weight = merged[0][3] if merged else 0
    for _, pm, qm, wmin in merged:
        remaining = target - cum
        if remaining <= 0:
            break
        boundary_weight = wmin
        if pm <= remaining:
            beta += qm
            cum += pm
            gamma = Fraction(1)
        else:
            gamma = remaining / pm
            beta += gamma * qm
            cum += remaining
            break

    log2_beta = NEG_INF if beta == 0 else min(0.0, log2_fraction(beta))
    result = NPResult(
        log2_beta=log2_beta,
        threshold_weight=int(boundary_weight),
        gamma=float(gamma),
        achieved_type1=max(0.0, float(1 - cum)),
    )
    return beta, result


# --- commuting-state reductions ---


def _co_diagonalize(rho: State, sigma: State) -> tuple[np.ndarray, np.ndarray]:
    """Joint eigenvalue pairs of a dense commuting pair; rejects non-commuting input.

    Diagonalizes sigma, then diagonalizes rho inside each sigma eigenspace
    (grouped by eigenvalue gaps above _GROUP_TOL). Uses the LAPACK eigensolver.
    """
    a = rho.matrix
    b = sigma.matrix
    prod = a @ b
    defect = float(np.max(np.abs(prod - prod.conj().T)))
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if defect > DEFAULT_TOL.commuting * scale:
        raise ValueError(f"states do not commute: commutator defect {defect:.3e}")
    s_vals, v = np.linalg.eigh(b)
    r_out = np.empty_like(s_vals)
    s_out = np.empty_like(s_vals)
    start = 0
    for stop in range(1, len(s_vals) + 1):
        if stop < len(s_vals) and s_vals[stop] - s_vals[stop - 1] <= _GROUP_TOL:
            continue
        block = v[:, start:stop]
        r_block = np.linalg.eigvalsh(block.conj().T @ (a @ block))
        r_out[start:stop] = r_block
        s_out[start:stop] = float(np.mean(s_vals[start:stop]))
        start = stop
    return r_out, s_out


def _joint_spectrum(rho: State, sigma: State) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint eigenvalue pairs (r_i, s_i) of a verified-commuting pair, with multiplicities.

    Dense pairs are co-diagonalized directly and every pair has multiplicity
    1. Two n-fold tensor powers over equal factor dims are co-diagonalized on
    their factors instead: two states commute exactly when their n-th powers
    do, and the product spectrum is fixed by the type of an eigenvector, the
    count c_j of each of the m factor eigenpairs it holds. Each of the
    C(n+m-1, m-1) types contributes the pair (prod r_j^c_j, prod s_j^c_j)
    with multinomial multiplicity n! / prod c_j!, in place of the m^n
    eigenvalues a dense diagonalization would return.
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    if not same_power(rho, sigma):
        r, s = _co_diagonalize(rho, sigma)
        return r, s, np.ones_like(r)
    n = rho.n
    r, s = _co_diagonalize(rho.factor, sigma.factor)
    counts = np.array(
        [np.bincount(c, minlength=len(r)) for c in combinations_with_replacement(range(len(r)), n)]
    )
    factorial = np.array([math.factorial(c) for c in range(n + 1)], dtype=float)
    mult = factorial[n] / np.prod(factorial[counts], axis=1)
    r_types = np.prod(np.clip(r, 0.0, None) ** counts, axis=1)
    s_types = np.prod(np.clip(s, 0.0, None) ** counts, axis=1)
    return r_types, s_types, mult


def commuting_dh(
    rho: State,
    sigma: State,
    eps: float,
    *,
    support_tol: float = 1e-11,
    lump_tol: float = 1e-7,
) -> float:
    """Hypothesis-testing divergence (bits) for a commuting pair of states.

    Co-diagonalizes the pair, treats the joint spectrum as a classical outcome
    list, lumps outcomes whose log-likelihood ratios agree within lump_tol,
    and runs the same sort-and-fill optimum as the Bernoulli engine.
    Non-commuting inputs are rejected.
    """
    r, s, mult = _joint_spectrum(rho, sigma)
    r = np.clip(r, 0.0, None)
    s = np.clip(s, 0.0, None)
    keep = (r > support_tol) | (s > support_tol)
    r, s, log2_mult = r[keep], s[keep], np.log2(mult[keep])

    # a pair of multiplicity m stands for m outcomes of equal likelihood
    # ratio, so it enters with m times both masses and the ratio unchanged
    log2_p = np.where(r > support_tol, np.log2(np.maximum(r, 1e-300)) + log2_mult, NEG_INF)
    log2_q = np.where(s > support_tol, np.log2(np.maximum(s, 1e-300)) + log2_mult, NEG_INF)

    # lump outcomes with numerically equal likelihood ratios so the merged
    # classes match the ideal reduced problem
    ratio = np.where(
        log2_p == NEG_INF, NEG_INF, np.where(log2_q == NEG_INF, np.inf, log2_p - log2_q)
    )
    order = np.argsort(ratio, kind="stable")
    lumped_p: list[float] = []
    lumped_q: list[float] = []
    idx = 0
    while idx < len(order):
        j = idx
        while (
            j + 1 < len(order)
            and ratio[order[j + 1]] - ratio[order[idx]] <= lump_tol
            and np.isfinite(ratio[order[idx]]) == np.isfinite(ratio[order[j + 1]])
        ):
            j += 1
        members = order[idx : j + 1]
        lumped_p.append(_log2_sum([float(log2_p[i]) for i in members]))
        lumped_q.append(_log2_sum([float(log2_q[i]) for i in members]))
        idx = j + 1
    result = _solve_outcome_classes(lumped_p, lumped_q, list(range(len(lumped_p))), eps)
    return result.divergence


def d_max_commuting(
    rho: State,
    sigma: State,
    *,
    support_tol: float = 1e-11,
) -> float:
    """Max-relative entropy (bits) for a commuting pair: largest log2 eigenvalue ratio.

    +inf when the support of rho is not contained in the support of sigma.
    """
    r, s, _ = _joint_spectrum(rho, sigma)
    best = NEG_INF
    for ri, si in zip(r, s):
        if ri <= support_tol:
            continue
        if si <= support_tol:
            return float("inf")
        best = max(best, math.log2(ri) - math.log2(si))
    return best
