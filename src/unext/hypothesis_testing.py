"""Exact binary hypothesis testing for product Bernoulli distributions.

The central object is the minimum type-II error beta of a test whose type-I
error is at most eps. For n iid copies the optimal test is constant on the
n+1 success-count classes, so the optimum is found exactly by sorting classes
by likelihood ratio and filling probability mass up to 1-eps, randomizing on
the boundary class. Everything runs in the log2 domain: classes are grouped
by ratio in numpy, and the sums the fill decides on are Kahan-compensated,
written out in loop order. Only the O(sqrt(n)) classes whose true mass lies
within 2^-80 of eps can matter, so the fill runs on that window of classes
and is then certified against the dropped ones, falling back to the full
class list when the certificate fails; past the O(n) numpy passes over the
class masses and the dropped tails the cost grows as sqrt(n). An exact engine in integer
arithmetic, for cross-validation, steps the class masses one class at a time
in fill order and stops at the boundary class; a brute-force enumeration
oracle covers small n.

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
from itertools import chain, combinations_with_replacement
from typing import Sequence

import numpy as np

from .states import State, same_power

NEG_INF = float("-inf")
# sigma eigenvalues closer than this share one eigenspace in _co_diagonalize
_GROUP_TOL = 1e-9
# _co_diagonalize rejects pairs whose commutator defect exceeds this, relative to their scale
_COMMUTING_TOL = 1e-10
# joint eigenvalues at or below this count as outside a state's support
_SUPPORT_TOL = 1e-11
# commuting_dh lumps outcomes whose log2 likelihood ratios agree within this
_LUMP_TOL = 1e-7
# np_divergence fills only the classes with true mass >= 2^-_WINDOW_BITS eps,
# and accepts that answer when the dropped classes carry at most
# 2^-_DROPPED_BITS of eps and of beta, and the kept true masses sum to 1
# within 2^-_ROUNDING_BITS eps
_WINDOW_BITS = 80
_DROPPED_BITS = 64
_ROUNDING_BITS = 20
# _binomial_log2_masses and _window_certified read this many classes per numpy pass
_MASS_BLOCK = 1 << 14


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
        """-log2(beta), in bits; +inf when beta = 0, and 0.0, never -0.0, when beta = 1."""
        return 0.0 - self.log2_beta


def _log2_sum(terms: Sequence[float]) -> float:
    """log2 of a sum of 2**term values, Kahan-compensated; -inf for an empty sum."""
    finite = [t for t in terms if t != NEG_INF]
    if not finite:
        return NEG_INF
    m = max(finite)
    total, comp = 0.0, 0.0
    for t in finite:
        y = 2.0 ** (t - m) - comp
        new = total + y
        comp = (new - total) - y
        total = new
    return m + math.log2(total)


def _log2_add(total: float, terms: np.ndarray) -> float:
    """log2(2**total + sum of 2**terms), the sum shifted by the largest term."""
    m = max(total, float(terms.max(initial=NEG_INF)))
    if m == NEG_INF:
        return total
    return m + math.log2(2.0 ** (total - m) + float(np.exp2(terms - m).sum()))


def _binomial_log2_masses(n: int, s: float | Sequence[float]) -> np.ndarray:
    """log2 of Binomial(n, s) masses over success counts 0..n; point masses at s in {0, 1}.

    s is one probability or a sequence of them, with one output row each.
    Element w is (log2 C(n, w) + w log2 s) + (n - w) log2(1 - s), where
    log2 C(n, w) is the running sum, left to right from 0.0, of the steps
    log2(n - j + 1) - log2(j) for j = 1..w. Every element is computed in
    exactly that order of float operations, so its bits do not depend on
    how the work is blocked or on how many rows share it: each block of
    _MASS_BLOCK classes sums its steps once by np.add.accumulate, after the
    previous block's last running sum is added into its first step, and
    every row adds its own two terms to that block. This reproduces the
    per-class Python recursion bit for bit as long as np.log2 agrees with
    math.log2 on integers, which the tests check. Scratch is O(block); the
    output is the only full-length array.
    """
    masses = np.full(np.shape(s) + (n + 1,), NEG_INF)
    rows = []
    for row, sk in zip(masses.reshape(-1, n + 1), np.ravel(s).tolist()):
        if sk in (0.0, 1.0):
            row[0 if sk == 0.0 else n] = 0.0
        else:
            rows.append((row, math.log2(sk), math.log2(1.0 - sk)))
    if not rows:
        return masses
    log2_c = 0.0
    for start in range(0, n + 1, _MASS_BLOCK):
        w = np.arange(start, min(start + _MASS_BLOCK, n + 1), dtype=float)
        c = np.subtract(n + 1, w)
        scratch = np.empty_like(w)
        first = 1 if start == 0 else 0
        np.log2(c, out=c)
        c[first:] -= np.log2(w[first:], out=scratch[first:])
        # the step into class 0 is 0.0, which keeps log2(0) out of the block
        c[:first] = 0.0
        c[0] += log2_c
        np.add.accumulate(c, out=c)
        log2_c = float(c[-1])
        for row, log2_s, log2_f in rows:
            out = row[start : start + w.size]
            np.multiply(w, log2_s, out=out)
            out += c
            np.subtract(n, w, out=scratch)
            scratch *= log2_f
            out += scratch
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
    accepted. Groups come from a stable sort by descending ratio, members in
    index order; a group of one keeps its masses, which is what its sum is.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps {eps} outside [0, 1)")
    log2_p, log2_q = np.asarray(log2_p, dtype=float), np.asarray(log2_q, dtype=float)
    # zero true-mass outcomes only ever add type-II error; -ratio is -inf
    # where only the alternative mass is 0
    live = np.flatnonzero(log2_p != NEG_INF)
    neg_ratio = log2_q[live] - log2_p[live]
    by_ratio = np.argsort(neg_ratio, kind="stable")
    order, neg_ratio = live[by_ratio], neg_ratio[by_ratio]
    new_group = np.ones(order.size, dtype=bool)
    np.not_equal(neg_ratio[1:], neg_ratio[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    lp_group, lq_group = log2_p[order[starts]], log2_q[order[starts]]
    w_min = np.minimum.reduceat(np.asarray(weights)[order], starts)
    ends = np.append(starts[1:], order.size)
    for g in np.flatnonzero(ends - starts > 1).tolist():
        members = order[starts[g] : ends[g]]
        lp_group[g] = _log2_sum(log2_p[members].tolist())
        lq_group[g] = _log2_sum(log2_q[members].tolist())
    p_mass = [2.0**lp for lp in lp_group.tolist()]
    lq_group, w_min = lq_group.tolist(), w_min.tolist()

    target = 1.0 - eps
    # the acceptance budget left at class i equals target minus the accepted
    # prefix; computing it as suffix_i - (total - target) avoids the O(1)
    # cancellation that a running prefix subtraction would amplify on the
    # final, tiny classes. Both this sum and the accepted mass below are
    # Kahan-compensated, written out in the loops
    suffixes = [0.0] * (len(p_mass) + 1)
    s_tot, s_comp = 0.0, 0.0
    for i in range(len(p_mass) - 1, -1, -1):
        y = p_mass[i] - s_comp
        new = s_tot + y
        s_comp = (new - s_tot) - y
        s_tot = suffixes[i] = new
    offset = suffixes[0] - target

    cum, comp = 0.0, 0.0
    accepted_q: list[float] = []
    gamma = 1.0
    boundary_weight = w_min[0] if w_min else 0
    boundary_lq = NEG_INF
    for i, (p, lq, wmin) in enumerate(zip(p_mass, lq_group, w_min)):
        remaining = suffixes[i] - offset
        if remaining <= 0.0:
            break
        boundary_weight = wmin
        # within relative 1e-9 of the class mass the intended decision is full
        # acceptance (accepting more only lowers the type-I error)
        if p <= remaining or remaining >= p * (1.0 - 1e-9):
            accepted_q.append(lq)
            y = p - comp
            new = cum + y
            comp = (new - cum) - y
            cum = new
        else:
            gamma = remaining / p
            boundary_lq = lq
            # the last compensated addition; its new compensation is never read
            cum += gamma * p - comp
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

    The fill runs on the contiguous window of success counts whose true mass
    is at least 2^-80 eps (binomial masses are unimodal), and that answer is
    returned when _window_certified shows the dropped classes could not have
    changed it; otherwise the same fill runs on all n + 1 classes. Identical
    hypotheses are one class of ratio 1, accepted with probability 1 - eps.
    """
    n = hyp.n
    if hyp.p_success == hyp.t_success:
        if not 0.0 <= eps < 1.0:
            raise ValueError(f"eps {eps} outside [0, 1)")
        weight = n if hyp.p_success == 1.0 else 0
        return NPResult(math.log2(1.0 - eps), weight, 1.0 - eps, float(eps))
    log2_p, log2_q = _binomial_log2_masses(n, (hyp.p_success, hyp.t_success))
    lo, hi = 0, n + 1
    if 0.0 < eps < 1.0 and 1.0 - eps != 1.0:
        kept = np.flatnonzero(log2_p >= math.log2(eps) - _WINDOW_BITS)
        lo, hi = int(kept[0]), int(kept[-1]) + 1
    result = _solve_outcome_classes(log2_p[lo:hi], log2_q[lo:hi], np.arange(lo, hi), eps)
    if hi - lo == n + 1 or _window_certified(log2_p, log2_q, lo, hi, eps, result):
        return result
    return _solve_outcome_classes(log2_p, log2_q, np.arange(n + 1), eps)


def _window_certified(
    log2_p: np.ndarray, log2_q: np.ndarray, lo: int, hi: int, eps: float, result: NPResult
) -> bool:
    """Whether the optimum over classes lo..hi-1 is the optimum over all classes.

    The dropped classes must hold at most 2^-64 eps of true mass, and at most
    2^-64 beta of alternative mass on the accepted side of the boundary
    ratio; none may share a float ratio with a kept class, which would have
    merged it into a kept group. The kept true masses must sum to 1 within
    2^-20 eps, so that the budget stands above the masses' own rounding
    error. The two dropped tails are read in blocks of _MASS_BLOCK classes,
    each summed shifted by its largest term, so no full-length array is made.
    """
    kept_ratio = log2_p[lo:hi] - log2_q[lo:hi]
    boundary_ratio = kept_ratio[result.threshold_weight - lo]
    lowest, highest = kept_ratio.min(), kept_ratio.max()
    dropped_p = accepted_q = NEG_INF
    for begin, stop in ((0, lo), (hi, log2_p.size)):
        for start in range(begin, stop, _MASS_BLOCK):
            block = slice(start, min(start + _MASS_BLOCK, stop))
            lp, lq = log2_p[block], log2_q[block]
            with np.errstate(invalid="ignore"):
                # +inf where only the alternative mass is 0, nan where both are
                ratio = lp - lq
                near = ratio[(ratio >= lowest) & (ratio <= highest)]
            if near.size and np.isin(near, kept_ratio).any():
                return False
            dropped_p = _log2_add(dropped_p, lp)
            accepted_q = _log2_add(accepted_q, lq[ratio >= boundary_ratio])
    return bool(
        dropped_p <= math.log2(eps) - _DROPPED_BITS
        and accepted_q <= result.log2_beta - _DROPPED_BITS
        and abs(math.fsum(np.exp2(log2_p[lo:hi]).tolist()) - 1.0) <= 2.0**-_ROUNDING_BITS * eps
    )


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


def _stepped_classes(n: int, p_success: Fraction, t_success: Fraction):
    """(true, alternative numerator, w) for 0 < p, t < 1, p != t, in fill order.

    The numerators are C(n, w) a^w (d - a)^(n - w) for p = a/d and the same
    in b/e for t. The fill starts at w = n when p > t; p < t is that case on
    failure counts, 1 - p and 1 - t over the same denominators. Each next
    numerator is one exact small-integer step m (w (d - a)) // ((n - w + 1) a),
    linear in its size, and nothing is built past the class the fill stops at.
    """
    flip = p_success < t_success
    if flip:
        p_success, t_success = 1 - p_success, 1 - t_success
    a, d = p_success.numerator, p_success.denominator
    b, e = t_success.numerator, t_success.denominator
    pm, qm = a**n, b**n
    for w in range(n, 0, -1):
        yield pm, qm, n - w if flip else w
        pm = pm * (w * (d - a)) // ((n - w + 1) * a)
        qm = qm * (w * (e - b)) // ((n - w + 1) * b)
    yield pm, qm, n if flip else 0


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

    The class masses are integers over the common denominators d^n and e^n of
    the two hypotheses, so the fill needs no gcds. When 0 < p, t < 1 and
    p != t the ratio is strictly monotone in w and _stepped_classes walks the
    classes in fill order, so only the accepted classes and the boundary are
    built and at most a few big integers are live. Other inputs are short
    lists in fill order: p = t is one class of ratio 1, p in {0, 1} has one
    class of nonzero true mass, and t in {0, 1} puts the merged classes of
    infinite ratio before the class w = n t. A merged class is named by its
    smallest w.
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

    a, d = p_success.numerator, p_success.denominator
    b, e = t_success.numerator, t_success.denominator
    p_den, q_den = d**n, e**n
    if p_success == t_success:
        classes = [(p_den, q_den, n if p_success == 1 else 0)]
    elif p_success in (0, 1):
        classes = [(1, b**n if p_success == 1 else (e - b) ** n, n * a)]
    elif t_success in (0, 1):
        pm = a**n if t_success == 1 else (d - a) ** n
        classes = [(p_den - pm, 0, 1 - b), (pm, 1, n * b)]
    else:
        classes = _stepped_classes(n, p_success, t_success)

    # with eps = f/g, the true mass still to accept, 1 - eps - accepted, is remaining/(g p_den)
    f, g = eps.numerator, eps.denominator
    remaining = (g - f) * p_den
    beta_num = 0
    # the first class whose mass meets the budget is the boundary, accepted
    # with probability gamma (1 when it fits exactly); the masses sum to
    # p_den, so the last class always meets it
    for pm, qm, w in classes:
        gpm = g * pm
        if gpm >= remaining:
            break
        beta_num += qm
        remaining -= gpm
    beta = Fraction(beta_num * gpm + remaining * qm, q_den * gpm)
    log2_beta = NEG_INF if beta == 0 else min(0.0, log2_fraction(beta))
    # int / int is correctly rounded, as float(Fraction) is
    return beta, NPResult(log2_beta, w, gamma=remaining / gpm, achieved_type1=float(eps))


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
    if defect > _COMMUTING_TOL * scale:
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
    m = len(r)
    # one row of factor indices per type, counted in a single bincount
    types = np.fromiter(
        chain.from_iterable(combinations_with_replacement(range(m), n)), dtype=np.intp
    ).reshape(-1, n)
    t = len(types)
    counts = np.bincount((types + m * np.arange(t)[:, None]).ravel(), minlength=t * m)
    counts = counts.reshape(t, m)
    factorial = np.array([math.factorial(c) for c in range(n + 1)], dtype=float)
    mult = factorial[n] / np.prod(factorial[counts], axis=1)
    r_types = np.prod(np.clip(r, 0.0, None) ** counts, axis=1)
    s_types = np.prod(np.clip(s, 0.0, None) ** counts, axis=1)
    return r_types, s_types, mult


def commuting_dh(rho: State, sigma: State, eps: float) -> float:
    """Hypothesis-testing divergence (bits) for a commuting pair of states.

    Co-diagonalizes the pair, treats the joint spectrum as a classical outcome
    list, lumps outcomes whose log-likelihood ratios agree within _LUMP_TOL,
    and runs the same sort-and-fill optimum as the Bernoulli engine.
    Non-commuting inputs are rejected.
    """
    r, s, mult = _joint_spectrum(rho, sigma)
    r = np.clip(r, 0.0, None)
    s = np.clip(s, 0.0, None)
    keep = (r > _SUPPORT_TOL) | (s > _SUPPORT_TOL)
    r, s, log2_mult = r[keep], s[keep], np.log2(mult[keep])

    # a pair of multiplicity m stands for m outcomes of equal likelihood
    # ratio, so it enters with m times both masses and the ratio unchanged
    log2_p = np.where(r > _SUPPORT_TOL, np.log2(np.maximum(r, 1e-300)) + log2_mult, NEG_INF)
    log2_q = np.where(s > _SUPPORT_TOL, np.log2(np.maximum(s, 1e-300)) + log2_mult, NEG_INF)

    # lump outcomes with numerically equal likelihood ratios so the merged
    # classes match the ideal reduced problem: a class of finite ratios ends
    # where the sorted ratios exceed its first by more than _LUMP_TOL, and
    # each infinite ratio is a class of its own
    ratio = np.where(
        log2_p == NEG_INF, NEG_INF, np.where(log2_q == NEG_INF, np.inf, log2_p - log2_q)
    )
    order = np.argsort(ratio, kind="stable")
    sorted_ratio = ratio[order]
    lo = int(np.searchsorted(sorted_ratio, NEG_INF, side="right"))  # first finite ratio
    hi = int(np.searchsorted(sorted_ratio, np.inf))  # first +inf ratio
    lumped_p: list[float] = []
    lumped_q: list[float] = []
    idx = 0
    while idx < len(order):
        if lo <= idx < hi:
            tail = sorted_ratio[idx:hi] - sorted_ratio[idx]
            end = idx + int(np.searchsorted(tail, _LUMP_TOL, side="right"))
        else:
            end = idx + 1
        members = order[idx:end]
        lumped_p.append(_log2_sum(log2_p[members].tolist()))
        lumped_q.append(_log2_sum(log2_q[members].tolist()))
        idx = end
    result = _solve_outcome_classes(lumped_p, lumped_q, np.arange(len(lumped_p)), eps)
    return result.divergence


def d_max_commuting(rho: State, sigma: State) -> float:
    """Max-relative entropy (bits) for a commuting pair: largest log2 eigenvalue ratio.

    +inf when the support of rho is not contained in the support of sigma.
    """
    r, s, _ = _joint_spectrum(rho, sigma)
    best = NEG_INF
    for ri, si in zip(r, s):
        if ri <= _SUPPORT_TOL:
            continue
        if si <= _SUPPORT_TOL:
            return float("inf")
        best = max(best, math.log2(ri) - math.log2(si))
    return best
