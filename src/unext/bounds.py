"""Converse upper bounds on entanglement transmission and distillation rates.

The bounds all flow through one inversion: a protocol distilling log2(M)
near-perfect ebits with error eps against k-extendible post-processing forces
-log2(1/M + 1/k - 1/(M k)) to stay below a divergence between the protocol
state and a chosen k-extendible reference state. Solving for log2(M) turns
any computable divergence value into a rate ceiling; the bound is vacuous
(+inf) once 2^-D drops to 1/k.

The reference states used here are the tensor-power isotropic family for the
depolarizing channel, at its largest k-extendible parameter
t*(k) = (k + 1) / (2k), and the partially-erased entangled family for the
erasure channel (k-extendibility certified constructively at q = 1 - 1/k).
That threshold is the singlet fraction each clone keeps with A when one half
of a maximally entangled pair goes through optimal universal 1 -> k cloning
(Werner, PRA 58, 1827, 1998), whose symmetric-subspace output is the
extension; no larger parameter is k-extendible (Johnson and Viola, PRA 88,
032323, 2013). Neither choice is claimed optimal; any k-extendible reference
gives a valid ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .hypothesis_testing import (
    BinaryHypothesisPair,
    d_max_commuting,
    np_divergence,
)
from .states import ChannelSpec, depolarizing_choi, isotropic

INF = float("inf")

T_STAR_LIMIT = 0.5

METHOD_POST = "post-processing"
METHOD_INTERLEAVED = "interleaved"
METHOD_LIMIT = "limit"
METHOD_ANTIDEGRADABLE = "antidegradable"


def t_star(k: float) -> tuple[float, str]:
    """Largest k-extendible qubit isotropic parameter, with its provenance.

    (k + 1) / (2k) for finite k, falling to the separability limit 1/2.
    """
    if k == INF:
        return T_STAR_LIMIT, "limit"
    return (k + 1) / (2 * k), "closed-form"


@dataclass(frozen=True)
class BoundQuery:
    """One bound evaluation: channel, uses, error tolerance, extension order."""

    channel: ChannelSpec
    n: int
    eps: float
    k: float  # integer >= 2, or inf for the limiting curve
    sigma_param: Optional[float] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("channel uses must be >= 1")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps {self.eps} outside [0, 1)")
        if self.k != INF and (self.k < 2 or int(self.k) != self.k):
            raise ValueError(f"extension order {self.k} must be an integer >= 2 or inf")


@dataclass(frozen=True)
class BoundResult:
    """A rate ceiling in qubits per channel use, plus how it was obtained."""

    n: int
    rate_bound: float
    k_used: float
    sigma_param_used: Optional[float]
    method: str
    divergence: float
    sigma_provenance: str
    # set by optimize_k: the limiting (k = inf) result the optimum was compared against
    limit: Optional[BoundResult] = field(default=None, repr=False, compare=False)


def max_log2_m(d_total: float, k: float) -> float:
    """Largest log2(M) compatible with -log2(1/M + 1/k - 1/(M k)) <= d_total.

    Returns +inf when 2^-d_total <= 1/k (every M satisfies the constraint).
    At k = inf this degrades to d_total itself.
    """
    if d_total < 0.0:
        raise ValueError("divergence budget must be nonnegative")
    if k == INF:
        return d_total
    if k < 2:
        raise ValueError("extension order must be >= 2")
    f = 2.0**-d_total
    inv_k = 1.0 / k
    if f <= inv_k:
        return INF
    return max(0.0, math.log2((1.0 - inv_k) / (f - inv_k)))


def _invert(divergence: float, k: float, n: int) -> float:
    log2_m = max_log2_m(divergence, k)
    return log2_m / n if log2_m != INF else INF


def _bernoulli_ceiling(
    n: int, eps: float, k: float, p_true: float, p_alt: float, param: float, provenance: str
) -> BoundResult:
    """Ceiling from the n-use Bernoulli(p_true) vs Bernoulli(p_alt) divergence.

    param is the reference state's parameter. At k = inf the inversion is
    the divergence per use, the limiting curve.
    """
    d = np_divergence(BinaryHypothesisPair(p_true, p_alt, n), eps).divergence
    method = METHOD_LIMIT if k == INF else METHOD_POST
    return BoundResult(n, _invert(d, k, n), k, param, method, d, provenance)


def depolarizing_bound(query: BoundQuery) -> BoundResult:
    """Rate ceiling for the depolarizing channel against an isotropic reference.

    The n-use discrimination reduces to Bernoulli(1-p) vs Bernoulli(t) on the
    entangled-projector count; t defaults to the extendibility threshold for
    the queried order (the tightest admissible isotropic choice) and may be
    overridden downward.
    """
    if query.channel.kind != "depolarizing":
        raise ValueError(f"expected a depolarizing channel, got {query.channel.kind}")
    p = query.channel.p
    t_default, provenance = t_star(query.k)
    t = t_default
    if query.sigma_param is not None:
        t = query.sigma_param
        if t > t_default + 1e-12:
            raise ValueError(
                f"sigma parameter {t} exceeds the admissible threshold {t_default} "
                f"for order {query.k}"
            )
        if t <= 0.0:
            raise ValueError("sigma parameter must be positive")
        provenance = "override"
    return _bernoulli_ceiling(query.n, query.eps, query.k, 1.0 - p, t, t, provenance)


def erasure_bound(query: BoundQuery) -> BoundResult:
    """Rate ceiling for the erasure channel against the partially-erased family.

    The reference at order k erases with weight q = 1 - 1/k, which carries a
    constructive extension certificate; the reduced problem is Bernoulli(1-p)
    vs Bernoulli(1/k) on the unerased count. k = inf takes the q -> 1 limit.
    """
    if query.channel.kind != "erasure":
        raise ValueError(f"expected an erasure channel, got {query.channel.kind}")
    p = query.channel.p
    if query.k == INF:
        q_param, provenance = 1.0, "limit"
    else:
        q_param, provenance = 1.0 - 1.0 / query.k, "constructive"
    if query.sigma_param is not None:
        if query.sigma_param < q_param - 1e-12:
            raise ValueError(
                f"sigma parameter {query.sigma_param} below the admissible erased "
                f"weight {q_param} for order {query.k}"
            )
        q_param = query.sigma_param
        provenance = "override"
    return _bernoulli_ceiling(
        query.n, query.eps, query.k, 1.0 - p, 1.0 - q_param, q_param, provenance
    )


def distillation_bound_bell_diagonal(
    spectrum: tuple[float, float, float, float],
    n: int,
    eps: float,
    k: float,
) -> BoundResult:
    """Distillation ceiling for n copies of an isotropic-type Bell-diagonal state.

    spectrum lists the entangled-projector weight first; the three remaining
    weights must be equal (twirl the state first otherwise). A protocol on n
    copies is a single-shot protocol on the n-copy state, so the reduction is
    the same Bernoulli problem as for the Choi state of matching weight.
    """
    if len(spectrum) != 4:
        raise ValueError("spectrum must have 4 entries")
    lam = [float(x) for x in spectrum]
    if any(x < -1e-12 for x in lam) or abs(sum(lam) - 1.0) > 1e-9:
        raise ValueError(f"spectrum {lam} is not a probability vector")
    rest = lam[1:]
    if max(rest) - min(rest) > 1e-9:
        raise ValueError("non-entangled weights differ; twirl to isotropic form first")
    if n < 1:
        raise ValueError("copy count must be >= 1")
    t, provenance = t_star(k)
    return _bernoulli_ceiling(n, eps, k, lam[0], t, t, provenance)


def interleaved_bound(query: BoundQuery) -> BoundResult:
    """Rate ceiling when every channel use is interleaved with free processing.

    Uses the max-relative entropy to the best admissible isotropic reference,
    which for the depolarizing channel is evaluated at t = min(threshold, 1-p)
    by two-ratio monotonicity; restricting the reference family only loosens
    the ceiling, never invalidates it. The divergence budget grows linearly in
    n, so finite orders go vacuous past n ~ log2(k) / E.
    """
    if query.channel.kind != "depolarizing":
        raise ValueError("the interleaved bound is implemented for the depolarizing channel")
    p = query.channel.p
    t_default, provenance = t_star(query.k)
    t_sel = min(t_default, 1.0 - p)
    if t_sel > 0.0:
        e_max = max(0.0, d_max_commuting(depolarizing_choi(p), isotropic(t_sel, 2)))
    else:
        e_max = 0.0  # p = 1: the Choi state itself is admissible
    d_total = query.n * e_max + math.log2(1.0 / (1.0 - query.eps))
    rate = _invert(d_total, query.k, query.n)
    return BoundResult(
        query.n, rate, query.k, t_sel, METHOD_INTERLEAVED, d_total, provenance
    )


def antidegradable_bound(n: int, eps: float) -> BoundResult:
    """Closed-form ceiling for channels whose outputs are always two-extendible."""
    if n < 1:
        raise ValueError("channel uses must be >= 1")
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps {eps} outside [0, 1/2); the bound does not apply")
    budget = math.log2(1.0 / (1.0 - eps))
    rate = math.log2(1.0 / (1.0 - 2.0 * eps)) / n
    return BoundResult(n, rate, 2, None, METHOD_ANTIDEGRADABLE, budget, "constructive")


def _channel_bound(
    channel: ChannelSpec, n: int, eps: float, k: float, sigma_param: Optional[float] = None
) -> BoundResult:
    query = BoundQuery(channel, n, eps, k, sigma_param=sigma_param)
    if channel.kind == "depolarizing":
        return depolarizing_bound(query)
    return erasure_bound(query)


def optimize_k(channel: ChannelSpec, n: int, eps: float, k_max: int = 1024) -> BoundResult:
    """Best finite-or-limiting rate ceiling over extension orders up to k_max.

    Scans a doubling grid of orders, refines around the grid winner, and keeps
    the limiting curve as the final candidate. Ties go to the smallest order.
    When every candidate is vacuous the limiting result (+inf) is returned.
    The returned result carries the limiting result as `limit`.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    grid = []
    k = 2
    while k <= k_max:
        grid.append(k)
        k *= 2
    if grid[-1] != k_max:
        grid.append(k_max)

    best: Optional[BoundResult] = None
    for k in grid:
        cand = _channel_bound(channel, n, eps, k)
        if best is None or cand.rate_bound < best.rate_bound:
            best = cand
    assert best is not None
    if best.rate_bound != INF:
        lo = max(2, int(best.k_used) // 2 + 1)
        hi = min(k_max, 2 * int(best.k_used) - 1)
        for k in range(lo, hi + 1):
            if k in grid:
                continue
            cand = _channel_bound(channel, n, eps, k)
            if cand.rate_bound < best.rate_bound or (
                cand.rate_bound == best.rate_bound and cand.k_used < best.k_used
            ):
                best = cand
    limit = _channel_bound(channel, n, eps, INF)
    if limit.rate_bound < best.rate_bound or best.rate_bound == INF:
        best = limit
    return replace(best, limit=limit)
