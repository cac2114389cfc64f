"""k-extendibility of small bipartite states by alternating projections.

A bipartite state is k-extendible when it admits a global state on one A
factor and k B factors that is invariant under permutations of the B factors
and reduces to the original state on (A, B_1). Membership is decided by
Dykstra-corrected alternating projections between the PSD cone and the affine
set of permutation-invariant unit-trace extensions with the right reduction.

A Feasible verdict carries the extension found, which is an independently
checkable certificate. An InfeasibleSignal verdict is heuristic: it reports
that the distance between the two constraint sets stabilized well above the
tolerance, which alternating projections cannot turn into a proof. Callers
that need reliability keep their query points away from the feasibility
boundary.

The PSD half of the loop is one LAPACK eigendecomposition of the
hermitized iterate. For a rank-deficient state it runs on the face every
extension lives on (facial reduction), which spares such states the
thousands of iterations the degenerate directions cost.

The affine half works in index space. Permutation-invariant operators on
A (x) B^(x)k are constant on the orbits of matrix entries under simultaneous
permutation of the row and column B digits, so the group average is a mean
over orbits, and the reduction onto (A, B_1) and its adjoint are sums through
a fixed entry map. Both maps are built once per (d_a, d_b, k) and cached, and
the affine projection keeps its iterate as one value per orbit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import linalg
from .linalg import frobenius, hermitize, kron, partial_trace, permutation_operator
from .states import DensityMatrix, isotropic, max_entangled, erasure_family

MAX_EXTENSION_DIM = 4096
_SYM_TOL = 1e-12
_AFFINE_TOL = 1e-12


class VerdictStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_SIGNAL = "infeasible-signal"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ExtendibilityVerdict:
    status: VerdictStatus
    certificate: Optional[np.ndarray]
    residual: float
    iterations: int
    face_dim: int


@dataclass(frozen=True)
class ExtensionProblem:
    """A feasibility query: is rho k-extendible on its B side?"""

    rho: DensityMatrix
    k: int
    tol: float = 1e-7
    max_iter: int = 50000

    def __post_init__(self):
        if len(self.rho.dims) != 2:
            raise ValueError("extendibility is defined for bipartite states")
        if self.k < 2:
            raise ValueError("extension order must be >= 2")
        d_a, d_b = self.rho.dims
        if d_a * d_b**self.k > MAX_EXTENSION_DIM:
            raise ValueError(
                f"extension dimension {d_a * d_b ** self.k} exceeds the solver guard "
                f"{MAX_EXTENSION_DIM}"
            )
        if self.tol <= 0.0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter >= 1")


@lru_cache(maxsize=None)
def _conj_indices(d_a: int, d_b: int, k: int, perm: tuple[int, ...]) -> np.ndarray:
    """Index array src with W omega W^dagger == omega[ix_(src, src)] for the lifted permutation."""
    wb = permutation_operator(d_b, k, perm).real
    j_of_row = np.argmax(wb, axis=1)
    block = d_b**k
    src = (np.arange(d_a)[:, None] * block + j_of_row[None, :]).reshape(-1)
    return src


def _generator_perms(k: int) -> list[tuple[int, ...]]:
    gens = []
    for i in range(k - 1):
        p = list(range(k))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return gens


@dataclass(frozen=True)
class _IndexMaps:
    """Index maps of the extension space A (x) B^(x)k, row-major over its entries."""

    labels: np.ndarray  # orbit label of every entry
    sizes: np.ndarray  # number of entries in each orbit
    red_orbit: np.ndarray  # orbit of each entry whose B_2..B_k row and column digits agree
    red_target: np.ndarray  # the (A, B_1) entry that entry adds to under Tr_{B_2..B_k}


@lru_cache(maxsize=None)
def _index_maps(d_a: int, d_b: int, k: int) -> _IndexMaps:
    """Orbit labels of the entries under B-factor permutations, and the reduction map.

    A permutation of the B factors moves entry (r, c), with B digits
    (b_1..b_k) and (b'_1..b'_k), onto every entry with the same A digits and
    the same multiset of digit pairs (b_i, b'_i). Sorting the pair codes
    b_i d_b + b'_i therefore reaches a canonical representative of the orbit,
    and the labels number the d_a^2 C(d_b^2 + k - 1, k) representatives in
    increasing order. Codes are built a block of rows at a time in the
    narrowest dtype that holds them, so no dim^2 x k array is formed: at the
    4096 guard one would take 1.5 GB as int64, while the labels and the
    ranking table take O(dim^2).
    """
    block = d_b**k
    dim = d_a * block
    n_pairs = d_b * d_b
    code_t = np.min_scalar_type(n_pairs - 1)
    digits = np.tile(np.stack(np.unravel_index(np.arange(block), (d_b,) * k), axis=1), (d_a, 1))
    row_codes = (digits * d_b).astype(code_t)
    col_codes = digits.astype(code_t)
    a_digit = np.repeat(np.arange(d_a, dtype=np.int64), block)
    rep = np.empty((dim, dim), dtype=np.int64)
    step = max(1, (1 << 22) // (dim * k))
    for r0 in range(0, dim, step):
        rows = slice(r0, r0 + step)
        codes = row_codes[rows, None, :] + col_codes[None, :, :]
        codes.sort(axis=-1)
        key = a_digit[rows, None] * d_a + a_digit[None, :]
        for i in range(k):
            key = key * n_pairs + codes[..., i]
        rep[rows] = key
    # keys lie in [0, dim^2): rank them through a table rather than a sort
    rank = np.zeros(dim * dim, dtype=np.intp)
    rank[rep.reshape(-1)] = 1
    np.cumsum(rank, out=rank)
    rank -= 1
    labels = rank[rep.reshape(-1)]
    n_ab = d_a * d_b
    rest = d_b ** (k - 1)
    ab = np.arange(n_ab)[:, None, None]
    ab2 = np.arange(n_ab)[None, :, None]
    tail = np.arange(rest)[None, None, :]
    entry = (ab * rest + tail) * dim + ab2 * rest + tail
    target = np.broadcast_to(ab * n_ab + ab2, entry.shape)
    return _IndexMaps(
        labels=labels,
        sizes=np.bincount(labels),
        red_orbit=labels[entry.reshape(-1)],
        red_target=target.reshape(-1),
    )


def _face(rho: DensityMatrix, k: int, cutoff: float) -> Optional[np.ndarray]:
    """Orthonormal basis of the face every k-extension lives on; None when rho has full rank.

    An extension w reduces to rho on every pair (A, B_i), so w (v (x) I) = 0
    for each v in ker rho placed on (A, B_i): the range of w lies in
    S = intersection over i of (supp rho)_{A B_i} (x) H_rest. Eigenvalues of
    rho at or below cutoff count as kernel. S starts as supp rho (x) I on
    (A, B_1) and is cut down by its images under the transpositions
    (B_1 B_i), each a row gather; the intersection keeps the right singular
    vectors of V_i^dagger V with singular value 1.
    """
    d_a, d_b = rho.dims
    w, u = np.linalg.eigh(rho.matrix)
    if w[0] > cutoff:
        return None
    base = np.kron(u[:, w > cutoff], np.eye(d_b ** (k - 1)))
    face = base
    for i in range(1, k):
        perm = list(range(k))
        perm[0], perm[i] = i, 0
        _, s, vh = np.linalg.svd(base[_conj_indices(d_a, d_b, k, tuple(perm))].conj().T @ face)
        face = face @ vh[: int(np.sum(s >= 1.0 - 1e-9))].conj().T
    return face


def _bincount_complex(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(index, weights.real, n) + 1j * np.bincount(index, weights.imag, n)


def _orbit_means(omega: np.ndarray, d_a: int, d_b: int, k: int) -> tuple[np.ndarray, _IndexMaps]:
    """Mean of omega over each orbit of entries, and the index maps of its shape."""
    dim = d_a * d_b**k
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (dim, dim):
        raise ValueError(f"omega shape {omega.shape} does not match dims ({d_a}, {d_b}^{k})")
    maps = _index_maps(d_a, d_b, k)
    return _bincount_complex(maps.labels, omega.reshape(-1), maps.sizes.size) / maps.sizes, maps


def symmetrize(omega: np.ndarray, d_a: int, d_b: int, k: int) -> np.ndarray:
    """Average omega over permutations of the k B factors.

    The group average of an entry is the mean of omega over the entry's orbit
    under simultaneous permutation of the row and column B digits: every orbit
    element is reached by |stabiliser| of the k! permutations, so the k!-term
    average and the orbit mean are the same linear map. The orbit labels come
    from _index_maps, built once per (d_a, d_b, k); a call is two bincounts
    and a gather, whatever k is.
    """
    means, maps = _orbit_means(omega, d_a, d_b, k)
    dim = d_a * d_b**k
    return means[maps.labels].reshape(dim, dim)


def symmetry_defect(omega: np.ndarray, d_a: int, d_b: int, k: int) -> float:
    """Max-entry deviation of omega from invariance under the B-factor transpositions."""
    defect = 0.0
    for g in _generator_perms(k):
        src = _conj_indices(d_a, d_b, k, g)
        defect = max(defect, float(np.max(np.abs(omega[np.ix_(src, src)] - omega))))
    return defect


def affine_project(omega: np.ndarray, rho: DensityMatrix, k: int) -> np.ndarray:
    """Frobenius projection onto the affine extension set of rho.

    The set consists of Hermitian matrices that are permutation-invariant on
    the B factors and whose reduction onto (A, B_1) equals rho (unit trace
    follows). Projecting onto the symmetric subspace first is lossless since
    the set lies inside it; the reduction constraint is then restored by the
    minimum-norm symmetric correction, which has a closed form: with residual
    R = rho - reduction and d = d_B, the correction is the symmetrization of
    (k/d^(k-1)) R - ((k-1)/d^k) (Tr_B R (x) I_B1), tensored with identities.
    One pass lands on the set to rounding accuracy; the loop is a safeguard.

    The iterate is kept as one value per orbit of entries: the reduction sums
    those values through the precomputed (A, B_1) map, and the symmetrized
    lift of the correction averages it back over the orbits through the same
    map.
    """
    d_a, d_b = rho.dims
    n_ab = d_a * d_b
    x, maps = _orbit_means(hermitize(omega), d_a, d_b, k)
    eye_b = np.eye(d_b)[None, :, None, :]
    for _ in range(50):
        reduction = _bincount_complex(maps.red_target, x[maps.red_orbit], n_ab * n_ab)
        resid = rho.matrix - reduction.reshape(n_ab, n_ab)
        if float(np.max(np.abs(resid))) <= _AFFINE_TOL:
            dim = d_a * d_b**k
            return x[maps.labels].reshape(dim, dim)
        resid4 = resid.reshape(d_a, d_b, d_a, d_b)
        marg = np.trace(resid4, axis1=1, axis2=3)[:, None, :, None]
        lam = (k / d_b ** (k - 1)) * resid4 - ((k - 1) / d_b**k) * marg * eye_b
        x = x + _bincount_complex(maps.red_orbit, lam.reshape(-1)[maps.red_target], x.size) / maps.sizes
    raise ArithmeticError("affine projection did not reach its joint residual")


def check_k_extendible(
    prob: ExtensionProblem,
    start: Optional[np.ndarray] = None,
) -> ExtendibilityVerdict:
    """Decide k-extendibility by Dykstra-corrected alternating projections.

    Feasible when the gap between the PSD iterate and the affine iterate falls
    below tol; the affine iterate is then a certificate satisfying all three
    extension conditions within tol. InfeasibleSignal (heuristic) when the gap
    stabilizes above 10*tol across 200 consecutive iterations. Inconclusive
    when the iteration budget runs out first.

    For a rank-deficient rho (eigenvalues <= 1e-3*tol count as kernel) the
    PSD step is V psd_project(V^dagger (x + p) V) V^dagger with V from _face,
    the exact projection onto the PSD matrices on a face holding every
    extension. Certificates stay full-space; face_dim is the face dimension.
    """
    rho = prob.rho
    d_a, d_b = rho.dims
    k = prob.k
    if start is not None:
        x = affine_project(start, rho, k)
    else:
        marginal = partial_trace(rho.matrix, rho.dims, keep=[1])
        guess = rho.matrix
        for _ in range(k - 1):
            guess = kron(guess, marginal)
        x = affine_project(guess, rho, k)
    face = _face(rho, k, 1e-3 * prob.tol)
    face_dim = x.shape[0] if face is None else face.shape[1]
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    gap = float("inf")
    window: deque[float] = deque(maxlen=200)
    for it in range(1, prob.max_iter + 1):
        if face is None:
            y = linalg.psd_project(x + p)
        else:
            y = face @ linalg.psd_project(face.conj().T @ (x + p) @ face) @ face.conj().T
        p = x + p - y
        x = affine_project(y + q, rho, k)
        q = y + q - x
        gap = frobenius(y - x)
        if gap <= prob.tol:
            return ExtendibilityVerdict(VerdictStatus.FEASIBLE, x, gap, it, face_dim)
        window.append(gap)
        if (
            len(window) == window.maxlen
            and min(window) > 10.0 * prob.tol
            and window[0] - gap <= 1e-4 * gap
        ):
            return ExtendibilityVerdict(VerdictStatus.INFEASIBLE_SIGNAL, None, gap, it, face_dim)
    return ExtendibilityVerdict(VerdictStatus.INCONCLUSIVE, None, gap, prob.max_iter, face_dim)


def certificate_defects(cert: np.ndarray, rho: DensityMatrix, k: int) -> dict[str, float]:
    """Independently measurable violations of the three extension conditions."""
    d_a, d_b = rho.dims
    dims_ext = (d_a,) + (d_b,) * k
    eigs = np.linalg.eigvalsh(hermitize(cert))
    reduction = partial_trace(cert, dims_ext, keep=(0, 1))
    return {
        "psd": max(0.0, -float(eigs[0])),
        "symmetry": symmetry_defect(cert, d_a, d_b, k),
        "reduction": float(np.max(np.abs(reduction - rho.matrix))),
        "trace": abs(complex(np.trace(cert)) - 1.0),
    }


def threshold_bisect(
    family: Callable[[float], DensityMatrix],
    k: int,
    lo: float,
    hi: float,
    *,
    xtol: float = 0.005,
    tol: float = 1e-7,
    max_iter: int = 50000,
) -> float:
    """Locate the extendibility boundary of a monotone one-parameter family.

    family(lo) must be Feasible and family(hi) InfeasibleSignal. Once the
    bracket has width <= 2*xtol the feasible end lo is returned: it is the
    last parameter the solver confirmed Feasible, whereas the midpoint can
    sit on the infeasible side of the boundary. An Inconclusive midpoint is
    treated as not-confirmed-feasible, which can only bias the boundary toward
    the feasible side; for the sigma choices built on these thresholds that is
    the sound direction.
    """
    v_lo = check_k_extendible(ExtensionProblem(family(lo), k, tol=tol, max_iter=max_iter))
    if v_lo.status is not VerdictStatus.FEASIBLE:
        raise ValueError(f"family({lo}) is not Feasible (got {v_lo.status.value})")
    v_hi = check_k_extendible(ExtensionProblem(family(hi), k, tol=tol, max_iter=max_iter))
    if v_hi.status is not VerdictStatus.INFEASIBLE_SIGNAL:
        raise ValueError(f"family({hi}) is not InfeasibleSignal (got {v_hi.status.value})")
    warm = v_lo.certificate
    while abs(hi - lo) > 2.0 * xtol:
        mid = 0.5 * (lo + hi)
        verdict = check_k_extendible(
            ExtensionProblem(family(mid), k, tol=tol, max_iter=max_iter), start=warm
        )
        if verdict.status is VerdictStatus.FEASIBLE:
            lo = mid
            warm = verdict.certificate
        else:
            hi = mid
    return lo


def erasure_certificate(k: int) -> np.ndarray:
    """Constructive k-extension of the half-erased maximally entangled family.

    Places the entangled pair on (A, B_i) and the erasure flag on every other
    B factor, uniformly over i. The reduction onto (A, B_1) is the family
    state with erased weight 1 - 1/k. All three extension conditions are
    verified before returning.
    """
    if k < 2:
        raise ValueError("extension order must be >= 2")
    if 2 * 3**k > MAX_EXTENSION_DIM:
        raise ValueError(f"certificate dimension {2 * 3 ** k} exceeds {MAX_EXTENSION_DIM}")
    phi_emb = erasure_family(0.0).matrix  # entangled pair on dims (2, 3)
    flag = np.zeros((3, 3), dtype=complex)
    flag[2, 2] = 1.0
    flags = np.eye(1, dtype=complex)
    for _ in range(k - 1):
        flags = kron(flags, flag)
    base = kron(phi_emb, flags)  # pair on (A, B_1), flags elsewhere
    # base is invariant under permutations of B_2..B_k, so its group average
    # is the mean over the k placements of the pair
    cert = symmetrize(base, 2, 3, k)

    target = erasure_family(1.0 - 1.0 / k)
    defects = certificate_defects(cert, target, k)
    if max(defects.values()) > 1e-10:
        raise ArithmeticError(f"certificate construction violated its contract: {defects}")
    return cert


def twirl_uu(rho: DensityMatrix) -> DensityMatrix:
    """Project a state on (d, d) onto the span of the maximally entangled projector and identity.

    This is the closed form of averaging over conjugations by U (x) conj(U):
    the output is the isotropic state whose entangled-projector overlap
    matches the input.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError(f"twirl requires a square bipartition, got dims {rho.dims}")
    d = rho.dims[0]
    phi = max_entangled(d).matrix
    overlap = float(np.real(np.trace(phi @ rho.matrix)))
    overlap = min(max(overlap, 0.0), 1.0)
    return isotropic(overlap, d)
