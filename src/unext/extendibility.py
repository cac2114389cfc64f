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
boundary. The one exception is an empty face (below), which proves
infeasibility.

The loop runs in Schur-Weyl blocks. Every iterate commutes with the
permutations of the B factors, so it is a direct sum over the S_k irreps
lambda (at most d_B rows) of X_lambda (x) I_{s_lambda}, where X_lambda acts on
A (x) one copy of the GL(d_B) irrep (dimension d_A m_lambda) and s_lambda is
the S_k irrep dimension. The solver keeps only the blocks X_lambda, with the
Frobenius norm weighted by s_lambda, as one zero-padded stack: the PSD step
is one batched eigendecomposition, the affine step a gather, two products
with precomputed maps and a scatter, and a full-space operator is formed
only for the certificate. Padding is exact: the PSD projection of X (+) 0 is
psd(X) (+) 0, and the affine maps never read or write it. The maps are built
once per (d_A, d_B, k) and cached. For a rank-deficient state the PSD step
runs on the face every extension lives on (facial reduction), found
directly in the same blocks, which spares such states the thousands of
iterations the degenerate directions cost.

Full-space operators enter and leave the blocks through the group average,
which works in index space: permutation-invariant operators on A (x) B^(x)k
are constant on the orbits of matrix entries under simultaneous permutation
of the row and column B digits, so the average is a mean over orbits through
a cached label map.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import linalg
from .linalg import hermitize, kron, partial_trace
from .states import DensityMatrix, isotropic, max_entangled, erasure_family

MAX_EXTENSION_DIM = 4096


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


def _b_gather(d_b: int, k: int, perm: tuple[int, ...]) -> np.ndarray:
    """Index array g with (W v)[j] == v[g[j]] for W = permutation_operator(d_b, k, perm)."""
    shape = (d_b,) * k
    digits = np.unravel_index(np.arange(d_b**k), shape)
    return np.ravel_multi_index(tuple(digits[p] for p in perm), shape)


@lru_cache(maxsize=None)
def _conj_indices(d_a: int, d_b: int, k: int, perm: tuple[int, ...]) -> np.ndarray:
    """Index array src with W omega W^dagger == omega[ix_(src, src)] for the lifted permutation."""
    block = d_b**k
    return (np.arange(d_a)[:, None] * block + _b_gather(d_b, k, perm)[None, :]).reshape(-1)


def _generator_perms(k: int) -> list[tuple[int, ...]]:
    gens = []
    for i in range(k - 1):
        p = list(range(k))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return gens


@dataclass(frozen=True)
class _IndexMaps:
    """Orbits of the entries of A (x) B^(x)k under B-factor permutations, row-major."""

    labels: np.ndarray  # orbit label of every entry
    sizes: np.ndarray  # number of entries in each orbit


@lru_cache(maxsize=None)
def _index_maps(d_a: int, d_b: int, k: int) -> _IndexMaps:
    """Orbit labels of the entries under B-factor permutations.

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
    return _IndexMaps(labels=labels, sizes=np.bincount(labels))


def _shapes(k: int, rows: int, cap: Optional[int] = None) -> list[tuple[int, ...]]:
    """Partitions of k into at most rows parts, each part at most cap, largest first."""
    if k == 0:
        return [()]
    if rows == 0:
        return []
    top = k if cap is None else min(k, cap)
    return [(part,) + rest for part in range(top, 0, -1) for rest in _shapes(k - part, rows - 1, part)]


def _irrep_dim(shape: tuple[int, ...]) -> int:
    """Dimension of the S_k irrep of a shape, by the hook length formula."""
    heights = [sum(1 for length in shape if length > c) for c in range(shape[0])]
    hooks = math.prod(
        length - c + heights[c] - r - 1 for r, length in enumerate(shape) for c in range(length)
    )
    return math.factorial(sum(shape)) // hooks


@lru_cache(maxsize=None)
def _schur_weyl(d_b: int, k: int) -> tuple[list[int], list[np.ndarray], list[np.ndarray]]:
    """Schur-Weyl coordinates of the permutation-invariant operators on B^(x)k.

    Per S_k irrep lambda: its dimension s (the copies of the GL(d_b) irrep),
    a real orthonormal d_b^k x m basis V of one copy, and r (below).

    For each shape lambda the kept copy of the GL(d_b) irrep is the one whose
    S_k part is the Gelfand-Tsetlin vector of the row-reading tableau T: the
    joint eigenspace of the Jucys-Murphy elements X_j = sum_{i<j} (i j) with
    the contents of T's boxes as eigenvalues. It is one eigenspace of the
    fixed real combination H = sum_j sqrt(p_j) X_j over the first primes p_j.
    Square roots of distinct primes are linearly independent over the
    rationals, so distinct content vectors give distinct eigenvalues; on the
    shapes the dimension guard admits they stay more than 5e-4 apart.
    Transpositions act as digit gathers and keep the multiset of digits, so H
    is diagonalized one digit-type sector at a time.

    A block X on A (x) copy lifts to symmetrize(s (I (x) V) X (I (x) V)^T),
    which is X (x) I_s. Its reduction onto (A, B_1) contracts X with
    r = (s / k) sum_i Tr_{all but B_i} (V_u V_u'^T), built by contracting the
    basis with itself.
    """
    # red and corr hold d_b^2 sum_lambda m^2 = d_b^2 C(d_b^2 + k - 1, k) entries
    if d_b * d_b * math.comb(d_b * d_b + k - 1, k) > MAX_EXTENSION_DIM**2:
        raise ValueError(
            f"the Schur-Weyl maps of d_B = {d_b}, k = {k} exceed the entries of a dense "
            f"operator at the solver guard {MAX_EXTENSION_DIM}"
        )
    n = d_b**k
    digits = np.array(np.unravel_index(np.arange(n), (d_b,) * k))
    primes = [p for p in range(2, 8 * k) if all(p % q for q in range(2, p))]
    weights = np.sqrt([1] + primes[: k - 1])  # X_0 = 0, so the first weight is unused
    shapes = _shapes(k, d_b)
    # box contents c - r of each row-reading tableau, in filling order
    targets = [weights @ [c - r for r, ln in enumerate(s) for c in range(ln)] for s in shapes]
    swaps = []
    for j in range(1, k):
        for i in range(j):
            perm = list(range(k))
            perm[i], perm[j] = j, i
            swaps.append((weights[j], _b_gather(d_b, k, tuple(perm))))
    _, sector = np.unique(np.sort(digits, axis=0), axis=1, return_inverse=True)
    sector = sector.reshape(-1)
    pos = np.empty(n, dtype=np.intp)
    columns: list[list[np.ndarray]] = [[] for _ in shapes]
    for label in range(sector.max() + 1):
        idx = np.flatnonzero(sector == label)
        local = np.arange(idx.size)
        pos[idx] = local
        h = np.zeros((idx.size, idx.size))
        for w, g in swaps:
            h[pos[g[idx]], local] += w
        e, v = np.linalg.eigh(h)
        for cols, t in zip(columns, targets):
            keep = np.abs(e - t) < 1e-6
            cols.append(np.zeros((n, int(keep.sum()))))
            cols[-1][idx] = v[:, keep]
    mults = [_irrep_dim(shape) for shape in shapes]
    bases = [np.hstack(cols) for cols in columns]
    if sum(s * b.shape[1] for s, b in zip(mults, bases)) != n:
        raise ArithmeticError(f"Schur-Weyl blocks of ({d_b}, {k}) do not fill B^(x)k")
    reds = []
    for s, basis in zip(mults, bases):
        m = basis.shape[1]
        t = basis.reshape((d_b,) * k + (m,))
        r = np.zeros((d_b, d_b, m, m))
        for i in range(k):
            ti = np.moveaxis(t, i, 0).reshape(d_b, -1, m)
            r += ti.transpose(0, 2, 1)[:, None] @ ti[None]
        reds.append(r.reshape(d_b * d_b, m * m) * (s / k))
    return mults, bases, reds


def _rows(x: np.ndarray, d_a: int) -> np.ndarray:
    """Regroup a matrix on A (x) C^m from ((a, u), (a', u')) to ((a, a'), (u, u'))."""
    m = x.shape[0] // d_a
    return x.reshape(d_a, m, d_a, m).transpose(0, 2, 1, 3).reshape(d_a * d_a, m * m)


def _from_rows(rows: np.ndarray, d_a: int) -> np.ndarray:
    """Inverse of _rows."""
    m = math.isqrt(rows.shape[1])
    return rows.reshape(d_a, d_a, m, m).transpose(0, 2, 1, 3).reshape(d_a * m, d_a * m)


@dataclass(frozen=True)
class _Stack:
    """The Schur-Weyl blocks of A (x) B^(x)k as one zero-padded (L, M, M) stack.

    Block lambda sits in the top-left d_a m_lambda corner of slice lambda;
    M = d_a max m_lambda. Entries are addressed in _rows order, irrep after
    irrep: column j of a (d_a^2, sum m^2) array is (lambda, u, u').
    """

    shape: tuple[int, int, int]
    index: np.ndarray  # d_a^2 x sum m^2: flat stack index of every block entry
    grid: np.ndarray  # sum m^2: flat position of (lambda, u, u') in the (sum m)^2 grid
    weight: np.ndarray  # sum m^2: s_lambda of each column
    basis: np.ndarray  # d_b^k x sum m: the irreps' bases side by side
    red: np.ndarray  # sum m^2 x d_b^2: R^T, R the reduction onto (A, B_1)
    corr: np.ndarray  # d_b^2 x sum m^2: K^T, the minimum-norm block change for a reduction change
    metric: np.ndarray  # d_b^2 x d_b^2: K^T W K, so ||K r||^2 = Re<r, r metric>


@lru_cache(maxsize=None)
def _stack(d_a: int, d_b: int, k: int) -> _Stack:
    """Stacked Schur-Weyl maps of (d_a, d_b, k); see _Stack.

    With the weights W = s of each block entry and G = R W^-1 R^T, the map
    K = W^-1 R^T G^-1 makes z + K(rho - R z) the projection onto the
    reduction constraint in the s-weighted norm, and K^T W K = G^-1. The
    rows of _rows form are row vectors, so the stack holds R^T and K^T.
    """
    mults, bases, reds = _schur_weyl(d_b, k)
    dims = [b.shape[1] for b in bases]
    big = d_a * max(dims)
    offsets = np.cumsum([0] + dims)
    index, grid = [], []
    for lam, (m, o) in enumerate(zip(dims, offsets)):
        a, a2, u, u2 = np.indices((d_a, d_a, m, m)).reshape(4, d_a * d_a, m * m)
        index.append(lam * big * big + (a * m + u) * big + a2 * m + u2)
        grid.append((o + u[0]) * offsets[-1] + o + u2[0])
    weight = np.repeat(np.array(mults, dtype=float), [m * m for m in dims])
    red = np.hstack(reds)
    corr = np.linalg.solve((red / weight) @ red.T, red) / weight
    # complex copies spare each matmul with a complex operand a dtype cast
    return _Stack(
        shape=(len(dims), big, big),
        index=np.hstack(index),
        grid=np.concatenate(grid),
        weight=weight,
        basis=np.hstack(bases),
        red=red.T + 0j,
        corr=corr + 0j,
        metric=(corr * weight) @ corr.T + 0j,
    )


def _compress(omega: np.ndarray, d_a: int, d_b: int, k: int) -> np.ndarray:
    """Stack of the blocks (I (x) V)^T omega (I (x) V) of a permutation-invariant omega."""
    st = _stack(d_a, d_b, k)
    n = d_b**k
    w4 = _rows(omega, d_a).reshape(d_a, d_a, n, n)
    out = np.zeros(st.shape, dtype=complex)
    out.reshape(-1)[st.index] = (st.basis.T @ w4 @ st.basis).reshape(d_a * d_a, -1)[:, st.grid]
    return out


def _lift(x: np.ndarray, d_a: int, d_b: int, k: int) -> np.ndarray:
    """Full-space operator symmetrize(sum_lambda s (I (x) V) X (I (x) V)^T) of a stack."""
    st = _stack(d_a, d_b, k)
    m = st.basis.shape[1]
    grid = np.zeros((d_a * d_a, m * m), dtype=complex)
    grid[:, st.grid] = x.reshape(-1)[st.index] * st.weight
    full = st.basis @ grid.reshape(d_a, d_a, m, m) @ st.basis.T
    return symmetrize(_from_rows(full.reshape(d_a * d_a, -1), d_a), d_a, d_b, k)


def _affine(z: np.ndarray, target: np.ndarray, st: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-norm projection z + K(rho - R z) onto the reduction constraint, and rho - R z.

    target is _rows(rho). The stack's padding is neither read nor written.
    """
    rows = z.reshape(-1)[st.index]
    resid = target - rows @ st.red
    x = z.copy()
    x.reshape(-1)[st.index] = rows + resid @ st.corr
    return x, resid


def _face(rho: DensityMatrix, k: int, cutoff: float, st: _Stack) -> Optional[np.ndarray]:
    """Blocks of the face every k-extension lives on; None when rho has full rank.

    An extension w reduces to rho on every pair (A, B_i), so w (v (x) I) = 0
    for each v in ker rho placed on (A, B_i): the range of w lies in
    S = intersection over i of the ranges of Q_i = (supp rho)_{A B_i} (x) I.
    Eigenvalues of rho at or below cutoff count as kernel. S is the
    eigenvalue-1 eigenspace of the mean of the Q_i, which is the group
    average of Q_1 and so has the blocks W^-1 R^T q, q = _rows(supp rho):
    R^T q holds s_lambda times the blocks of the average of q (x) I. Returns
    the padded stack F of each block's face basis, columns outside the face
    zeroed.
    """
    d_a, _ = rho.dims
    w, u = np.linalg.eigh(rho.matrix)
    if w[0] > cutoff:
        return None
    support = u[:, w > cutoff]
    mean = np.zeros(st.shape, dtype=complex)
    mean.reshape(-1)[st.index] = _rows(support @ support.conj().T, d_a) @ st.red.T / st.weight
    e, v = np.linalg.eigh(mean)
    inside = e > 1.0 - 1e-9
    top = slice(st.shape[1] - int(np.max(np.sum(inside, axis=-1))), None)
    return v[..., top] * inside[:, None, top]


def symmetrize(omega: np.ndarray, d_a: int, d_b: int, k: int) -> np.ndarray:
    """Average omega over permutations of the k B factors.

    The group average of an entry is the mean of omega over the entry's orbit
    under simultaneous permutation of the row and column B digits: every orbit
    element is reached by |stabiliser| of the k! permutations, so the k!-term
    average and the orbit mean are the same linear map. The orbit labels come
    from _index_maps, built once per (d_a, d_b, k); a call is two bincounts
    and a gather, whatever k is.
    """
    dim = d_a * d_b**k
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (dim, dim):
        raise ValueError(f"omega shape {omega.shape} does not match dims ({d_a}, {d_b}^{k})")
    maps = _index_maps(d_a, d_b, k)
    flat = omega.reshape(-1)
    n = maps.sizes.size
    sums = np.bincount(maps.labels, flat.real, n) + 1j * np.bincount(maps.labels, flat.imag, n)
    return (sums / maps.sizes)[maps.labels].reshape(dim, dim)


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
    the set lies inside it. The symmetrized matrix is compressed to its
    Schur-Weyl blocks, where the reduction constraint is restored by the
    minimum-norm correction in the s_lambda-weighted norm (the Frobenius norm
    of the full space), and lifted back.
    """
    d_a, d_b = rho.dims
    return _lift(_projected_blocks(omega, rho, k), d_a, d_b, k)


def _projected_blocks(omega: np.ndarray, rho: DensityMatrix, k: int) -> np.ndarray:
    """Stack of the blocks of affine_project(omega, rho, k)."""
    d_a, d_b = rho.dims
    blocks = _compress(symmetrize(hermitize(omega), d_a, d_b, k), d_a, d_b, k)
    return _affine(blocks, _rows(rho.matrix, d_a), _stack(d_a, d_b, k))[0]


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

    The iterates are the zero-padded stack of the Schur-Weyl blocks of the
    full-space ones (see the module docstring): the start point
    (rho (x) rho_B^(x)(k-1), or start) enters as the blocks of its
    symmetrization, and the certificate leaves as the lift of the affine
    blocks. The gap is the s_lambda-weighted norm of the block differences,
    which equals the full-space Frobenius norm; since the affine step moves
    y to x = y + K r with the reduction residual r, it is read off r as
    sqrt(Re<r, r G>), G = K^T W K. Only the PSD step carries a Dykstra
    correction: the affine step's increments are normal to the affine set,
    and its projection ignores normal components.

    For a rank-deficient rho (eigenvalues <= 1e-3*tol count as kernel) the
    PSD step of block X is F psd_project(F^dagger X F) F^dagger, with F the
    face basis _face finds in that block, padded with zero columns: the exact
    projection onto the PSD matrices on a face holding every extension.
    face_dim is the full-space face dimension, sum_lambda s_lambda times the
    width of block lambda's face. An empty face (a pure entangled rho) holds
    no unit-trace operator, so the query is infeasible by proof, not by
    heuristic, and returns before the loop with 0 iterations and the
    s_lambda-weighted norm of the affine start blocks as residual.
    """
    rho = prob.rho
    d_a, d_b = rho.dims
    k = prob.k
    st = _stack(d_a, d_b, k)
    target = _rows(rho.matrix, d_a)
    if start is None:
        marginal = partial_trace(rho.matrix, rho.dims, keep=[1])
        start = rho.matrix
        for _ in range(k - 1):
            start = kron(start, marginal)
    x = _projected_blocks(start, rho, k)
    f = _face(rho, k, 1e-3 * prob.tol, st)
    if f is None:
        face_dim = d_a * d_b**k
    else:
        # block lambda holds s_lambda copies of its face columns
        face_dim = int(np.dot(_schur_weyl(d_b, k)[0], np.sum(np.any(f, axis=1), axis=-1)))
        fh = f.conj().transpose(0, 2, 1)
    if face_dim == 0:
        rows = x.reshape(-1)[st.index]
        residual = math.sqrt(float(np.sum(st.weight * np.abs(rows) ** 2)))
        return ExtendibilityVerdict(VerdictStatus.INFEASIBLE_SIGNAL, None, residual, 0, 0)
    p = np.zeros_like(x)
    gap = float("inf")
    window: deque[float] = deque(maxlen=200)
    for it in range(1, prob.max_iter + 1):
        z = x + p
        y = linalg.psd_project(z) if f is None else f @ linalg.psd_project(fh @ z @ f) @ fh
        p = z - y
        x, resid = _affine(y, target, st)
        # y - x = -K resid exactly, so the gap is read off the small residual
        gap = math.sqrt(float(np.vdot(resid, resid @ st.metric).real))
        if gap <= prob.tol:
            return ExtendibilityVerdict(
                VerdictStatus.FEASIBLE, _lift(x, d_a, d_b, k), gap, it, face_dim
            )
        window.append(gap)
        if (
            len(window) == window.maxlen
            and window[0] - gap <= 1e-4 * gap
            and min(window) > 10.0 * prob.tol
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
