"""k-extendibility of small bipartite states by alternating projections.

A bipartite state is k-extendible when it admits a global state on one A
factor and k B factors that is invariant under permutations of the B factors
and reduces to the original state on (A, B_1). Membership is decided by
alternating projections between the PSD cone and the affine set of
permutation-invariant unit-trace extensions with the right reduction, sped up
by Anderson extrapolation over the last few steps.

A Feasible verdict carries the extension found, which is an independently
checkable certificate; it keeps the extension's blocks (below) and forms the
full-space operator only when the certificate is read. An InfeasibleSignal verdict is heuristic: it reports
that the distance between the two constraint sets stabilized well above the
tolerance, which alternating projections cannot turn into a proof. Callers
that need reliability keep their query points away from the feasibility
boundary. The one exception is an empty face (below), which proves
infeasibility.

The loop runs in Schur-Weyl blocks. Every iterate commutes with the
permutations of the B factors, so it is a direct sum over the S_k irreps
lambda (at most d_B rows) of X_lambda (x) I_{s_lambda}, where X_lambda acts on
A (x) one copy of the GL(d_B) irrep (dimension d_A m_lambda) and s_lambda is
the S_k irrep dimension. The solver keeps only the entries of the blocks
X_lambda, with the Frobenius norm weighted by s_lambda, and scatters them into
one zero-padded stack for the PSD step, one batched eigendecomposition; the
affine step is a gather and two products with precomputed maps, and the
extrapolation works on the same entries. Padding is exact: the PSD projection
of X (+) 0 is psd(X) (+) 0, and the affine maps never read or write it. The maps are built
once per (d_A, d_B, k) and cached, and they are real: a real rho (stored as float64, as
every named state is) is iterated, and its certificate kept, in real arithmetic, while a
complex rho or warm start makes the iterates complex. For a rank-deficient state the PSD step
runs on the face every extension lives on (facial reduction), found
directly in the same blocks, which spares such states the thousands of
iterations the degenerate directions cost.

Operators enter the solver only as block entries (a warm start is a
Feasible verdict's blocks) and leave it only through the group average,
symmetrize, which sums the k! conjugates of an operator as k - 1 stages of
B-factor swaps and keeps nothing between calls.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from . import linalg
from .linalg import hermitize, kron, partial_trace
from .states import DensityMatrix, isotropic, max_entangled, erasure_family

MAX_EXTENSION_DIM = 4096
_ANDERSON_DEPTH = 3  # differences kept by the solver's Anderson extrapolation; _gram_solve is 3 x 3
_GRAM_REG = 1e-10  # Tikhonov term of the extrapolation's normal equations, relative to their trace


class VerdictStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_SIGNAL = "infeasible-signal"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ExtendibilityVerdict:
    """Outcome of check_k_extendible.

    A Feasible verdict keeps its certificate as the entries of its Schur-Weyl
    blocks (a d_A^2 x sum m^2 array, see _Stack) and dims = (d_A, d_B, k);
    certificate lifts them to the full-space operator on first read. It is
    None for the other verdicts.
    """

    status: VerdictStatus
    residual: float
    iterations: int
    face_dim: int
    dims: tuple[int, int, int]
    blocks: Optional[np.ndarray] = None

    @cached_property
    def certificate(self) -> Optional[np.ndarray]:
        return None if self.blocks is None else _lift(self.blocks, *self.dims)


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
    return _Stack(
        shape=(len(dims), big, big),
        index=np.hstack(index),
        grid=np.concatenate(grid),
        weight=weight,
        basis=np.hstack(bases),
        red=red.T,
        corr=corr,
        metric=(corr * weight) @ corr.T,
    )


def _compress(omega: np.ndarray, d_a: int, d_b: int, k: int) -> np.ndarray:
    """Stack of the blocks (I (x) V)^T omega (I (x) V) of a permutation-invariant omega."""
    st = _stack(d_a, d_b, k)
    n = d_b**k
    w4 = _rows(omega, d_a).reshape(d_a, d_a, n, n)
    out = np.zeros(st.shape, dtype=omega.dtype)
    out.reshape(-1)[st.index] = (st.basis.T @ w4 @ st.basis).reshape(d_a * d_a, -1)[:, st.grid]
    return out


def _lift(rows: np.ndarray, d_a: int, d_b: int, k: int) -> np.ndarray:
    """Full-space operator symmetrize(sum_lambda s (I (x) V) X (I (x) V)^T) of block entries.

    rows holds the entries of the blocks X_lambda in the stack's column order
    (a d_a^2 x sum m^2 array, see _Stack).
    """
    st = _stack(d_a, d_b, k)
    m = st.basis.shape[1]
    grid = np.zeros((d_a * d_a, m * m), dtype=rows.dtype)
    grid[:, st.grid] = rows * st.weight
    n = d_b**k
    full = np.empty((d_a * n, d_a * n), dtype=rows.dtype)
    # the (a, a') blocks go straight to rows (a, .) and columns (a', .) of full
    np.matmul(
        st.basis @ grid.reshape(d_a, d_a, m, m),
        st.basis.T,
        out=full.reshape(d_a, n, d_a, n).transpose(0, 2, 1, 3),
    )
    return symmetrize(full, d_a, d_b, k)


def _affine(rows: np.ndarray, target: np.ndarray, st: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-norm projection z + K(rho - R z) onto the reduction constraint, and rho - R z.

    rows holds the block entries of z (see _Stack) and target is _rows(rho).
    """
    resid = target - rows @ st.red
    return rows + resid @ st.corr, resid


def _face(rho: np.ndarray, d_a: int, cutoff: float, st: _Stack) -> Optional[np.ndarray]:
    """Blocks of the face every k-extension of the matrix rho lives on; None at full rank.

    An extension w reduces to rho on every pair (A, B_i), so w (v (x) I) = 0
    for each v in ker rho placed on (A, B_i): the range of w lies in
    S = intersection over i of the ranges of Q_i = (supp rho)_{A B_i} (x) I.
    Eigenvalues of rho at or below cutoff count as kernel. S is the
    eigenvalue-1 eigenspace of the mean of the Q_i, which is the group
    average of Q_1 and so has the blocks W^-1 R^T q, q = _rows(supp rho):
    R^T q holds s_lambda times the blocks of the average of q (x) I. Returns
    the padded stack F of each block's face basis, columns outside the face
    zeroed, in the dtype of rho.
    """
    w, u = np.linalg.eigh(rho)
    if w[0] > cutoff:
        return None
    support = u[:, w > cutoff]
    mean = np.zeros(st.shape, dtype=u.dtype)
    mean.reshape(-1)[st.index] = _rows(support @ support.conj().T, d_a) @ st.red.T / st.weight
    e, v = np.linalg.eigh(mean)
    inside = e > 1.0 - 1e-9
    top = slice(st.shape[1] - int(np.max(np.sum(inside, axis=-1))), None)
    return v[..., top] * inside[:, None, top]


def symmetrize(omega: np.ndarray, d_a: int, d_b: int, k: int) -> np.ndarray:
    """Average omega over permutations of the k B factors.

    Every permutation of the first j factors is one of e, (1 j), ..., (j-1 j)
    times a permutation of the first j - 1, so the k!-term sum is the stages
    A_2, ..., A_k in turn (the coset chain of S_k), A_j the sum of its input
    and the input's conjugates by the swaps (i j), i < j. omega is divided by
    k! as it is copied into pair-major order (b_1 b'_1, ..., b_k b'_k, a a'),
    where conjugation by a swap exchanges two axes of size d_b^2 and the A
    pair, never moved, stays innermost. A call makes about k^2 / 2 passes over
    two buffers of omega's size and keeps nothing. A complex omega stays
    complex; any other comes back float64.
    """
    dim = d_a * d_b**k
    omega = np.asarray(omega)
    if omega.shape != (dim, dim):
        raise ValueError(f"omega shape {omega.shape} does not match dims ({d_a}, {d_b}^{k})")
    split = ((d_a,) + (d_b,) * k) * 2
    paired = (d_b,) * 2 * k + (d_a,) * 2
    order = [*range(1, k + 1), 0]  # the factor on each pair axis, 0 the A pair
    dtype = complex if np.iscomplexobj(omega) else float
    # two buffers in turn: every stage overwrites all of one, so none pays for fresh pages
    acc, spare = (np.empty((d_b * d_b,) * k + (d_a * d_a,), dtype=dtype) for _ in range(2))
    src = omega.reshape(split).transpose([ax for f in order for ax in (f, k + 1 + f)])
    np.divide(src, math.factorial(k), out=acc.reshape(paired))
    for j in range(2, k + 1):
        if j == k - 1:
            # B_{k-1} and B_k move to the front: the swaps of the last two stages
            # would otherwise all exchange the innermost axes, in short strided runs
            np.copyto(spare, acc.transpose(k - 2, k - 1, *range(k - 2), k))
            acc, spare = spare, acc
            order = order[k - 2 : k] + order[: k - 2] + [0]
        np.add(acc, acc.swapaxes(order.index(1), order.index(j)), out=spare)
        for i in range(2, j):
            spare += acc.swapaxes(order.index(i), order.index(j))
        acc, spare = spare, acc
    pairs = [ax for f in order for ax in (f, k + 1 + f)]
    out = spare.reshape(dim, dim)
    np.copyto(out.reshape(split), acc.reshape(paired).transpose(np.argsort(pairs)))
    return out


def symmetry_defect(omega: np.ndarray, d_a: int, d_b: int, k: int) -> float:
    """Max-entry deviation of omega from invariance under the B-factor transpositions."""
    defect = 0.0
    for i in range(k - 1):  # the adjacent transpositions generate S_k
        src = _conj_indices(d_a, d_b, k, tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, k)))
        defect = max(defect, float(np.max(np.abs(omega[np.ix_(src, src)] - omega))))
    return defect


def _gram_solve(gram: np.ndarray, rhs: np.ndarray, m: int) -> np.ndarray:
    """gamma with (G + _GRAM_REG tr(G) I) gamma = rhs on the leading m x m block of a 3 x 3 G.

    G and rhs are zero past m, where unit pivots keep gamma 0. Elimination needs no pivoting
    on a positive definite system, and on Python floats it costs less than a numpy call.
    """
    (a, b, c), (_, d, e), (_, _, f) = gram.tolist()
    shift = _GRAM_REG * (a + d + f)
    a, d, f = a + shift, d + (shift if m > 1 else 1.0), f + (shift if m > 2 else 1.0)
    l1, l2 = b / a, c / a
    d, e = d - l1 * b, e - l1 * c
    l3 = e / d
    f -= l2 * c + l3 * e
    r0, r1, r2 = rhs.tolist()
    r1 -= l1 * r0
    r2 -= l2 * r0 + l3 * r1
    x2 = r2 / f
    x1 = (r1 - e * x2) / d
    return np.array([(r0 - b * x1 - c * x2) / a, x1, x2])


class _Anderson:
    """Type-II Anderson extrapolation of a fixed-point map T.

    Each step takes an iterate x and tx = T(x), and keeps the last
    _ANDERSON_DEPTH differences dt_j of successive T values and dg_j of
    successive residuals g = tx - x (Walker & Ni, SIAM J. Numer. Anal. 49,
    1715, 2011). The weights gamma minimise
    ||g - sum_j gamma_j dg_j|| in the s_lambda-weighted real inner product,
    the full-space Frobenius one, and the next iterate is
    tx - sum_j gamma_j dt_j. Real weights keep every block Hermitian, and as
    affine weights of T values they keep the iterate in the affine set.
    gamma solves the normal equations with a Tikhonov term _GRAM_REG times
    the trace of the Gram matrix, so a degenerate history (nearly parallel
    differences) drops out of the extrapolation instead of blowing it up, and
    an all-zero one (at a fixed point) gives the plain step tx. The Gram
    matrix is updated one row per step on the real views of the block entries;
    rows not yet written are zero.
    """

    def __init__(self, x: np.ndarray, weight: np.ndarray):
        parts = 2 if np.iscomplexobj(x) else 1  # real components of an entry, each weighted
        self.weight = np.repeat(np.tile(weight, x.size // weight.size), parts)
        self.d_t = np.zeros((_ANDERSON_DEPTH,) + x.shape, dtype=x.dtype)
        self.d_g = np.zeros((_ANDERSON_DEPTH, parts * x.size))
        self.w_d_g = np.zeros_like(self.d_g)
        self.gram = np.zeros((_ANDERSON_DEPTH, _ANDERSON_DEPTH))
        self.steps = 0
        self.last: Optional[tuple[np.ndarray, np.ndarray]] = None

    def step(self, x: np.ndarray, tx: np.ndarray) -> np.ndarray:
        """The iterate after x, given tx = T(x)."""
        g = (tx - x).reshape(-1).view(float)
        if self.last is not None:
            j = self.steps % _ANDERSON_DEPTH
            np.subtract(tx, self.last[0], out=self.d_t[j])
            np.subtract(g, self.last[1], out=self.d_g[j])
            np.multiply(self.d_g[j], self.weight, out=self.w_d_g[j])
            self.gram[j] = self.gram[:, j] = self.d_g @ self.w_d_g[j]
            self.steps += 1
        self.last = (tx, g)
        if self.gram.trace() == 0.0:
            return tx
        gamma = _gram_solve(self.gram, self.w_d_g @ g, min(self.steps, _ANDERSON_DEPTH))
        return tx - (gamma @ self.d_t.reshape(_ANDERSON_DEPTH, -1)).reshape(tx.shape)


def check_k_extendible(
    prob: ExtensionProblem,
    start: Optional[np.ndarray] = None,
) -> ExtendibilityVerdict:
    """Decide k-extendibility by Anderson-accelerated alternating projections.

    The iteration is the fixed-point map T(x) = affine(psd(x)) on the affine
    set, accelerated by type-II Anderson extrapolation over the last
    _ANDERSON_DEPTH steps (Walker & Ni, SIAM J. Numer. Anal. 49, 1715, 2011;
    Zhang, O'Donoghue & Boyd, SIAM J. Optim. 30, 3170, 2020; see _Anderson).
    Feasible when the gap between the PSD point psd(x) and the affine point
    T(x) falls below tol; T(x) is then a certificate satisfying all three
    extension conditions within tol. InfeasibleSignal (heuristic) when the
    smallest gap so far stabilizes above 10*tol across 200 consecutive
    iterations. Inconclusive when the iteration budget runs out first. Both
    report the smallest gap as residual: every gap bounds the distance
    between the PSD cone and the affine set from above, and extrapolated
    iterates, unlike plain alternating projections, need not shrink the gap
    at every step.

    The iterates are the entries of the Schur-Weyl blocks of the full-space
    ones (see the module docstring), scattered into the zero-padded stack for
    the PSD step. The first iterate is the affine projection of start: block
    entries in _Stack column order, such as a Feasible verdict's .blocks for
    the same (d_A, d_B, k), or zero blocks by default, which give the
    minimum-norm point of the affine set. The gap is the s_lambda-weighted
    norm of the block differences, which equals the full-space Frobenius
    norm; since the affine step moves y to y + K r with the reduction
    residual r, it is read off r as sqrt(Re<r, r G>), G = K^T W K. A Feasible
    verdict keeps the certificate's block entries and lifts them to the full
    space when .certificate is first read.

    For a rank-deficient rho (eigenvalues <= 1e-3*tol count as kernel) the
    PSD step of block X is F psd_project(F^dagger X F) F^dagger, with F the
    face basis _face finds in that block, padded with zero columns: the exact
    projection onto the PSD matrices on a face holding every extension.
    face_dim is the full-space face dimension, sum_lambda s_lambda times the
    width of block lambda's face. An empty face (a pure entangled rho) holds
    no unit-trace operator, so the query is infeasible by proof, not by
    heuristic, and returns before the loop with 0 iterations and, as
    residual, the distance between the face's only PSD point 0 and the
    affine set: the s_lambda-weighted norm of the minimum-norm affine point.
    """
    rho = prob.rho
    d_a, d_b = rho.dims
    k = prob.k
    st = _stack(d_a, d_b, k)
    target = _rows(rho.matrix, d_a)
    if start is None:
        start = np.zeros_like(target, shape=st.index.shape)
    elif np.shape(start) != st.index.shape:
        raise ValueError(f"start must be block entries of shape {st.index.shape}")
    x = _affine(start, target, st)[0]
    f = _face(rho.matrix, d_a, 1e-3 * prob.tol, st)
    if f is None:
        face_dim = d_a * d_b**k
    else:
        # block lambda holds s_lambda copies of its face columns
        face_dim = int(np.dot(_schur_weyl(d_b, k)[0], np.sum(np.any(f, axis=1), axis=-1)))
        fh = f.conj().transpose(0, 2, 1)
    dims = (d_a, d_b, k)
    if face_dim == 0:
        residual = math.sqrt(float(np.sum(st.weight * np.abs(x) ** 2)))
        return ExtendibilityVerdict(VerdictStatus.INFEASIBLE_SIGNAL, residual, 0, 0, dims)
    z = np.zeros(st.shape, dtype=x.dtype)
    best = float("inf")
    window: deque[float] = deque(maxlen=200)
    anderson = _Anderson(x, st.weight)
    for it in range(1, prob.max_iter + 1):
        z.reshape(-1)[st.index] = x
        y = linalg.psd_project(z) if f is None else f @ linalg.psd_project(fh @ z @ f) @ fh
        tx, resid = _affine(y.reshape(-1)[st.index], target, st)
        # psd(x) - T(x) = -K resid exactly, so the gap is read off the small residual
        gap = math.sqrt(float(np.vdot(resid, resid @ st.metric).real))
        if gap <= prob.tol:
            return ExtendibilityVerdict(VerdictStatus.FEASIBLE, gap, it, face_dim, dims, tx)
        best = min(best, gap)
        window.append(best)
        if (
            len(window) == window.maxlen
            and window[0] - best <= 1e-4 * best
            and best > 10.0 * prob.tol
        ):
            return ExtendibilityVerdict(VerdictStatus.INFEASIBLE_SIGNAL, best, it, face_dim, dims)
        x = anderson.step(x, tx)
    return ExtendibilityVerdict(VerdictStatus.INCONCLUSIVE, best, prob.max_iter, face_dim, dims)


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


def threshold_bisect(family: Callable[[float], DensityMatrix], k: int, lo: float, hi: float) -> float:
    """Locate the extendibility boundary of a monotone one-parameter family.

    family(lo) must be Feasible and family(hi) InfeasibleSignal, both at the
    ExtensionProblem defaults. Each midpoint query warm-starts from the block
    entries of the last Feasible verdict. Once the bracket has width <= 0.01
    the feasible end lo is returned: it is the last parameter the solver
    confirmed Feasible, whereas the midpoint can sit on the infeasible side
    of the boundary. An Inconclusive midpoint is treated as
    not-confirmed-feasible, which can only bias the boundary toward the
    feasible side; for the sigma choices built on these thresholds that is
    the sound direction.
    """
    v_lo = check_k_extendible(ExtensionProblem(family(lo), k))
    if v_lo.status is not VerdictStatus.FEASIBLE:
        raise ValueError(f"family({lo}) is not Feasible (got {v_lo.status.value})")
    v_hi = check_k_extendible(ExtensionProblem(family(hi), k))
    if v_hi.status is not VerdictStatus.INFEASIBLE_SIGNAL:
        raise ValueError(f"family({hi}) is not InfeasibleSignal (got {v_hi.status.value})")
    warm = v_lo.blocks
    while abs(hi - lo) > 0.01:
        mid = 0.5 * (lo + hi)
        verdict = check_k_extendible(ExtensionProblem(family(mid), k), start=warm)
        if verdict.status is VerdictStatus.FEASIBLE:
            lo = mid
            warm = verdict.blocks
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
    flags = np.zeros((3 ** (k - 1),) * 2)
    flags[-1, -1] = 1.0  # the erasure flag |2><2| on each of B_2..B_k
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
