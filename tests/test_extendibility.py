import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from unext import linalg
from unext.extendibility import (
    ExtensionProblem,
    VerdictStatus,
    certificate_defects,
    check_k_extendible,
    erasure_certificate,
    symmetrize,
    symmetry_defect,
    threshold_bisect,
    twirl_uu,
    _Anderson,
    _GRAM_REG,
    _affine,
    _compress,
    _conj_indices,
    _face,
    _gram_solve,
    _lift,
    _rows,
    _schur_weyl,
    _stack,
)
from unext.states import (
    DensityMatrix,
    depolarizing_choi,
    depolarizing_kraus,
    apply_channel_b,
    erasure_family,
    isotropic,
    max_entangled,
    parse_state_spec,
)


# the benchmark's extend classes as specs, at t*(k) -/+ 0.04 (erased family:
# 1 - 1/k + 0.04), with the iteration counts of the Anderson-accelerated loop
# as ceilings: a change to the solver may only lower them
ITERATION_CASES = [
    ("isotropic:0.71:2", 2, VerdictStatus.FEASIBLE, 3),
    ("isotropic:0.79:2", 2, VerdictStatus.INFEASIBLE_SIGNAL, 209),
    ("isotropic:0.626667:2", 3, VerdictStatus.FEASIBLE, 11),
    ("isotropic:0.706667:2", 3, VerdictStatus.INFEASIBLE_SIGNAL, 256),
    ("isotropic:0.585:2", 4, VerdictStatus.FEASIBLE, 13),
    ("isotropic:0.626667:3", 2, VerdictStatus.FEASIBLE, 3),
    ("isotropic:0.706667:3", 2, VerdictStatus.INFEASIBLE_SIGNAL, 228),
    ("erasure:0.54", 2, VerdictStatus.FEASIBLE, 4),
]


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def test_conj_indices_match_explicit_conjugation():
    rng = np.random.default_rng(2)
    for d_a, d_b, k in [(2, 2, 2), (2, 3, 2), (2, 2, 3)]:
        omega = random_hermitian(d_a * d_b**k, 5)
        for _ in range(3):
            perm = tuple(rng.permutation(k))
            w = linalg.kron(np.eye(d_a), linalg.permutation_operator(d_b, k, perm))
            explicit = w @ omega @ w.conj().T
            src = _conj_indices(d_a, d_b, k, perm)
            assert np.allclose(omega[np.ix_(src, src)], explicit, atol=1e-12)


def test_symmetrize_fixed_point_and_trace():
    omega = random_hermitian(16, 7)
    out = symmetrize(omega, 2, 2, 3)
    assert symmetry_defect(out, 2, 2, 3) < 1e-13
    assert abs(np.trace(out) - np.trace(omega)) < 1e-12
    again = symmetrize(out, 2, 2, 3)
    assert np.max(np.abs(again - out)) < 1e-13


def test_symmetrize_two_term_average():
    phi = max_entangled(2).matrix
    eye_half = np.eye(2, dtype=complex) / 2
    omega = linalg.kron(phi, eye_half)  # pair on (A, B1), mixed on B2
    swap = _conj_indices(2, 2, 2, (1, 0))
    expected = 0.5 * (omega + omega[np.ix_(swap, swap)])
    got = symmetrize(omega, 2, 2, 2)
    assert np.max(np.abs(got - expected)) < 1e-14


def test_symmetrize_matches_full_average():
    # the coset chain against the explicit k!-term average over lifted
    # permutations, for complex, real and integer input
    shapes = [(2, 2, k) for k in range(2, 7)] + [(2, 3, 2), (2, 3, 3), (3, 3, 2)]
    rng = np.random.default_rng(13)
    for d_a, d_b, k in shapes:
        dim = d_a * d_b**k
        inputs = [
            (random_hermitian(dim, 11), np.complex128),
            (rng.normal(size=(dim, dim)), np.float64),
            (rng.integers(-5, 6, size=(dim, dim)), np.float64),
        ]
        for omega, dtype in inputs:
            full = np.zeros(omega.shape, dtype=dtype)
            for perm in permutations(range(k)):
                src = _conj_indices(d_a, d_b, k, perm)
                full += omega[np.ix_(src, src)]
            full /= math.factorial(k)
            got = symmetrize(omega, d_a, d_b, k)
            assert got.dtype == dtype, (d_a, d_b, k, omega.dtype)
            assert np.max(np.abs(got - full)) < 1e-11, (d_a, d_b, k, omega.dtype)
        # an invariant operator has one free entry per A pair and multiset of
        # B digit pairs, as many as the Schur-Weyl blocks hold
        assert _stack(d_a, d_b, k).index.size == d_a**2 * math.comb(d_b**2 + k - 1, k)


def test_symmetrize_keeps_nothing_and_peaks_within_four_operators():
    d_a, d_b, k = 2, 2, 8
    dim = d_a * d_b**k
    omega = np.random.default_rng(5).normal(size=(dim, dim))
    tracemalloc.start()
    try:
        out = symmetrize(omega, d_a, d_b, k)
        held, peak = tracemalloc.get_traced_memory()
        del out
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    slack = 1 << 16
    assert held <= omega.nbytes + slack  # the output only
    assert left <= slack  # no cache outlives the call
    assert peak <= 4 * omega.nbytes


def test_schur_weyl_blocks_match_dense():
    shapes = [(2, 2, k) for k in range(2, 7)] + [(2, 3, 2), (2, 3, 3), (3, 3, 2)]
    for d_a, d_b, k in shapes:
        mults, bases, _ = _schur_weyl(d_b, k)
        sizes = [d_a * b.shape[1] for b in bases]
        # the blocks hold as many parameters as there are orbits, and fill B^(x)k
        assert sum(n**2 for n in sizes) == d_a**2 * math.comb(d_b**2 + k - 1, k)
        assert sum(s * n for s, n in zip(mults, sizes)) == d_a * d_b**k
        # the packed gather hits every block entry exactly once and never the padding
        st = _stack(d_a, d_b, k)
        inside = np.zeros(st.shape, dtype=bool)
        for x, n in zip(inside, sizes):
            x[:n, :n] = True
        hits = np.bincount(st.index.reshape(-1), minlength=inside.size)
        assert np.array_equal(hits, inside.reshape(-1)), (d_a, d_b, k)
        sym = symmetrize(random_hermitian(d_a * d_b**k, 17), d_a, d_b, k)
        blocks = _compress(sym, d_a, d_b, k)
        rows = blocks.reshape(-1)[st.index]
        assert not np.any(blocks[~inside]), (d_a, d_b, k)
        assert np.max(np.abs(_lift(rows, d_a, d_b, k) - sym)) < 1e-11, (d_a, d_b, k)
        block_eigs = np.concatenate(
            [
                np.repeat(np.linalg.eigvalsh(x[:n, :n]), s)
                for x, n, s in zip(blocks, sizes, mults)
            ]
        )
        dense_eigs = np.linalg.eigvalsh(sym)
        assert np.max(np.abs(np.sort(block_eigs) - dense_eigs)) < 1e-10, (d_a, d_b, k)
        # the affine step moves the block entries by -K resid, whose s-weighted
        # norm, the full-space Frobenius norm, is read off resid through the metric
        target = _rows(random_hermitian(d_a * d_b, 19), d_a)
        x, resid = _affine(rows, target, st)
        gap = np.sqrt(np.vdot(resid, resid @ st.metric).real)
        dense_gap = np.linalg.norm(_lift(rows, d_a, d_b, k) - _lift(x, d_a, d_b, k))
        assert abs(gap - dense_gap) < 1e-10 * max(1.0, dense_gap), (d_a, d_b, k)
        # the PSD step on the padded stack keeps the padding zero and is the
        # projection of each block
        proj = linalg.psd_project(blocks)
        assert np.max(np.abs(proj[~inside])) <= 1e-15, (d_a, d_b, k)
        for x, px, n in zip(blocks, proj, sizes):
            each = linalg.psd_project(x[:n, :n])
            assert np.max(np.abs(px[:n, :n] - each)) <= 1e-12, (d_a, d_b, k)


def test_affine_project_from_zero():
    rho = max_entangled(2)
    st = _stack(2, 2, 2)
    zero = np.zeros(st.index.shape, dtype=complex)
    out = _lift(_affine(zero, _rows(rho.matrix, 2), st)[0], 2, 2, 2)
    red = linalg.partial_trace(out, (2, 2, 2), keep=(0, 1))
    assert np.max(np.abs(red - rho.matrix)) < 1e-12
    assert symmetry_defect(out, 2, 2, 2) < 1e-12
    assert abs(np.trace(out) - 1.0) < 1e-12


def test_affine_project_idempotent_and_nearest():
    for rho, k in [
        (isotropic(0.7, 2), 2),
        (isotropic(0.7, 2), 3),
        (isotropic(0.7, 2), 4),
        (isotropic(0.7, 3), 2),
        (erasure_family(0.5), 3),
    ]:
        d_a, d_b = rho.dims
        dim = d_a * d_b**k
        st = _stack(d_a, d_b, k)

        def affine_project(omega):
            # the group average enters the blocks, the affine step runs on their entries
            blocks = _compress(symmetrize(omega, d_a, d_b, k), d_a, d_b, k).reshape(-1)[st.index]
            return _lift(_affine(blocks, _rows(rho.matrix, d_a), st)[0], d_a, d_b, k)

        m = random_hermitian(dim, 3)
        proj = affine_project(m)
        red = linalg.partial_trace(proj, (d_a,) + (d_b,) * k, keep=(0, 1))
        assert np.max(np.abs(red - rho.matrix)) <= 1e-12, (rho.dims, k)
        assert symmetry_defect(proj, d_a, d_b, k) <= 1e-12, (rho.dims, k)
        assert np.max(np.abs(affine_project(proj) - proj)) < 1e-12, (rho.dims, k)
        # orthogonality of the correction against directions inside the set
        other = affine_project(random_hermitian(dim, 4))
        inner = np.trace((m - proj).conj().T @ (other - proj))
        assert abs(inner) < 1e-12, (rho.dims, k)


def test_feasible_cases_and_certificates():
    # face_dim: the erased family's face, the full space for full-rank states
    cases = [
        (erasure_family(0.5), 2, 4),
        (isotropic(0.70, 2), 2, 8),
        (isotropic(0.60, 2), 3, 16),
    ]
    for rho, k, face_dim in cases:
        verdict = check_k_extendible(ExtensionProblem(rho, k))
        assert verdict.status is VerdictStatus.FEASIBLE, (rho.dims, k)
        assert verdict.face_dim == face_dim, (rho.dims, k)
        defects = certificate_defects(verdict.certificate, rho, k)
        tol = 1e-7
        assert defects["psd"] <= tol
        assert defects["symmetry"] <= tol
        assert defects["reduction"] <= tol
        assert defects["trace"] <= tol


def test_iteration_counts_do_not_rise():
    for spec, k, status, ceiling in ITERATION_CASES:
        verdict = check_k_extendible(ExtensionProblem(parse_state_spec(spec), k))
        assert verdict.status is status, (spec, k)
        assert verdict.iterations <= ceiling, (spec, k, verdict.iterations)


def rotated(rho):
    """rho under the local unitary diag(1, e^0.3i) on A and on B: complex, with the same verdicts."""
    u = np.kron(*(np.diag(np.exp(0.3j * (np.arange(d) == 1))) for d in rho.dims))
    return DensityMatrix(u @ rho.matrix @ u.conj().T, rho.dims)


def test_real_states_iterate_in_real_arithmetic():
    # a local unitary changes neither extendibility nor the solver's path, so
    # the real and the complex iteration reach the same verdict in the same step
    for spec, k, status, _ in ITERATION_CASES:
        rho = parse_state_spec(spec)
        real = check_k_extendible(ExtensionProblem(rho, k))
        cplx = check_k_extendible(ExtensionProblem(rotated(rho), k))
        assert (real.status, real.iterations) == (cplx.status, cplx.iterations), (spec, k)
        if status is not VerdictStatus.FEASIBLE:
            continue
        assert (real.blocks.dtype, cplx.blocks.dtype) == (np.float64, np.complex128), spec
        assert real.certificate.dtype == np.float64, spec
        for verdict, state in ((real, rho), (cplx, rotated(rho))):
            defects = certificate_defects(verdict.certificate, state, k)
            assert max(defects.values()) <= 1e-7, (spec, k, defects)


def test_matrix_json_states_keep_their_dtype_and_verdicts(tmp_path):
    # a matrix file stores complex entries: a state whose imaginary part is
    # all zero loads as float64 and runs as its spec string does, step for
    # step, and one with a nonzero imaginary part stays complex128
    path = str(tmp_path / "state.json")

    def reload(state):
        linalg.save_matrix_json(path, state.matrix, state.dims)
        return DensityMatrix(*linalg.load_matrix_json(path))

    for spec, k, _, _ in ITERATION_CASES:
        rho = parse_state_spec(spec)
        real, cplx = reload(rho), reload(rotated(rho))
        assert (real.matrix.dtype, cplx.matrix.dtype) == (np.float64, np.complex128), spec
        assert np.array_equal(real.matrix, rho.matrix), spec
        want = check_k_extendible(ExtensionProblem(rho, k))
        got = check_k_extendible(ExtensionProblem(real, k))
        assert (got.status, got.iterations, got.face_dim) == (
            want.status,
            want.iterations,
            want.face_dim,
        ), spec


def test_warm_starts_promote_across_dtypes():
    # a complex start on a real rho, or real blocks on a complex one, iterate
    # in complex arithmetic and keep the imaginary part (a ComplexWarning
    # from a dropped one fails the suite)
    rho = isotropic(0.60, 2)
    real = check_k_extendible(ExtensionProblem(rho, 3)).blocks
    cplx = check_k_extendible(ExtensionProblem(rotated(rho), 3)).blocks
    for state, start in ((rho, cplx), (rotated(rho), real)):
        verdict = check_k_extendible(ExtensionProblem(state, 3), start=start)
        assert verdict.status is VerdictStatus.FEASIBLE
        assert verdict.blocks.dtype == np.complex128 and np.any(verdict.blocks.imag)
        assert max(certificate_defects(verdict.certificate, state, 3).values()) <= 1e-7
    # through threshold_bisect, with the warm starts crossing at the first midpoint
    t_star = threshold_bisect(lambda t: isotropic(t, 2), 2, 0.55, 0.92)
    for rotate_lo in (True, False):

        def family(t, rotate_lo=rotate_lo):
            return rotated(isotropic(t, 2)) if (t == 0.55) == rotate_lo else isotropic(t, 2)

        assert threshold_bisect(family, 2, 0.55, 0.92) == t_star, rotate_lo


@pytest.mark.parametrize("k", range(6, 11))
def test_feasible_just_below_the_isotropic_threshold(k):
    # t*(k) - 0.005 is k-extendible by the closed form, and near the boundary
    # the convergence rate, not the cost of an iteration, limits the solver
    rho = isotropic((k + 1) / (2 * k) - 0.005, 2)
    verdict = check_k_extendible(ExtensionProblem(rho, k))
    assert verdict.status is VerdictStatus.FEASIBLE, k
    assert verdict.iterations <= 100, (k, verdict.iterations)
    defects = certificate_defects(verdict.certificate, rho, k)
    assert defects.pop("psd") <= 1e-6, k
    assert max(defects.values()) <= 1e-9, (k, defects)


def test_certificate_is_lifted_from_the_kept_blocks():
    rho = isotropic(0.60, 2)
    verdict = check_k_extendible(ExtensionProblem(rho, 3))
    assert verdict.status is VerdictStatus.FEASIBLE
    st = _stack(2, 2, 3)
    assert verdict.dims == (2, 2, 3)
    assert verdict.blocks.shape == st.index.shape
    cert = verdict.certificate
    assert cert is verdict.certificate  # lifted once, on first read
    assert np.array_equal(cert, _lift(verdict.blocks, 2, 2, 3))
    assert max(certificate_defects(cert, rho, 3).values()) <= 1e-7
    # a warm start from the kept blocks is at a solution already
    again = check_k_extendible(ExtensionProblem(rho, 3), start=verdict.blocks)
    assert (again.status, again.iterations) == (VerdictStatus.FEASIBLE, 1)
    # a start enters as block entries only, never as a full-space operator
    with pytest.raises(ValueError):
        check_k_extendible(ExtensionProblem(rho, 3), start=cert)
    for other in [
        check_k_extendible(ExtensionProblem(isotropic(0.95, 2), 2)),
        check_k_extendible(ExtensionProblem(isotropic(1.0, 2), 2)),
        check_k_extendible(ExtensionProblem(isotropic(0.76, 2), 2, max_iter=2)),
    ]:
        assert other.status is not VerdictStatus.FEASIBLE
        assert other.blocks is None and other.certificate is None


def test_gram_solve_matches_the_regularized_normal_equations():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        for near_singular in (False, True):
            for _ in range(200):
                d_g = rng.normal(size=(m, 40))
                if near_singular:
                    # nearly parallel differences, up to the condition 1e10 the Tikhonov term allows
                    d_g = d_g[:1] * rng.normal(size=(m, 1)) + 10.0 ** rng.uniform(-12, -3) * d_g
                gram, rhs = np.zeros((3, 3)), np.zeros(3)
                gram[:m, :m], rhs[:m] = d_g @ d_g.T, d_g @ rng.normal(size=40)
                a = gram[:m, :m] + _GRAM_REG * np.trace(gram) * np.eye(m)
                ref = np.linalg.solve(a, rhs[:m])
                got = _gram_solve(gram, rhs, m)
                assert not np.any(got[m:]), m
                got = got[:m]
                # two backward-stable solves part by up to about cond(a) eps:
                # 1e-12 apart where a is well conditioned
                cond = np.linalg.cond(a)
                gap = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                assert gap <= max(1e-12, 1e-15 * cond), (m, cond, gap)
                backward = np.linalg.norm(a @ got - rhs[:m]) / (
                    np.linalg.norm(a, 2) * np.linalg.norm(got) + np.linalg.norm(rhs[:m])
                )
                assert backward <= 1e-15, (m, backward)


def test_anderson_step_on_a_degenerate_history():
    st = _stack(2, 2, 2)
    rng = np.random.default_rng(4)
    x = rng.normal(size=st.index.shape) + 1j * rng.normal(size=st.index.shape)
    tx = x + 0.1
    # at a fixed point of the step every difference is zero: the plain step
    anderson = _Anderson(x, st.weight)
    for _ in range(4):
        assert np.array_equal(anderson.step(x, tx), tx)
    # differences along one direction make a singular Gram matrix: the
    # extrapolation stays finite and, along that direction, exact
    anderson = _Anderson(x, st.weight)
    for scale in (1.0, 0.5, 0.25, 0.125):
        nxt = anderson.step(scale * x, scale * tx)
    assert np.all(np.isfinite(nxt))
    assert np.max(np.abs(nxt)) < 1e-6 * np.max(np.abs(x))
    # the maximally mixed state and a product state are feasible, with no
    # failure when their histories degenerate
    mixed = check_k_extendible(ExtensionProblem(parse_state_spec("isotropic:0.25:2"), 4))
    assert mixed.status is VerdictStatus.FEASIBLE
    pa = np.diag([0.7, 0.3]).astype(complex)
    pb = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    prod = DensityMatrix(np.kron(pa, pb), (2, 2))
    for k in (2, 4, 6):
        verdict = check_k_extendible(ExtensionProblem(prod, k))
        assert verdict.status is VerdictStatus.FEASIBLE, k
        assert max(certificate_defects(verdict.certificate, prod, k).values()) <= 1e-7, k


def test_product_state_always_feasible():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    pa = a @ a.conj().T
    pa /= np.trace(pa)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    pb = b @ b.conj().T
    pb /= np.trace(pb)
    prod = DensityMatrix(np.kron(pa, pb), (2, 2))
    verdict = check_k_extendible(ExtensionProblem(prod, 4))
    assert verdict.status is VerdictStatus.FEASIBLE


def test_infeasible_signal_with_margin():
    verdict = check_k_extendible(ExtensionProblem(isotropic(0.95, 2), 2))
    assert verdict.status is VerdictStatus.INFEASIBLE_SIGNAL
    assert verdict.residual > 1e-6
    assert verdict.certificate is None


def test_monotone_in_extension_order():
    # infeasible at k=2 stays non-feasible at k=3 (margin-separated point)
    rho = isotropic(0.85, 2)
    v2 = check_k_extendible(ExtensionProblem(rho, 2))
    assert v2.status is VerdictStatus.INFEASIBLE_SIGNAL
    v3 = check_k_extendible(ExtensionProblem(rho, 3))
    assert v3.status is not VerdictStatus.FEASIBLE


def test_scale_guard():
    with pytest.raises(ValueError):
        ExtensionProblem(erasure_family(0.5), 8)  # 2 * 3^8 blows the guard
    with pytest.raises(ValueError):
        ExtensionProblem(isotropic(0.5, 2), 1)
    # inside the dimension guard, but the Schur-Weyl maps of d_B = 18 would
    # hold more entries than a dense operator at the guard
    with pytest.raises(ValueError):
        check_k_extendible(ExtensionProblem(DensityMatrix(np.eye(36) / 36, (2, 18)), 2))


def _dense_face_projector(rho, k):
    # reference: the face is the kernel of sum_i P_i, P_i the kernel projector
    # of rho placed on (A, B_i), each a gather of P_1 by a transposition
    d_a, d_b = rho.dims
    w, u = np.linalg.eigh(rho.matrix)
    ker = u[:, w <= 1e-10]
    first = np.kron(ker @ ker.conj().T, np.eye(d_b ** (k - 1)))
    total = np.zeros_like(first)
    for i in range(k):
        perm = list(range(k))
        perm[0], perm[i] = i, 0
        src = _conj_indices(d_a, d_b, k, tuple(perm))
        total += first[np.ix_(src, src)]
    e, v = np.linalg.eigh(total)
    return v[:, e < 1e-9] @ v[:, e < 1e-9].conj().T


def test_face_of_erased_family_holds_its_certificates():
    rng = np.random.default_rng(8)

    def unitary(d):
        return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]

    u = np.kron(unitary(2), unitary(3))
    rotated = u @ erasure_family(0.7).matrix @ u.conj().T
    g = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    rank3 = g @ g.conj().T / np.trace(g @ g.conj().T).real
    # the erased family's face is the same for every erased weight in (0, 1):
    # dims 4/18, 5/54, 6/162; it holds the family's certificates
    cases = [
        (erasure_family(1.0 - 1.0 / k), k, dim, erasure_certificate(k))
        for k, dim in [(2, 4), (3, 5), (4, 6)]
    ]
    cases += [
        (DensityMatrix(linalg.hermitize(rotated), (2, 3)), 3, 5, None),
        (DensityMatrix(linalg.hermitize(rank3), (2, 2)), 3, 5, None),
    ]
    for rho, k, face_dim, cert in cases:
        d_a, d_b = rho.dims
        f = _face(rho.matrix, d_a, 1e-10, _stack(d_a, d_b, k))
        ffh = f @ f.conj().transpose(0, 2, 1)
        dense = _dense_face_projector(rho, k)
        assert round(np.trace(dense).real) == face_dim, k
        widths = np.sum(np.any(f, axis=1), axis=-1)
        assert np.dot(_schur_weyl(d_b, k)[0], widths) == face_dim, k
        assert np.max(np.abs(ffh - _compress(dense, d_a, d_b, k))) < 1e-12, k
        if cert is not None:
            assert np.max(np.abs(dense @ cert - cert)) < 1e-12, k
            blocks = _compress(cert, d_a, d_b, k)
            assert np.max(np.abs(ffh @ blocks @ ffh - blocks)) <= 1e-12, k
    # a pure entangled state has an empty face, and a full-rank one no face
    assert not np.any(_face(isotropic(1.0, 2).matrix, 2, 1e-10, _stack(2, 2, 2)))
    assert not np.any(_dense_face_projector(isotropic(1.0, 2), 2))
    assert _face(isotropic(0.7, 2).matrix, 2, 1e-10, _stack(2, 2, 2)) is None
    # at k = 9 (dimension 1024) the face is found in the blocks alone
    e01 = np.zeros((4, 4), dtype=complex)
    e01[1, 1] = 1.0
    mix = DensityMatrix(0.3 * max_entangled(2).matrix + 0.7 * e01, (2, 2))
    verdict = check_k_extendible(ExtensionProblem(mix, 9, max_iter=5))
    assert verdict.face_dim == 2


def test_face_reduced_solver_on_rank_deficient_inputs():
    rho = erasure_family(0.54)
    verdict = check_k_extendible(ExtensionProblem(rho, 2))
    assert verdict.status is VerdictStatus.FEASIBLE
    assert verdict.face_dim == 4
    assert verdict.iterations <= 60
    # a local-unitary rotation moves the support but not the face dimension or the run
    rng = np.random.default_rng(8)

    def unitary(d):
        return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]

    u = np.kron(unitary(2), unitary(3))
    rotated = DensityMatrix(linalg.hermitize(u @ rho.matrix @ u.conj().T), (2, 3))
    again = check_k_extendible(ExtensionProblem(rotated, 2))
    assert (again.status, again.face_dim, again.iterations) == (
        verdict.status,
        verdict.face_dim,
        verdict.iterations,
    )
    # certificates stay full-space and are checked against the unreduced state
    for r, v in [(rho, verdict), (rotated, again)]:
        assert v.certificate.shape == (18, 18)
        assert max(certificate_defects(v.certificate, r, 2).values()) <= 1e-7
    # eigenvalues just below the 1e-3*tol cut-off are dropped from the face,
    # and the certificate still passes against the unreduced state
    noisy = DensityMatrix((1 - 5.4e-10) * rho.matrix + 9e-11 * np.eye(6), (2, 3))
    near = check_k_extendible(ExtensionProblem(noisy, 2))
    assert (near.status, near.face_dim) == (VerdictStatus.FEASIBLE, 4)
    assert max(certificate_defects(near.certificate, noisy, 2).values()) <= 1e-7
    inside = check_k_extendible(ExtensionProblem(erasure_family(0.75), 3))
    assert inside.status is VerdictStatus.FEASIBLE
    assert inside.face_dim == 5
    assert inside.iterations <= 300
    outside = check_k_extendible(ExtensionProblem(erasure_family(0.62), 3))
    assert outside.status is VerdictStatus.INFEASIBLE_SIGNAL
    # a pure entangled state has the face {0}, which proves infeasibility before the loop
    pure = check_k_extendible(ExtensionProblem(isotropic(1.0, 2), 2))
    assert (pure.status, pure.face_dim, pure.iterations) == (VerdictStatus.INFEASIBLE_SIGNAL, 0, 0)
    # its residual is the distance from the face's only PSD point 0 to the
    # affine set, read off the blocks with the s_lambda weights (unequal at k = 4)
    phi = isotropic(1.0, 2)
    pure = check_k_extendible(ExtensionProblem(phi, 4))
    st = _stack(2, 2, 4)
    zero = np.zeros(st.index.shape, dtype=complex)
    nearest = _lift(_affine(zero, _rows(phi.matrix, 2), st)[0], 2, 2, 4)
    assert abs(pure.residual - np.linalg.norm(nearest)) < 1e-12


def test_threshold_bisect_isotropic_k2():
    t_star = threshold_bisect(lambda t: isotropic(t, 2), 2, 0.55, 0.92)
    assert 0.74 <= t_star <= 0.76
    # the returned parameter is one the solver confirmed, not a bracket midpoint
    verdict = check_k_extendible(ExtensionProblem(isotropic(t_star, 2), 2))
    assert verdict.status is VerdictStatus.FEASIBLE


def test_threshold_bisect_erasure_is_orientation_agnostic():
    q_star = threshold_bisect(erasure_family, 2, 0.9, 0.1)
    assert 0.49 <= q_star <= 0.51
    verdict = check_k_extendible(ExtensionProblem(erasure_family(q_star), 2))
    assert verdict.status is VerdictStatus.FEASIBLE


def test_threshold_bisect_rejects_bad_bracket():
    with pytest.raises(ValueError):
        threshold_bisect(lambda t: isotropic(t, 2), 2, 0.9, 0.95)  # lo not feasible


def test_erasure_certificate_small_orders():
    for k in (2, 3):
        cert = erasure_certificate(k)
        assert cert.dtype == np.float64, k
        target = erasure_family(1.0 - 1.0 / k)
        defects = certificate_defects(cert, target, k)
        assert max(defects.values()) < 1e-12, (k, defects)


def test_erasure_certificate_guard():
    with pytest.raises(ValueError):
        erasure_certificate(1)
    with pytest.raises(ValueError):
        erasure_certificate(8)


def test_twirl_fixed_points_and_overlap():
    iso = isotropic(0.6, 2)
    assert np.max(np.abs(twirl_uu(iso).matrix - iso.matrix)) < 1e-12
    phi = max_entangled(2)
    assert np.max(np.abs(twirl_uu(phi).matrix - phi.matrix)) < 1e-12
    got = twirl_uu(depolarizing_choi(0.15))
    assert np.max(np.abs(got.matrix - isotropic(0.85, 2).matrix)) < 1e-12
    with pytest.raises(ValueError):
        twirl_uu(erasure_family(0.5))


def test_twirl_preserves_verdicts():
    # margin-separated points on both sides of the k = 2 boundary
    for rho, expected in [
        (depolarizing_choi(0.3), VerdictStatus.FEASIBLE),  # overlap 0.7
        (depolarizing_choi(0.1), VerdictStatus.INFEASIBLE_SIGNAL),  # overlap 0.9
    ]:
        before = check_k_extendible(ExtensionProblem(rho, 2))
        after = check_k_extendible(ExtensionProblem(twirl_uu(rho), 2))
        assert before.status is expected
        assert after.status is expected


def test_local_channel_keeps_feasibility():
    # quick instance of the free-channel property; the fuller sweep lives in
    # the acceptance suite
    rho = isotropic(0.70, 2)
    out = apply_channel_b(rho, depolarizing_kraus(0.2))
    verdict = check_k_extendible(ExtensionProblem(out, 2))
    assert verdict.status is VerdictStatus.FEASIBLE
