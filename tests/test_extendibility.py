import math
from itertools import permutations

import numpy as np
import pytest

from unext import linalg
from unext.extendibility import (
    ExtensionProblem,
    VerdictStatus,
    affine_project,
    certificate_defects,
    check_k_extendible,
    erasure_certificate,
    symmetrize,
    symmetry_defect,
    threshold_bisect,
    twirl_uu,
    _affine,
    _compress,
    _conj_indices,
    _face,
    _index_maps,
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
    # the orbit mean against the explicit k!-term average over lifted permutations
    shapes = [(2, 2, k) for k in range(2, 7)] + [(2, 3, 2), (2, 3, 3), (3, 3, 2)]
    for d_a, d_b, k in shapes:
        omega = random_hermitian(d_a * d_b**k, 11)
        full = np.zeros_like(omega, dtype=complex)
        for perm in permutations(range(k)):
            src = _conj_indices(d_a, d_b, k, perm)
            full += omega[np.ix_(src, src)]
        full /= math.factorial(k)
        got = symmetrize(omega, d_a, d_b, k)
        assert np.max(np.abs(got - full)) < 1e-11, (d_a, d_b, k)
        n_orbits = _index_maps(d_a, d_b, k).sizes.size
        assert n_orbits == d_a**2 * math.comb(d_b**2 + k - 1, k), (d_a, d_b, k)


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
        assert not np.any(blocks[~inside]), (d_a, d_b, k)
        assert np.max(np.abs(_lift(blocks, d_a, d_b, k) - sym)) < 1e-11, (d_a, d_b, k)
        block_eigs = np.concatenate(
            [
                np.repeat(np.linalg.eigvalsh(x[:n, :n]), s)
                for x, n, s in zip(blocks, sizes, mults)
            ]
        )
        dense_eigs = np.linalg.eigvalsh(sym)
        assert np.max(np.abs(np.sort(block_eigs) - dense_eigs)) < 1e-10, (d_a, d_b, k)
        # the affine step moves a stack by -K resid, whose s-weighted norm,
        # the full-space Frobenius norm, is read off resid through the metric
        target = _rows(random_hermitian(d_a * d_b, 19), d_a)
        x, resid = _affine(blocks, target, st)
        gap = np.sqrt(np.vdot(resid, resid @ st.metric).real)
        dense_gap = np.linalg.norm(_lift(blocks, d_a, d_b, k) - _lift(x, d_a, d_b, k))
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
    out = affine_project(np.zeros((8, 8), dtype=complex), rho, 2)
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
        m = random_hermitian(dim, 3)
        proj = affine_project(m, rho, k)
        red = linalg.partial_trace(proj, (d_a,) + (d_b,) * k, keep=(0, 1))
        assert np.max(np.abs(red - rho.matrix)) <= 1e-12, (rho.dims, k)
        assert symmetry_defect(proj, d_a, d_b, k) <= 1e-12, (rho.dims, k)
        assert np.max(np.abs(affine_project(proj, rho, k) - proj)) < 1e-12, (rho.dims, k)
        # orthogonality of the correction against directions inside the set
        other = affine_project(random_hermitian(dim, 4), rho, k)
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
    # the benchmark's extend classes as specs, at t*(k) -/+ 0.04 (erased
    # family: 1 - 1/k + 0.04), with the iteration counts of the per-block
    # loop as ceilings: a change to the solver may only lower them
    cases = [
        ("isotropic:0.71:2", 2, VerdictStatus.FEASIBLE, 74),
        ("isotropic:0.79:2", 2, VerdictStatus.INFEASIBLE_SIGNAL, 209),
        ("isotropic:0.626667:2", 3, VerdictStatus.FEASIBLE, 1007),
        ("isotropic:0.706667:2", 3, VerdictStatus.INFEASIBLE_SIGNAL, 286),
        ("isotropic:0.585:2", 4, VerdictStatus.FEASIBLE, 1382),
        ("isotropic:0.626667:3", 2, VerdictStatus.FEASIBLE, 445),
        ("isotropic:0.706667:3", 2, VerdictStatus.INFEASIBLE_SIGNAL, 254),
        ("erasure:0.54", 2, VerdictStatus.FEASIBLE, 55),
    ]
    for spec, k, status, ceiling in cases:
        verdict = check_k_extendible(ExtensionProblem(parse_state_spec(spec), k))
        assert verdict.status is status, (spec, k)
        assert verdict.iterations <= ceiling, (spec, k, verdict.iterations)


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


def test_face_of_erased_family_holds_its_certificates():
    # the face is the same for every erased weight in (0, 1); dims 4/18, 5/54, 6/162
    for k, face_dim in [(2, 4), (3, 5), (4, 6)]:
        face = _face(erasure_family(1.0 - 1.0 / k), k, 1e-10)
        assert face.shape == (2 * 3**k, face_dim), k
        assert np.max(np.abs(face.conj().T @ face - np.eye(face_dim))) < 1e-12, k
        cert = erasure_certificate(k)
        proj = face @ face.conj().T
        assert np.max(np.abs(proj @ cert @ proj - cert)) <= 1e-12, k


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
