import numpy as np
import pytest

from unext import linalg, states
from unext.states import (
    DensityMatrix,
    apply_channel_b,
    depolarizing_choi,
    depolarizing_kraus,
    erasure_family,
    erasure_kraus,
    erasure_output,
    fidelity,
    isotropic,
    max_entangled,
    parse_state_spec,
)


def spectrum(rho):
    return np.sort(np.linalg.eigvalsh(rho.matrix))


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4, dtype=complex), (2, 2))  # trace 4
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 3))  # dims mismatch


def test_max_entangled_small_cases():
    one = max_entangled(1)
    assert one.matrix.shape == (1, 1)
    assert np.allclose(one.matrix, [[1.0]])

    phi = max_entangled(2)
    w = spectrum(phi)
    assert np.allclose(w, [0, 0, 0, 1], atol=1e-12)
    for side in (0, 1):
        marg = linalg.partial_trace(phi.matrix, phi.dims, keep=[side])
        assert np.allclose(marg, np.eye(2) / 2, atol=1e-12)
    assert abs(fidelity(phi, isotropic(1.0, 2)) - 1.0) < 1e-12


def test_isotropic_spectra():
    assert np.allclose(isotropic(1.0, 2).matrix, max_entangled(2).matrix, atol=1e-12)
    assert np.allclose(isotropic(0.25, 2).matrix, np.eye(4) / 4, atol=1e-12)
    w = spectrum(isotropic(0.85, 2))
    assert np.allclose(w, [0.05, 0.05, 0.05, 0.85], atol=1e-12)
    w3 = spectrum(isotropic(0.4, 3))
    assert np.allclose(w3, [0.075] * 8 + [0.4], atol=1e-12)


def test_depolarizing_choi_spectra():
    assert np.allclose(depolarizing_choi(0.0).matrix, max_entangled(2).matrix, atol=1e-12)
    assert np.allclose(depolarizing_choi(0.75).matrix, np.eye(4) / 4, atol=1e-12)
    w = spectrum(depolarizing_choi(0.15))
    assert np.allclose(w, [0.05, 0.05, 0.05, 0.85], atol=1e-12)


def test_choi_and_isotropic_spectra_match_on_grid():
    for p in np.linspace(0.0, 1.0, 21):
        ws = spectrum(depolarizing_choi(float(p)))
        wi = spectrum(isotropic(1.0 - float(p), 2))
        assert np.allclose(ws, wi, atol=1e-12), f"spectra differ at p={p}"


def test_erasure_constructors_agree_on_grid():
    for q in np.linspace(0.0, 1.0, 21):
        a = apply_channel_b(max_entangled(2), erasure_kraus(float(q)))
        b = erasure_output(float(q))
        assert a.dims == b.dims == (2, 3)
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-15, f"mismatch at q={q}"


def test_depolarizing_closed_form_matches_its_channel_construction():
    # the erasure closed form is checked against its channel on the grid above
    for p in (0.0, 0.15, 0.5, 0.75, 1.0):
        want = apply_channel_b(max_entangled(2), depolarizing_kraus(p))
        got = depolarizing_choi(p)
        assert got.dims == want.dims
        assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-15, p


def test_density_matrix_keeps_its_own_copy():
    for dtype in (float, complex):
        raw = np.eye(4, dtype=dtype) / 4
        rho = DensityMatrix(raw, (2, 2))
        raw[0, 0] = raw[0, 1] = 5.0
        assert np.array_equal(rho.matrix, np.eye(4) / 4), dtype
        assert states.tensor_power(rho, 2).matrix[0, 0] == 1 / 16, dtype


def test_named_states_and_their_dense_powers_are_float64():
    named = [
        max_entangled(3),
        isotropic(0.7, 3),
        depolarizing_choi(0.15),
        erasure_output(0.35),
        erasure_family(2 / 3),
    ]
    for rho in named:
        assert rho.matrix.dtype == np.float64
        assert states.tensor_power(rho, 2).matrix.dtype == np.float64
    # 4^5 entries squared, 8 bytes each
    assert states.tensor_power(depolarizing_choi(0.15), 5).matrix.nbytes == 8 * 4**10


def test_erasure_endpoints():
    full = erasure_output(1.0)
    flag = np.zeros((3, 3))
    flag[2, 2] = 1.0
    assert np.allclose(full.matrix, np.kron(np.eye(2) / 2, flag), atol=1e-12)
    none = erasure_output(0.0)
    marg = linalg.partial_trace(none.matrix, none.dims, keep=[0])
    assert np.allclose(marg, np.eye(2) / 2, atol=1e-12)
    assert np.allclose(spectrum(none), [0, 0, 0, 0, 0, 1], atol=1e-12)


def test_fidelity_spot_values():
    phi = max_entangled(2)
    mixed = DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 2))
    assert abs(fidelity(phi, phi) - 1.0) < 1e-12
    assert abs(fidelity(phi, mixed) - 0.25) < 1e-12
    for t in (0.1, 0.5, 0.85):
        assert abs(fidelity(isotropic(t, 2), phi) - t) < 1e-11
    # tensor powers of commuting pairs: the closed form (sum_j sqrt(r_j s_j))^(2n),
    # and the same value from the dense powers
    pairs = (
        (depolarizing_choi(0.3), isotropic(0.6, 2), np.sqrt(0.7 * 0.6) + np.sqrt(0.3 * 0.4)),
        (erasure_output(0.35), erasure_family(0.5), np.sqrt(0.65 * 0.5) + np.sqrt(0.35 * 0.5)),
    )
    for a, b, root in pairs:
        for n in (1, 2, 3, 4):
            rho, sig = states.tensor_power(a, n), states.tensor_power(b, n)
            got = fidelity(rho, sig)
            assert abs(got - root ** (2 * n)) <= 1e-11, n
            if rho.dim <= 256:
                want = fidelity(DensityMatrix(rho.matrix, rho.dims), DensityMatrix(sig.matrix, sig.dims))
                assert abs(got - want) <= 1e-9 * want, (n, got, want)


def test_fidelity_symmetric_and_dimension_checked():
    rho = depolarizing_choi(0.3)
    sig = isotropic(0.6, 2)
    assert abs(fidelity(rho, sig) - fidelity(sig, rho)) < 1e-11
    with pytest.raises(ValueError):
        fidelity(rho, erasure_family(0.5))
    with pytest.raises(ValueError, match="dimension mismatch"):
        fidelity(states.tensor_power(rho, 2), states.tensor_power(sig, 3))


def test_fidelity_monotone_under_partial_trace():
    # commuting pairs: common random eigenbasis on (2, 2), random spectra
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(a)
        s1 = rng.random(4)
        s2 = rng.random(4)
        rho = DensityMatrix((q * (s1 / s1.sum())) @ q.conj().T, (2, 2))
        sig = DensityMatrix((q * (s2 / s2.sum())) @ q.conj().T, (2, 2))
        f_joint = fidelity(rho, sig)
        rho_a = DensityMatrix(linalg.partial_trace(rho.matrix, (2, 2), [0]), (2,))
        sig_a = DensityMatrix(linalg.partial_trace(sig.matrix, (2, 2), [0]), (2,))
        assert f_joint <= fidelity(rho_a, sig_a) + 1e-10


def test_constructors_yield_valid_density_matrices():
    examples = [
        max_entangled(3),
        isotropic(0.7, 2),
        depolarizing_choi(0.15),
        erasure_output(0.35),
        erasure_family(2 / 3),
    ]
    for rho in examples:
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10


def test_tensor_power_dims_and_values():
    rho = depolarizing_choi(0.15)
    sq = states.tensor_power(rho, 2)
    assert sq.dims == (2, 2, 2, 2)
    assert sq.dim == 16
    assert np.allclose(sq.matrix, np.kron(rho.matrix, rho.matrix))
    assert sq.matrix is sq.matrix  # built once, then cached
    one = erasure_output(0.35)
    cube = states.tensor_power(one, 3)
    assert cube.dims == (2, 3) * 3
    assert cube.dim == 216
    assert np.allclose(cube.matrix, np.kron(np.kron(one.matrix, one.matrix), one.matrix))
    DensityMatrix(cube.matrix, cube.dims)  # the dense power is a valid state
    with pytest.raises(ValueError):
        states.tensor_power(rho, 0)


def test_parse_state_spec():
    assert parse_state_spec("max-entangled:2").dims == (2, 2)
    assert parse_state_spec("isotropic:0.85:2").dims == (2, 2)
    assert parse_state_spec("depolarizing-choi:0.15").dims == (2, 2)
    assert parse_state_spec("erasure:0.5").dims == (2, 3)
    for bad in ("nope:1", "isotropic:0.5", "max-entangled:x", "erasure:2.0"):
        with pytest.raises(ValueError):
            parse_state_spec(bad)


def test_channel_spec_validation():
    states.ChannelSpec("depolarizing", 0.15)
    with pytest.raises(ValueError):
        states.ChannelSpec("amplitude-damping", 0.1)
    with pytest.raises(ValueError):
        states.ChannelSpec("erasure", 1.5)
