import numpy as np
import pytest

from unext import linalg

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def test_kron_identities():
    assert np.allclose(linalg.kron(I2, I2), np.eye(4))
    got = linalg.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.allclose(got, np.diag([0.0, 1.0, 0.0, 0.0]))
    # the inputs' dtype is kept: real factors give a real product
    assert got.dtype == np.float64 and linalg.kron(I2, X).dtype == np.complex128


def test_kron_xx_swaps_00_to_11():
    # hand-expanded 4x4: X (x) X maps the |00> amplitude onto |11>
    v00 = np.zeros(4)
    v00[0] = 1.0
    out = linalg.kron(X, X) @ v00
    expected = np.zeros(4)
    expected[3] = 1.0
    assert np.allclose(out, expected)


def test_partial_trace_maximally_entangled():
    phi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            phi[2 * i + i, 2 * j + j] = 0.5
    red = linalg.partial_trace(phi, (2, 2), keep=[0])
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    rho = random_hermitian(3, 1)
    rho = rho @ rho.conj().T
    rho /= np.trace(rho)
    sig = random_hermitian(4, 2)
    sig = sig @ sig.conj().T
    sig /= np.trace(sig)
    joint = linalg.kron(rho, sig)
    assert np.allclose(linalg.partial_trace(joint, (3, 4), keep=[0]), rho, atol=1e-12)
    assert np.allclose(linalg.partial_trace(joint, (3, 4), keep=[1]), sig, atol=1e-12)


def test_partial_trace_preserves_trace():
    for seed in range(4):
        m = random_hermitian(12, seed)
        red = linalg.partial_trace(m, (2, 3, 2), keep=[1])
        assert abs(np.trace(red) - np.trace(m)) < 1e-12 * max(1.0, abs(np.trace(m)))


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(4), (2, 3), keep=[0])
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(4), (2, 2), keep=[])


def test_permutation_operator_identity_and_swap():
    assert np.allclose(linalg.permutation_operator(3, 2, (0, 1)), np.eye(9))
    swap = linalg.permutation_operator(2, 2, (1, 0))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 1
    expected[1, 2] = expected[2, 1] = 1
    assert np.allclose(swap, expected)


def test_permutation_operator_group_representation():
    rng = np.random.default_rng(7)
    d, k = 2, 3
    for _ in range(6):
        s = tuple(rng.permutation(k))
        t = tuple(rng.permutation(k))
        ws = linalg.permutation_operator(d, k, s)
        wt = linalg.permutation_operator(d, k, t)
        comp = tuple(s[t[i]] for i in range(k))
        assert np.allclose(ws @ wt, linalg.permutation_operator(d, k, comp))
        assert np.allclose(ws @ ws.conj().T, np.eye(d**k))
        inv = tuple(np.argsort(s))
        assert np.allclose(linalg.permutation_operator(d, k, inv), ws.conj().T)


def test_permutation_operator_rejects_non_bijection():
    with pytest.raises(ValueError):
        linalg.permutation_operator(2, 3, (0, 0, 1))


def test_psd_project_fixed_point_and_clamp():
    p = random_hermitian(6, 3)
    p = p @ p.conj().T  # PSD
    assert np.max(np.abs(linalg.psd_project(p) - p)) <= 1e-12 * max(1.0, np.max(np.abs(p)))
    got = linalg.psd_project(np.diag([1.0, -1.0]).astype(complex))
    assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_project_idempotent():
    h = random_hermitian(8, 11)
    once = linalg.psd_project(h)
    twice = linalg.psd_project(once)
    assert np.max(np.abs(once - twice)) <= 1e-11


def test_psd_project_is_frobenius_nearest():
    rng = np.random.default_rng(5)
    h = random_hermitian(5, 13)
    proj = linalg.psd_project(h)
    best = np.linalg.norm(h - proj)
    for _ in range(25):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        psd = a @ a.conj().T
        assert best <= np.linalg.norm(h - psd) + 1e-12
    # a real symmetric matrix is projected in real arithmetic, onto the same point
    sym = h.real
    proj = linalg.psd_project(sym)
    assert proj.dtype == np.float64
    assert np.max(np.abs(proj - linalg.psd_project(sym + 0j))) <= 1e-12


def test_psd_project_empty_matrix():
    got = linalg.psd_project(np.zeros((0, 0), dtype=complex))
    assert got.shape == (0, 0)
    # a Schur-Weyl block the face misses has a basis of zero columns in the
    # padded face stack, and its PSD step yields 0
    f = np.zeros((2, 4, 3), dtype=complex)
    f[0, :3, :3] = np.eye(3)
    z = np.stack([random_hermitian(4, 6), random_hermitian(4, 7)])
    fh = f.conj().transpose(0, 2, 1)
    y = f @ linalg.psd_project(fh @ z @ f) @ fh
    assert not np.any(y[1])
    assert np.max(np.abs(y[0, :3, :3] - linalg.psd_project(z[0, :3, :3]))) <= 1e-12


def test_matrix_json_round_trip(tmp_path):
    m = random_hermitian(6, 21)
    path = tmp_path / "m.json"
    linalg.save_matrix_json(str(path), m, (2, 3))
    got, dims = linalg.load_matrix_json(str(path))
    assert dims == (2, 3)
    assert np.allclose(got, m)


def test_matrix_json_rejects_malformed():
    with pytest.raises(ValueError):
        linalg.matrix_from_json_dict({"dim": 2, "dims": [2], "entries": [[1, 0]]})
    with pytest.raises(ValueError):
        linalg.matrix_from_json_dict({"dim": 3, "dims": [2], "entries": [[1, 0]] * 9})
    for entries in ([5], [["1", "0"]], [[None, 0]], [[10**400, 0]]):
        with pytest.raises(ValueError):
            linalg.matrix_from_json_dict({"dim": 1, "dims": [1], "entries": entries})
