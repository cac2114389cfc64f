# Dense Hermitian linear algebra used by every other module; real inputs stay real.

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-entry norm of m - m^dagger."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^dagger) / 2; a real m stays real."""
    return (m + np.asarray(m).conj().T) / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply and the inputs' dtype is kept."""
    return np.kron(a, b)


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in keep.

    dims lists the local dimension of each factor in order; their product must
    equal the matrix dimension. Kept factors retain their original order.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError("subsystem dimensions must be >= 1")
    n = int(np.prod(dims))
    m = np.asarray(m)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    keep_set = sorted(set(int(i) for i in keep))
    if not keep_set:
        raise ValueError("keep must be a nonempty set of subsystem indices")
    if keep_set[0] < 0 or keep_set[-1] >= len(dims):
        raise ValueError(f"keep indices {keep_set} out of range for {len(dims)} subsystems")
    arr = m.reshape(dims + dims)
    nsys = len(dims)
    for ax in reversed(range(len(dims))):
        if ax in keep_set:
            continue
        arr = np.trace(arr, axis1=ax, axis2=ax + nsys)
        nsys -= 1
    d_keep = int(np.prod([dims[i] for i in keep_set]))
    return arr.reshape(d_keep, d_keep)


def permutation_operator(d: int, k: int, perm: Sequence[int]) -> np.ndarray:
    """Unitary 0/1 matrix permuting k tensor factors of local dimension d.

    perm is a permutation of 0..k-1; factor i is moved to slot perm[i], so that
    permutation_operator(d, k, s) @ permutation_operator(d, k, t) equals the
    operator of the composite map i -> s[t[i]].
    """
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{k - 1}")
    dim = d**k
    cols = np.arange(dim)
    digits = np.unravel_index(cols, (d,) * k)
    target: list[np.ndarray | None] = [None] * k
    for i, slot in enumerate(perm):
        target[slot] = digits[i]
    rows = np.ravel_multi_index(tuple(target), (d,) * k)  # type: ignore[arg-type]
    w = np.zeros((dim, dim), dtype=complex)
    w[rows, cols] = 1.0
    return w


def psd_project(h: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix to each Hermitian h of a (..., n, n) stack.

    Negative eigenvalues are clamped at zero. Only the lower triangle of h is
    read (the LAPACK convention), so h must be Hermitian to rounding; the
    nearest PSD matrix to any square matrix is that of its Hermitian part,
    which callers form with hermitize where needed. A matrix padded with
    zero rows and columns keeps them: LAPACK splits the padding off exactly.
    """
    w, v = np.linalg.eigh(h)
    if w.size == 0 or w[..., 0].min() >= 0.0:
        return h
    np.maximum(w, 0.0, out=w)
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


# --- JSON serialization (consumed by the CLI `check` subcommand) ---


def matrix_to_json_dict(m: np.ndarray, dims: Sequence[int]) -> dict:
    """Serialize a square matrix as {dim, dims, entries: [[re, im], ...]} row-major."""
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in dims]
    if m.shape != (int(np.prod(dims)),) * 2:
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"dim": int(m.shape[0]), "dims": dims, "entries": entries}


def matrix_from_json_dict(data: dict) -> tuple[np.ndarray, tuple[int, ...]]:
    """Inverse of matrix_to_json_dict. Raises ValueError on malformed input."""
    try:
        dim = int(data["dim"])
        dims = tuple(int(d) for d in data["dims"])
        entries = data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if dim != int(np.prod(dims)):
        raise ValueError(f"dim {dim} does not equal the product of dims {dims}")
    try:
        flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix entries: {exc}") from exc
    if flat.size != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {flat.size}")
    if not np.all(np.isfinite(flat.view(float))):
        raise ValueError("non-finite matrix entries")
    return flat.reshape(dim, dim), dims


def save_matrix_json(path: str, m: np.ndarray, dims: Sequence[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json_dict(m, dims), fh)


def load_matrix_json(path: str) -> tuple[np.ndarray, tuple[int, ...]]:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json_dict(json.load(fh))
