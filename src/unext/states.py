"""Named bipartite states and qubit channels.

Constructors here produce validated density matrices on declared subsystem
dimensions. The named states are real: each is built from its closed form
in float64 and validated once, and the tests check it against the channel
construction (complex Kraus operators through apply_channel_b). The erasure
channel enlarges Bob's qubit to dimension 3, with the third basis vector
acting as the erasure flag, so its bipartite outputs live on dims (2, 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from . import linalg

# DensityMatrix accepts a Hermiticity defect up to _HERMITICITY_TOL times
# max(1, largest entry), a trace within _TRACE_TOL of 1 and a smallest
# eigenvalue down to -_PSD_TOL
_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10
_PSD_TOL = 1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix with a declared tensor factorization.

    The matrix is copied on construction and stored as float64 when its
    imaginary part is exactly zero, as complex128 otherwise.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix)
        real = not np.iscomplexobj(m) or not m.imag.any()
        # always a private copy, so that changing the caller's array later
        # cannot change a validated state
        m = np.array(m.real if real else m, dtype=float if real else complex, order="C")
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        n = int(np.prod(dims))
        if any(d < 1 for d in dims):
            raise ValueError("subsystem dimensions must be >= 1")
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if linalg.hermiticity_defect(m) > _HERMITICITY_TOL * scale:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1 within {_TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(linalg.hermitize(m))[0])
        if lo < -_PSD_TOL:
            raise ValueError(f"minimum eigenvalue {lo:.3e} below -{_PSD_TOL}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ChannelSpec:
    """A qubit channel family: depolarizing or erasure, with one probability parameter."""

    kind: str
    p: float

    def __post_init__(self):
        if self.kind not in ("depolarizing", "erasure"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"channel parameter {self.p} outside [0, 1]")


def _phi_projector(d: int) -> np.ndarray:
    """Projector onto the maximally entangled vector of Schmidt rank d, unvalidated."""
    vec = np.zeros(d * d)
    vec[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(vec, vec)


def max_entangled(m: int) -> DensityMatrix:
    """Maximally entangled state of Schmidt rank m on dims (m, m)."""
    if m < 1:
        raise ValueError("Schmidt rank must be >= 1")
    return DensityMatrix(_phi_projector(m), (m, m))


def isotropic(t: float, d: int) -> DensityMatrix:
    """Mixture t*Phi + (1-t)*(I - Phi)/(d^2 - 1) of the rank-d maximally entangled state."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"fidelity parameter {t} outside [0, 1]")
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    phi = _phi_projector(d)
    rest = (np.eye(d * d) - phi) / (d * d - 1)
    return DensityMatrix(t * phi + (1.0 - t) * rest, (d, d))


def depolarizing_kraus(p: float) -> list[np.ndarray]:
    """Kraus operators of the qubit depolarizing channel with parameter p."""
    return [
        np.sqrt(1.0 - p) * np.eye(2, dtype=complex),
        np.sqrt(p / 3.0) * PAULI_X,
        np.sqrt(p / 3.0) * PAULI_Y,
        np.sqrt(p / 3.0) * PAULI_Z,
    ]


def erasure_kraus(p: float) -> list[np.ndarray]:
    """Kraus operators of the qubit erasure channel; output dimension 3 (flag = basis vector 2)."""
    keep = np.zeros((3, 2), dtype=complex)
    keep[0, 0] = keep[1, 1] = np.sqrt(1.0 - p)
    e0 = np.zeros((3, 2), dtype=complex)
    e0[2, 0] = np.sqrt(p)
    e1 = np.zeros((3, 2), dtype=complex)
    e1[2, 1] = np.sqrt(p)
    return [keep, e0, e1]


def apply_channel_b(rho: DensityMatrix, kraus: Sequence[np.ndarray]) -> DensityMatrix:
    """Apply a channel given by Kraus operators to the second subsystem of a bipartite state."""
    if len(rho.dims) != 2:
        raise ValueError("apply_channel_b expects a bipartite state")
    d_a, d_b = rho.dims
    out_dim = kraus[0].shape[0]
    if any(k.shape != (out_dim, d_b) for k in kraus):
        raise ValueError("inconsistent Kraus operator shapes")
    ident = np.eye(d_a, dtype=complex)
    out = np.zeros((d_a * out_dim, d_a * out_dim), dtype=complex)
    for k in kraus:
        lifted = linalg.kron(ident, k)
        out += lifted @ rho.matrix @ lifted.conj().T
    return DensityMatrix(linalg.hermitize(out), (d_a, out_dim))


def depolarizing_choi(p: float) -> DensityMatrix:
    """Qubit depolarizing Choi state (id (x) D^p)(Phi_2) = (1-p)Phi + (p/3)(I - Phi)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    phi = _phi_projector(2)
    return DensityMatrix((1.0 - p) * phi + (p / 3.0) * (np.eye(4) - phi), (2, 2))


def erasure_output(p: float) -> DensityMatrix:
    """(id (x) erasure_p)(Phi_2) on dims (2, 3), which is erasure_family(p)."""
    return erasure_family(p)


def erasure_family(q: float) -> DensityMatrix:
    """(1-q)*Phi + q*(I_A/2 (x) |e><e|) on dims (2, 3), which is (id (x) erasure_q)(Phi_2)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"mixing weight {q} outside [0, 1]")
    out = np.zeros((6, 6))
    # |a b> is index 3a + b here and the flag e is b = 2, so Phi's |00>, |11> are 0, 4
    out[np.ix_((0, 4), (0, 4))] = (1.0 - q) * _phi_projector(2)[np.ix_((0, 3), (0, 3))]
    out[(2, 5), (2, 5)] = q / 2
    return DensityMatrix(out, (2, 3))


@dataclass(frozen=True)
class TensorPower:
    """n-fold tensor power of a validated single-copy state, kept factored.

    The dense matrix of dimension factor.dim ** n is built, in the factor's
    dtype, only when `matrix` is read, and then cached. Functions that know
    the product structure (fidelity, the commuting-pair divergences) work on
    the factor.
    """

    factor: DensityMatrix
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("tensor power requires n >= 1")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.factor.dims * self.n

    @property
    def dim(self) -> int:
        return self.factor.dim**self.n

    @cached_property
    def matrix(self) -> np.ndarray:
        out = self.factor.matrix
        for _ in range(self.n - 1):
            out = linalg.kron(out, self.factor.matrix)
        return out


State = Union[DensityMatrix, TensorPower]


def same_power(rho: State, sigma: State) -> bool:
    """True when both states are tensor powers of equal n over equal factor dims."""
    return (
        isinstance(rho, TensorPower)
        and isinstance(sigma, TensorPower)
        and rho.n == sigma.n
        and rho.factor.dims == sigma.factor.dims
    )


def fidelity(rho: State, sigma: State) -> float:
    """Quantum fidelity (trace-norm of sqrt(rho) sqrt(sigma), squared).

    Multiplicative on tensor products, so two powers of equal n are handled
    on their single-copy factors.
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    if same_power(rho, sigma):
        return fidelity(rho.factor, sigma.factor) ** rho.n
    w, v = np.linalg.eigh(linalg.hermitize(rho.matrix))
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_rho @ sigma.matrix @ sqrt_rho
    wi = np.linalg.eigvalsh(linalg.hermitize(inner))
    # eigenvalues at rounding-noise level would contribute O(1e-8) after the
    # square root; zero them instead
    wi = np.where(wi > 1e-14 * max(1.0, float(wi[-1])), wi, 0.0)
    val = float(np.sum(np.sqrt(wi)) ** 2)
    return min(max(val, 0.0), 1.0)


def tensor_power(rho: DensityMatrix, n: int) -> TensorPower:
    """n-fold tensor power; subsystem dims are repeated n times."""
    return TensorPower(rho, n)


def parse_state_spec(spec: str) -> DensityMatrix:
    """Parse a named-state constructor string.

    Accepted forms: "max-entangled:m", "isotropic:t:d", "depolarizing-choi:p",
    "erasure:q". Raises ValueError on anything else.
    """
    parts = spec.split(":")
    name, args = parts[0], parts[1:]
    try:
        if name == "max-entangled" and len(args) == 1:
            return max_entangled(int(args[0]))
        if name == "isotropic" and len(args) == 2:
            return isotropic(float(args[0]), int(args[1]))
        if name == "depolarizing-choi" and len(args) == 1:
            return depolarizing_choi(float(args[0]))
        if name == "erasure" and len(args) == 1:
            return erasure_family(float(args[0]))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad state spec {spec!r}: {exc}") from exc
    raise ValueError(f"unrecognized state spec {spec!r}")
