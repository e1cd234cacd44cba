"""Dense complex statevector engine.

States are normalized complex vectors over an ordered, labelled basis; one
basis component per synaptic link.  The gate set is deliberately small: the
two-qubit CNOT permutation, a classically-controlled NOT (amplitude swap
conditioned on a classical predicate), general operator application,
unitaries built from Hermitian generators by matrix exponential, and
seeded projective measurement.

Every public operation either returns a state with | ||psi|| - 1 | < 1e-10
or raises DegenerateStateError; non-normalized vectors exist only inside
operations.  ``normalized`` and ``squared_norm`` take every norm in one fixed
order, the bytes of ``amps / np.sqrt(np.sum(re**2 + im**2))`` on every CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateStateError
from .rng import sample_counts, thread_rng

MAX_STATE_DIM = 4096
MAX_OPERATOR_DIM = 256
NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10

OPERATOR_KINDS = ("general", "hermitian", "unitary")


def _pairwise_sum(a: list[float], lo: int, n: int) -> float:
    """Sum of ``a[lo:lo + n]`` in the order ``np.sum`` adds a contiguous float64 array."""
    if n < 8:
        s = 0.0
        for i in range(lo, lo + n):
            s += a[i]
        return s
    if n <= 128:
        r = a[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += a[i + j]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            s += a[i]
        return s
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a, lo, half) + _pairwise_sum(a, lo + half, n - half)


def squared_norm(amps: Sequence[complex]) -> float:
    return _pairwise_sum([z.real * z.real + z.imag * z.imag for z in amps], 0, len(amps))


def normalized(amps: Sequence[complex], message: str) -> list[complex]:
    """``amps / sqrt(sum |z|^2)`` as numpy computes it; raises ``message`` on a zero norm."""
    n2 = squared_norm(amps)
    if n2 == 0.0:
        raise DegenerateStateError(message)
    # numpy's complex division by (s, 0): rat = 0.0, scl = 1/(s + 0.0*rat)
    scl = 1.0 / math.sqrt(n2)
    return [complex((z.real + z.imag * 0.0) * scl, (z.imag - z.real * 0.0) * scl) for z in amps]


def all_finite(a: np.ndarray) -> bool:
    """Whether every part of the complex array ``a`` is finite, tested on Python floats
    (numpy's complex isfinite loop would add its code pages to each run's memory)."""
    return all(map(math.isfinite, a.view(float).ravel().tolist()))


def uniform_amplitudes(dim: int) -> list[complex]:
    """The equal superposition over ``dim`` components, as a list of complex."""
    return [complex(1.0 / math.sqrt(dim))] * dim


@dataclass(frozen=True)
class QuantumState:
    """Normalized amplitude vector over labelled basis components."""

    amplitudes: np.ndarray
    basis_labels: tuple[str, ...]

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a nonempty 1-d complex vector")
        if amps.size > MAX_STATE_DIM:
            raise ValueError(f"state dimension {amps.size} exceeds cap {MAX_STATE_DIM}")
        if len(self.basis_labels) != amps.size:
            raise ValueError("basis_labels length must match the state dimension")
        norm = math.sqrt(squared_norm(amps.tolist()))
        if not abs(norm - 1.0) < NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))

    @classmethod
    def from_amplitudes(
        cls,
        amps: Sequence[complex] | np.ndarray,
        labels: Sequence[str] | None = None,
        normalize: bool = False,
    ) -> "QuantumState":
        arr = np.asarray(amps, dtype=complex)
        if normalize:
            arr = normalized(arr.tolist(), "cannot normalize a zero-amplitude vector")
        return cls(arr, tuple(map(str, range(len(arr)))) if labels is None else tuple(labels))

    @classmethod
    def basis_state(cls, dim: int, index: int, labels: Sequence[str] | None = None) -> "QuantumState":
        arr = np.zeros(dim, dtype=complex)
        arr[index] = 1.0
        return cls.from_amplitudes(arr, labels)

    @classmethod
    def uniform(cls, dim: int, labels: Sequence[str] | None = None) -> "QuantumState":
        return cls.from_amplitudes(uniform_amplitudes(dim), labels)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def probabilities(self) -> np.ndarray:
        return self.amplitudes.real**2 + self.amplitudes.imag**2

    def norm(self) -> float:
        return math.sqrt(squared_norm(self.amplitudes.tolist()))


@dataclass(frozen=True)
class OperatorMatrix:
    """Square complex operator with a declared, verified kind."""

    entries: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("operator must be a square complex matrix")
        if m.shape[0] > MAX_OPERATOR_DIM:
            raise ValueError(f"operator dimension {m.shape[0]} exceeds cap {MAX_OPERATOR_DIM}")
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not all_finite(m):
            raise ValueError("operator entries must be finite")
        if self.kind == "hermitian":
            dev = np.linalg.norm(m - m.conj().T)
            if not dev < HERMITIAN_TOL:
                raise ValueError(f"declared hermitian but ||M - M^dagger||_F = {dev:.3e}")
        elif self.kind == "unitary":
            dev = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
            if not dev < UNITARY_TOL:
                raise ValueError(f"declared unitary but ||M^dagger M - I||_F = {dev:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


def cnot_matrix() -> OperatorMatrix:
    """Two-qubit controlled-NOT as a 4x4 permutation: swaps |10> and |11>."""
    m = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    return OperatorMatrix(m, kind="unitary")


def classically_controlled_not(
    state: QuantumState, target_pair: tuple[int, int], control: bool
) -> QuantumState:
    """Swap the two amplitudes of ``target_pair`` when ``control`` is true."""
    i, j = target_pair
    if i == j:
        raise ValueError("target_pair indices must be distinct")
    for k in (i, j):
        if not 0 <= k < state.dim:
            raise ValueError(f"basis index {k} out of range for dimension {state.dim}")
    if not control:
        return state
    amps = state.amplitudes.copy()
    amps[i], amps[j] = amps[j], amps[i]
    return QuantumState(amps, state.basis_labels)


def apply_operator(
    state: QuantumState, op: OperatorMatrix, renormalize: bool
) -> QuantumState:
    """Apply M to the amplitudes, optionally renormalizing the result."""
    if op.dim != state.dim:
        raise ValueError(f"operator dimension {op.dim} != state dimension {state.dim}")
    out = (op.entries @ state.amplitudes).tolist()
    if renormalize:
        out = normalized(out, "cannot normalize a zero-amplitude vector")
    else:
        norm = math.sqrt(squared_norm(out))
        if not abs(norm - 1.0) < NORM_TOL:
            raise ValueError(
                f"operator changed the norm to {norm}; pass renormalize=True "
                "for non-unitary operators"
            )
    return QuantumState(out, state.basis_labels)


def expm_hermitian(h: OperatorMatrix, scale: float) -> OperatorMatrix:
    """exp(i * scale * H) for Hermitian H, via eigendecomposition.

    Diagonalizing keeps the result unitary to rounding: the eigenvector
    basis is orthonormal and only the eigenvalues are exponentiated.
    """
    m = h.entries
    dev = np.linalg.norm(m - m.conj().T)
    if not dev < HERMITIAN_TOL:
        raise ValueError(f"matrix is not hermitian: ||M - M^dagger||_F = {dev:.3e}")
    try:
        eigvals, eigvecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(
            f"eigendecomposition failed for dimension {h.dim} "
            f"(||H||_F = {np.linalg.norm(m):.3e}): {err}"
        ) from err
    phases = np.exp(1j * scale * eigvals)
    out = (eigvecs * phases) @ eigvecs.conj().T
    dev_u = np.linalg.norm(out.conj().T @ out - np.eye(h.dim))
    if not dev_u < UNITARY_TOL:
        raise RuntimeError(
            f"exponential lost unitarity: ||U^dagger U - I||_F = {dev_u:.3e} "
            f"(||H||_F = {np.linalg.norm(m):.3e}, scale = {scale})"
        )
    return OperatorMatrix(out, kind="unitary")


_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def spin_half_generators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular-momentum generators (Jx, Jy, Jz) for a two-level system."""
    return _SIGMA_X / 2.0, _SIGMA_Y / 2.0, _SIGMA_Z / 2.0


@dataclass(frozen=True)
class RotationSpec:
    """Rotation by ``angle`` about unit ``axis`` with Hermitian generators."""

    axis: np.ndarray                      # unit 3-vector
    angle: float                          # radians
    generators: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=float)
        if ax.shape != (3,):
            raise ValueError("axis must be a 3-vector")
        if not abs(np.linalg.norm(ax) - 1.0) < 1e-12:
            raise ValueError(f"axis must be unit length, got |axis| = {np.linalg.norm(ax)}")
        gens = tuple(np.asarray(g, dtype=complex) for g in self.generators)
        d = gens[0].shape[0]
        for g in gens:
            if g.shape != (d, d):
                raise ValueError("generators must be square matrices of equal dimension")
            if not np.linalg.norm(g - g.conj().T) < HERMITIAN_TOL:
                raise ValueError("every generator component must be hermitian")
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "generators", gens)

    @classmethod
    def spin_half(cls, axis: Sequence[float], angle: float) -> "RotationSpec":
        return cls(np.asarray(axis, dtype=float), angle, spin_half_generators())


def rotation_operator(spec: RotationSpec) -> OperatorMatrix:
    """exp(-i * angle * axis.J) with hbar = 1."""
    jx, jy, jz = spec.generators
    h = spec.axis[0] * jx + spec.axis[1] * jy + spec.axis[2] * jz
    return expm_hermitian(OperatorMatrix(h, kind="hermitian"), -spec.angle)


def measure(state: QuantumState, shots: int, seed: int) -> dict[str, int]:
    """Histogram of ``shots`` i.i.d. basis draws; deterministic given seed.

    The draws are those of ``stream_rng(seed)``, taken from ``thread_rng(seed)``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    counts = sample_counts(state.probabilities(), shots, thread_rng(seed))
    return {label: int(c) for label, c in zip(state.basis_labels, counts)}


def load_operator_text(path: str | Path, kind: str = "general") -> OperatorMatrix:
    """Read the text matrix format: a line "d", then d rows of d "re,im" pairs."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty operator file")
    try:
        d = int(lines[0])
    except ValueError as err:
        raise ValueError(f"{path}: first line must be the dimension, got {lines[0]!r}") from err
    if len(lines) != d + 1:
        raise ValueError(f"{path}: expected {d} matrix rows, found {len(lines) - 1}")
    rows = []
    for r, line in enumerate(lines[1:]):
        cells = line.split()
        if len(cells) != d:
            raise ValueError(f"{path}: row {r} has {len(cells)} entries, expected {d}")
        row = []
        for c, cell in enumerate(cells):
            parts = cell.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: row {r} column {c} is not a re,im pair: {cell!r}")
            row.append(complex(float(parts[0]), float(parts[1])))
        rows.append(row)
    return OperatorMatrix(np.array(rows, dtype=complex), kind=kind)


def save_operator_text(op: OperatorMatrix, path: str | Path) -> None:
    """Write an operator in the text matrix format read by load_operator_text."""
    lines = [str(op.dim)]
    for row in op.entries:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    Path(path).write_text("\n".join(lines) + "\n")
