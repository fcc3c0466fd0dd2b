"""Finite-dimensional states and measurements.

Density matrices and projective observables are validated value types;
Born-rule probabilities, mutual unbiasedness checks, the qubit Bloch
parametrization and Hilbert-Schmidt random sampling live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UqcrError

HERM_TOL = 1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
for _p in PAULIS:
    _p.setflags(write=False)


class DimensionMismatch(UqcrError):
    """Operator dimensions disagree."""


class NotRankOne(UqcrError):
    """Operation requires rank-1 projectors."""


class BlochNormExceeded(UqcrError):
    """Bloch vector longer than one does not describe a state."""


class WrongDimension(UqcrError):
    """Bloch coordinates only exist for qubits."""


class BadRank(UqcrError):
    """Requested rank outside 1..dim."""


class UnsupportedDimension(UqcrError):
    """No explicit MUB construction shipped for this dimension."""


def _is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if not _is_hermitian(m):
            raise ValueError("density matrix must be Hermitian within 1e-10")
        if abs(m.trace() - 1.0) > HERM_TOL:
            raise ValueError(f"trace {m.trace()!r} must be 1 within 1e-10")
        if float(np.linalg.eigvalsh(m).min()) < -HERM_TOL:
            raise ValueError("density matrix must be positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def is_pure(self, tol: float = 1e-8) -> bool:
        return self.purity() >= 1.0 - tol

    @classmethod
    def from_ket(cls, vec) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("zero vector is not a state")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class ProjectiveObservable:
    """Complete family of mutually orthogonal projectors (one per outcome)."""

    projectors: tuple
    name: str = ""

    def __post_init__(self) -> None:
        projs = tuple(np.array(p, dtype=complex) for p in self.projectors)
        if not projs:
            raise ValueError("observable needs at least one projector")
        dim = projs[0].shape[0]
        acc = np.zeros((dim, dim), dtype=complex)
        for i, p in enumerate(projs):
            if p.shape != (dim, dim):
                raise DimensionMismatch("projectors must share one dimension")
            if not _is_hermitian(p):
                raise ValueError(f"projector {i} is not Hermitian")
            if np.max(np.abs(p @ p - p)) > HERM_TOL:
                raise ValueError(f"projector {i} is not idempotent")
            acc += p
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if np.max(np.abs(projs[i] @ projs[j])) > HERM_TOL:
                    raise ValueError(f"projectors {i} and {j} are not orthogonal")
        if np.max(np.abs(acc - np.eye(dim))) > HERM_TOL:
            raise ValueError("projectors must sum to the identity")
        for p in projs:
            p.setflags(write=False)
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def outcome_count(self) -> int:
        return len(self.projectors)

    @cached_property
    def projector_rows(self) -> np.ndarray:
        """Read-only (K, d^2) block, row i = vec(conj P_i): a row times vec(rho) is Tr[P_i rho]."""
        rows = np.stack(self.projectors).conj().reshape(len(self.projectors), -1)
        rows.setflags(write=False)
        return rows

    @cached_property
    def is_rank_one(self) -> bool:
        return all(abs(np.real(p.trace()) - 1.0) <= 1e-9 for p in self.projectors)

    @cached_property
    def _kets(self) -> np.ndarray:
        vecs = []
        for p in self.projectors:
            w, v = np.linalg.eigh(p)
            ket = v[:, -1]
            pivot = int(np.argmax(np.abs(ket)))
            phase = ket[pivot] / abs(ket[pivot])
            vecs.append(ket / phase)
        kets = np.array(vecs)
        kets.setflags(write=False)
        return kets

    def basis_vectors(self) -> np.ndarray:
        """Rows are the measured basis kets; requires rank-1 projectors.

        Computed once per observable and returned read-only on every call."""
        if not self.is_rank_one:
            raise NotRankOne(f"observable {self.name!r} has degenerate outcomes")
        return self._kets


def born_probabilities(obs, rho: DensityMatrix) -> np.ndarray:
    """Outcome probabilities Tr[P_i rho], clamped into [0, 1]."""
    if obs.dim != rho.dim:
        raise DimensionMismatch(f"observable dim {obs.dim} vs state dim {rho.dim}")
    return (obs.projector_rows @ rho.matrix.ravel()).real.clip(0.0, 1.0)


def is_mub_pair(a: ProjectiveObservable, b: ProjectiveObservable, tol: float = 1e-10) -> bool:
    """True iff all cross overlaps have modulus 1/sqrt(N)."""
    if a.dim != b.dim:
        raise DimensionMismatch("bases must share one dimension")
    if not (a.is_rank_one and b.is_rank_one):
        raise NotRankOne("mutual unbiasedness is defined for rank-1 bases")
    # |<a|b>|^2 = Tr[P_a P_b] for every pair at once, from the projector rows
    overlaps = np.sqrt(np.maximum((a.projector_rows.conj() @ b.projector_rows.T).real, 0.0))
    return bool(np.all(np.abs(overlaps - 1.0 / np.sqrt(a.dim)) <= tol))


def bloch_to_density(r) -> DensityMatrix:
    """Qubit state 1/2 (I + r . sigma)."""
    vec = np.asarray(r, dtype=float).reshape(3)
    if np.linalg.norm(vec) > 1.0 + HERM_TOL:
        raise BlochNormExceeded(f"|r| = {np.linalg.norm(vec)!r} exceeds 1")
    m = 0.5 * (np.eye(2, dtype=complex) + sum(v * s for v, s in zip(vec, PAULIS)))
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m)


def density_to_bloch(rho: DensityMatrix) -> np.ndarray:
    """Inverse of the qubit Bloch parametrization: r_i = Tr[sigma_i rho]."""
    if rho.dim != 2:
        raise WrongDimension("Bloch coordinates exist only in dimension 2")
    return np.array([float(np.real(np.trace(s @ rho.matrix))) for s in PAULIS])


def random_density(dim: int, rank: int, seed) -> DensityMatrix:
    """Hilbert-Schmidt-style sample: partial trace of a random bipartite
    pure state with Schmidt rank at most ``rank``.  Deterministic per seed.
    """
    if not 1 <= rank <= dim:
        raise BadRank(f"rank must lie in 1..{dim}, got {rank}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m /= np.real(np.trace(m))
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m)


def random_ket(dim: int, seed) -> np.ndarray:
    """Haar-random unit vector."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def observable_from_basis(vectors, name: str = "") -> ProjectiveObservable:
    """Rank-1 observable from a list of orthonormal kets."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    return ProjectiveObservable(
        tuple(np.outer(v, v.conj()) for v in vecs), name
    )


def observable_from_bloch_axis(axis, name: str = "") -> ProjectiveObservable:
    """Two-outcome qubit observable with +/- projectors along ``axis``."""
    n = np.asarray(axis, dtype=float).reshape(3)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise ValueError("Bloch axis must be non-zero")
    n = n / norm
    op = sum(v * s for v, s in zip(n, PAULIS))
    plus = 0.5 * (np.eye(2, dtype=complex) + op)
    minus = 0.5 * (np.eye(2, dtype=complex) - op)
    return ProjectiveObservable((plus, minus), name)


def pauli_observable(which: str) -> ProjectiveObservable:
    axes = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}
    if which not in axes:
        raise ValueError(f"unknown Pauli axis {which!r}")
    return observable_from_bloch_axis(axes[which], f"pauli_{which}")


def standard_mub_set(dim: int) -> list[ProjectiveObservable]:
    """Maximal set of dim+1 mutually unbiased bases (dims 2 and 3 only)."""
    if dim == 2:
        return [pauli_observable("x"), pauli_observable("y"), pauli_observable("z")]
    if dim == 3:
        omega = np.exp(2j * np.pi / 3)
        bases = [observable_from_basis(np.eye(3), "computational")]
        for k in range(3):
            vecs = []
            for j in range(3):
                vecs.append(
                    np.array([omega ** ((j * m + k * m * m) % 3) for m in range(3)])
                    / np.sqrt(3)
                )
            bases.append(observable_from_basis(vecs, f"fourier_{k}"))
        return bases
    raise UnsupportedDimension(f"no explicit MUB construction for dim {dim}")
